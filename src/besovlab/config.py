"""Run configuration: validation, defaults, canonical hashing.

A run is described by one flat JSON object, validated before any grid is
built: ``_ROOT`` below types every key, check parameters by the value
checks their ``check_*`` signatures annotate (see ``schema``); a Lorentz
request with p = 1 and a finite q is rejected; and the runner judges check
parameters, signature defaults filled in, by each check's own rules
(verify.CHECK_RULES).
The potential expression is parsed and checked here, without samples.
Only nonfinite potential samples, heat_gaussian's t <= 1 sweep under a
flagged potential and equivalence_AV_A0's smallness flags wait for the
grid, since they read the potential's samples.  Rejections here raise
:class:`~besovlab.errors.ConfigInvalid` with a message that starts
``at <path>:``, the slash-separated path of the offending value.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigInvalid, EmptyDomain, GridMismatch, InvalidExponent
from .geometry import DomainSpec, ball, box, interval
from .norms import check_lorentz_exponents
from .potential import parse_potential
from .schema import (
    _BOOLEAN, _COORDS, _EXPONENT, _EXT_EXPONENT, _NUMBER, _POSITIVE, _SUPPLIED,
    Check, _array, _either, _fail, _finite, _number, _object, _string, _tagged,
)
from .verify import CHECKS, FAMILY_TAGS, FunctionFamily

__all__ = ["RunConfig", "load_config", "make_config"]

# arguments the runner supplies itself; configs may not set them
_RUNNER = dict.fromkeys(("stages", "family"), _SUPPLIED)


def _check_params(fn) -> dict[str, Check]:
    """A check's keyword parameters, each with the value check its signature
    annotates; the rules that tie them to each other and to the dimension
    are the check's own (verify.CHECK_RULES)."""
    params = inspect.signature(fn, eval_str=True).parameters
    return {name: param.annotation.__metadata__[0]
            for name, param in params.items() if name not in _RUNNER}


_ROOT = _object(
    {
        "domain": _tagged("kind", {
            "interval": ({"a": _NUMBER, "b": _NUMBER}, ("a", "b")),
            "box": ({"lo": _COORDS, "hi": _COORDS}, ("lo", "hi")),
            "ball": ({"center": _COORDS, "radius": _POSITIVE}, ("center", "radius")),
        }),
        "h": _array(_POSITIVE, 1, 8, unique=True),
        "potential": _either(None, otherwise=_string()),
        "trunc_radius": _either(None, otherwise=_POSITIVE),
        "profile": _either("smooth", "squared"),
        "norms": _array(_tagged("kind", {
            "besov": ({"s": _NUMBER, "p": _EXPONENT, "q": _EXT_EXPONENT,
                       "homogeneous": _BOOLEAN}, ("s", "p", "q")),
            "sobolev": ({"s": _NUMBER, "variant": _either("plain", "shifted")}, ("s",)),
            "lorentz": ({"p": _EXPONENT, "q": _EXT_EXPONENT}, ("p", "q")),
        })),
        "checks": _array(_tagged("name", {name: ({**_RUNNER, **_check_params(fn)}, ())
                                          for name, fn in CHECKS.items()})),
        "family": _object({"tag": _either(*FAMILY_TAGS),
                           "count": _number(1, 4096, integer=True)}),
        "seed": _number(0, 2**64 - 1, integer=True),
        "out": _string(1),
        "dense_cap": _number(1, integer=True),
        "kernels": _BOOLEAN,
    },
    required=("domain", "h"),
)

_DEFAULTS: dict[str, Any] = {
    "potential": None,
    "trunc_radius": None,
    "profile": "smooth",
    "norms": [],
    "checks": [],
    "family": {"tag": "random-eigenmix", "count": 8},
    "seed": 0,
    "out": "results",
    "dense_cap": 4096,
    "kernels": False,
}

def as_exponent(value: Any) -> Any:
    """Realize a config value: the string "inf" is math.inf, also inside arrays."""
    if isinstance(value, list):
        return [as_exponent(v) for v in value]
    return math.inf if value == "inf" else value


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with every default filled in."""

    domain: dict
    h: tuple[float, ...]
    potential: str | None
    trunc_radius: float | None
    profile: str
    norms: tuple[dict, ...]
    checks: tuple[dict, ...]
    family_tag: str
    family_count: int
    seed: int
    out: str
    dense_cap: int
    kernels: bool

    def domain_spec(self) -> DomainSpec:
        dom = self.domain
        if dom["kind"] == "interval":
            return interval(dom["a"], dom["b"])
        if dom["kind"] == "box":
            return box(dom["lo"], dom["hi"])
        return ball(dom["center"], dom["radius"])

    @property
    def dimension(self) -> int:
        return self.domain_spec().dimension

    def family(self) -> FunctionFamily:
        return FunctionFamily(self.family_tag, seed=self.seed, count=self.family_count)

    def canonical(self) -> dict:
        """Effective configuration as a plain dict, defaults included."""
        return {
            "domain": self.domain,
            "h": list(self.h),
            "potential": self.potential,
            "trunc_radius": self.trunc_radius,
            "profile": self.profile,
            "norms": list(self.norms),
            "checks": list(self.checks),
            "family": {"tag": self.family_tag, "count": self.family_count},
            "seed": self.seed,
            "out": self.out,
            "dense_cap": self.dense_cap,
            "kernels": self.kernels,
        }

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def make_config(data: Mapping[str, Any]) -> RunConfig:
    """Validate a raw mapping and realize it as a RunConfig.

    Raises ConfigInvalid on any malformed value, unknown key, non-finite
    float, malformed domain, undefined Lorentz norm, potential expression
    outside the whitelist, or check parameter the check does not take or
    of the wrong type.  Integral floats in the integer fields (family
    count, seed, dense cap) become ints.
    """
    if not isinstance(data, Mapping):
        raise ConfigInvalid("config root must be a JSON object")
    _finite(data, ())
    _ROOT(dict(data), ())
    for i, norm in enumerate(data.get("norms", ())):
        if norm["kind"] == "lorentz":
            try:
                check_lorentz_exponents(norm["p"], as_exponent(norm["q"]))
            except InvalidExponent as exc:
                _fail(("norms", i, "p"), str(exc))

    family = {**_DEFAULTS["family"], **data.get("family", {})}
    cfg = RunConfig(
        domain=dict(data["domain"]),
        h=tuple(sorted((float(v) for v in data["h"]), reverse=True)),
        potential=data.get("potential", _DEFAULTS["potential"]),
        trunc_radius=data.get("trunc_radius", _DEFAULTS["trunc_radius"]),
        profile=data.get("profile", _DEFAULTS["profile"]),
        norms=tuple(dict(n) for n in data.get("norms", _DEFAULTS["norms"])),
        checks=tuple(dict(entry) for entry in data.get("checks", _DEFAULTS["checks"])),
        family_tag=family["tag"],
        family_count=int(family["count"]),
        seed=int(data.get("seed", _DEFAULTS["seed"])),
        out=data.get("out", _DEFAULTS["out"]),
        dense_cap=int(data.get("dense_cap", _DEFAULTS["dense_cap"])),
        kernels=bool(data.get("kernels", _DEFAULTS["kernels"])),
    )
    try:
        cfg.domain_spec()
    except (EmptyDomain, GridMismatch, ValueError) as exc:
        raise ConfigInvalid(f"at domain: {exc}") from exc
    if cfg.potential is not None:
        try:
            parse_potential(cfg.potential, cfg.dimension)
        except ConfigInvalid as exc:
            _fail(("potential",), str(exc))
    return cfg


def load_config(path, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Read, override, validate.

    ``overrides`` maps top-level keys to replacement values (None entries
    are ignored); the overridden dict is what gets validated and hashed,
    so command-line flags become part of the effective configuration and
    are judged like the file's values.  The non-standard literals NaN,
    Infinity and -Infinity parse, and make_config rejects them at their path.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {p} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):  # make_config rejects any other root
        data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return make_config(data)
