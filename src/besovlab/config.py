"""Run configuration: validation, defaults, canonical hashing.

A run is described by one flat JSON object, validated before any grid is
built: ``_ROOT`` below types every key, check parameters included, a
Lorentz request with p = 1 and a finite q is rejected, and the runner
judges check parameters by each check's own rules (verify.CHECK_RULES).
The potential expression is parsed and checked here, without samples.
Only nonfinite potential samples, heat_gaussian's t <= 1 sweep under a
flagged potential and equivalence_AV_A0's smallness flags wait for the
grid, since they read the potential's samples.  Rejections here raise
:class:`~besovlab.errors.ConfigInvalid` with a message that starts
``at <path>:``, the slash-separated path of the offending value.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import ConfigInvalid, EmptyDomain, GridMismatch, InvalidExponent
from .geometry import DomainSpec, ball, box, interval
from .norms import check_lorentz_exponents
from .potential import parse_potential
from .verify import FAMILY_TAGS, FunctionFamily

__all__ = ["RunConfig", "load_config", "make_config"]

# A value check takes (value, path) and raises through _fail.  JSON types
# map to Python ones as json.loads makes them: an object is a dict, an
# array a list, and a bool is neither a number nor an integer.
Check = Callable[[Any, tuple], None]


def _fail(path: tuple, message: str):
    raise ConfigInvalid(f"at {'/'.join(map(str, path)) or '<root>'}: {message}")


def _number(minimum=-math.inf, maximum=math.inf, exclusive=False, integer=False) -> Check:
    """A number in [minimum, maximum], minimum excluded when ``exclusive``;
    with ``integer``, an int or a float without fractional part (2.0)."""
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            _fail(path, f"{value!r} is not a number")
        if integer and not (isinstance(value, int) or isinstance(value, float)
                            and value.is_integer()):
            _fail(path, f"{value!r} is not an integer")
        if not minimum <= value <= maximum or exclusive and value == minimum:
            _fail(path, f"{value!r} is outside {'(' if exclusive else '['}{minimum}, {maximum}]")
    return check


def _string(min_length: int = 0) -> Check:
    def check(value, path):
        if not isinstance(value, str) or len(value) < min_length:
            _fail(path, f"{value!r} is not a string of at least {min_length} characters")
    return check


def _either(*options: Any, otherwise: Check | None = None) -> Check:
    """One of the listed strings (or None), else what ``otherwise`` accepts."""
    def check(value, path):
        if any(value is o or isinstance(value, str) and value == o for o in options):
            return
        if otherwise is None:
            _fail(path, f"{value!r} is not one of {list(options)}")
        otherwise(value, path)
    return check


def _array(item: Check, lo: int = 0, hi: int | float = math.inf, unique: bool = False) -> Check:
    def check(value, path):
        if not isinstance(value, list):
            _fail(path, f"{value!r} is not an array")
        if not lo <= len(value) <= hi:
            _fail(path, f"needs {lo} to {hi} items, got {len(value)}")
        for i, x in enumerate(value):
            item(x, (*path, i))
        if unique and len(set(value)) < len(value):
            _fail(path, f"{value!r} has repeated items")
    return check


def _object(fields: dict[str, Check], required: tuple = (), closed: bool = True) -> Check:
    def check(value, path):
        if not isinstance(value, dict):
            _fail(path, f"{value!r} is not an object")
        for key in required:
            if key not in value:
                _fail(path, f"required key {key!r} is missing")
        for key, x in value.items():
            if key in fields:
                fields[key](x, (*path, key))
            elif closed:
                allowed = sorted(k for k, c in fields.items() if c is not _SUPPLIED)
                _fail(path, f"unknown key {key!r}; allowed: {allowed}")
    return check


def _tuple(*items: Check) -> Check:
    """An array of len(items) values, the i-th passing items[i]."""
    def check(value, path):
        _array(_ANY, len(items), len(items))(value, path)
        for i, (item, x) in enumerate(zip(items, value)):
            item(x, (*path, i))
    return check


def _tagged(tag: str, variants: dict[str, tuple]) -> Check:
    """An object whose ``tag`` value names its variant, (fields, required keys)."""
    checks = {name: _object({tag: _ANY, **fields}, required)
              for name, (fields, required) in variants.items()}

    def check(value, path):
        _object({}, (tag,), closed=False)(value, path)
        _either(*checks)(value[tag], (*path, tag))
        checks[value[tag]](value, path)
    return check


def _finite(value, path) -> None:
    """No non-finite float anywhere in the nested objects and arrays."""
    if isinstance(value, float) and not math.isfinite(value):
        _fail(path, "non-finite number; numbers must be finite")
    items = value.items() if isinstance(value, Mapping) else (
        enumerate(value) if isinstance(value, (list, tuple)) else ())
    for key, item in items:
        _finite(item, (*path, key))


_ANY: Check = lambda value, path: None
_SUPPLIED: Check = lambda value, path: _fail(path, "is supplied by the runner, not the config")

_NUMBER = _number()
_POSITIVE = _number(0.0, exclusive=True)
_NONNEGATIVE = _number(0.0)
_EXPONENT = _number(1.0)
_BOOLEAN = _either(True, False)
_COORDS = _array(_NUMBER, 1, 3)
# JSON has no infinity literal; the string "inf" stands in for it where an
# infinite exponent or radius is meaningful (weak Lorentz, sup-type Besov,
# the defaults of bernstein's pairs, embeddings' gain and the Kato radius)
_EXT_EXPONENT = _either("inf", otherwise=_EXPONENT)

# every check's keyword parameters, typed; the rules that tie them to each
# other and to the dimension are the check's own (verify.CHECK_RULES)
_STABILITY = _number(1.0)
_SPQ = {"s": _NUMBER, "p": _EXPONENT, "q": _EXPONENT, "stability": _STABILITY}
_CHECK_PARAMS: dict[str, dict[str, Check]] = {
    "resolution_identity": {"tol": _NONNEGATIVE, "homogeneous": _BOOLEAN},
    "bernstein": {"pairs": _array(_tuple(_EXPONENT, _EXT_EXPONENT), 1),
                  "alphas": _array(_NUMBER, 1), "stability": _STABILITY},
    "duality": {**_SPQ, "attain_frac": _number(0.0, 1.0)},
    "embeddings": {"gain": _tuple(_NUMBER, _NUMBER, _EXPONENT, _EXT_EXPONENT, _EXPONENT),
                   "hom_gain": _tuple(_NUMBER, *[_EXPONENT] * 4),
                   "square_p": _tuple(_EXPONENT, _EXPONENT), "stability": _STABILITY,
                   "chain": _tuple(_NUMBER, _EXPONENT, _EXPONENT, _NUMBER)},
    "lifting": {**_SPQ, "s0": _NUMBER, "homogeneous": _BOOLEAN},
    "equivalence_AV_A0": {**_SPQ, "radius": _either("inf", otherwise=_POSITIVE),
                          "assert_window": _BOOLEAN, "control_tol": _NONNEGATIVE,
                          "slope_tol": _NONNEGATIVE},
    "heat_gaussian": {"t_grid": _either(None, otherwise=_array(_NUMBER)), "cstar": _POSITIVE,
                      "stability": _STABILITY, "dom_slack": _NONNEGATIVE},
    "partition_independence": {**_SPQ, "pointwise_tol": _NONNEGATIVE},
    "subspace_characterization": _SPQ,
    "lorentz_bernstein": {"p0": _EXPONENT, "p": _EXPONENT, "q": _EXPONENT, "stability": _STABILITY},
}
# arguments the runner supplies itself; configs may not set them
_RUNNER = dict.fromkeys(("stages", "family"), _SUPPLIED)

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
        "checks": _array(_tagged("name", {name: ({**_RUNNER, **params}, ())
                                          for name, params in _CHECK_PARAMS.items()})),
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
