"""Run configuration: validation, defaults, canonical hashing.

A run is described by one flat JSON object, validated before any grid is
built.  Each key's value check and default are declared once, as
``typing.Annotated`` metadata beside the default where the value is used
(see ``schema``): a root key on its RunConfig field, a domain key on the
``geometry`` constructor its ``kind`` names, a norm-request key on the
``norms`` function its ``kind`` names, and a check parameter on its
``check_*`` signature.  ``_ROOT`` is read off those signatures.  A
Lorentz request with p = 1 and a finite q is rejected; and the runner
judges check parameters, signature defaults filled in, by each check's own
rules (verify.CHECK_RULES).
The potential expression is parsed and checked here, without samples.
Only nonfinite potential samples, heat_gaussian's t <= 1 sweep under a
flagged potential and equivalence_AV_A0's smallness flags wait for the
grid, since they read the potential's samples.  Rejections here raise
:class:`~besovlab.errors.ConfigInvalid` with a message that starts
``at <path>:``, the slash-separated path of the offending value.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Annotated, Any, Mapping, Sequence

from .errors import ConfigInvalid, EmptyDomain, GridMismatch, InvalidExponent
from .geometry import DomainSpec, ball, box, interval
from .norms import besov_norm, check_lorentz_exponents, lorentz_norm, sobolev_norm
from .operators import DEFAULT_DENSE_CAP
from .potential import parse_potential
from .schema import (
    _POSITIVE, _SUPPLIED, Boolean, Check, _array, _either, _fail, _finite, _number, _object,
    _string, _tagged,
)
from .verify import CHECKS, FAMILY_TAGS, FunctionFamily

__all__ = ["RunConfig", "load_config", "make_config"]

# the function each domain and norm-request kind names
_DOMAINS = {"interval": interval, "box": box, "ball": ball}
NORMS = {"besov": besov_norm, "sobolev": sobolev_norm, "lorentz": lorentz_norm}
# FunctionFamily's defaults bar the seed, which is a root key of its own
_FAMILY = {"tag": FunctionFamily.tag, "count": FunctionFamily.count}


def _params(fn, skip=(), supplied=()) -> tuple[dict[str, Check], tuple[str, ...]]:
    """The config keys fn's signature declares, as (value checks, required
    keys): every parameter bar ``skip`` with the value check it annotates,
    required when it has no default.  ``supplied`` names the runner's
    parameters, which a config may not set."""
    params = [p for p in inspect.signature(fn, eval_str=True).parameters.values()
              if p.name not in (*skip, *supplied)]
    return ({**dict.fromkeys(supplied, _SUPPLIED),
             **{p.name: p.annotation.__metadata__[0] for p in params}},
            tuple(p.name for p in params if p.default is p.empty))


def arguments(fn, entry: Mapping[str, Any], tag: str) -> dict:
    """A config entry as fn's keyword arguments: the defaults fn's signature
    declares, overlaid with the entry's keys bar ``tag``, "inf" realized."""
    params = inspect.signature(fn).parameters
    return {**{k: p.default for k, p in params.items() if p.default is not p.empty},
            **{k: as_exponent(v) for k, v in entry.items() if k != tag}}


def as_exponent(value: Any) -> Any:
    """Realize a config value: the string "inf" is math.inf, also inside arrays."""
    if isinstance(value, list):
        return [as_exponent(v) for v in value]
    return math.inf if value == "inf" else value


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with every default filled in.  Each field
    is a root key, its value check annotated beside its default."""

    domain: Annotated[dict, _tagged("kind", {kind: _params(fn) for kind, fn in _DOMAINS.items()})]
    h: Annotated[tuple[float, ...], _array(_POSITIVE, 1, 8, unique=True)]
    potential: Annotated[str | None, _either(None, otherwise=_string())] = None
    trunc_radius: Annotated[float | None, _either(None, otherwise=_POSITIVE)] = None
    profile: Annotated[str, _either("smooth", "squared")] = "smooth"
    norms: Annotated[Sequence[dict], _array(_tagged("kind", {
        kind: _params(fn, skip=("op", "sys", "f")) for kind, fn in NORMS.items()}))] = ()
    checks: Annotated[Sequence[dict], _array(_tagged("name", {
        name: _params(fn, supplied=("stages", "family")) for name, fn in CHECKS.items()}))] = ()
    family: Annotated[dict, _object({"tag": _either(*FAMILY_TAGS),
                                     "count": _number(1, 4096, integer=True)})] = field(
        default_factory=_FAMILY.copy)
    seed: Annotated[int, _number(0, 2**64 - 1, integer=True)] = 0
    out: Annotated[str, _string(1)] = "results"
    dense_cap: Annotated[int, _number(1, integer=True)] = DEFAULT_DENSE_CAP
    kernels: Boolean = False

    def domain_spec(self) -> DomainSpec:
        fn = _DOMAINS[self.domain["kind"]]
        return fn(**arguments(fn, self.domain, "kind"))

    @property
    def dimension(self) -> int:
        return self.domain_spec().dimension

    def function_family(self) -> FunctionFamily:
        return FunctionFamily(**self.family, seed=self.seed)

    def canonical(self) -> dict:
        """Effective configuration as a plain dict, defaults included."""
        return asdict(self)

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


_ROOT = _object(*_params(RunConfig))


def make_config(data: Mapping[str, Any]) -> RunConfig:
    """Validate a raw mapping and realize it as a RunConfig.

    Raises ConfigInvalid on any malformed value, unknown key, non-finite
    float, malformed domain, undefined Lorentz norm, potential expression
    outside the whitelist, or check parameter the check does not take or
    of the wrong type.  Integral floats in the integer fields (family
    count, seed, dense cap) become ints, a partial family is merged over
    the default one, and the spacings are sorted coarse to fine.
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

    data = copy.deepcopy(dict(data))
    family = {**_FAMILY, **data.get("family", {})}
    data.update(h=tuple(sorted(map(float, data["h"]), reverse=True)),
                family={**family, "count": int(family["count"])},
                **{key: int(data[key]) for key in ("seed", "dense_cap") if key in data})
    cfg = RunConfig(**data)
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
