"""Run configuration: JSON schema, validation, defaults, canonical hashing.

A run is described by one flat JSON object.  Validation happens before any
grid is built: the schema rejects unknown keys and malformed values, check
entries are matched against the actual keyword signature of the registered
check, and an equivalence check whose smoothness index falls outside the
admissible window is rejected here rather than deep inside the run.  All
rejections raise :class:`~besovlab.errors.ConfigInvalid` with a message
that names the offending path.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import jsonschema

from .errors import ConfigInvalid, EmptyDomain, GridMismatch
from .geometry import DomainSpec, ball, box, interval
from .verify import CHECKS, FAMILY_TAGS, FunctionFamily, equivalence_window

__all__ = [
    "SCHEMA",
    "RunConfig",
    "load_config",
    "make_config",
    "prevalidate_windows",
]

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COORDS = {"type": "array", "items": _NUMBER, "minItems": 1, "maxItems": 3}
# JSON has no infinity literal; the string "inf" stands in for it where an
# infinite secondary exponent is meaningful (weak Lorentz, sup-type Besov).
_EXT_EXPONENT = {"oneOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]}

_DOMAIN = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "interval"}, "a": _NUMBER, "b": _NUMBER},
            "required": ["kind", "a", "b"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "box"}, "lo": _COORDS, "hi": _COORDS},
            "required": ["kind", "lo", "hi"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "ball"},
                "center": _COORDS,
                "radius": _POSITIVE,
            },
            "required": ["kind", "center", "radius"],
            "additionalProperties": False,
        },
    ]
}

_NORM = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": "besov"},
                "s": _NUMBER,
                "p": {"type": "number", "minimum": 1},
                "q": _EXT_EXPONENT,
                "homogeneous": {"type": "boolean"},
            },
            "required": ["kind", "s", "p", "q"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "sobolev"},
                "s": _NUMBER,
                "variant": {"enum": ["plain", "shifted"]},
            },
            "required": ["kind", "s"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "lorentz"},
                "p": {"type": "number", "minimum": 1},
                "q": _EXT_EXPONENT,
            },
            "required": ["kind", "p", "q"],
            "additionalProperties": False,
        },
    ]
}

# Check entries carry free keyword parameters for the named check, so this
# subschema stays open; the keywords are validated against the check's
# signature in _validate_check_entry.
_CHECK = {
    "type": "object",
    "properties": {"name": {"enum": sorted(CHECKS)}},
    "required": ["name"],
}

_FAMILY = {
    "type": "object",
    "properties": {
        "tag": {"enum": list(FAMILY_TAGS)},
        "count": {"type": "integer", "minimum": 1, "maximum": 4096},
    },
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "domain": _DOMAIN,
        "h": {
            "type": "array",
            "items": _POSITIVE,
            "minItems": 1,
            "maxItems": 8,
            "uniqueItems": True,
        },
        "potential": {"type": ["string", "null"]},
        "trunc_radius": {"oneOf": [_POSITIVE, {"type": "null"}]},
        "profile": {"enum": ["smooth", "squared"]},
        "norms": {"type": "array", "items": _NORM},
        "checks": {"type": "array", "items": _CHECK},
        "family": _FAMILY,
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "out": {"type": "string", "minLength": 1},
        "dense_cap": {"type": "integer", "minimum": 1},
        "kernels": {"type": "boolean"},
    },
    "required": ["domain", "h"],
    "additionalProperties": False,
}

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

# arguments the runner supplies itself; configs may not set them
_RESERVED_CHECK_PARAMS = frozenset({"stages", "family", "config_hash"})

_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def as_exponent(value: Any) -> float:
    """Realize a schema exponent; the string "inf" maps to math.inf."""
    return math.inf if value == "inf" else float(value)


def _json_path(error: jsonschema.ValidationError) -> str:
    parts = [str(p) for p in error.absolute_path]
    return "/".join(parts) if parts else "<root>"


def _nonfinite_path(value: Any, path: tuple = ()) -> tuple | None:
    """Path to the first non-finite float in nested mappings and lists."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, Mapping):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _nonfinite_path(item, (*path, key))
        if found is not None:
            return found
    return None


def _validate_check_entry(index: int, entry: Mapping[str, Any]) -> None:
    name = entry["name"]
    sig = inspect.signature(CHECKS[name])
    allowed = set(sig.parameters) - _RESERVED_CHECK_PARAMS - {"stages"}
    given = set(entry) - {"name"}
    reserved = sorted(given & _RESERVED_CHECK_PARAMS)
    if reserved:
        raise ConfigInvalid(
            f"checks/{index} ({name}): parameters {reserved} are supplied by "
            "the runner and cannot be set in the config"
        )
    unknown = sorted(given - allowed)
    if unknown:
        raise ConfigInvalid(
            f"checks/{index} ({name}): unknown parameters {unknown}; "
            f"allowed: {sorted(allowed)}"
        )


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

    Raises ConfigInvalid on any schema violation, unknown key, non-finite
    float, malformed domain, or check entry whose keywords do not match
    the check.
    """
    if not isinstance(data, Mapping):
        raise ConfigInvalid("config root must be a JSON object")
    bad = _nonfinite_path(data)
    if bad is not None:
        where = "/".join(map(str, bad)) or "<root>"
        raise ConfigInvalid(f"at {where}: non-finite number; numbers must be finite")
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(dict(data)))
    if error is not None:
        raise ConfigInvalid(f"at {_json_path(error)}: {error.message}")

    checks = [dict(entry) for entry in data.get("checks", _DEFAULTS["checks"])]
    for i, entry in enumerate(checks):
        _validate_check_entry(i, entry)

    family = {**_DEFAULTS["family"], **data.get("family", {})}
    cfg = RunConfig(
        domain=dict(data["domain"]),
        h=tuple(sorted((float(v) for v in data["h"]), reverse=True)),
        potential=data.get("potential", _DEFAULTS["potential"]),
        trunc_radius=data.get("trunc_radius", _DEFAULTS["trunc_radius"]),
        profile=data.get("profile", _DEFAULTS["profile"]),
        norms=tuple(dict(n) for n in data.get("norms", _DEFAULTS["norms"])),
        checks=tuple(checks),
        family_tag=family["tag"],
        family_count=family["count"],
        seed=int(data.get("seed", _DEFAULTS["seed"])),
        out=data.get("out", _DEFAULTS["out"]),
        dense_cap=int(data.get("dense_cap", _DEFAULTS["dense_cap"])),
        kernels=bool(data.get("kernels", _DEFAULTS["kernels"])),
    )
    try:
        cfg.domain_spec()
    except (EmptyDomain, GridMismatch, ValueError) as exc:
        raise ConfigInvalid(f"at domain: {exc}") from exc
    return cfg


def _reject_constant(name: str):
    raise ConfigInvalid(f"non-finite number {name} is not allowed; JSON numbers must be finite")


def load_config(path, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Read, override, validate.

    ``overrides`` maps top-level keys to replacement values (None entries
    are ignored); the overridden dict is what gets validated and hashed,
    so command-line flags become part of the effective configuration.
    The non-standard literals NaN, Infinity and -Infinity are rejected.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {p}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid("config root must be a JSON object")
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    return make_config(data)


def prevalidate_windows(cfg: RunConfig, assert_mode: bool = True) -> None:
    """Reject, before any grid is built, an equivalence check that can
    only end in an assumption error: dimension below two, or smoothness
    index outside the admissible window for the requested integrability.

    In report-only mode out-of-window indices are allowed through (the
    check records itself as out of window and passes vacuously), but a
    one-dimensional domain is rejected either way.
    """
    n = cfg.dimension
    for i, entry in enumerate(cfg.checks):
        if entry["name"] != "equivalence_AV_A0":
            continue
        if n < 2:
            raise ConfigInvalid(
                f"checks/{i} (equivalence_AV_A0): needs a domain of "
                f"dimension >= 2, got n={n}"
            )
        if not assert_mode or not entry.get("assert_window", True):
            continue
        try:
            s = float(entry.get("s", 0.5))
            p = float(entry.get("p", 2.0))
            lo, hi = equivalence_window(n, p)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigInvalid(
                f"checks/{i} (equivalence_AV_A0): s and p must be numbers with p != 0: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if not (lo < s < hi):
            raise ConfigInvalid(
                f"checks/{i} (equivalence_AV_A0): smoothness s={s} outside "
                f"the admissible window ({lo}, {hi}) for n={n}, p={p}"
            )
