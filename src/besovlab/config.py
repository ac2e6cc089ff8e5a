"""Run configuration: validation, defaults, canonical hashing.

A run is described by one flat JSON object.  Validation happens before any
grid is built: unknown keys and malformed values are rejected at every
level (the ``_ROOT`` table below lists each key and the check its value
must pass), check entries are matched against the actual keyword
signature of the registered check (which validates their values when it
runs), and a Lorentz request with p = 1 and a finite q or an equivalence
check whose smoothness index falls outside the admissible window is
rejected here rather than deep inside the run.  All rejections raise
:class:`~besovlab.errors.ConfigInvalid` with a message that starts
``at <path>:``, the slash-separated path of the offending value.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import ConfigInvalid, EmptyDomain, GridMismatch, InvalidExponent
from .geometry import DomainSpec, ball, box, interval
from .norms import check_lorentz_exponents
from .verify import CHECKS, FAMILY_TAGS, FunctionFamily, equivalence_window

__all__ = ["RunConfig", "load_config", "make_config", "prevalidate_windows"]

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
# arguments the runner supplies itself; configs may not set them
_RESERVED_CHECK_PARAMS = frozenset({"stages", "family", "config_hash"})


def _check_entry(name: str) -> tuple:
    """A check entry's fields: the check's keyword parameters, whose values
    the check itself validates, less those the runner supplies."""
    params = inspect.signature(CHECKS[name]).parameters
    return {p: _SUPPLIED if p in _RESERVED_CHECK_PARAMS else _ANY for p in params}, ()


_NUMBER = _number()
_POSITIVE = _number(0.0, exclusive=True)
_EXPONENT = _number(1.0)
_BOOLEAN = _either(True, False)
_COORDS = _array(_NUMBER, 1, 3)
# JSON has no infinity literal; the string "inf" stands in for it where an
# infinite secondary exponent is meaningful (weak Lorentz, sup-type Besov).
_EXT_EXPONENT = _either("inf", otherwise=_EXPONENT)

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
        "checks": _array(_tagged("name", {name: _check_entry(name) for name in CHECKS})),
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

def as_exponent(value: Any) -> float:
    """Realize a config exponent; the string "inf" maps to math.inf."""
    return math.inf if value == "inf" else float(value)


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
    float, malformed domain, undefined Lorentz norm, or check entry whose
    keywords do not match the check.  Integral floats in the integer fields
    (family count, seed, dense cap) become ints.
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
    defaults = inspect.signature(CHECKS["equivalence_AV_A0"]).parameters
    for i, entry in enumerate(cfg.checks):
        if entry["name"] != "equivalence_AV_A0":
            continue
        if n < 2:
            raise ConfigInvalid(
                f"checks/{i} (equivalence_AV_A0): needs a domain of "
                f"dimension >= 2, got n={n}"
            )
        if not assert_mode or not entry.get("assert_window", defaults["assert_window"].default):
            continue
        try:
            s = float(entry.get("s", defaults["s"].default))
            p = float(entry.get("p", defaults["p"].default))
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
