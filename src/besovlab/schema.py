"""Value checks for config values: each function a config key feeds
annotates its parameter with one (a ``verify.check_*``, a norm, a domain
constructor, a ``config.RunConfig`` field), and ``config`` reads them there."""

from __future__ import annotations

import math
import numbers
from typing import Annotated, Any, Callable, Mapping, Sequence

from .errors import ConfigInvalid

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

# the recurring parameter types, the value check beside the Python type
Number = Annotated[float, _NUMBER]
Positive = Annotated[float, _POSITIVE]
Coords = Annotated[Sequence[float], _COORDS]
Exponent = Annotated[float, _EXPONENT]
ExtExponent = Annotated[float, _EXT_EXPONENT]
Stability = Annotated[float, _number(1.0)]
Tolerance = Annotated[float, _NONNEGATIVE]
Boolean = Annotated[bool, _BOOLEAN]
