"""Potentials: sign decomposition, Kato-class norms, smallness reports.

The Kato norm of the negative part is the sup over probe nodes x of the
kernel-weighted mass near x,

    n = 3:  sum_{|x-y| < r} |x-y|^(2-n) V_-(y) h^n      (kernel 1/d)
    n = 2:  sum_{|x-y| < r} log(1/|x-y|) V_-(y) h^2
    n = 1:  sum_{|x-y| < r} V_-(y) h                    (kernel 1)

with the singular self cell (y = x) integrated analytically over the cell:
the cell is replaced by the equal-measure ball around the node, for which
the kernel integral is elementary.  Dimensions 1 and 2 have no smallness
threshold here; their flags simply require V_- = 0.

The smallness report carries both thresholds for n >= 3,

    theta_strict = pi^(n/2) / Gamma(n/2 - 1),     theta_weak = 4 * theta_strict,

(pi and 4*pi in dimension 3) and the zero-eigenvalue certificate

    certificate = 1 - Gamma(n/2 - 1) ||V_-||_K / (4 pi^(n/2)),

which is positive exactly when the weak threshold holds; a positive
certificate rules out lam_min(A_V) <= 0 for bounded domains.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexPotential,
    ConfigInvalid,
    GridMismatch,
    UnsupportedDimension,
)
from .geometry import Grid, GridFunction

__all__ = [
    "KatoReport",
    "decompose",
    "kato_norm",
    "check_smallness",
    "hardy_certificate",
    "parse_potential",
    "potential_from_expression",
    "potential_samples",
]

_PROBE_CHUNK = 512


def potential_samples(grid: Grid, V) -> np.ndarray:
    """Real node samples of a potential given as a GridFunction or an array.

    Raises GridMismatch for another grid or sample count and
    ComplexPotential for a nonzero imaginary part.
    """
    if isinstance(V, GridFunction):
        if not V.grid.same_geometry(grid):
            raise GridMismatch("potential lives on a different grid")
        vals = V.values
    else:
        vals = np.asarray(V)
        if vals.shape != (grid.num_nodes,):
            raise GridMismatch(
                f"potential sample count {vals.shape} does not match grid size {grid.num_nodes}"
            )
    if np.iscomplexobj(vals):
        if np.abs(vals.imag).max(initial=0.0) != 0.0:
            raise ComplexPotential("potential samples must be real")
        vals = vals.real
    return np.asarray(vals, float)


def decompose(grid: Grid, V) -> tuple[np.ndarray, np.ndarray]:
    """Split V = V_+ - V_- into nonnegative parts (node samples)."""
    vals = potential_samples(grid, V)
    return np.maximum(vals, 0.0), np.maximum(-vals, 0.0)


def _self_cell_weight(n: int, h: float) -> float:
    """Integral of the kernel over the equal-measure ball replacing the node cell."""
    if n == 1:
        return h
    if n == 2:
        rho = h / math.sqrt(math.pi)
        return h * h * (0.5 - math.log(rho))
    if n == 3:
        rho = h * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
        return 2.0 * math.pi * rho * rho
    raise UnsupportedDimension(f"Kato kernel defined for n in {{1,2,3}}, got {n}")


def _kernel(n: int, d: np.ndarray) -> np.ndarray:
    if n == 1:
        return np.ones_like(d)
    if n == 2:
        return -np.log(d)
    return 1.0 / d


def kato_norm(grid: Grid, vminus, radius: float = math.inf) -> float:
    """Discrete Kato norm of a nonnegative potential part at probe radius ``radius``.

    Parameters
    ----------
    grid : Grid
    vminus : array or GridFunction
        Nonnegative node samples of V_-.
    radius : float
        Probe ball radius; pairs with |x - y| >= radius are excluded.
        The default covers the whole (bounded) domain.

    Notes
    -----
    The self cell is always included (its distance is 0 < radius) and uses
    the analytic equal-measure-ball weight, so refining h keeps the norm
    finite for integrable singularities.
    """
    vals = potential_samples(grid, vminus)
    if (vals < 0.0).any():
        raise ValueError("kato_norm expects the nonnegative part V_-")
    if not (radius > 0.0):
        raise ValueError(f"probe radius must be positive, got {radius}")
    n, h = grid.n, grid.h
    meas = grid.cell_measure
    coords = grid.coordinates
    N = grid.num_nodes
    self_w = _self_cell_weight(n, h)

    best = 0.0
    for start in range(0, N, _PROBE_CHUNK):
        probe = coords[start : start + _PROBE_CHUNK]
        d = np.sqrt(
            np.maximum(
                np.sum((probe[:, None, :] - coords[None, :, :]) ** 2, axis=-1), 0.0
            )
        )
        w = np.zeros_like(d)
        off = (d > 0.0) & (d < radius)
        w[off] = _kernel(n, d[off]) * meas
        # self cell: exact index match, analytic weight
        rows = np.arange(probe.shape[0])
        w[rows, start + rows] = self_w
        best = max(best, float((w @ vals).max(initial=0.0)))
    return best


def hardy_certificate(n: int, kato_value: float) -> float:
    """1 - Gamma(n/2-1) * ||V_-||_K / (4 pi^(n/2)) for n >= 3; positive means
    the quadratic form controls the negative part with room to spare."""
    if n < 3:
        raise UnsupportedDimension("the certificate formula needs n >= 3")
    return 1.0 - math.gamma(n / 2.0 - 1.0) * kato_value / (4.0 * math.pi ** (n / 2.0))


@dataclass(frozen=True)
class KatoReport:
    """Smallness report for the negative part of a potential."""

    n: int
    kato_value: float
    radius: float
    theta_strict: float
    theta_weak: float
    satisfies_strict: bool
    satisfies_weak: bool
    vminus_is_zero: bool
    certificate: float


def check_smallness(grid: Grid, V, radius: float = math.inf) -> KatoReport:
    """Evaluate the Kato norm of V_- and compare against both thresholds.

    For n in {1, 2} there is no finite threshold in this normalization:
    both flags require V_- = 0 and the thresholds are reported as 0.
    """
    _, vminus = decompose(grid, V)
    zero = bool(vminus.max(initial=0.0) == 0.0)
    n = grid.n
    value = 0.0 if zero else kato_norm(grid, vminus, radius)
    if n >= 3:
        theta_strict = math.pi ** (n / 2.0) / math.gamma(n / 2.0 - 1.0)
        theta_weak = 4.0 * theta_strict
        cert = hardy_certificate(n, value)
        return KatoReport(
            n=n,
            kato_value=value,
            radius=radius,
            theta_strict=theta_strict,
            theta_weak=theta_weak,
            satisfies_strict=value < theta_strict,
            satisfies_weak=value < theta_weak,
            vminus_is_zero=zero,
            certificate=cert,
        )
    return KatoReport(
        n=n,
        kato_value=value,
        radius=radius,
        theta_strict=0.0,
        theta_weak=0.0,
        satisfies_strict=zero,
        satisfies_weak=zero,
        vminus_is_zero=zero,
        certificate=1.0 if zero else math.nan,
    )


# ---------------------------------------------------------------------------
# expression sampling (Python arithmetic for config-driven potentials)
# ---------------------------------------------------------------------------

_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_AXES = ("x", "y", "z")
_TOO_DEEP = "potential expression is too long or nests too deeply"


def _names(n: int) -> set[str]:
    """The names an expression may read on an n-dimensional lattice."""
    return {"pi", "r", *_AXES[:n], *(f"x{d + 1}" for d in range(n))}


def _check(node: ast.AST, names: set[str]) -> None:
    """Reject any node outside the whitelist that _evaluate reads."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        _check(node.left, names)
        _check(node.right, names)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        _check(node.operand, names)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        float(node.value)  # OverflowError: an integer literal beyond the float range
    elif isinstance(node, ast.Name):
        if node.id not in names:
            raise ConfigInvalid(f"unknown name {node.id!r} in potential expression")
    else:
        raise ConfigInvalid(f"unsupported {type(node).__name__} in potential expression")


def parse_potential(expr: str, n: int) -> ast.expr:
    """Parse a potential expression for an n-dimensional lattice and check
    every node against the whitelist, without sampling it.

    make_config runs this before any grid is built, and
    potential_from_expression runs it again on the expression it samples.
    Raises ConfigInvalid.
    """
    try:
        body = ast.parse(expr.strip().replace("^", "**"), mode="eval").body
        _check(body, _names(n))
    except (SyntaxError, ValueError, OverflowError) as exc:
        # ValueError: a null byte before Python 3.12
        raise ConfigInvalid(f"malformed potential expression: {exc}") from None
    except (RecursionError, MemoryError):  # MemoryError: the 3.10-3.12 parser stack
        raise ConfigInvalid(_TOO_DEEP) from None
    return body


def _evaluate(node: ast.AST, env: dict[str, np.ndarray]):
    """Evaluate an expression that parse_potential has checked."""
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, env)
    if isinstance(node, ast.Constant):
        # a numpy scalar, so 1/0, overflow and negative bases with
        # fractional powers give inf or nan instead of raising, and an
        # integer power tower never becomes big-integer work
        return np.float64(node.value)
    return env[node.id]


def potential_from_expression(
    grid: Grid, expr: str, trunc_radius: float | None = None
) -> tuple[GridFunction, int]:
    """Sample an arithmetic expression of the coordinates on the grid nodes.

    The expression is Python arithmetic: names x, y, z (aliases x1, x2,
    x3), the distance r to the origin and pi; int and float literals;
    binary + - * / ** (``^`` is spelled ``**``), unary minus and
    parentheses, with Python's precedence.  The variable r is floored at
    ``trunc_radius`` (default: one spacing h), which truncates |x|^-a
    singularities at the cell scale; the number of nodes where the floor
    engaged is returned alongside the samples.

    A chain of operators is checked and evaluated recursively, as deep as
    it is long: about 1000 chained operators (Python's recursion limit) or
    200 nested parentheses (its parser's) are too many, and raise
    ConfigInvalid.

    Examples
    --------
    Unary minus binds looser than a power, so ``-x^2`` is -(x^2):

    >>> from besovlab.geometry import build_grid, interval
    >>> g = build_grid(interval(0.0, 1.0), 0.5)
    >>> potential_from_expression(g, "-x^2")[0].values  # the node x = 0.5
    array([-0.25])
    >>> potential_from_expression(g, "2^-1^2")[0].values  # 2^(-(1^2))
    array([0.5])
    """
    body = parse_potential(expr, grid.n)
    coords = grid.coordinates
    trunc = grid.h if trunc_radius is None else float(trunc_radius)
    r_raw = np.sqrt(np.sum(coords**2, axis=1))
    n_trunc = int(np.count_nonzero(r_raw < trunc))
    env: dict[str, np.ndarray] = {"pi": np.full(grid.num_nodes, math.pi),
                                  "r": np.maximum(r_raw, trunc)}
    for d in range(grid.n):
        env[_AXES[d]] = env[f"x{d + 1}"] = coords[:, d]
    try:
        with np.errstate(all="ignore"):  # nonfinite samples are rejected below
            values = _evaluate(body, env)
    except RecursionError:  # the check passed a little higher up the stack
        raise ConfigInvalid(_TOO_DEEP) from None
    values = np.broadcast_to(np.asarray(values, float), (grid.num_nodes,)).copy()
    if not np.all(np.isfinite(values)):
        raise ConfigInvalid("potential expression produced nonfinite samples")
    return GridFunction(grid, values), n_trunc
