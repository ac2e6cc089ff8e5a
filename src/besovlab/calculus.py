"""Functional calculus for spectral operators: g(A) along two routes.

Dense route: with cached eigendata, g(A) f = U g(L) U^T f, exact up to
rounding, formed here only, on the spectral support of g.  It is split in
two so that one transform serves many symbols: spectral_coefficients
gives c = U^T f once, and spectral_synthesis gives U_S (g_S c_S) for each
symbol g on the spectrum (every dyadic block is made this way, from the
operator's memoized dyadic weights).  apply_symbol is the entry for a
callable symbol, along either route.

Matrix-free route: Chebyshev approximation of the symbol on an interval
enclosing the spectrum, evaluated by the three-term recurrence with
sparse matvecs only, at a fixed degree or adaptively: the degree doubles
until the sampled sup error of the symbol meets the tolerance, so the
operator error in L2 is bounded by the same number.

Heat semigroups are computed spectrally (no time stepping); kernels are
matrix entries divided by h^n, so they converge to the continuum kernels
under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.polynomial.chebyshev as npcheb

from .dyadic import DyadicSystem
from .errors import (
    ChebyshevToleranceUnmet,
    GridMismatch,
    InvalidExponent,
    InvalidSpectrumBounds,
    NegativeSpectrumComponent,
)
from .geometry import GridFunction, lp_columns
from .operators import SpectralOperator

__all__ = [
    "OperatorFunction",
    "apply_symbol",
    "chebyshev_coefficients",
    "spectral_coefficients",
    "spectral_synthesis",
    "suite_symbols",
    "heat_kernel",
    "power",
    "kernel",
    "mixed_opnorm",
]

DEFAULT_CHEB_TOL = 1e-9
DEFAULT_CHEB_MAX_DEGREE = 16384
_CHEB_ERROR_GRID = 10_000
_CHEB_START_DEGREE = 32
# relative cut below which an eigencolumn's symbol value is left out of a
# spectral product (kernel or synthesis)
_SUPPORT_DROP = np.finfo(float).eps ** 2


def _as_array(op: SpectralOperator, f) -> tuple[np.ndarray, bool]:
    if isinstance(f, GridFunction):
        if not f.grid.same_geometry(op.grid):
            raise GridMismatch("function lives on a different grid than the operator")
        return f.values, True
    arr = np.asarray(f)
    if arr.shape[0] != op.num_nodes:
        raise GridMismatch(
            f"vector length {arr.shape[0]} does not match operator size {op.num_nodes}"
        )
    return arr, False


def _wrap(op: SpectralOperator, values: np.ndarray, was_gridfunction: bool):
    if was_gridfunction:
        return GridFunction(op.grid, values)
    return values


# ---------------------------------------------------------------------------
# dense route
# ---------------------------------------------------------------------------


def _on_spectrum(op: SpectralOperator, symbol: Callable) -> np.ndarray:
    op.require_eigendata()
    return np.asarray(symbol(op.eigvals), float)


def _support(g: np.ndarray) -> np.ndarray:
    """Mask of the eigencolumns a spectral product keeps: |g| > eps^2 max|g|.

    The rows of U are orthonormal, so the dropped part changes no entry by
    more than eps^2 max|g| per unit of input, far below the round-off of
    the product itself.  Negated comparisons keep NaN symbol values, so
    they reach the result.
    """
    mag = np.abs(g)
    return ~(mag <= _SUPPORT_DROP * mag.max(initial=0.0))


def _contiguous(idx: np.ndarray) -> slice | np.ndarray:
    """Ascending indices as a slice when they are one contiguous range, so
    U[:, _contiguous(idx)] is a view of U instead of a gathered copy."""
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(idx[0], idx[-1] + 1)
    return idx


def spectral_coefficients(op: SpectralOperator, vals: np.ndarray) -> np.ndarray:
    """U^T f: the eigenbasis coefficients of f ((N,) or (N, m) columns)."""
    op.require_eigendata()
    return op.eigvecs.T @ vals


def spectral_synthesis(op: SpectralOperator, g: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """U_S (g_S c_S): the function with eigenbasis coefficients g * coeff,
    summed over the support S of g only.

    S is the index range spanning the kept eigencolumns (a view of U);
    dropped entries inside it get weight 0.  The eigenvalues are sorted, so
    a symbol supported on an interval has exactly such a range.
    """
    keep = _support(g)
    idx = np.flatnonzero(keep)
    span = slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)
    w = np.where(keep[span], g[span], 0.0)
    c = coeff[span]
    return op.eigvecs[:, span] @ (w[:, None] * c if c.ndim > 1 else w * c)


# ---------------------------------------------------------------------------
# Chebyshev route
# ---------------------------------------------------------------------------


def _on_interval(symbol: Callable, lo: float, hi: float) -> Callable:
    """The symbol on [lo, hi] pulled back to the Chebyshev interval [-1, 1]."""
    center = 0.5 * (hi + lo)
    halfwidth = 0.5 * (hi - lo)
    return lambda x: np.asarray(symbol(center + halfwidth * x), float)


def chebyshev_coefficients(
    symbol: Callable,
    lo: float,
    hi: float,
    tol: float = DEFAULT_CHEB_TOL,
    max_degree: int = DEFAULT_CHEB_MAX_DEGREE,
) -> tuple[np.ndarray, float]:
    """Adaptive Chebyshev fit of the symbol on [lo, hi].

    The degree doubles from a small start until the sup error sampled on a
    dense grid (10^4 points) drops below ``tol``; returns (coefficients,
    achieved sup error).  Raises ChebyshevToleranceUnmet at the cap.
    """
    if not (hi > lo):
        raise InvalidSpectrumBounds(f"empty spectral interval [{lo}, {hi}]")
    mapped = _on_interval(symbol, lo, hi)
    grid = np.linspace(-1.0, 1.0, _CHEB_ERROR_GRID)
    target = mapped(grid)
    degree = _CHEB_START_DEGREE
    while True:
        coeffs = npcheb.chebinterpolate(mapped, degree)
        err = float(np.max(np.abs(npcheb.chebval(grid, coeffs) - target)))
        if err <= tol:
            return coeffs, err
        if degree >= max_degree:
            raise ChebyshevToleranceUnmet(
                f"sup error {err:.3e} > {tol:.3e} at the degree cap {max_degree}"
            )
        degree *= 2


def _cheb_apply(
    op: SpectralOperator,
    symbol: Callable,
    vals: np.ndarray,
    tol: float = DEFAULT_CHEB_TOL,
    max_degree: int = DEFAULT_CHEB_MAX_DEGREE,
    degree: int | None = None,
) -> np.ndarray:
    """sum_k c_k T_k(B) vals with B = A mapped onto [-1, 1], by the
    three-term recurrence.  With ``degree`` the symbol is interpolated at
    that fixed degree (no error scan); otherwise it is fitted adaptively to
    ``tol``, up to ``max_degree``."""
    lo, hi = (op.eigvals[0], op.eigvals[-1]) if op.has_eigendata else op.gershgorin_bounds()
    pad = 1e-12 * max(abs(lo), abs(hi), 1.0)
    lo, hi = lo - pad, hi + pad
    if degree is None:
        coeffs, _ = chebyshev_coefficients(symbol, lo, hi, tol, max_degree)
    else:
        coeffs = npcheb.chebinterpolate(_on_interval(symbol, lo, hi), degree)
    center = 0.5 * (hi + lo)
    halfwidth = 0.5 * (hi - lo)
    mat = op.matrix

    def shifted(x):
        return (mat @ x - center * x) / halfwidth

    t_prev = vals
    acc = coeffs[0] * t_prev
    if len(coeffs) > 1:
        t_cur = shifted(vals)
        acc = acc + coeffs[1] * t_cur
        for ck in coeffs[2:]:
            t_prev, t_cur = t_cur, 2.0 * shifted(t_cur) - t_prev
            acc = acc + ck * t_cur
    return acc


# ---------------------------------------------------------------------------
# public apply and symbol wrappers
# ---------------------------------------------------------------------------


def apply_symbol(
    op: SpectralOperator,
    symbol: Callable,
    f,
    path: str = "dense",
    cheb_tol: float = DEFAULT_CHEB_TOL,
    max_degree: int = DEFAULT_CHEB_MAX_DEGREE,
):
    """Apply g(A) to f (GridFunction or (N,) / (N, m) array).

    path='dense' uses cached eigendata; path='cheb' is matrix-free.
    """
    vals, wrap = _as_array(op, f)
    if path == "dense":
        out = spectral_synthesis(op, _on_spectrum(op, symbol), spectral_coefficients(op, vals))
    elif path == "cheb":
        out = _cheb_apply(op, symbol, vals, cheb_tol, max_degree)
    else:
        raise ValueError(f"unknown calculus path {path!r}")
    return _wrap(op, out, wrap)


@dataclass
class OperatorFunction:
    """A symbol bound to an operator: the argument of kernel and the
    operator norms.

    ``weights`` optionally holds the symbol's values on op.eigvals (for
    instance memoized dyadic weights), used instead of evaluating the
    symbol again.
    """

    op: SpectralOperator
    symbol: Callable
    weights: np.ndarray | None = field(default=None, repr=False)

    def on_spectrum(self) -> np.ndarray:
        """The symbol on the eigenvalues of the operator."""
        return _on_spectrum(self.op, self.symbol) if self.weights is None else self.weights


def suite_symbols(
    op: SpectralOperator, sys: DyadicSystem
) -> list[tuple[str, Callable[[np.ndarray], np.ndarray]]]:
    """Standard battery of (name, symbol) pairs for benches and sweeps.

    Covers the qualitatively distinct shapes the toolbox applies: the low
    cap, one mid-window shell, a spectrum-scaled heat symbol, and the
    shifted square root in both directions.  Every symbol is smooth on a
    neighborhood of the spectral interval, so the Chebyshev route
    converges for each of them.
    """
    op.require_eigendata()
    # keep the shell inside the inhomogeneous window so the sqrt kink at
    # lambda = 0 stays outside its support even for shifted spectra
    mid = max((sys.j_min + sys.j_max) // 2, sys.inhom_window.start)
    shift = sys.lam0**2 + 1.0
    t_heat = 4.0 / max(float(op.lam_max), 1.0)
    return [
        ("psi", sys.psi),
        (f"phi[{mid}]", lambda lam: sys.phi_sqrt(mid, lam)),
        ("heat", lambda lam: np.exp(-t_heat * np.asarray(lam, float))),
        ("root", lambda lam: np.sqrt(shift + np.asarray(lam, float))),
        ("invroot", lambda lam: (shift + np.asarray(lam, float)) ** -0.5),
    ]


def power(
    op: SpectralOperator,
    alpha: float,
    f,
    positive_part_only: bool = False,
    tol: float = 1e-12,
):
    """A^alpha f.  Nonnegative integer alpha acts on the whole spectrum;
    fractional or negative alpha is defined only on the positive part.

    With positive_part_only=True the nonpositive spectral components are
    projected away silently; otherwise any such component above a relative
    tolerance raises NegativeSpectrumComponent.
    """
    if float(alpha).is_integer() and alpha >= 0:
        return apply_symbol(op, lambda lam: lam ** float(alpha), f)
    vals, wrap = _as_array(op, f)
    coeff = spectral_coefficients(op, vals)
    lam = op.eigvals
    pos = lam > 0.0
    if not positive_part_only:
        bad = np.linalg.norm(coeff[~pos], axis=0) if coeff.ndim > 1 else np.linalg.norm(coeff[~pos])
        scale = np.linalg.norm(coeff, axis=0) if coeff.ndim > 1 else np.linalg.norm(coeff)
        if np.any(bad > tol * np.maximum(scale, 1e-300)):
            raise NegativeSpectrumComponent(
                f"input has relative mass {float(np.max(bad / np.maximum(scale, 1e-300))):.2e} "
                "on the nonpositive spectrum; pass positive_part_only=True to project it away"
            )
    g = np.zeros(lam.shape)
    g[pos] = lam[pos] ** float(alpha)
    return _wrap(op, spectral_synthesis(op, g, coeff), wrap)


# ---------------------------------------------------------------------------
# kernels and operator norms
# ---------------------------------------------------------------------------


def kernel(opfun: OperatorFunction, cols: np.ndarray | None = None) -> np.ndarray:
    """Integral kernel of g(A): K(x, y) = g(A)_xy / h^n, formed on the
    spectral support of g.  Returns the N x N array, or with ``cols`` only
    its columns K[:, cols] (N x len(cols)).

    Only the eigencolumns in the support S of g enter (|g| > eps^2 max|g|,
    the rule of spectral_synthesis).  The whole kernel is a symmetric
    product: with B = U_S sqrt(g_S) over the positive part (and likewise
    over the negative part, subtracted), K = B B^T goes to a symmetric
    rank-k update, which also makes the result exactly symmetric.  The
    columns are U_S (g_S U_S[cols]^T), 2 N len(cols) |S| flops against the
    N^2 |S| of the whole kernel.  A support that is one index range (any
    decreasing symbol, such as the heat kernel's) is sliced from U, not
    gathered.
    """
    op = opfun.op
    g = opfun.on_spectrum()
    keep = _support(g)
    if cols is not None:
        span = _contiguous(np.flatnonzero(keep))
        basis = op.eigvecs[:, span]
        mat = basis @ (basis[cols] * g[span]).T
        mat /= op.grid.cell_measure
        return mat
    neg = keep & (g < 0.0)
    pos = _contiguous(np.flatnonzero(keep & ~neg))
    half = op.eigvecs[:, pos] * np.sqrt(g[pos])
    mat = half @ half.T
    if neg.any():
        neg = _contiguous(np.flatnonzero(neg))
        half = op.eigvecs[:, neg] * np.sqrt(-g[neg])
        mat -= half @ half.T
    mat /= op.grid.cell_measure
    return mat


def heat_kernel(op: SpectralOperator, t: float, cols: np.ndarray | None = None) -> np.ndarray:
    """The heat kernel e^{-tA}(x, y) / h^n; with ``cols``, its columns only
    (see kernel)."""
    if not (t >= 0.0):
        raise ValueError(f"heat time must be nonnegative, got {t}")
    return kernel(OperatorFunction(op, lambda lam: np.exp(-t * lam)), cols)


@dataclass(frozen=True)
class OpNorm:
    value: float
    exact: bool
    r: float
    p: float


def mixed_opnorm(opfun: OperatorFunction, r: float, p: float,
                 probes: int = 16, seed: int = 0,
                 kern: np.ndarray | None = None) -> OpNorm:
    """Operator norm L^r -> L^p of g(A).

    Exact branches: r = 1 (kernel column L^p norms), p = inf (kernel row
    L^r' norms), r = p = 2 (max |g| over the spectrum).  Anything else is a
    randomized lower bound and is flagged exact=False.  ``kern`` is
    kernel(opfun) when the caller has formed it already, so several
    exponent pairs can read one kernel.
    """
    if not (r >= 1.0) or not (p >= 1.0):
        raise InvalidExponent(f"operator norm needs exponents >= 1, got ({r}, {p})")
    op = opfun.op
    meas = op.grid.cell_measure
    if r == 2.0 and p == 2.0:
        return OpNorm(float(np.max(np.abs(opfun.on_spectrum()))), True, r, p)
    if r == 1.0 or math.isinf(p):
        kern = kernel(opfun) if kern is None else kern
    if r == 1.0:
        return OpNorm(float(lp_columns(kern, meas, p).max()), True, r, p)
    if math.isinf(p):
        # dual of the r=1 case: rows in L^r'
        rr = 1.0 if math.isinf(r) else r / (r - 1.0)
        return OpNorm(float(lp_columns(kern.T, meas, rr).max()), True, r, p)

    # probe k is z[k, 0] + i z[k, 1], one column per probe
    z = np.random.default_rng(seed).standard_normal((probes, 2, op.num_nodes))
    vs = (z[:, 0] + 1j * z[:, 1]).T
    out = spectral_synthesis(op, opfun.on_spectrum(), spectral_coefficients(op, vs))
    ratios = lp_columns(out, meas, p) / lp_columns(vs, meas, r)
    return OpNorm(float(ratios.max(initial=0.0)), False, r, p)
