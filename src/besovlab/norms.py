"""Spectral Besov / Sobolev norms and rearrangement-based Lorentz norms.

Besov norms aggregate dyadic block sizes 2^(s j) ||phi_j(sqrt(A)) f||_p in
little-l^q.  The inhomogeneous scale adds the low cap ||psi(A) f||_p and
sums j >= 1; the homogeneous scale sums the whole active window and
refuses operators whose spectrum touches or crosses zero (the whole-line
dyadic decomposition does not see such spectrum).

Lorentz norms go through the decreasing rearrangement f* of |f| (a right
continuous step function with steps of width m = h^n) and its running
average f**(t) = t^-1 int_0^t f*.  On each step [t0, t0 + m] f** is a + b/t,
so the piece of ||f||_(p,q)^q = int_0^inf (t^(1/p) f**(t))^q dt/t there
integrates t^(c-1) (a + b/t)^q, c = q/p.  For b = 0, beyond the support
(a = 0) and for integer q that is elementary.  A mixed step (b > 0) of
fractional q takes a fixed Gauss-Legendre rule: the step starts at t0 >= m,
so the integrand's singularities (t <= 0) map to x <= -3 on [-1, 1], and
an n-point rule errs by O(rho^(-2n)) for every rho < 3 + sqrt(8)
(Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
So Lorentz values carry no tolerance knob.  Finite q integrates f / max|f|
and scales the result back, so the q-th powers stay near 1 at any scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .calculus import apply_symbol, spectral_coefficients, spectral_synthesis
from .dyadic import DyadicSystem
from .errors import (
    InvalidExponent,
    InvalidSpectrumBounds,
    NegativeShiftedEigenvalue,
    ZeroEigenvaluePresent,
)
from .geometry import GridFunction, lp_columns
from .operators import SpectralOperator
from .schema import Boolean, Exponent, ExtExponent, Number, _either

__all__ = [
    "RearrangementProfile",
    "rearrangement_profile",
    "lorentz_norm",
    "check_lorentz_exponents",
    "besov_norm",
    "block_lp_norms",
    "check_homogeneous_spectrum",
    "sobolev_norm",
    "test_seminorms",
]

_ZERO_EIG_RTOL = 1e-12


# ---------------------------------------------------------------------------
# block norms and Besov scales
# ---------------------------------------------------------------------------


def _columns(f) -> np.ndarray:
    vals = f.values if isinstance(f, GridFunction) else np.asarray(f)
    if vals.ndim == 1:
        vals = vals[:, None]
    return vals


def _shell_norms(
    op: SpectralOperator, sys: DyadicSystem, coeff: np.ndarray, p: float, js
) -> np.ndarray:
    """||phi_j(sqrt(A)) f||_p for j in js, from the coefficients U^T f of
    the columns of f; shape (len(js), m)."""
    meas = op.grid.cell_measure
    out = np.empty((len(js), coeff.shape[1]))
    for i, j in enumerate(js):
        block = spectral_synthesis(op, op.dyadic_weights(sys, "phi", j), coeff)
        out[i] = lp_columns(block, meas, p)
    return out


def block_lp_norms(
    op: SpectralOperator, sys: DyadicSystem, f, p: float, js=None
) -> np.ndarray:
    """||phi_j(sqrt(A)) f||_p for j in js (default: the window), batched.

    Returns an array of shape (len(js), m) for m input columns.
    """
    if not (p >= 1.0):
        raise InvalidExponent(f"block norms need p >= 1, got {p}")
    js = list(sys.window if js is None else js)
    return _shell_norms(op, sys, spectral_coefficients(op, _columns(f)), p, js)


def check_homogeneous_spectrum(op: SpectralOperator) -> None:
    """Raise ZeroEigenvaluePresent unless the spectrum is strictly positive:
    the whole-line dyadic decomposition does not see spectrum at or below 0."""
    scale = max(abs(op.lam_max), 1.0)
    if op.lam_min <= _ZERO_EIG_RTOL * scale:
        raise ZeroEigenvaluePresent(
            f"spectrum touches zero (lam_min = {op.lam_min:.3e}); "
            "the homogeneous scale is undefined here"
        )


def _lq(terms: np.ndarray, q: float, axis: int = 0) -> np.ndarray:
    if math.isinf(q):
        return terms.max(axis=axis, initial=0.0)
    return np.sum(terms**q, axis=axis) ** (1.0 / q)


def besov_norm(
    op: SpectralOperator,
    sys: DyadicSystem,
    f,
    s: Number,
    p: Exponent,
    q: ExtExponent,
    homogeneous: Boolean = False,
):
    """Besov norm of f with smoothness s and exponents (p, q).

    Inhomogeneous:  ||psi(A) f||_p + l^q over j >= 1 of 2^(s j) ||phi_j f||_p.
    Homogeneous:    l^q over the whole window; requires lam_min > 0.

    The cap and every shell are synthesized from one transform U^T f.
    Scalar output for a single function, array for batched columns.
    """
    if not (p >= 1.0) or not (q >= 1.0):
        raise InvalidExponent(f"Besov exponents need p, q >= 1, got ({p}, {q})")
    op.require_eigendata()
    if not sys.covers(op.lam_max):
        raise InvalidSpectrumBounds(
            "dyadic window does not cover the spectrum of this operator"
        )
    single = not (isinstance(f, np.ndarray) and f.ndim == 2)
    if homogeneous:
        check_homogeneous_spectrum(op)
    js = list(sys.window if homogeneous else sys.inhom_window)
    coeff = spectral_coefficients(op, _columns(f))
    weights = 2.0 ** (s * np.asarray(js, float))
    out = _lq(weights[:, None] * _shell_norms(op, sys, coeff, p, js), q)
    if not homogeneous:
        cap = spectral_synthesis(op, op.dyadic_weights(sys, "psi"), coeff)
        out = lp_columns(cap, op.grid.cell_measure, p) + out
    return float(out[0]) if single else out


def sobolev_norm(
    op: SpectralOperator, f, s: Number,
    variant: Annotated[str, _either("plain", "shifted")] = "plain",
):
    """||(shift + A)^(s/2) f||_2 with shift 1 ('plain') or 1 + lam0^2 ('shifted').

    The plain variant requires 1 + lam_min > 0; the shifted one is always
    admissible because lam0^2 >= -lam_min by construction.
    """
    op.require_eigendata()
    if variant == "plain":
        shift = 1.0
    elif variant == "shifted":
        shift = 1.0 + op.lam0**2
    else:
        raise InvalidExponent(f"unknown Sobolev variant {variant!r}")
    moved = shift + op.eigvals
    if moved[0] <= 0.0:
        raise NegativeShiftedEigenvalue(
            f"shifted spectrum reaches {moved[0]:.3e} <= 0; use variant='shifted'"
        )
    cols = _columns(f)
    out = apply_symbol(op, lambda lam: (shift + lam) ** (s / 2.0), cols)
    res = lp_columns(out, op.grid.cell_measure, 2.0)
    single = not (isinstance(f, np.ndarray) and f.ndim == 2)
    return float(res[0]) if single else res


def test_seminorms(op: SpectralOperator, sys: DyadicSystem, f, M: float):
    """Test-space seminorm pair (p_M, q_M):

    p_M = ||f||_1 + sup_(j>=1) 2^(M j)   ||phi_j f||_1
    q_M = ||f||_1 + sup_(window) 2^(M|j|) ||phi_j f||_1

    Floats for a single function; for batched columns, two arrays with
    every block synthesized from one transform.
    """
    vals = _columns(f)
    base = lp_columns(vals, op.grid.cell_measure, 1.0)
    js = list(sys.window)
    norms = block_lp_norms(op, sys, vals, 1.0, js)
    j_arr = np.asarray(js, float)[:, None]
    inh = j_arr[:, 0] >= 1.0
    p_val = base
    if inh.any():
        p_val = base + np.max(2.0 ** (M * j_arr[inh]) * norms[inh], axis=0)
    q_val = base + np.max(2.0 ** (M * np.abs(j_arr)) * norms, axis=0)
    single = not (isinstance(f, np.ndarray) and f.ndim == 2)
    return (float(p_val[0]), float(q_val[0])) if single else (p_val, q_val)


# ---------------------------------------------------------------------------
# rearrangement and Lorentz norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RearrangementProfile:
    """Decreasing rearrangement of |f| as a step function.

    values : positive step heights, sorted descending (zeros trimmed)
    cell   : width of each step (the cell measure h^n)
    """

    values: np.ndarray
    cell: float

    @property
    def knots(self) -> np.ndarray:
        return self.cell * np.arange(len(self.values) + 1)

    @property
    def cumulative(self) -> np.ndarray:
        """S_i = int_0^(i*cell) f*, i = 0..len."""
        return np.concatenate([[0.0], np.cumsum(self.values) * self.cell])


def rearrangement_profile(f: GridFunction) -> RearrangementProfile:
    vals = np.sort(np.abs(f.values))[::-1]
    vals = vals[vals > 0.0]
    return RearrangementProfile(values=np.ascontiguousarray(vals), cell=f.grid.cell_measure)


def _pure_piece(t0, t1, a, c, q):
    """Integral of t^(c-1) a^q over [t0, t1]; the b = 0 pieces for any real q."""
    return a**q * (t1**c - t0**c) / c


def _binomial_piece(t0, t1, a, b, c, q_int):
    """Integral of t^(c-1) (a + b/t)^q over [t0, t1] for integer q and b > 0.

    Plain binomial expansion; the k-th term integrates a power of t, with a
    logarithm when the exponent c - k lands on zero.
    """
    total = np.zeros_like(a)
    for k in range(q_int + 1):
        coef = math.comb(q_int, k) * a ** (q_int - k) * b**k
        e = c - k
        if e == 0.0:
            total = total + coef * np.log(t1 / t0)
        else:
            total = total + coef * (t1**e - t0**e) / e
    return total


# Gauss-Legendre nodes per mixed step of fractional q; the module docstring
# bounds the error, which measured sits at round-off from 16 nodes on.
_GAUSS_NODES = 20


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss

    return leggauss(_GAUSS_NODES)


def _gauss_piece(t0, t1, a, b, c, q):
    """Integral of t^(c-1) (a + b/t)^q over [t0, t1] for any real q, b > 0
    and t1 - t0 <= t0: the fixed Gauss-Legendre rule on each step."""
    x, w = _gauss_rule()
    half = 0.5 * (t1 - t0)[:, None]
    t = t0[:, None] + half * (1.0 + x)
    return np.sum(half * w * t ** (c - 1.0) * (a[:, None] + b[:, None] / t) ** q, axis=1)


def check_lorentz_exponents(p: float, q: float) -> None:
    """Raise InvalidExponent unless ||f||_(p,q) is defined: p, q >= 1, and
    1 < p < inf for finite q, where otherwise the integral diverges."""
    if not (p >= 1.0) or not (q >= 1.0):
        raise InvalidExponent(f"Lorentz exponents need p, q >= 1, got ({p}, {q})")
    if not math.isinf(q) and (math.isinf(p) or p == 1.0):
        raise InvalidExponent(
            f"finite q needs 1 < p < inf (the (p, q) = ({p}, {q}) integral diverges)"
        )


def lorentz_norm(f: GridFunction, p: Exponent, q: ExtExponent) -> float:
    """Lorentz norm ||f||_(p,q) through the averaged rearrangement f**.

    q = inf takes sup_t t^(1/p) f**(t) (exact piecewise maximization);
    finite q needs 1 < p < inf and integrates (t^(1/p) f**)^q dt/t piece
    by piece (see the module docstring).

    Special cases: (p, q) = (1, inf) returns the L1 norm and
    (inf, inf) the sup norm, matching the classical identifications.
    """
    check_lorentz_exponents(p, q)
    prof = rearrangement_profile(f)
    v = prof.values
    if v.size == 0:
        return 0.0
    S = prof.cumulative
    t_knots = prof.knots
    t0 = t_knots[:-1].copy()
    t1 = t_knots[1:]
    a = v
    b = S[:-1] - t0 * v  # b >= 0, b[0] = 0
    total_mass = float(S[-1])

    if math.isinf(q):
        if math.isinf(p):
            return float(v[0])
        if p == 1.0:
            return total_mass  # t * f**(t) increases to the total integral
        best = 0.0
        # per piece maximize a t^(1/p) + b t^(1/p - 1): endpoints plus the
        # critical point t = b (p - 1) / a when it lands inside
        t_crit = np.clip(b * (p - 1.0) / a, t0, t1)
        for tt in (t1.astype(float), np.maximum(t0, np.finfo(float).tiny), t_crit):
            tt = np.maximum(tt, np.finfo(float).tiny)
            best = max(best, float(np.max(tt ** (1.0 / p) * (a + b / tt))))
        # tail: t^(1/p - 1) * total decreasing for p > 1, sup at the last knot
        best = max(best, float(t_knots[-1] ** (1.0 / p - 1.0) * total_mass))
        return best

    # f / max|f| keeps every q-th power near 1; the norm is scaled back
    scale = v[0]
    a, b, total_mass = v / scale, b / scale, total_mass / scale
    c = q / p
    mixed = b > 0.0  # mixed pieces always start at t0 > 0
    pieces = np.zeros_like(a)
    if (~mixed).any():
        pieces[~mixed] = _pure_piece(t0[~mixed], t1[~mixed], a[~mixed], c, q)
    if mixed.any():
        args = (t0[mixed], t1[mixed], a[mixed], b[mixed], c)
        if float(q).is_integer():
            pieces[mixed] = _binomial_piece(*args, int(q))
        else:
            pieces[mixed] = _gauss_piece(*args, q)
    tail = total_mass**q * t_knots[-1] ** (c - q) / (q - c)
    return float(scale * (np.sum(pieces) + tail) ** (1.0 / q))
