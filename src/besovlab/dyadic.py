"""Smooth dyadic partitions of unity on the spectral axis.

The construction starts from the normalized primitive of the standard bump,

    B(x) = int_0^x exp(-1/(t(1-t))) dt / int_0^1 exp(-1/(t(1-t))) dt,

which rises smoothly from 0 to 1 on [0, 1] with all derivatives vanishing
at both ends.  The low-pass cutoff is

    chi(x) = 1 on (-inf, 1],  1 - B(x-1) on [1, 2],  0 on [2, inf),

and the dyadic pieces are differences of rescaled cutoffs,

    phi_j(x) = chi(2^-j x) - chi(2^-j+1 x),

so that any finite window sum telescopes exactly: only the two outermost
cutoff values survive, and they are exactly 1 and 0 once the window covers
the point.  All partition identities in the package rest on that exact
cancellation rather than on quadrature accuracy.

Eigenvalue-axis versions: psi(mu) = chi(sqrt(max(mu, 0))) caps the low
(and any nonpositive) spectrum, and phi_j(sqrt(mu)) for mu > 0 selects the
dyadic shell with sqrt(mu) ~ 2^j.

A second admissible family with the transition profile B(x)^2 is provided
so independence of the decomposition from the cutoff choice can be tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidSpectrumBounds

__all__ = ["DyadicSystem", "build_system", "second_system", "bump_primitive", "chi"]

_GAUSS_NODES = 192
_PROFILES = ("smooth", "squared")


@lru_cache(maxsize=1)
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GAUSS_NODES)


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    m = (t > 0.0) & (t < 1.0)
    tt = t[m]
    out[m] = np.exp(-1.0 / (tt * (1.0 - tt)))
    return out


@lru_cache(maxsize=1)
def _bump_total() -> float:
    nodes, weights = _gauss_rule()
    t = 0.5 * (nodes + 1.0)
    return float(0.5 * (_bump(t) @ weights))


def bump_primitive(x) -> np.ndarray:
    """Normalized bump primitive B, vectorized; 0 below 0, 1 above 1."""
    x = np.asarray(x, float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.where(x >= 1.0, 1.0, 0.0)
    mid = (x > 0.0) & (x < 1.0)
    if mid.any():
        xm = x[mid]
        nodes, weights = _gauss_rule()
        t = 0.5 * xm[:, None] * (nodes[None, :] + 1.0)
        out[mid] = (0.5 * xm * (_bump(t) @ weights)) / _bump_total()
    return out[0] if scalar else out


def _transition(u: np.ndarray, profile: str) -> np.ndarray:
    """Monotone 0 -> 1 profile on [0, 1]; the 'squared' variant is a genuinely
    different admissible choice used for cross-checks."""
    b = bump_primitive(u)
    if profile == "smooth":
        return b
    if profile == "squared":
        return b * b
    raise ValueError(f"unknown dyadic profile {profile!r}")


def chi(x, profile: str = "smooth") -> np.ndarray:
    """Low-pass cutoff: exactly 1 on (-inf, 1], exactly 0 on [2, inf)."""
    x = np.asarray(x, float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.where(x <= 1.0, 1.0, 0.0)
    mid = (x > 1.0) & (x < 2.0)
    if mid.any():
        out[mid] = 1.0 - _transition(x[mid] - 1.0, profile)
    return out[0] if scalar else out


@dataclass(frozen=True)
class DyadicSystem:
    """Dyadic partition of unity with a finite active window [j_min, j_max].

    The window is chosen so that every spectral point lambda > 0 of the
    target operator has sqrt(lambda) inside [2^(j_min-1), 2^(j_max+1)],
    with one spare level on each side, so window sums reach exactly 1 on
    the covered range.
    """

    profile: str
    j_min: int
    j_max: int
    lam0: float = 0.0

    def chi(self, x):
        return chi(x, self.profile)

    def phi(self, j: int, x):
        """phi_j(x) = chi(2^-j x) - chi(2^-j+1 x); supported in [2^(j-1), 2^(j+1)]."""
        x = np.asarray(x, float)
        return self.chi(x * 2.0 ** (-j)) - self.chi(x * 2.0 ** (-j + 1))

    def psi(self, mu):
        """Low-spectrum cap psi(mu) = chi(sqrt(max(mu, 0))); equals 1 on mu <= 1."""
        mu = np.asarray(mu, float)
        return self.chi(np.sqrt(np.maximum(mu, 0.0)))

    def phi_sqrt(self, j: int, mu):
        """phi_j(sqrt(mu)) on mu > 0, zero on mu <= 0 (spectral-shell symbol)."""
        mu = np.asarray(mu, float)
        pos = mu > 0.0
        out = np.zeros_like(mu)
        if pos.any():
            out[pos] = self.phi(j, np.sqrt(mu[pos]))
        return out

    @property
    def window(self) -> range:
        return range(self.j_min, self.j_max + 1)

    @property
    def inhom_window(self) -> range:
        """Block indices used by inhomogeneous decompositions (j >= 1)."""
        return range(max(1, self.j_min), self.j_max + 1)

    def covers(self, lam_max: float) -> bool:
        return math.sqrt(max(lam_max, 0.0)) <= 2.0**self.j_max


def build_system(
    lam_pos_min: float,
    lam_max: float,
    lam0: float = 0.0,
    profile: str = "smooth",
) -> DyadicSystem:
    """Choose the dyadic window for an operator with positive spectrum in
    [lam_pos_min, lam_max].

    Parameters
    ----------
    lam_pos_min : float
        Smallest strictly positive spectral point.
    lam_max : float
        Largest spectral point.
    lam0 : float
        Semi-boundedness shift (sqrt of minus the bottom of the spectrum,
        zero for nonnegative operators); recorded for downstream shifts.
    profile : str
        'smooth' or 'squared'.

    Raises
    ------
    InvalidSpectrumBounds
        If the positive window is empty or out of order.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown dyadic profile {profile!r}")
    if not (lam_pos_min > 0.0) or not math.isfinite(lam_pos_min):
        raise InvalidSpectrumBounds(
            f"need a strictly positive lower spectral point, got {lam_pos_min}"
        )
    if not (lam_max >= lam_pos_min) or not math.isfinite(lam_max):
        raise InvalidSpectrumBounds(
            f"spectral bounds out of order: [{lam_pos_min}, {lam_max}]"
        )
    if lam0 < 0.0:
        raise InvalidSpectrumBounds(f"shift lam0 must be nonnegative, got {lam0}")
    m_lo = math.sqrt(lam_pos_min)
    m_hi = math.sqrt(lam_max)
    # one spare level on each side of the covering range
    j_min = math.floor(math.log2(m_lo)) - 1
    j_max = math.ceil(math.log2(m_hi)) + 1
    return DyadicSystem(profile=profile, j_min=j_min, j_max=j_max, lam0=float(lam0))


def second_system(sys: DyadicSystem) -> DyadicSystem:
    """Same window, the other transition profile."""
    other = "squared" if sys.profile == "smooth" else "smooth"
    return DyadicSystem(profile=other, j_min=sys.j_min, j_max=sys.j_max, lam0=sys.lam0)
