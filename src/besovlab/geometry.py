"""Masked uniform lattices on open subsets of R^n, n in {1, 2, 3}.

A domain is an open axis-aligned box (an interval when n = 1) or an open
ball.  A grid at spacing h collects the lattice nodes k*h (k integer) that
fall strictly inside the domain; Dirichlet boundary conditions later act
by plain mask truncation, so the boundary itself never has to be meshed.
Each node owns a cell of measure h^n, which fixes the quadrature weight
behind every discrete integral in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceeded, EmptyDomain, GridMismatch, UnsupportedDimension

__all__ = [
    "Box",
    "Ball",
    "DomainSpec",
    "Grid",
    "GridFunction",
    "build_grid",
    "lattice_symmetries",
    "lp_columns",
    "interval",
    "box",
    "ball",
]

_DEFAULT_NODE_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box (lo_i, hi_i)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts > lo) & (pts < hi), axis=-1)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo, float), np.asarray(self.hi, float)


@dataclass(frozen=True)
class Ball:
    """Open ball of given center and radius."""

    center: tuple[float, ...]
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        return np.sum((pts - c) ** 2, axis=-1) < self.radius**2

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center, float)
        return c - self.radius, c + self.radius


@dataclass(frozen=True)
class DomainSpec:
    """Open box or ball in R^n; its bounding box must be finite and nonempty.

    Examples
    --------
    >>> spec = DomainSpec(1, Box((0.0,), (1.0,)))
    >>> spec.dimension
    1
    """

    dimension: int
    shape: Box | Ball

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise UnsupportedDimension(f"dimension must be 1, 2 or 3, got {self.dimension}")
        with np.errstate(over="ignore"):  # an overflow fails the finiteness test below
            lo, hi = self.bbox()
        if lo.shape != (self.dimension,) or hi.shape != (self.dimension,):
            raise GridMismatch("bounding box dimension does not match domain dimension")
        if not np.all(hi > lo):
            raise EmptyDomain("bounding box has nonpositive volume")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError(f"bounding box must be finite, got {lo} to {hi}")

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.shape.bbox()

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        return self.shape.contains(pts)


def interval(a: float, b: float) -> DomainSpec:
    """Open interval (a, b) as a 1-d domain."""
    return DomainSpec(1, Box((a,), (b,)))


def box(lo: Sequence[float], hi: Sequence[float]) -> DomainSpec:
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    return DomainSpec(len(lo), Box(lo, hi))


def ball(center: Sequence[float], radius: float) -> DomainSpec:
    center = tuple(float(v) for v in center)
    return DomainSpec(len(center), Ball(center, float(radius)))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass
class Grid:
    """Masked uniform lattice.

    Attributes
    ----------
    n : int
        Spatial dimension.
    h : float
        Lattice spacing; every node sits at integer multiples of h.
    k_lo : ndarray of int64, shape (n,)
        Smallest lattice index per axis over the bounding box.
    shape : tuple of int
        Extent of the index box per axis.
    flat_of_cell : ndarray of int64, shape ``shape``
        Interior numbering, -1 on exterior cells.
    multi_indices : ndarray of int64, shape (N, n)
        Index-box offsets of the interior nodes, in numbering order.
    """

    n: int
    h: float
    k_lo: np.ndarray
    shape: tuple[int, ...]
    flat_of_cell: np.ndarray
    multi_indices: np.ndarray
    _coords: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        return self.multi_indices.shape[0]

    @property
    def cell_measure(self) -> float:
        return self.h**self.n

    @property
    def coordinates(self) -> np.ndarray:
        """(N, n) array of node coordinates k*h."""
        if self._coords is None:
            self._coords = (self.multi_indices + self.k_lo) * self.h
        return self._coords

    def same_geometry(self, other: "Grid") -> bool:
        return (
            self.n == other.n
            and self.h == other.h
            and self.shape == other.shape
            and np.array_equal(self.k_lo, other.k_lo)
            and np.array_equal(self.multi_indices, other.multi_indices)
        )


def build_grid(spec: DomainSpec, h: float, node_budget: int = _DEFAULT_NODE_BUDGET) -> Grid:
    """Collect the lattice nodes k*h strictly inside the domain.

    Parameters
    ----------
    spec : DomainSpec
    h : float
        Spacing, must be positive.
    node_budget : int
        Hard cap on the number of candidate cells in the bounding box;
        exceeding it raises BudgetExceeded before any allocation.

    Examples
    --------
    >>> g = build_grid(interval(0.0, 1.0), 1.0 / 8.0)
    >>> g.num_nodes
    7
    """
    if not (h > 0) or not math.isfinite(h):
        raise ValueError(f"spacing must be a positive finite number, got {h}")
    lo, hi = spec.bbox()
    n = spec.dimension

    with np.errstate(over="ignore"):
        k_lo = np.floor(lo / h) - 1
        k_hi = np.ceil(hi / h) + 1
    # lattice indices stay exact floats below 2^53; the cell count is an
    # exact Python integer, where an int64 product would wrap
    if not np.all(np.abs(np.concatenate([k_lo, k_hi])) < 2.0**53):
        raise BudgetExceeded(f"spacing h={h} needs lattice indices beyond 2^53")
    shape = tuple(int(b - a + 1) for a, b in zip(k_lo, k_hi))
    total = math.prod(max(s, 0) for s in shape)
    if total <= 0:
        raise EmptyDomain("bounding box contains no lattice cells at this spacing")
    if total > node_budget:
        raise BudgetExceeded(
            f"bounding box holds {total} candidate cells, budget is {node_budget}"
        )

    k_lo = k_lo.astype(np.int64)
    axes = [np.arange(a, a + s, dtype=np.int64) for a, s in zip(k_lo, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1) * h

    inside = spec.contains(pts).reshape(shape)

    if not inside.any():
        raise EmptyDomain(f"no lattice node falls strictly inside the domain at h={h}")

    flat_of_cell = np.full(shape, -1, dtype=np.int64)
    order = np.argwhere(inside)  # lexicographic, deterministic
    flat_of_cell[tuple(order.T)] = np.arange(order.shape[0])
    return Grid(n=n, h=float(h), k_lo=k_lo, shape=shape, flat_of_cell=flat_of_cell,
                multi_indices=order)


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------


@dataclass
class GridFunction:
    """One scalar (real or complex) value per interior node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.grid.num_nodes,):
            raise GridMismatch(
                f"value count {vals.shape} does not match grid size {self.grid.num_nodes}"
            )
        if vals.dtype.kind not in "fc":
            vals = vals.astype(np.float64)
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        self.values = vals

    @classmethod
    def from_callable(cls, grid: Grid, func: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        """Sample a vectorized callable of the (N, n) coordinate array."""
        return cls(grid, np.asarray(func(grid.coordinates)))


def lattice_symmetries(
    grid: Grid, potential: np.ndarray | None = None, reflections: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The exact lattice symmetries of a grid and its potential samples, and
    one node per orbit of their group.

    The candidates are the signed axis permutations of the centred doubled
    lattice coordinates c = 2k - (k_min + k_max) (per axis, over the nodes),
    at most 2^n n! = 48 of them.  One is kept when it maps the node set onto
    itself and leaves the potential samples (None: no potential) bitwise
    equal.  Such a map sends lattice neighbours to lattice neighbours and
    each diagonal entry -Delta + V to an equal one, so it permutes the
    operator's matrix into itself bit for bit; it is also an isometry of the
    node coordinates.  Each candidate costs O(N).

    With ``reflections`` only the coordinate reflections are tried, and
    only those that keep the checkerboard parity of sum(k): flipping the
    axes F does iff the sum of (k_min + k_max)_d over d in F is even.
    They commute with one another.

    Returns (maps, reps): row g of the (G, N) array ``maps`` sends node x to
    node maps[g, x] (row 0 is the identity, G the group order), and ``reps``
    holds the smallest node of each orbit, ascending.  A trivial group
    gives every node.
    """
    idx = grid.multi_indices
    ends = idx.min(axis=0) + idx.max(axis=0)
    centred = 2 * idx - ends
    shape = np.asarray(grid.shape)
    vals = None if potential is None else np.asarray(potential, float)
    perms = [tuple(range(grid.n))] if reflections else itertools.permutations(range(grid.n))
    maps = []
    for axes in perms:
        for signs in itertools.product((1, -1), repeat=grid.n):
            signs = np.asarray(signs)
            if reflections and ends[signs < 0].sum() % 2:
                continue
            doubled = centred[:, axes] * signs + ends
            if np.any(doubled % 2):
                continue
            image = doubled // 2
            if np.any(image < 0) or np.any(image >= shape):
                continue
            nodes = grid.flat_of_cell[tuple(image.T)]
            if np.any(nodes < 0):
                continue
            if vals is not None and vals[nodes].tobytes() != vals.tobytes():
                continue
            maps.append(nodes)
    maps = np.stack(maps)
    reps = np.flatnonzero(maps.min(axis=0) == np.arange(grid.num_nodes))
    return maps, reps


def lp_columns(values: np.ndarray, cell_measure: float, p: float) -> np.ndarray:
    """Discrete L^p norms (h^n sum |f_i|^p)^(1/p) of the columns of ``values``
    (a single norm for a 1-d array); p = inf gives max |f_i|.  The exponent
    is not validated here."""
    a = np.abs(values)
    if math.isinf(p):
        return a.max(axis=0, initial=0.0)
    if p == 2:
        # sqrt, not ** 0.5: numpy scalar powers are not correctly rounded
        return np.sqrt(cell_measure * np.sum(a * a, axis=0))
    return (cell_measure * np.sum(a**p, axis=0)) ** (1.0 / p)
