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
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceeded, EmptyDomain, GridMismatch, UnsupportedDimension

__all__ = [
    "Box",
    "Ball",
    "DomainSpec",
    "Grid",
    "GridFunction",
    "build_grid",
    "LatticeSymmetry",
    "Reflections",
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


class Reflections(NamedTuple):
    """A group of coordinate reflections: row g of the (R, N) ``maps`` sends
    node x to maps[g, x] (row 0 the identity); ``rep`` is each node's orbit
    representative, its smallest node.  ``characters`` holds (live, coef)
    per character chi(g) = (-1)^(f_g . s), f_g the 0/1 axes g reverses, in
    order of first hit over s in {0, 1}^n.  Sector chi has the orthonormal
    basis sum_g chi(g) e_(g x) / sqrt|O| over the representatives x whose
    stabilizer chi is 1 on (Fassler & Stiefel, Group Theoretical Methods and
    Their Applications, 1992): node i of such an orbit O is live, with
    coef[i] = chi(g_i) / sqrt|O| where g_i x = i."""

    maps: np.ndarray
    rep: np.ndarray
    characters: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True, eq=False)
class LatticeSymmetry:
    """The exact lattice symmetries of a grid and of samples on its nodes
    (a potential; None: none), each attribute found on first read.

    The candidates are the at most 48 signed axis permutations of the
    centred doubled lattice coordinates 2k - (k_min + k_max), each tried in
    O(N).  One is kept when it maps the node set onto itself and keeps the
    samples bitwise; it then permutes the matrix of -Delta + V into itself
    bit for bit and is an isometry of the nodes.  Row g of ``maps`` sends
    node x to maps[g, x]; row 0 is the identity and no map appears twice.
    ``reps`` holds each orbit's smallest node, ascending, and
    ``reflections`` the coordinate reflections, the first rows of ``maps``.

    >>> LatticeSymmetry(build_grid(box([-0.5, -1.0], [0.5, 1.0]), 0.5)).order
    2
    >>> from besovlab.potential import potential_from_expression
    >>> disk = build_grid(ball([0.0, 0.0], 1.0), 1 / 16)
    >>> sym = LatticeSymmetry(disk, potential_from_expression(disk, "0.25/r^2")[0].values)
    >>> sym.order, sym.reps.size
    (8, 113)
    """

    grid: Grid
    potential: np.ndarray | None = None

    @cached_property
    def maps(self) -> np.ndarray:
        idx, shape, vals = self.grid.multi_indices, self.grid.shape, self.potential
        ends = idx.min(axis=0) + idx.max(axis=0)
        centred, found = 2 * idx - ends, {}
        for axes, signs in itertools.product(itertools.permutations(range(self.grid.n)),
                                             itertools.product((1, -1), repeat=self.grid.n)):
            doubled = centred[:, axes] * signs + ends
            image = doubled // 2
            if np.all(doubled % 2 == 0) and np.all(image >= 0) and np.all(image < shape):
                nodes = self.grid.flat_of_cell[tuple(image.T)]
                if np.all(nodes >= 0) and (vals is None or vals[nodes].tobytes() == vals.tobytes()):
                    found.setdefault(nodes.tobytes(), nodes)
        return np.stack(list(found.values()))

    @property
    def order(self) -> int:
        return len(self.maps)

    @cached_property
    def reps(self) -> np.ndarray:
        return np.flatnonzero(self.maps.min(axis=0) == np.arange(self.grid.num_nodes))

    @cached_property
    def reflections(self) -> Reflections:
        idx = self.grid.multi_indices
        centred = (2 * idx - idx.min(axis=0) - idx.max(axis=0)).T[:, None]  # (n, 1, N)
        images = centred[:, 0, self.maps]  # (n, order, N)
        same = (images == centred).all(axis=2)
        keep = (same | (images == -centred).all(axis=2)).all(axis=0)  # each axis kept or reversed
        maps, flips = self.maps[keep], (~same[:, keep]).T.astype(int)
        rep = maps.min(axis=0)
        at_rep = maps[:, rep]  # (R, N): the image of node i's representative
        stab = at_rep == rep
        weight = np.sqrt(stab.sum(axis=0) / len(maps))  # 1 / sqrt|O|
        elem = (at_rep == np.arange(len(idx))).argmax(axis=0)
        chis = 1 - 2 * (flips @ np.array(list(itertools.product((0, 1), repeat=self.grid.n))).T % 2)
        chis = chis[:, np.sort(np.unique(chis, axis=1, return_index=True)[1])]  # distinct tables
        return Reflections(maps, rep, tuple(
            (~(stab & (chi[:, None] < 0)).any(axis=0), chi[elem] * weight) for chi in chis.T))


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
