"""Shared fixtures: cached grids and operators reused across test modules.

Eigendecompositions dominate the suite runtime, so stages (grid, operator,
dyadic system) are memoized per (domain, spacing) here and shared freely;
tests must not mutate them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, reject
from hypothesis import strategies as st

import besovlab as bl
from besovlab.geometry import lp_columns


@dataclass(frozen=True)
class Stage:
    grid: "bl.Grid"
    op: "bl.SpectralOperator"
    sys: "bl.DyadicSystem"


@lru_cache(maxsize=None)
def interval_stage(denom: int, length: float = 1.0) -> Stage:
    grid = bl.build_grid(bl.interval(0.0, length), 1.0 / denom)
    op = bl.eigendecompose(bl.assemble_laplacian(grid))
    sys = bl.build_system(op.lam_pos_min, op.lam_max, op.lam0)
    return Stage(grid, op, sys)


@lru_cache(maxsize=None)
def disk_stage(denom: int, radius: float = 1.0) -> Stage:
    grid = bl.build_grid(bl.ball([0.0, 0.0], radius), 1.0 / denom)
    op = bl.eigendecompose(bl.assemble_laplacian(grid), dense_cap=8192)
    sys = bl.build_system(op.lam_pos_min, op.lam_max, op.lam0)
    return Stage(grid, op, sys)


def diagonal_operator(lams) -> "bl.SpectralOperator":
    """Operator with prescribed spectrum and coordinate eigenvectors.

    Useful for tests that need eigenvalues placed exactly at dyadic centers.
    Lives on an interval grid with matching node count.
    """
    lams = np.asarray(sorted(lams), float)
    m = len(lams)
    grid = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / (m + 1))
    assert grid.num_nodes == m
    op = bl.SpectralOperator(grid=grid, csr=(lams, np.arange(m), np.arange(m + 1)))
    op.eigvals = lams
    op.eigvecs = np.eye(m)
    return op


def draw_lattice(data, min_cells: int, max_cells: int) -> tuple["bl.DomainSpec", float]:
    """A hypothesis draw of an interval, a box or a ball (n = 2 or 3) with
    sides in [0.5, 2], and a spacing that gives it min_cells to max_cells
    cells of the domain's measure."""
    kind = data.draw(st.sampled_from(["interval", "box", "ball"]))
    n = 1 if kind == "interval" else data.draw(st.integers(2, 3))
    sides = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    if kind == "ball":
        center = data.draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
        spec = bl.ball(center, sides[0])
        measure = math.pi ** (n / 2) / math.gamma(n / 2 + 1) * sides[0] ** n
    else:
        spec = bl.box([0.0] * n, sides)
        measure = math.prod(sides)
    h = (measure / data.draw(st.integers(min_cells, max_cells))) ** (1 / n)
    # a box side no longer than h holds no node; a ball always holds one
    assume(kind == "ball" or h < min(sides))
    return spec, h


def draw_grid(data, min_cells: int, max_cells: int) -> tuple["bl.Grid", bool]:
    """A hypothesis draw of a box or ball in 1-3 dimensions, centred at the
    origin or not, at a spacing giving it min_cells to max_cells cells of
    its bounding measure; returns the grid and whether it is centred."""
    n = data.draw(st.integers(1, 3))
    kind = data.draw(st.sampled_from(["box", "ball"]))
    centred = data.draw(st.booleans())
    sides = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    shift = [0.0] * n if centred else data.draw(
        st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
    if kind == "ball":
        spec, measure = bl.ball(shift, sides[0]), (2 * sides[0]) ** n
    else:
        spec = bl.box([c - s / 2 for c, s in zip(shift, sides)],
                      [c + s / 2 for c, s in zip(shift, sides)])
        measure = float(np.prod(sides))
    h = (measure / data.draw(st.integers(min_cells, max_cells))) ** (1 / n)
    try:
        return bl.build_grid(spec, h), centred
    except bl.EmptyDomain:  # an off-centre box side shorter than h can miss every node
        reject()


def lp_norm(f: "bl.GridFunction", p: float) -> float:
    """Discrete L^p norm of one grid function."""
    return float(lp_columns(f.values, f.grid.cell_measure, p))


def eigenfunction(op: "bl.SpectralOperator", k: int) -> "bl.GridFunction":
    """The k-th eigenvector as a grid function of unit L^2 norm."""
    return bl.GridFunction(op.grid, op.eigvecs[:, k] / op.grid.h ** (op.grid.n / 2.0))


def random_function(grid, seed=0, complex_values=False) -> "bl.GridFunction":
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.num_nodes)
    if complex_values:
        vals = vals + 1j * rng.standard_normal(grid.num_nodes)
    return bl.GridFunction(grid, vals)


@pytest.fixture(scope="session")
def stage_64() -> Stage:
    return interval_stage(64)


@pytest.fixture(scope="session")
def stage_128() -> Stage:
    return interval_stage(128)


@pytest.fixture
def transforms(monkeypatch) -> list:
    """Record every coefficient transform U^T f: each call of
    calculus.spectral_coefficients, through whichever module calls it,
    appends the shape of its input."""
    from besovlab import calculus

    orig = calculus.spectral_coefficients
    calls: list = []

    def counted(op, vals):
        calls.append(np.shape(vals))
        return orig(op, vals)

    for name, mod in list(sys.modules.items()):
        if name.startswith("besovlab.") and getattr(mod, "spectral_coefficients", None) is orig:
            monkeypatch.setattr(mod, "spectral_coefficients", counted)
    return calls


@pytest.fixture
def eigensolves(monkeypatch) -> list:
    """Record every dense eigensolve: each call of
    operators.eigendecompose on an operator without eigendata, through
    whichever module calls it, appends whether the operator is the free
    Laplacian (no potential)."""
    from besovlab import operators

    orig = operators.eigendecompose
    calls: list = []

    def counted(op, *args, **kwargs):
        if not op.has_eigendata:
            calls.append(op.potential is None)
        return orig(op, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("besovlab") and getattr(mod, "eigendecompose", None) is orig:
            monkeypatch.setattr(mod, "eigendecompose", counted)
    return calls
