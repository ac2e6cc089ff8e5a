"""Grid construction, grid functions and discrete L^p norms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besovlab as bl

from conftest import draw_grid, lp_norm


def brute_force_disk_count(radius: float, h: float) -> int:
    # Independent count: loop over a generous integer window and apply the
    # open-ball predicate directly.
    m = int(np.ceil(radius / h)) + 2
    count = 0
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            if (i * h) ** 2 + (j * h) ** 2 < radius**2:
                count += 1
    return count


class TestBuildGrid:
    def test_unit_interval_eighth(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        assert g.num_nodes == 7
        np.testing.assert_allclose(g.coordinates[:, 0], np.arange(1, 8) / 8.0)

    def test_single_interior_node(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.5)
        assert g.num_nodes == 1
        np.testing.assert_allclose(g.coordinates, [[0.5]])

    def test_disk_counts_match_brute_force(self):
        for denom in (4, 8, 16):
            h = 1.0 / denom
            g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), h)
            assert g.num_nodes == brute_force_disk_count(1.0, h)

    def test_disk_quarter_count_literal(self):
        g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 0.25)
        assert g.num_nodes == 45

    def test_boundary_nodes_excluded(self):
        # Nodes landing exactly on the boundary of an open box are outside.
        g = bl.build_grid(bl.box([0.0, 0.0], [1.0, 1.0]), 0.25)
        assert g.num_nodes == 9
        coords = g.coordinates
        assert coords.min() > 0.0
        assert coords.max() < 1.0

    def test_off_lattice_domain(self):
        # Domain endpoints need not be lattice points.
        g = bl.build_grid(bl.interval(0.1, 0.9), 0.25)
        np.testing.assert_allclose(g.coordinates[:, 0], [0.25, 0.5, 0.75])

    def test_three_dimensional_box(self):
        g = bl.build_grid(bl.box([0.0] * 3, [1.0] * 3), 0.25)
        assert g.num_nodes == 27
        assert g.n == 3

    def test_empty_domain_raises(self):
        with pytest.raises(bl.EmptyDomain):
            bl.build_grid(bl.interval(0.0, 0.1), 0.25)

    def test_node_budget(self):
        with pytest.raises(bl.BudgetExceeded):
            bl.build_grid(bl.interval(0.0, 1.0), 1e-4, node_budget=100)
        # about 8e21 candidate cells: an int64 product wraps this count
        with pytest.raises(bl.BudgetExceeded):
            bl.build_grid(bl.ball([0.0, 0.0, 0.0], 1.0), 1e-7)
        # 1 / h overflows to infinity: no finite lattice index exists
        with pytest.raises(bl.BudgetExceeded):
            bl.build_grid(bl.interval(0.0, 1.0), 5e-324)

    def test_nonfinite_bounding_box_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            bl.ball([0.0, 0.0], np.inf)

    def test_lexicographic_ordering(self):
        g = bl.build_grid(bl.box([0.0, 0.0], [1.0, 1.0]), 0.25)
        rows = [tuple(row) for row in g.multi_indices + g.k_lo]
        assert rows == sorted(rows)

    def test_flat_of_cell_roundtrip(self):
        g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 0.25)
        idx = g.multi_indices
        flat = g.flat_of_cell[tuple(idx.T)]
        np.testing.assert_array_equal(flat, np.arange(g.num_nodes))


class TestGridFunction:
    def test_from_callable(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        f = bl.GridFunction.from_callable(g, lambda x: np.sin(np.pi * x[:, 0]))
        np.testing.assert_allclose(f.values, np.sin(np.pi * np.arange(1, 8) / 8))

    def test_nonfinite_rejected(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        with pytest.raises(ValueError):
            bl.GridFunction(g, np.array([1.0, np.nan, 0.0]))

    def test_shape_mismatch_rejected(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        with pytest.raises(bl.GridMismatch):
            bl.GridFunction(g, np.ones(5))


class TestLpNorm:
    def test_indicator_norm(self):
        # Indicator of m cells: norm = (m h^n)^(1/p).
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        vals = np.zeros(7)
        vals[2:5] = 1.0
        f = bl.GridFunction(g, vals)
        for p in (1.0, 1.5, 2.0, 3.0):
            np.testing.assert_allclose(lp_norm(f, p), (3 * 0.125) ** (1 / p), rtol=1e-14)
        assert lp_norm(f, np.inf) == 1.0

    def test_scaling(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        f = bl.GridFunction(g, np.arange(7, dtype=float))
        for p in (1.0, 2.0, 2.5, np.inf):
            np.testing.assert_allclose(
                lp_norm(bl.GridFunction(g, -3.0 * f.values), p),
                3.0 * lp_norm(f, p),
                rtol=1e-14,
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_hoelder(self, seed):
        rng = np.random.default_rng(seed)
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.0625)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        h = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        lhs = abs(g.cell_measure * np.sum(f.values * h.values))
        p = rng.uniform(1.1, 4.0)
        q = p / (p - 1.0)
        assert lhs <= lp_norm(f, p) * lp_norm(h, q) * (1 + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_lp_monotone_in_p_on_probability_space(self, seed):
        # On a domain of measure 1 the Lp norms are nondecreasing in p.
        rng = np.random.default_rng(seed)
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.0625)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        total = g.num_nodes * g.cell_measure
        vals = [lp_norm(f, p) * total ** (-1 / p) for p in (1.0, 2.0, 4.0)]
        assert vals[0] <= vals[1] * (1 + 1e-12)
        assert vals[1] <= vals[2] * (1 + 1e-12)



_POTENTIALS = [None, "-6", "r^2", "0.25/r^2", "x", "16*x - 1"]


def draw_symmetry_case(data):
    """A drawn grid, whether it is centred, one of _POTENTIALS, its samples
    (None without a potential) and the operator assembled from them."""
    grid, centred = draw_grid(data, 8, 300)
    expr = data.draw(st.sampled_from(_POTENTIALS))
    vals = None if expr is None else bl.potential_from_expression(grid, expr)[0].values
    op = bl.assemble_laplacian(grid) if vals is None else bl.assemble_schrodinger(grid, vals)
    return grid, centred, expr, vals, op


def coordinate_flips(grid, vals) -> list[np.ndarray]:
    """The node map of each of the 2^n axis flips about the middle of the
    index range that maps the node set onto itself and keeps the samples
    ``vals`` bitwise, found by lookup of the reflected lattice indices."""
    idx = grid.multi_indices
    node_of = {tuple(k): i for i, k in enumerate(idx.tolist())}
    ends = idx.min(axis=0) + idx.max(axis=0)
    found = []
    for signs in itertools.product((False, True), repeat=grid.n):
        image = np.where(signs, ends - idx, idx)
        nodes = [node_of.get(tuple(k), -1) for k in image.tolist()]
        if -1 in nodes or (vals is not None and vals[nodes].tobytes() != vals.tobytes()):
            continue
        found.append(np.asarray(nodes))
    return found


class TestLatticeSymmetries:
    """The exact symmetries of a lattice with its potential samples."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_maps_fix_the_operator_and_pick_one_node_per_orbit(self, data):
        grid, centred, expr, vals, op = draw_symmetry_case(data)
        sym = bl.LatticeSymmetry(grid, vals)
        maps, reps, N = sym.maps, sym.reps, grid.num_nodes
        A = op.matrix.toarray()
        assert sym.order == len(maps)
        assert np.array_equal(maps[0], np.arange(N))
        for m in maps:
            assert np.array_equal(np.sort(m), np.arange(N))  # onto the node set
            assert A[np.ix_(m, m)].tobytes() == A.tobytes()
        # each map once, and a group: closed under composition
        rows = {m.tobytes() for m in maps}
        assert len(rows) == len(maps)
        assert all(a[b].tobytes() in rows for a in maps for b in maps)
        # every coordinate flip that fixes the node set and V is a member
        flips = coordinate_flips(grid, vals)
        assert all(f.tobytes() in rows for f in flips)
        for x in range(N):
            orbit = np.unique(maps[:, x])
            assert np.isin(orbit, reps).sum() == 1 and orbit[0] in reps
        assert np.array_equal(reps, np.unique(maps.min(axis=0)))
        coords = grid.coordinates
        if expr is not None and "x" in expr:
            # the potential varies along x alone: every map keeps x, and a
            # centred plane domain keeps exactly its y-reflection (the
            # identity when the domain is one node wide in y)
            assert all(np.array_equal(coords[m][:, 0], coords[:, 0]) for m in maps)
            if centred and grid.n == 2:
                assert len(maps) <= 2
                assert np.array_equal(coords[maps[-1]], coords * [1.0, -1.0])
        elif centred:
            # a centred domain keeps every flip under a constant or radial
            # potential
            assert len(flips) == 2 ** grid.n

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_reflections_are_the_coordinate_flips(self, data):
        # the reflection subgroup is the set of maps that flip whole axes of
        # the lattice indices, the first rows of the group, each once
        grid, _, _, vals, _ = draw_symmetry_case(data)
        sym = bl.LatticeSymmetry(grid, vals)
        refl = sym.reflections
        assert {m.tobytes() for m in refl.maps} == {f.tobytes() for f in coordinate_flips(grid, vals)}
        assert len({m.tobytes() for m in refl.maps}) == len(refl.maps)
        assert np.array_equal(refl.maps, sym.maps[:len(refl.maps)])
        assert np.array_equal(refl.rep, refl.maps.min(axis=0))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sector_basis_block_diagonalizes_the_operator(self, data):
        # S has one column per character and live orbit representative, the
        # coefficients on that orbit; it is orthonormal and S^T A S has no
        # coupling between different characters, to round-off
        grid, _, _, vals, op = draw_symmetry_case(data)
        refl = bl.LatticeSymmetry(grid, vals).reflections
        N, eps = grid.num_nodes, np.finfo(float).eps
        columns, labels = [], []
        for label, (live, coef) in enumerate(refl.characters):
            for x in np.flatnonzero(live & (refl.rep == np.arange(N))):
                columns.append(np.where(refl.rep == x, coef, 0.0))
                labels.append(label)
        S, labels = np.stack(columns, axis=1), np.asarray(labels)
        assert S.shape == (N, N)
        assert len(refl.characters) == len(refl.maps)
        assert np.abs(S.T @ S - np.eye(N)).max() <= N * eps
        A = op.matrix.toarray()
        off = labels[:, None] != labels[None, :]
        assert np.abs((S.T @ A @ S)[off]).max(initial=0.0) <= N * eps * np.linalg.norm(A, 2)

    @pytest.mark.parametrize(
        "spec, h, order, reflections, sectors",
        [
            (bl.ball([0.0, 0.0], 1.0), 1 / 16, 8, 4, 4),
            (bl.ball([0.1, 0.03], 1.0), 1 / 16, 1, 1, 1),
            (bl.box([0.0, 0.0], [1.0, 1.0]), 1 / 4, 8, 4, 4),
            # 4 nodes in y: its flip swaps the parity, so the red-black
            # solve keeps half the reflections
            (bl.box([0.0, 0.0], [1.0, 1.25]), 1 / 4, 4, 4, 2),
            (bl.interval(0.0, 1.0), 1 / 8, 2, 2, None),
            (bl.interval(0.0, 1.0), 1 / 9, 2, 2, None),
            (bl.ball([0.0, 0.0, 0.0], 1.0), 1 / 8, 48, 8, 8),
            # one node wide in x: flipping x moves nothing and adds no map
            (bl.box([0.0, 0.0], [1.0, 1.5]), 0.5, 2, 2, 1),
            (bl.box([-0.5, -1.0], [0.5, 1.0]), 0.5, 2, 2, 2),
            (bl.box([-0.5, -1.0, -1.0], [0.5, 1.0, 1.0]), 0.5, 8, 4, 4),
        ],
        ids=["disk", "off-centre-disk", "square", "rectangle", "interval-odd", "interval-even",
             "ball3", "one-node-wide", "one-node-wide-centred", "one-node-wide-3d"],
    )
    def test_reflection_group_orders(self, monkeypatch, spec, h, order, reflections, sectors):
        grid = bl.build_grid(spec, h)
        sym = bl.LatticeSymmetry(grid)
        assert (sym.order, len(sym.reflections.maps)) == (order, reflections)
        if sectors is not None:
            # the free Laplacian takes one SVD per character of the
            # colour-keeping reflections
            svd, calls = np.linalg.svd, []
            monkeypatch.setattr(np.linalg, "svd", lambda a: calls.append(a.shape) or svd(a))
            bl.eigendecompose(bl.assemble_laplacian(grid))
            assert len(calls) == sectors
