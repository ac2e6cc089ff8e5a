"""Discrete Laplacian assembly, eigendata, quadratic forms, and the cache format."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import besovlab as bl

from conftest import (draw_grid, draw_lattice, eigenfunction, interval_stage, lp_norm,
                      random_function)


def interval_eigenvalues(length: float, h: float) -> np.ndarray:
    """Closed form for the Dirichlet chain on (0, length) with spacing h."""
    m = int(round(length / h)) - 1
    k = np.arange(1, m + 1)
    return (4.0 / h**2) * np.sin(k * np.pi * h / (2.0 * length)) ** 2


class TestAssembly:
    def test_single_node_matrix(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.5)
        op = bl.assemble_laplacian(g)
        np.testing.assert_array_equal(op.matrix.toarray(), [[8.0]])

    def test_interval_matrix_structure(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        a = bl.assemble_laplacian(g).matrix.toarray()
        expected = 16.0 * np.array([
            [2.0, -1.0, 0.0],
            [-1.0, 2.0, -1.0],
            [0.0, -1.0, 2.0],
        ])
        np.testing.assert_array_equal(a, expected)

    def test_symmetry(self):
        g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 0.25)
        a = bl.assemble_laplacian(g).matrix
        assert (a != a.T).nnz == 0

    def test_row_structure_interior_vs_boundary(self):
        # Every diagonal entry is 2n/h^2 regardless of truncation; off-diagonal
        # count equals the number of interior neighbors.
        g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 0.25)
        a = bl.assemble_laplacian(g).matrix.toarray()
        np.testing.assert_allclose(np.diag(a), 4.0 / 0.0625)
        offdiag = a - np.diag(np.diag(a))
        assert set(np.unique(offdiag)) == {-16.0, 0.0}

    def test_schrodinger_adds_diagonal(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        v = bl.GridFunction(g, np.array([1.0, -2.0, 3.0]))
        a0 = bl.assemble_laplacian(g).matrix.toarray()
        av = bl.assemble_schrodinger(g, v).matrix.toarray()
        np.testing.assert_array_equal(av, a0 + np.diag(v.values))

    @pytest.mark.parametrize(
        "spec,h",
        [
            (bl.interval(0.0, 1.0), 1 / 16),
            (bl.ball([0.0, 0.0], 1.0), 1 / 8),
            (bl.ball([0.0, 0.0, 0.0], 1.0), 1 / 4),
            (bl.box([0.0, 0.0], [1.0, 2.0]), 1 / 6),
        ],
        ids=["interval", "disk", "ball3", "box"],
    )
    def test_csr_equals_scipy_sum_bitwise(self, spec, h):
        # the scipy path the numpy assembly replaces: coo -> csr, then the
        # sparse sum with diags(V), which drops a diagonal that cancels
        import scipy.sparse as sp

        g = bl.build_grid(spec, h)
        N = g.num_nodes
        lap = bl.assemble_laplacian(g)
        data, indices, indptr = lap.csr
        rows = np.repeat(np.arange(N), np.diff(indptr))
        oracle = sp.coo_matrix((data, (rows, indices)), shape=(N, N)).tocsr()
        v = np.random.default_rng(N).standard_normal(N)
        v[::3] = 0.0
        v[1::5] = -2.0 * g.n / h**2
        for op, mat in ((lap, oracle), (bl.assemble_schrodinger(g, v), oracle + sp.diags(v))):
            mat = mat.tocsr()
            assert mat.has_sorted_indices
            for ours, theirs in zip(op.csr, (mat.data, mat.indices, mat.indptr)):
                assert ours.tobytes() == theirs.astype(ours.dtype).tobytes()
            assert bl.operators._dense(op).tobytes() == mat.toarray().tobytes()
        assert op.csr[0].size == lap.csr[0].size - v[1::5].size

    def test_schrodinger_from_sampled_callable(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        v = bl.GridFunction.from_callable(g, lambda x: x[:, 0])
        op = bl.assemble_schrodinger(g, v)
        np.testing.assert_allclose(op.potential, [0.25, 0.5, 0.75])

    def test_constant_potential_shifts_spectrum_exactly(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        op0 = bl.eigendecompose(bl.assemble_laplacian(g))
        opc = bl.eigendecompose(bl.assemble_schrodinger(g, np.full(g.num_nodes, 5.5)))
        # Same matrix plus an exact diagonal shift; two eigh calls agree to
        # machine precision relative to the matrix scale.
        np.testing.assert_allclose(opc.eigvals, op0.eigvals + 5.5, atol=1e-11)

    def test_complex_potential_rejected(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        with pytest.raises(bl.ComplexPotential):
            bl.assemble_schrodinger(g, bl.GridFunction(g, np.array([1j, 0, 0])))

    def test_potential_grid_mismatch(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        g2 = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        with pytest.raises(bl.GridMismatch):
            bl.assemble_schrodinger(g, bl.GridFunction(g2, np.ones(7)))


class TestEigendata:
    def test_interval_closed_form(self):
        for denom in (8, 32):
            st = interval_stage(denom)
            np.testing.assert_allclose(
                st.op.eigvals, interval_eigenvalues(1.0, 1.0 / denom), rtol=1e-10
            )

    def test_rectangle_closed_form(self):
        # Separable: 2D eigenvalues are sums of the per-axis chain eigenvalues.
        g = bl.build_grid(bl.box([0.0, 0.0], [1.0, 2.0]), 0.25)
        op = bl.eigendecompose(bl.assemble_laplacian(g))
        lx = interval_eigenvalues(1.0, 0.25)
        ly = interval_eigenvalues(2.0, 0.25)
        expected = np.sort((lx[:, None] + ly[None, :]).ravel())
        np.testing.assert_allclose(op.eigvals, expected, rtol=1e-10)

    def test_eigenvectors_orthonormal(self):
        st = interval_stage(16)
        gram = st.op.eigvecs.T @ st.op.eigvecs
        np.testing.assert_allclose(gram, np.eye(st.grid.num_nodes), atol=1e-12)

    def test_gershgorin_encloses_spectrum(self):
        st = interval_stage(32)
        lo, hi = st.op.gershgorin_bounds()
        assert lo <= st.op.eigvals[0]
        assert hi >= st.op.eigvals[-1]

    def test_sign_gauge_deterministic(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        op1 = bl.eigendecompose(bl.assemble_laplacian(g))
        op2 = bl.eigendecompose(bl.assemble_laplacian(g))
        np.testing.assert_array_equal(op1.eigvecs, op2.eigvecs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sign_anchors_equal_argmax(self, data):
        # N < 128, N a multiple of 128 and N not a multiple; column 0 is
        # zero, column 1 has equal magnitudes of opposite sign on both
        # sides of a 128-row boundary (when N has one), column 2 anywhere
        block = bl.operators._ANCHOR_BLOCK
        rows = data.draw(st.one_of(st.integers(1, block - 1), st.sampled_from([block, 2 * block]),
                                   st.integers(block + 1, 3 * block + 7)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        vecs = rng.standard_normal((rows, 4))
        vecs[:, 0] = 0.0
        top = np.abs(vecs).max() + 1.0
        for col in (1, 2):
            if col == 1 and rows > block:
                pair = [data.draw(st.integers(0, block - 1)),
                        data.draw(st.integers(block, rows - 1))]
            else:
                pair = data.draw(st.lists(st.integers(0, rows - 1), min_size=min(rows, 2),
                                          max_size=2, unique=True))
            sign = data.draw(st.sampled_from([1.0, -1.0]))
            vecs[pair[0], col] = sign * top
            vecs[pair[-1], col] = -sign * top
        expected = np.argmax(np.abs(vecs), axis=0)
        np.testing.assert_array_equal(bl.operators._sign_anchors(vecs), expected)
        assert expected[0] == 0

    def test_dense_cap(self):
        st = interval_stage(8)
        with pytest.raises(bl.DenseCapExceeded):
            bl.eigendecompose(bl.assemble_laplacian(st.grid), dense_cap=3)

    def test_missing_eigendata(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        op = bl.assemble_laplacian(g)
        with pytest.raises(bl.MissingEigendata):
            op.require_eigendata()
        with pytest.raises(bl.MissingEigendata):
            _ = op.lam_pos_min

    def test_lam0_nonnegative_spectrum(self):
        st = interval_stage(16)
        assert st.op.lam0 == 0.0

    def test_lam0_negative_spectrum(self):
        # A strongly negative well pushes the bottom eigenvalue below zero.
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        op = bl.eigendecompose(bl.assemble_schrodinger(g, np.full(g.num_nodes, -500.0)))
        assert op.lam_min < 0.0
        np.testing.assert_allclose(op.lam0, np.sqrt(-op.lam_min), rtol=1e-14)


class TestFreeLaplacianSolve:
    """The sector route of eigendecompose for free Laplacians in 2-3 dimensions."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_eigh_on_random_lattices(self, data):
        # boxes, balls and intervals, centred or not: trivial, partial and
        # full reflection groups, and flips that swap the parity
        grid, _ = draw_grid(data, 8, 400)
        op = bl.eigendecompose(bl.assemble_laplacian(grid))
        lam, U = op.eigvals, op.eigvecs
        A = op.matrix.toarray()
        ref_lam, ref_U = np.linalg.eigh(A)
        N, eps, c, norm = grid.num_nodes, np.finfo(float).eps, A[0, 0], ref_lam[-1]
        assert np.all(np.diff(lam) >= 0.0)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(A), rtol=0.0, atol=1e-13 * norm)
        # LAPACK's SVD is backward stable: each sector's computed factors are
        # exact for a block C + E with ||E|| <= p eps ||C|| and orthonormal to
        # p eps, p a modest function of the block order that the Householder
        # analysis bounds by a multiple of it (LAPACK Users' Guide, sec. 4.9).
        # With p <= N and ||C|| <= ||A||, each column of A U - U Lambda and of
        # U^T U - I is at most 2 N eps ||A|| (resp. 2 N eps), the factor 2
        # holding the rounding of c -/+ s and of the scatter into U; over N
        # columns the Frobenius norms are at most sqrt(N) times that.
        bound = 2.0 * N**1.5 * eps
        assert np.linalg.norm(A @ U - U * lam) <= bound * norm
        assert np.linalg.norm(U.T @ U - np.eye(N)) <= bound
        # the bipartite lattice's spectrum is symmetric about c
        assert np.abs(lam + lam[::-1] - 2.0 * c).max() <= N * eps * c
        t = data.draw(st.floats(1.0, 16.0)) / norm
        heat = (U * np.exp(-t * lam)) @ U.T
        np.testing.assert_allclose(heat, (ref_U * np.exp(-t * ref_lam)) @ ref_U.T,
                                   rtol=0.0, atol=1e-12)

    @staticmethod
    def _spy(monkeypatch) -> list:
        """Record (name, shape) of each np.linalg.eigh and svd call."""
        calls = []
        for name in ("eigh", "svd"):
            def spy(a, *args, _orig=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, a.shape))
                return _orig(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    def test_free_operator_takes_one_svd_per_sector(self, monkeypatch):
        grid = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 1 / 16)
        N, order = grid.num_nodes, len(bl.LatticeSymmetry(grid).reflections.maps)
        assert order == 4
        calls = self._spy(monkeypatch)
        bl.eigendecompose(bl.assemble_laplacian(grid))
        assert [name for name, _ in calls] == ["svd"] * order
        assert all(shape[0] <= math.ceil(N / order) for _, shape in calls)

    @pytest.mark.parametrize(
        "spec, h, expr",
        [
            (bl.ball([0.0, 0.0], 1.0), 1 / 16, "0.25/r^2"),
            (bl.ball([0.0, 0.0], 1.0), 1 / 16, "-6"),
            (bl.interval(0.0, 1.0), 1 / 64, None),
            (bl.interval(0.0, 1.0), 1 / 64, "0"),
        ],
        ids=["disk-inverse-square", "disk-constant", "free-chain", "zero-chain"],
    )
    def test_eigh_route_is_unchanged_bit_for_bit(self, monkeypatch, spec, h, expr):
        # a potential that moves the diagonal, and every chain, keep the
        # route before the sector solve: eigh of the dense matrix, then the
        # largest-magnitude entry of each column made positive
        grid = bl.build_grid(spec, h)
        if expr is None:
            op = bl.assemble_laplacian(grid)
        else:
            op = bl.assemble_schrodinger(grid, bl.potential_from_expression(grid, expr)[0])
        lam, U = np.linalg.eigh(op.matrix.toarray())
        U *= np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(grid.num_nodes)])
        calls = self._spy(monkeypatch)
        bl.eigendecompose(op)
        assert calls == [("eigh", (grid.num_nodes, grid.num_nodes))]
        assert op.eigvals.tobytes() == lam.tobytes()
        assert op.eigvecs.tobytes() == U.tobytes()

    @pytest.mark.parametrize("expr", ["0", "1e-300"], ids=["zero", "below-half-ulp"])
    def test_route_follows_the_matrix_not_the_potential(self, tmp_path, monkeypatch, expr):
        # a potential that leaves every diagonal entry unchanged gives the
        # free Laplacian's matrix and cache key, so it takes the sector
        # route: its eigendata are the same without a cache, on a cold one,
        # and read from the entry an operator without a potential wrote
        grid = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 1 / 8)
        vals = bl.potential_from_expression(grid, expr)[0]

        def zero_op():
            return bl.assemble_schrodinger(grid, vals)

        free = bl.assemble_laplacian(grid)
        assert bl.operators._cache_key("eig", zero_op()) == bl.operators._cache_key("eig", free)
        calls = self._spy(monkeypatch)
        plain = bl.eigendecompose(zero_op())
        assert {name for name, _ in calls} == {"svd"}
        cold = bl.operators.cached_eigendecompose(zero_op(), cache_dir=tmp_path / "cold")
        bl.operators.cached_eigendecompose(free, cache_dir=tmp_path / "shared")
        shared = bl.operators.cached_eigendecompose(zero_op(), cache_dir=tmp_path / "shared")
        for op in (cold, shared, free):
            assert op.eigvals.tobytes() == plain.eigvals.tobytes()
            assert np.asarray(op.eigvecs).tobytes() == plain.eigvecs.tobytes()

    def test_translated_grids_keep_apart_in_the_cache(self):
        # a box moved by one lattice step has the same matrix, but another
        # checkerboard colouring, so its sector solve differs
        h = 1 / 8
        grids = [bl.build_grid(bl.box([a, 0.0], [a + 1.0, 1.0]), h) for a in (0.0, h)]
        ops = [bl.assemble_laplacian(g) for g in grids]
        assert all(np.array_equal(x, y) for x, y in zip(ops[0].csr, ops[1].csr))
        assert bl.operators._cache_key("eig", ops[0]) != bl.operators._cache_key("eig", ops[1])


class TestLaplacianBounds:
    """Extremes of the free Laplacian without its eigendecomposition."""

    @pytest.mark.parametrize(
        "spec, h",
        [
            (bl.interval(0.0, 1.0), 1 / 64),
            (bl.interval(0.0, 1.0), 1 / 65),  # ones is orthogonal to the top mode
            (bl.box([0.0, 0.0], [1.0, 1.0]), 1 / 16),
            (bl.ball([0.0, 0.0], 1.0), 1 / 16),
            (bl.ball([0.0, 0.0, 0.0], 1.0), 1 / 6),
            # under 16 nodes
            (bl.box([0.0, 0.0], [1.0, 1.0]), 1 / 2),
            (bl.box([0.0, 0.0], [1.0, 1.0]), 1 / 3),
            (bl.ball([0.0, 0.0], 1.0), 0.9),
            (bl.box([0.0, 0.0], [1.0, 0.3]), 1 / 4),
        ],
    )
    def test_window_equals_dense_window(self, spec, h):
        op = bl.assemble_laplacian(bl.build_grid(spec, h))
        lo, hi = bl.laplacian_bounds(op)
        assert not op.has_eigendata
        vals = np.linalg.eigh(op.matrix.toarray())[0]
        np.testing.assert_allclose([lo, hi], [vals[0], vals[-1]], rtol=1e-10)
        est, dense = bl.build_system(lo, hi), bl.build_system(vals[0], vals[-1])
        assert (est.j_min, est.j_max) == (dense.j_min, dense.j_max)

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_estimate_near_power_of_4_takes_dense_path(self, monkeypatch, side):
        # on the square at h = 1/24, 4n/h^2 = 4608 puts lam_max = 4096 = 4^6 within reach
        op = bl.assemble_laplacian(bl.build_grid(bl.box([0.0, 0.0], [1.0, 1.0]), 1 / 24))
        if side == "lo":
            fake = 4.0**2 * (1.0 + 1e-12)
        else:
            fake = 8.0 / op.grid.h**2 - 4.0**6 * (1.0 + 1e-12)
        s = 4.0 / op.grid.h**2 - fake  # the singular value that puts lam_min at fake
        monkeypatch.setattr(bl.operators, "_sector_blocks",
                            lambda op: iter([(np.array([[s]]), None)]))
        vals = np.linalg.eigvalsh(op.matrix.toarray())
        assert bl.laplacian_bounds(op) == (vals[0], vals[-1])

    @pytest.mark.parametrize("N", [16, 17, 255, 511, 550, 600, 1000, 1023])
    def test_chains_skip_lanczos(self, monkeypatch, tmp_path, N):
        # chains take eigvalsh, since c - s would lose about eps c / lam_min
        # of lam_min, so they build no sector block: A_0's bounds under a
        # potential and the closed-form window
        # (4/h^2) sin^2(pi/(2(N+1))), (4/h^2) cos^2(pi/(2(N+1)))
        def blocks(op):
            raise AssertionError("a chain built a sector block")

        monkeypatch.setattr(bl.operators, "_sector_blocks", blocks)
        h = 1.0 / (N + 1)
        stage = bl.build_stage(bl.interval(0.0, 1.0), h, potential="4*x", cache_dir=tmp_path)
        assert stage.grid.num_nodes == N
        lo, hi = bl.laplacian_bounds(bl.assemble_laplacian(stage.grid))
        x = math.pi / (2 * (N + 1))
        exact = bl.build_system(4 / h**2 * math.sin(x) ** 2, 4 / h**2 * math.cos(x) ** 2)
        est = bl.build_system(lo, hi)
        assert (est.j_min, est.j_max) == (exact.j_min, exact.j_max)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_bounds_match_dense_on_random_lattices(self, data):
        grid = bl.build_grid(*draw_lattice(data, 30, 1300))
        assume(grid.num_nodes <= 1500)
        op = bl.assemble_laplacian(grid)
        lo, hi = bl.laplacian_bounds(op)
        vals = np.linalg.eigvalsh(op.matrix.toarray())
        np.testing.assert_allclose([lo, hi], [vals[0], vals[-1]], rtol=1e-10)
        est, dense = bl.build_system(lo, hi), bl.build_system(vals[0], vals[-1])
        assert (est.j_min, est.j_max) == (dense.j_min, dense.j_max)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_trivial_sector_holds_the_largest_singular_value(self, data):
        # Perron-Frobenius: the spectral radius of the adjacency has a
        # nonnegative eigenvector, whose group average lies in the trivial
        # sector, the first block _sector_blocks yields
        grid, _ = draw_grid(data, 8, 400)
        assume(grid.n > 1)
        op = bl.assemble_laplacian(grid)
        tops = [np.linalg.svd(block, compute_uv=False).max(initial=0.0)
                for block, _ in bl.operators._sector_blocks(op)]
        c = 2.0 * grid.n / grid.h**2
        assert abs(tops[0] - max(tops)) <= 4 * np.finfo(float).eps * c

    def test_eigendata_read_and_potential_rejected(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 1 / 8)
        op = bl.eigendecompose(bl.assemble_laplacian(g))
        assert bl.laplacian_bounds(op) == (op.lam_min, op.lam_max)
        with pytest.raises(ValueError):
            bl.laplacian_bounds(bl.assemble_schrodinger(g, np.ones(g.num_nodes)))


class TestDyadicWeights:
    @staticmethod
    def _fresh(potential=-200.0):
        # a potential pushes part of the spectrum below zero, where phi_j
        # vanishes and psi equals one
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 32)
        op = bl.eigendecompose(bl.assemble_schrodinger(g, np.full(g.num_nodes, potential)))
        return op, bl.build_system(op.lam_pos_min, op.lam_max, op.lam0)

    def test_each_weight_evaluated_once(self, monkeypatch):
        op, sys = self._fresh()
        assert op.eigvals[0] < 0.0
        calls = []
        phi_sqrt, psi = bl.DyadicSystem.phi_sqrt, bl.DyadicSystem.psi

        def count_phi(self, j, mu):
            calls.append(("phi", j))
            return phi_sqrt(self, j, mu)

        def count_psi(self, mu):
            calls.append(("psi", None))
            return psi(self, mu)

        monkeypatch.setattr(bl.DyadicSystem, "phi_sqrt", count_phi)
        monkeypatch.setattr(bl.DyadicSystem, "psi", count_psi)
        f = np.random.default_rng(3).standard_normal((op.num_nodes, 2))
        coeff = bl.spectral_coefficients(op, f)
        for _ in range(2):
            for j in sys.window:
                bl.spectral_synthesis(op, op.dyadic_weights(sys, "phi", j), coeff)
                bl.spectral_synthesis(op, op.dyadic_weights(sys, "fat", j), coeff)
            bl.spectral_synthesis(op, op.dyadic_weights(sys, "psi"), coeff)
            bl.besov_norm(op, sys, f, 0.5, 2.0, 2.0)
            bl.block_lp_norms(op, sys, f, 1.0)
        assert len(calls) == len(set(calls))
        assert set(calls) == {("psi", None)} | {
            ("phi", j) for j in range(sys.j_min - 1, sys.j_max + 2)
        }

    def test_weights_equal_direct_evaluation(self):
        op, sys = self._fresh()
        lam = op.eigvals
        assert np.array_equal(op.dyadic_weights(sys, "psi"), sys.psi(lam))
        for j in sys.window:
            assert np.array_equal(op.dyadic_weights(sys, "phi", j), sys.phi_sqrt(j, lam))
            fat = sys.phi_sqrt(j - 1, lam) + sys.phi_sqrt(j, lam) + sys.phi_sqrt(j + 1, lam)
            assert np.array_equal(op.dyadic_weights(sys, "fat", j), fat)

    def test_keyed_by_system(self):
        op, sys = self._fresh()
        other = bl.build_system(op.lam_pos_min, op.lam_max, op.lam0, profile="squared")
        j = sys.j_max - 1
        assert not np.array_equal(
            op.dyadic_weights(sys, "phi", j), op.dyadic_weights(other, "phi", j)
        )
        assert np.array_equal(op.dyadic_weights(other, "phi", j), other.phi_sqrt(j, op.eigvals))

    def test_eigvals_and_weights_read_only(self, tmp_path):
        op, sys = self._fresh()
        with pytest.raises(ValueError):
            op.eigvals[0] = 0.0
        with pytest.raises(ValueError):
            op.dyadic_weights(sys, "psi")[0] = 0.0
        path = tmp_path / "op.bin"
        bl.save_operator(op, path)
        assert not bl.load_operator(path, undecomposed(op)).eigvals.flags.writeable

    def test_rejects_unknown_kind_and_missing_eigendata(self):
        op, sys = self._fresh()
        with pytest.raises(ValueError):
            op.dyadic_weights(sys, "chi", 0)
        with pytest.raises(bl.MissingEigendata):
            bl.assemble_laplacian(op.grid).dyadic_weights(sys, "psi")


def quadratic_form(op, f) -> float:
    """(f, A f) in the h^n-weighted inner product."""
    v = f.values
    return float(np.real(np.vdot(v, op.matrix @ v)) * op.grid.cell_measure)


def dirichlet_energy(grid, f) -> float:
    """h^n sum over lattice edges of |df|^2 / h^2, with zero exterior values.

    Every lattice edge with at least one interior endpoint counts once; for
    truncated edges the exterior value is 0.  By summation by parts this
    equals (f, A_0 f) for the stencil Laplacian, an identity that pins the
    assembly down independently of it.
    """
    v = f.values
    shape = np.asarray(grid.shape)
    total = 0.0
    for d in range(grid.n):
        step = np.zeros(grid.n, dtype=np.int64)
        step[d] = 1
        for sgn in (+1, -1):
            nb = grid.multi_indices + sgn * step
            ok = (nb[:, d] >= 0) & (nb[:, d] < shape[d])
            target = np.full(grid.num_nodes, -1, dtype=np.int64)
            target[ok] = grid.flat_of_cell[tuple(nb[ok].T)]
            interior_nb = target >= 0
            if sgn == +1:
                # interior-interior edges counted on the +1 sweep only
                diff = v[interior_nb] - v[target[interior_nb]]
                total += float(np.sum(np.abs(diff) ** 2))
            # truncated edges: neighbor cell is exterior (or off the box)
            cut = ~interior_nb
            total += float(np.sum(np.abs(v[cut]) ** 2))
    return total * grid.cell_measure / grid.h**2


class TestForms:
    def test_quadratic_form_equals_dirichlet_energy(self):
        for denom in (8, 16):
            st = interval_stage(denom)
            f = random_function(st.grid, seed=denom)
            np.testing.assert_allclose(
                quadratic_form(st.op, f),
                dirichlet_energy(st.grid, f),
                rtol=1e-12,
            )

    def test_quadratic_form_with_potential(self):
        g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 0.25)
        vvals = np.linspace(-1.0, 2.0, g.num_nodes)
        op = bl.assemble_schrodinger(g, bl.GridFunction(g, vvals))
        f = random_function(g, seed=3)
        expected = dirichlet_energy(g, f) + g.cell_measure * np.sum(vvals * f.values**2)
        np.testing.assert_allclose(quadratic_form(op, f), expected, rtol=1e-12)

    def test_dirichlet_energy_linear_ramp(self):
        # f(x) = x on the 1D grid: every lattice edge sees slope 1, and the two
        # boundary edges contribute through the zero extension.
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        f = bl.GridFunction(g, g.coordinates[:, 0])
        # Interior edges: 6 of slope 1; left edge slope 1; right edge slope 7.
        h = 0.125
        expected = h * (6 * 1.0 + 1.0 + (0.875 / h) ** 2)
        np.testing.assert_allclose(dirichlet_energy(g, f), expected, rtol=1e-12)

    def test_energy_positive_definite(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=9)
        assert dirichlet_energy(st.grid, f) > 0.0


class TestSingleEigenvector:
    def test_normalized_in_l2(self):
        st = interval_stage(16)
        for k in (0, 3, 7):
            u = eigenfunction(st.op, k)
            np.testing.assert_allclose(lp_norm(u, 2.0), 1.0, rtol=1e-13)

    def test_is_eigenvector(self):
        st = interval_stage(16)
        u = eigenfunction(st.op, 2)
        av = st.op.matrix @ u.values
        np.testing.assert_allclose(av, st.op.eigvals[2] * u.values, atol=1e-9)


def undecomposed(op):
    """The matrix of ``op`` in an operator without eigendata, to load into."""
    return bl.SpectralOperator(grid=op.grid, csr=op.csr, potential=op.potential)


class TestSaveLoad:
    """Cache entries.  An eigendata entry of the interval h = 1/8 Laplacian
    (N = 7) holds the magic (bytes 0-8), the format version (8-12), the
    key (12-44), the value count (44-52), the eigenvalues (52-108), four
    zero bytes and the eigenvectors (112-504); a bounds entry holds the
    same header and the two bounds (52-68)."""

    @staticmethod
    def _saved(tmp_path):
        op = bl.eigendecompose(bl.assemble_laplacian(bl.build_grid(bl.interval(0.0, 1.0), 0.125)))
        path = tmp_path / "op.bin"
        bl.save_operator(op, path)
        return op, path

    @staticmethod
    def _saved_bounds(tmp_path):
        op = bl.assemble_laplacian(bl.build_grid(bl.interval(0.0, 1.0), 0.125))
        bounds = bl.laplacian_bounds(op)
        path = tmp_path / "bounds.bin"
        bl.operators._save_bounds(bounds, path, op)
        return op, bounds, path

    def test_roundtrip_bitwise(self, tmp_path):
        g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 0.25)
        vvals = np.linspace(0.0, 1.0, g.num_nodes)
        op = bl.eigendecompose(bl.assemble_schrodinger(g, bl.GridFunction(g, vvals)))
        path = tmp_path / "op.bin"
        bl.save_operator(op, path)
        target = undecomposed(op)
        back = bl.load_operator(path, target)
        assert back is target
        np.testing.assert_array_equal(back.eigvals, op.eigvals)
        np.testing.assert_array_equal(back.eigvecs, op.eigvecs)

    def test_roundtrip_without_optional_blocks(self, tmp_path):
        # a bounds entry is the header and the value block, with no eigenvectors
        op, bounds, path = self._saved_bounds(tmp_path)
        raw = path.read_bytes()
        assert len(raw) == 68 and raw[52:] == struct.pack("<dd", *bounds)
        assert bl.operators._load_bounds(path, op) == bounds

    def test_header_layout(self, tmp_path):
        # magic, version, key and value count sit at fixed little-endian
        # offsets so other tooling can sniff the file
        op, path = self._saved(tmp_path)
        raw = path.read_bytes()
        assert raw[:8] == b"BESOVOP1"
        version, key, count = struct.unpack_from("<I32sQ", raw, 8)
        assert (version, count) == (5, 7)
        assert key == bl.operators._cache_key("eig", op)

    def test_truncated_file_rejected(self, tmp_path):
        op, path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(bl.SolverFailure):
            bl.load_operator(path, undecomposed(op))

    @pytest.mark.parametrize("num_nodes", [2**40, 2**62])
    def test_header_claiming_more_than_the_file_rejected(self, tmp_path, num_nodes):
        # a damaged value count must read as a truncated file, not as an
        # attempt to allocate the array it claims
        op, path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 44, num_nodes)
        path.write_bytes(raw)
        with pytest.raises(bl.SolverFailure, match="truncated"):
            bl.load_operator(path, undecomposed(op))

    def test_eigenvector_block_is_padded_to_eight_bytes(self, tmp_path):
        op, path = self._saved(tmp_path)
        raw = path.read_bytes()
        assert len(raw) == 112 + 8 * 49
        assert struct.unpack_from("<d", raw, 100) == (op.eigvals[-1],)
        assert raw[108:112] == bytes(4)
        assert raw[112:] == op.eigvecs.astype("<f8").tobytes()

    def test_loaded_eigenvectors_are_mapped_read_only(self, tmp_path):
        g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 0.25)
        op = bl.eigendecompose(bl.assemble_schrodinger(g, np.linspace(0.0, 1.0, g.num_nodes)))
        path = tmp_path / "op.bin"
        bl.save_operator(op, path)
        back = bl.load_operator(path, undecomposed(op))
        assert isinstance(back.eigvecs, np.memmap) and back.eigvecs.flags.aligned
        assert back.eigvecs.tobytes() == op.eigvecs.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            back.eigvecs[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            back.eigvecs *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            back.eigvals[0] = 1.0
        # a save renames a new file into place; the mapped one is unchanged
        other = bl.eigendecompose(bl.assemble_laplacian(g))
        bl.save_operator(other, path)
        assert back.eigvecs.tobytes() == op.eigvecs.tobytes()

    @pytest.mark.parametrize("cut", [1, 8, 8 * 49 - 1])
    def test_truncated_eigenvector_block_rejected(self, tmp_path, cut):
        op, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(bl.SolverFailure, match="truncated"):
            bl.load_operator(path, undecomposed(op))

    def test_loaded_csr_builds_no_matrix_until_read(self, tmp_path):
        # the key is taken from the CSR arrays, so a load builds no scipy matrix
        g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 0.25)
        op = bl.eigendecompose(bl.assemble_schrodinger(g, np.linspace(-1.0, 1.0, g.num_nodes)))
        path = tmp_path / "op.bin"
        bl.save_operator(op, path)
        back = bl.load_operator(path, undecomposed(op))
        assert back.has_eigendata and back._matrix is None
        assert (back.matrix != op.matrix).nnz == 0

    @pytest.mark.parametrize(
        "kind,offset,fmt,value",
        [
            ("eig", 8, "<I", 3),
            ("eig", 8, "<I", 4),
            ("eig", 8, "<I", 6),
            ("eig", 52, "<d", float("nan")),
            ("eig", 52, "<d", 1e9),
            ("bounds", 52, "<d", float("nan")),
            ("bounds", 52, "<d", -1.0),
            ("bounds", 60, "<d", float("inf")),
            ("bounds", 60, "<d", 1.0),
        ],
        ids=[
            "version-3", "version-4", "version-6",
            "eigval-nan", "eigvals-descending",
            "bounds-nan", "bounds-negative", "bounds-inf", "bounds-reversed",
        ],
    )
    def test_damaged_blocks_rejected(self, tmp_path, kind, offset, fmt, value):
        if kind == "eig":
            op, path = self._saved(tmp_path)
            load = lambda: bl.load_operator(path, undecomposed(op))  # noqa: E731
        else:
            op, _, path = self._saved_bounds(tmp_path)
            load = lambda: bl.operators._load_bounds(path, op)  # noqa: E731
        load()
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(raw)
        with pytest.raises(bl.SolverFailure):
            load()

    def test_entry_of_format_4_is_never_read(self, tmp_path, monkeypatch, eigensolves):
        # format 4 held the eigh basis of a free Laplacian; a format 5 run
        # must solve again rather than mix that basis with its own
        grid = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 1 / 8)
        old = bl.assemble_laplacian(grid)
        old.eigvals, old.eigvecs = np.linalg.eigh(old.matrix.toarray())
        with monkeypatch.context() as mp:
            mp.setattr(bl.operators, "_FORMAT_VERSION", 4)
            stale = tmp_path / f"eig-{bl.operators._cache_key('eig', old).hex()[:16]}.bin"
            bl.save_operator(old, stale)
        op = bl.operators.cached_eigendecompose(bl.assemble_laplacian(grid), cache_dir=tmp_path)
        assert eigensolves == [True]
        fresh = bl.eigendecompose(bl.assemble_laplacian(grid))
        assert op.eigvecs.tobytes() == fresh.eigvecs.tobytes()
        assert op.eigvecs.tobytes() != old.eigvecs.tobytes()
        assert len(list(tmp_path.iterdir())) == 2

    def test_entry_for_another_matrix_rejected(self, tmp_path):
        op, path = self._saved(tmp_path)
        shifted = bl.assemble_schrodinger(op.grid, np.ones(op.num_nodes))  # same N
        finer = bl.assemble_laplacian(bl.build_grid(bl.interval(0.0, 1.0), 1 / 16))
        for other in (shifted, finer):
            with pytest.raises(bl.SolverFailure, match="another matrix"):
                bl.load_operator(path, other)
            assert not other.has_eigendata
        # the key also tells an eigendata entry from a bounds entry
        with pytest.raises(bl.SolverFailure, match="another matrix"):
            bl.operators._load_bounds(path, undecomposed(op))

    def test_truncated_header_rejected(self, tmp_path):
        op, path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(bl.SolverFailure, match="truncated"):
            bl.load_operator(path, undecomposed(op))

    def test_failed_save_keeps_previous_file(self, tmp_path):
        op, path = self._saved(tmp_path)
        before = path.read_bytes()
        op.eigvecs = np.full(op.eigvecs.shape, "x")  # fails after the eigenvalues are written
        with pytest.raises(ValueError):
            bl.save_operator(op, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["op.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        op, path = self._saved(tmp_path)
        path.write_bytes(b"NOTANOP!" + path.read_bytes()[8:])
        with pytest.raises(bl.SolverFailure, match="bad magic"):
            bl.load_operator(path, undecomposed(op))
