"""Functional calculus: dense and Chebyshev routes, kernels, operator norms."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import besovlab as bl
from besovlab import calculus

from conftest import (
    diagonal_operator,
    draw_lattice,
    eigenfunction,
    interval_stage,
    lp_norm,
    random_function,
)


def heat(op, t, f, path="dense"):
    """e^(-tA) f, through apply_symbol."""
    return bl.apply_symbol(op, lambda lam: np.exp(-t * lam), f, path=path)


class TestDenseApply:
    def test_identity_symbol_is_matvec(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=1)
        out = bl.apply_symbol(st.op, lambda lam: lam, f)
        np.testing.assert_allclose(out.values, st.op.matrix @ f.values, rtol=1e-11)

    def test_polynomial_symbol(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=2)
        out = bl.apply_symbol(st.op, lambda lam: lam**2 - 3.0 * lam + 1.0, f)
        a = st.op.matrix
        expected = a @ (a @ f.values) - 3.0 * (a @ f.values) + f.values
        np.testing.assert_allclose(out.values, expected, rtol=1e-9)

    def test_constant_symbol_is_identity_scaling(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=3)
        out = bl.apply_symbol(st.op, lambda lam: np.full_like(lam, 2.5), f)
        np.testing.assert_allclose(out.values, 2.5 * f.values, rtol=1e-12)

    def test_batched_columns(self):
        st = interval_stage(16)
        rng = np.random.default_rng(4)
        block = rng.standard_normal((st.grid.num_nodes, 5))
        out = bl.apply_symbol(st.op, np.sqrt, block)
        for k in range(5):
            single = bl.apply_symbol(st.op, np.sqrt, block[:, k])
            np.testing.assert_allclose(out[:, k], single, rtol=1e-12)

    def test_grid_mismatch(self):
        st = interval_stage(16)
        other = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        with pytest.raises(bl.GridMismatch):
            bl.apply_symbol(st.op, np.sqrt, bl.GridFunction(other, np.ones(7)))

    def test_unknown_path(self):
        st = interval_stage(16)
        f = random_function(st.grid)
        with pytest.raises(ValueError):
            bl.apply_symbol(st.op, np.sqrt, f, path="lanczos")


class TestHeat:
    def test_matches_expm(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=5)
        dense = st.op.matrix.toarray()
        for t in (1e-3, 0.05, 1.0):
            expected = scipy.linalg.expm(-t * dense) @ f.values
            got = heat(st.op, t, f)
            np.testing.assert_allclose(got.values, expected, rtol=1e-10, atol=1e-13)

    def test_semigroup_property(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=6)
        one = heat(st.op, 0.3, heat(st.op, 0.2, f))
        two = heat(st.op, 0.5, f)
        np.testing.assert_allclose(one.values, two.values, rtol=1e-11, atol=1e-15)

    def test_time_zero_is_identity(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=7)
        np.testing.assert_allclose(heat(st.op, 0.0, f).values, f.values, rtol=1e-12)

    def test_negative_time_rejected(self):
        st = interval_stage(16)
        with pytest.raises(ValueError):
            bl.heat_kernel(st.op, -0.1)

    def test_single_node_kernel_closed_form(self):
        # One interior node at h=1/2: A = [[8]], kernel = exp(-8t)/h.
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.5)
        op = bl.eigendecompose(bl.assemble_laplacian(g))
        for t in (0.1, 0.3):
            K = bl.heat_kernel(op, t)
            np.testing.assert_allclose(K, [[2.0 * math.exp(-8.0 * t)]], rtol=1e-14)

    def test_positivity_and_substochastic_without_potential(self):
        st = interval_stage(32)
        for t in (0.001, 0.01, 0.1):
            K = bl.heat_kernel(st.op, t)
            assert K.min() >= -1e-13
            col_mass = st.grid.cell_measure * K.sum(axis=0)
            assert col_mass.max() <= 1.0 + 1e-12

    def test_kernel_symmetry(self):
        st = interval_stage(32)
        K = bl.heat_kernel(st.op, 0.05)
        assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()


class TestKernel:
    @pytest.mark.parametrize("shift", [None, 3000.0])
    def test_matches_full_basis_and_is_symmetric(self, shift):
        # a positive symbol (heat) and a signed one (lam - shift)
        st = interval_stage(32)
        op = st.op
        if shift is None:
            def symbol(lam):
                return np.exp(-0.01 * lam)
        else:
            def symbol(lam):
                return lam - shift
        g = symbol(op.eigvals)
        if shift is not None:
            assert g.min() < 0.0 < g.max()
        K = bl.kernel(bl.OperatorFunction(op, symbol))
        full = (op.eigvecs * g) @ op.eigvecs.T
        bound = op.num_nodes * np.finfo(float).eps * np.abs(g).max()
        assert np.abs(K * op.grid.cell_measure - full).max() <= bound
        assert np.array_equal(K, K.T)
        # the columns alone: K[:, cols] by the unsymmetric product
        cols = np.array([0, 5, 6, 30])
        Kc = bl.kernel(bl.OperatorFunction(op, symbol), cols)
        assert Kc.shape == (op.num_nodes, cols.size)
        assert np.abs(Kc * op.grid.cell_measure - full[:, cols]).max() <= bound

    def test_drops_only_negligible_columns(self):
        # at large t most heat weights fall below eps^2 max|g|; the kernel
        # still equals the full-basis product
        st = interval_stage(32)
        op = st.op
        g = np.exp(-0.5 * (op.eigvals - op.eigvals[0]))
        assert np.count_nonzero(g > np.finfo(float).eps ** 2) < op.num_nodes // 2
        K = bl.heat_kernel(op, 0.5)
        full = (op.eigvecs * np.exp(-0.5 * op.eigvals)) @ op.eigvecs.T
        scale = np.exp(-0.5 * op.eigvals[0])
        bound = op.num_nodes * np.finfo(float).eps * scale
        assert np.abs(K * op.grid.cell_measure - full).max() <= bound
        cols = np.arange(0, op.num_nodes, 3)
        Kc = bl.heat_kernel(op, 0.5, cols)
        assert np.abs(Kc * op.grid.cell_measure - full[:, cols]).max() <= bound

    def test_zero_symbol_gives_zero_kernel(self):
        st = interval_stage(16)
        K = bl.kernel(bl.OperatorFunction(st.op, np.zeros_like))
        assert not K.any()


class TestChebyshevRoute:
    def test_heat_matches_dense(self):
        st = interval_stage(32)
        f = random_function(st.grid, seed=8)
        t = 0.37
        dense = heat(st.op, t, f, path="dense")
        cheb = heat(st.op, t, f, path="cheb")
        scale = np.abs(dense.values).max()
        np.testing.assert_allclose(cheb.values, dense.values, atol=1e-8 * scale)

    def test_dyadic_block_matches_dense(self):
        st = interval_stage(32)
        f = random_function(st.grid, seed=9)
        j = (st.sys.j_min + st.sys.j_max) // 2
        def shell(lam):
            return st.sys.phi_sqrt(j, lam)

        dense = bl.apply_symbol(st.op, shell, f, path="dense")
        cheb = bl.apply_symbol(st.op, shell, f, path="cheb")
        np.testing.assert_allclose(cheb.values, dense.values, atol=1e-8)

    def test_works_without_eigendata(self):
        # The matrix-free route needs only Gershgorin bounds.
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 64)
        op = bl.assemble_laplacian(g)
        assert not op.has_eigendata
        f = random_function(g, seed=10)
        got = heat(op, 0.05, f, path="cheb")
        expected = scipy.linalg.expm(-0.05 * op.matrix.toarray()) @ f.values
        np.testing.assert_allclose(got.values, expected, atol=1e-8)

    def test_tolerance_unmet_for_discontinuous_symbol(self):
        st = interval_stage(16)
        f = random_function(st.grid)
        with pytest.raises(bl.ChebyshevToleranceUnmet):
            bl.apply_symbol(
                st.op, lambda lam: (lam > 50.0).astype(float), f,
                path="cheb", max_degree=64,
            )

    def test_coefficient_count_grows_with_sharpness(self):
        # Sharper Gaussians need higher degree on the same interval.
        degs = []
        for width in (100.0, 10.0, 1.0):
            coeffs, err = bl.chebyshev_coefficients(
                lambda lam: np.exp(-((lam - 500.0) / width) ** 2), 0.0, 1000.0
            )
            assert err <= 1e-9
            degs.append(len(coeffs))
        assert degs[0] < degs[1] < degs[2]


class TestPower:
    def test_integer_power_is_repeated_matvec(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=11)
        a = st.op.matrix
        np.testing.assert_allclose(
            bl.power(st.op, 2.0, f).values, a @ (a @ f.values), rtol=1e-9
        )

    def test_zeroth_power_is_identity(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=12)
        np.testing.assert_allclose(bl.power(st.op, 0.0, f).values, f.values, rtol=1e-12)

    def test_half_power_squares_to_operator(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=13)
        half = bl.power(st.op, 0.5, bl.power(st.op, 0.5, f))
        np.testing.assert_allclose(half.values, st.op.matrix @ f.values, rtol=1e-10)

    def test_negative_power_inverts(self):
        st = interval_stage(16)
        f = random_function(st.grid, seed=14)
        back = bl.power(st.op, -1.0, bl.power(st.op, 1.0, f))
        np.testing.assert_allclose(back.values, f.values, rtol=1e-9)

    def test_negative_spectrum_guard(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        op = bl.eigendecompose(bl.assemble_schrodinger(g, np.full(7, -200.0)))
        assert op.lam_min < 0.0
        ground = eigenfunction(op, 0)
        with pytest.raises(bl.NegativeSpectrumComponent):
            bl.power(op, 0.5, ground)
        projected = bl.power(op, 0.5, ground, positive_part_only=True)
        assert lp_norm(projected, 2.0) <= 1e-10

    def test_integer_power_tolerates_negative_spectrum(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        op = bl.eigendecompose(bl.assemble_schrodinger(g, np.full(7, -200.0)))
        f = random_function(g, seed=15)
        np.testing.assert_allclose(
            bl.power(op, 2.0, f).values, op.matrix @ (op.matrix @ f.values), rtol=1e-9
        )


class TestOpNorm:
    @staticmethod
    def _heat_fun(st, t=0.05):
        return bl.OperatorFunction(st.op, lambda lam: np.exp(-t * lam))

    def test_l1_exact_vs_basis_probe(self):
        st = interval_stage(16)
        fun = self._heat_fun(st)
        res = bl.mixed_opnorm(fun, 1.0, 1.0)
        assert res.exact
        best = 0.0
        for y in range(st.grid.num_nodes):
            e = np.zeros(st.grid.num_nodes)
            e[y] = 1.0
            ef = bl.GridFunction(st.grid, e)
            best = max(best, lp_norm(bl.apply_symbol(st.op, fun.symbol, ef), 1.0) / lp_norm(ef, 1.0))
        np.testing.assert_allclose(res.value, best, rtol=1e-12)

    def test_linf_is_transpose_of_l1(self):
        st = interval_stage(16)
        fun = self._heat_fun(st)
        # self-adjoint kernel: L1 and Linf norms agree
        l1 = bl.mixed_opnorm(fun, 1.0, 1.0).value
        np.testing.assert_allclose(l1, bl.mixed_opnorm(fun, np.inf, np.inf).value, rtol=1e-12)

    def test_l2_is_spectral_sup(self):
        st = interval_stage(16)
        fun = self._heat_fun(st, t=0.02)
        res = bl.mixed_opnorm(fun, 2.0, 2.0)
        assert res.exact
        np.testing.assert_allclose(res.value, np.exp(-0.02 * st.op.eigvals[0]), rtol=1e-13)

    def test_mixed_one_to_p_vs_basis_probe(self):
        st = interval_stage(16)
        fun = self._heat_fun(st)
        for p in (2.0, 3.0, np.inf):
            res = bl.mixed_opnorm(fun, 1.0, p)
            assert res.exact
            best = 0.0
            for y in range(st.grid.num_nodes):
                e = np.zeros(st.grid.num_nodes)
                e[y] = 1.0
                ef = bl.GridFunction(st.grid, e)
                best = max(best, lp_norm(bl.apply_symbol(st.op, fun.symbol, ef), p) / lp_norm(ef, 1.0))
            np.testing.assert_allclose(res.value, best, rtol=1e-12)

    def test_probed_norm_is_lower_bound(self):
        st = interval_stage(16)
        fun = self._heat_fun(st)
        probed = bl.mixed_opnorm(fun, 1.7, 1.7)
        assert not probed.exact
        # Interpolation: for self-adjoint kernels the Lp norm sits below
        # max(L1, Linf) for every p.
        cap = max(bl.mixed_opnorm(fun, p, p).value for p in (1.0, np.inf))
        assert 0.0 < probed.value <= cap * (1 + 1e-12)

    def test_probing_deterministic_in_seed(self):
        st = interval_stage(16)
        fun = self._heat_fun(st)
        a = bl.mixed_opnorm(fun, 3.0, 2.0, seed=42)
        b = bl.mixed_opnorm(fun, 3.0, 2.0, seed=42)
        assert a.value == b.value

    def test_exponent_guard(self):
        st = interval_stage(16)
        with pytest.raises(bl.InvalidExponent):
            bl.mixed_opnorm(self._heat_fun(st), 0.5, 0.5)


def _block(op, sys, kind, coeff, j=None):
    """One dyadic block (kind psi, phi or fat) from the coefficients U^T f."""
    return bl.spectral_synthesis(op, op.dyadic_weights(sys, kind, j), coeff)


class TestBlockFactories:
    """Dyadic blocks as syntheses of memoized weights from one transform."""

    def test_fat_block_absorbs_block(self):
        st = interval_stage(32)
        f = random_function(st.grid, seed=16)
        j = (st.sys.j_min + st.sys.j_max) // 2
        blocked = _block(st.op, st.sys, "phi", bl.spectral_coefficients(st.op, f.values), j)
        fat = _block(st.op, st.sys, "fat", bl.spectral_coefficients(st.op, blocked), j)
        np.testing.assert_allclose(fat, blocked, atol=1e-12)

    def test_psi_block_is_identity_on_low_modes(self):
        # Scale the operator so part of the spectrum sits below 1.
        g = bl.build_grid(bl.interval(0.0, 4.0), 0.125)
        op = bl.eigendecompose(bl.assemble_laplacian(g))
        assert op.eigvals[0] < 1.0
        sys = bl.build_system(op.lam_pos_min, op.lam_max)
        u = eigenfunction(op, 0)
        out = _block(op, sys, "psi", bl.spectral_coefficients(op, u.values))
        np.testing.assert_allclose(out, u.values, rtol=1e-12)

    def test_blocks_resolve_identity(self):
        st = interval_stage(64)
        f = random_function(st.grid, seed=17)
        coeff = bl.spectral_coefficients(st.op, f.values)
        acc = _block(st.op, st.sys, "psi", coeff)
        for j in st.sys.inhom_window:
            acc += _block(st.op, st.sys, "phi", coeff, j)
        np.testing.assert_allclose(acc, f.values, atol=1e-10 * lp_norm(f, np.inf))


class TestSpectralProductProperties:
    """The one spectral product (coefficients, then synthesis on the support
    of the symbol) and the one Chebyshev engine, on prescribed spectra."""

    @settings(max_examples=40, deadline=None)
    @given(
        lams=st.lists(st.floats(-50.0, 5000.0), min_size=2, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_support_synthesis_matches_full_basis(self, lams, seed):
        op = diagonal_operator(lams)
        m = op.num_nodes
        rng = np.random.default_rng(seed)
        # synthesis reads only the basis, so any orthonormal one will do
        op.eigvecs = np.linalg.qr(rng.standard_normal((m, m)))[0]
        # magnitudes over 40 decades (some below the support cut) and exact zeros
        g = rng.standard_normal(m) * 10.0 ** rng.uniform(-40.0, 0.0, m) * (rng.random(m) < 0.8)
        f = rng.standard_normal((m, 3))
        U = op.eigvecs
        bound = 4 * m * np.finfo(float).eps * np.abs(g).max() * np.abs(f).sum(axis=0).max()
        for x in (f, f[:, 0]):
            ref = U @ np.diag(g) @ (U.T @ x)
            got = bl.spectral_synthesis(op, g, bl.spectral_coefficients(op, x))
            assert got.shape == ref.shape
            assert np.abs(got - ref).max(initial=0.0) <= bound

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_parseval_on_random_lattices_with_potential(self, data):
        # U is orthogonal, so the coefficient transform keeps the 2-norm and
        # synthesis with symbol 1 gives f back, to round-off in N
        grid = bl.build_grid(*draw_lattice(data, 16, 400))
        potential = data.draw(st.sampled_from(["-5", "4*x - 1.2", "0.25/r^2", "-0.5/r"]))
        op = bl.eigendecompose(bl.assemble_schrodinger(
            grid, bl.potential_from_expression(grid, potential)[0]))
        f = random_function(grid, seed=data.draw(st.integers(0, 2**32 - 1))).values
        N, norm = grid.num_nodes, np.linalg.norm(f)
        bound = 10 * N * np.finfo(float).eps * norm
        coeffs = bl.spectral_coefficients(op, f)
        assert abs(np.linalg.norm(coeffs) - norm) <= bound
        rebuilt = bl.spectral_synthesis(op, np.ones(N), coeffs)
        assert np.linalg.norm(rebuilt - f) <= bound

    @settings(max_examples=40, deadline=None)
    @given(
        lams=st.lists(st.floats(0.5, 1e5), min_size=2, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_psi_and_blocks_reconstruct_f(self, lams, seed):
        op = diagonal_operator(lams)
        sys = bl.build_system(op.lam_pos_min, op.lam_max, op.lam0)
        f = random_function(op.grid, seed=seed).values
        coeff = bl.spectral_coefficients(op, f)
        acc = _block(op, sys, "psi", coeff)
        for j in sys.inhom_window:
            acc = acc + _block(op, sys, "phi", coeff, j)
        assert np.abs(acc - f).max() <= 1e-13 * np.abs(f).max()

    @settings(max_examples=30, deadline=None)
    @given(
        lams=st.lists(st.floats(-20.0, 2000.0), min_size=2, max_size=30),
        t=st.floats(1e-4, 0.05),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    )
    def test_fixed_and_adaptive_chebyshev_agree_at_same_degree(self, lams, t, tol):
        op = diagonal_operator(lams)
        f = random_function(op.grid, seed=1).values

        def symbol(lam):
            return np.exp(-t * lam)

        degrees = []

        def fit(*args):
            coeffs, err = bl.chebyshev_coefficients(*args)
            degrees.append(len(coeffs) - 1)
            return coeffs, err

        with mock.patch.object(calculus, "chebyshev_coefficients", fit):
            adaptive = calculus._cheb_apply(op, symbol, f, tol)
            fixed = calculus._cheb_apply(op, symbol, f, degree=degrees[0])
        assert len(degrees) == 1  # the fixed degree runs no error scan
        np.testing.assert_array_equal(fixed, adaptive)
