"""Besov, Sobolev, and test-space seminorms; rearrangement and Lorentz norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import besovlab as bl

from conftest import diagonal_operator, eigenfunction, interval_stage, lp_norm, random_function


def f_star(prof, t) -> np.ndarray:
    """Right-continuous step evaluation of the rearrangement f* held by prof."""
    t = np.asarray(t, float)
    idx = np.floor_divide(t, prof.cell).astype(int)
    out = np.zeros_like(t)
    ok = (idx >= 0) & (idx < len(prof.values))
    out[ok] = prof.values[idx[ok]]
    return out


def f_star_star(prof, t) -> np.ndarray:
    """Running average t^-1 int_0^t f*."""
    t = np.asarray(t, float)
    S = prof.cumulative
    idx = np.clip(np.floor_divide(t, prof.cell).astype(int), 0, len(prof.values))
    partial = np.where(
        idx < len(prof.values),
        S[idx] + f_star(prof, t) * (t - idx * prof.cell),
        S[-1],
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0.0, partial / t, prof.values[0] if len(prof.values) else 0.0)


def dyadic_center_operator():
    # Eigenvalues exactly 4^j, so sqrt sits at the dyadic centers 2^j.
    return diagonal_operator([4.0**j for j in range(-1, 6)])


class TestBlockNorms:
    def test_matches_apply_plus_lp(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid, seed=1)
        for p in (1.0, 2.0, 3.5, np.inf):
            norms = bl.block_lp_norms(st_.op, st_.sys, f, p)[:, 0]
            for i, j in enumerate(st_.sys.window):
                shell = bl.apply_symbol(st_.op, lambda lam: st_.sys.phi_sqrt(j, lam), f)
                direct = lp_norm(shell, p)
                np.testing.assert_allclose(norms[i], direct, rtol=1e-12, atol=1e-15)

    def test_eigenbasis_oracle_p2(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid, seed=2)
        coeff = st_.op.eigvecs.T @ f.values
        meas = st_.grid.cell_measure
        norms = bl.block_lp_norms(st_.op, st_.sys, f, 2.0)[:, 0]
        for i, j in enumerate(st_.sys.window):
            g = st_.sys.phi_sqrt(j, st_.op.eigvals)
            expected = math.sqrt(meas * np.sum((g * coeff) ** 2))
            np.testing.assert_allclose(norms[i], expected, rtol=1e-12, atol=1e-15)

    def test_batched_equals_loop(self):
        st_ = interval_stage(32)
        rng = np.random.default_rng(3)
        block = rng.standard_normal((st_.grid.num_nodes, 4))
        batched = bl.block_lp_norms(st_.op, st_.sys, block, 2.0)
        for k in range(4):
            single = bl.block_lp_norms(st_.op, st_.sys, block[:, k], 2.0)[:, 0]
            np.testing.assert_allclose(batched[:, k], single, rtol=1e-13)


class TestBesovNorm:
    def test_single_eigenvector_at_center_homogeneous(self):
        op = dyadic_center_operator()
        sys = bl.build_system(op.lam_pos_min, op.lam_max)
        for k, j in ((2, 1), (4, 3)):
            u = eigenfunction(op, k)
            for s in (-1.0, 0.0, 1.5):
                for p in (1.0, 2.0, np.inf):
                    got = bl.besov_norm(op, sys, u, s, p, 2.0, homogeneous=True)
                    expected = 2.0 ** (s * j) * lp_norm(u, p)
                    np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_q_independent_for_single_block(self):
        op = dyadic_center_operator()
        sys = bl.build_system(op.lam_pos_min, op.lam_max)
        u = eigenfunction(op, 3)
        vals = [bl.besov_norm(op, sys, u, 0.7, 2.0, q, homogeneous=True)
                for q in (1.0, 2.0, np.inf)]
        np.testing.assert_allclose(vals, vals[0], rtol=1e-12)

    def test_homogeneous_l2_bracket(self):
        # s=0, p=q=2: the norm squares to sum_j phi_j^2 against the spectral
        # measure, which telescoping pins inside [1/2, 1].
        st_ = interval_stage(64)
        for seed in range(4):
            f = random_function(st_.grid, seed=seed)
            ratio = bl.besov_norm(st_.op, st_.sys, f, 0.0, 2.0, 2.0, homogeneous=True) / lp_norm(f, 2.0)
            assert math.sqrt(0.5) - 1e-12 <= ratio <= 1.0 + 1e-12

    def test_homogeneous_eigen_sum_oracle(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid, seed=5)
        coeff = st_.op.eigvecs.T @ f.values
        meas = st_.grid.cell_measure
        total = 0.0
        for j in st_.sys.window:
            g = st_.sys.phi_sqrt(j, st_.op.eigvals)
            total += meas * np.sum((g * coeff) ** 2)
        np.testing.assert_allclose(
            bl.besov_norm(st_.op, st_.sys, f, 0.0, 2.0, 2.0, homogeneous=True),
            math.sqrt(total),
            rtol=1e-12,
        )

    def test_inhomogeneous_structure(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid, seed=6)
        s, p, q = 0.8, 2.0, 2.0
        blocks = bl.block_lp_norms(st_.op, st_.sys, f, p, list(st_.sys.inhom_window))[:, 0]
        weights = 2.0 ** (s * np.arange(st_.sys.inhom_window.start, st_.sys.inhom_window.stop))
        expected = lp_norm(bl.apply_symbol(st_.op, st_.sys.psi, f), p) + math.sqrt(
            np.sum((weights * blocks) ** 2)
        )
        np.testing.assert_allclose(
            bl.besov_norm(st_.op, st_.sys, f, s, p, q), expected, rtol=1e-12
        )

    def test_scaling(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid, seed=7)
        for hom in (False, True):
            a = bl.besov_norm(st_.op, st_.sys, bl.GridFunction(st_.grid, -2.5 * f.values),
                              1.0, 2.0, 1.0, homogeneous=hom)
            b = bl.besov_norm(st_.op, st_.sys, f, 1.0, 2.0, 1.0, homogeneous=hom)
            np.testing.assert_allclose(a, 2.5 * b, rtol=1e-12)

    @pytest.mark.parametrize("hom", [False, True])
    def test_one_transform_per_call(self, transforms, hom):
        st_ = interval_stage(32)
        block = np.random.default_rng(8).standard_normal((st_.grid.num_nodes, 3))
        for f in (block, block[:, 0], bl.GridFunction(st_.grid, block[:, 1])):
            before = len(transforms)
            bl.besov_norm(st_.op, st_.sys, f, 0.5, 2.0, 2.0, homogeneous=hom)
            assert len(transforms) - before == 1

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_triangle_inequality(self, seed):
        st_ = interval_stage(32)
        rng = np.random.default_rng(seed)
        f = bl.GridFunction(st_.grid, rng.standard_normal(st_.grid.num_nodes))
        g = bl.GridFunction(st_.grid, rng.standard_normal(st_.grid.num_nodes))
        fg = bl.GridFunction(st_.grid, f.values + g.values)
        s, p, q = rng.uniform(-1, 2), rng.uniform(1, 4), rng.uniform(1, 4)
        lhs = bl.besov_norm(st_.op, st_.sys, fg, s, p, q)
        rhs = (bl.besov_norm(st_.op, st_.sys, f, s, p, q)
               + bl.besov_norm(st_.op, st_.sys, g, s, p, q))
        assert lhs <= rhs * (1 + 1e-11)

    def test_zero_eigenvalue_refused_homogeneous(self):
        op = diagonal_operator([0.0, 1.0, 4.0])
        sys = bl.build_system(1.0, 4.0)
        u = eigenfunction(op, 1)
        with pytest.raises(bl.ZeroEigenvaluePresent):
            bl.besov_norm(op, sys, u, 0.0, 2.0, 2.0, homogeneous=True)
        # the inhomogeneous norm is still defined
        assert bl.besov_norm(op, sys, u, 0.0, 2.0, 2.0) > 0.0

    def test_window_coverage_enforced(self):
        st_ = interval_stage(32)
        small = bl.build_system(st_.op.lam_pos_min, st_.op.lam_max / 50.0)
        assert not small.covers(st_.op.lam_max)
        with pytest.raises(bl.InvalidSpectrumBounds):
            bl.besov_norm(st_.op, small, random_function(st_.grid), 0.0, 2.0, 2.0)

    def test_exponent_guards(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid)
        with pytest.raises(bl.InvalidExponent):
            bl.besov_norm(st_.op, st_.sys, f, 0.0, 0.5, 2.0)
        with pytest.raises(bl.InvalidExponent):
            bl.besov_norm(st_.op, st_.sys, f, 0.0, 2.0, 0.9)


class TestSobolevNorm:
    def test_s_zero_is_l2(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid, seed=8)
        np.testing.assert_allclose(
            bl.sobolev_norm(st_.op, f, 0.0), lp_norm(f, 2.0), rtol=1e-12
        )

    def test_single_eigenvector(self):
        st_ = interval_stage(32)
        for k in (0, 5):
            u = eigenfunction(st_.op, k)
            lam = st_.op.eigvals[k]
            for s in (1.0, 2.0, 3.5):
                np.testing.assert_allclose(
                    bl.sobolev_norm(st_.op, u, s), (1.0 + lam) ** (s / 2.0), rtol=1e-11
                )

    def test_eigen_sum_oracle(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid, seed=9)
        coeff = st_.op.eigvecs.T @ f.values
        s = 1.7
        expected = math.sqrt(
            st_.grid.cell_measure * np.sum((1.0 + st_.op.eigvals) ** s * coeff**2)
        )
        np.testing.assert_allclose(bl.sobolev_norm(st_.op, f, s), expected, rtol=1e-12)

    def test_monotone_in_s(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid, seed=10)
        vals = [bl.sobolev_norm(st_.op, f, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_shifted_variant_for_negative_spectrum(self):
        op = diagonal_operator([-5.0, 2.0, 8.0])
        u = eigenfunction(op, 0)
        with pytest.raises(bl.NegativeShiftedEigenvalue):
            bl.sobolev_norm(op, u, 1.0, variant="plain")
        # shift = 1 + lam0^2 = 6 moves the bottom eigenvalue to +1
        got = bl.sobolev_norm(op, u, 1.0, variant="shifted")
        np.testing.assert_allclose(got, (6.0 - 5.0) ** 0.5, rtol=1e-12)

    def test_unknown_variant(self):
        st_ = interval_stage(32)
        with pytest.raises(bl.InvalidExponent):
            bl.sobolev_norm(st_.op, random_function(st_.grid), 1.0, variant="besov")


class TestSeminorms:
    def test_single_block_literal(self):
        op = dyadic_center_operator()
        sys = bl.build_system(op.lam_pos_min, op.lam_max)
        k = int(np.argmin(np.abs(op.eigvals - 64.0)))  # sqrt(lam) = 2^3
        u = eigenfunction(op, k)
        base = lp_norm(u, 1.0)
        for M in (1, 2, 3):
            p_val, q_val = bl.test_seminorms(op, sys, u, M)
            np.testing.assert_allclose(p_val, base * (1.0 + 2.0 ** (3 * M)), rtol=1e-12)
            # high-frequency f: low blocks vanish, so q agrees with p
            np.testing.assert_allclose(q_val, p_val, rtol=1e-12)

    def test_low_frequency_separates_q_from_p(self):
        op = dyadic_center_operator()
        sys = bl.build_system(op.lam_pos_min, op.lam_max)
        k = int(np.argmin(np.abs(op.eigvals - 0.25)))  # sqrt(lam) = 2^-1
        u = eigenfunction(op, k)
        base = lp_norm(u, 1.0)
        M = 2
        p_val, q_val = bl.test_seminorms(op, sys, u, M)
        np.testing.assert_allclose(p_val, base, rtol=1e-12)
        np.testing.assert_allclose(q_val, base * (1.0 + 2.0**M), rtol=1e-12)

    def test_monotone_in_M(self):
        st_ = interval_stage(32)
        f = random_function(st_.grid, seed=11)
        pairs = [bl.test_seminorms(st_.op, st_.sys, f, M) for M in (1, 2, 3, 4)]
        assert all(a[0] <= b[0] * (1 + 1e-12) for a, b in zip(pairs, pairs[1:]))
        assert all(a[1] <= b[1] * (1 + 1e-12) for a, b in zip(pairs, pairs[1:]))

    def test_batched_columns_match_single(self, transforms):
        st_ = interval_stage(32)
        cols = np.column_stack([random_function(st_.grid, seed=k).values for k in range(4)])
        p_vals, q_vals = bl.test_seminorms(st_.op, st_.sys, cols, 2)
        assert len(transforms) == 1
        for i in range(cols.shape[1]):
            single = bl.test_seminorms(st_.op, st_.sys, cols[:, i], 2)
            np.testing.assert_allclose((p_vals[i], q_vals[i]), single, rtol=1e-12)

    def test_tail_profile_decays_for_smooth_bump(self):
        # A smooth bump has rapidly decaying block norms, so the weighted
        # tail profile stays bounded and trails off at the window ends.
        st_ = interval_stage(64)
        x = st_.grid.coordinates[:, 0]
        bump = np.where(
            np.abs(x - 0.5) < 0.25, np.exp(-1.0 / np.maximum(0.0625 - (x - 0.5) ** 2, 1e-300)), 0.0
        )
        f = bl.GridFunction(st_.grid, bump / np.max(bump))
        M = 2
        js = list(st_.sys.window)
        norms = bl.block_lp_norms(st_.op, st_.sys, f, 1.0, js)[:, 0]
        profile = 2.0 ** (M * np.abs(np.asarray(js))) * norms
        _, q_val = bl.test_seminorms(st_.op, st_.sys, f, M)
        assert math.isfinite(q_val)
        # the sup is attained well inside the window
        assert profile.argmax() not in (0, len(js) - 1)


class TestRearrangement:
    def test_profile_is_sorted_absolute_values(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        f = bl.GridFunction(g, np.array([0.0, -3.0, 1.0, 0.0, 2.0, -1.0, 0.5]))
        prof = bl.rearrangement_profile(f)
        np.testing.assert_array_equal(prof.values, [3.0, 2.0, 1.0, 1.0, 0.5])
        assert prof.cell == 0.125

    def test_f_star_non_increasing_and_equimeasurable(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 32)
        rng = np.random.default_rng(12)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        prof = bl.rearrangement_profile(f)
        assert np.all(np.diff(prof.values) <= 0.0)
        # L^p norms computed from the profile agree with the grid norms
        for p in (1.0, 2.0, 4.0):
            from_profile = (np.sum(prof.values**p) * prof.cell) ** (1.0 / p)
            np.testing.assert_allclose(from_profile, lp_norm(f, p), rtol=1e-13)

    def test_f_star_star_dominates_and_averages(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 16)
        rng = np.random.default_rng(13)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        prof = bl.rearrangement_profile(f)
        ts = np.linspace(1e-3, 1.5, 200)
        fs = f_star(prof, ts)
        fss = f_star_star(prof, ts)
        assert np.all(fss >= fs - 1e-14)
        assert np.all(np.diff(fss) <= 1e-14)
        # spot-check the running average against direct quadrature
        for t in (0.05, 0.3, 0.9):
            val, _ = quad(lambda s: float(f_star(prof, np.array(s))), 0.0, t, limit=200)
            np.testing.assert_allclose(f_star_star(prof, np.array(t)), val / t, rtol=1e-9)


def lorentz_quad_oracle(f, p, q):
    """Piece-by-piece quadrature of the Lorentz integral to a relative
    1e-13 on each step (slow but independent)."""
    prof = bl.rearrangement_profile(f)
    knots = prof.knots
    total = 0.0
    for i in range(len(prof.values)):
        val, _ = quad(
            lambda t: (t ** (1.0 / p) * float(f_star_star(prof, np.array(t)))) ** q / t,
            knots[i],
            knots[i + 1],
            limit=200,
            epsabs=0.0,
            epsrel=1e-13,
        )
        total += val
    # analytic tail: f** = mass / t beyond the support
    mass = float(prof.cumulative[-1])
    c = q / p
    total += mass**q * knots[-1] ** (c - q) / (q - c)
    return total ** (1.0 / q)


class TestLorentzNorm:
    def test_indicator_weak_norm(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        vals = np.zeros(7)
        vals[1:4] = 1.0
        f = bl.GridFunction(g, vals)
        m = 3 * 0.125
        for p in (1.5, 2.0, 4.0):
            np.testing.assert_allclose(bl.lorentz_norm(f, p, np.inf), m ** (1.0 / p), rtol=1e-13)

    def test_indicator_diagonal_case(self):
        # q = p on an indicator: (p' m)^(1/p) with p' = p/(p-1).
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        vals = np.zeros(7)
        vals[2:6] = 1.0
        f = bl.GridFunction(g, vals)
        m = 4 * 0.125
        for p in (1.5, 2.0, 3.0):
            expected = (p / (p - 1.0) * m) ** (1.0 / p)
            np.testing.assert_allclose(bl.lorentz_norm(f, p, p), expected, rtol=1e-13)

    def test_indicator_general_q_closed_form(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        vals = np.zeros(7)
        vals[0:2] = 1.0
        f = bl.GridFunction(g, vals)
        m = 2 * 0.125
        for p, q in ((2.0, 1.0), (1.5, 3.0), (3.0, 2.5)):
            expected = m ** (1.0 / p) * (p * p / (q * (p - 1.0))) ** (1.0 / q)
            np.testing.assert_allclose(bl.lorentz_norm(f, p, q), expected, rtol=1e-12)

    def test_classical_identifications(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 32)
        rng = np.random.default_rng(14)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        np.testing.assert_allclose(bl.lorentz_norm(f, 1.0, np.inf), lp_norm(f, 1.0), rtol=1e-13)
        np.testing.assert_allclose(
            bl.lorentz_norm(f, np.inf, np.inf), lp_norm(f, np.inf), rtol=1e-13
        )

    def test_matches_quadrature_oracle(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 16)
        rng = np.random.default_rng(15)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes) * 3.0)
        for p, q in ((2.0, 2.0), (1.7, 1.0), (2.5, 3.25), (3.0, 1.618), (1.31, 7.7)):
            np.testing.assert_allclose(
                bl.lorentz_norm(f, p, q), lorentz_quad_oracle(f, p, q), rtol=1e-9
            )

    @pytest.mark.parametrize(
        "p, q",
        [
            (2.0, 2.0 + 5e-10),  # within 1e-9 of an integer, not one
            (2.0, 3.0 - 4e-10),
            (1.25, 2.5),  # c = q/p an integer
            (5.0 / 3.0, 2.5),  # c - q an integer
        ],
    )
    def test_fractional_q_matches_oracle_to_round_off(self, p, q):
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 16)
        rng = np.random.default_rng(15)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes) * 3.0)
        np.testing.assert_allclose(
            bl.lorentz_norm(f, p, q), lorentz_quad_oracle(f, p, q), rtol=1e-12
        )

    def test_two_level_step_all_branches(self):
        # two distinct heights exercise pure, binomial, and fractional pieces
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        f = bl.GridFunction(g, np.array([4.0, 4.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
        for p, q in ((2.0, 3.0), (2.0, 2.5), (1.5, 1.0), (4.0, 6.5)):
            np.testing.assert_allclose(
                bl.lorentz_norm(f, p, q), lorentz_quad_oracle(f, p, q), rtol=1e-10
            )

    def test_scaling(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 16)
        rng = np.random.default_rng(16)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        fa = bl.GridFunction(g, -3.5 * f.values)
        for p, q in ((2.0, 1.0), (1.5, np.inf), (3.0, 2.2)):
            np.testing.assert_allclose(
                bl.lorentz_norm(fa, p, q), 3.5 * bl.lorentz_norm(f, p, q), rtol=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=-300, max_value=300),
        st.sampled_from([(2.0, 2.0), (2.0, 2.5), (1.5, 7.0), (3.0, np.inf), (1.0, np.inf)]),
    )
    def test_homogeneous_at_every_scale(self, k, pq):
        # ||s f|| = |s| ||f|| to rounding for s = -10^k: the q-th powers
        # neither overflow nor underflow
        p, q = pq
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        base = np.array([3.0, 1.0, 7.0, 2.0, 6.0, 4.0, 5.0])
        scaled = bl.lorentz_norm(bl.GridFunction(g, -(10.0**k) * base), p, q)
        np.testing.assert_allclose(
            scaled, 10.0**k * bl.lorentz_norm(bl.GridFunction(g, base), p, q), rtol=1e-13
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_embedding_in_q_with_sharp_constant(self, seed):
        # || f ||_(p,q2) <= max(1, (q1/p)^(1/q1 - 1/q2)) || f ||_(p,q1);
        # the constant exceeds 1 exactly when q1 > p, and the plain ordering
        # holds on the q <= p stretch.
        rng = np.random.default_rng(seed)
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 16)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        p = rng.uniform(1.2, 5.0)
        q1 = rng.uniform(1.0, 6.0)
        q2 = q1 + rng.uniform(0.3, 6.0)
        n1 = bl.lorentz_norm(f, p, q1)
        n2 = bl.lorentz_norm(f, p, q2)
        cap = max(1.0, (q1 / p) ** (1.0 / q1 - 1.0 / q2))
        assert n2 <= cap * n1 * (1 + 1e-10)
        if q2 <= p:
            assert n2 <= n1 * (1 + 1e-10)

    def test_weak_norm_below_all_finite_q(self):
        rng = np.random.default_rng(17)
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 16)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        for p in (1.5, 2.0, 3.0):
            weak = bl.lorentz_norm(f, p, np.inf)
            for q in (1.0, 2.0, p):
                cap = max(1.0, (q / p) ** (1.0 / q))
                assert weak <= cap * bl.lorentz_norm(f, p, q) * (1 + 1e-10)

    def test_hoelder_pairing(self):
        rng = np.random.default_rng(18)
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 32)
        for _ in range(10):
            f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
            h = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
            p1 = rng.uniform(1.3, 4.0)
            p2 = p1 / (p1 - 1.0)
            q1 = rng.uniform(1.1, 3.0)
            q2 = q1 / (q1 - 1.0)
            lhs = lp_norm(bl.GridFunction(g, f.values * h.values), 1.0)
            rhs = bl.lorentz_norm(f, p1, q1) * bl.lorentz_norm(h, p2, q2)
            assert lhs <= rhs * (1 + 1e-10)

    def test_sandwich_against_lp(self):
        # f** >= f* gives Lp <= L(p,p) <= p' Lp.
        rng = np.random.default_rng(19)
        g = bl.build_grid(bl.interval(0.0, 1.0), 1.0 / 32)
        f = bl.GridFunction(g, rng.standard_normal(g.num_nodes))
        for p in (1.5, 2.0, 4.0):
            lp = lp_norm(f, p)
            lpp = bl.lorentz_norm(f, p, p)
            assert lp * (1 - 1e-12) <= lpp <= p / (p - 1.0) * lp * (1 + 1e-12)

    def test_zero_function(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        f = bl.GridFunction(g, np.zeros(3))
        assert bl.lorentz_norm(f, 2.0, 2.0) == 0.0
        assert bl.lorentz_norm(f, 2.0, np.inf) == 0.0

    def test_exponent_guards(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        f = bl.GridFunction(g, np.ones(3))
        with pytest.raises(bl.InvalidExponent):
            bl.lorentz_norm(f, 0.5, 2.0)
        with pytest.raises(bl.InvalidExponent):
            bl.lorentz_norm(f, 2.0, 0.0)
        # finite q needs p strictly between 1 and infinity
        with pytest.raises(bl.InvalidExponent):
            bl.lorentz_norm(f, 1.0, 2.0)
        with pytest.raises(bl.InvalidExponent):
            bl.lorentz_norm(f, np.inf, 2.0)
