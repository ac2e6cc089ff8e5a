"""Potential splitting, Kato norms, smallness thresholds, and expression potentials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besovlab as bl
from besovlab.potential import _kernel, _self_cell_weight


def brute_force_kato(grid, vminus, radius=math.inf):
    """O(N^2) reference: sup over probes of the weighted kernel sum."""
    coords = grid.coordinates
    meas = grid.cell_measure
    self_w = _self_cell_weight(grid.n, grid.h)
    best = 0.0
    for i in range(grid.num_nodes):
        total = self_w * vminus[i]
        for j in range(grid.num_nodes):
            if j == i:
                continue
            d = np.linalg.norm(coords[i] - coords[j])
            if d < radius:
                total += _kernel(grid.n, np.array(d)) * meas * vminus[j]
        best = max(best, total)
    return best


class TestDecompose:
    def test_constant_negative(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        plus, minus = bl.decompose(g, np.full(7, -3.0))
        np.testing.assert_array_equal(plus, 0.0)
        np.testing.assert_array_equal(minus, 3.0)

    def test_sign_split(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.125)
        v = g.coordinates[:, 0] - 0.5
        plus, minus = bl.decompose(g, v)
        assert np.all(plus[g.coordinates[:, 0] > 0.5] > 0)
        assert np.all(minus[g.coordinates[:, 0] < 0.5] > 0)
        assert np.all(plus * minus == 0.0)

    def test_reassembly_bit_exact(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.0625)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(g.num_nodes)
        plus, minus = bl.decompose(g, v)
        np.testing.assert_array_equal(plus - minus, v)

    def test_complex_rejected(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        with pytest.raises(bl.ComplexPotential):
            bl.decompose(g, np.array([1j, 0.0, 0.0]))


class TestKatoNorm:
    def test_zero_potential(self):
        g = bl.build_grid(bl.box([0.0] * 3, [1.0] * 3), 0.25)
        assert bl.kato_norm(g, np.zeros(g.num_nodes)) == 0.0

    def test_single_cell_hand_quadrature(self):
        # Mass c at one node: probes at distance d see c * h^3 / d; the node
        # itself sees the analytic self-cell weight times c.
        g = bl.build_grid(bl.box([0.0] * 3, [1.0] * 3), 0.25)
        h = 0.25
        c = 5.0
        v = np.zeros(g.num_nodes)
        src = 13  # node (2,2,2) * h = center
        np.testing.assert_allclose(g.coordinates[src], [0.5, 0.5, 0.5])
        v[src] = c
        # nearest off-source probe distance is h
        expected = max(c * h**3 / h, c * _self_cell_weight(3, h))
        np.testing.assert_allclose(bl.kato_norm(g, v), expected, rtol=1e-14)

    def test_matches_brute_force_3d(self):
        g = bl.build_grid(bl.ball([0.0] * 3, 0.5), 0.125)
        r = np.linalg.norm(g.coordinates, axis=1)
        v = np.where(r < 0.3, 1.0, 0.0)
        np.testing.assert_allclose(
            bl.kato_norm(g, v), brute_force_kato(g, v), rtol=1e-12
        )

    def test_matches_brute_force_2d_and_1d(self):
        g2 = bl.build_grid(bl.ball([0.0, 0.0], 0.5), 0.125)
        rng = np.random.default_rng(7)
        v2 = rng.uniform(0.0, 2.0, g2.num_nodes)
        np.testing.assert_allclose(
            bl.kato_norm(g2, v2), brute_force_kato(g2, v2), rtol=1e-12
        )
        g1 = bl.build_grid(bl.interval(0.0, 1.0), 0.0625)
        v1 = rng.uniform(0.0, 2.0, g1.num_nodes)
        np.testing.assert_allclose(
            bl.kato_norm(g1, v1), brute_force_kato(g1, v1), rtol=1e-12
        )

    def test_radius_cutoff(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.0625)
        rng = np.random.default_rng(3)
        v = rng.uniform(0.0, 1.0, g.num_nodes)
        for radius in (0.1, 0.3):
            np.testing.assert_allclose(
                bl.kato_norm(g, v, radius=radius),
                brute_force_kato(g, v, radius=radius),
                rtol=1e-12,
            )

    def test_radius_monotone(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.0625)
        rng = np.random.default_rng(4)
        v = rng.uniform(0.0, 1.0, g.num_nodes)
        vals = [bl.kato_norm(g, v, radius=r) for r in (0.05, 0.2, 0.5, math.inf)]
        assert vals == sorted(vals)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_monotone_and_homogeneous(self, seed):
        rng = np.random.default_rng(seed)
        g = bl.build_grid(bl.ball([0.0, 0.0], 0.5), 0.25)
        v1 = rng.uniform(0.0, 1.0, g.num_nodes)
        bump = rng.uniform(0.0, 1.0, g.num_nodes)
        alpha = rng.uniform(0.0, 3.0)
        assert bl.kato_norm(g, v1) <= bl.kato_norm(g, v1 + bump) * (1 + 1e-12)
        np.testing.assert_allclose(
            bl.kato_norm(g, alpha * v1), alpha * bl.kato_norm(g, v1), rtol=1e-12
        )

    def test_negative_values_rejected(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        with pytest.raises(ValueError):
            bl.kato_norm(g, np.array([1.0, -1.0, 0.0]))

    def test_bad_radius_rejected(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        with pytest.raises(ValueError):
            bl.kato_norm(g, np.ones(3), radius=0.0)


class TestSelfCellWeight:
    def test_formulas(self):
        h = 0.125
        np.testing.assert_allclose(_self_cell_weight(1, h), h)
        np.testing.assert_allclose(
            _self_cell_weight(2, h), h * h * (0.5 - math.log(h / math.sqrt(math.pi)))
        )
        rho = h * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
        np.testing.assert_allclose(_self_cell_weight(3, h), 2.0 * math.pi * rho**2)

    def test_matches_ball_integral(self):
        # The weight equals the kernel integrated over the equal-measure ball,
        # checked by radial quadrature.
        from scipy.integrate import quad

        h = 0.1
        rho2 = h / math.sqrt(math.pi)  # pi rho^2 = h^2
        # quad carries a few 1e-10 of its own error at the log endpoint
        val2, _ = quad(lambda s: -math.log(s) * 2 * math.pi * s, 0.0, rho2)
        np.testing.assert_allclose(_self_cell_weight(2, h), val2, rtol=1e-8)
        rho3 = h * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
        val3, _ = quad(lambda s: (1.0 / s) * 4 * math.pi * s**2, 0.0, rho3)
        np.testing.assert_allclose(_self_cell_weight(3, h), val3, rtol=1e-10)

    def test_unsupported_dimension(self):
        with pytest.raises(bl.UnsupportedDimension):
            _self_cell_weight(4, 0.1)


class TestCheckSmallness:
    def test_thresholds_3d(self):
        g = bl.build_grid(bl.box([0.0] * 3, [1.0] * 3), 0.5)
        report = bl.check_smallness(g, np.zeros(g.num_nodes))
        np.testing.assert_allclose(report.theta_strict, math.pi, rtol=1e-12)
        np.testing.assert_allclose(report.theta_weak, 4.0 * math.pi, rtol=1e-12)
        assert report.theta_weak == 4.0 * report.theta_strict

    def test_zero_part_flags_true_all_dims(self):
        for spec, h in (
            (bl.interval(0.0, 1.0), 0.25),
            (bl.ball([0.0, 0.0], 1.0), 0.5),
            (bl.box([0.0] * 3, [1.0] * 3), 0.5),
        ):
            g = bl.build_grid(spec, h)
            report = bl.check_smallness(g, np.full(g.num_nodes, 2.0))
            assert report.vminus_is_zero
            assert report.satisfies_strict and report.satisfies_weak
            assert report.kato_value == 0.0

    def test_flag_transition_with_strength(self):
        g = bl.build_grid(bl.box([0.0] * 3, [1.0] * 3), 0.25)
        f, _ = bl.potential_from_expression(g, "r^-2", trunc_radius=0.25)
        base = f.values
        small = bl.check_smallness(g, -0.01 * base)
        large = bl.check_smallness(g, -100.0 * base)
        assert small.satisfies_strict and small.satisfies_weak
        assert not large.satisfies_weak and not large.satisfies_strict

    def test_low_dimension_requires_zero_part(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        rep = bl.check_smallness(g, np.array([0.0, -0.1, 0.0]))
        assert not rep.satisfies_strict and not rep.satisfies_weak
        assert rep.theta_strict == 0.0 and rep.theta_weak == 0.0
        assert math.isnan(rep.certificate)

    def test_certificate_half_at_twice_pi(self):
        np.testing.assert_allclose(bl.hardy_certificate(3, 2.0 * math.pi), 0.5, rtol=1e-14)

    def test_certificate_monotone(self):
        vals = [bl.hardy_certificate(3, v) for v in (0.0, 1.0, 2.0, 10.0)]
        assert vals[0] == 1.0
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_certificate_positive_iff_weak_flag(self):
        g = bl.build_grid(bl.box([0.0] * 3, [1.0] * 3), 0.25)
        rng = np.random.default_rng(5)
        for scale in (0.01, 0.1, 1.0, 10.0, 200.0):
            v = -scale * rng.uniform(0.5, 1.0, g.num_nodes)
            rep = bl.check_smallness(g, v)
            assert (rep.certificate > 0.0) == rep.satisfies_weak

    def test_certificate_dimension_guard(self):
        with pytest.raises(bl.UnsupportedDimension):
            bl.hardy_certificate(2, 1.0)


class TestExpressionPotentials:
    def test_polynomial(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        f, n_trunc = bl.potential_from_expression(g, "2*x^2 - x + 0.5")
        x = g.coordinates[:, 0]
        np.testing.assert_allclose(f.values, 2 * x**2 - x + 0.5, rtol=1e-14)
        assert n_trunc == 0

    def test_pi_and_power_operator_spellings(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        f1, _ = bl.potential_from_expression(g, "pi*x**2")
        f2, _ = bl.potential_from_expression(g, "pi*x^2")
        np.testing.assert_array_equal(f1.values, f2.values)
        np.testing.assert_allclose(f1.values, math.pi * g.coordinates[:, 0] ** 2)

    def test_right_associative_power(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.5)
        f, _ = bl.potential_from_expression(g, "2^2^2 + 0*x")
        np.testing.assert_allclose(f.values, [16.0])

    def test_inverse_square_truncation(self):
        # Node at the origin gets r floored to the truncation radius.
        g = bl.build_grid(bl.interval(-1.0, 1.0), 0.25)
        f, n_trunc = bl.potential_from_expression(g, "r^-2")
        assert n_trunc == 1
        x = g.coordinates[:, 0]
        expected = np.maximum(np.abs(x), 0.25) ** -2.0
        np.testing.assert_allclose(f.values, expected, rtol=1e-14)

    def test_2d_radial(self):
        g = bl.build_grid(bl.ball([0.0, 0.0], 1.0), 0.25)
        f, _ = bl.potential_from_expression(g, "-(x + y)/2 + r")
        c = g.coordinates
        r = np.maximum(np.hypot(c[:, 0], c[:, 1]), 0.25)
        np.testing.assert_allclose(f.values, -(c[:, 0] + c[:, 1]) / 2 + r, rtol=1e-14)

    def test_r_is_distance_to_origin_off_center(self):
        # on (2, 3)^2 the origin lies outside the domain: r ranges over
        # about [3.0, 4.07], not over distances to the box center
        g = bl.build_grid(bl.box([2.0, 2.0], [3.0, 3.0]), 0.125)
        f, n_trunc = bl.potential_from_expression(g, "r")
        assert n_trunc == 0
        norm = np.linalg.norm(g.coordinates, axis=1)
        np.testing.assert_allclose(f.values, norm, rtol=1e-15)
        assert f.values.min() > 2.0 * math.sqrt(2.0)

    def test_unknown_name(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        with pytest.raises(bl.ConfigInvalid):
            bl.potential_from_expression(g, "q + 1")

    def test_y_unavailable_in_1d(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        with pytest.raises(bl.ConfigInvalid):
            bl.potential_from_expression(g, "y")

    def test_unary_minus_binds_looser_than_power(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        x = g.coordinates[:, 0]
        for expr, expected in (("-x^2", -(x**2)), ("-2^2", -4.0), ("2^-1^2", 0.5)):
            f, _ = bl.potential_from_expression(g, expr)
            np.testing.assert_array_equal(f.values, np.broadcast_to(expected, x.shape))

    @pytest.mark.parametrize("terms", [3000, 10**5])
    def test_long_flat_sum_reported_as_too_long(self, tmp_path, terms):
        # a left-associative chain is as deep as it is long: the evaluator
        # (about 1000 terms) or ast.parse (about 3000) hits the recursion limit
        import json

        from besovlab.cli import main

        expr = "x+" * terms + "x"
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        with pytest.raises(bl.ConfigInvalid, match="too long or nests too deeply"):
            bl.potential_from_expression(g, expr)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": {"kind": "interval", "a": 0.0, "b": 1.0},
                                   "h": [0.25], "potential": expr, "out": str(tmp_path)}))
        assert main(["spectrum", "--config", str(cfg)]) == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "too long" in manifest["failure"]

    def test_sum_of_five_hundred_terms_accepted(self):
        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        f, _ = bl.potential_from_expression(g, "x+" * 499 + "x")
        np.testing.assert_allclose(f.values, 500 * g.coordinates[:, 0], rtol=1e-13)

    def test_syntax_errors(self):
        # the config parses without samples and rejects with the message
        # sampling gives
        from besovlab.potential import parse_potential

        g = bl.build_grid(bl.interval(0.0, 1.0), 0.25)
        for bad in ("1 + ", "(x", "x ) ", "x @ 2", "3..5", "f(x)", "x.real", "x[0]",
                    "x < 1", "True", "1j", "'a'", "+x", "x % 2", "x // 2", "lambda: 1",
                    "(x := 1)", "x, y", "x\x00", "1" * 5000, "y", "x4",
                    "__import__('os')"):
            with pytest.raises(bl.ConfigInvalid) as sampled:
                bl.potential_from_expression(g, bad)
            with pytest.raises(bl.ConfigInvalid) as parsed:
                parse_potential(bad, 1)
            assert str(parsed.value) == str(sampled.value)

    def test_nonfinite_rejected(self):
        g = bl.build_grid(bl.interval(-1.0, 1.0), 0.25)
        with pytest.raises(bl.ConfigInvalid):
            bl.potential_from_expression(g, "x^-1", trunc_radius=0.0)
