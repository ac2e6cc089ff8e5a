"""Bump primitive, cutoff, and dyadic partition identities.

The partition checks are deliberately strict (1e-14): the telescoping
cancellation in phi_j is exact in floating point by construction, so any
regression here means the evaluation order was broken, not that a tolerance
drifted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besovlab as bl
from besovlab.dyadic import bump_primitive, chi


class TestBumpPrimitive:
    def test_endpoints_exact(self):
        assert bump_primitive(0.0) == 0.0
        assert bump_primitive(1.0) == 1.0
        assert bump_primitive(-3.0) == 0.0
        assert bump_primitive(7.0) == 1.0

    def test_symmetry(self):
        # The integrand is symmetric about 1/2, so B(x) + B(1-x) = 1.
        for x in (0.1, 0.25, 0.5, 0.8):
            np.testing.assert_allclose(bump_primitive(x) + bump_primitive(1.0 - x), 1.0, atol=1e-13)

    def test_midpoint(self):
        np.testing.assert_allclose(bump_primitive(0.5), 0.5, atol=1e-14)

    def test_monotone(self):
        # Each point is an independent quadrature, so allow roundoff wobble.
        xs = np.linspace(0.0, 1.0, 201)
        vals = bump_primitive(xs)
        assert np.all(np.diff(vals) >= -1e-14)

    def test_flat_entry(self):
        # All derivatives vanish at the endpoints; values hug 0 and 1 hard.
        assert bump_primitive(0.01) < 1e-40
        assert bump_primitive(0.99) > 1.0 - 1e-40


class TestChi:
    def test_plateau_and_support(self):
        assert chi(-5.0) == 1.0
        assert chi(1.0) == 1.0
        assert chi(2.0) == 0.0
        assert chi(10.0) == 0.0
        assert 0.0 < chi(1.5) < 1.0

    def test_transition_value(self):
        np.testing.assert_allclose(chi(1.5), 0.5, atol=1e-14)

    def test_profiles_differ_in_transition_only(self):
        assert chi(1.5, "smooth") != chi(1.5, "squared")
        assert chi(1.0, "squared") == 1.0
        assert chi(2.0, "squared") == 0.0

    def test_monotone_nonincreasing(self):
        xs = np.linspace(0.0, 3.0, 301)
        assert np.all(np.diff(chi(xs)) <= 1e-14)


def make_system(lam_pos_min=1.0, lam_max=4096.0, lam0=0.0, profile="smooth"):
    return bl.build_system(lam_pos_min, lam_max, lam0=lam0, profile=profile)


class TestDyadicSystem:
    def test_window_bounds(self):
        sys = make_system(lam_pos_min=9.86, lam_max=65000.0)
        # sqrt range is about [3.1, 255]: floor(log2 3.1)-1 = 0, ceil(log2 255)+1 = 9.
        assert sys.j_min == 0
        assert sys.j_max == 9

    def test_phi_center_is_one(self):
        sys = make_system()
        for j in sys.window:
            assert sys.phi(j, 2.0**j) == 1.0

    def test_phi_support(self):
        sys = make_system()
        j = 3
        assert sys.phi(j, 2.0 ** (j - 1)) == 0.0
        assert sys.phi(j, 2.0 ** (j + 1)) == 0.0
        # Probe well inside the transition bands; right at the edge the bump
        # primitive is below machine epsilon and rounds away.
        assert sys.phi(j, 2.0 ** (j - 1) * 1.2) > 0.0
        assert sys.phi(j, 2.0 ** (j + 1) * 0.8) > 0.0

    def test_telescoping_partition_exact(self):
        # the window sum lives in the frequency variable x ~ sqrt(lambda);
        # the guaranteed plateau is [2^j_min, 2^j_max].
        sys = make_system(lam_pos_min=1.0, lam_max=2.0**20)
        xs = np.concatenate([
            np.array([3.0, 7.5, 100.0, 1999.0]),
            np.geomspace(2.0**sys.j_min, 2.0**sys.j_max, 137),
        ])
        np.testing.assert_allclose(sum(sys.phi(j, xs) for j in sys.window), 1.0, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(
        log_lo=st.floats(-6.0, 12.0),
        log_span=st.floats(0.0, 14.0),
        profile=st.sampled_from(["smooth", "squared"]),
        u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_telescoping_on_random_windows(self, log_lo, log_span, profile, u):
        # any window: the sum over it is 1 on its plateau [2^j_min, 2^j_max],
        # at the plateau's ends and at log-uniform points inside
        sys = make_system(lam_pos_min=10.0**log_lo, lam_max=10.0 ** (log_lo + log_span),
                          profile=profile)
        xs = 2.0 ** (sys.j_min + np.asarray([0.0, 1.0, *u]) * (sys.j_max - sys.j_min))
        total = sum(sys.phi(j, xs) for j in sys.window)
        np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=1e-14)

    def test_window_sum_at_three_literal(self):
        sys = make_system()
        assert abs(sum(sys.phi(j, 3.0) for j in sys.window) - 1.0) <= 1e-14

    def test_fat_phi_covers_phi(self):
        sys = make_system()
        lams = np.geomspace(0.5, 5000.0, 400)
        for j in sys.window:
            phi = sys.phi(j, lams)
            fat = sys.phi(j - 1, lams) + phi + sys.phi(j + 1, lams)
            # the fat block equals 1 on the support of phi_j, so the product is phi_j.
            np.testing.assert_allclose(fat * phi, phi, atol=1e-15)

    def test_psi_values(self):
        sys = make_system()
        assert sys.psi(-0.5) == 1.0
        assert sys.psi(0.0) == 1.0
        assert sys.psi(1.0) == 1.0
        assert sys.psi(4.41) == 0.0
        assert 0.0 < sys.psi(2.0) < 1.0

    def test_psi_plus_tail_blocks_is_one(self):
        # psi(mu) + sum_{j>=1} phi_j(sqrt mu) = 1 on the covered range.
        sys = make_system(lam_pos_min=0.5, lam_max=2.0**16)
        mus = np.geomspace(0.25, 2.0**16, 200)
        total = sys.psi(mus)
        for j in sys.inhom_window:
            total = total + sys.phi_sqrt(j, mus)
        np.testing.assert_allclose(total, 1.0, atol=1e-14)

    def test_phi_sqrt_vanishes_on_nonpositive(self):
        sys = make_system()
        for j in sys.window:
            assert sys.phi_sqrt(j, -1.0) == 0.0
            assert sys.phi_sqrt(j, 0.0) == 0.0

    def test_covers(self):
        sys = make_system(lam_pos_min=1.0, lam_max=4096.0)
        assert sys.covers(4096.0)
        assert not sys.covers(4.0 * 2.0 ** (2 * sys.j_max))

    def test_second_system_same_window_different_profile(self):
        sys = make_system()
        other = bl.second_system(sys)
        assert (other.j_min, other.j_max) == (sys.j_min, sys.j_max)
        assert other.profile != sys.profile
        assert sys.phi(0, 1.5) != other.phi(0, 1.5)
        # Both are exact partitions on the shared plateau.
        xs = np.geomspace(2.0**other.j_min, 2.0**other.j_max, 97)
        np.testing.assert_allclose(sum(other.phi(j, xs) for j in other.window), 1.0, atol=1e-14)

    def test_cross_profile_fat_block_identity(self):
        # The fat block of either profile is 1 on supp phi_j of the other,
        # because supports depend only on j, not on the profile.
        sys = make_system()
        other = bl.second_system(sys)
        lams = np.geomspace(1.0, 4096.0, 200)
        for j in sys.window:
            phi = sys.phi(j, lams)
            fat = other.phi(j - 1, lams) + other.phi(j, lams) + other.phi(j + 1, lams)
            np.testing.assert_allclose(fat * phi, phi, atol=1e-15)

    def test_invalid_bounds(self):
        with pytest.raises(bl.InvalidSpectrumBounds):
            bl.build_system(0.0, 100.0)
        with pytest.raises(bl.InvalidSpectrumBounds):
            bl.build_system(4.0, 2.0)
        with pytest.raises(bl.InvalidSpectrumBounds):
            bl.build_system(1.0, 100.0, lam0=-1.0)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            bl.build_system(1.0, 100.0, profile="wavelet")
