"""Measured-experiment checks: families, stages, and the check battery."""

from __future__ import annotations

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from conftest import diagonal_operator, draw_lattice
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

import besovlab as bl
from besovlab import verify as V
from besovlab.errors import (
    AssumptionViolated,
    IndexConstraintViolated,
    InvalidCheckParameter,
    InvalidExponent,
    ZeroEigenvaluePresent,
)
from besovlab.geometry import lp_columns

FAM = V.FunctionFamily("random-eigenmix", seed=11, count=6)


@lru_cache(maxsize=None)
def line_stages(denoms, potential=None):
    return tuple(
        V.build_stages(bl.interval(0.0, 1.0), [1.0 / d for d in denoms], potential=potential)
    )


@lru_cache(maxsize=None)
def long_line_stages(denoms):
    return tuple(V.build_stages(bl.interval(0.0, 4.0), [1.0 / d for d in denoms]))


@lru_cache(maxsize=None)
def disk_stages(denoms, potential=None):
    return tuple(
        V.build_stages(bl.ball([0.0, 0.0], 1.0), [1.0 / d for d in denoms], potential=potential)
    )


def synthetic_stage(lams) -> V.Stage:
    op = diagonal_operator(lams)
    sys = bl.build_system(op.lam_pos_min, op.lam_max, op.lam0)
    return V.Stage(grid=op.grid, op=op, op0=op, sys=sys)


# ---------------------------------------------------------------------------
# families and stages
# ---------------------------------------------------------------------------


def test_family_rejects_unknown_tag():
    with pytest.raises(ValueError):
        V.FunctionFamily("chirp")
    with pytest.raises(ValueError):
        V.FunctionFamily("bump", count=0)


def test_family_samples_are_reproducible():
    (stage,) = line_stages((64,))
    for tag in V.FAMILY_TAGS:
        fam = V.FunctionFamily(tag, seed=5, count=4)
        a = [f.values for f in fam.sample(stage)]
        b = [f.values for f in fam.sample(stage)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def test_family_seed_changes_samples():
    (stage,) = line_stages((64,))
    a = V.FunctionFamily("bump", seed=1, count=3).sample(stage)
    b = V.FunctionFamily("bump", seed=2, count=3).sample(stage)
    assert any(not np.array_equal(x.values, y.values) for x, y in zip(a, b))


def test_indicator_family_is_binary():
    (stage,) = line_stages((64,))
    for f in V.FunctionFamily("indicator", seed=3, count=5).sample(stage):
        assert set(np.unique(f.values)) <= {0.0, 1.0}
        assert f.values.sum() >= 1.0


def test_single_eigenvector_family_solves_eigenproblem():
    (stage,) = line_stages((64,))
    for f in V.FunctionFamily("single-eigenvector", seed=0, count=4).sample(stage):
        av = stage.op.matrix @ f.values
        lam = float(f.values @ av) / float(f.values @ f.values)
        np.testing.assert_allclose(av, lam * f.values, atol=1e-8 * abs(lam))


def test_boundary_layer_peaks_at_the_boundary():
    (stage,) = line_stages((64,))
    xs = stage.grid.coordinates[:, 0]
    for f in V.FunctionFamily("boundary-layer", seed=7, count=4).sample(stage):
        peak = xs[np.argmax(f.values)]
        assert min(peak, 1.0 - peak) <= 2.0 * stage.h


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_boundary_distance_matches_shortest_path_oracle(data):
    # the breadth-first hop count is scipy's unweighted multi-source shortest
    # path from the nodes missing a stencil neighbour (all nodes if none is)
    spec, h = draw_lattice(data, 1, 600)
    grid = bl.build_grid(spec, h)
    potential = data.draw(st.sampled_from([None, "-5", "4*x - 1.2", "0.25/r^2"]))
    if potential is None:
        op = bl.assemble_laplacian(grid)
    else:
        op = bl.assemble_schrodinger(grid, bl.potential_from_expression(grid, potential)[0])
    adj = abs(op.matrix).tocsr()
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    seeds = np.flatnonzero(np.diff(adj.indptr) < 2 * grid.n)
    hops = dijkstra(adj, directed=False, unweighted=True, min_only=True,
                    indices=seeds if seeds.size else np.arange(grid.num_nodes))
    np.testing.assert_array_equal(V._boundary_distance(op), (hops + 1.0) * h)


def test_free_operator_decomposed_on_first_read(eigensolves):
    stage = V.build_stage(bl.ball([0.0, 0.0], 1.0), 1 / 16, potential="0.25/r^2")
    assert eigensolves == [False]  # A_V only
    op0 = stage.op0
    assert eigensolves == [False, True] and op0.has_eigendata
    assert stage.op0 is op0 and eigensolves == [False, True]
    # the window the dense spectra of both operators give
    dense = bl.build_system(
        min(stage.op.lam_pos_min, op0.lam_pos_min), max(stage.op.lam_max, op0.lam_max)
    )
    assert (stage.sys.j_min, stage.sys.j_max) == (dense.j_min, dense.j_max)


def test_build_stage_accepts_potential_forms():
    spec = bl.interval(0.0, 1.0)
    st0 = V.build_stage(spec, 1 / 16)
    assert st0.op0 is st0.op and not st0.has_potential

    for pot in ["-5", lambda c: -5.0 * np.ones(len(c)), -5.0 * np.ones(15)]:
        st = V.build_stage(spec, 1 / 16, potential=pot)
        assert st.has_potential and st.op0 is not st.op
        np.testing.assert_allclose(st.op.potential, -5.0)

    gf = bl.GridFunction(st0.grid, np.full(st0.grid.num_nodes, 2.0))
    st = V.build_stage(spec, 1 / 16, potential=gf)
    np.testing.assert_allclose(st.op.potential, 2.0)


def test_build_stages_orders_coarse_to_fine():
    stages = V.build_stages(bl.interval(0.0, 1.0), [1 / 32, 1 / 8, 1 / 16])
    assert [round(1 / st.h) for st in stages] == [8, 16, 32]


# ---------------------------------------------------------------------------
# resolution of the identity
# ---------------------------------------------------------------------------


def test_resolution_identity_telescopes_exactly():
    rep = V.check_resolution_identity(line_stages((64, 128)), FAM)
    assert rep.passed
    assert max(rep.constants["residual"]) <= 1e-13


def test_resolution_identity_homogeneous_variant():
    rep = V.check_resolution_identity(
        line_stages((64,)), FAM, homogeneous=True
    )
    assert rep.passed
    assert rep.details["variant"] == "hom"


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_resolution_identity_on_random_lattices_with_potential(data):
    # the dyadic partition telescopes to one on the spectrum, so psi(A) plus
    # every block gives f back for any lattice and potential, and the blocks
    # alone do once the spectrum is positive
    spec, h = draw_lattice(data, 16, 400)
    potential = data.draw(st.sampled_from(["-5", "4*x - 1.2", "0.25/r^2", "-0.5/r"]))
    stage = V.build_stage(spec, h, potential=potential)
    fam = V.FunctionFamily("random-eigenmix", seed=data.draw(st.integers(0, 2**32 - 1)), count=4)
    # the homogeneous variant is defined once lam_min clears zero (1e-12 relative)
    variants = (False, True) if stage.op.lam_min > 1e-9 * stage.op.lam_max else (False,)
    for homogeneous in variants:
        rep = V.check_resolution_identity(stage, fam, homogeneous=homogeneous)
        assert rep.passed and rep.constants["residual"][0] <= 1e-10


def test_resolution_homogeneous_rejects_zero_eigenvalue():
    stage = synthetic_stage([0.0, 1.0, 4.0])
    fam = V.FunctionFamily("single-eigenvector", seed=0, count=3)
    with pytest.raises(ZeroEigenvaluePresent):
        V.check_resolution_identity(stage, fam, homogeneous=True)


# ---------------------------------------------------------------------------
# Bernstein constants
# ---------------------------------------------------------------------------


def test_bernstein_exact_operator_norms_stable():
    rep = V.check_bernstein(line_stages((64, 128)), family=None)
    assert rep.passed
    assert len(rep.constants) == 6  # 3 pairs x 2 derivative orders


def test_bernstein_family_path_stable():
    rep = V.check_bernstein(line_stages((64, 128)), FAM)
    assert rep.passed


def test_bernstein_rejects_r_above_p():
    with pytest.raises(InvalidExponent):
        V.check_bernstein(line_stages((64,)), pairs=((2, 1),))


def test_bernstein_derivative_constant_bounded_by_shell_top():
    # on the shell 4^{j-1} < lam < 4^{j+1} the weighted symbol lam phi^2 / 4^j
    # cannot exceed 4, whatever the grid
    rep = V.check_bernstein(line_stages((64,)), family=None, pairs=((2, 2),), alphas=(1,))
    (vals,) = rep.constants.values()
    assert all(v <= 4.0 + 1e-12 for v in vals)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_duality_pairing_stable_and_attained():
    rep = V.check_duality(line_stages((64, 128)), FAM)
    assert rep.passed
    att, cs = rep.constants["attained"], rep.constants["C"]
    assert all(a >= 0.1 * c for a, c in zip(att, cs))
    assert all(0.1 <= c <= 10.0 for c in cs)


def test_duality_fractional_exponents():
    rep = V.check_duality(line_stages((64, 128)), FAM, s=0.5, p=1.5, q=2.0)
    assert rep.passed


def test_duality_rejects_endpoint_exponents():
    with pytest.raises(InvalidExponent):
        V.check_duality(line_stages((64,)), FAM, p=math.inf)
    with pytest.raises(InvalidExponent):
        V.check_duality(line_stages((64,)), FAM, q=math.inf)


def adversarial_pair_oracle(op, dsys, fvals, s, p, q):
    """The per-function construction: the dual function of one column f,
    from its own transform, one synthesis per shell and one transform of
    its stacked duals; None when every block of f is zero."""
    meas = op.grid.cell_measure
    js = list(dsys.inhom_window)
    coeff = bl.spectral_coefficients(op, fvals)
    blocks = [bl.spectral_synthesis(op, op.dyadic_weights(dsys, "phi", j), coeff) for j in js]
    bnorms = np.array([lp_columns(b[:, None], meas, p)[0] for b in blocks])
    top = bnorms.max(initial=0.0)
    if top == 0.0:
        return None

    def dual(b):
        return np.sign(b) if p == 1.0 else np.sign(b) * np.abs(b) ** (p - 1.0)

    kept = [i for i, nj in enumerate(bnorms) if not nj <= 1e-14 * top]
    duals = np.column_stack([dual(blocks[i]) for i in kept])
    dual_coeff = bl.spectral_coefficients(op, duals)
    G = np.zeros_like(fvals)
    for col, i in enumerate(kept):
        j, nj = js[i], bnorms[i]
        a_j = 2.0 ** (s * j) * nj
        w = 2.0 ** (s * j) * a_j ** (q - 1.0) / nj ** (p - 1.0)
        fat = op.dyadic_weights(dsys, "fat", j)
        G = G + w * bl.spectral_synthesis(op, fat, dual_coeff[:, col])
    return G


def per_function_pairs(op, dsys, fvals, s, p, q):
    """_adversarial_pairs' result, built one column at a time by the oracle."""
    pairs = [(i, adversarial_pair_oracle(op, dsys, f, s, p, q)) for i, f in enumerate(fvals.T)]
    pairs = [(i, g) for i, g in pairs if g is not None]
    return (np.array([i for i, _ in pairs], dtype=np.intp),
            np.column_stack([g for _, g in pairs]) if pairs else fvals[:, :0])


@pytest.mark.parametrize("where", ["disk", "interval"])
@pytest.mark.parametrize("s,p,q", [(0.0, 2.0, 2.0), (0.5, 1.0, 2.0), (-0.5, 1.5, 3.0)])
def test_adversarial_pairs_match_the_per_function_oracle(where, s, p, q):
    # a zero column gets no pair; a column scaled far below the others has
    # every block below 1e-14 times the family's top block, so it is kept
    # only if the cut is taken per column
    (st,) = disk_stages((16,)) if where == "disk" else line_stages((64,))
    cols = np.column_stack([f.values for f in FAM.sample(st)])
    fvals = np.column_stack([cols[:, :3], np.zeros(len(cols)), 1e-20 * cols[:, 3], cols[:, 4:]])
    got, G = V._adversarial_pairs(st.op, st.sys, fvals, s, p, q)
    want, ref = per_function_pairs(st.op, st.sys, fvals, s, p, q)
    assert got.tolist() == want.tolist() == [0, 1, 2, 4, 5, 6]
    for g, r in zip(G.T, ref.T):
        assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()


@pytest.mark.parametrize("p", [2.0, 1.0])
def test_duality_constants_match_per_function_pairs(p, monkeypatch):
    stages = disk_stages((16,))
    rep = V.check_duality(stages, DISK_FAM, p=p)
    monkeypatch.setattr(V, "_adversarial_pairs", per_function_pairs)
    oracle = V.check_duality(stages, DISK_FAM, p=p)
    assert rep.passed == oracle.passed
    for key in ("C", "attained"):
        np.testing.assert_allclose(rep.constants[key], oracle.constants[key], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def test_embedding_battery_passes():
    rep = V.check_embeddings(line_stages((64, 128)), FAM)
    assert rep.passed
    assert len(rep.constants) == 6


def test_embedding_index_guards():
    stages = line_stages((64,))
    with pytest.raises(IndexConstraintViolated):
        V.check_embeddings(stages, FAM, gain=(0.5, -0.1, 2.0, math.inf, 1.0))
    with pytest.raises(IndexConstraintViolated):
        V.check_embeddings(stages, FAM, hom_gain=(0.0, 3.0, 2.0, 1.0, 2.0))
    with pytest.raises(IndexConstraintViolated):
        V.check_embeddings(stages, FAM, square_p=(2.5, 3.0))
    with pytest.raises(IndexConstraintViolated):
        V.check_embeddings(stages, FAM, square_p=(1.5, 1.9))
    with pytest.raises(IndexConstraintViolated):
        V.check_embeddings(stages, FAM, chain=(1.0, 2.0, 2.0, 0))


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def test_lifting_homogeneous_passes():
    rep = V.check_lifting(line_stages((64, 128)), FAM)
    assert rep.passed
    assert set(rep.constants) == {"s0=2", "s0=-2"}


def test_lifting_inhomogeneous_with_potential():
    rep = V.check_lifting(
        line_stages((64, 128), potential="-30"), FAM, homogeneous=False
    )
    assert rep.passed


def test_lifting_zero_shift_is_exact():
    rep = V.check_lifting(line_stages((64,)), FAM, s0=0.0)
    (vals,) = rep.constants.values()
    np.testing.assert_allclose(vals, 1.0, rtol=1e-12)


def test_lifting_single_eigenvector_bracket():
    fam = V.FunctionFamily("single-eigenvector", seed=0, count=5)
    rep = V.check_lifting(line_stages((128,)), fam, s0=2.0)
    for lo_hi in rep.details["ratio_range"].values():
        assert 0.25 * (1 - 1e-12) <= lo_hi[0] <= lo_hi[1] <= 4.0 * (1 + 1e-12)


def test_lifting_homogeneous_rejects_zero_eigenvalue():
    stage = synthetic_stage([0.0, 4.0, 16.0])
    fam = V.FunctionFamily("single-eigenvector", seed=0, count=3)
    with pytest.raises(ZeroEigenvaluePresent):
        V.check_lifting(stage, fam)


# ---------------------------------------------------------------------------
# equivalence of the two operators' scales
# ---------------------------------------------------------------------------


def test_equivalence_disk_with_inverse_square_potential():
    rep = V.check_equivalence_AV_A0(disk_stages((8, 16), "0.25/r^2"), FAM)
    assert rep.passed
    slope = rep.constants["slope"][-1]
    assert -2.5 <= slope <= -1.5
    assert rep.details["satisfies_weak"]
    spread = rep.constants["spread"]
    assert max(spread) / min(spread) <= 2.0
    # the tails read one column per orbit of the disk's eight symmetries
    assert rep.details["symmetry_order"] == [8, 8]
    assert rep.details["orbits"] == [31, 113]


def test_equivalence_free_control_is_exact():
    rep = V.check_equivalence_AV_A0(disk_stages((8, 16)), FAM)
    assert rep.passed
    assert max(rep.details["control_defect"]) == 0.0
    assert all(math.isnan(s) for s in rep.constants["slope"])


def test_equivalence_requires_two_dimensions():
    with pytest.raises(AssumptionViolated):
        V.check_equivalence_AV_A0(line_stages((64,)), FAM)


def test_equivalence_smoothness_window_modes():
    stages = disk_stages((8,))
    with pytest.raises(AssumptionViolated):
        V.check_equivalence_AV_A0(stages, FAM, s=1.5)
    rep = V.check_equivalence_AV_A0(stages, FAM, s=1.5, assert_window=False)
    assert rep.passed and not rep.details["in_window"]


def test_equivalence_rejects_large_negative_potential():
    stages = disk_stages((8,), "-8")
    with pytest.raises(AssumptionViolated):
        V.check_equivalence_AV_A0(stages, FAM)


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

T_GRID = tuple(2.0 ** np.arange(-6, 1))


def test_heat_gaussian_free_envelope():
    rep = V.check_heat_gaussian(line_stages((32, 64)), t_grid=T_GRID)
    assert rep.passed
    assert max(rep.constants["C"]) <= 1.0


def test_heat_gaussian_well_dominated():
    rep = V.check_heat_gaussian(line_stages((32, 64), potential="-40"), t_grid=T_GRID)
    assert rep.passed
    assert min(rep.constants["domination_defect"]) >= -1e-12
    assert all(math.isfinite(w) and w > 0.0 for w in rep.details["omega"])


def test_heat_gaussian_mixed_sign_potential():
    rep = V.check_heat_gaussian(
        line_stages((32, 64), potential="30*x - 15"), t_grid=T_GRID
    )
    assert rep.passed
    assert min(rep.constants["domination_defect"]) >= -1e-12


def test_heat_gaussian_validates_t_grid():
    stages = line_stages((32,))
    with pytest.raises(ValueError):
        V.check_heat_gaussian(stages, t_grid=[])
    with pytest.raises(ValueError):
        V.check_heat_gaussian(stages, t_grid=[-0.5, 1.0])
    with pytest.raises(InvalidCheckParameter):
        V.check_heat_gaussian(stages, t_grid=[])


def test_heat_gaussian_reuses_free_operator_for_nonnegative_potential(eigensolves):
    # V >= 0 makes -V_- = 0, whose operator is the stage's op0: the check
    # decomposes op0 once per stage and no operator -V_- of its own, and
    # must dominate exactly as the explicitly rebuilt operator does
    stages = line_stages((32, 64), potential="40*x")
    del eigensolves[:]
    rep = V.check_heat_gaussian(stages, t_grid=T_GRID)
    assert eigensolves == [True, True]
    expected = []
    for st in stages:
        _, vminus = bl.decompose(st.grid, st.op.potential)
        assert vminus.max() == 0.0
        op_star = bl.eigendecompose(
            bl.assemble_schrodinger(st.grid, bl.GridFunction(st.grid, -vminus))
        )
        defect = 0.0
        for t in T_GRID:
            absK = np.abs(bl.heat_kernel(st.op, t))
            K_star = bl.heat_kernel(op_star, t)
            scale = max(1.0, float(K_star.max()))
            defect = min(defect, float((K_star - absK).min()) / scale)
        expected.append(defect)
    np.testing.assert_allclose(rep.constants["domination_defect"], expected, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# the dense checks stream in row blocks: same numbers, no N x N transients
# ---------------------------------------------------------------------------


def streamed_disk(potential="0.25/r^2"):
    """The h = 1/16 disk (N = 793, several row blocks) with A_0 decomposed."""
    (st,) = disk_stages((16,), potential=potential)
    assert st.grid.num_nodes > V._ROW_BLOCK
    st.op0
    return st


@lru_cache(maxsize=None)
def off_centre_disk():
    """An h = 1/16 disk centred at (0.1, 0.05), with 0.25/r^2 about the
    origin: neither the node set nor the potential has a lattice symmetry."""
    (st,) = V.build_stages(bl.ball([0.1, 0.05], 1.0), [1 / 16], potential="0.25/r^2")
    assert st.symmetry.order == 1
    assert np.array_equal(st.symmetry.reps, np.arange(st.grid.num_nodes))
    st.op0
    return st


def transient_bytes(fn) -> int:
    """tracemalloc peak of fn() above the arrays live when it starts; a
    first untraced call fills the memoized dyadic weights."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def heat_oracle(st, ts, cstar=8.0, cols=None):
    """The unblocked heat measurement: full |K|, distance and difference
    matrices at every t; with ``cols``, of the kernel's columns cols only."""
    op, grid, n = st.op, st.grid, st.grid.n
    vplus, vminus = bl.decompose(grid, op.potential)
    kato_ok = vminus.max() == 0.0 or bl.check_smallness(grid, op.potential).satisfies_weak
    t_used = ts if kato_ok else ts[ts <= 1.0]
    coords = grid.coordinates
    d2 = cdist(coords, coords if cols is None else coords[cols], "sqeuclidean")
    op_star = None
    if vplus.max() > 0.0:
        op_star = st.op0 if vminus.max() == 0.0 else bl.eigendecompose(
            bl.assemble_schrodinger(grid, bl.GridFunction(grid, -vminus)),
            dense_cap=op.num_nodes,
        )
    log_scores, defect = [], 0.0
    for t in t_used:
        absK = np.abs(bl.heat_kernel(op, t, cols))
        floor = op.num_nodes * np.finfo(float).eps * float(absK.max())
        nz = absK > floor
        logs = np.log(absK[nz]) + 0.5 * n * math.log(t) + d2[nz] / (cstar * t)
        log_scores.append(float(logs.max(initial=-math.inf)))
        if op_star is not None:
            K_star = bl.heat_kernel(op_star, t, cols)
            scale = max(1.0, float(K_star.max()))
            defect = min(defect, float((K_star - absK).min()) / scale)
    omega = math.nan
    if not kato_ok:
        omega = float(np.polyfit(t_used, np.asarray(log_scores), 1)[0])
    return float(np.exp(max(log_scores))), defect, omega


def w_blocks(st):
    """(j, rows, ks, W) per row j of the cross-block tails, W formed as
    _cross_block_tails forms it: U_V[:, rows]^T U_0[:, :end], with rows the
    phi_j shell, ks the nonempty Phi_k shells at k <= j - 3 and end one past
    the last column they read."""
    opv, op0, dsys = st.op, st.op0, st.sys
    for j in dsys.window:
        rows = np.flatnonzero(opv.dyadic_weights(dsys, "phi", j))
        ks = [k for k in dsys.window if k <= j - 3 and op0.dyadic_weights(dsys, "fat", k).any()]
        if rows.size and ks:
            end = max(np.flatnonzero(op0.dyadic_weights(dsys, "fat", k))[-1] for k in ks) + 1
            yield j, rows, ks, opv.eigvecs[:, V._contiguous(rows)].T @ op0.eigvecs[:, :end]


def tails_oracle(st, cheaper=True, nodes=None):
    """The unblocked cross-block tails: the full N x N kernel L M R^T per
    (j, k), formed in the cheaper order of _cross_block_tails, or with
    cheaper=False always as (L M) R^T; with ``nodes``, its columns at those
    nodes only.  W and the weights are taken as _cross_block_tails takes
    them, so the L2 norms agree bitwise: row j's W entries come from its
    block U_V[:, rows]^T U_0[:, :end], and M = phi_j W Phi_k holds both
    shells' weights, with L = U_V[:, rows] unscaled."""
    opv, op0, dsys = st.op, st.op0, st.sys
    basis = op0.eigvecs if nodes is None else op0.eigvecs[nodes]
    out = {}
    for j, rows, ks, W in w_blocks(st):
        gv, left = opv.dyadic_weights(dsys, "phi", j), opv.eigvecs[:, V._contiguous(rows)]
        pts = []
        for k in ks:
            g0 = op0.dyadic_weights(dsys, "fat", k)
            cols = np.flatnonzero(g0)
            mid = gv[rows, None] * (W[:, cols] * g0[cols])
            right = basis[:, cols].T
            if cheaper and rows.size < cols.size:
                tail = left @ (mid @ right)
            else:
                tail = (left @ mid) @ right
            pts.append((j - k, float(np.abs(tail).sum(axis=0).max()),
                        float(np.linalg.norm(mid, 2))))
        out[j] = pts
    return out


@pytest.mark.parametrize("potential", ["0.25/r^2", "-40+80*r"])
def test_heat_gaussian_streaming_matches_unblocked_oracle(potential):
    # "-40+80*r" fails the smallness flags, so omega is fitted and the
    # dominating operator is eigendecomposed rather than taken from op0;
    # both are radial, so the check forms the representative columns only
    st = streamed_disk(potential)
    reps = st.symmetry.reps
    assert st.symmetry.order == 8 and reps.size < st.grid.num_nodes
    ts = 2.0 ** np.arange(-10, 1)
    rep = V.check_heat_gaussian([st])
    C, defect, omega = heat_oracle(st, ts, cols=reps)
    assert rep.constants["C"] == (C,)
    assert rep.constants["domination_defect"] == (defect,)
    assert math.isnan(omega) == (potential == "0.25/r^2")
    np.testing.assert_array_equal(rep.details["omega"], [omega])


@pytest.mark.parametrize(
    "spec,h",
    [(bl.ball([0.0], 1.0), 1 / 64), (bl.ball([0.0, 0.0], 1.0), 1 / 16),
     (bl.ball([0.0, 0.0, 0.0], 1.0), 1 / 6)],
    ids=["n1", "n2", "n3"],
)
def test_sq_distances_match_cdist_bitwise(spec, h):
    coords = bl.build_grid(spec, h).coordinates
    d2 = V._sq_distances(coords, coords)
    assert d2.tobytes() == cdist(coords, coords, "sqeuclidean").tobytes()
    assert np.array_equal(d2, d2.T)


def test_heat_gaussian_scores_every_row_once(monkeypatch):
    # symmetric disk: the distances from the representatives are formed once
    # per stage, whatever the number of times; an entry planted in the
    # first, a middle or the last row block of K[reps, :] (113 rows, in
    # blocks of 48 here) sets the sup, so no row block of the scan is skipped
    st = streamed_disk()
    coords, B = st.grid.coordinates, V._ROW_BLOCK
    N, reps = len(coords), st.symmetry.reps
    seen, distances, kernels = [], V._sq_distances, V.heat_kernel

    def spy(xa, xb):
        seen.append((xa[0].tolist(), len(xa), xb[0].tolist(), len(xb)))
        d2 = distances(xa, xb)
        assert d2.tobytes() == cdist(xa, xb, "sqeuclidean").tobytes()
        return d2

    monkeypatch.setattr(V, "_sq_distances", spy)
    V.check_heat_gaussian([st], t_grid=[0.25, 0.5])
    assert seen == [(coords[reps[0]].tolist(), reps.size, coords[0].tolist(), N)]

    t, d2 = 0.5, cdist(coords[reps], coords, "sqeuclidean")
    monkeypatch.setattr(V, "_ROW_BLOCK", 48)
    for i in (0, reps.size // 2, reps.size - 1):
        x = int(d2[i].argmax())

        def planted(op, t, cols=None, i=i, x=x):
            K = kernels(op, t, cols)
            K[x, i] = K.max()
            return K

        monkeypatch.setattr(V, "heat_kernel", planted)
        rep = V.check_heat_gaussian([st], t_grid=[t])
        score = np.log(kernels(st.op, t, reps).max()) + math.log(t) + d2[i, x] / (8 * t)
        assert rep.constants["C"] == (float(np.exp(score)),)

    # trivial group: the whole symmetric kernel is scanned from each row
    # block's diagonal on; a skipped row block could hide behind its
    # transpose in the oracle comparison, so the row blocks must tile 0..N
    monkeypatch.setattr(V, "heat_kernel", kernels)
    monkeypatch.setattr(V, "_ROW_BLOCK", B)
    st = off_centre_disk()
    coords, N = st.grid.coordinates, st.grid.num_nodes
    del seen[:]
    V.check_heat_gaussian([st], t_grid=[0.5])
    assert seen == [(coords[lo].tolist(), len(coords[lo:lo + B]), coords[lo].tolist(), N - lo)
                    for lo in range(0, N, B)]


@pytest.mark.parametrize("where", [0, 200, -1])
def test_max_column_l1_matches_unblocked_product(where):
    # 300 columns span three blocks, the last one partial; the largest
    # column is planted in the first, a middle and the last block, for
    # left @ basis[:, cols].T and for left @ (mid @ basis[:, cols].T)
    rng = np.random.default_rng(4)
    left, basis = rng.standard_normal((40, 7)), rng.standard_normal((300, 12))
    cols = np.array([0, 2, 3, 7, 8, 9, 11])
    basis[where, cols] *= 50.0
    short, mid = rng.standard_normal((40, 3)), rng.standard_normal((3, 7))
    for got, product in [
        (V._max_column_l1(left, basis, cols), left @ basis[:, cols].T),
        (V._max_column_l1(short, basis, cols, mid=mid), short @ (mid @ basis[:, cols].T)),
    ]:
        column = np.abs(product).sum(axis=0)
        assert got == float(column.max())
        assert column.argmax() == np.arange(300)[where]


def test_cross_block_tails_streaming_matches_unblocked_oracle():
    st = streamed_disk()
    tails, oracle = V._cross_block_tails(st), tails_oracle(st, nodes=st.symmetry.reps)
    assert tails and tails.keys() == oracle.keys()
    for j, pts in tails.items():
        assert [(m, two) for m, _, two in pts] == [(m, two) for m, _, two in oracle[j]]
        # BLAS may round the columns of the last, partial 128-column block
        # differently from the same columns of the unblocked product, so a
        # column sum that lands there can differ in the last bit
        np.testing.assert_allclose([p[1] for p in pts], [p[1] for p in oracle[j]],
                                   rtol=4 * np.finfo(float).eps, atol=0.0)


def test_representative_columns_match_full_kernel_oracles():
    # where the sup lies above round-off (t >= 1/4), the representative
    # columns find the whole kernel's sup and domination defect, and the
    # tails the L1 norms of every column
    st = streamed_disk()
    ts = np.array([0.25, 0.5, 1.0])
    rep = V.check_heat_gaussian([st], t_grid=ts)
    C, defect, _ = heat_oracle(st, ts)
    np.testing.assert_allclose(rep.constants["C"], [C], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rep.constants["domination_defect"], [defect], rtol=1e-12, atol=0.0)
    assert (rep.details["symmetry_order"], rep.details["orbits"]) == ([8], [113])
    tails, oracle = V._cross_block_tails(st), tails_oracle(st)
    assert tails and tails.keys() == oracle.keys()
    for j, pts in tails.items():
        assert [(m, two) for m, _, two in pts] == [(m, two) for m, _, two in oracle[j]]
        np.testing.assert_allclose([p[1] for p in pts], [p[1] for p in oracle[j]],
                                   rtol=1e-12, atol=0.0)


def test_trivial_symmetry_group_keeps_the_whole_kernel(monkeypatch):
    # no symmetry: heat_gaussian scans the whole symmetric kernel, so it
    # equals the unblocked oracle exactly, and the tails read every column
    # of the eigenbasis in place, as they did before representatives
    st = off_centre_disk()
    ts = 2.0 ** np.arange(-10, 1)
    rep = V.check_heat_gaussian([st])
    C, defect, _ = heat_oracle(st, ts)
    assert rep.constants["C"] == (C,)
    assert rep.constants["domination_defect"] == (defect,)
    bases, streamed = [], V._max_column_l1

    def spy(left, basis, cols, mid=None):
        # a view of the whole eigenbasis, not a gathered copy
        full = st.op0.eigvecs
        bases.append(np.shares_memory(basis, full) and np.array_equal(basis, full))
        return streamed(left, basis, cols, mid=mid)

    monkeypatch.setattr(V, "_max_column_l1", spy)
    tails, oracle = V._cross_block_tails(st), tails_oracle(st)
    assert bases and all(bases)
    assert tails.keys() == oracle.keys()
    for j, pts in tails.items():
        np.testing.assert_allclose([p[1] for p in pts], [p[1] for p in oracle[j]],
                                   rtol=4 * np.finfo(float).eps, atol=0.0)


def test_heat_gaussian_kernel_columns_follow_the_symmetry_group(monkeypatch):
    # the cost pin: on the symmetric disk every kernel has at most N/4
    # columns; without symmetry every kernel is the whole symmetric product
    shapes, kernels = [], V.heat_kernel

    def spy(op, t, cols=None):
        K = kernels(op, t, cols)
        shapes.append((cols is None, K.shape))
        return K

    monkeypatch.setattr(V, "heat_kernel", spy)
    for st, symmetric in ((streamed_disk(), True), (off_centre_disk(), False)):
        del shapes[:]
        V.check_heat_gaussian([st])
        N = st.grid.num_nodes
        assert len(shapes) == 22  # K and K* at each of the 11 default times
        if symmetric:
            assert all(not whole and K[0] == N and K[1] <= N / 4 for whole, K in shapes)
        else:
            assert all(whole and K == (N, N) for whole, K in shapes)


@pytest.mark.parametrize("denom", [16, 24])
def test_cross_block_tails_product_order_moves_only_round_off(denom, monkeypatch):
    # (L M) R^T at every pair, the one order before the cheaper-order
    # rule, is an independent oracle for the pairs formed as L (M R^T)
    (st,) = disk_stages((denom,), potential="0.25/r^2")
    orders, streamed = [], V._max_column_l1

    def spy(left, basis, cols, mid=None):
        orders.append(mid is not None)
        return streamed(left, basis, cols, mid=mid)

    monkeypatch.setattr(V, "_max_column_l1", spy)
    tails, parent = V._cross_block_tails(st), tails_oracle(st, cheaper=False)
    assert any(orders) and not all(orders)
    assert tails.keys() == parent.keys()
    for j, pts in tails.items():
        assert [(m, two) for m, _, two in pts] == [(m, two) for m, _, two in parent[j]]
        np.testing.assert_allclose([p[1] for p in pts], [p[1] for p in parent[j]],
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("denom", [16, 24])
def test_cross_block_w_blocks_match_the_whole_product(denom):
    # each row's block of W = U_V^T U_0 is its own product, so BLAS may
    # round it apart from the same entries of the whole one; both are dot
    # products of unit vectors, so they agree within N eps
    (st,) = disk_stages((denom,), potential="0.25/r^2")
    N = st.grid.num_nodes
    whole = st.op.eigvecs.T @ st.op0.eigvecs
    blocks = list(w_blocks(st))
    assert blocks and all(W.shape[1] < N for _, _, _, W in blocks)
    for _, rows, _, W in blocks:
        assert np.abs(W - whole[rows, :W.shape[1]]).max() <= N * np.finfo(float).eps


@pytest.mark.parametrize("denom", [16, 24])
def test_cross_block_tails_form_no_whole_kernel(denom):
    # the W blocks and the kernel factors stay below 1.5 N^2 doubles, so no
    # N x N array (W or a kernel) is formed
    (st,) = disk_stages((denom,), potential="0.25/r^2")
    st.op0
    N = st.grid.num_nodes
    assert transient_bytes(lambda: V._cross_block_tails(st)) < 1.5 * N * N * 8


@pytest.mark.parametrize("name", ["heat_gaussian", "cross_block_tails"])
def test_dense_checks_hold_at_most_four_transient_kernels(name):
    st = streamed_disk()
    run = {
        "heat_gaussian": lambda: V.check_heat_gaussian([st]),
        "cross_block_tails": lambda: V._cross_block_tails(st),
    }[name]
    N = st.grid.num_nodes
    assert transient_bytes(run) <= 4 * N * N * 8


# ---------------------------------------------------------------------------
# partition independence
# ---------------------------------------------------------------------------


def test_partition_independence_two_profiles():
    rep = V.check_partition_independence(line_stages((64, 128)), FAM)
    assert rep.passed
    assert rep.details["pointwise_defect"] <= 1e-12


def test_partition_independence_exact_at_dyadic_centers():
    stage = synthetic_stage([4.0**j for j in range(1, 6)])
    fam = V.FunctionFamily("single-eigenvector", seed=0, count=5)
    rep = V.check_partition_independence(stage, fam)
    np.testing.assert_allclose(rep.constants["C"], 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# subspace characterization and Lorentz refinement
# ---------------------------------------------------------------------------


def test_subspace_tail_sum_controlled():
    rep = V.check_subspace_characterization(long_line_stages((8, 16)), FAM)
    assert rep.passed


def test_subspace_boundary_pair_allowed():
    rep = V.check_subspace_characterization(
        long_line_stages((8,)), FAM, s=0.5, p=2.0, q=1.0
    )
    assert math.isfinite(rep.constant)


def test_subspace_rejects_large_smoothness():
    with pytest.raises(IndexConstraintViolated):
        V.check_subspace_characterization(long_line_stages((8,)), FAM, s=0.75)


def test_lorentz_bernstein_free_and_potential():
    rep = V.check_lorentz_bernstein(line_stages((64, 128)), FAM)
    assert rep.passed
    repv = V.check_lorentz_bernstein(line_stages((64, 128), potential="-30"), FAM)
    assert repv.passed


def test_lorentz_bernstein_exponent_order():
    stages = line_stages((64,))
    with pytest.raises(IndexConstraintViolated):
        V.check_lorentz_bernstein(stages, FAM, p0=2.0, p=2.0)
    with pytest.raises(IndexConstraintViolated):
        V.check_lorentz_bernstein(stages, FAM, p0=1.0, p=math.inf)


# ---------------------------------------------------------------------------
# coefficient transforms: one per input set, every block synthesized from it
# ---------------------------------------------------------------------------

DISK_FAM = V.FunctionFamily(count=8)


def test_bernstein_family_transforms_once_per_stage(transforms):
    stages = disk_stages((16,))
    V.check_bernstein(stages, DISK_FAM)
    assert len(transforms) == len(stages)


def test_duality_transform_budget(transforms):
    # two Besov norms over the family, per function one transform of f and
    # one of its stacked duals, and one for the norms of all dual pairs
    V.check_duality(disk_stages((16,)), DISK_FAM)
    assert len(transforms) <= 2 + 2 * DISK_FAM.count + 1


def test_duality_builds_every_pair_from_two_transforms(transforms):
    # two Besov norms over the family, one transform of the family and one
    # of all its kept duals, and one for the norms of all dual pairs
    V.check_duality(disk_stages((16,)), DISK_FAM)
    assert len(transforms) == 5


def test_embeddings_transform_budget(transforms):
    # eight Besov norms and one for the seminorms of all mollifiers
    V.check_embeddings(disk_stages((16,)), DISK_FAM)
    assert len(transforms) <= 9


def test_bernstein_opnorm_forms_each_kernel_once(monkeypatch):
    from besovlab import calculus

    stages = line_stages((64,))
    orig = calculus.kernel
    opfuns: list = []  # held, so their ids stay distinct

    def counted(opfun):
        opfuns.append(opfun)
        return orig(opfun)

    monkeypatch.setattr(calculus, "kernel", counted)
    monkeypatch.setattr(V, "kernel", counted)
    rep = V.check_bernstein(stages, family=None)
    # nine shells times two lifts, each kernel read by (1, inf) and (1, 2)
    assert len(opfuns) == len({id(f) for f in opfuns}) == 18
    # against each pair forming its own kernel: not a bit moves
    single = calculus.mixed_opnorm
    monkeypatch.setattr(V, "mixed_opnorm", lambda opfun, r, p, kern=None: single(opfun, r, p))
    assert V.check_bernstein(stages, family=None).constants == rep.constants


def test_lorentz_bernstein_transforms_once_per_operator(transforms):
    V.check_lorentz_bernstein(line_stages((64,)), FAM)
    assert len(transforms) == 1
    del transforms[:]
    V.check_lorentz_bernstein(line_stages((64,), potential="-30"), FAM)
    assert len(transforms) == 2


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_rows_single_constant():
    rep = V.check_resolution_identity(line_stages((64, 128)), FAM)
    rows = list(rep.iter_rows())
    assert len(rows) == 2
    assert {r["check"] for r in rows} == {"resolution_identity"}
    expected = {"check", "anchor", "constant", "pass", "h", "N", "seed", "wall_ms"}
    assert all(set(r) == expected for r in rows)


def test_report_rows_label_multiple_constants():
    rep = V.check_duality(line_stages((64, 128)), FAM)
    labels = {r["check"] for r in rep.iter_rows()}
    assert labels == {"duality[C]", "duality[attained]"}
    assert len(list(rep.iter_rows())) == 4


def test_checks_registry_is_complete():
    assert set(V.CHECKS) == {
        "resolution_identity",
        "bernstein",
        "duality",
        "embeddings",
        "lifting",
        "equivalence_AV_A0",
        "heat_gaussian",
        "partition_independence",
        "subspace_characterization",
        "lorentz_bernstein",
    }
    assert all(callable(f) for f in V.CHECKS.values())


@pytest.mark.parametrize("name", sorted(V.CHECKS))
def test_checks_accept_an_iterator_of_stages(name):
    stages = disk_stages((4, 6), "0.25/r^2")
    listed = V.CHECKS[name](list(stages))
    np.testing.assert_equal(V.CHECKS[name](iter(stages)).constants, listed.constants)


def test_checks_rerun_bitwise_identical():
    stages = line_stages((64, 128))
    a = V.check_duality(stages, FAM)
    b = V.check_duality(stages, FAM)
    assert a.constants == b.constants
    assert a.passed == b.passed
