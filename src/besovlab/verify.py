"""Measured pass/fail experiments for the spectral toolbox.

Each check turns one inequality of the theory into a finite experiment on
one or more grids.  Identities get absolute tolerances; inequalities whose
constants are merely asserted to exist get the "measured and stable under
refinement" treatment: the constant computed at spacing h and at h/2 must
agree within a configurable factor (default 2).

Every check plugs its per-stage measurement into one driver, which samples
the test family, stacks the constants, applies the stability gate and
builds the report: neutral formula anchors, the measured constants per
stage and the sweep metadata.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Annotated, Callable, Sequence

import numpy as np

from .calculus import (
    OperatorFunction,
    _contiguous,
    apply_symbol,
    heat_kernel,
    kernel,
    mixed_opnorm,
    power,
    spectral_coefficients,
    spectral_synthesis,
)
from .dyadic import DyadicSystem, build_system, second_system
from .errors import (
    AssumptionViolated,
    IndexConstraintViolated,
    InvalidCheckParameter,
    InvalidExponent,
)
from .geometry import (
    DomainSpec,
    Grid,
    GridFunction,
    LatticeSymmetry,
    build_grid,
    lp_columns,
)
from .norms import (
    besov_norm,
    block_lp_norms,
    check_homogeneous_spectrum,
    lorentz_norm,
    test_seminorms,
)
from .operators import (
    DEFAULT_DENSE_CAP,
    SpectralOperator,
    _csr_rows,
    assemble_laplacian,
    assemble_schrodinger,
    cached_eigendecompose,
    cached_laplacian_bounds,
)
from .potential import check_smallness, decompose, potential_from_expression
from .schema import (
    _EXPONENT, _EXT_EXPONENT, _NUMBER, _POSITIVE, Boolean, Exponent, Number, Stability,
    Tolerance, _array, _either, _number, _tuple,
)

__all__ = [
    "Stage",
    "FunctionFamily",
    "VerifyReport",
    "build_stage",
    "build_stages",
    "check_resolution_identity",
    "check_bernstein",
    "check_duality",
    "check_embeddings",
    "check_lifting",
    "check_equivalence_AV_A0",
    "check_heat_gaussian",
    "check_partition_independence",
    "check_subspace_characterization",
    "check_lorentz_bernstein",
    "CHECK_RULES",
    "CHECKS",
]

DEFAULT_STABILITY = 2.0

# rows (or output columns) per block when a check streams its entrywise
# work over an N x N kernel, so each transient holds 128 N doubles, not N^2
_ROW_BLOCK = 128

FAMILY_TAGS = (
    "random-eigenmix",
    "bump",
    "single-eigenvector",
    "indicator",
    "boundary-layer",
)


# ---------------------------------------------------------------------------
# stages: one (grid, operator, dyadic system) bundle per spacing
# ---------------------------------------------------------------------------


class Stage:
    """Everything a check needs at one lattice spacing.

    ``op`` is the operator under test (with potential when one was given),
    eigendecomposed.  ``op0`` is the potential-free operator on the same
    grid; it is the same object as ``op`` when the stage has no potential.
    Otherwise it is decomposed on first read, under ``dense_cap`` and
    through the operator cache in ``cache_dir`` (None: no cache), exactly
    once per stage, so a run whose checks never read it pays no eigensolve
    for it.  The dyadic window covers the union of both spectra.

    ``symmetry`` is the LatticeSymmetry of the grid and op's potential
    samples, each part found on first read.  As build_stage assembles op
    from those samples, its maps commute with A_V, A_0 and every operator
    assembled from a pointwise function of V.
    """

    def __init__(
        self,
        grid: Grid,
        op: SpectralOperator,
        op0: SpectralOperator,
        sys: DyadicSystem,
        dense_cap: int = DEFAULT_DENSE_CAP,
        cache_dir=None,
    ):
        self.grid = grid
        self.op = op
        self.sys = sys
        self._op0 = op0
        self._dense_cap = dense_cap
        self._cache_dir = cache_dir
        self.symmetry = LatticeSymmetry(grid, op.potential)

    @property
    def op0(self) -> SpectralOperator:
        return self.decompose(self._op0)

    def decompose(self, op: SpectralOperator) -> SpectralOperator:
        """op eigendecomposed under this stage's dense cap and operator cache."""
        return cached_eigendecompose(op, self._dense_cap, self._cache_dir)

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def has_potential(self) -> bool:
        return self.op.potential is not None and bool(np.any(self.op.potential != 0.0))


def build_stage(
    spec: DomainSpec,
    h: float,
    potential=None,
    profile: str = "smooth",
    dense_cap: int = DEFAULT_DENSE_CAP,
    trunc_radius: float | None = None,
    cache_dir=None,
) -> Stage:
    """Assemble the operator(s) at one spacing and eigendecompose A_V.

    ``potential`` may be None, a GridFunction, a sample array, a callable of
    the (N, n) coordinate array, or an expression string (parsed with the
    truncation radius applied to r).  With a potential, A_0 is only
    assembled: the window takes its extremes from laplacian_bounds, and
    ``stage.op0`` is decomposed on first read.  The eigendata and the
    bounds go through the operator cache in ``cache_dir`` (None: no cache),
    so a stage whose results are all cached runs no solve at all.
    """
    grid = build_grid(spec, h)
    if potential is None:
        op = op0 = assemble_laplacian(grid)
    else:
        if isinstance(potential, str):
            vfield, _ = potential_from_expression(grid, potential, trunc_radius)
        elif callable(potential) and not isinstance(potential, (GridFunction, np.ndarray)):
            vfield = GridFunction.from_callable(grid, potential)
        else:
            vfield = potential
        op = assemble_schrodinger(grid, vfield)
        op0 = assemble_laplacian(grid)
    cached_eigendecompose(op, dense_cap, cache_dir)
    lo, hi = op.lam_pos_min, op.lam_max
    if op0 is not op:
        lo0, hi0 = cached_laplacian_bounds(op0, cache_dir)
        lo, hi = min(lo, lo0), max(hi, hi0)
    sys = build_system(lo, hi, lam0=op.lam0, profile=profile)
    return Stage(grid, op, op0, sys, dense_cap, cache_dir)


def build_stages(spec: DomainSpec, hs: Sequence[float], **kwargs) -> list[Stage]:
    """One stage per spacing, coarse to fine."""
    return [build_stage(spec, h, **kwargs) for h in sorted(hs, reverse=True)]


def _as_stages(stages) -> list[Stage]:
    if isinstance(stages, Stage):
        return [stages]
    out = list(stages)
    if not out:
        raise ValueError("need at least one stage")
    return out


# ---------------------------------------------------------------------------
# function families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionFamily:
    """Reproducible test-vector generator, identified by (tag, seed, count).

    The random parameters are drawn from a stream that depends only on the
    tag and seed, so the same family realized on two grids of the same
    domain produces matched functions (bump centers, layer widths and
    low-mode coefficients agree across refinement).
    """

    tag: str = "random-eigenmix"
    seed: int = 0
    count: int = 8

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}; expected one of {FAMILY_TAGS}")
        if self.count < 1:
            raise ValueError(f"family count must be positive, got {self.count}")

    def sample(self, stage: Stage) -> list[GridFunction]:
        grid, op = stage.grid, stage.op
        rng = np.random.default_rng(self.seed)
        coords = grid.coordinates
        lo, hi, diam = _bbox(grid)
        out: list[GridFunction] = []

        if self.tag == "random-eigenmix":
            op.require_eigendata()
            for i in range(self.count):
                # per-function substream: the first k coefficients agree across
                # grids, so refinement only adds high modes
                sub = np.random.default_rng([self.seed, i])
                c = sub.standard_normal(op.num_nodes)
                out.append(GridFunction(grid, op.eigvecs @ c))
            return out

        if self.tag == "bump":
            u = rng.uniform(size=(self.count, grid.n))
            widths = np.exp(rng.uniform(math.log(0.03), math.log(0.25), size=self.count))
            for i in range(self.count):
                center = lo + u[i] * (hi - lo)
                sigma = max(widths[i] * diam, 2.0 * grid.h)
                d2 = np.sum((coords - center) ** 2, axis=1)
                out.append(GridFunction(grid, np.exp(-d2 / (2.0 * sigma * sigma))))
            return out

        if self.tag == "single-eigenvector":
            op.require_eigendata()
            ks = np.unique(np.round(np.geomspace(1, op.num_nodes, self.count)).astype(int) - 1)
            scale = grid.cell_measure ** -0.5
            for k in ks:
                out.append(GridFunction(grid, op.eigvecs[:, int(k)] * scale))
            return out

        if self.tag == "indicator":
            u = rng.uniform(size=(self.count, grid.n))
            radii = rng.uniform(0.05, 0.25, size=self.count)
            for i in range(self.count):
                center = lo + u[i] * (hi - lo)
                rho = max(radii[i] * diam, 3.0 * grid.h)
                inside = np.sum((coords - center) ** 2, axis=1) <= rho * rho
                out.append(GridFunction(grid, inside.astype(float)))
            return out

        # boundary-layer
        dist = _boundary_distance(op)
        widths = np.exp(rng.uniform(math.log(1.0), math.log(10.0), size=self.count))
        for i in range(self.count):
            ell = max(widths[i] * grid.h, grid.h)
            out.append(GridFunction(grid, np.exp(-dist / ell)))
        return out


def _bbox(grid: Grid) -> tuple[np.ndarray, np.ndarray, float]:
    coords = grid.coordinates
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    diam = float(np.linalg.norm(hi - lo)) + grid.h
    return lo, hi, diam


def _mollifier_stack(grid: Grid, count: int) -> np.ndarray:
    """Deterministic interior mollifiers representing the smooth test class.

    Centers sweep the middle of the bounding box and widths are fixed
    fractions of its diameter, so the same physical functions appear at
    every refinement level (no dependence on h or on any seed).  Widths are
    capped so the Gaussian reaches the boundary below machine epsilon
    (distance > 8.5 sigma): visible boundary values would leak slowly
    decaying high shells into the weighted seminorms."""
    lo, hi, diam = _bbox(grid)
    coords = grid.coordinates
    fracs = np.linspace(0.42, 0.58, count)
    widths = np.geomspace(0.042, 0.049, count) * diam
    cols = []
    for f, sg in zip(fracs, widths):
        center = lo + f * (hi - lo)
        d2 = np.sum((coords - center) ** 2, axis=1)
        cols.append(np.exp(-d2 / (2.0 * sg * sg)))
    return np.column_stack(cols)


def _boundary_distance(op: SpectralOperator) -> np.ndarray:
    """Distance to the domain boundary, via lattice hops to the outermost
    interior layer (nodes missing at least one stencil neighbor), found by
    a breadth-first search over the operator's off-diagonal entries."""
    data, indices, indptr = op.csr
    rows = _csr_rows(indptr)
    edge = (indices != rows) & (data != 0.0)
    rows, cols = rows[edge], indices[edge]
    frontier = np.bincount(rows, minlength=op.num_nodes) < 2 * op.grid.n
    if not frontier.any():
        frontier[:] = True
    hops = np.where(frontier, 0.0, np.inf)
    level = 0.0
    while frontier.any():
        level += 1.0
        reached = np.zeros_like(frontier)
        reached[cols[frontier[rows]]] = True
        frontier = reached & np.isinf(hops)
        hops[frontier] = level
    return (hops + 1.0) * op.grid.h


# ---------------------------------------------------------------------------
# reports and the per-stage driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one check: named constants per stage plus sweep metadata."""

    check: str
    anchor: str
    constants: dict[str, tuple[float, ...]]
    passed: bool
    h_values: tuple[float, ...]
    num_nodes: tuple[int, ...]
    seed: int
    family: str
    window: tuple[int, int]
    wall_ms: float
    details: dict = field(default_factory=dict)

    @property
    def constant(self) -> float:
        """Headline value: the first constant at the finest stage."""
        first = next(iter(self.constants.values()))
        return first[-1]

    def iter_rows(self):
        """Flatten to verify.csv rows (check, anchor, constant, pass, h, N, seed, wall_ms)."""
        multi = len(self.constants) > 1
        for key, per_stage in self.constants.items():
            label = f"{self.check}[{key}]" if multi else self.check
            for h, nn, c in zip(self.h_values, self.num_nodes, per_stage):
                yield {
                    "check": label,
                    "anchor": self.anchor,
                    "constant": c,
                    "pass": self.passed,
                    "h": h,
                    "N": nn,
                    "seed": self.seed,
                    "wall_ms": self.wall_ms,
                }


def _stable(values: Sequence[float], factor: float) -> bool:
    vals = [float(v) for v in values]
    if any(not math.isfinite(v) or v < 0.0 for v in vals):
        return False
    for a, b in zip(vals, vals[1:]):
        if (a == 0.0) != (b == 0.0):
            return False
        if a != 0.0 and not (1.0 / factor <= b / a <= factor):
            return False
    return True


def _drive(
    check: str,
    anchor: str,
    stages,
    family: FunctionFamily | str | None,
    measure: Callable[[Stage, np.ndarray | None], dict],
    stability: float | None = None,
    gated: Sequence[str] | None = None,
    details: dict | None = None,
    finish: Callable[[dict[str, tuple], list[Stage]], tuple[bool, dict]] | None = None,
) -> VerifyReport:
    """Run ``measure(stage, cols)`` at every stage and build the report.

    ``cols`` holds the family sampled on the stage, one function per
    column (``family`` None: the default family); a string ``family`` only
    labels a check that samples none, and ``cols`` is then None.  The
    ``{key: value}`` dicts ``measure`` returns are stacked per key in stage
    order.  ``finish(values, stages)`` returns an extra pass condition and
    details, and may pop side values; the rest are the report's constants.
    With a ``stability`` factor, the ``gated`` constants (default: all)
    must also be stable across stages.
    """
    t0 = time.perf_counter()
    stages = _as_stages(stages)
    if family is None:
        family = FunctionFamily()
    sampled = not isinstance(family, str)
    rows = []
    for stage in stages:
        cols = np.column_stack([f.values for f in family.sample(stage)]) if sampled else None
        rows.append(measure(stage, cols))
    values = {key: tuple(row[key] for row in rows) for key in rows[0]}
    passed, extra = finish(values, stages) if finish else (True, {})
    if stability is not None:
        passed = passed and all(_stable(values[k], stability) for k in gated or values)
    return VerifyReport(
        check=check,
        anchor=anchor,
        constants=values,
        passed=bool(passed),
        h_values=tuple(st.h for st in stages),
        num_nodes=tuple(st.grid.num_nodes for st in stages),
        seed=family.seed if sampled else 0,
        family=family.tag if sampled else family,
        window=(stages[0].sys.j_min, stages[0].sys.j_max),
        wall_ms=(time.perf_counter() - t0) * 1e3,
        details={**(details or {}), **extra},
    )


def _ratio_max(num, den) -> float:
    """Largest num / den over the entries with den > 0; 0 when there are none."""
    num, den = np.asarray(num, float), np.asarray(den, float)
    good = den > 0.0
    return float((num[good] / den[good]).max(initial=0.0))


# ---------------------------------------------------------------------------
# admissibility: each check's rules on its parameters, judged before any stage
# ---------------------------------------------------------------------------


def _bernstein_rules(pairs, **_):
    for r, p in pairs:
        if not (1.0 <= r <= p):
            raise InvalidExponent(f"need 1 <= r <= p, got (r, p) = ({r}, {p})", param="pairs")


def _duality_rules(p, q, **_):
    if not (1.0 <= p < math.inf) or not (1.0 <= q < math.inf):
        raise InvalidExponent(f"duality needs 1 <= p, q < inf, got ({p}, {q})",
                              param="q" if 1.0 <= p < math.inf else "p")


def _embeddings_rules(gain, hom_gain, square_p, chain, **_):
    eps, q, q0 = gain[1], gain[3], gain[4]
    r, p, q_h, q0_h = hom_gain[1:]
    p_i, p_ii = square_p
    for param, bad, message in (
        ("gain", eps < 0.0 or (eps == 0.0 and q > q0),
         "smoothness-gain embedding needs eps > 0, or eps = 0 with q <= q0"),
        ("hom_gain", r > p or q_h > q0_h, "exponent-gain embedding needs r <= p and q <= q0"),
        ("square_p", not 1.0 < p_i <= 2.0, f"L^p -> B^0_(p,2) needs 1 < p <= 2, got p = {p_i}"),
        ("square_p", not 2.0 <= p_ii < math.inf,
         f"B^0_(p,2) -> L^p needs 2 <= p < inf, got p = {p_ii}"),
        ("chain", chain[3] < 1, f"seminorm order M must be >= 1, got {chain[3]}"),
    ):
        if bad:
            raise IndexConstraintViolated(message, param=param)


def _equivalence_rules(n, s, p, assert_window, **_):
    """The open window (-min(2, n(1-1/p)), min(n/p, 2)) of smoothness
    indices in which the equivalence is asserted, and whether s is in it."""
    if n < 2:
        raise AssumptionViolated(f"operator-norm equivalence needs n >= 2, got n = {n}")
    lo, hi = -min(2.0, n * (1.0 - 1.0 / p)), min(n / p, 2.0)
    if assert_window and not lo < s < hi:
        raise AssumptionViolated(
            f"smoothness s = {s} outside the admissible window ({lo:g}, {hi:g})", param="s")
    return lo, hi, lo < s < hi


def _heat_gaussian_rules(t_grid, **_) -> np.ndarray:
    ts = np.asarray(2.0 ** np.arange(-10, 1) if t_grid is None else sorted(t_grid), float)
    if ts.size == 0 or np.any(ts <= 0.0):
        raise InvalidCheckParameter("heat check needs a nonempty positive t grid", param="t_grid")
    return ts


def _subspace_characterization_rules(n, s, p, q, **_):
    if not (s < n / p - 1e-12 or abs(s - n / p) <= 1e-12 and q == 1.0):
        raise IndexConstraintViolated(
            f"need s < n/p or (s, q) = (n/p, 1); got s = {s}, n/p = {n / p:g}, q = {q}", param="s")


def _lorentz_bernstein_rules(p0, p, **_):
    if not (1.0 <= p0 < p < math.inf):
        raise IndexConstraintViolated(
            f"need 1 <= p0 < p < inf, got p0 = {p0}, p = {p}", param="p0")


# check name -> its rules, called as rules(n=n, **params) with every keyword
# argument of the check, defaults included (the rules declare none): what
# the check raises before it measures anything, with the error's ``param``
# naming the parameter at fault (None: the domain)
CHECK_RULES: dict[str, Callable] = {
    "bernstein": _bernstein_rules, "duality": _duality_rules, "embeddings": _embeddings_rules,
    "equivalence_AV_A0": _equivalence_rules, "heat_gaussian": _heat_gaussian_rules,
    "subspace_characterization": _subspace_characterization_rules,
    "lorentz_bernstein": _lorentz_bernstein_rules,
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_resolution_identity(
    stages,
    family: FunctionFamily | None = None,
    tol: Tolerance = 1e-10,
    homogeneous: Boolean = False,
) -> VerifyReport:
    """Relative L2 residual of f minus its dyadic resolution.

    Inhomogeneous: f = psi(A) f + sum_{j>=1} phi_j(sqrt A) f.
    Homogeneous:   f = sum_{j in window} phi_j(sqrt A) f, defined only for
    operators with strictly positive spectrum (zero eigenvalues raise).
    """

    def measure(stage, cols):
        op, dsys = stage.op, stage.sys
        if homogeneous:
            check_homogeneous_spectrum(op)
        total = np.zeros_like(op.eigvals) if homogeneous else op.dyadic_weights(dsys, "psi")
        for j in dsys.window if homogeneous else dsys.inhom_window:
            total = total + op.dyadic_weights(dsys, "phi", j)
        defect = spectral_synthesis(op, 1.0 - total, spectral_coefficients(op, cols))
        residual = _ratio_max(np.linalg.norm(defect, axis=0), np.linalg.norm(cols, axis=0))
        return {"residual": residual}

    variant = "hom" if homogeneous else "inhom"
    anchor = (
        "f = sum_j phi_j(sqrt A) f"
        if homogeneous
        else "f = psi(A) f + sum_{j>=1} phi_j(sqrt A) f"
    )
    return _drive(
        "resolution_identity", anchor, stages, family, measure,
        details={"tol": tol, "variant": variant},
        finish=lambda values, _: (all(r <= tol for r in values["residual"]), {}),
    )


def _lifted(g: np.ndarray, lam: np.ndarray, a: float) -> np.ndarray:
    """lam^a g, exactly zero off the support of g."""
    if a == 0:
        return g
    out = np.zeros_like(g)
    pos = g != 0.0
    out[pos] = (lam[pos] ** float(a)) * g[pos]
    return out


def check_bernstein(
    stages,
    family: FunctionFamily | None = None,
    pairs: Annotated[
        Sequence[tuple[float, float]], _array(_tuple(_EXPONENT, _EXT_EXPONENT), 1)
    ] = ((1.0, math.inf), (1.0, 2.0), (2.0, 2.0)),
    alphas: Annotated[Sequence[float], _array(_NUMBER, 1)] = (0, 1),
    stability: Stability = DEFAULT_STABILITY,
) -> VerifyReport:
    """Block smoothing bounds ||A^a phi_j(sqrt A) f||_p <= C 2^{(n(1/r-1/p)+2a)j} ||f||_r.

    With family=None the L^r -> L^p norms are taken from the kernel (exact
    for r=1, p=inf and r=p=2); otherwise the constant is measured over the
    family.  Pass requires each measured constant stable across stages.
    """
    _bernstein_rules(pairs=pairs)
    # the r = 1 and p = inf norms of one block all read one kernel
    needs_kernel = any(r == 1.0 or math.isinf(p) for r, p in pairs)

    def key(r, p, a):
        return f"r={r:g},p={p:g},a={a:g}"

    def measure(stage, cols):
        op, dsys = stage.op, stage.sys
        n, meas = stage.grid.n, stage.grid.cell_measure
        if cols is not None:
            coeff = spectral_coefficients(op, cols)
        prof: dict[str, dict[int, float]] = {key(r, p, a): {} for r, p in pairs for a in alphas}
        for j in dsys.window:
            for a in alphas:
                g = _lifted(op.dyadic_weights(dsys, "phi", j), op.eigvals, a)
                if cols is None:
                    def sym(lam, j=j, a=a, dsys=dsys):
                        return _lifted(dsys.phi_sqrt(j, lam), lam, a)

                    opfun = OperatorFunction(op, sym, weights=g)
                    kern = kernel(opfun) if needs_kernel else None
                else:
                    block = spectral_synthesis(op, g, coeff)
                for r, p in pairs:
                    if cols is None:
                        raw = mixed_opnorm(opfun, r, p, kern=kern).value
                    else:
                        raw = _ratio_max(lp_columns(block, meas, p), lp_columns(cols, meas, r))
                    gain = n * (1.0 / r - (0.0 if math.isinf(p) else 1.0 / p))
                    prof[key(r, p, a)][j] = raw / 2.0 ** ((gain + 2.0 * a) * j)
        return {**{k: max([0.0, *per_j.values()]) for k, per_j in prof.items()}, "per_j": prof}

    def finish(values, stages):
        profiles = values.pop("per_j")[-1]
        per_j = {k: {str(j): c for j, c in prof.items()} for k, prof in profiles.items()}
        return True, {"per_j": per_j}

    return _drive(
        "bernstein",
        "||A^a phi_j(sqrt A) f||_p <= C 2^{(n(1/r-1/p)+2a)j} ||f||_r",
        stages, "opnorm" if family is None else family, measure, stability, finish=finish,
    )


def _adversarial_pairs(
    op: SpectralOperator,
    dsys: DyadicSystem,
    fvals: np.ndarray,
    s: float,
    p: float,
    q: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Near-extremal dual functions of the columns of fvals: per column f,
    the fattened blocks of the pointwise L^p duals of the blocks of f, with
    the l^q-extremal weights 2^{sj} a_j^{q-1}.  A block whose L^p norm is at
    most 1e-14 times the largest block norm of its own column is left out.

    Returns the indices of the columns with a nonzero block and, one column
    each, their dual functions.  The whole family is built at once: one
    transform of fvals, one synthesis per shell for every column, one
    transform of all kept duals, stacked, and one fattened synthesis per
    shell."""
    js = list(dsys.inhom_window)
    coeff = spectral_coefficients(op, fvals)
    blocks = [spectral_synthesis(op, op.dyadic_weights(dsys, "phi", j), coeff) for j in js]
    bnorms = np.array([lp_columns(b, op.grid.cell_measure, p) for b in blocks])  # (J, m)
    top = bnorms.max(axis=0, initial=0.0)
    live = np.flatnonzero(top != 0.0)
    if live.size == 0:
        return live, fvals[:, :0]
    kept = [np.flatnonzero(~(nj <= 1e-14 * top)) for nj in bnorms]
    duals = np.column_stack([b[:, c] for b, c in zip(blocks, kept)])
    duals = np.sign(duals) if p == 1.0 else np.sign(duals) * np.abs(duals) ** (p - 1.0)
    dual_coeff = spectral_coefficients(op, duals)
    G = np.zeros_like(fvals)
    start = 0
    for j, c, nj in zip(js, kept, bnorms):
        if c.size == 0:
            continue
        a_j = 2.0 ** (s * j) * nj[c]
        w = 2.0 ** (s * j) * a_j ** (q - 1.0) / nj[c] ** (p - 1.0)
        fat = op.dyadic_weights(dsys, "fat", j)
        G[:, c] += w * spectral_synthesis(op, fat, dual_coeff[:, start:start + c.size])
        start += c.size
    return live, G[:, live]


def check_duality(
    stages,
    family: FunctionFamily | None = None,
    s: Number = 0.0,
    p: Exponent = 2.0,
    q: Exponent = 2.0,
    stability: Stability = DEFAULT_STABILITY,
    attain_frac: Annotated[float, _number(0.0, 1.0)] = 0.1,
) -> VerifyReport:
    """Pairing bound |<f,g>| <= C ||f||_{B^s_{p,q}} ||g||_{B^{-s}_{p',q'}}.

    C is measured over all family pairs plus constructed near-extremal
    pairs; pass needs C stable across stages and the constructed pairs to
    reach at least attain_frac of the measured constant at every stage.
    ``attained`` is the largest ratio over the constructed pairs (f, g_f),
    one per family function f of nonzero norm.  The g_f of the whole family
    come from two coefficient transforms (_adversarial_pairs), and the
    dual-side norms of all of them from one more.
    """
    _duality_rules(p=p, q=q)
    # conjugate exponents; p and q are finite here
    pc, qc = (math.inf if x == 1.0 else x / (x - 1.0) for x in (p, q))

    def measure(stage, cols):
        op, dsys, grid = stage.op, stage.sys, stage.grid
        nf = np.asarray(besov_norm(op, dsys, cols, s, p, q))
        ng = np.asarray(besov_norm(op, dsys, cols, -s, pc, qc))
        c_meas = _ratio_max(grid.cell_measure * np.abs(cols.T @ cols), np.outer(nf, ng))
        live = np.flatnonzero(nf != 0.0)
        got, G = _adversarial_pairs(op, dsys, cols[:, live], s, p, q)
        attained = 0.0
        if got.size:
            # the dual-side norms of all constructed pairs from one transform
            nG = besov_norm(op, dsys, G, -s, pc, qc)
            attained = max((abs(grid.cell_measure * float(cols[:, i] @ g)) / (nf[i] * ng)
                            for i, g, ng in zip(live[got], G.T, nG) if ng != 0.0), default=0.0)
        return {"C": max(c_meas, attained), "attained": attained}

    return _drive(
        "duality",
        "|<f,g>| <= C ||f||_{B^s_{p,q}} ||g||_{B^{-s}_{p',q'}}",
        stages, family, measure, stability, gated=("C",),
        details={"s": s, "p": p, "q": q, "attain_frac": attain_frac},
        finish=lambda v, _: (all(a >= attain_frac * c for a, c in zip(v["attained"], v["C"])), {}),
    )


def check_embeddings(
    stages,
    family: FunctionFamily | None = None,
    gain: Annotated[
        tuple[float, float, float, float, float],
        _tuple(_NUMBER, _NUMBER, _EXPONENT, _EXT_EXPONENT, _EXPONENT),
    ] = (0.5, 0.5, 2.0, math.inf, 1.0),
    hom_gain: Annotated[tuple[float, float, float, float, float],
                        _tuple(_NUMBER, *[_EXPONENT] * 4)] = (0.0, 1.0, 2.0, 1.0, 2.0),
    square_p: Annotated[tuple[float, float], _tuple(_EXPONENT, _EXPONENT)] = (1.5, 3.0),
    chain: Annotated[tuple[float, float, float, int],
                     _tuple(_NUMBER, _EXPONENT, _EXPONENT, _NUMBER)] = (1.0, 2.0, 2.0, 3),
    stability: Stability = DEFAULT_STABILITY,
) -> VerifyReport:
    """Inclusion constants for the standard embedding battery.

    gain     = (s, eps, p, q, q0):   B^{s+eps}_{p,q} -> B^s_{p,q0}
    hom_gain = (s, r, p, q, q0):     hom B^{s+n(1/r-1/p)}_{r,q} -> hom B^s_{p,q0}
    square_p = (p_i, p_ii):          L^p -> B^0_{p,2} for 1 < p <= 2, and
                                     B^0_{p,2} -> L^p for 2 <= p < inf
    chain    = (s, p, q, M):         seminorm chain p_M-control of B^s_{p,q}
                                     and the dual pairing bound against p_M

    The chain rows quantify over the smooth test class, so their vectors are
    a deterministic set of dilated mollifiers: rough eigenmixes are not
    uniformly in that class, and randomly drawn widths near the grid scale
    leave top-shell content that fakes a refinement drift.
    """
    _embeddings_rules(gain=gain, hom_gain=hom_gain, square_p=square_p, chain=chain)
    s_g, eps, p_g, q_g, q0_g = gain
    s_h, r_h, p_h, q_h, q0_h = hom_gain
    p_i, p_ii = square_p
    s_c, p_c, q_c, M = chain
    count = (family or FunctionFamily()).count

    keys = [
        f"B^{{{s_g + eps:g}}}_{{{p_g:g},{q_g:g}}}->B^{{{s_g:g}}}_{{{p_g:g},{q0_g:g}}}",
        f"hom:r={r_h:g}->p={p_h:g}",
        f"L^{p_i:g}->B^0_{{{p_i:g},2}}",
        f"B^0_{{{p_ii:g},2}}->L^{p_ii:g}",
        "X->B",
        "B->X'",
    ]

    def measure(stage, cols):
        op, dsys, grid = stage.op, stage.sys, stage.grid
        meas = grid.cell_measure
        out = {}

        src = besov_norm(op, dsys, cols, s_g + eps, p_g, q_g)
        tgt = besov_norm(op, dsys, cols, s_g, p_g, q0_g)
        out[keys[0]] = _ratio_max(tgt, src)

        s_src = s_h + grid.n * (1.0 / r_h - 1.0 / p_h)
        src = besov_norm(op, dsys, cols, s_src, r_h, q_h, homogeneous=True)
        tgt = besov_norm(op, dsys, cols, s_h, p_h, q0_h, homogeneous=True)
        out[keys[1]] = _ratio_max(tgt, src)

        out[keys[2]] = _ratio_max(
            besov_norm(op, dsys, cols, 0.0, p_i, 2.0), lp_columns(cols, meas, p_i)
        )
        out[keys[3]] = _ratio_max(
            lp_columns(cols, meas, p_ii), besov_norm(op, dsys, cols, 0.0, p_ii, 2.0)
        )

        scols = _mollifier_stack(grid, count)
        sb = np.asarray(besov_norm(op, dsys, scols, s_c, p_c, q_c))
        pM = test_seminorms(op, dsys, scols, M)[0]
        out[keys[4]] = _ratio_max(sb, pM)
        # f ranges over the requested family plus the smooth one; the smooth
        # side keeps the max from drifting when the family norms grow
        fside = np.column_stack([cols, scols])
        bnorms = np.asarray(besov_norm(op, dsys, fside, s_c, p_c, q_c))
        out[keys[5]] = _ratio_max(meas * np.abs(fside.T @ scols), np.outer(bnorms, pM))
        return out

    return _drive(
        "embeddings", "||f||_target <= C ||f||_source", stages, family, measure, stability,
        details={"gain": gain, "hom_gain": hom_gain, "square_p": square_p, "chain": chain},
    )


def check_lifting(
    stages,
    family: FunctionFamily | None = None,
    s: Number = 1.0,
    s0: Number = 2.0,
    p: Exponent = 2.0,
    q: Exponent = 2.0,
    homogeneous: Boolean = True,
    stability: Stability = DEFAULT_STABILITY,
) -> VerifyReport:
    """Lifting: A^{s0/2} maps hom B^s_{p,q} to hom B^{s-s0}_{p,q} with
    comparable norms; inhomogeneous variant uses (lam0^2 + 1 + A)^{s0/2}.

    Both directions (+s0 and -s0) are measured; single eigenvectors land in
    the bracket [2^{-|s0|}, 2^{|s0|}] around 1.
    """
    directions = [s0] if s0 == 0.0 else [s0, -s0]

    def measure(stage, cols):
        op, dsys = stage.op, stage.sys
        out, ranges = {}, {}
        for d in directions:
            key = f"s0={d:g}"
            if homogeneous:
                lifted = power(op, d / 2.0, cols)
                num = besov_norm(op, dsys, lifted, s - d, p, q, homogeneous=True)
                den = besov_norm(op, dsys, cols, s, p, q, homogeneous=True)
            else:
                shift = op.lam0**2 + 1.0
                lifted = apply_symbol(op, lambda lam, d=d: (shift + lam) ** (d / 2.0), cols)
                num = besov_norm(op, dsys, lifted, s - d, p, q)
                den = besov_norm(op, dsys, cols, s, p, q)
            num, den = np.asarray(num, float), np.asarray(den, float)
            good = den > 0.0
            ratios = num[good] / den[good]
            out[key] = float(ratios.max(initial=0.0))
            if ratios.size:
                ranges[key] = (float(ratios.min()), float(ratios.max()))
        return {**out, "ranges": ranges}

    def finish(values, stages):
        # the range of each direction at the finest stage that has one
        ranges = {k: list(v) for per_stage in values.pop("ranges") for k, v in per_stage.items()}
        return True, {"ratio_range": ranges}

    anchor = (
        "||A^{s0/2} f||_{hom B^{s-s0}_{p,q}} ~ ||f||_{hom B^s_{p,q}}"
        if homogeneous
        else "||(lam0^2+1+A)^{s0/2} f||_{B^{s-s0}_{p,q}} ~ ||f||_{B^s_{p,q}}"
    )
    return _drive(
        "lifting", anchor, stages, family, measure, stability,
        details={"s": s, "s0": s0, "p": p, "q": q}, finish=finish,
    )


def _symmetry_details(stages: Sequence[Stage]) -> dict[str, list[int]]:
    """The lattice symmetry group order and orbit count of each stage."""
    return {"symmetry_order": [st.symmetry.order for st in stages],
            "orbits": [int(st.symmetry.reps.size) for st in stages]}


def _max_column_l1(left: np.ndarray, basis: np.ndarray, cols: np.ndarray,
                   mid: np.ndarray | None = None) -> float:
    """Largest column L1 norm of left @ basis[:, cols].T, or with ``mid`` of
    left @ (mid @ basis[:, cols].T), taken over blocks of its output
    columns so the full product is never formed.  The output has one column
    per row of ``basis``, so rows gathered from an eigenbasis give the
    maximum over those columns only.  The factor mid @ basis[:, cols].T is
    formed whole: it has no more entries than ``left`` when mid has fewer
    rows than columns, the case it is for."""
    starts = range(0, basis.shape[0], _ROW_BLOCK)
    if mid is None:
        blocks = (left @ basis[lo:lo + _ROW_BLOCK, cols].T for lo in starts)
    else:
        right = mid @ basis[:, _contiguous(cols)].T
        blocks = (left @ right[:, lo:lo + _ROW_BLOCK] for lo in starts)
    return max(float(np.abs(block).sum(axis=0).max()) for block in blocks)


def _cross_block_tails(stage: Stage) -> dict[int, list[tuple[int, float, float]]]:
    """Cross-block coupling between the two eigenbases at separated scales.

    phi_j(sqrt A_V) lives on sqrt-lambda in (2^{j-1}, 2^{j+1}) and the
    fattened Phi_k(sqrt A_0) on (2^{k-2}, 2^{k+2}), so the supports are
    disjoint exactly when j - k >= 3; only those offsets isolate the
    potential-driven coupling (for V = 0 every such block is identically
    zero).  Returns, per row j, the list of (m, L1 -> L1 norm, L2 -> L2
    norm) over m = j - k >= 3.  The L1 norm is the exact max column sum of
    the kernel (streamed, so the N x N kernel is never formed); the
    reference decay rate 2^{-2m} is attached to this norm, while the L2
    norm decays at a strictly smaller interpolated rate.

    The kernel is L M R^T with L = U_V[:, rows] (N x r, a view when the
    rows of the phi_j shell are one range), M = phi_j W Phi_k the r x c
    coupling block with both shells' weights in it, and R = U_0[reps, cols]
    (R' x c).  Only the columns at the orbit representatives of
    Stage.symmetry are formed: T(Px, Py) = T(x, y) for a symmetry P, so
    column Py has the L1 norm of column y.  A trivial group forms all N.

    W = U_V^T U_0 is never formed whole.  The Phi_k supports are ranges of
    the ascending spectrum, so every k <= j - 3 reads a prefix of U_0's
    columns, and row j forms only its block U_V[:, rows]^T U_0[:, :end]:
    2 N r end flops, where end is one past the last column any such k reads.

    The kernel costs 2 N c (r + R') flops as (L M) R^T and 2 r R' (N + c)
    as L (M R^T).  It is formed as (L M) R^T when c <= r and as L (M R^T)
    otherwise, and streamed over blocks of its columns; no factor formed
    has more entries than L.  With R' < N the flop counts pick L (M R^T) at
    a few pairs with c <= r too, but there it measured slower (at h = 1/24
    on the disk, 21.6 against 20.3 ms at r = 1490, c = 275, R' = 244, on a
    2-core x86 box with 2 OpenBLAS threads): it reads all of L again for
    each block of output columns.
    """
    opv, op0, dsys = stage.op, stage.op0, stage.sys
    reps = stage.symmetry.reps
    basis = op0.eigvecs[_contiguous(reps)]
    # the Phi_k that some phi_j of the window is separated from: k <= j_max - 3
    supports = {k: np.flatnonzero(op0.dyadic_weights(dsys, "fat", k)) for k in dsys.window[:-3]}
    out: dict[int, list[tuple[int, float, float]]] = {}
    for j in dsys.window:
        gv = opv.dyadic_weights(dsys, "phi", j)
        rows = np.flatnonzero(gv)
        ks = [k for k, cols in supports.items() if k <= j - 3 and cols.size]
        if rows.size == 0 or not ks:
            continue
        left = opv.eigvecs[:, _contiguous(rows)]
        W = left.T @ op0.eigvecs[:, :max(supports[k][-1] for k in ks) + 1]
        pts: list[tuple[int, float, float]] = []
        for k in ks:
            cols, g0 = supports[k], op0.dyadic_weights(dsys, "fat", k)
            mid = gv[rows, None] * (W[:, _contiguous(cols)] * g0[cols])
            if cols.size <= rows.size:
                one_norm = _max_column_l1(left @ mid, basis, cols)
            else:
                one_norm = _max_column_l1(left, basis, cols, mid=mid)
            pts.append((j - k, one_norm, float(np.linalg.norm(mid, 2))))
        out[j] = pts
    return out


def _tail_slope(
    tails: dict[int, list[tuple[int, float, float]]],
    index: int,
    floor: float = 1e-13,
) -> float:
    """Median over rows of the least-squares log2 slope of the row tail.

    Per-row fits keep the row-to-row offsets (which vary with the shell)
    out of the decay exponent; rows need at least two points above floor."""
    slopes = []
    for pts in tails.values():
        ms = np.array([p[0] for p in pts if p[index] > floor], float)
        if ms.size < 2:
            continue
        ys = np.array([math.log2(p[index]) for p in pts if p[index] > floor])
        slopes.append(float(np.polyfit(ms, ys, 1)[0]))
    if not slopes:
        return math.nan
    return float(np.median(slopes))


def check_equivalence_AV_A0(
    stages,
    family: FunctionFamily | None = None,
    s: Number = 0.5,
    p: Exponent = 2.0,
    q: Exponent = 2.0,
    radius: Annotated[float, _either("inf", otherwise=_POSITIVE)] = math.inf,
    stability: Stability = DEFAULT_STABILITY,
    assert_window: Boolean = True,
    control_tol: Tolerance = 1e-12,
    slope_tol: Tolerance = 0.5,
) -> VerifyReport:
    """Norm equivalence between the potential and free operators.

    Measures R = ||f||_{B^s_{p,q}(A_V)} / ||f||_{B^s_{p,q}(A_0)} over the
    family; pass needs the spread R_max/R_min stable across stages and the
    cross-block decay ||phi_j(sqrt A_V) Phi_k(sqrt A_0)||_{1->1} to fit
    2^{-2(j-k)} within slope_tol on the log2 scale (per-row fits over the
    separated offsets j - k >= 3, median across rows; the L2 -> L2 tail
    exponent is reported in details without a gate since only a strictly
    smaller interpolated rate holds for it).  Each tail kernel is formed
    in the cheaper product order and streamed in column blocks (see
    _cross_block_tails).  V = 0 stages are the control: every ratio must
    equal 1 to control_tol.

    Needs n >= 2 and passing smallness flags for the negative part; s
    outside (-min(2, n(1-1/p)), min(n/p, 2)) either raises (assert mode)
    or is reported without a pass assertion.
    """
    stages = _as_stages(stages)
    n = stages[0].grid.n
    lo, hi, in_window = _equivalence_rules(n, s=s, p=p, assert_window=assert_window)
    kato_info: dict[str, float | bool] = {}
    for stage in stages:
        if stage.has_potential:
            rep = check_smallness(stage.grid, stage.op.potential, radius)
            kato_info = {
                "kato_value": rep.kato_value,
                "satisfies_strict": rep.satisfies_strict,
                "satisfies_weak": rep.satisfies_weak,
                "certificate": rep.certificate,
            }
            if not rep.satisfies_weak:
                raise AssumptionViolated(
                    f"negative part fails the smallness flags "
                    f"(kato_value = {rep.kato_value:.6g} at h = {stage.h:g})"
                )
            if n == 2:
                kato_info["potential_l1"] = float(
                    stage.grid.cell_measure * np.abs(stage.op.potential).sum()
                )

    def measure(stage, cols):
        opv, op0, dsys = stage.op, stage.op0, stage.sys
        nv = np.asarray(besov_norm(opv, dsys, cols, s, p, q), float)
        n0 = np.asarray(besov_norm(op0, dsys, cols, s, p, q), float)
        good = n0 > 0.0
        ratios = nv[good] / n0[good]
        if ratios.size == 0:
            raise AssumptionViolated("family produced no usable functions")
        r_max, r_min = float(ratios.max()), float(ratios.min())
        slopes = (math.nan, math.nan)
        if stage.has_potential:
            tails = _cross_block_tails(stage)
            slopes = (_tail_slope(tails, 1), _tail_slope(tails, 2))
        return {
            "spread": r_max / r_min if r_min > 0 else math.inf,
            "R_max": r_max,
            "R_min": r_min,
            "slope": slopes[0],
            "control_defect": float(np.abs(ratios - 1.0).max()),
            "slope_interp_l2": slopes[1],
        }

    def finish(values, stages):
        control_defects = list(values.pop("control_defect"))
        if any(st.has_potential for st in stages):
            slope = values["slope"][-1]
            ok = math.isfinite(slope) and abs(slope - (-2.0)) <= slope_tol
        else:
            ok = all(d <= control_tol for d in control_defects)
        return not in_window or ok, {
            "control_defect": control_defects,
            "slope_l1": list(values["slope"]),
            "slope_interp_l2": list(values.pop("slope_interp_l2")),
            **kato_info,
            **_symmetry_details(stages),
        }

    return _drive(
        "equivalence_AV_A0",
        "||f||_{B^s_{p,q}(A_V)} ~ ||f||_{B^s_{p,q}(A_0)}; "
        "||phi_j(sqrt A_V) Phi_k(sqrt A_0)||_{1->1} <= C 2^{-2(j-k)}",
        stages, family, measure, stability if in_window else None,
        gated=("spread",), finish=finish,
        details={
            "s": s, "p": p, "q": q,
            "window": [lo, hi], "in_window": in_window, "asserted": in_window,
        },
    )


def _sq_distances(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of xa and xb, summed over the axes
    in order: cdist(xa, xb, "sqeuclidean") bit for bit, exactly symmetric."""
    return sum(np.subtract.outer(xa[:, d], xb[:, d]) ** 2 for d in range(xa.shape[1]))


def check_heat_gaussian(
    stages,
    t_grid: Annotated[Sequence[float] | None, _either(None, otherwise=_array(_NUMBER))] = None,
    cstar: Annotated[float, _POSITIVE] = 8.0,
    stability: Stability = DEFAULT_STABILITY,
    dom_slack: Tolerance = 1e-12,
) -> VerifyReport:
    """Gaussian kernel envelope sup_{t, x, y} |K_t(x,y)| t^{n/2} e^{|x-y|^2/(C* t)}
    with the exponent constant C* frozen at 8.

    Pass needs the sup finite and stable across stages; when the potential
    carries a negative part that fails the smallness flags the sweep is
    restricted to t <= 1 and the e^{omega t} growth rate is fitted and
    reported.  Potentials also get the entrywise domination sub-check
    |e^{-tA_V}| <= e^{-tA_{-V_-}} (slack relative to the kernel scale).

    Both kernels are formed on the orbit representatives y of Stage.symmetry
    (recorded in details) only, and every x is scored against them.  A
    symmetry P has K(Px, Py) = K(x, y) and |Px - Py| = |x - y|, so that
    finds the same sup and gap, up to the round-off of the kernel entries.
    A trivial group scans the whole symmetric kernel.
    """
    ts = _heat_gaussian_rules(t_grid=t_grid)

    def measure(stage, cols):
        op, grid = stage.op, stage.grid
        n = grid.n
        kato_ok = True
        if stage.has_potential:
            vplus, vminus = decompose(grid, op.potential)
            if vminus.max() > 0.0:
                kato_ok = check_smallness(grid, op.potential).satisfies_weak
        t_used = ts if kato_ok else ts[ts <= 1.0]
        if t_used.size == 0:
            raise InvalidCheckParameter(
                "flagged potential restricts the sweep to t <= 1; none given"
            )
        coords = grid.coordinates

        # the dominating operator A_{-V_-}: the stage's free operator when
        # V_- = 0; none to form when V = -V_-, where domination is exact
        op_star = None
        if stage.has_potential and vplus.max() > 0.0:
            if vminus.max() == 0.0:
                op_star = stage.op0
            else:
                op_star = stage.decompose(
                    assemble_schrodinger(grid, GridFunction(grid, -vminus))
                )

        reps = stage.symmetry.reps
        full = reps.size == op.num_nodes
        # the distances from the representatives, once per stage
        d2_reps = None if full else _sq_distances(coords[reps], coords)

        def rows_of(o, t):
            # the kernel's rows at the representatives: K[reps, :] = K[:, reps]^T
            return heat_kernel(o, t) if full else heat_kernel(o, t, reps).T

        log_scores = []
        defect = 0.0
        for t in t_used:
            K = rows_of(op, t)
            K_star = None if op_star is None else rows_of(op_star, t)
            # entries at eigen-roundoff scale are numerically zero; scoring
            # them would amplify noise by e^(d^2/(C* t)) at small t, where
            # the true kernel tail is far below machine precision;
            # max(K.max(), -K.min()) is max|K| without forming |K|
            floor = op.num_nodes * np.finfo(float).eps * max(float(K.max()), -float(K.min()))
            shift = 0.5 * n * math.log(t)
            score, gap = -math.inf, math.inf
            # scores and the domination gap stream in row blocks (no N x N |K|,
            # mask, distance or difference matrix); the whole K and K* (see
            # kernel) and the distances are exactly symmetric, so with every
            # column formed a block starts at its diagonal
            for lo in range(0, K.shape[0], _ROW_BLOCK):
                rows = slice(lo, lo + _ROW_BLOCK)
                cols = slice(lo, None) if full else slice(None)
                absK = np.abs(K[rows, cols])
                nz = absK > floor
                d2 = _sq_distances(coords[rows], coords[cols]) if full else d2_reps[rows]
                logs = np.log(absK[nz]) + shift + d2[nz] / (cstar * t)
                score = max(score, float(logs.max(initial=-math.inf)))
                if K_star is not None:
                    gap = min(gap, float((K_star[rows, cols] - absK).min()))
            log_scores.append(score)
            if K_star is not None:
                scale = max(1.0, float(K_star.max()))
                defect = min(defect, gap / scale)
            del K, K_star  # freed before the next t forms its kernels
        with np.errstate(over="ignore"):
            sup = float(np.exp(max(log_scores)))
        omega = math.nan
        if not kato_ok and len(t_used) >= 2 and all(map(math.isfinite, log_scores)):
            omega = float(np.polyfit(t_used, np.asarray(log_scores), 1)[0])
        return {"C": sup, "domination_defect": defect, "omega": omega}

    def finish(values, stages):
        ok = all(d >= -dom_slack for d in values["domination_defect"])
        if not any(st.has_potential for st in stages):
            del values["domination_defect"]
        return ok, {"omega": list(values.pop("omega")), **_symmetry_details(stages)}

    return _drive(
        "heat_gaussian",
        "|K_t(x,y)| <= C t^{-n/2} exp(-|x-y|^2/(8t)); |e^{-tA_V}| <= e^{-tA_{-V_-}}",
        stages, "kernel", measure, stability, gated=("C",),
        details={"t_grid": [float(t) for t in ts], "cstar": cstar}, finish=finish,
    )


def check_partition_independence(
    stages,
    family: FunctionFamily | None = None,
    s: Number = 1.0,
    p: Exponent = 2.0,
    q: Exponent = 2.0,
    stability: Stability = DEFAULT_STABILITY,
    pointwise_tol: Tolerance = 1e-12,
) -> VerifyReport:
    """Besov norms under the two built-in transition profiles agree up to a
    stable constant; the overlap identity phi_j = phi_j (phi'_{j-1} +
    phi'_j + phi'_{j+1}) holds pointwise on a log-spaced frequency grid."""

    def measure(stage, cols):
        op, sys1 = stage.op, stage.sys
        sys2 = second_system(sys1)
        n1 = np.asarray(besov_norm(op, sys1, cols, s, p, q), float)
        n2 = np.asarray(besov_norm(op, sys2, cols, s, p, q), float)
        good = (n1 > 0.0) & (n2 > 0.0)
        ratios = n1[good] / n2[good]
        return {"C": float(max(ratios.max(initial=1.0), (1.0 / ratios).max(initial=1.0)))}

    def finish(values, stages):
        sys1 = stages[-1].sys
        sys2 = second_system(sys1)
        xs = np.geomspace(2.0 ** (sys1.j_min - 2), 2.0 ** (sys1.j_max + 2), 4001)
        defect = 0.0
        for j in sys1.window:
            lhs = sys1.phi(j, xs)
            overlap = sys2.phi(j - 1, xs) + sys2.phi(j, xs) + sys2.phi(j + 1, xs)
            defect = max(defect, float(np.abs(lhs - lhs * overlap).max()))
        return defect <= pointwise_tol, {"pointwise_defect": defect}

    return _drive(
        "partition_independence",
        "||f||_{B(sys1)} ~ ||f||_{B(sys2)}; phi_j = phi_j (phi'_{j-1}+phi'_j+phi'_{j+1})",
        stages, family, measure, stability,
        details={"s": s, "p": p, "q": q}, finish=finish,
    )


def check_subspace_characterization(
    stages,
    family: FunctionFamily | None = None,
    s: Number = 0.25,
    p: Exponent = 2.0,
    q: Exponent = 2.0,
    stability: Stability = DEFAULT_STABILITY,
) -> VerifyReport:
    """Low-frequency summability behind the subspace characterization:
    sum_{j<=0} 2^{(n/p)j} ||phi_j(sqrt A) f||_p <= C ||f||_{hom B^s_{p,q}},
    admissible for s < n/p or (s, q) = (n/p, 1)."""
    stages = _as_stages(stages)
    n = stages[0].grid.n
    _subspace_characterization_rules(n, s=s, p=p, q=q)

    def measure(stage, cols):
        op, dsys = stage.op, stage.sys
        js_low = [j for j in dsys.window if j <= 0]
        den = np.asarray(besov_norm(op, dsys, cols, s, p, q, homogeneous=True), float)
        if js_low:
            norms = block_lp_norms(op, dsys, cols, p, js_low)
            weights = 2.0 ** ((n / p) * np.asarray(js_low, float))
            tails = weights @ norms
        else:
            tails = np.zeros(cols.shape[1])
        return {"C": _ratio_max(tails, den)}

    return _drive(
        "subspace_characterization",
        "sum_{j<=0} 2^{(n/p)j} ||phi_j(sqrt A) f||_p <= C ||f||_{hom B^s_{p,q}}",
        stages, family, measure, stability,
        details={"s": s, "p": p, "q": q},
    )


def check_lorentz_bernstein(
    stages,
    family: FunctionFamily | None = None,
    p0: Exponent = 1.0,
    p: Exponent = 2.0,
    q: Exponent = 2.0,
    stability: Stability = DEFAULT_STABILITY,
) -> VerifyReport:
    """Lorentz-refined block bounds for the operator pair:
    ||phi_j(sqrt A_V) f||_{L^{p,q}} + ||phi_j(sqrt A_0) f||_{L^{p,q}}
    <= C 2^{n(1/p0-1/p)j} ||f||_{L^{p0}}, for 1 <= p0 < p < inf."""
    _lorentz_bernstein_rules(p0=p0, p=p)

    def measure(stage, cols):
        opv, op0, dsys, grid = stage.op, stage.op0, stage.sys, stage.grid
        n = grid.n
        den = lp_columns(cols, grid.cell_measure, p0)
        ops = (opv,) if op0 is opv else (opv, op0)
        coeffs = [spectral_coefficients(o, cols) for o in ops]
        best = 0.0
        for j in dsys.window:
            blocks = [
                spectral_synthesis(o, o.dyadic_weights(dsys, "phi", j), c)
                for o, c in zip(ops, coeffs)
            ]
            gain = 2.0 ** (n * (1.0 / p0 - 1.0 / p) * j)
            for i in range(cols.shape[1]):
                if den[i] == 0.0:
                    continue
                lhs = sum(lorentz_norm(GridFunction(grid, b[:, i]), p, q) for b in blocks)
                if len(blocks) == 1:
                    lhs *= 2.0  # A_V = A_0: both terms are the same norm
                best = max(best, lhs / (gain * den[i]))
        return {"C": float(best)}

    return _drive(
        "lorentz_bernstein",
        "||phi_j(sqrt A_V) f||_{L^{p,q}} + ||phi_j(sqrt A_0) f||_{L^{p,q}} "
        "<= C 2^{n(1/p0-1/p)j} ||f||_{L^{p0}}",
        stages, family, measure, stability,
        details={"p0": p0, "p": p, "q": q},
    )


CHECKS: dict[str, Callable] = {
    "resolution_identity": check_resolution_identity,
    "bernstein": check_bernstein,
    "duality": check_duality,
    "embeddings": check_embeddings,
    "lifting": check_lifting,
    "equivalence_AV_A0": check_equivalence_AV_A0,
    "heat_gaussian": check_heat_gaussian,
    "partition_independence": check_partition_independence,
    "subspace_characterization": check_subspace_characterization,
    "lorentz_bernstein": check_lorentz_bernstein,
}
