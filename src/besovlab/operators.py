"""Dirichlet Schrodinger operators -Delta + V on masked lattices.

The Laplacian is the standard (2n+1)-point stencil divided by h^2; the
Dirichlet condition enters by mask truncation, i.e. stencil legs that leave
the interior are simply dropped (their no-flux partner value is zero).
Potentials act as diagonal multiplication by their node samples.

The matrix is held as numpy CSR arrays; scipy.sparse loads only when
``.matrix`` is first read, and building a stage never reads it.
Eigendecompositions are dense and cached on the operator: one SVD per
reflection sector of the red-black coupling for the free Laplacian of a
grid in two or three dimensions, eigh for every other matrix.  A
configurable cap guards against accidentally decomposing a matrix that is
too large.  The free Laplacian's extreme eigenvalues, all the dyadic
window needs of it, come from a short Lanczos run on the CSR arrays
instead.

These two results are the costly ones, and cached_eigendecompose and
cached_laplacian_bounds memoize them in a cache directory: one
little-endian file per result, named and checked by a sha256 of the
matrix's CSR arrays, its grid's lattice, the cache format and the package
version.  The eigenvector block loads mapped, so its pages are read on
touch.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import DenseCapExceeded, MissingEigendata, SolverFailure
from .geometry import Grid, LatticeSymmetry
from .potential import potential_samples

if TYPE_CHECKING:
    from .dyadic import DyadicSystem

__all__ = [
    "SpectralOperator",
    "assemble_laplacian",
    "assemble_schrodinger",
    "eigendecompose",
    "laplacian_bounds",
    "cached_eigendecompose",
    "cached_laplacian_bounds",
    "save_operator",
    "load_operator",
]

DEFAULT_DENSE_CAP = 4096

_MAGIC = b"BESOVOP1"
# format 4 keeps only the costly results, keyed by the matrix; the
# eigenvectors sit at an 8-byte offset, since numpy copies an unaligned
# operand on every matmul.  Format 5 has the same layout; its free
# Laplacian eigenvectors come from the sector solve, so a run never mixes
# them with the eigh basis an older entry holds
_FORMAT_VERSION = 5
_HEADER = "<I32sQ"  # format version, cache key, value count

# smaller matrices take the dense solve, which is cheaper there
_LANCZOS_MIN_NODES = 16
# Lanczos steps before the dense solve takes over: disks and balls need
# 40-130 (1-D chains, which take the dense solve, need more above ~550 nodes)
_LANCZOS_MAX_STEPS = 300
_LANCZOS_CHECK_EVERY = 10  # steps between tests of the residual bound
# distance in log4 from a power of 4 below which a Lanczos estimate could
# land on the other side of a dyadic window edge than the dense eigenvalue
_WINDOW_EDGE_GUARD = 1e-9
# rows of |U| held at once while each eigenvector's sign anchor is found
_ANCHOR_BLOCK = 128


@dataclass
class SpectralOperator:
    """Sparse symmetric operator with optional cached eigendata.

    Eigenvectors are orthonormal in the plain dot product; the L2-normalized
    eigenfunction is column k divided by h^(n/2).  Functional calculus only
    uses the projector form U g(L) U^T, which is normalization free.

    Eigenvalues are fixed once set (read-only after eigendecompose and
    load_operator), so dyadic weights on them are memoized per system.

    ``csr`` is the scipy CSR triple (data, indices, indptr), columns
    ascending in each row; ``matrix`` is built from it on first read.
    ``potential`` is None only on the free Laplacian that
    assemble_laplacian builds; eigendecompose picks its solver from the
    matrix, not from ``potential``.
    """

    grid: Grid
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    potential: np.ndarray | None = None
    eigvals: np.ndarray | None = field(default=None, repr=False)
    eigvecs: np.ndarray | None = field(default=None, repr=False)
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _matrix: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def matrix(self):
        """scipy.sparse.csr_matrix of ``csr``, built on first read."""
        if self._matrix is None:
            from scipy.sparse import csr_matrix

            self._matrix = csr_matrix(self.csr, shape=(self.num_nodes, self.num_nodes))
        return self._matrix

    @matrix.setter
    def matrix(self, mat) -> None:
        self._matrix = mat

    @property
    def num_nodes(self) -> int:
        return self.grid.num_nodes

    @property
    def has_eigendata(self) -> bool:
        return self.eigvals is not None

    def require_eigendata(self) -> None:
        if not self.has_eigendata:
            raise MissingEigendata(
                "operation needs the dense eigendecomposition; call eigendecompose first"
            )

    def gershgorin_bounds(self) -> tuple[float, float]:
        """Cheap enclosure of the spectrum from row sums."""
        m = self.matrix
        diag = m.diagonal()
        radius = np.asarray(np.abs(m).sum(axis=1)).ravel() - np.abs(diag)
        return float((diag - radius).min()), float((diag + radius).max())

    @property
    def lam_min(self) -> float:
        if self.has_eigendata:
            return float(self.eigvals[0])
        return self.gershgorin_bounds()[0]

    @property
    def lam_max(self) -> float:
        if self.has_eigendata:
            return float(self.eigvals[-1])
        return self.gershgorin_bounds()[1]

    @property
    def lam_pos_min(self) -> float:
        """Smallest strictly positive eigenvalue (eigendata required)."""
        self.require_eigendata()
        pos = self.eigvals[self.eigvals > 0.0]
        if pos.size == 0:
            raise SolverFailure("operator has no positive spectrum")
        return float(pos[0])

    @property
    def lam0(self) -> float:
        """Semi-boundedness shift sqrt(max(0, -lam_min)); 0 for V >= 0."""
        return float(np.sqrt(max(0.0, -self.lam_min)))

    def dyadic_weights(self, sys: DyadicSystem, kind: str, j: int | None = None) -> np.ndarray:
        """A dyadic symbol of ``sys`` on the eigenvalues, evaluated once.

        kind 'psi' is psi(lam) (no j), 'phi' is phi_j(sqrt(lam)) and 'fat' is
        Phi_j(sqrt(lam)) = (phi_(j-1) + phi_j) + phi_(j+1), summed left to
        right from the memoized phi weights.  Memoized per (sys, kind, j);
        read-only.
        """
        self.require_eigendata()
        key = (sys, kind, j)
        out = self._weights.get(key)
        if out is None:
            if kind == "psi":
                out = sys.psi(self.eigvals)
            elif kind == "phi":
                out = sys.phi_sqrt(j, self.eigvals)
            elif kind == "fat":
                out = (
                    self.dyadic_weights(sys, "phi", j - 1)
                    + self.dyadic_weights(sys, "phi", j)
                    + self.dyadic_weights(sys, "phi", j + 1)
                )
            else:
                raise ValueError(f"unknown dyadic weight kind {kind!r}")
            out = np.asarray(out, float)
            out.flags.writeable = False
            self._weights[key] = out
        return out


def _neighbor_entries(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) pairs of interior-interior lattice edges, each direction once."""
    rows = []
    cols = []
    shape = np.asarray(grid.shape)
    for d in range(grid.n):
        step = np.zeros(grid.n, dtype=np.int64)
        step[d] = 1
        nb = grid.multi_indices + step
        ok = nb[:, d] < shape[d]
        target = np.full(grid.num_nodes, -1, dtype=np.int64)
        target[ok] = grid.flat_of_cell[tuple(nb[ok].T)]
        ok &= target >= 0
        src = np.nonzero(ok)[0]
        rows.append(src)
        cols.append(target[src])
    return np.concatenate(rows), np.concatenate(cols)


def _csr_rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of each stored entry of a CSR triple."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _dense(op: SpectralOperator) -> np.ndarray:
    """op's matrix as a dense C-ordered array, equal to scipy's toarray()
    bit for bit (the CSR entries are distinct and none is -0.0)."""
    data, indices, indptr = op.csr
    out = np.zeros((op.num_nodes, op.num_nodes))
    out[_csr_rows(indptr), indices] = data
    return out


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, N: int) -> tuple:
    """CSR triple of distinct (row, col) entries, columns ascending per row."""
    order = np.lexsort((cols, rows))
    indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=N), out=indptr[1:])
    return vals[order], cols[order], indptr


def assemble_laplacian(grid: Grid) -> SpectralOperator:
    """Dirichlet Laplacian: (2n I - adjacency) / h^2 on the interior nodes.

    Examples
    --------
    A single interior node on (0, 1) at h = 1/2 gives the 1x1 matrix [8]:

    >>> from .geometry import interval, build_grid
    >>> op = assemble_laplacian(build_grid(interval(0.0, 1.0), 0.5))
    >>> op.csr
    (array([8.]), array([0]), array([0, 1]))
    """
    N = grid.num_nodes
    inv_h2 = 1.0 / grid.h**2
    rows, cols = _neighbor_entries(grid)
    nodes = np.arange(N)
    vals = np.concatenate([np.full(N, 2.0 * grid.n * inv_h2), np.full(2 * rows.size, -inv_h2)])
    csr = _csr(np.concatenate([nodes, rows, cols]), np.concatenate([nodes, cols, rows]), vals, N)
    return SpectralOperator(grid=grid, csr=csr, potential=None)


def assemble_schrodinger(grid: Grid, V) -> SpectralOperator:
    """-Delta + V with V given as node samples (GridFunction or array); a
    diagonal entry that cancels to zero is dropped, as scipy's sum does."""
    vals = potential_samples(grid, V)
    data, indices, indptr = assemble_laplacian(grid).csr
    rows = _csr_rows(indptr)
    data[indices == rows] += vals
    keep = data != 0.0
    csr = _csr(rows[keep], indices[keep], data[keep], grid.num_nodes)
    return SpectralOperator(grid=grid, csr=csr, potential=vals)


def _check_dense_cap(op: SpectralOperator, dense_cap: int) -> None:
    if op.num_nodes > dense_cap:
        raise DenseCapExceeded(f"matrix order {op.num_nodes} exceeds dense cap {dense_cap}")


def eigendecompose(op: SpectralOperator, dense_cap: int = DEFAULT_DENSE_CAP) -> SpectralOperator:
    """Dense symmetric eigendecomposition, cached on the operator in place.

    Eigenvalues come out ascending.  Each eigenvector gets a canonical sign
    (largest-magnitude entry positive, the lowest row on ties) so repeated
    runs emit identical data.

    An operator whose diagonal is the constant c = 2n/h^2 of its grid's
    free Laplacian, on a grid of n >= 2 dimensions, is A_0 = c I - M with M
    the lattice adjacency over h^2: every A_0, and A_V for V = 0 (None, or
    samples that leave each diagonal entry unchanged).  The route is thus a
    function of the matrix and the grid, as the operator cache's key is.
    The masked lattice is bipartite under the checkerboard parity of
    sum(k), so in red-black order M = [[0, C], [C^T, 0]], and an SVD
    C = P S Q^T gives every eigenpair: c -/+ s_i with vectors
    [p_i; +/-q_i]/sqrt 2, and c with the surplus singular vectors of the
    larger side (Cvetkovic, Doob & Sachs, Spectra of Graphs, 1980,
    sec. 3.2).  The coordinate reflections of the grid that keep the parity
    commute with M and keep each colour, so C splits further into one block
    per character of their group (geometry.Reflections).  A trivial group
    is one sector: plain red-black.  The columns of every sector are
    sorted together by a stable sort of their eigenvalues, and no dense A_0
    is formed.

    Every other operator, and every chain (n = 1), is solved by
    np.linalg.eigh.  A chain's sectors would be solved apart, so an entry
    K(x, g x) of a heat kernel between mirror nodes would keep the
    round-off of the diagonal, about t ||A|| eps max|K|, which at small t
    reaches the N eps max|K| below which heat_gaussian ignores an entry.
    """
    if op.has_eigendata:
        return op
    _check_dense_cap(op, dense_cap)
    N = op.num_nodes
    try:
        if _takes_sector_route(op):
            vals, vecs = _sector_solve(op)
        else:
            vals, vecs = np.linalg.eigh(_dense(op))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise SolverFailure(f"dense eigendecomposition failed: {exc}") from exc
    signs = np.sign(vecs[_sign_anchors(vecs), np.arange(N)])
    signs[signs == 0.0] = 1.0
    vecs *= signs
    vals.flags.writeable = False
    op.eigvals, op.eigvecs = vals, vecs
    return op


def _takes_sector_route(op: SpectralOperator) -> bool:
    """Whether eigendecompose takes the sector route for ``op``: n >= 2 and
    every diagonal entry equal to assemble_laplacian's 2n/h^2."""
    grid = op.grid
    data, indices, indptr = op.csr
    diag = data[_csr_rows(indptr) == indices]
    c = 2.0 * grid.n * (1.0 / grid.h**2)
    return grid.n > 1 and diag.size == op.num_nodes and bool(np.all(diag == c))


def _sector_solve(op: SpectralOperator) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of the free
    Laplacian ``op``, one SVD per reflection sector (see eigendecompose)."""
    grid, N = op.grid, op.num_nodes
    data, indices, indptr = op.csr
    rows = _csr_rows(indptr)
    c = data[rows == indices][0]
    red = (grid.multi_indices.sum(axis=1) + grid.k_lo.sum()) % 2 == 0
    edge = red[rows] & ~red[indices]  # each red-black entry of M once
    ei, ej, ew = rows[edge], indices[edge], -data[edge]

    group = LatticeSymmetry(grid, red).reflections  # the ones that keep each colour
    rep = group.rep

    sectors, vals = [], []
    local = np.empty(N, dtype=np.intp)
    for live, coef in group.characters:
        lead = live & (rep == np.arange(N))
        m, k = np.count_nonzero(lead & red), np.count_nonzero(lead & ~red)
        local[lead & red] = np.arange(m)
        local[lead & ~red] = np.arange(k)
        e = live[ei] & live[ej]
        i, j = ei[e], ej[e]
        block = np.bincount(local[rep[i]] * k + local[rep[j]], weights=ew[e] * coef[i] * coef[j],
                            minlength=m * k).reshape(m, k)
        p, s, qt = np.linalg.svd(block)
        nodes = [np.flatnonzero(live & side) for side in (red, ~red)]
        sectors.append((p, s, qt.T, [(v, local[rep[v]], coef[v]) for v in nodes]))
        vals += [c - s, np.full(m + k - 2 * s.size, c), c + s]

    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    dest = np.empty(N, dtype=np.intp)
    dest[order] = np.arange(N)
    vecs = np.zeros((N, N))
    half = math.sqrt(0.5)
    start = 0
    for p, s, q, ((rn, rl, rc), (bn, bl, bc)) in sectors:
        r, m, k = s.size, p.shape[0], q.shape[0]
        lower = dest[start:start + r]
        surplus = dest[start + r:start + m + k - r]
        upper = dest[start + m + k - r:start + m + k]
        red_part = (rc * half)[:, None] * p[rl, :r]
        black_part = (bc * half)[:, None] * q[bl, :r]
        vecs[np.ix_(rn, lower)] = red_part
        vecs[np.ix_(rn, upper)] = red_part
        vecs[np.ix_(bn, lower)] = black_part
        vecs[np.ix_(bn, upper)] = -black_part
        if m > k:
            vecs[np.ix_(rn, surplus)] = rc[:, None] * p[rl, r:]
        else:
            vecs[np.ix_(bn, surplus)] = bc[:, None] * q[bl, r:]
        start += m + k
    return vals[order], vecs


def _sign_anchors(vecs: np.ndarray) -> np.ndarray:
    """Row of each column's largest-magnitude entry, the lowest on ties:
    np.argmax(np.abs(vecs), axis=0), found with a running max over blocks
    of _ANCHOR_BLOCK rows so neither |U| nor a transposed copy is formed."""
    best = np.full(vecs.shape[1], -1.0)
    anchor = np.zeros(vecs.shape[1], dtype=np.intp)
    mag = np.empty((min(_ANCHOR_BLOCK, vecs.shape[0]), vecs.shape[1]))
    for lo in range(0, vecs.shape[0], _ANCHOR_BLOCK):
        block = np.abs(vecs[lo:lo + _ANCHOR_BLOCK], out=mag[:vecs.shape[0] - lo])
        top = block.max(axis=0)
        # strict: a tie with an earlier block keeps the earlier row
        better = np.flatnonzero(top > best)
        anchor[better] = (block[:, better] == top[better]).argmax(axis=0) + lo
        best[better] = top[better]
    return anchor


def _lanczos_bottom(op: SpectralOperator) -> float:
    """Smallest eigenvalue of op by Lanczos from the all-ones vector; nan
    when it is not resolved within _LANCZOS_MAX_STEPS steps.

    Every new vector is orthogonalized twice against all earlier ones
    (Kahan's "twice is enough"), so no spurious Ritz copies appear.  The
    smallest Ritz pair (theta, s) of T_k has the residual
    ||A y - theta y|| = beta_k |s_k|, and an eigenvalue of A lies within it
    of theta (Parlett, The Symmetric Eigenvalue Problem, ch. 13; Saad,
    Numerical Methods for Large Eigenvalue Problems, 2nd ed., ch. 6).
    Stopping at beta_k |s_k| <= eps ||T_k|| <= eps ||A|| leaves theta as
    accurate as a backward-stable dense solve.  That eigenvalue is the
    bottom one: -A has nonnegative off-diagonals, so the ground state is
    nonnegative and overlaps the all-ones vector.
    """
    data, indices, indptr = op.csr
    rows = _csr_rows(indptr)
    N = op.num_nodes
    steps = min(_LANCZOS_MAX_STEPS, N)
    basis = np.empty((steps + 1, N))
    alpha, beta = np.empty(steps), np.empty(steps)
    basis[0] = 1.0 / math.sqrt(N)
    eps = np.finfo(float).eps
    for k in range(steps):
        w = np.bincount(rows, weights=data * basis[k, indices], minlength=N)
        alpha[k] = basis[k] @ w
        done = basis[: k + 1]
        for _ in range(2):
            w -= (done @ w) @ done
        beta[k] = math.sqrt(w @ w)
        # a beta this small means the Krylov space is invariant: T_k is exact
        exhausted = beta[k] <= eps * np.abs(alpha[: k + 1]).max()
        if exhausted or (k + 1) % _LANCZOS_CHECK_EVERY == 0 or k + 1 == steps:
            T = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, s = np.linalg.eigh(T)
            if exhausted or beta[k] * abs(s[-1, 0]) <= eps * max(-theta[0], theta[-1]):
                return float(theta[0])
        basis[k + 1] = w / beta[k]
    return math.nan


def _near_power_of_4(lam: float) -> bool:
    level = math.log(lam, 4.0)
    return abs(level - round(level)) < _WINDOW_EDGE_GUARD


def laplacian_bounds(op: SpectralOperator) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a free Dirichlet Laplacian.

    Read off the eigendata when ``op`` has it.  Otherwise, for n >= 2,
    lam_min comes from a Lanczos run from the all-ones vector
    (_lanczos_bottom) and lam_max is 4n/h^2 - lam_min: the masked lattice
    is bipartite and the diagonal is the constant 2n/h^2, so the spectrum
    is symmetric about 2n/h^2.  The top eigenvalue is not solved for
    directly because the all-ones vector can be orthogonal to its
    eigenvector (a box with an even node count along an axis).

    The dyadic window takes floor and ceil of log4 of these bounds.  When
    an estimate lies within 1e-9 of a power of 4 in log4, when the Lanczos
    run reaches its step cap, for a tiny matrix and for every 1-D chain,
    the bounds come from dense eigenvalues instead, so the window is the
    one the dense spectrum gives.  Chains skip Lanczos because it does not
    converge within the cap above about 550 nodes, and below that the dense
    solve is the cheaper one.  ``op`` itself is left without eigendata.

    Examples
    --------
    The interval (0, 1) at h = 1/64 has the closed-form extremes
    4/h^2 sin^2(pi h/2) and 4/h^2 cos^2(pi h/2):

    >>> from .geometry import interval, build_grid
    >>> h = 1 / 64
    >>> op = assemble_laplacian(build_grid(interval(0.0, 1.0), h))
    >>> lo, hi = laplacian_bounds(op)
    >>> exact = 4 / h**2 * np.sin(np.pi * h / 2) ** 2, 4 / h**2 * np.cos(np.pi * h / 2) ** 2
    >>> bool(np.allclose((lo, hi), exact, rtol=1e-12)), op.has_eigendata
    (True, False)
    """
    if op.potential is not None:
        raise ValueError("laplacian_bounds needs the potential-free operator")
    if op.has_eigendata:
        return op.lam_min, op.lam_max
    if op.num_nodes >= _LANCZOS_MIN_NODES and op.grid.n > 1:
        lo = _lanczos_bottom(op)
        hi = 4.0 * op.grid.n / op.grid.h**2 - lo
        if 0.0 < lo <= hi and not (_near_power_of_4(lo) or _near_power_of_4(hi)):
            return lo, hi
    vals = np.linalg.eigvalsh(_dense(op))
    return float(vals[0]), float(vals[-1])


# ---------------------------------------------------------------------------
# the operator cache: eigendata and free-Laplacian bounds, keyed by the matrix
# ---------------------------------------------------------------------------


def _cache_key(kind: str, op: SpectralOperator) -> bytes:
    """sha256 of the result kind, the cache format, the package version,
    op's CSR triple and its grid's lattice (k_lo and the node offsets): the
    name and the check of a cache entry.  The sector solve reads the
    lattice too, so two grids with one matrix never share an entry."""
    digest = hashlib.sha256(f"{kind}/{_FORMAT_VERSION}/{__version__}/{op.num_nodes}".encode())
    arrays = (*op.csr, op.grid.k_lo, op.grid.multi_indices)
    for values, dtype in zip(arrays, ("<f8", "<i8", "<i8", "<i8", "<i8")):
        digest.update(memoryview(np.ascontiguousarray(values, dtype)).cast("B"))
    return digest.digest()


def _write_entry(path, key: bytes, values: np.ndarray, vectors: np.ndarray | None = None) -> None:
    """Write magic, header and the value block, then, zero-padded to an
    8-byte offset, the vector block.

    The file is written under a temporary name and renamed into place, so an
    interrupted write never leaves a partial file at ``path``, and a process
    that has mapped the previous file keeps reading it unchanged.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack(_HEADER, _FORMAT_VERSION, key, values.size))
            _write(fh, values, "<f8")
            if vectors is not None:
                fh.write(bytes(-fh.tell() % 8))
                _write(fh, vectors, "<f8")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write(fh, values, dtype) -> None:
    """Write values as a contiguous little-endian block, without a bytes copy."""
    fh.write(memoryview(np.ascontiguousarray(values, dtype)).cast("B"))


def _check_size(fh, nbytes: int) -> None:
    """Reject a block the rest of the file cannot hold (a cut-short file,
    or a damaged header) before anything is allocated or mapped."""
    if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
        raise SolverFailure("operator cache file is truncated")


def _read_entry(fh, key: bytes, count: int) -> np.ndarray:
    """The value block of the entry open in ``fh``, once its magic, format
    version, key and value count are the ones expected."""
    if fh.read(len(_MAGIC)) != _MAGIC:
        raise SolverFailure("not an operator cache file (bad magic)")
    _check_size(fh, struct.calcsize(_HEADER))
    version, stored, size = struct.unpack(_HEADER, fh.read(struct.calcsize(_HEADER)))
    if version != _FORMAT_VERSION:
        raise SolverFailure(f"unsupported operator cache version {version}")
    _check_size(fh, 8 * size)
    if stored != key or size != count:
        raise SolverFailure("operator cache entry was written for another matrix")
    values = np.empty(count, "<f8")
    fh.readinto(memoryview(values).cast("B"))
    return values


def save_operator(op: SpectralOperator, path) -> None:
    """Write op's eigendata under op's cache key: the eigenvalues, then the
    eigenvectors at an 8-byte offset, both little-endian."""
    op.require_eigendata()
    _write_entry(path, _cache_key("eig", op), op.eigvals, op.eigvecs)


def load_operator(path, op: SpectralOperator) -> SpectralOperator:
    """Give ``op`` the eigendata that save_operator wrote for its matrix.

    The eigenvectors are mapped read-only (np.memmap) and read on touch;
    the mapping holds the open file, so a file renamed into place later
    leaves them unchanged.  Raises SolverFailure, leaving ``op`` as it was,
    for a file that is not such an entry, has another format version, was
    written for another matrix or is cut short, and for eigenvalues that
    are not finite and ascending.
    """
    N = op.num_nodes
    with open(path, "rb") as fh:
        eigvals = _read_entry(fh, _cache_key("eig", op), N)
        offset = fh.seek(-fh.tell() % 8, os.SEEK_CUR)
        _check_size(fh, 8 * N * N)
        eigvecs = np.memmap(fh, dtype="<f8", mode="r", offset=offset, shape=(N, N))
    if not (np.isfinite(eigvals).all() and (np.diff(eigvals) >= 0.0).all()):
        raise SolverFailure("operator cache eigenvalues are not finite and ascending")
    eigvals.flags.writeable = False
    op.eigvals, op.eigvecs = eigvals, eigvecs
    return op


def _save_bounds(bounds: tuple[float, float], path, op: SpectralOperator) -> None:
    _write_entry(path, _cache_key("bounds", op), np.asarray(bounds, float))


def _load_bounds(path, op: SpectralOperator) -> tuple[float, float]:
    """laplacian_bounds of ``op`` as _save_bounds wrote them; SolverFailure
    as in load_operator, and for bounds that are not finite, positive and
    in order."""
    with open(path, "rb") as fh:
        lo, hi = bounds = tuple(_read_entry(fh, _cache_key("bounds", op), 2).tolist())
    if not (math.isfinite(hi) and 0.0 < lo <= hi):
        raise SolverFailure(f"operator cache free Laplacian bounds {bounds} are invalid")
    return bounds


def _memoized(cache_dir, kind: str, op: SpectralOperator, compute, load, save):
    """``compute()``, or its result kept under ``cache_dir`` by an earlier
    call for the same matrix; None as ``cache_dir`` keeps nothing.

    ``load(path)`` reads an entry and ``save(result, path)`` writes one.  An
    entry that ``load`` rejects is rebuilt, with a warning on stderr.
    """
    if cache_dir is None:
        return compute()
    path = Path(cache_dir) / f"{kind}-{_cache_key(kind, op).hex()[:16]}.bin"
    if path.exists():
        try:
            return load(path)
        except (OSError, SolverFailure) as exc:
            print(f"warning: rebuilding unreadable operator cache {path.name}: {exc}",
                  file=sys.stderr)
    result = compute()
    path.parent.mkdir(parents=True, exist_ok=True)
    save(result, path)
    return result


def cached_eigendecompose(op: SpectralOperator, dense_cap: int = DEFAULT_DENSE_CAP,
                          cache_dir=None) -> SpectralOperator:
    """eigendecompose, memoized under ``cache_dir``.  The cap holds whether
    or not an entry exists, so a run's outcome never depends on the cache."""
    if op.has_eigendata:
        return op
    _check_dense_cap(op, dense_cap)
    return _memoized(cache_dir, "eig", op, lambda: eigendecompose(op, dense_cap),
                     lambda path: load_operator(path, op), save_operator)


def cached_laplacian_bounds(op: SpectralOperator, cache_dir=None) -> tuple[float, float]:
    """laplacian_bounds, memoized under ``cache_dir``."""
    return _memoized(cache_dir, "bounds", op, lambda: laplacian_bounds(op),
                     lambda path: _load_bounds(path, op),
                     lambda bounds, path: _save_bounds(bounds, path, op))
