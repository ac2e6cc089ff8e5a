"""Traced run of one besovlab CLI command, with spans recorded from outside
the package.

    python3 perfbench/spans.py OUT.json -- <besovlab CLI arguments>

The process imports ``besovlab`` under an import span, replaces the public
functions that one module calls in another with span recorders (in every
``besovlab`` module namespace that binds them, because the modules use
``from .x import f``), then calls ``besovlab.cli.main`` in-process.  Spans
stay in memory; when the command returns, the span list and its per-layer
aggregates are written to OUT.json and the process exits with the CLI's
exit code.

A span's kind is ``<layer>.<what>``; the layer is the package module the
work belongs to.  ``cli._cheb_apply_fixed`` is the Chebyshev engine the
``bench`` command carries in ``cli``, so it is recorded as ``calculus.cheb``.
A span opened while another span of the same kind is open is folded into
it, so inclusive times and call counts never count one piece of work twice.
Self time is a span's duration minus its direct children; the self times of
all spans plus ``unattributed_s`` equal the traced wall time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Recorder:
    """In-memory span list plus exact counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [kind, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._paused = False
        self.digests: set[bytes] = set()

    def _enter(self, kind: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([kind, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        self._open[kind] += 1
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[idx][0]] -= 1

    @contextmanager
    def span(self, kind: str):
        idx = self._enter(kind)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, kind: str, fn, before=None, finish=None):
        """Span recorder around ``fn``.  ``before(rec, args, kwargs)`` runs
        ahead of the span and returns a state; ``finish(rec, state, result)``
        runs after it closes, with result None when ``fn`` raised.  Both stay
        out of the span, and spans opened inside ``finish`` are not recorded."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._paused or rec._open[kind]:
                return fn(*args, **kwargs)
            state = before(rec, args, kwargs) if before else None
            result = None
            idx = rec._enter(kind)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec._exit(idx)
                rec.counts[kind + ".calls"] += 1
                if finish:
                    rec._paused = True
                    try:
                        finish(rec, state, result)
                    finally:
                        rec._paused = False

        return traced

    def summary(self, wall: float) -> dict:
        """Inclusive time per kind, self time per layer, unattributed rest."""
        inclusive: Counter = Counter()
        self_time = [s[3] - s[2] for s in self.spans]
        for kind, parent, start, end in self.spans:
            inclusive[kind] += end - start
            if parent >= 0:
                self_time[parent] -= end - start
        layers: Counter = Counter()
        for span, own in zip(self.spans, self_time):
            layers[span[0].split(".", 1)[0]] += own
        return {
            "wall_s": wall,
            "inclusive_s": dict(inclusive),
            "self_s": dict(layers),
            "unattributed_s": wall - sum(self_time),
            "counts": dict(self.counts),
            "missing": self.missing,
        }


# ---------------------------------------------------------------------------
# counters computed at the span boundaries
# ---------------------------------------------------------------------------


def _matrix_digest(op) -> bytes:
    import numpy as np

    mat = op.matrix.tocsr(copy=True)
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    h = hashlib.sha256(np.asarray(mat.shape, np.int64).tobytes())
    for arr in (mat.indptr.astype(np.int64), mat.indices.astype(np.int64), mat.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


def _eigh_before(rec, args, kwargs):
    op = args[0] if args else kwargs["op"]
    if op.has_eigendata:
        return None
    digest = _matrix_digest(op)
    rec.counts["operators.eigh_solves"] += 1
    # a matrix equal to one whose eigendata the run already holds
    if digest in rec.digests:
        rec.counts["operators.eigh_redundant"] += 1
    return op, digest


def _eigh_finish(rec, state, result):
    if state is not None and state[0].has_eigendata:
        rec.digests.add(state[1])


def _save_before(rec, args, kwargs):
    return args[1] if len(args) > 1 else kwargs["path"]


def _save_finish(rec, path, result):
    if os.path.exists(path):
        rec.counts["operators.cache_write_bytes"] += os.path.getsize(path)


def _load_before(rec, args, kwargs):
    return args[0] if args else kwargs["path"]


def _load_finish(rec, path, op):
    """Count bytes read and remember the loaded eigendata, so a later
    eigensolve of the same matrix reads as redundant."""
    if os.path.exists(path):
        rec.counts["operators.cache_read_bytes"] += os.path.getsize(path)
    if op is not None and op.has_eigendata:
        rec.digests.add(_matrix_digest(op))


def _symbol_before(rec, args, kwargs):
    import numpy as np

    mu = kwargs.get("mu", args[-1])
    rec.counts["dyadic.symbol_points"] += int(np.size(mu))


def _kernel_before(rec, args, kwargs):
    return args[0] if args else kwargs["opfun"]


def _kernel_finish(rec, opfun, result):
    import numpy as np

    op = opfun.op
    if not op.has_eigendata:
        return
    n = op.num_nodes
    g = np.asarray(opfun.symbol(op.eigvals), float)
    rec.counts["calculus.kernel_flops"] += 2 * n**3
    rec.counts["calculus.kernel_columns"] += n
    rec.counts["calculus.kernel_support_columns"] += int(np.count_nonzero(g))


class _CountingMatrix:
    """Stands in for ``op.matrix`` during a Chebyshev apply and counts
    matrix-vector products (columns of each right operand)."""

    def __init__(self, mat, counts: Counter) -> None:
        self._mat = mat
        self._counts = counts

    def __matmul__(self, x):
        self._counts["calculus.cheb_matvecs"] += x.shape[1] if getattr(x, "ndim", 1) > 1 else 1
        return self._mat @ x

    def __getattr__(self, name):
        return getattr(self._mat, name)


def _cheb_before(rec, args, kwargs):
    op = args[0] if args else kwargs["op"]
    mat = op.matrix
    op.matrix = _CountingMatrix(mat, rec.counts)
    return op, mat


def _cheb_finish(rec, state, result):
    op, mat = state
    op.matrix = mat


# (span kind, module, attribute or Class.method, before, finish)
TARGETS = (
    ("config.load", "config", "load_config", None, None),
    ("config.load", "config", "prevalidate_windows", None, None),
    ("geometry.build_grid", "geometry", "build_grid", None, None),
    ("geometry.lp_norm", "geometry", "lp_norm", None, None),
    ("potential.expression", "potential", "potential_from_expression", None, None),
    ("potential.decompose", "potential", "decompose", None, None),
    ("potential.smallness", "potential", "check_smallness", None, None),
    ("operators.assemble", "operators", "assemble_laplacian", None, None),
    ("operators.assemble", "operators", "assemble_schrodinger", None, None),
    ("operators.eigh", "operators", "eigendecompose", _eigh_before, _eigh_finish),
    ("operators.cache_write", "operators", "save_operator", _save_before, _save_finish),
    ("operators.cache_read", "operators", "load_operator", _load_before, _load_finish),
    ("dyadic.build_system", "dyadic", "build_system", None, None),
    ("dyadic.symbol", "dyadic", "DyadicSystem.phi_sqrt", _symbol_before, None),
    ("dyadic.symbol", "dyadic", "DyadicSystem.fat_phi_sqrt", _symbol_before, None),
    ("dyadic.symbol", "dyadic", "DyadicSystem.psi", _symbol_before, None),
    ("calculus.kernel", "calculus", "kernel", _kernel_before, _kernel_finish),
    ("calculus.apply", "calculus", "apply_symbol", None, None),
    ("calculus.apply", "calculus", "power", None, None),
    ("calculus.opnorm", "calculus", "mixed_opnorm", None, None),
    ("calculus.cheb", "calculus", "_cheb_apply", _cheb_before, _cheb_finish),
    ("calculus.cheb", "cli", "_cheb_apply_fixed", _cheb_before, _cheb_finish),
    ("norms.besov", "norms", "besov_norm", None, None),
    ("norms.block_synth", "norms", "block_lp_norms", None, None),
    ("norms.block_synth", "norms", "psi_lp_norms", None, None),
    ("norms.sobolev", "norms", "sobolev_norm", None, None),
    ("norms.lorentz", "norms", "lorentz_norm", None, None),
    ("norms.seminorms", "norms", "test_seminorms", None, None),
    ("verify.build_stage", "verify", "build_stage", None, None),
    ("verify.family", "verify", "FunctionFamily.sample", None, None),
)


def _rebind(modules, orig, traced) -> None:
    """Replace every module-level binding of ``orig`` (names and the values
    of module-level dicts such as ``verify.CHECKS``) with ``traced``."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, traced)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = traced


def install(rec: Recorder) -> None:
    """Wrap every target in every loaded ``besovlab`` module."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "besovlab" or n.startswith("besovlab."))]
    verify = sys.modules["besovlab.verify"]
    for check, fn in list(getattr(verify, "CHECKS", {}).items()):
        _rebind(modules, fn, rec.wrap(f"verify.{check}", fn))
    for kind, modname, attr, before, finish in TARGETS:
        mod = sys.modules.get(f"besovlab.{modname}")
        cls_name, _, name = attr.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        orig = vars(owner).get(name) if owner is not None else None
        if orig is None:
            rec.missing.append(f"{modname}.{attr}")
            continue
        traced = rec.wrap(kind, orig, before, finish)
        if cls_name:
            setattr(owner, name, traced)
        else:
            _rebind(modules, orig, traced)


def main(argv: list[str], t0: float) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: spans.py OUT.json -- <besovlab arguments>")
    rec = Recorder()
    with rec.span("besovlab.import"):
        import besovlab.cli
    install(rec)
    with rec.span("cli.main"):
        code = besovlab.cli.main(cli_args)
    wall = time.perf_counter() - t0
    result = rec.summary(wall)
    result["exit_code"] = code
    result["spans"] = rec.spans
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], time.perf_counter()))
