"""Benchmark of the besovlab command line, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of a workload runs ``python -m besovlab`` as fresh child
processes (one per command) against the checkout's ``src/``, with an
explicit BLAS thread count.  The harness repeats invocations while the next
one is projected to end within ``--seconds`` (at least one), checks every
output, and prints the end-to-end metrics, each a median over the run's
invocations.  With ``--trace 1`` it then runs the workload once more through
``spans.py`` and prints the per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Operations counted in ``attempted``/``failed``: every CLI process (exit code
0 and manifest status ``ok``), every configured check verdict in
``verify.csv``, every comparison of ``norms.csv``/``spectrum.csv``/
``bench.csv`` with the stored reference, and every comparison of a CSV with
the same file from the run's first invocation (timing columns removed).
``correct`` is false when any of these fails, except a check verdict that
also fails in the stored reference: such a check is still counted in
``failed``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = Path("perfbench") / "_work"

# A benchmark seed selects one of this many CLI seeds, so every seed has
# stored reference outputs (record_reference.py writes them).
REFERENCE_SEEDS = 8

# relative tolerance per compared column, plus an absolute floor as a share
# of the largest reference magnitude in the file (bench rel_err entries near
# round-off get the floor alone)
TOLERANCE = {
    "norms.csv": ("value", 1e-9, 1e-12),
    "spectrum.csv": ("lam", 1e-9, 1e-12),
    "bench.csv": ("rel_err", 1e-6, 1e-9),
}
# columns that hold timings: left out of the byte-identity digests
TIMING_COLUMNS = ("wall_ms", "dense_ms", "cheb_ms")
OUTPUT_CSV = {"verify": "verify.csv", "norms": "norms.csv",
              "spectrum": "spectrum.csv", "bench": "bench.csv"}
RUN_DEADLINE_S = 170


def _ball(center: list[float]) -> dict:
    return {"kind": "ball", "center": center, "radius": 1.0}


BALL3_CONFIG = {
    "domain": _ball([0.0, 0.0, 0.0]),
    "h": [1 / 6, 1 / 8],
    "potential": "-0.5/r",
    "norms": [
        {"kind": "besov", "s": 0.5, "p": 2, "q": 2},
        {"kind": "besov", "s": 1, "p": 1, "q": "inf"},
        {"kind": "besov", "s": -0.5, "p": 4, "q": 1, "homogeneous": True},
        {"kind": "sobolev", "s": 1, "variant": "shifted"},
        {"kind": "lorentz", "p": 2, "q": "inf"},
    ],
    "family": {"tag": "random-eigenmix", "count": 32},
}

DISK_CHECKS = ("resolution_identity", "embeddings", "equivalence_AV_A0",
               "duality", "bernstein", "heat_gaussian")


@dataclass(frozen=True)
class Workload:
    """A config plus the CLI commands one invocation runs, in order."""

    reference: str  # reference file stem (workloads sharing a config share it)
    config: dict
    commands: tuple[tuple[str, ...], ...]
    warm: bool = False  # commands read a cache primed once per run


# why each workload exists: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    "disk-checks": Workload(
        "disk",
        {
            "domain": _ball([0.0, 0.0]),
            "h": [1 / 16, 1 / 24],
            "potential": "0.25/r^2",
            "checks": [{"name": n} for n in DISK_CHECKS],
            "family": {"tag": "random-eigenmix", "count": 8},
        },
        (("verify", "--report-only"),),
    ),
    "ball3-norms-cold": Workload("ball3", BALL3_CONFIG, (("norms",),)),
    "ball3-warm": Workload("ball3", BALL3_CONFIG, (("spectrum",), ("norms",), ("bench",)),
                           warm=True),
    "smoke": Workload(
        "smoke",
        {
            "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
            "h": [1 / 32],
            "potential": "4*x",
            "norms": [{"kind": "besov", "s": 0.5, "p": 2, "q": 2},
                      {"kind": "sobolev", "s": 1, "variant": "shifted"},
                      {"kind": "lorentz", "p": 2, "q": "inf"}],
            "checks": [{"name": "resolution_identity"}, {"name": "bernstein"}],
            "family": {"tag": "random-eigenmix", "count": 4},
        },
        (("verify", "--report-only"), ("spectrum",), ("norms",), ("bench",)),
    ),
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    command: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    manifest: dict | None

    @property
    def setup_s(self) -> float:
        """Spawn until the stages are ready: wall minus the in-process time
        spent after the stages (timings_ms.total - timings_ms.stages)."""
        t = self.manifest["timings_ms"]
        return self.wall_s - (t["total"] - t["stages"]) / 1e3


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, int, int]:
    """Run one child to completion: (wall_s, cpu_s, maxrss_kb, exit code),
    with the child's own rusage from wait4."""
    with log.open("ab") as fh:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, fh.fileno(), 2),
        ])
        try:
            _, status, ru = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - t0
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, os.waitstatus_to_exitcode(status)


@dataclass
class Context:
    root: Path
    env: dict
    threads: int
    cli_seed: int
    config_path: Path
    log: Path

    def run_cli(self, command: tuple[str, ...], out: Path, trace_json: Path | None = None) -> Proc:
        """One ``python -m besovlab`` process, or with ``trace_json`` the same
        command traced in-process by spans.py."""
        manifest_path = out / "manifest.json"
        manifest_path.unlink(missing_ok=True)
        if trace_json is None:
            prefix = [sys.executable, "-m", "besovlab"]
        else:
            prefix = [sys.executable, str(BENCH_DIR / "spans.py"), str(trace_json), "--"]
        argv = prefix + [command[0], "--config", str(self.config_path), "--out", str(out),
                         "--seed", str(self.cli_seed), "--jobs", str(self.threads),
                         *command[1:]]
        wall, cpu, rss, code = spawn(argv, self.env, self.log)
        manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else None
        return Proc(command[0], wall, cpu, rss, code, manifest)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def canonical_digest(path: Path) -> str:
    """sha256 of the CSV with its timing columns removed."""
    header, rows = read_csv(path)
    keep = [i for i, c in enumerate(header) if c not in TIMING_COLUMNS]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in [header, *rows]:
        w.writerow([row[i] for i in keep])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def reference_entry(path: Path) -> dict:
    """What is stored per compared CSV: a digest of the key columns and the
    compared column's values."""
    header, rows = read_csv(path)
    value_col = TOLERANCE[path.name][0]
    vi = header.index(value_col)
    keys = [i for i, c in enumerate(header) if c != value_col and c not in TIMING_COLUMNS]
    key_text = "\n".join(",".join(r[i] for i in keys) for r in rows)
    return {"keys": hashlib.sha256(key_text.encode()).hexdigest(),
            "values": [float(r[vi]) for r in rows]}


def compare_reference(path: Path, ref: dict) -> str | None:
    """None when the CSV matches its reference within TOLERANCE, else why not."""
    _, rtol, atol = TOLERANCE[path.name]
    got = reference_entry(path)
    if got["keys"] != ref["keys"] or len(got["values"]) != len(ref["values"]):
        return f"{path.name}: rows differ from the reference"
    scale = max((abs(v) for v in ref["values"]), default=0.0)
    bad = [(g, r) for g, r in zip(got["values"], ref["values"])
           if not abs(g - r) <= rtol * abs(r) + atol * scale]
    if bad:
        g, r = bad[0]
        return f"{path.name}: {len(bad)} values outside tolerance (first {g!r} vs {r!r})"
    return None


def verify_verdicts(path: Path) -> dict[str, bool]:
    """Check name (before any '[') -> pass on every row of that check."""
    header, rows = read_csv(path)
    ci, pi = header.index("check"), header.index("pass")
    verdicts: dict[str, bool] = {}
    for r in rows:
        name = r[ci].split("[", 1)[0]
        verdicts[name] = verdicts.get(name, True) and r[pi] == "true"
    return verdicts


@dataclass
class Ledger:
    """Attempted and failed operations; ``incorrect`` holds the failures that
    make the run's outputs wrong (all but baseline check failures)."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    incorrect: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def op(self, ok: bool, what: str, known: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
            if not known:
                self.incorrect.append(what)

    def check_outputs(self, proc: Proc, out: Path, reference: dict) -> None:
        self.op(proc.exit_code == 0 and proc.manifest is not None
                and proc.manifest.get("status") == "ok",
                f"{proc.command}: exit {proc.exit_code}, status "
                f"{(proc.manifest or {}).get('status')}")
        path = out / OUTPUT_CSV[proc.command]
        if not path.exists():
            self.op(False, f"{path.name} missing")
            return
        digest = canonical_digest(path)
        if path.name in self.digests:
            self.op(digest == self.digests[path.name], f"{path.name} differs between runs")
        else:
            self.digests[path.name] = digest
        if path.name in TOLERANCE:
            why = compare_reference(path, reference[path.name[:-4]])
            self.op(why is None, why or "")
        if proc.command == "verify":
            got = verify_verdicts(path)
            for name, expected in reference["verdicts"].items():
                self.op(got.get(name, False), f"check {name} failed", known=not expected)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def make_context(root: Path, work: Path, wl: Workload, seed: int) -> Context:
    threads = min(2, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(wl.config, indent=1))
    return Context(root, env, threads, seed % REFERENCE_SEEDS, config_path, work / "children.log")


def load_reference(wl: Workload, cli_seed: int) -> dict:
    data = json.loads((REFERENCE_DIR / f"{wl.reference}.json").read_text())
    ref = dict(data["seeds"][str(cli_seed)])
    if "spectrum" in data:
        ref["spectrum"] = data["spectrum"]
    return ref


def run_invocation(ctx: Context, wl: Workload, out: Path, ledger: Ledger, reference: dict,
                   trace_dir: Path | None = None) -> list[Proc]:
    procs = []
    for i, command in enumerate(wl.commands):
        trace_json = trace_dir / f"{command[0]}-{i}.json" if trace_dir else None
        proc = ctx.run_cli(command, out, trace_json)
        ledger.check_outputs(proc, out, reference)
        procs.append(proc)
    return procs


def prime(ctx: Context, out: Path, ledger: Ledger, reference: dict) -> None:
    """Write the operator cache a warm workload reads (untimed).  Its cold
    spectrum.csv is the one the warm runs must reproduce byte for byte."""
    proc = ctx.run_cli(("spectrum",), out)
    ledger.check_outputs(proc, out, reference)


def end_to_end(invocations: list[list[Proc]]) -> dict[str, float]:
    return {
        "wall_s": statistics.median([sum(p.wall_s for p in inv) for inv in invocations]),
        "setup_s": statistics.median([sum(p.setup_s for p in inv) for inv in invocations]),
        "cpu_s": statistics.median([sum(p.cpu_s for p in inv) for inv in invocations]),
        "peak_rss_mb": max(p.maxrss_kb for inv in invocations for p in inv) * 1024 / 1e6,
    }


def norm_evals_per_s(invocations: list[list[Proc]], norm_rows: int) -> float | None:
    rates = [norm_rows / (p.wall_s - p.setup_s)
             for inv in invocations for p in inv if p.command == "norms"]
    return statistics.median(rates) if rates else None


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

# per-layer metric -> (unit, where it comes from in the summed span summaries)
LAYER_METRICS = {
    "besovlab.import_s": ("s", ("self", "besovlab")),
    "config.self_s": ("s", ("self", "config")),
    "config.load_s": ("s", ("incl", "config.load")),
    "geometry.self_s": ("s", ("self", "geometry")),
    "geometry.build_grid_s": ("s", ("incl", "geometry.build_grid")),
    "potential.self_s": ("s", ("self", "potential")),
    "potential.expression_s": ("s", ("incl", "potential.expression")),
    "operators.self_s": ("s", ("self", "operators")),
    "operators.assemble_s": ("s", ("incl", "operators.assemble")),
    "operators.eigh_s": ("s", ("incl", "operators.eigh")),
    "operators.eigh_calls": ("count", ("count", "operators.eigh_solves")),
    "operators.eigh_redundant": ("count", ("count", "operators.eigh_redundant")),
    "operators.cache_write_s": ("s", ("incl", "operators.cache_write")),
    "operators.cache_write_bytes": ("bytes", ("count", "operators.cache_write_bytes")),
    "operators.cache_read_s": ("s", ("incl", "operators.cache_read")),
    "operators.cache_read_bytes": ("bytes", ("count", "operators.cache_read_bytes")),
    "dyadic.self_s": ("s", ("self", "dyadic")),
    "dyadic.symbol_s": ("s", ("incl", "dyadic.symbol")),
    "dyadic.symbol_calls": ("count", ("count", "dyadic.symbol.calls")),
    "dyadic.symbol_points": ("count", ("count", "dyadic.symbol_points")),
    "calculus.self_s": ("s", ("self", "calculus")),
    "calculus.kernel_s": ("s", ("incl", "calculus.kernel")),
    "calculus.kernel_calls": ("count", ("count", "calculus.kernel.calls")),
    "calculus.kernel_flops": ("flop", ("count", "calculus.kernel_flops")),
    "calculus.kernel_support_ratio": ("ratio", ("ratio", "calculus.kernel_support_columns",
                                                "calculus.kernel_columns")),
    "calculus.apply_s": ("s", ("incl", "calculus.apply")),
    "calculus.apply_calls": ("count", ("count", "calculus.apply.calls")),
    "calculus.cheb_s": ("s", ("incl", "calculus.cheb")),
    "calculus.cheb_matvecs": ("count", ("count", "calculus.cheb_matvecs")),
    "norms.self_s": ("s", ("self", "norms")),
    "norms.besov_s": ("s", ("incl", "norms.besov")),
    "norms.besov_calls": ("count", ("count", "norms.besov.calls")),
    "norms.block_synth_s": ("s", ("incl", "norms.block_synth")),
    "norms.sobolev_s": ("s", ("incl", "norms.sobolev")),
    "norms.lorentz_s": ("s", ("incl", "norms.lorentz")),
    "verify.self_s": ("s", ("self", "verify")),
    "verify.family_s": ("s", ("incl", "verify.family")),
    **{f"verify.{c}_s": ("s", ("incl", f"verify.{c}")) for c in DISK_CHECKS},
    "cli.self_s": ("s", ("self", "cli")),
    "unattributed_s": ("s", ("unattributed",)),
    "trace.wall_s": ("s", ("wall",)),
    "trace.overhead_s": ("s", ("overhead",)),
}


def per_layer(summaries: list[dict], overhead: float) -> dict[str, float]:
    def total(section: str, key: str) -> float:
        return sum(s[section].get(key, 0) for s in summaries)

    out = {}
    for name, (_, src) in LAYER_METRICS.items():
        kind = src[0]
        if kind == "self":
            value = total("self_s", src[1])
        elif kind == "incl":
            value = total("inclusive_s", src[1])
        elif kind == "count":
            value = total("counts", src[1])
        elif kind == "ratio":
            den = total("counts", src[2])
            value = total("counts", src[1]) / den if den else 0.0
        elif kind == "unattributed":
            value = sum(s["unattributed_s"] for s in summaries)
        elif kind == "wall":
            value = sum(s["wall_s"] for s in summaries)
        else:
            value = overhead
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------

_FACTS_CHILD = r"""
import ctypes, json, sys
from pathlib import Path
import numpy, scipy
facts = {"python": sys.version.split()[0], "numpy": numpy.__version__,
         "scipy": scipy.__version__}
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
facts["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
try:
    import threadpoolctl
    facts["threadpoolctl"] = True
except ImportError:
    facts["threadpoolctl"] = False
# thread count the loaded OpenBLAS actually uses
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and ".so" in l})
facts["blas_threads_in_effect"] = None
for lib in libs:
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            facts["blas_threads_in_effect"] = fn()
            break
from besovlab import build_system, load_operator
stages = {}
for op_path in sorted(Path(sys.argv[1]).glob("op-*.bin")):
    op0_path = op_path.with_name("op0-" + op_path.name[3:])
    op = load_operator(op_path)
    op0 = load_operator(op0_path) if op0_path.exists() else op
    s = build_system(min(op.lam_pos_min, op0.lam_pos_min), max(op.lam_max, op0.lam_max),
                     lam0=op.lam0)
    stages[repr(op.grid.h)] = {"N": op.num_nodes, "window": [s.j_min, s.j_max]}
facts["stages"] = stages
print(json.dumps(facts))
"""


def run_facts(ctx: Context, out: Path) -> dict:
    """Versions, BLAS, threads, N and dyadic window per stage, cache sizes."""
    cache = out / "cache"
    files = sorted(cache.glob("*.bin")) if cache.is_dir() else []
    facts: dict = {
        "commit": None,
        "source_sha256": source_digest(ctx.root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_set": ctx.threads,
        "cli_seed": ctx.cli_seed,
        "cache_bytes": {f.name: f.stat().st_size for f in files},
    }
    try:
        # the ceiling keeps git from finding a repository above the checkout
        git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ctx.root.parent)}
        facts["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ctx.root, env=git_env, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the checkout need not be a git repository
    proc = subprocess.run([sys.executable, "-c", _FACTS_CHILD, str(cache)],
                          env=ctx.env, capture_output=True, text=True, timeout=120)
    if proc.returncode == 0:
        facts.update(json.loads(proc.stdout))
    else:
        facts["facts_error"] = proc.stderr.strip().splitlines()[-1:]
    return facts


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def measure(ctx: Context, wl: Workload, work: Path, ledger: Ledger, reference: dict,
            seconds: float) -> tuple[list[list[Proc]], Path]:
    """Untraced invocations while the next one is projected to end within
    ``seconds`` (at least one); returns them and the last output directory."""
    primed = work / "primed"
    if wl.warm:
        prime(ctx, primed, ledger, reference)
    invocations: list[list[Proc]] = []
    t0 = time.perf_counter()
    while True:
        out = primed if wl.warm else work / f"cold-{len(invocations)}"
        invocations.append(run_invocation(ctx, wl, out, ledger, reference))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(invocations) + 1) / len(invocations) > seconds:
            return invocations, out


def trace(ctx: Context, wl: Workload, out: Path, ledger: Ledger, reference: dict,
          trace_dir: Path, untraced_wall: float) -> dict[str, float]:
    """One traced invocation; per-layer metrics summed over its processes."""
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    procs = run_invocation(ctx, wl, out, ledger, reference, trace_dir)
    summaries = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    missing = sorted({m for s in summaries for m in s["missing"]})
    if missing:
        print(f"trace: targets not found, their metrics read 0: {missing}")
    return per_layer(summaries, sum(p.wall_s for p in procs) - untraced_wall)


def run(args: argparse.Namespace, root: Path) -> dict:
    wl = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = make_context(root, work, wl, args.seed)
        reference = load_reference(wl, ctx.cli_seed)
        ledger = Ledger()
        invocations, last_out = measure(ctx, wl, work, ledger, reference, args.seconds)
        metrics = end_to_end(invocations)
        report = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
        if args.trace:
            traced_out = last_out if wl.warm else work / "traced"
            layer = trace(ctx, wl, traced_out, ledger, reference,
                          root / WORK_DIR / "traces" / args.workload, metrics["wall_s"])
            report = {name: (layer[name], unit) for name, (unit, _) in LAYER_METRICS.items()}
        facts = run_facts(ctx, last_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(invocations)
    for name, (value, unit) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    walls = ", ".join(f"{sum(p.wall_s for p in inv):.3f}" for inv in invocations)
    print(f"{args.workload}: medians over {n} invocation(s) of {len(wl.commands)} process(es);"
          f" invocation wall_s: {walls}")
    rate = norm_evals_per_s(invocations, len(reference.get("norms", {}).get("values", [])))
    if rate is not None:
        print(f"{args.workload} norm_evals_per_s = {rate:.6g} 1/s (median of {n})")
    print(f"{args.workload} fail_ratio = {len(ledger.failed)}/{ledger.attempted}"
          f" = {len(ledger.failed) / ledger.attempted:.6g} ratio")
    for what in ledger.failed:
        print(f"failed: {what}")
    print("facts " + json.dumps(facts, sort_keys=True))
    return {
        "correct": not ledger.incorrect,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _deadline(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {RUN_DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "besovlab" / "__init__.py").is_file():
        print("run from the repository root: src/besovlab is missing", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    result = run(args, root)
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
