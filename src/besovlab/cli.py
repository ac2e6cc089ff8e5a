"""Command-line front end: validated JSON configs in, CSV artifacts out.

Subcommands and their artifacts (every command also writes manifest.json):

========== =================================================================
run        norms.csv, verify.csv, profiles.csv, kernels/ (when requested)
spectrum   spectrum.csv (one row per eigenvalue per resolution)
norms      norms.csv (one row per norm request per family function)
verify     verify.csv (one row per reported constant)
bench      bench.csv (dense vs Chebyshev apply timings and errors)
profiles   profiles.csv (dyadic profile functions on a lambda grid)
========== =================================================================

Exit codes: 0 all requested work done and every check passed; 1 a check
failed under --assert; 2 the configuration was rejected (a malformed or
out-of-range value, index constraints, or violated assumptions); 3 a
compute budget was exceeded.

The manifest is written even when the run fails, with the failure recorded,
and always carries the process's peak resident set size (peak_rss_kib);
numbers in CSV cells are full-precision reprs, so reruns with the same
config and seed, at the same BLAS thread count, produce byte-identical CSVs
apart from the timing columns (wall_ms in verify.csv, dense_ms and cheb_ms
in bench.csv).
"""

from __future__ import annotations

import argparse
import inspect
import json
import platform
import resource
import sys
import time
from csv import writer as csv_writer
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy

from . import __version__
from .calculus import OperatorFunction, _cheb_apply, apply_symbol, kernel, suite_symbols
from .config import RunConfig, as_exponent, load_config
from .errors import BesovLabError, BudgetExceeded, CheckFailed, ConfigInvalid, DenseCapExceeded
from .norms import besov_norm, lorentz_norm, sobolev_norm
from .verify import CHECK_RULES, CHECKS, Stage, build_stages

__all__ = ["main"]

VERIFY_COLUMNS = ("check", "anchor", "constant", "pass", "h", "N", "seed", "wall_ms")
_BENCH_DEGREES = (8, 16, 32, 64, 128, 256, 512, 1024)
_PROFILE_POINTS = 601


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with path.open("w", newline="") as fh:
        w = csv_writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_spectrum(stages: Sequence[Stage], out_dir: Path) -> None:
    rows = []
    for st in stages:
        for k, lam in enumerate(st.op.eigvals, start=1):
            rows.append((st.h, st.grid.num_nodes, k, lam))
    _write_csv(out_dir / "spectrum.csv", ("h", "N", "k", "lam"), rows)


def _norm_rows(cfg: RunConfig, stages: Sequence[Stage]):
    """One row per (stage, request, function); Besov and Sobolev requests
    are evaluated once per stage on the stacked family."""
    fam = cfg.family()
    for st in stages:
        funcs = fam.sample(st)
        cols = np.column_stack([gf.values for gf in funcs])
        for spec in cfg.norms:
            kind = spec["kind"]
            if kind == "besov":
                hom = spec.get("homogeneous", False)
                values = besov_norm(
                    st.op,
                    st.sys,
                    cols,
                    spec["s"],
                    spec["p"],
                    as_exponent(spec["q"]),
                    homogeneous=hom,
                )
                row = (kind, spec["s"], spec["p"], spec["q"], "hom" if hom else "inhom")
            elif kind == "sobolev":
                variant = spec.get("variant", "plain")
                values = sobolev_norm(st.op, cols, spec["s"], variant=variant)
                row = (kind, spec["s"], "", "", variant)
            else:
                q = as_exponent(spec["q"])
                values = [lorentz_norm(gf, spec["p"], q) for gf in funcs]
                row = (kind, "", spec["p"], spec["q"], "")
            for i, value in enumerate(values):
                yield (*row, fam.tag, i, st.h, st.grid.num_nodes, float(value))


def _write_norms(cfg: RunConfig, stages: Sequence[Stage], out_dir: Path) -> None:
    header = ("kind", "s", "p", "q", "variant", "family", "func", "h", "N", "value")
    _write_csv(out_dir / "norms.csv", header, _norm_rows(cfg, stages))


def _check_calls(cfg: RunConfig, report_only: bool) -> list[tuple[str, dict]]:
    """(name, keyword arguments) of each configured check as it runs, judged
    by the check's own rules, on its signature's defaults overlaid with the
    config's values, before any grid is built; report-only mode reports an
    out-of-window equivalence index instead of rejecting it."""
    calls = []
    for i, entry in enumerate(cfg.checks):
        name = entry["name"]
        params = inspect.signature(CHECKS[name]).parameters
        kwargs = {k: as_exponent(v) for k, v in entry.items() if k != "name"}
        if name == "equivalence_AV_A0" and report_only:
            kwargs["assert_window"] = False
        if "family" in params:
            kwargs["family"] = cfg.family()
        defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}
        try:
            CHECK_RULES.get(name, lambda **_: None)(n=cfg.dimension, **{**defaults, **kwargs})
        except BesovLabError as exc:
            path = f"checks/{i}" if exc.param is None else f"checks/{i}/{exc.param}"
            raise ConfigInvalid(f"at {path}: {type(exc).__name__}: {exc}") from exc
        calls.append((name, kwargs))
    return calls


def _write_verify(calls: list, stages: Sequence[Stage], out_dir: Path, manifest: dict) -> list[str]:
    """Run the checks, write verify.csv, return failing names."""
    rows: list[tuple] = []
    failed: list[str] = []
    summary: dict[str, bool] = {}
    for name, kwargs in calls:
        report = CHECKS[name](stages, **kwargs)
        summary[name] = report.passed
        if not report.passed:
            failed.append(name)
        for row in report.iter_rows():
            rows.append(tuple(row[c] for c in VERIFY_COLUMNS))
    _write_csv(out_dir / "verify.csv", VERIFY_COLUMNS, rows)
    manifest["checks"] = summary
    return failed


def _profile_rows(stages: Sequence[Stage]):
    sys_ = stages[-1].sys
    window = list(sys_.window)
    start = sys_.inhom_window.start
    # the cap plus the inhomogeneous blocks telescope to exactly 1 on
    # [0, 4^j_max], except when the window starts above level 1: then the
    # partition only becomes complete above the first block, so the grid
    # starts there
    lam_lo = 4.0**start if start > 1 else 4.0 ** (sys_.j_min - 2)
    lam = np.concatenate(
        ([0.0], np.geomspace(lam_lo, 4.0**sys_.j_max, _PROFILE_POINTS))
    )
    psi = sys_.psi(lam)
    phis = {j: sys_.phi_sqrt(j, lam) for j in window}
    total = psi + sum(phis[j] for j in sys_.inhom_window)
    for i in range(lam.size):
        yield (lam[i], psi[i], *(phis[j][i] for j in window), total[i])


def _write_profiles(stages: Sequence[Stage], out_dir: Path) -> None:
    sys_ = stages[-1].sys
    header = ("lam", "psi", *(f"phi_{j}" for j in sys_.window), "sum")
    _write_csv(out_dir / "profiles.csv", header, _profile_rows(stages))


def _bench_rows(cfg: RunConfig, stages: Sequence[Stage]):
    for st in stages:
        st.op.matrix  # built, and scipy.sparse imported, outside the timed calls
        n = st.grid.num_nodes
        vec = np.random.default_rng([cfg.seed, 77]).standard_normal(n)
        vec /= np.linalg.norm(vec)
        for name, symbol in suite_symbols(st.op, st.sys):
            t0 = time.perf_counter()
            dense = apply_symbol(st.op, symbol, vec, path="dense")
            dense_ms = (time.perf_counter() - t0) * 1e3
            # vec is unit length, so when the symbol annihilates the whole
            # spectrum the error reads in units of eps rather than blowing up
            ref = max(float(np.linalg.norm(dense)), float(np.finfo(float).eps))
            for degree in _BENCH_DEGREES:
                t0 = time.perf_counter()
                approx = _cheb_apply(st.op, symbol, vec, degree=degree)
                cheb_ms = (time.perf_counter() - t0) * 1e3
                rel = float(np.linalg.norm(approx - dense)) / ref
                yield (name, st.h, n, degree, dense_ms, cheb_ms, rel)


def _write_bench(cfg: RunConfig, stages: Sequence[Stage], out_dir: Path) -> None:
    header = ("symbol", "h", "N", "degree", "dense_ms", "cheb_ms", "rel_err")
    _write_csv(out_dir / "bench.csv", header, _bench_rows(cfg, stages))


def _write_kernels(cfg: RunConfig, stages: Sequence[Stage], out_dir: Path) -> None:
    """Dump the finest-stage kernels that downstream plots typically want:
    the low cap, the mid shell and the spectrum-scaled heat kernel of the
    standard symbol suite."""
    kdir = out_dir / "kernels"
    kdir.mkdir(parents=True, exist_ok=True)
    st = stages[-1]
    for name, symbol in suite_symbols(st.op, st.sys):
        stem = name.replace("[", "_").rstrip("]")
        if stem.startswith(("psi", "phi_", "heat")):
            np.save(kdir / f"{stem}.npy", kernel(OperatorFunction(st.op, symbol)))


def _dispatch(command: str, cfg: RunConfig, calls: list, out_dir: Path,
              manifest: dict) -> list[str]:
    timings = manifest["timings_ms"]

    def _timed(label: str, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        timings[label] = round((time.perf_counter() - t) * 1e3, 3)
        return out

    stages = _timed("stages", lambda: build_stages(
        cfg.domain_spec(), cfg.h, potential=cfg.potential, profile=cfg.profile,
        dense_cap=cfg.dense_cap, trunc_radius=cfg.trunc_radius, cache_dir=out_dir / "cache"))
    manifest["num_nodes"] = {repr(st.h): st.grid.num_nodes for st in stages}

    failed: list[str] = []
    if command == "spectrum":
        _timed("spectrum", _write_spectrum, stages, out_dir)
    elif command == "norms":
        _timed("norms", _write_norms, cfg, stages, out_dir)
    elif command == "profiles":
        _timed("profiles", _write_profiles, stages, out_dir)
    elif command == "bench":
        _timed("bench", _write_bench, cfg, stages, out_dir)
    elif command == "verify":
        failed = _timed("verify", _write_verify, calls, stages, out_dir, manifest)
    else:  # run
        _timed("norms", _write_norms, cfg, stages, out_dir)
        failed = _timed("verify", _write_verify, calls, stages, out_dir, manifest)
        _timed("profiles", _write_profiles, stages, out_dir)
        if cfg.kernels:
            _timed("kernels", _write_kernels, cfg, stages, out_dir)
    return failed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="besovlab",
        description="Spectral-toolbox runs driven by a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "run": "norms + verify + profiles (+ kernels) in one output dir",
        "spectrum": "dump eigenvalues per resolution",
        "norms": "evaluate the configured norm requests on the test family",
        "verify": "run the configured checks and write the constants table",
        "bench": "time dense vs Chebyshev applies over a degree ladder",
        "profiles": "dump the dyadic profile functions on a lambda grid",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, metavar="PATH", help="JSON config")
        sp.add_argument("--out", metavar="DIR", help="output directory override")
        sp.add_argument("--seed", type=int, help="seed override (u64)")
        sp.add_argument(
            "--dense-cap",
            dest="dense_cap",
            type=int,
            help="max node count for dense eigendecomposition",
        )
        sp.add_argument(
            "--jobs",
            type=_positive_int,
            default=1,
            help="BLAS thread cap, applied when threadpoolctl is installed "
            "(the manifest records whether it was)",
        )
        mode = sp.add_mutually_exclusive_group()
        mode.add_argument(
            "--assert",
            dest="report_only",
            action="store_false",
            help="nonzero exit when a check fails (default)",
        )
        mode.add_argument(
            "--report-only",
            dest="report_only",
            action="store_true",
            help="record failures in verify.csv but exit 0",
        )
        sp.set_defaults(report_only=False)
    return parser.parse_args(argv)


def _apply_jobs(jobs: int) -> bool:
    """Cap the BLAS threads at ``jobs``; False when threadpoolctl is missing."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return False
    threadpool_limits(limits=jobs)
    return True


def _fallback_out(config_path: str, out_flag: str | None) -> Path:
    """Where the manifest goes when the config itself is rejected: the
    --out flag if given, else the config's own out key if it is a nonempty
    string, else the default output directory."""
    if out_flag:
        return Path(out_flag)
    try:
        data = json.loads(Path(config_path).read_text())
        if isinstance(data, dict) and isinstance(data.get("out"), str) and data["out"]:
            return Path(data["out"])
    except (OSError, json.JSONDecodeError):
        pass
    return Path("results")


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    t_start = time.perf_counter()
    manifest: dict = {
        "tool": "besovlab",
        "version": __version__,
        "command": args.command,
        "status": "error",
        "failure": None,
        "config_hash": None,
        "seed": None,
        "jobs": {"requested": args.jobs, "applied": False},
        "assert_mode": not args.report_only,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "timings_ms": {},
    }
    out_dir = _fallback_out(args.config, args.out)
    code = 0
    try:
        manifest["jobs"]["applied"] = _apply_jobs(args.jobs)
        cfg = load_config(
            args.config,
            overrides={"out": args.out, "seed": args.seed, "dense_cap": args.dense_cap},
        )
        calls = _check_calls(cfg, args.report_only)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest["config_hash"] = cfg.config_hash
        manifest["seed"] = cfg.seed
        manifest["config"] = cfg.canonical()
        failed = _dispatch(args.command, cfg, calls, out_dir, manifest)
        if failed and not args.report_only:
            raise CheckFailed("failing checks: " + ", ".join(failed))
        manifest["status"] = "ok"
    except (BudgetExceeded, DenseCapExceeded) as exc:
        manifest["failure"] = f"{type(exc).__name__}: {exc}"
        print(f"budget error: {exc}", file=sys.stderr)
        code = 3
    except CheckFailed as exc:
        manifest["status"] = "checks-failed"
        manifest["failure"] = f"CheckFailed: {exc}"
        print(f"check failure: {exc}", file=sys.stderr)
        code = 1
    except BesovLabError as exc:
        # everything else traces back to what the config asked for: a
        # rejected config, or a run-time assumption on the potential or the
        # spectrum that the requested variant needs, so it is a config error
        manifest["failure"] = f"{type(exc).__name__}: {exc}"
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:
        # a fault of the program itself: recorded, then raised with its traceback
        manifest["failure"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["timings_ms"]["total"] = round((time.perf_counter() - t_start) * 1e3, 3)
        # the process's high-water resident set so far (KiB on Linux)
        manifest["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "manifest.json"
            path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        except OSError:
            print(f"warning: could not write manifest under {out_dir}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
