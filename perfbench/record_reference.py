"""Record the reference outputs the benchmark compares against, from the
repository root:

    python3 perfbench/record_reference.py [STEM ...]

For every reference stem (one per workload config) and every CLI seed the
benchmark can use, runs each command the stem's workloads run, in one output
directory whose operator cache is shared across seeds (the cache does not
depend on the seed), and writes perfbench/reference/<stem>.json:

- ``spectrum``: key-column digest and eigenvalues (the same for every seed);
- ``seeds.<k>.norms`` / ``seeds.<k>.bench``: key-column digest and the
  ``value`` / ``rel_err`` column;
- ``seeds.<k>.verdicts``: check name -> pass, from verify.csv.

Re-record only when a change of the program's results is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import (OUTPUT_CSV, REFERENCE_DIR, REFERENCE_SEEDS, WORK_DIR, WORKLOADS,
                 make_context, reference_entry, verify_verdicts)


def record(stem: str, root: Path) -> dict:
    workloads = [w for w in WORKLOADS.values() if w.reference == stem]
    commands = list(dict.fromkeys(c for w in workloads for c in w.commands))
    work = root / WORK_DIR / f"record-{stem}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data: dict = {"seeds": {}}
    try:
        for seed in range(REFERENCE_SEEDS):
            ctx = make_context(root, work, workloads[0], seed)
            entry: dict = {}
            for command in commands:
                proc = ctx.run_cli(command, work / "out")
                if proc.exit_code != 0:
                    raise SystemExit(f"{stem} seed {seed}: {command[0]} exited {proc.exit_code}")
                path = work / "out" / OUTPUT_CSV[command[0]]
                if command[0] == "verify":
                    entry["verdicts"] = verify_verdicts(path)
                elif command[0] == "spectrum":
                    spectrum = reference_entry(path)
                    if data.setdefault("spectrum", spectrum) != spectrum:
                        raise SystemExit(f"{stem}: spectrum depends on the seed")
                else:
                    entry[command[0]] = reference_entry(path)
            data["seeds"][str(seed)] = entry
            print(f"{stem} seed {seed}: {sorted(entry)}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return data


def main(stems: list[str]) -> int:
    root = Path.cwd()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for stem in stems or sorted({w.reference for w in WORKLOADS.values()}):
        data = record(stem, root)
        (REFERENCE_DIR / f"{stem}.json").write_text(json.dumps(data, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
