"""Capture the golden outputs the benchmark compares every CSV row with.

Usage, from the repository root:

    python3 bench/capture_goldens.py [--map-seeds N]

Runs one batch of every workload at both sizes on the current ./src and
writes bench/goldens/<workload>.json. The seed-independent workloads
store one golden under "*"; map_mc stores one per seed 0..N-1 (other
seeds are checked by invariants only). Goldens record what the code
computes, so capture them only from a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
from run import ROOT, run_batch
from workloads import SIZES, WORKLOADS


def capture(workload, size: str, seed: int, work) -> dict:
    calls = workload.build(seed, size, work)
    batch_dir = work / "batch"
    result = run_batch(workload, calls, False, batch_dir)
    golden = {}
    for call, code in zip(calls, result["codes"], strict=True):
        if code != 0:
            raise SystemExit(f"{workload.name} {call.key}: exit {code}")
        golden[call.key] = {}
        for out in call.outputs:
            header, rows = checks.read_csv(batch_dir / call.key / out.file)
            golden[call.key][out.file] = [header] + rows
    # The golden must pass its own invariants, or failed_frac is not 0.
    for call in calls:
        attempted, failed = checks.check_call(call, 0, batch_dir / call.key,
                                              golden)
        if failed:
            raise SystemExit(f"{workload.name} {call.key}: {failed} of "
                             f"{attempted} rows break an invariant")
    shutil.rmtree(batch_dir)
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--map-seeds", type=int, default=32)
    args = parser.parse_args(argv)
    work = ROOT / ".bench_work" / "goldens"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    try:
        for workload in WORKLOADS.values():
            goldens = {}
            for size in SIZES:
                seeds = range(args.map_seeds) if workload.name == "map_mc" \
                    else (None,)
                goldens[size] = {
                    "*" if s is None else str(s):
                        capture(workload, size, s or 0, work) for s in seeds}
                print(f"{workload.name} {size}: {len(seeds)} golden(s)",
                      file=sys.stderr)
            path = checks.GOLDEN_DIR / f"{workload.name}.json"
            path.write_text(json.dumps(goldens, indent=1) + "\n",
                            encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
