"""Repeat benchmark runs over seeds and report how steady each metric is.

Usage, from the repository root:

    python3 bench/prove.py [--sets 2] [--seeds 10] [--workloads a,b]
                           [--out FILE]

For each set and workload it runs `run.py` once per seed (set k uses
seeds k*N .. k*N+N-1) for BENCHMARK.json's run_seconds, then one traced
run per workload. Per end-to-end metric it reports each set's median
and spread (the distance between the first and third quartiles of
`statistics.quantiles(values, n=4)`, as a share of the median), and the
second set's median against the first's. A spread must stay within the
metric's bound (setup_s excepted) and should stay within a third of it;
the drift between sets must stay within the bound for every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         + proc.stderr)
    lines = proc.stdout.splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    return {"record": record, "result": json.loads(lines[-1])}


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", help="write the report as JSON here")
    args = parser.parse_args(argv)

    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = [_run(workload, seed, 0)
                    for seed in range(k * args.seeds, (k + 1) * args.seeds)]
            if not all(r["result"]["correct"] for r in runs):
                print(f"{workload}: a run reported failed items", file=sys.stderr)
                ok = False
            sets.append(runs)
        entry = {"metrics": {}, "loadavg": [
            [r["record"]["loadavg_start"] for r in runs] for runs in sets]}
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[r["result"]["metrics"][name]["value"] for r in runs]
                      for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [_spread(v) for v in values]
            drift = [(md - medians[0]) / medians[0] for md in medians]
            entry["metrics"][name] = {"unit": m["unit"], "bound": bound,
                                      "median": medians, "spread": spreads,
                                      "drift": drift, "values": values}
            steady = all(s <= bound / 3 for s in spreads)
            within = name == "setup_s" or all(s <= bound for s in spreads)
            ok &= within and all(d <= bound for d in drift)
            print(f"{workload:14s} {name:12s} median "
                  + " ".join(f"{md:.4g}" for md in medians)
                  + " spread " + " ".join(f"{s:.3%}" for s in spreads)
                  + f" drift {drift[-1]:+.3%} bound {bound:.0%}"
                  + ("" if steady else "  NOT STEADY")
                  + ("" if within else "  OVER BOUND"))
        traced = _run(workload, 0, 1)
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["result"]["metrics"].items()}
        entry["record"] = sets[0][0]["record"]
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
