"""Benchmark of nfepm through its public entry point `nfepm.cli.main`.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats batches for about S seconds (at least three, or two
traced/untraced pairs). A batch is one fresh interpreter that imports
nfepm from ./src and makes the workload's `main` calls on INI configs
this script generates. Per batch it measures

- setup_s: from starting the interpreter until nfepm is imported;
- wall_s, cpu_s: wall and process CPU time (all threads) inside the
  `main` calls;
- peak_rss_mb: the batch process's peak resident memory;

and checks every CSV row the calls write (see checks.py). With
`--trace 0` the last stdout line reports each end-to-end metric over the
batches (see END_TO_END). With `--trace 1` traced and untraced batches
alternate and it reports the per-layer span metrics of spans.py
(medians over the traced batches) and the tracing overhead.

Process policy: one batch process at a time. A single-threaded
workload's batch runs on the usable CPU that is quietest when it starts;
map_mc's batches use every usable CPU. OpenBLAS gets at most as many
threads as the batch has CPUs. Earlier stdout lines give the run record
(versions, git state, load average, CPU per batch) and a readable
summary that includes failed_frac = failed / attempted items.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
from workloads import SIZES, WORKLOADS


def _lower_quartile(values):
    return statistics.quantiles(values, n=4)[0]


# Per metric: unit, and the statistic taken over a run's batches. A batch
# is deterministic work, and other tenants of a shared host only ever add
# time to it, for seconds to minutes at a stretch; the lower quartile of
# the batch times follows the program's own cost more closely than the
# median does (README.md, "How a run works").
END_TO_END = {"wall_s": ("s", _lower_quartile),
              "cpu_s": ("s", _lower_quartile),
              "setup_s": ("s", statistics.median),
              "peak_rss_mb": ("MB", statistics.median)}
MIN_BATCHES = 3
MIN_PAIRS = 2
BATCH_TIMEOUT_S = 150

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class BenchError(Exception):
    """The benchmark itself could not produce a trustworthy result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _loadavg():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _batch_env(cpus: int) -> dict:
    env = dict(os.environ)
    cur = env.get("OPENBLAS_NUM_THREADS", "")
    if not (cur.isdigit() and 1 <= int(cur) <= cpus):
        env["OPENBLAS_NUM_THREADS"] = str(cpus)
    return env


def _probe_s() -> float:
    t0 = time.perf_counter()
    sum(i * i for i in range(20000))
    return time.perf_counter() - t0


def _quietest_cpu() -> int:
    """The usable CPU on which a short Python loop runs fastest now.

    Other tenants of a shared host slow one virtual CPU at a time, for
    seconds at a stretch, so a single-threaded batch runs on the CPU
    that is quiet when it starts.
    """
    own = os.sched_getaffinity(0)
    timings = {}
    try:
        for cpu in sorted(own):
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = statistics.median(_probe_s() for _ in range(7))
    finally:
        os.sched_setaffinity(0, own)
    return min(timings, key=timings.get)


def _git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode != 0 or dirty.returncode != 0:
        return None, None
    return sha.stdout.strip(), bool(dirty.stdout.strip())


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "nfepm").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_batch(workload, calls, traced: bool, batch_dir: Path) -> dict:
    """Run one batch in a fresh interpreter and return its result, with
    the CSV outputs left under batch_dir/<call key>."""
    batch_dir.mkdir(parents=True)
    argvs = [[a.replace("{out}", str(batch_dir / c.key)) for a in c.argv]
             for c in calls]
    job = {"src": str(SRC), "calls": argvs, "trace": traced,
           "layers": list(workload.layers),
           "result": str(batch_dir / "result.json")}
    job_path = batch_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    cpu = _quietest_cpu() if workload.pinned else None
    env = _batch_env(_nproc() if cpu is None else 1)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(job_path),
             repr(spawned), "all" if cpu is None else str(cpu)],
            env=env, stdout=sys.stderr.fileno(), timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"batch took over {BATCH_TIMEOUT_S} s") from exc
    result_path = Path(job["result"])
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"batch process failed with exit code {proc.returncode}")
    return dict(json.loads(result_path.read_text(encoding="utf-8")), cpu=cpu)


def _check_batch(calls, result, batch_dir: Path, golden):
    attempted = failed = 0
    for call, code in zip(calls, result["codes"], strict=True):
        a, f = checks.check_call(call, code, batch_dir / call.key, golden)
        attempted += a
        failed += f
    return attempted, failed


def _summary_line(name, unit, value, values):
    return (f"{name} = {value!r} {unit}  ({len(values)} batches: min "
            f"{min(values):.4g}, lower quartile {_lower_quartile(values):.4g}, "
            f"median {statistics.median(values):.4g}, max {max(values):.4g})")


def run(workload, seed: int, seconds: float, trace: bool, size: str,
        work: Path) -> dict:
    """Measure one workload; return the final result object."""
    calls = workload.build(seed, size, work)
    golden = checks.golden_for(checks.load_goldens(workload.name), size, seed)
    git_sha, git_dirty = _git_state()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size, "git_sha": git_sha,
              "git_dirty": git_dirty, "src_sha256": _src_digest(SRC),
              "nproc": _nproc(), "golden": golden is not None,
              "loadavg_start": _loadavg()}

    results = {False: [], True: []}
    attempted = failed = 0
    start = time.monotonic()
    steps = 0
    while True:
        modes = ((False, True) if steps % 2 == 0 else (True, False)) if trace \
            else (False,)
        for traced in modes:
            batch_dir = work / f"batch{len(results[False]) + len(results[True])}"
            res = run_batch(workload, calls, traced, batch_dir)
            a, f = _check_batch(calls, res, batch_dir, golden)
            shutil.rmtree(batch_dir)
            attempted += a
            failed += f
            results[traced].append(res)
        steps += 1
        elapsed = time.monotonic() - start
        if (steps >= (MIN_PAIRS if trace else MIN_BATCHES)
                and elapsed * (steps + 1) / steps > seconds):
            break

    batches = results[False] + results[True]
    record.update(results[False][0]["versions"], batches=len(batches),
                  batch_cpus=[r["cpu"] for r in batches],
                  loadavg_end=_loadavg())
    print("record " + json.dumps(record, sort_keys=True))

    problems = [p for r in results[True] for p in r["problems"]]
    if problems:
        raise BenchError("trace self-check failed: " + "; ".join(problems))

    lines = []
    metrics = {}
    if trace:
        plain_wall = [r["wall_s"] for r in results[False]]
        traced_wall = [r["wall_s"] for r in results[True]]
        overhead = statistics.median(traced_wall) - statistics.median(plain_wall)
        for name, unit in spans.metric_names():
            value = overhead if name == "trace.overhead_s" else \
                statistics.median([r["trace"][name] for r in results[True]])
            metrics[name] = {"value": value, "unit": unit}
        for label, walls in (("traced", traced_wall), ("untraced", plain_wall)):
            lines.append(_summary_line(f"{label} wall_s", "s",
                                       statistics.median(walls), walls))
        lines += [f"{k} = {v['value']!r} {v['unit']}"
                  for k, v in metrics.items()]
    else:
        for name, (unit, stat) in END_TO_END.items():
            values = [r[name] for r in results[False]]
            metrics[name] = {"value": stat(values), "unit": unit}
            lines.append(_summary_line(name, unit, stat(values), values))
    lines.append(f"failed_frac = {failed / attempted!r} 1  "
                 f"({failed} of {attempted} items)")
    for line in lines:
        print(f"{workload.name}: {line}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke: cut-down inputs for the benchmark's tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 31:
        parser.error("--seed must be in [0, 2**31)")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "nfepm" / "cli.py").is_file():
        print(f"error: no nfepm sources under {SRC}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=ROOT / ".bench_work"))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.size, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
