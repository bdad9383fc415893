"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the repository root:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import spans
from run import BENCH_DIR, END_TO_END, ROOT
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def scratch():
    """A directory inside the checkout, which is all the benchmark may touch."""
    path = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


def _bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
            == [(name, unit) for name, (unit, _) in END_TO_END.items()])
    assert ([(m["name"], m["unit"]) for m in SPEC["per_layer"]]
            == spans.metric_names())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if trace:
        for layer in WORKLOADS[workload].layers:
            assert result["metrics"][f"{layer}.calls"]["value"] > 0
    assert "failed_frac = 0.0" in proc.stdout


def test_perturbed_output_fails(scratch):
    call = next(c for c in WORKLOADS["snr_sweep"].build(0, "full", scratch)
                if c.key == "fig4_zzb")
    out = call.outputs[0]
    golden = checks.golden_for(checks.load_goldens("snr_sweep"), "full", 0)
    header, *rows = golden[call.key][out.file]
    assert all(checks.check_output(out, (header, rows), [header] + rows))
    col = header.index("zzb_z")
    bad = [list(r) for r in rows]
    bad[5][col] = repr(float(bad[5][col]) * (1 + 1e-6))
    ok = checks.check_output(out, (header, bad), [header] + rows)
    assert ok.count(False) == 1 and not ok[5]


def test_invariants_without_golden(scratch):
    call = WORKLOADS["snr_sweep"].build(0, "full", scratch)[0]
    out = call.outputs[0]
    golden = checks.golden_for(checks.load_goldens("snr_sweep"), "full", 0)
    header, *rows = golden[call.key][out.file]
    bad = [list(r) for r in rows]
    ao = header.index("zzb_ao_t")
    bad[0][ao] = repr(float(bad[0][header.index("zzb_t")]) * 1.01)
    bad[1][header.index("zzb_z")] = repr(out.params["span"] ** 2 / 12 * 1.1)
    assert checks.check_output(out, (header, bad), None)[:3] == [False, False, True]


def test_failed_call_fails_all_items(scratch):
    call = WORKLOADS["solver_grid"].build(0, "full", scratch)[0]
    assert checks.check_call(call, 2, scratch, None) == (16, 16)
    assert checks.check_call(call, 0, scratch / "missing", None) == (16, 16)


def test_self_times_account_for_wall():
    rec = spans.Recorder()

    def leaf():
        time.sleep(0.002)

    def mid():
        time.sleep(0.001)
        wrapped_leaf()

    wrapped_leaf = rec.wrap("numerics.q_function", leaf)
    root = rec.wrap("main", rec.wrap("zzb.zzb_z", mid))
    t0 = time.perf_counter()
    root()
    wall = time.perf_counter() - t0
    metrics = spans.summarize(rec, wall)
    assert spans.self_check(metrics, wall, ("cli", "zzb", "numerics")) == []
    assert metrics["zzb.points"] == 1
    assert metrics["numerics.q_function.calls"] == 1
    assert metrics["zzb.busy_s"] >= metrics["numerics.busy_s"] >= 0.002
    problems = spans.self_check(metrics, wall, ("cli", "mapest"))
    assert len(problems) == 1 and "mapest" in problems[0]


def test_refuses_without_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH_DIR, scratch / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "snr_sweep", "--seed", "1", "--seconds", "1",
                  cwd=scratch, script=scratch / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
