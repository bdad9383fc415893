"""One benchmark batch, run in a fresh interpreter by run.py.

Usage: python3 child.py JOB_JSON SPAWNED CPU

JOB_JSON names the job file run.py wrote: the nfepm source directory,
the argv of every `nfepm.cli.main` call, whether to trace, and where to
write the result. SPAWNED is run.py's time.monotonic() just before it
started this process; CLOCK_MONOTONIC is shared by all processes, so the
time from SPAWNED until nfepm is imported is the set-up time. CPU is the
CPU to run on, or `all`.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _versions():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def main() -> int:
    job_path, spawned, cpu = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    if cpu != "all":
        os.sched_setaffinity(0, {int(cpu)})
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import nfepm.cli
    setup_s = time.monotonic() - spawned
    if not os.path.abspath(nfepm.cli.__file__).startswith(job["src"] + os.sep):
        print(f"error: imported nfepm from {nfepm.cli.__file__}, not from "
              f"{job['src']}", file=sys.stderr)
        return 3

    run_main, recorder = nfepm.cli.main, None
    if job["trace"]:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
        run_main = recorder.wrap("main", run_main)

    wall = cpu = 0.0
    codes = []
    for argv in job["calls"]:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = run_main(argv)
        except Exception as exc:  # a traceback out of main fails the call
            code = f"{type(exc).__name__}: {exc}"
        cpu += time.process_time() - c0
        wall += time.perf_counter() - w0
        codes.append(code)

    result = {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "codes": codes, "versions": _versions(),
              "trace": None, "problems": []}
    if recorder is not None:
        metrics = spans.summarize(recorder, wall)
        result["trace"] = metrics
        result["problems"] = spans.self_check(metrics, wall, job["layers"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
