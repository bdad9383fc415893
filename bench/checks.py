"""Output checks for the benchmark's CSV items.

An item is one data row of a CSV that a call must write. It fails when
its call exits non-zero, when the row is missing, when it differs from
the golden captured from the seed commit, or when it breaks an
invariant. Goldens record the code's own output, not the paper's digits.

Tolerances:
- golden values match within a relative 1e-9 (a 1e-6 change fails);
  solver tables add an absolute floor of 1e-12 of the column's largest
  value, because the exactly solvable columns are rounding noise (~1e-16);
- ZZB bounds stay below the prior variances (span^2/12 and 1/12) with 1%
  slack for discretization, and zzb_t >= zzb_ao_t within a relative 1e-9;
- ecrb * SNR is constant along a sweep within a relative 1e-9;
- MAP MSEs are finite with 0 <= mse_z <= span^2 and 0 <= mse_t <= 1.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

RTOL = 1e-9
BOUND_SLACK = 0.01
_ATOL_SHARE = {"table2": 1e-12, "table2_mismatch": 1e-12}


def read_csv(path: Path):
    """(header, rows) of an nfepm CSV, skipping its `#` comment lines;
    None when the file does not exist."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    data = list(csv.reader(ln for ln in text.splitlines()
                           if not ln.startswith("#")))
    return data[0], data[1:]


def load_goldens(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def golden_for(goldens: dict, size: str, seed: int):
    """Golden outputs {call key: {file: [header, *rows]}} for this size
    and seed, or None. Seed-independent workloads store theirs under "*"."""
    by_seed = goldens.get(size, {})
    return by_seed.get("*", by_seed.get(str(seed)))


def _num(s: str):
    try:
        return float(s)
    except ValueError:
        return None


def _same(a: str, b: str, atol: float) -> bool:
    x, y = _num(a), _num(b)
    if x is None or y is None:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + atol


def _golden_ok(kind: str, rows, golden_rows):
    share = _ATOL_SHARE.get(kind, 0.0)
    scale = [max((abs(v) for v in map(_num, col)
                  if v is not None and math.isfinite(v)), default=0.0)
             for col in zip(*golden_rows)]
    return [all(_same(a, b, share * s) for a, b, s in zip(row, ref, scale))
            for row, ref in zip(rows, golden_rows)]


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


def _zzb_ok(rows, params):
    cap_z = params["span"] ** 2 / 12.0 * (1.0 + BOUND_SLACK)
    cap_t = (1.0 + BOUND_SLACK) / 12.0
    return [_finite(r["zzb_z"], r["zzb_t"], r["zzb_ao_t"])
            and 0.0 <= r["zzb_z"] <= cap_z
            and 0.0 <= r["zzb_ao_t"] and r["zzb_t"] <= cap_t
            and r["zzb_t"] >= r["zzb_ao_t"] * (1.0 - RTOL)
            for r in rows]


def _ecrb_ok(rows, params):
    del params
    cols = ("ecrb_z", "ecrb_t", "ecrb_ao_t")
    ok = [_finite(*(r[c] for c in cols)) and all(r[c] > 0 for c in cols)
          for r in rows]
    for c in cols:
        prods = [r[c] * 10.0 ** (r["snr_db"] / 10.0) for r in rows]
        ref = sorted(prods)[len(prods) // 2]
        ok = [k and abs(p - ref) <= RTOL * abs(ref) for k, p in zip(ok, prods)]
    return ok


def _map_ok(rows, params):
    span2 = params["span"] ** 2
    return [_finite(r["mse_z"], r["mse_t"])
            and 0.0 <= r["mse_z"] <= span2 and 0.0 <= r["mse_t"] <= 1.0
            and r["trials"] == params["trials"] and r["seed"] == params["seed"]
            for r in rows]


def _table2_ok(rows, params):
    del params
    return [_finite(r["rmse_z_re"], r["rmse_t_re"], r["d_sc"])
            and r["rmse_z_re"] >= 0 and r["rmse_t_re"] >= 0
            and r["rmse_z_im"] == 0 and r["rmse_t_im"] == 0 for r in rows]


def _table2_mismatch_ok(rows, params):
    del params
    return [_finite(r["rmse_z_re"], r["rmse_z_im"], r["rmse_t_re"],
                    r["rmse_t_im"]) for r in rows]


INVARIANTS = {"zzb": _zzb_ok, "ecrb": _ecrb_ok, "map_mc": _map_ok,
              "table2": _table2_ok, "table2_mismatch": _table2_mismatch_ok}


def _parsed(header, rows):
    return [{h: v if (x := _num(v)) is None else x
             for h, v in zip(header, row)} for row in rows]


def check_output(output, found, golden) -> list:
    """Pass/fail per expected row of one Output. `found` is read_csv's
    result; `golden` is [header, *rows] or None."""
    if found is None:
        return [False] * output.rows
    header, rows = found
    if len(rows) != output.rows or any(len(r) != len(header) for r in rows):
        return [False] * output.rows
    try:
        ok = INVARIANTS[output.kind](_parsed(header, rows), output.params)
    except (KeyError, TypeError):  # a column is missing or not numeric
        return [False] * output.rows
    if golden is not None:
        if header != golden[0] or len(golden) - 1 != output.rows:
            return [False] * output.rows
        ok = [a and b for a, b in zip(ok, _golden_ok(output.kind, rows,
                                                      golden[1:]))]
    return ok


def check_call(call, code, outdir: Path, golden) -> tuple:
    """(attempted, failed) items of one call whose main returned `code`."""
    attempted = sum(o.rows for o in call.outputs)
    if code != 0:
        return attempted, attempted
    failed = 0
    for out in call.outputs:
        ref = golden[call.key][out.file] if golden is not None else None
        failed += check_output(out, read_csv(outdir / out.file), ref).count(False)
    return attempted, failed
