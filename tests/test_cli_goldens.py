"""Golden CLI outputs: every preset and every subcommand on reduced grids.

Each case runs `nfepm.cli.main` and compares every CSV it writes with the
fixture under `tests/cli_goldens/<case>/`. Comment lines must match
exactly, apart from the `# created` timestamp; text cells must match
exactly; numeric cells within a relative 1e-9. Table 2 files add an
absolute floor of 1e-12 of the column's largest finite value, because
their exactly solvable columns are rounding noise (about 1e-16).

Re-capture the fixtures from the current code with

    PYTHONPATH=src python3 tests/test_cli_goldens.py
"""

import math
import shutil
import tempfile
from pathlib import Path

import pytest

from nfepm.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "cli_goldens"

RTOL = 1e-9
TABLE2_ATOL_SHARE = 1e-12

# Grids cut down from the CLI defaults so that all cases run in seconds.
REDUCED_GRID = (("n_delta", 8), ("n_theta_z", 4), ("n_theta_t", 8),
                ("n_max_search", 4), ("ecrb_n_z", 8), ("ecrb_n_t", 8),
                ("trials", 4), ("map_n_z", 32), ("map_n_t", 16),
                ("u", 24), ("v", 24))
OVERRIDES = tuple(arg for key, val in REDUCED_GRID
                  for arg in ("--override", f"grid.{key}={val}"))

# Config sections of the subcommand cases.
POSE = {"wave": {"wavelength": 1.0}, "array": {"aperture": 0.5, "pitch": 0.05},
        "prior": {"z_min": 0.5, "z_max": 0.9}, "pose": {"z": 0.7, "t_z": 0.3}}
NOISY_SOLVE = {"wave": {"wavelength": 0.1, "amplitude": 2.0},
               "array": {"aperture": 1.0, "pitch": 0.05},
               "prior": {"z_min": 5.0, "z_max": 20.0},
               "pose": {"z": 12.0, "t_z": 0.6}, "noise": {"snr_db": 90.0},
               "elements": {"alpha": 2, "beta": 9}}
BOUNDS = {"wave": {"wavelength": 0.1}, "array": {"aperture": 5.0, "pitch": 0.1},
          "prior": {"z_min": 3.0, "z_max": 5.0}, "sweep": {"snr_db": "0,30,60"}}

# case name -> (config sections or None for a preset, argv before --out)
CASES = {
    **{name: (None, ("preset", name))
       for name in ("table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig9")},
    "channel": (POSE, ("channel",)),
    "solve": (POSE, ("solve",)),
    "solve_noisy": (NOISY_SOLVE, ("solve", "--seed", "3")),
    "zzb": (BOUNDS, ("zzb",)),
    "ecrb": (BOUNDS, ("ecrb",)),
    "map-mc": (BOUNDS, ("map-mc", "--seed", "5")),
}


def run_case(name: str, workdir: Path) -> Path:
    """Run one case in `workdir` and return the directory of its CSVs."""
    sections, argv = CASES[name]
    if sections is not None:
        config = workdir / "config.ini"
        config.write_text("".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for section, keys in sections.items()), encoding="utf-8")
        argv = argv[:1] + ("--config", str(config)) + argv[1:]
    out = workdir / "out"
    assert main(list(argv) + ["--out", str(out)] + list(OVERRIDES)) == 0
    return out


def _split(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines
                if ln.startswith("#") and not ln.startswith("# created ")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return comments, rows


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _column_scales(rows):
    scales = []
    for column in zip(*rows[1:]):
        values = [abs(x) for x in map(_number, column)
                  if x is not None and math.isfinite(x)]
        scales.append(max(values, default=0.0))
    return scales


def _same_cell(got: str, ref: str, atol: float) -> bool:
    x, y = _number(got), _number(ref)
    if x is None or y is None:
        return got == ref
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + atol


def compare(got_path: Path, ref_path: Path) -> list:
    """Mismatches between a fresh CSV and its fixture, as messages."""
    got_comments, got_rows = _split(got_path)
    ref_comments, ref_rows = _split(ref_path)
    problems = []
    if got_comments != ref_comments:
        problems.append(f"comment lines differ: {got_comments} != {ref_comments}")
    if len(got_rows) != len(ref_rows) or got_rows[:1] != ref_rows[:1]:
        return problems + [f"header or row count differs: {len(got_rows)} rows, "
                           f"header {got_rows[:1]} vs {ref_rows[:1]}"]
    share = TABLE2_ATOL_SHARE if ref_path.name.startswith("table2") else 0.0
    scales = _column_scales(ref_rows)
    for i, (got, ref) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=1):
        if len(got) != len(ref) or not all(
                _same_cell(a, b, share * s) for a, b, s in zip(got, ref, scales)):
            problems.append(f"row {i}: {got} != {ref}")
    return problems


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, tmp_path):
    out = run_case(name, tmp_path)
    ref_dir = GOLDEN_DIR / name
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in ref_dir.iterdir())
    for file in written:
        problems = compare(out / file, ref_dir / file)
        assert not problems, f"{name}/{file}: " + "; ".join(problems)


def capture() -> None:
    """Rewrite every fixture from the current code."""
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(name, Path(tmp))
            dest = GOLDEN_DIR / name
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(out, dest)
        print(f"captured {name}: {sorted(p.name for p in dest.iterdir())}")


if __name__ == "__main__":
    capture()
