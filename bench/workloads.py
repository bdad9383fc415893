"""Benchmark workloads: the `nfepm.cli.main` calls one batch makes.

A batch is the unit a fresh interpreter executes and the benchmark times.
Every workload writes its INI configs into a work directory and returns
the list of calls, each with the CSV files it must produce and the
parameters the output checks need. Only `map_mc` depends on the seed,
and only through the CLI's `--seed` flag; item counts and grid sizes
never depend on it.

Two sizes exist: `full` is what the benchmark measures, `smoke` is a
cut-down copy of each workload for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Output:
    """One CSV a call writes: its file name, its check kind, the number
    of data rows expected, and the parameters the invariants need."""
    file: str
    kind: str
    rows: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Call:
    """One `nfepm.cli.main(argv)` call. `key` names it in goldens and
    output directories; `{out}` in argv is replaced by its output dir."""
    key: str
    argv: tuple
    outputs: tuple


@dataclass(frozen=True)
class Workload:
    """A named workload; BENCHMARK.json says why each was chosen."""
    name: str
    layers: tuple  # layers that must record at least one traced call
    build: object  # (seed, size, workdir) -> list[Call]
    pinned: bool = True  # single-threaded: each batch runs on one CPU


# The fig4 geometry of the paper's bound curves.
_FIG4 = {"wave": {"wavelength": 0.1},
         "array": {"aperture": 5.0, "pitch": 0.1},
         "prior": {"z_min": 3.0, "z_max": 5.0}}

# Grids are reduced from the CLI defaults by cutting n_delta and n_theta_z,
# which scale family and mu work alike, so the ZZB profile keeps its shape.
_SIZES = {
    "snr_sweep": {
        "full": {"snr_db": tuple(range(0, 61, 5)),
                 "grid": {"n_delta": 24, "n_theta_z": 24}},
        "smoke": {"snr_db": (0, 30, 60),
                  "grid": {"n_delta": 8, "n_theta_z": 4, "n_theta_t": 8,
                           "n_max_search": 4}},
    },
    "geometry_scan": {
        "full": {"apertures": (2.0, 4.0, 7.0, 10.0),
                 "priors": ((4.0, 5.0), (4.0, 7.0), (6.0, 7.0), (9.0, 10.0)),
                 "grid": {"n_delta": 24, "n_theta_z": 12}},
        "smoke": {"apertures": (2.0, 7.0), "priors": ((4.0, 5.0),),
                  "grid": {"n_delta": 8, "n_theta_z": 4, "n_theta_t": 8,
                           "n_max_search": 4}},
    },
    "map_mc": {
        "full": {"snr_db": tuple(range(0, 61, 10)), "trials": 60, "grid": {}},
        "smoke": {"snr_db": (0, 40), "trials": 4,
                  "grid": {"map_n_z": 32, "map_n_t": 16}},
    },
    "solver_grid": {
        "full": {"grid": {"u": 800, "v": 800}},
        "smoke": {"grid": {"u": 40, "v": 40}},
    },
}

# Table 2 of the paper: nine solver columns, seven mismatch pairings.
_TABLE2_ROWS = 9
_TABLE2_MISMATCH_ROWS = 7


def _fmt(x) -> str:
    return repr(float(x))


def _write_ini(path: Path, sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v if isinstance(v, str) else _fmt(v)}"
                     for k, v in keys.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _overrides(grid: dict) -> tuple:
    out = ()
    for key, val in grid.items():
        out += ("--override", f"grid.{key}={val}")
    return out


def _bound_calls(key: str, ini: str, size: dict, span: float, n_snr: int):
    grid = _overrides(size["grid"])
    return [
        Call(f"{key}_zzb", ("zzb", "--config", ini, "--out", "{out}") + grid,
             (Output("zzb.csv", "zzb", n_snr, {"span": span}),)),
        Call(f"{key}_ecrb", ("ecrb", "--config", ini, "--out", "{out}") + grid,
             (Output("ecrb.csv", "ecrb", n_snr, {"span": span}),)),
    ]


def _snr_sweep(seed: int, size: str, workdir: Path):
    del seed
    s = _SIZES["snr_sweep"][size]
    cfg = dict(_FIG4, sweep={"snr_db": ",".join(_fmt(x) for x in s["snr_db"])})
    ini = _write_ini(workdir / "snr_sweep.ini", cfg)
    span = cfg["prior"]["z_max"] - cfg["prior"]["z_min"]
    return _bound_calls("fig4", ini, s, span, len(s["snr_db"]))


def _geometry_scan(seed: int, size: str, workdir: Path):
    del seed
    s = _SIZES["geometry_scan"][size]
    calls = []
    for z_min, z_max in s["priors"]:
        for aperture in s["apertures"]:
            key = f"p{z_min:g}-{z_max:g}_a{aperture:g}"
            ini = _write_ini(workdir / f"{key}.ini", {
                "wave": {"wavelength": 0.01},
                "array": {"aperture": aperture, "pitch": 0.5},
                "prior": {"z_min": z_min, "z_max": z_max},
                "sweep": {"snr_db": "40.0"}})
            calls += _bound_calls(key, ini, s, z_max - z_min, 1)
    return calls


def _map_mc(seed: int, size: str, workdir: Path):
    s = _SIZES["map_mc"][size]
    cfg = dict(_FIG4, sweep={"snr_db": ",".join(_fmt(x) for x in s["snr_db"])})
    ini = _write_ini(workdir / "map_mc.ini", cfg)
    grid = dict(s["grid"], trials=s["trials"])
    span = cfg["prior"]["z_max"] - cfg["prior"]["z_min"]
    argv = ("map-mc", "--config", ini, "--out", "{out}",
            "--seed", str(seed)) + _overrides(grid)
    return [Call("fig4_map", argv,
                 (Output("map_mc.csv", "map_mc", len(s["snr_db"]),
                         {"span": span, "trials": s["trials"], "seed": seed}),))]


def _solver_grid(seed: int, size: str, workdir: Path):
    del seed, workdir
    s = _SIZES["solver_grid"][size]
    argv = ("preset", "table2", "--out", "{out}") + _overrides(s["grid"])
    return [Call("table2", argv,
                 (Output("table2.csv", "table2", _TABLE2_ROWS),
                  Output("table2_mismatch.csv", "table2_mismatch",
                         _TABLE2_MISMATCH_ROWS)))]


WORKLOADS = {w.name: w for w in (
    Workload("snr_sweep", ("cli", "zzb", "ecrb", "numerics"), _snr_sweep),
    Workload("geometry_scan", ("cli", "zzb", "ecrb", "numerics"),
             _geometry_scan),
    Workload("map_mc", ("cli", "mapest", "channel", "observation", "numerics"),
             _map_mc, pinned=False),
    Workload("solver_grid", ("cli", "solver", "geometry"), _solver_grid),
)}

SIZES = tuple(_SIZES["snr_sweep"])
