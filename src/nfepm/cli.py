"""Experiment runner: INI configs, preset sweeps, CSV emission.

Every CSV starts with `#` comment lines echoing the resolved
configuration, the seed, and the package version, so a result file can
be reproduced byte-for-byte (modulo the timestamp line) from its own
header.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import sys
from dataclasses import astuple, fields, make_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channel import RERR_KINDS, AxialPose, rerr
from .ecrb import ecrb, ecrb_ao
from .errors import ConfigError, NumericalError, ParseError, ValidityViolation
from .geometry import (ArrayGeometry, UniformPrior, Wave,
                       phase_ambiguity_distance, spacing_constraint_distance)
from .mapest import MapGrid, MseReport, monte_carlo_mse
from .numerics import EXPECT_GRID
from .observation import (NoiseSpec, noiseless_voltages, observe,
                          sigma2_for_snr_db, snr_from_db)
from .solver import TABLE2_COLUMNS, TABLE2_MISMATCH, rmse_grids, solve
from .zzb import ZZBGrid, zzb_ao_t, zzb_z

# Every config key, one row each: (section, key, type, default, field).
# The rows drive parsing, the unknown-key error, the defaults, the
# ExperimentConfig field each key feeds (a field in _BUILDERS gets its
# keys' values in row order) and the `#` echo lines, in row order. A
# `tuple` is a comma-separated list of finite floats. [noise] snr_db is
# echoed as the noise.sigma2 it sets, [noise] seed as the `seed` line.
# A section that feeds a field of its own name exists only when the
# config names it, and then its keys without a default are required.
# Defaults of library objects are read from the library; the Monte Carlo
# trials and the Table 2 grid u x v are the CLI's own. grid.n_max_search
# is retired, as the ZZB no longer searches boxes: it is accepted, feeds
# nothing and is echoed only when given, because the benchmark's smoke
# sizes (bench/workloads.py) still pass it; the row goes when they drop it.
_KEYS = (
    ("wave", "wavelength", float, None, "wave"),
    ("wave", "amplitude", float, Wave.amplitude, "wave"),
    ("array", "aperture", float, None, "array"),
    ("array", "pitch", float, None, "array"),
    ("prior", "z_min", float, None, "prior"),
    ("prior", "z_max", float, None, "prior"),
    ("pose", "z", float, None, "pose"),
    ("pose", "t_z", float, 0.0, "pose"),
    ("noise", "sigma2", float, None, "sigma2"),
    ("noise", "snr_db", float, None, None),
    ("noise", "seed", int, NoiseSpec.seed, None),
    ("sweep", "snr_db", tuple, (), "snr_db"),
    ("elements", "alpha", int, 1, "alpha"),
    ("elements", "beta", int, None, "beta"),
    ("grid", "n_delta", int, ZZBGrid.n_delta, "zzb_grid"),
    ("grid", "n_theta_z", int, ZZBGrid.n_theta_z, "zzb_grid"),
    ("grid", "n_theta_t", int, ZZBGrid.n_theta_t, "zzb_grid"),
    ("grid", "n_max_search", int, None, None),
    ("grid", "ecrb_n_z", int, EXPECT_GRID[0], "ecrb_grid"),
    ("grid", "ecrb_n_t", int, EXPECT_GRID[1], "ecrb_grid"),
    ("grid", "map_n_z", int, MapGrid.n_z, "map_grid"),
    ("grid", "map_n_t", int, MapGrid.n_t, "map_grid"),
    ("grid", "refine_levels", int, MapGrid.refine_levels, "map_grid"),
    ("grid", "trials", int, 200, "trials"),
    ("grid", "u", int, 200, "u"),
    ("grid", "v", int, 200, "v"),
)
_TYPES = {(section, key): kind for section, key, kind, *_ in _KEYS}
_BUILDERS = {"wave": Wave, "array": ArrayGeometry, "prior": UniformPrior,
             "pose": AxialPose, "zzb_grid": ZZBGrid,
             "ecrb_grid": lambda *grid: grid, "map_grid": MapGrid}

# A resolved config: its `#` echo lines and one field per _KEYS field,
# None for a section the config does not name.
ExperimentConfig = make_dataclass(
    "ExperimentConfig", ["scenario", "seed", "echo"]
    + [(field, object, None) for field in dict.fromkeys(f for *_, f in _KEYS)
       if field is not None], frozen=True)


def _parse_value(section: str, key: str, raw: str):
    kind = _TYPES.get((section, key))
    if kind is None:
        raise ParseError(f"unknown config key [{section}] {key}")
    raw = raw.strip()
    try:
        if kind is not tuple:
            return kind(raw)
        values = tuple(float(tok) for tok in raw.split(","))
        if not all(math.isfinite(x) for x in values):
            raise ValueError("non-finite entry")
        return values
    except ValueError as exc:
        raise ParseError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _apply_overrides(values: dict, overrides):
    for item in overrides or ():
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ParseError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        values.setdefault(section, {})[key] = _parse_value(section, key, raw)


def _read_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"config {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in {s for s, *_ in _KEYS}:
            raise ParseError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            values.setdefault(section, {})[key] = _parse_value(section, key, raw)
    return values


def _build_config(scenario: str, values: dict, seed_flag) -> ExperimentConfig:
    settings, parts = {}, {}
    for section, key, _, default, field in _KEYS:
        if field == section and section not in values:
            continue
        value = values.get(section, {}).get(key, default)
        if value is None and field == section:
            raise ParseError(f"missing [{section}] {key}")
        settings[f"{section}.{key}"] = value
        parts.setdefault(field, []).append(value)
    built = {field: _BUILDERS[field](*vals) if field in _BUILDERS else vals[0]
             for field, vals in parts.items() if field is not None}
    db = settings.pop("noise.snr_db")
    if db is not None:
        if built["sigma2"] is not None:
            raise ParseError("[noise] sigma2 and [noise] snr_db conflict; set one")
        if "wave" not in built:
            raise ParseError("[noise] snr_db needs a [wave] section")
        built["sigma2"] = settings["noise.sigma2"] = sigma2_for_snr_db(
            built["wave"], db)
    seed = settings.pop("noise.seed")
    seed = int(seed if seed_flag is None else seed_flag)
    echo = {"scenario": scenario, "seed": str(seed)}
    echo.update((name, _fmt(value)) for name, value in settings.items()
                if value is not None and value != ())
    return ExperimentConfig(scenario, seed, echo, **built)


def _write_csv(out_dir: str, name: str, cfg: ExperimentConfig, columns, rows):
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# nfepm {__version__}\n")
        fh.write(f"# created {datetime.now(timezone.utc).isoformat()}\n")
        for key, val in cfg.echo.items():
            fh.write(f"# {key} = {val}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _fmt(x):
    if isinstance(x, tuple):
        return ",".join(_fmt(v) for v in x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_channel(cfg: ExperimentConfig, out_dir: str):
    volts = noiseless_voltages(cfg.pose, cfg.array, cfg.wave)
    rows = [(n, v.real, v.imag)
            for n, v in enumerate(volts.values, start=1)]
    _write_csv(out_dir, "channel.csv", cfg, ("index", "re_volt", "im_volt"), rows)


def _cmd_solve(cfg: ExperimentConfig, out_dir: str):
    volts = noiseless_voltages(cfg.pose, cfg.array, cfg.wave)
    if cfg.sigma2:
        volts = observe(volts, NoiseSpec(cfg.sigma2, cfg.seed), trial=0)
    res = solve(volts, cfg.prior, cfg.array, cfg.wave, alpha_idx=cfg.alpha,
                beta_idx=cfg.beta)
    z, t = complex(res.z_hat), complex(res.t_hat)
    rows = [(res.region.value, cfg.pose.distance, cfg.pose.tilt,
             z.real, z.imag, t.real, t.imag)]
    _write_csv(out_dir, "solve.csv", cfg,
               ("case", "z_true", "t_z_true", "re_z_hat", "im_z_hat",
                "re_t_hat", "im_t_hat"), rows)


# Bound column table: column names -> their values for one case (prior p,
# array g, wave w) over the SNR sweep s (MAP: in dB), a sequence per column.
_MAP = tuple(f.name for f in fields(MseReport))
_BOUNDS = {
    ("zzb_z",): lambda cfg, p, s, g, w: (zzb_z(p, s, g, w, cfg.zzb_grid),),
    ("zzb_t", "zzb_ao_t"): lambda cfg, p, s, g, w: (
        zzb_ao_t(p, s, g, cfg.zzb_grid),) * 2,
    ("ecrb_z", "ecrb_t"): lambda cfg, p, s, g, w: ecrb(p, s, g, w, cfg.ecrb_grid),
    ("ecrb_ao_t",): lambda cfg, p, s, g, w: (ecrb_ao(p, s, g, cfg.ecrb_grid),),
    ("zzb_ao_t_inf",): lambda cfg, p, s, g, w: (
        zzb_ao_t(p, s, replace(g, aperture=math.inf), cfg.zzb_grid),),
    ("ecrb_ao_t_inf",): lambda cfg, p, s, g, w: (
        ecrb_ao(p, s, replace(g, aperture=math.inf), cfg.ecrb_grid),),
    _MAP[1:]: lambda cfg, p, s, g, w: zip(*(
        astuple(r)[1:] for r in monte_carlo_mse(p, g, w, cfg.snr_db, cfg.trials,
                                                 cfg.seed, cfg.map_grid))),
}
_ZZB = ("snr_db", "zzb_z", "zzb_t", "zzb_ao_t")
_ECRB = ("snr_db", "ecrb_z", "ecrb_t", "ecrb_ao_t")
_AXIS = ("snr_db", "zzb_z", "zzb_t", "ecrb_z", "ecrb_t")


def _sweep(outputs: dict,
           cases=lambda cfg: [((), cfg.prior, cfg.array, cfg.wave)]):
    """Runner writing each CSV of `outputs` (file -> header), a row per case
    (label, prior, array, wave) of cases(cfg) and swept SNR: the label's
    cells, then snr_db or _BOUNDS columns, each bound called once per case
    for the whole sweep. A CSV without snr_db takes a single SNR."""
    def run(cfg: ExperimentConfig, out_dir: str):
        if not cfg.snr_db:
            raise ParseError(f"{cfg.scenario} needs a [sweep] snr_db list")
        if len(cfg.snr_db) > 1 and not all("snr_db" in h for h in outputs.values()):
            raise ParseError(f"{cfg.scenario} takes a single sweep.snr_db value, "
                             f"got {_fmt(cfg.snr_db)}")
        snr = list(map(snr_from_db, cfg.snr_db))
        wanted = set().union(*outputs.values())
        rows = {file: [] for file in outputs}
        for label, prior, geom, wave in cases(cfg):
            values = {"snr_db": cfg.snr_db}
            for names, bound in _BOUNDS.items():
                if wanted.intersection(names):
                    values.update(zip(names, bound(cfg, prior, snr, geom, wave)))
            for file, header in outputs.items():
                rows[file] += [label + cells for cells in
                               zip(*(values[c] for c in header[len(label):]))]
        for file, header in outputs.items():
            _write_csv(out_dir, file, cfg, header, rows[file])
    return run


# subcommand -> (config sections it needs, in check order; runner)
_COMMANDS = {
    "channel": (("pose", "array", "wave"), _cmd_channel),
    "solve": (("pose", "array", "wave", "prior"), _cmd_solve),
    "zzb": (("array", "wave", "prior"), _sweep({"zzb.csv": _ZZB})),
    "ecrb": (("array", "wave", "prior"), _sweep({"ecrb.csv": _ECRB})),
    "map-mc": (("array", "wave", "prior"), _sweep({"map_mc.csv": _MAP})),
}


# ---------------------------------------------------------------------------
# presets

_TABLE2_VALUES = ("wavelength", "aperture", "pitch", "z_min", "z_max", "d_pa",
                  "d_sc", "rmse_z_re", "rmse_z_im", "rmse_t_re", "rmse_t_im")


def _table2_rows(cfg: ExperimentConfig, column):
    """A column's own-solver row, then its mismatch rows, from one pass."""
    region, lam, d_r, l_s, h1, h2 = column
    wave, geom = Wave(lam), ArrayGeometry(d_r, l_s)
    try:
        d_pa = phase_ambiguity_distance(geom, wave)
    except ValidityViolation:
        d_pa = float("nan")
    values = (lam, d_r, l_s, h1, h2, d_pa, spacing_constraint_distance(geom, wave))
    solvers = (None,) + tuple(s for c, s in TABLE2_MISMATCH if c == column)
    rmse = rmse_grids(region, UniformPrior(h1, h2), geom, wave, u=cfg.u,
                      v=cfg.v, solvers=solvers)
    return [(region.value,) + (() if solver is None else (solver.value,)) + values
            + (z.real, z.imag, t.real, t.imag)
            for solver, (z, t) in zip(solvers, (map(complex, r) for r in rmse))]


def _preset_table2(cfg: ExperimentConfig, out_dir: str):
    rows = [_table2_rows(cfg, column) for column in TABLE2_COLUMNS]
    _write_csv(out_dir, "table2.csv", cfg, ("case",) + _TABLE2_VALUES,
               [own for own, *_ in rows])
    _write_csv(out_dir, "table2_mismatch.csv", cfg,
               ("case", "solver") + _TABLE2_VALUES,
               [row for _, *mismatched in rows for row in mismatched])


def _preset_fig3(cfg: ExperimentConfig, out_dir: str):
    y_r = 10.0 * cfg.wave.wavelength
    z_grid = cfg.wave.wavelength * np.logspace(0.0, 2.0, 41)
    rows = []
    for t_sq in (0.1, 0.5, 0.9):
        t_z = math.sqrt(t_sq)
        pose = AxialPose(z_grid, t_z)
        errs = [rerr(kind, pose, 0.0, y_r, cfg.wave) for kind in RERR_KINDS]
        rows += [(t_z, float(z)) + row for z, row in zip(z_grid, zip(*errs))]
    _write_csv(out_dir, "fig3.csv", cfg,
               ("t_z", "z") + tuple(f"rerr_{k}" for k in RERR_KINDS), rows)


_APERTURES = tuple(float(d_r) for d_r in range(2, 11))


_SNR_0_TO_60 = "sweep.snr_db=" + ",".join(str(db) for db in range(0, 61, 10))

# preset -> (its default overrides, runner); command-line overrides
# apply after these.
_PRESETS = {
    "table2": ((), _preset_table2),
    "fig3": (("wave.wavelength=0.01",), _preset_fig3),
    "fig4": (("wave.wavelength=0.1", "array.aperture=5", "array.pitch=0.1",
              "prior.z_min=3", "prior.z_max=5", _SNR_0_TO_60),
             _sweep({"fig4_zzb.csv": _ZZB, "fig4_ecrb.csv": _ECRB,
                     "fig4_map.csv": _MAP})),
    "fig5": (("wave.wavelength=0.1", "array.aperture=5", "array.pitch=0.1",
              "prior.z_min=4", "prior.z_max=8", "sweep.snr_db=30,40,50"),
             _sweep({"fig5.csv": ("aperture",) + _AXIS},
                    lambda c: [((x,), c.prior, replace(c.array, aperture=x), c.wave)
                               for x in _APERTURES])),
    "fig6": (("wave.wavelength=0.1", "array.aperture=5", "array.pitch=0.1",
              "prior.z_min=5", "prior.z_max=6", _SNR_0_TO_60),
             _sweep({"fig6.csv": ("wavelength",) + _AXIS},
                    lambda c: [((x,), c.prior, c.array, replace(c.wave, wavelength=x))
                               for x in (0.1, 0.01, 0.001)])),
    "fig7": (("wave.wavelength=0.01", "array.aperture=5", "array.pitch=0.1",
              "prior.z_min=5", "prior.z_max=6", _SNR_0_TO_60),
             _sweep({"fig7.csv": ("pitch",) + _AXIS},
                    lambda c: [((x,), c.prior, replace(c.array, pitch=x), c.wave)
                               for x in (0.02, 0.1, 0.5, 2.5)])),
    "fig8": (("wave.wavelength=0.1", "array.aperture=5", "array.pitch=0.5",
              "prior.z_min=3", "prior.z_max=4", _SNR_0_TO_60),
             _sweep({"fig8.csv": ("snr_db", "zzb_t", "zzb_ao_t", "ecrb_t",
                                  "ecrb_ao_t", "zzb_ao_t_inf", "ecrb_ao_t_inf")})),
    "fig9": (("wave.wavelength=0.01", "array.aperture=5", "array.pitch=0.5",
              "sweep.snr_db=40"),
             _sweep({"fig9.csv": ("z_min", "z_max", "aperture", "zzb_z",
                                  "ecrb_z")},
                    lambda c: [((lo, hi, d_r), UniformPrior(lo, hi),
                                ArrayGeometry(d_r, c.array.pitch), c.wave)
                               for lo, hi in ((4.0, 5.0), (4.0, 7.0), (4.0, 10.0),
                                              (6.0, 7.0), (9.0, 10.0))
                               for d_r in _APERTURES])),
}


@functools.cache
def _argparser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nfepm",
        description="Near-field channel, bound, and estimator experiments.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("preset", *_COMMANDS):
        p = sub.add_parser(name)
        if name == "preset":
            p.add_argument("name", help="one of " + ", ".join(sorted(_PRESETS)))
        else:
            p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
    return parser


def _run(args) -> None:
    if args.subcommand == "preset":
        if args.name not in _PRESETS:
            raise ParseError(f"unknown preset {args.name!r}; choose from "
                             + ", ".join(sorted(_PRESETS)))
        name, values, sections = args.name, {}, ()
        defaults, runner = _PRESETS[name]
    else:
        name, values, defaults = args.subcommand, _read_config(args.config), ()
        sections, runner = _COMMANDS[name]
    _apply_overrides(values, defaults + tuple(args.override))
    cfg = _build_config(name, values, args.seed)
    for section in sections:
        if getattr(cfg, section) is None:
            raise ParseError(f"missing [{section}] section")
    runner(cfg, args.out)


def main(argv=None) -> int:
    args = _argparser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # non-finite results raise anyway
            _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
