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
import math
import sys
from dataclasses import astuple, dataclass, fields, replace
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
from .observation import NoiseSpec, noiseless_voltages, observe, sigma2_for_snr_db
from .solver import TABLE2_COLUMNS, TABLE2_MISMATCH, rmse_grid, solve
from .zzb import ZZBGrid, zzb_ao_t, zzb_t, zzb_z

# Every config key, one row each: (section, key, type, default, field).
# The rows drive parsing, the unknown-key error, the defaults, the
# ExperimentConfig field each key feeds (a field in _BUILDERS gets its
# keys' values in row order) and the `#` echo lines, in row order. A
# `tuple` is a comma-separated list of finite floats. [noise] snr_db is
# echoed as the noise.sigma2 it sets, [noise] seed as the `seed` line.
# A section that feeds a field of its own name exists only when the
# config names it, and then its keys without a default are required.
_KEYS = (
    ("wave", "wavelength", float, None, "wave"),
    ("wave", "amplitude", float, 1.0, "wave"),
    ("array", "aperture", float, None, "array"),
    ("array", "pitch", float, None, "array"),
    ("prior", "z_min", float, None, "prior"),
    ("prior", "z_max", float, None, "prior"),
    ("pose", "z", float, None, "pose"),
    ("pose", "t_z", float, 0.0, "pose"),
    ("noise", "sigma2", float, None, "sigma2"),
    ("noise", "snr_db", float, None, None),
    ("noise", "seed", int, 0, None),
    ("sweep", "snr_db", tuple, (), "snr_db"),
    ("elements", "alpha", int, 1, "alpha"),
    ("elements", "beta", int, None, "beta"),
    ("grid", "n_delta", int, 64, "zzb_grid"),
    ("grid", "n_theta_z", int, 64, "zzb_grid"),
    ("grid", "n_theta_t", int, 64, "zzb_grid"),
    ("grid", "n_max_search", int, 16, "zzb_grid"),
    ("grid", "mu_tol", float, 1e-6, "zzb_grid"),
    ("grid", "ecrb_n_z", int, 64, "ecrb_grid"),
    ("grid", "ecrb_n_t", int, 64, "ecrb_grid"),
    ("grid", "map_n_z", int, 256, "map_grid"),
    ("grid", "map_n_t", int, 128, "map_grid"),
    ("grid", "refine_levels", int, 2, "map_grid"),
    ("grid", "trials", int, 200, "trials"),
    ("grid", "u", int, 200, "u"),
    ("grid", "v", int, 200, "v"),
)
_TYPES = {(section, key): kind for section, key, kind, *_ in _KEYS}
_BUILDERS = {"wave": Wave, "array": ArrayGeometry, "prior": UniformPrior,
             "pose": AxialPose, "zzb_grid": ZZBGrid,
             "ecrb_grid": lambda n_z, n_t: (n_z, n_t), "map_grid": MapGrid}


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved config: its `#` echo lines and one field per _KEYS field."""
    scenario: str
    seed: int
    echo: dict
    sigma2: float | None
    snr_db: tuple
    alpha: int
    beta: int | None
    zzb_grid: ZZBGrid
    ecrb_grid: tuple
    map_grid: MapGrid
    trials: int
    u: int
    v: int
    wave: Wave | None = None
    array: ArrayGeometry | None = None
    prior: UniformPrior | None = None
    pose: AxialPose | None = None


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
    if built["sigma2"] is None and db is not None:
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


def _snr_from_db(db: float) -> float:
    return 10.0 ** (db / 10.0)


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
    rows = [(res.region.kind.value, cfg.pose.distance, cfg.pose.tilt,
             z.real, z.imag, t.real, t.imag)]
    _write_csv(out_dir, "solve.csv", cfg,
               ("case", "z_true", "t_z_true", "re_z_hat", "im_z_hat",
                "re_t_hat", "im_t_hat"), rows)


def _zzb_row(cfg: ExperimentConfig, db):
    prior, geom, wave, snr = cfg.prior, cfg.array, cfg.wave, _snr_from_db(db)
    return (db, zzb_z(prior, snr, geom, wave, cfg.zzb_grid),
            zzb_t(prior, snr, geom, wave, cfg.zzb_grid),
            zzb_ao_t(prior, snr, geom, cfg.zzb_grid))


def _ecrb_row(cfg: ExperimentConfig, db):
    prior, geom, wave, snr = cfg.prior, cfg.array, cfg.wave, _snr_from_db(db)
    ez, et = ecrb(prior, snr, geom, wave, cfg.ecrb_grid)
    return (db, ez, et, ecrb_ao(prior, snr, geom, wave, cfg.ecrb_grid))


def _map_row(cfg: ExperimentConfig, db):
    return astuple(monte_carlo_mse(cfg.prior, cfg.array, cfg.wave, db,
                                   cfg.trials, cfg.seed, cfg.map_grid))


def _ao_row(cfg: ExperimentConfig, db):
    prior, geom, wave, snr = cfg.prior, cfg.array, cfg.wave, _snr_from_db(db)
    inf_geom = ArrayGeometry(float("inf"), geom.pitch)
    _, et = ecrb(prior, snr, geom, wave, cfg.ecrb_grid)
    return (db, zzb_t(prior, snr, geom, wave, cfg.zzb_grid),
            zzb_ao_t(prior, snr, geom, cfg.zzb_grid), et,
            ecrb_ao(prior, snr, geom, wave, cfg.ecrb_grid),
            zzb_ao_t(prior, snr, inf_geom, cfg.zzb_grid),
            ecrb_ao(prior, snr, inf_geom, wave, cfg.ecrb_grid))


# Per-SNR row kinds: (columns, row builder).
_ZZB = (("snr_db", "zzb_z", "zzb_t", "zzb_ao_t"), _zzb_row)
_ECRB = (("snr_db", "ecrb_z", "ecrb_t", "ecrb_ao_t"), _ecrb_row)
_MAP = (tuple(f.name for f in fields(MseReport)), _map_row)
_AO = (("snr_db", "zzb_t", "zzb_ao_t", "ecrb_t", "ecrb_ao_t", "zzb_ao_t_inf",
        "ecrb_ao_t_inf"), _ao_row)


def _per_snr(outputs: dict):
    """Runner writing each CSV of `outputs` (file -> row kind) with one row
    per swept SNR; the rows of all files are computed SNR by SNR."""
    def run(cfg: ExperimentConfig, out_dir: str):
        if not cfg.snr_db:
            raise ParseError(f"{cfg.scenario} needs a [sweep] snr_db list")
        rows = {file: [] for file in outputs}
        for db in cfg.snr_db:
            for file, (_, row) in outputs.items():
                rows[file].append(row(cfg, db))
        for file, (columns, _) in outputs.items():
            _write_csv(out_dir, file, cfg, columns, rows[file])
    return run


# subcommand -> (config sections it needs, in check order; runner)
_COMMANDS = {
    "channel": (("pose", "array", "wave"), _cmd_channel),
    "solve": (("pose", "array", "wave", "prior"), _cmd_solve),
    "zzb": (("array", "wave", "prior"), _per_snr({"zzb.csv": _ZZB})),
    "ecrb": (("array", "wave", "prior"), _per_snr({"ecrb.csv": _ECRB})),
    "map-mc": (("array", "wave", "prior"), _per_snr({"map_mc.csv": _MAP})),
}


# ---------------------------------------------------------------------------
# presets

_TABLE2_VALUES = ("wavelength", "aperture", "pitch", "z_min", "z_max", "d_pa",
                  "d_sc", "rmse_z_re", "rmse_z_im", "rmse_t_re", "rmse_t_im")


def _table2_row(cfg: ExperimentConfig, column, solver):
    """One Table 2 row; `solver` names a mismatched regime, or is None."""
    region, lam, d_r, l_s, h1, h2 = column
    wave = Wave(lam)
    geom = ArrayGeometry(d_r, l_s)
    try:
        d_pa = phase_ambiguity_distance(geom, wave)
    except ValidityViolation:
        d_pa = float("nan")
    rmse_z, rmse_t = rmse_grid(region, UniformPrior(h1, h2), geom, wave,
                               u=cfg.u, v=cfg.v, mismatch=solver)
    z, t = complex(rmse_z), complex(rmse_t)
    head = (region.value,) if solver is None else (region.value, solver.value)
    return head + (lam, d_r, l_s, h1, h2, d_pa,
                   spacing_constraint_distance(geom, wave),
                   z.real, z.imag, t.real, t.imag)


def _preset_table2(cfg: ExperimentConfig, out_dir: str):
    _write_csv(out_dir, "table2.csv", cfg, ("case",) + _TABLE2_VALUES,
               [_table2_row(cfg, col, None) for col in TABLE2_COLUMNS])
    _write_csv(out_dir, "table2_mismatch.csv", cfg,
               ("case", "solver") + _TABLE2_VALUES,
               [_table2_row(cfg, col, solver)
                for col, solver in TABLE2_MISMATCH])


def _preset_fig3(cfg: ExperimentConfig, out_dir: str):
    y_r = 10.0 * cfg.wave.wavelength
    z_grid = cfg.wave.wavelength * np.logspace(0.0, 2.0, 41)
    rows = []
    for t_sq in (0.1, 0.5, 0.9):
        t_z = math.sqrt(t_sq)
        for z in z_grid:
            pose = AxialPose(float(z), t_z)
            rows.append((t_z, float(z))
                        + tuple(rerr(kind, pose, 0.0, y_r, cfg.wave)
                                for kind in RERR_KINDS))
    _write_csv(out_dir, "fig3.csv", cfg,
               ("t_z", "z") + tuple(f"rerr_{k}" for k in RERR_KINDS), rows)


def _axis_sweep(field: str, values):
    """Preset runner writing `<preset>.csv`: bound rows over the SNR sweep
    for each value of one array or wave field, the rest as configured."""
    def run(cfg: ExperimentConfig, out_dir: str):
        prior, rows = cfg.prior, []
        for x in values:
            if field == "wavelength":
                geom, wave = cfg.array, replace(cfg.wave, wavelength=x)
            else:
                geom, wave = replace(cfg.array, **{field: x}), cfg.wave
            for db in cfg.snr_db:
                snr = _snr_from_db(db)
                ez, et = ecrb(prior, snr, geom, wave, cfg.ecrb_grid)
                rows.append((x, db, zzb_z(prior, snr, geom, wave, cfg.zzb_grid),
                             zzb_t(prior, snr, geom, wave, cfg.zzb_grid), ez, et))
        _write_csv(out_dir, f"{cfg.scenario}.csv", cfg,
                   (field, "snr_db", "zzb_z", "zzb_t", "ecrb_z", "ecrb_t"),
                   rows)
    return run


_APERTURES = tuple(float(d_r) for d_r in range(2, 11))


def _preset_fig9(cfg: ExperimentConfig, out_dir: str):
    if len(cfg.snr_db) != 1:
        raise ParseError("fig9 takes a single sweep.snr_db value, got "
                         + _fmt(cfg.snr_db))
    snr = _snr_from_db(cfg.snr_db[0])
    rows = []
    for z_min, z_max in ((4.0, 5.0), (4.0, 7.0), (4.0, 10.0), (6.0, 7.0),
                         (9.0, 10.0)):
        prior = UniformPrior(z_min, z_max)
        for d_r in _APERTURES:
            geom = ArrayGeometry(d_r, cfg.array.pitch)
            ez, _ = ecrb(prior, snr, geom, cfg.wave, cfg.ecrb_grid)
            rows.append((z_min, z_max, d_r,
                         zzb_z(prior, snr, geom, cfg.wave, cfg.zzb_grid), ez))
    _write_csv(out_dir, "fig9.csv", cfg,
               ("z_min", "z_max", "aperture", "zzb_z", "ecrb_z"), rows)


_SNR_0_TO_60 = "sweep.snr_db=" + ",".join(str(db) for db in range(0, 61, 10))

# preset -> (its default overrides, runner); command-line overrides
# apply after these.
_PRESETS = {
    "table2": ((), _preset_table2),
    "fig3": (("wave.wavelength=0.01",), _preset_fig3),
    "fig4": (("wave.wavelength=0.1", "array.aperture=5", "array.pitch=0.1",
              "prior.z_min=3", "prior.z_max=5", _SNR_0_TO_60),
             _per_snr({"fig4_zzb.csv": _ZZB, "fig4_ecrb.csv": _ECRB,
                       "fig4_map.csv": _MAP})),
    "fig5": (("wave.wavelength=0.1", "array.aperture=5", "array.pitch=0.1",
              "prior.z_min=4", "prior.z_max=8", "sweep.snr_db=30,40,50"),
             _axis_sweep("aperture", _APERTURES)),
    "fig6": (("wave.wavelength=0.1", "array.aperture=5", "array.pitch=0.1",
              "prior.z_min=5", "prior.z_max=6", _SNR_0_TO_60),
             _axis_sweep("wavelength", (0.1, 0.01, 0.001))),
    "fig7": (("wave.wavelength=0.01", "array.aperture=5", "array.pitch=0.1",
              "prior.z_min=5", "prior.z_max=6", _SNR_0_TO_60),
             _axis_sweep("pitch", (0.02, 0.1, 0.5, 2.5))),
    "fig8": (("wave.wavelength=0.1", "array.aperture=5", "array.pitch=0.5",
              "prior.z_min=3", "prior.z_max=4", _SNR_0_TO_60),
             _per_snr({"fig8.csv": _AO})),
    "fig9": (("wave.wavelength=0.01", "array.aperture=5", "array.pitch=0.5",
              "sweep.snr_db=40"), _preset_fig9),
}


def _build_argparser() -> argparse.ArgumentParser:
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
    args = _build_argparser().parse_args(argv)
    try:
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
