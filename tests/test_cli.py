"""Command-line interface: config parsing, exit codes, CSV emission."""

import csv
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfepm import errors
from nfepm.channel import AxialPose
from nfepm.cli import main
from nfepm.geometry import ArrayGeometry, Wave
from nfepm.observation import noiseless_voltages
from test_cli_goldens import OVERRIDES, _number

BASE_INI = """\
[wave]
wavelength = 1.0

[array]
aperture = 0.5
pitch = 0.05

[prior]
z_min = 0.5
z_max = 0.9

[pose]
z = 0.7
t_z = 0.3
"""

NOISY_INI = """\
[wave]
wavelength = 1.0

[array]
aperture = 0.5
pitch = 0.05

[prior]
z_min = 0.05
z_max = 0.9

[pose]
z = 0.5
t_z = 0.3

[noise]
sigma2 = 25.0
"""


def write_ini(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_result(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return comments, data[0], data[1:]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# The package's public names, pinned so that none comes or goes unnoticed.
PUBLIC_NAMES = """
    ArrayGeometry AxialPose FisherInfo GeneralPose MapGrid MseReport
    NoiseSpec Region SolveResult UniformPrior Voltages Wave ZZBGrid
    axis_channel channel classify_region decouple degenerate_channel ecrb
    ecrb_ao ecrb_asymptotic element_voltages errors expect_uniform
    fim_closed fraunhofer_distance fresnel_distance general_channel
    geometry log_likelihood map_estimate mapest monte_carlo_mse mu_L_ao
    nf_channel noiseless_voltages numerics observation observe
    phase_ambiguity_distance q_function rerr rmse_grid scalar_green
    scaling_factor sigma2_for_snr_db simp_channel snr snr_db snr_from_db
    solve solve_case1 solve_case2_pa solver spacing_constraint_distance
    stream vector_field zzb zzb_ao_t zzb_t zzb_z
""".split()


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no library code uses scipy.integrate; only the test oracles do
    src = Path(errors.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, nfepm, nfepm.cli; print('scipy.integrate' in sys.modules); "
         "print(sorted(nfepm.__all__))"],
        cwd=src, capture_output=True, text=True, check=True, timeout=120)
    loaded, names = probe.stdout.splitlines()
    assert loaded == "False"
    assert names == repr(PUBLIC_NAMES)


def test_unknown_preset(tmp_path, capsys):
    assert main(["preset", "nope", "--out", str(tmp_path)]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.ini")
    assert main(["solve", "--config", missing, "--out", str(tmp_path)]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_bad_overrides(tmp_path, capsys):
    cfg = write_ini(tmp_path, BASE_INI)
    out = str(tmp_path)
    assert main(["channel", "--config", cfg, "--out", out,
                 "--override", "wave.bogus=1"]) == 1
    assert "unknown config key" in capsys.readouterr().err
    assert main(["channel", "--config", cfg, "--out", out,
                 "--override", "noequals"]) == 1
    assert "must look like" in capsys.readouterr().err
    assert main(["channel", "--config", cfg, "--out", out,
                 "--override", "grid.trials=abc"]) == 1
    assert "bad value" in capsys.readouterr().err


def test_removed_mu_tol_key_is_unknown(tmp_path, capsys):
    # the ZZB family integrals take their panel count from a fixed rule, so
    # the refinement tolerance [grid] mu_tol is gone from the config
    cfg = write_ini(tmp_path, BASE_INI + "\n[sweep]\nsnr_db = 30\n")
    out = tmp_path / "out"
    assert main(["zzb", "--config", cfg, "--out", str(out),
                 "--override", "grid.mu_tol=1e-6"]) == 1
    assert "unknown config key [grid] mu_tol" in capsys.readouterr().err
    assert not out.exists()


# Non-finite inputs: (subcommand argv, extra INI text, override).
NON_FINITE_PROBES = {
    "wavelength-nan": (("preset", "fig4"), None, "wave.wavelength=nan"),
    "z_max-inf": (("preset", "fig4"), None, "prior.z_max=inf"),
    "pitch-nan": (("preset", "fig4"), None, "array.pitch=nan"),
    "aperture-nan": (("preset", "fig4"), None, "array.aperture=nan"),
    "sweep-nan": (("zzb",), "\n[sweep]\nsnr_db = nan,30\n", None),
    # SNRs and noise variances with no finite positive float value
    "noise-snr_db-nan": (("solve",), "", "noise.snr_db=nan"),
    "noise-snr_db-inf": (("solve",), "", "noise.snr_db=inf"),
    "noise-snr_db-minus-inf": (("solve",), "", "noise.snr_db=-inf"),
    "noise-snr_db-4000": (("solve",), "", "noise.snr_db=4000"),
    "noise-snr_db-minus-4000": (("solve",), "", "noise.snr_db=-4000"),
    "noise-sigma2-inf": (("solve",), "", "noise.sigma2=inf"),
    "noise-sigma2-nan": (("solve",), "", "noise.sigma2=nan"),
    # a drive level whose square, the drive power, overflows
    "amplitude-1e200": (("solve",), "\n[noise]\nsnr_db = 30\n",
                        "wave.amplitude=1e200"),
    "sweep-4000-zzb": (("zzb",), "", "sweep.snr_db=4000"),
    "sweep-minus-4000-zzb": (("zzb",), "", "sweep.snr_db=-4000"),
    "sweep-4000-ecrb": (("ecrb",), "", "sweep.snr_db=4000"),
    "sweep-4000-map-mc": (("map-mc",), "", "sweep.snr_db=4000"),
    "sweep-minus-4000-map-mc": (("map-mc",), "", "sweep.snr_db=-4000"),
}


def _assert_config_error(tmp_path, capsys, argv, extra_ini, overrides):
    """Run argv with its overrides, on BASE_INI plus extra_ini unless that
    is None, and expect exit 1, an `error: ` line, no stdout, no output."""
    args = list(argv) + ["--out", str(tmp_path / "out")]
    if extra_ini is not None:
        args += ["--config", write_ini(tmp_path, BASE_INI + extra_ini)]
    args += [arg for item in overrides for arg in ("--override", item)]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, extra_ini, override",
                         NON_FINITE_PROBES.values(), ids=NON_FINITE_PROBES)
def test_non_finite_input_is_config_error(tmp_path, capsys, argv, extra_ini,
                                          override):
    _assert_config_error(tmp_path, capsys, argv, extra_ini,
                         () if override is None else (override,))


SWEEP_30 = "\n[sweep]\nsnr_db = 30\n"
# pitch 1e-9 on a 5 m aperture: 5e9 elements, 37 GiB of element centers
FINE_PITCH = ("array.aperture=5", "array.pitch=1e-9")

# Well-formed inputs out of range: negative seeds, array requests over the
# cell cap, rejected before anything is allocated, and both noise keys,
# each of which sets the noise variance:
# (argv, extra INI text or None for a preset, overrides).
OUT_OF_RANGE_PROBES = {
    "noise-sigma2-and-snr_db": (("solve",),
                                "\n[noise]\nsigma2 = 1e-6\nsnr_db = 0\n", ()),
    "map-mc-seed-minus-1": (("map-mc", "--seed", "-1"), SWEEP_30, ()),
    "solve-seed-minus-1": (("solve", "--seed", "-1"),
                           "\n[noise]\nsnr_db = 30\n", ()),
    "noise-seed-minus-3": (("map-mc",), SWEEP_30, ("noise.seed=-3",)),
    "channel-fine-pitch": (("channel",), "", FINE_PITCH),
    "solve-fine-pitch": (("solve",), "", FINE_PITCH),
    "map-mc-fine-pitch": (("map-mc",), SWEEP_30, FINE_PITCH),
    "map-mc-grid": (("map-mc",), SWEEP_30,
                    ("grid.map_n_z=100000", "grid.map_n_t=100000")),
    "map-mc-trials": (("map-mc",), SWEEP_30, ("grid.trials=1000000000",)),
    "ecrb-grid": (("ecrb",), SWEEP_30,
                  ("grid.ecrb_n_z=100000", "grid.ecrb_n_t=100000")),
    "zzb-grid": (("zzb",), SWEEP_30, ("grid.n_theta_z=100000",)),
    "zzb-family-block": (("zzb",), SWEEP_30, ("grid.n_theta_z=2341",)),
    "zzb-detection-grid": (("zzb",), SWEEP_30, ("grid.n_theta_t=262145",)),
    "table2-grid": (("preset", "table2"), None, ("grid.u=100000", "grid.v=100000")),
}


@pytest.mark.parametrize("argv, extra_ini, overrides",
                         OUT_OF_RANGE_PROBES.values(), ids=OUT_OF_RANGE_PROBES)
def test_out_of_range_input_is_config_error(tmp_path, capsys, argv, extra_ini,
                                            overrides):
    _assert_config_error(tmp_path, capsys, argv, extra_ini, overrides)


# Valid SNRs (ratios > 0) at which the expected-CRB prefactor
# 1 / (2 snr pitch) leaves the float range: (argv, sweep.snr_db). At
# -3075 dB it overflows; at -3227 dB, 2 snr pitch underflows to 0.
BOUND_OVERFLOW_PROBES = {
    "ecrb-3075": (("ecrb",), -3075),
    "ecrb-3227": (("ecrb",), -3227),
    "fig8-3075": (("preset", "fig8"), -3075),
}


@pytest.mark.parametrize("argv, db", BOUND_OVERFLOW_PROBES.values(),
                         ids=BOUND_OVERFLOW_PROBES)
def test_bound_overflow_is_numerical_failure(tmp_path, capsys, argv, db):
    args = list(argv) + ["--out", str(tmp_path / "out"),
                         "--override", f"sweep.snr_db={db}"] + list(OVERRIDES)
    if argv[0] == "ecrb":
        args += ["--config", write_ini(tmp_path, BASE_INI)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not (tmp_path / "out").exists()


def test_tiny_drive_level_is_numerical_failure(tmp_path, capsys):
    # The tilt divisor amplitude * pitch * sqrt(z) * (y_a - y_b) is about
    # 1e-302 here, so the tilt quotient overflows.
    args = ["solve", "--config", write_ini(tmp_path, BASE_INI),
            "--out", str(tmp_path / "out"),
            "--override", "wave.wavelength=10.0",
            "--override", "wave.amplitude=1e-300",
            "--override", "noise.sigma2=300654090927.0"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not (tmp_path / "out").exists()


def test_fig9_rejects_several_snrs(tmp_path, capsys):
    assert main(["preset", "fig9", "--out", str(tmp_path / "out"),
                 "--override", "sweep.snr_db=30,40"]) == 1
    assert "single sweep.snr_db" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_error_has_exactly_one_exit_category():
    bases = (errors.NfepmError, errors.ConfigError, errors.NumericalError)
    leaves = [cls for cls in vars(errors).values()
              if isinstance(cls, type) and issubclass(cls, errors.NfepmError)
              and cls not in bases]
    assert len(leaves) == 15
    for cls in leaves:
        assert (issubclass(cls, errors.ConfigError)
                != issubclass(cls, errors.NumericalError)), cls


def test_noise_driven_numerical_failure(tmp_path, capsys):
    cfg = write_ini(tmp_path, NOISY_INI)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "96"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_channel_output(tmp_path):
    cfg = write_ini(tmp_path, BASE_INI)
    assert main(["channel", "--config", cfg, "--out", str(tmp_path)]) == 0
    comments, header, rows = read_result(tmp_path / "channel.csv")
    assert header == ["index", "re_volt", "im_volt"]
    assert len(rows) == 10
    volts = noiseless_voltages(AxialPose(0.7, 0.3),
                               ArrayGeometry(0.5, 0.05), Wave(1.0))
    # repr round-trips floats exactly
    assert float(rows[0][1]) == volts.values[0].real
    assert float(rows[0][2]) == volts.values[0].imag
    assert any(ln.startswith("# nfepm ") for ln in comments)


def test_overrides_do_not_leak_between_main_calls(tmp_path):
    # one argparser serves every main call of the process; each call
    # sees its own --override list and nothing of an earlier one
    cfg = write_ini(tmp_path, BASE_INI)
    runs = ((["--override", "pose.z=0.8"], AxialPose(0.8, 0.3)),
            (["--override", "pose.t_z=0.5"], AxialPose(0.7, 0.5)),
            ([], AxialPose(0.7, 0.3)))
    for i, (flags, pose) in enumerate(runs):
        out = tmp_path / str(i)
        assert main(["channel", "--config", cfg, "--out", str(out), *flags]) == 0
        _, _, rows = read_result(out / "channel.csv")
        volts = noiseless_voltages(pose, ArrayGeometry(0.5, 0.05), Wave(1.0))
        assert [complex(float(re), float(im)) for _, re, im in rows] == \
            volts.values.tolist()


def test_solve_output_exact(tmp_path):
    cfg = write_ini(tmp_path, BASE_INI)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, header, rows = read_result(tmp_path / "solve.csv")
    assert header[:3] == ["case", "z_true", "t_z_true"]
    (case, z_true, t_true, re_z, im_z, re_t, im_t), = rows
    assert case == "case1"
    assert abs(float(re_z) - 0.7) < 1e-9
    assert float(im_z) == 0.0
    assert abs(float(re_t) - 0.3) < 1e-9
    assert float(im_t) == 0.0


def test_zzb_sweep_output(tmp_path):
    cfg = write_ini(tmp_path, BASE_INI + "\n[sweep]\nsnr_db = -60,0\n")
    assert main(["zzb", "--config", cfg, "--out", str(tmp_path),
                 "--override", "grid.n_delta=16",
                 "--override", "grid.n_theta_z=8",
                 "--override", "grid.n_theta_t=8",
                 "--override", "grid.n_max_search=4"]) == 0
    _, header, rows = read_result(tmp_path / "zzb.csv")
    assert header == ["snr_db", "zzb_z", "zzb_t", "zzb_ao_t"]
    assert len(rows) == 2
    span_var = 0.4 ** 2 / 12.0
    for row in rows:
        assert 0.0 < float(row[1]) <= span_var * (1.0 + 1e-6)
        assert 0.0 < float(row[2]) <= (1.0 / 12.0) * (1.0 + 1e-6)


def test_ecrb_sweep_scaling(tmp_path):
    cfg = write_ini(tmp_path, BASE_INI + "\n[sweep]\nsnr_db = 30,40\n")
    assert main(["ecrb", "--config", cfg, "--out", str(tmp_path),
                 "--override", "grid.ecrb_n_z=8",
                 "--override", "grid.ecrb_n_t=8"]) == 0
    _, header, rows = read_result(tmp_path / "ecrb.csv")
    assert header == ["snr_db", "ecrb_z", "ecrb_t", "ecrb_ao_t"]
    lo, hi = rows
    for col in (1, 2, 3):
        assert float(hi[col]) == pytest.approx(float(lo[col]) / 10.0,
                                               rel=1e-12)


def test_map_mc_output(tmp_path):
    cfg = write_ini(tmp_path, BASE_INI + "\n[sweep]\nsnr_db = 30\n")
    assert main(["map-mc", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "4",
                 "--override", "grid.trials=3",
                 "--override", "grid.map_n_z=32",
                 "--override", "grid.map_n_t=16",
                 "--override", "grid.refine_levels=1"]) == 0
    comments, header, rows = read_result(tmp_path / "map_mc.csv")
    assert header == ["snr_db", "mse_z", "mse_t", "se_z", "se_t",
                      "trials", "seed"]
    (row,) = rows
    assert row[5] == "3" and row[6] == "4"
    assert float(row[1]) >= 0.0 and math.isfinite(float(row[1]))
    assert "# grid.trials = 3" in comments
    assert "# seed = 4" in comments


def test_table2_preset(tmp_path):
    assert main(["preset", "table2", "--out", str(tmp_path),
                 "--override", "grid.u=24", "--override", "grid.v=24"]) == 0
    comments, header, rows = read_result(tmp_path / "table2.csv")
    assert header == ["case", "wavelength", "aperture", "pitch", "z_min",
                      "z_max", "d_pa", "d_sc", "rmse_z_re", "rmse_z_im",
                      "rmse_t_re", "rmse_t_im"]
    assert [r[0] for r in rows] == (["case1"] * 2 + ["case2_pa"] * 3
                                    + ["case2_sc"] * 4)
    assert "# grid.u = 24" in comments
    # first column: aperture under the phase-ambiguity validity floor
    assert math.isnan(float(rows[0][6]))
    for row in rows[:2]:
        assert float(row[8]) < 1e-9
        assert float(row[10]) < 1e-9

    _, m_header, m_rows = read_result(tmp_path / "table2_mismatch.csv")
    assert m_header[:2] == ["case", "solver"]
    assert len(m_rows) == 7
    pairs = {(r[0], r[1]) for r in m_rows}
    assert pairs == {("case2_pa", "case1"), ("case2_sc", "case2_pa")}


def test_override_changes_result(tmp_path):
    cfg = write_ini(tmp_path, BASE_INI)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["channel", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["channel", "--config", cfg, "--out", str(out_b),
                 "--override", "wave.amplitude=2.0"]) == 0
    _, _, rows_a = read_result(out_a / "channel.csv")
    comments_b, _, rows_b = read_result(out_b / "channel.csv")
    assert "# wave.amplitude = 2.0" in comments_b
    assert float(rows_b[0][1]) == pytest.approx(2.0 * float(rows_a[0][1]),
                                                rel=1e-15)


def test_output_reproducible_up_to_timestamp(tmp_path):
    cfg = write_ini(tmp_path, BASE_INI)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["channel", "--config", cfg, "--out", str(out),
                     "--seed", "11"]) == 0

    def stable(path):
        return [ln for ln in path.read_text(encoding="utf-8").splitlines()
                if not ln.startswith("# created ")]

    assert stable(out_a / "channel.csv") == stable(out_b / "channel.csv")


# Any float, nan, +-inf, subnormals and +-1e308 included; None leaves the
# key unset.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# Pitches on the 0.5 m aperture: at most 500 elements, or so many that the
# cell cap rejects them before allocating.
PITCH = st.none() | st.floats(1e-3, 0.6) | st.floats(1e-12, 1e-8)
# One grid size: tiny (invalid ones included), or over the cell cap.
GRID = st.none() | st.tuples(
    st.sampled_from(("n_delta", "n_theta_z", "n_theta_t", "ecrb_n_z", "map_n_z",
                     "trials")),
    st.integers(-1, 12) | st.integers(10 ** 8, 10 ** 12))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(snr_db=st.none() | ANY_FLOAT, sigma2=st.none() | ANY_FLOAT,
       sweep_db=ANY_FLOAT, wavelength=st.floats(1e-9, 10.0),
       amplitude=st.none() | ANY_FLOAT,
       seed=st.none() | st.integers(0, 2 ** 40) | st.integers(-(2 ** 40), -1),
       pitch=PITCH, grid=GRID)
def test_cli_exit_contract(snr_db, sigma2, sweep_db, wavelength, amplitude,
                           seed, pitch, grid):
    """Every subcommand ends in exit 0, 1 or 2 and raises nothing, on the
    golden fixture's reduced grids; an exit-0 CSV holds finite numbers
    only."""
    overrides = [f"wave.wavelength={wavelength!r}", f"sweep.snr_db={sweep_db!r}"]
    for key, value in (("noise.snr_db", snr_db), ("noise.sigma2", sigma2),
                       ("wave.amplitude", amplitude), ("array.pitch", pitch)):
        if value is not None:
            overrides.append(f"{key}={value!r}")
    if grid is not None:
        overrides.append("grid.{}={}".format(*grid))
    args = [arg for item in overrides for arg in ("--override", item)]
    if seed is not None:
        args += ["--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.ini"
        config.write_text(BASE_INI, encoding="utf-8")
        for command in ("solve", "zzb", "ecrb", "map-mc"):
            code = main([command, "--config", str(config), "--out",
                         str(Path(tmp) / command)] + list(OVERRIDES) + args)
            assert code in (0, 1, 2)
            if code == 0:
                for path in (Path(tmp) / command).iterdir():
                    _, _, rows = read_result(path)
                    cells = [_number(cell) for row in rows for cell in row]
                    assert all(math.isfinite(x) for x in cells
                               if x is not None), path
