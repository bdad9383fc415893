"""Command-line interface: config parsing, exit codes, CSV emission."""

import csv
import math

import pytest

from nfepm import errors
from nfepm.channel import AxialPose
from nfepm.cli import main
from nfepm.geometry import ArrayGeometry, Wave
from nfepm.observation import noiseless_voltages

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


# Non-finite inputs: (subcommand argv, extra INI text, override).
NON_FINITE_PROBES = {
    "wavelength-nan": (("preset", "fig4"), None, "wave.wavelength=nan"),
    "z_max-inf": (("preset", "fig4"), None, "prior.z_max=inf"),
    "pitch-nan": (("preset", "fig4"), None, "array.pitch=nan"),
    "aperture-nan": (("preset", "fig4"), None, "array.aperture=nan"),
    "sweep-nan": (("zzb",), "\n[sweep]\nsnr_db = nan,30\n", None),
}


@pytest.mark.parametrize("argv, extra_ini, override",
                         NON_FINITE_PROBES.values(), ids=NON_FINITE_PROBES)
def test_non_finite_input_is_config_error(tmp_path, capsys, argv, extra_ini,
                                          override):
    args = list(argv) + ["--out", str(tmp_path / "out")]
    if extra_ini is not None:
        args += ["--config", write_ini(tmp_path, BASE_INI + extra_ini)]
    if override is not None:
        args += ["--override", override]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
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
