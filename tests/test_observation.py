"""Voltage synthesis, the noise model, and SNR bookkeeping."""

import numpy as np
import pytest

from nfepm.channel import AxialPose, axis_channel, nf_channel
from nfepm.errors import InvariantViolation, NonFinite, ValidityViolation
from nfepm.geometry import ArrayGeometry, Wave
from nfepm.numerics import TZ_EPS, stream
from nfepm.observation import (NoiseSpec, Voltages, add_noise, element_voltages,
                               noiseless_voltages, observe, sigma2_for_snr_db)

GEOM = ArrayGeometry(1.0, 0.25)
WAVE = Wave(1.0, amplitude=2.0)
POSE = AxialPose(0.8, 0.4)


def test_noiseless_voltages_definition():
    v = noiseless_voltages(POSE, GEOM, WAVE)
    expected = 2.0 * 0.25 * axis_channel(POSE.distance, POSE.tilt,
                                         GEOM.element_centers, WAVE)
    assert np.allclose(v.values, expected, rtol=1e-15, atol=0.0)


def test_noiseless_voltages_linear_in_drive():
    base = noiseless_voltages(POSE, GEOM, Wave(1.0, amplitude=1.0)).values
    double = noiseless_voltages(POSE, GEOM, Wave(1.0, amplitude=2.0)).values
    assert np.array_equal(double, 2.0 * base)


@pytest.mark.parametrize("pitch", [0.25, 0.1])
def test_voltages_match_surface_integral(pitch):
    # per-element area quadrature of the field model over the square
    # element, divided by the pitch, must agree with the center-sample rule
    # within 1% at sub-wavelength pitch (source outside the array near zone)
    geom = ArrayGeometry(1.0, pitch)
    pose = AxialPose(5.0, 0.4)
    xi, wi = np.polynomial.legendre.leggauss(24)
    half = geom.pitch / 2.0
    v = noiseless_voltages(pose, geom, WAVE)
    for n in range(1, geom.n_elements + 1):
        yc = geom.element_center(n)
        xx, yy = np.meshgrid(half * xi, yc + half * xi, indexing="ij")
        vals = nf_channel(pose, xx, yy, WAVE)
        integral = half * half * np.einsum("i,j,ij->", wi, wi, vals)
        oracle = WAVE.amplitude * integral / geom.pitch
        assert abs(v.values[n - 1] - oracle) <= 0.01 * abs(oracle)


def test_element_voltages_is_every_voltage_rule():
    # the pose-column rows of the Monte Carlo clean voltages and the
    # per-element axis_channel grids at scale amplitude * pitch equal the
    # per-pose voltage vectors exactly
    z = np.linspace(0.3, 2.0, 5)
    t = np.linspace(0.0, 1.0 - TZ_EPS, 4)
    zz, tt = np.meshgrid(z, t, indexing="ij")
    rows = element_voltages(zz.ravel()[:, None], tt.ravel()[:, None], GEOM, WAVE)
    for row, z_i, t_i in zip(rows, zz.ravel(), tt.ravel()):
        pose = AxialPose(float(z_i), float(t_i))
        assert np.array_equal(row, noiseless_voltages(pose, GEOM, WAVE).values)
    for n in range(1, GEOM.n_elements + 1):
        probe = axis_channel(z[:, None], t[None, :], GEOM.element_center(n),
                             WAVE, scale=WAVE.amplitude * GEOM.pitch)
        assert np.array_equal(probe, rows[:, n - 1].reshape(zz.shape))


def test_voltages_validation():
    with pytest.raises(InvariantViolation):
        Voltages(np.zeros(3, dtype=complex), GEOM)
    bad = np.full(GEOM.n_elements, np.nan + 0j)
    with pytest.raises(NonFinite):
        Voltages(bad, GEOM)


def test_observe_zero_noise_is_identity():
    v = noiseless_voltages(POSE, GEOM, WAVE)
    out = observe(v, NoiseSpec(0.0, seed=1))
    assert np.array_equal(out.values, v.values)


def test_observe_deterministic_per_trial():
    v = noiseless_voltages(POSE, GEOM, WAVE)
    spec = NoiseSpec(0.01, seed=9)
    a = observe(v, spec, trial=4).values
    b = observe(v, spec, trial=4).values
    c = observe(v, spec, trial=5).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_observe_draw_convention():
    # real parts are drawn before imaginary parts from the trial substream
    v = noiseless_voltages(POSE, GEOM, WAVE)
    spec = NoiseSpec(0.04, seed=3)
    draws = stream(3, 7).standard_normal((2, GEOM.n_elements))
    expected = v.values + np.sqrt(0.02) * (draws[0] + 1j * draws[1])
    assert np.array_equal(observe(v, spec, trial=7).values, expected)


def test_add_noise_rejects_a_non_finite_block():
    # the Monte Carlo harness adds noise to whole trial blocks without
    # building Voltages; the finiteness check travels with the rule
    unit = np.full((2, 3), 1e308 + 0j)
    values = np.full((2, 3), 1.7e308 + 0j)
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        add_noise(values, unit, 2.0)
    assert np.array_equal(add_noise(values, unit, 0.0), values)


def test_noise_statistics():
    v = noiseless_voltages(POSE, GEOM, WAVE)
    sigma2 = 0.25
    spec = NoiseSpec(sigma2, seed=17)
    draws = np.stack([observe(v, spec, trial=i).values - v.values
                      for i in range(25000)])
    # total variance within 2%, split evenly between quadratures
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(sigma2, rel=0.02)
    assert np.var(draws.real) == pytest.approx(sigma2 / 2.0, rel=0.02)
    assert np.var(draws.imag) == pytest.approx(sigma2 / 2.0, rel=0.02)
    # spatial whiteness: cross-element correlation magnitude under 0.02
    corr = draws.conj().T @ draws / draws.shape[0]
    corr /= sigma2
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) < 0.02


def test_noise_spec_validation():
    with pytest.raises(InvariantViolation):
        NoiseSpec(-1.0)


def test_snr_bookkeeping():
    assert sigma2_for_snr_db(Wave(1.0, 1.0), 40.0) == pytest.approx(1e-4)
    # the SNR is drive power over noise power
    assert sigma2_for_snr_db(Wave(1.0, 10.0), 20.0) == 1.0


def test_noise_variance_must_be_finite():
    # a strong drive at a very low SNR: the variance overflowed to inf
    with pytest.raises(ValidityViolation,
                       match=r"^noise variance at -100\.0 dB is not finite$"):
        sigma2_for_snr_db(Wave(1.0, 1e150), -100.0)
