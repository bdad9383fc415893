"""Regime solvers: exactness, bias envelopes, dispatch, and error paths."""

import numpy as np
import pytest

from nfepm.channel import AxialPose, axis_channel
from nfepm.errors import (DegenerateElements, InvariantViolation,
                          NegativeRadicand, NonFinite, UnsupportedRegion)
from nfepm.geometry import ArrayGeometry, Region, UniformPrior, Wave
from nfepm.observation import noiseless_voltages
from nfepm.solver import (_tilt_from_amplitudes, decouple, rmse_grid, solve,
                          solve_case1, solve_case2_pa, solve_case2_sc)
from scenarios import SOLVER_BENCHMARK, benchmark_setup

TWO_PI = 2.0 * np.pi


def _relative_bias(geom, y_a, y_b, z):
    # leading-order range bias of the period-difference solvers
    del geom
    return (y_a * y_a + y_b * y_b) / (4.0 * z * z)


def test_decouple_polar_form():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    d = decouple(v)
    assert np.all(d.psi >= 0.0)
    assert np.all((d.theta >= 0.0) & (d.theta < TWO_PI))
    back = d.psi * np.exp(1j * d.theta)
    assert np.max(np.abs(back - v)) < 1e-12


def test_decouple_scalar_and_nonfinite():
    d = decouple(2.0 * np.exp(1j * 5.0))
    assert d.psi == pytest.approx(2.0)
    assert d.theta == pytest.approx(5.0)
    with pytest.raises(NonFinite):
        decouple(np.array([1.0 + 0j, np.nan + 0j]))


def test_tilt_from_true_range_is_exact():
    geom = ArrayGeometry(2.0, 0.05)
    wave = Wave(0.25, amplitude=1.5)
    scale = wave.amplitude * geom.pitch
    rng = np.random.default_rng(4)
    for _ in range(200):
        z = 10.0 ** rng.uniform(-1, 2)
        t = rng.uniform(0.0, 1.0)
        n = rng.integers(1, geom.n_elements)
        y_a, y_b = geom.element_center(n), geom.element_center(n + 1)
        psi_a = np.abs(axis_channel(z, t, y_a, wave, scale))
        psi_b = np.abs(axis_channel(z, t, y_b, wave, scale))
        t_hat = _tilt_from_amplitudes(psi_a, psi_b, y_a, y_b, z, geom, wave)
        assert abs(t_hat - t) < 1e-10


@pytest.mark.parametrize("column", [0, 1])
def test_reactive_roundtrip_exact(column):
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    # the far default probe of the second column outreaches the wavelength,
    # so that column pins a nearer pair
    beta_idx = 2 if column == 1 else None
    rng = np.random.default_rng(column)
    for _ in range(16):
        pose = AxialPose(rng.uniform(prior.z_min, prior.z_max),
                         rng.uniform(0.0, 1.0))
        v = noiseless_voltages(pose, geom, wave)
        res = solve(v, prior, geom, wave, beta_idx=beta_idx)
        assert res.region.kind is Region.CASE1
        assert abs(res.z_hat - pose.distance) < 1e-10 * pose.distance
        assert abs(res.t_hat - pose.tilt) < 1e-10


@pytest.mark.parametrize("column", [0, 1])
def test_reactive_grid_rmse_vanishes(column):
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    rmse_z, rmse_t = rmse_grid(region, prior, geom, wave, u=40, v=40)
    assert rmse_z < 1e-9
    assert rmse_t < 1e-9


def test_distant_pair_bias_envelope():
    # second-order range bias (y_a^2 + y_b^2) / (4 z^2); distance hits it
    # almost exactly, tilt stays under twice that
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-2, 0)
        geom = ArrayGeometry(lam * 10.0 ** rng.uniform(0.7, 1.5), lam / 2)
        wave = Wave(lam)
        scale = wave.amplitude * geom.pitch
        y_a = geom.element_center(1)
        y_b = geom.element_center(max(2, geom.n_elements // 2))
        z = rng.uniform(1.0, 3.0) * geom.aperture ** 2 / (2.0 * lam)
        t = rng.uniform(0.0, 0.95)
        va = axis_channel(z, t, y_a, wave, scale)
        vb = axis_channel(z, t, y_b, wave, scale)
        res = solve_case2_pa(va, vb, y_a, y_b, geom, wave)
        eps = _relative_bias(geom, y_a, y_b, z)
        assert abs(res.z_hat - z) / z <= 1.05 * eps + 1e-12
        assert abs(res.t_hat - t) <= 2.5 * eps + 1e-12


def test_adjacent_pair_bias_envelope():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-2, 0)
        pitch = lam * 10.0 ** rng.uniform(-0.6, 0.7)
        geom = ArrayGeometry(pitch * int(rng.integers(4, 40)), pitch)
        wave = Wave(lam)
        scale = wave.amplitude * geom.pitch
        y_1, y_2 = 0.5 * pitch, 1.5 * pitch
        d_sc = max(pitch * pitch / lam, 3.6 * pitch)
        z = rng.uniform(1.0, 10.0) * d_sc
        t = rng.uniform(0.0, 0.95)
        v1 = axis_channel(z, t, y_1, wave, scale)
        v2 = axis_channel(z, t, y_2, wave, scale)
        res = solve_case2_sc(v1, v2, geom, wave)
        eps = _relative_bias(geom, y_1, y_2, z)
        assert abs(res.z_hat - z) / z <= 1.05 * eps + 1e-12
        assert abs(res.t_hat - t) <= 2.5 * eps + 1e-12


@pytest.mark.parametrize("column", [2, 3, 4])
def test_distant_pair_benchmark_bias_small(column):
    # on the distant-pair benchmark columns the worst-case relative range
    # bias stays under 3.5e-3
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    y_a = geom.element_center(1)
    y_b = geom.element_center(max(2, geom.n_elements // 2))
    eps = _relative_bias(geom, y_a, y_b, prior.z_min)
    assert eps <= 3.5e-3
    scale = wave.amplitude * geom.pitch
    va = axis_channel(prior.z_min, 0.3, y_a, wave, scale)
    vb = axis_channel(prior.z_min, 0.3, y_b, wave, scale)
    res = solve_case2_pa(va, vb, y_a, y_b, geom, wave)
    assert abs(res.z_hat - prior.z_min) / prior.z_min <= 3.5e-3


def test_integer_period_law_distant_pair():
    # whole-period counts of the two probes differ by one exactly when the
    # principal phases are not in increasing order
    geom = ArrayGeometry(1.0, 0.05)
    wave = Wave(0.1)
    scale = wave.amplitude * geom.pitch
    y_a = geom.element_center(1)
    y_b = geom.element_center(geom.n_elements // 2)
    rng = np.random.default_rng(21)
    z = rng.uniform(5.0, 50.0, size=1000)
    t = rng.uniform(0.0, 1.0, size=1000)
    va = axis_channel(z, t, y_a, wave, scale)
    vb = axis_channel(z, t, y_b, wave, scale)
    da, db = decouple(va), decouple(vb)
    r_a = np.hypot(y_a, z)
    r_b = np.hypot(y_b, z)
    n_a = np.floor(wave.wavenumber * r_a / TWO_PI - da.theta / TWO_PI + 0.5)
    n_b = np.floor(wave.wavenumber * r_b / TWO_PI - db.theta / TWO_PI + 0.5)
    assert np.array_equal(n_b - n_a, np.where(db.theta > da.theta, 0.0, 1.0))


def test_integer_period_law_adjacent_pair():
    geom = ArrayGeometry(1.0, 0.05)
    wave = Wave(0.1)
    scale = wave.amplitude * geom.pitch
    y_1, y_2 = 0.5 * geom.pitch, 1.5 * geom.pitch
    rng = np.random.default_rng(22)
    z = rng.uniform(0.18, 2.0, size=1000)
    t = rng.uniform(0.0, 1.0, size=1000)
    d1 = decouple(axis_channel(z, t, y_1, wave, scale))
    d2 = decouple(axis_channel(z, t, y_2, wave, scale))
    n_1 = np.floor(wave.wavenumber * np.hypot(y_1, z) / TWO_PI
                   - d1.theta / TWO_PI + 0.5)
    n_2 = np.floor(wave.wavenumber * np.hypot(y_2, z) / TWO_PI
                   - d2.theta / TWO_PI + 0.5)
    assert np.array_equal(n_2 - n_1, np.where(d2.theta > d1.theta, 0.0, 1.0))


def test_wrapped_phase_difference_shift():
    geom = ArrayGeometry(4.0, 1.0)
    wave = Wave(0.1)
    y_a, y_b = 0.5, 1.5
    scale = (y_b ** 2 - y_a ** 2) / 2.0
    res = solve_case2_pa(np.exp(1j * 3.0), np.exp(1j * 1.0),
                         y_a, y_b, geom, wave)
    assert res.z_hat == pytest.approx(wave.wavenumber * scale
                                      / (1.0 - 3.0 + TWO_PI))
    res = solve_case2_pa(np.exp(1j * 1.0), np.exp(1j * 2.0),
                         y_a, y_b, geom, wave)
    assert res.z_hat == pytest.approx(wave.wavenumber * scale)


def test_vanishing_phase_difference_rejected():
    geom = ArrayGeometry(4.0, 1.0)
    wave = Wave(0.1)
    with pytest.raises(NonFinite):
        solve_case2_pa(np.exp(1j * (TWO_PI - 1e-13)), np.exp(1j * 1e-13),
                       0.5, 1.5, geom, wave)


def test_degenerate_probe_elements():
    geom = ArrayGeometry(1.0, 0.05)
    wave = Wave(1.0)
    with pytest.raises(DegenerateElements):
        solve_case1(1.0 + 0j, 1.0 + 0j, 0.025, 0.025, geom, wave)
    with pytest.raises(DegenerateElements):
        solve_case2_pa(1.0 + 0j, 1.0 + 0j, 0.475, 0.025, geom, wave)


def test_negative_radicand_and_diagnostic_mode():
    geom = ArrayGeometry(1.0, 0.05)
    wave = Wave(0.5)
    v_a = 0.5 * np.exp(1j * 1e-3)
    v_b = 0.4 * np.exp(1j * 2e-3)
    with pytest.raises(NegativeRadicand):
        solve_case1(v_a, v_b, 0.025, 0.475, geom, wave)
    res = solve_case1(v_a, v_b, 0.025, 0.475, geom, wave, diagnostic=True)
    assert res.diagnostic
    assert np.iscomplexobj(np.asarray(res.z_hat))
    assert np.imag(res.z_hat) != 0.0


def test_dispatch_matches_region():
    for column, kind in ((0, Region.CASE1), (2, Region.CASE2_PA),
                         (5, Region.CASE2_SC)):
        _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
        z = 0.5 * (prior.z_min + prior.z_max)
        pose = AxialPose(z, 0.4)
        res = solve(noiseless_voltages(pose, geom, wave), prior, geom, wave)
        assert res.region.kind is kind
        assert abs(res.z_hat - z) / z <= 0.05


def test_dispatch_rejects_unsupported_prior():
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[1])
    v = noiseless_voltages(AxialPose(0.3, 0.2), geom, wave)
    with pytest.raises(UnsupportedRegion):
        solve(v, prior, geom, wave)  # default far probe outreaches the prior
    with pytest.raises(UnsupportedRegion):
        solve(v, UniformPrior(0.05, 0.1), ArrayGeometry(1.0, 0.05), Wave(0.1))


def test_rmse_grid_validation():
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[2])
    with pytest.raises(InvariantViolation):
        rmse_grid(Region.CASE2_PA, prior, geom, wave, u=1, v=8)
    with pytest.raises(UnsupportedRegion):
        rmse_grid(Region.UNSUPPORTED, prior, geom, wave, u=8, v=8)


def test_rmse_grid_mismatch_is_complex():
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[2])
    rmse_z, rmse_t = rmse_grid(Region.CASE2_PA, prior, geom, wave,
                               u=8, v=8, mismatch=Region.CASE1)
    assert isinstance(rmse_z, complex) and isinstance(rmse_t, complex)
    assert abs(rmse_z) > 0.0


def test_adjacent_pair_grid_converges_to_reference():
    # pins the 2000-by-2000 linspace value of the last benchmark column,
    # the grid its reference digits agree with. That value is not
    # converged: 6000 rows give 1.62e-5 / 4.31e-4 and the prior average
    # 1.35e-5 / 1.89e-4 (acceptance criterion 1)
    region, wave, geom, prior, ref_z, ref_t = (
        benchmark_setup(SOLVER_BENCHMARK[8]) + SOLVER_BENCHMARK[8][6:])
    rmse_z, rmse_t = rmse_grid(region, prior, geom, wave, u=2000, v=2000)
    assert rmse_z == pytest.approx(ref_z, rel=0.05)
    assert rmse_t == pytest.approx(ref_t, rel=0.05)
