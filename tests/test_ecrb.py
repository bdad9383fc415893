"""Fisher information closed forms against quadrature oracles, and the
expected-bound assembly around them."""

import inspect
import math

import numpy as np
import pytest

import importlib

from nfepm.channel import AxialPose, axis_channel
from nfepm.ecrb import (ecrb, ecrb_ao, ecrb_asymptotic, fim_closed, ftau1,
                        ftau2, ftau3, ftau4, ftau5, ftau6, ftau7, ftau8,
                        ftau9, ftau10, ftau11, ftau12)
from nfepm.errors import (AttitudeSingularity, InvariantViolation, NonFinite,
                          SingularFIM)
from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
from nfepm.numerics import TZ_EPS, midpoints
from oracles import (channel_deriv_t, channel_deriv_z, ecrb_ao_dense,
                     ecrb_asymptotic_dense, ecrb_dense, fim_quadrature,
                     integrate)
from scenarios import THRESHOLD_GEOM, THRESHOLD_PRIOR, THRESHOLD_WAVE

# the package root re-exports a function named like the module, so fetch
# the module itself for monkeypatching
ecrb_module = importlib.import_module("nfepm.ecrb")

# (coefficient, base integrand over u in [0, tau], tau->inf limit)
TAU_COEFFICIENTS = (
    (ftau1, lambda u: 0.5 * u * (u * u - 4) * (3 * u * u - 2)
     / (1 + u * u) ** 4.5, 2 / 7),
    (ftau2, lambda u: 0.25 * u * u * (u * u - 4) ** 2
     / (1 + u * u) ** 4.5, 19 / 84),
    (ftau3, lambda u: 0.25 * (3 * u * u - 2) ** 2
     / (1 + u * u) ** 4.5, 5 / 14),
    (ftau4, lambda u: 2 * u / (1 + u * u) ** 3.5, 2 / 5),
    (ftau5, lambda u: u * u / (1 + u * u) ** 3.5, 2 / 15),
    (ftau6, lambda u: 1 / (1 + u * u) ** 3.5, 8 / 15),
    (ftau7, lambda u: (1 - u * u) / (1 + u * u) ** 2.5, 1 / 3),
    (ftau8, lambda u: -2 * u / (1 + u * u) ** 2.5, -2 / 3),
    (ftau9, lambda u: u * u / (1 + u * u) ** 2.5, 1 / 3),
    (ftau10, lambda u: -0.5 * u * (u * u - 4) / (1 + u * u) ** 3.5, 1 / 3),
    (ftau11, lambda u: 0.5 * (u ** 4 - 7 * u * u + 2)
     / (1 + u * u) ** 3.5, 1 / 6),
    (ftau12, lambda u: 0.5 * u * (3 * u * u - 2) / (1 + u * u) ** 3.5, 0.0),
)


@pytest.mark.parametrize("idx", range(12))
def test_tau_coefficient_matches_base_integral(idx):
    coeff, integrand, _ = TAU_COEFFICIENTS[idx]
    for tau in (0.1, 0.7, 2.0, 9.0):
        want = integrate(integrand, 0.0, tau)
        assert coeff(tau) == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_tau_coefficient_limits():
    for coeff, _, limit in TAU_COEFFICIENTS:
        assert coeff(math.inf) == limit
        assert coeff(2e9) == limit
        assert coeff(1e6) == pytest.approx(limit, rel=1e-5, abs=1e-8)
    with pytest.raises(InvariantViolation):
        ftau1(-0.5)


def test_closed_information_matches_quadrature():
    rng = np.random.default_rng(41)
    for _ in range(60):
        lam = 10.0 ** rng.uniform(-2, 0)
        aperture = lam * 10.0 ** rng.uniform(0.5, 2)
        geom = ArrayGeometry(aperture, aperture / 16.0)
        pose = AxialPose(10.0 ** rng.uniform(-0.5, 1.5), rng.uniform(0.0, 0.95))
        snr = 10.0 ** rng.uniform(0, 4)
        closed = fim_closed(pose, snr, geom, Wave(lam))
        oracle = fim_quadrature(pose, snr, geom, Wave(lam))
        scale = math.sqrt(oracle.f_zz * oracle.f_tt)
        for got, want in zip(
                (closed.i_zz1, closed.i_zz2, closed.i_tt, closed.i_zt,
                 closed.f_zz, closed.f_tt, closed.f_zt),
                (oracle.i_zz1, oracle.i_zz2, oracle.i_tt, oracle.i_zt,
                 oracle.f_zz, oracle.f_tt, oracle.f_zt)):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10 * scale)


def test_channel_derivatives_match_finite_differences():
    wave = Wave(0.2)
    step = 1e-6
    rng = np.random.default_rng(42)
    for _ in range(100):
        z = 10.0 ** rng.uniform(-0.5, 1.0)
        t = rng.uniform(0.0, 0.9)
        y = rng.uniform(0.0, 3.0)
        fd_z = (axis_channel(z + step, t, y, wave)
                - axis_channel(z - step, t, y, wave)) / (2 * step)
        got_z = channel_deriv_z(AxialPose(z, t), y, wave)
        assert abs(got_z - fd_z) <= 1e-5 * max(1.0, abs(got_z))
        fd_t = (axis_channel(z, t + step, y, wave)
                - axis_channel(z, t - step, y, wave)) / (2 * step)
        got_t = channel_deriv_t(AxialPose(z, t), y, wave)
        assert abs(got_t - fd_t) <= 1e-5 * max(1.0, abs(got_t))


def test_information_matrix_symmetric_positive():
    rng = np.random.default_rng(43)
    for _ in range(100):
        lam = 10.0 ** rng.uniform(-2, 0)
        aperture = lam * 10.0 ** rng.uniform(0.5, 2)
        geom = ArrayGeometry(aperture, aperture / 8.0)
        pose = AxialPose(10.0 ** rng.uniform(-0.5, 1.5),
                         rng.uniform(0.0, 1.0 - 1e-6))
        fim = fim_closed(pose, 50.0, geom, Wave(lam))
        mat = fim.matrix
        assert mat[0, 1] == mat[1, 0]
        assert fim.f_zz > 0.0
        assert fim.f_tt > 0.0
        assert fim.det >= -1e-12 * fim.f_zz * fim.f_tt


def test_expected_bound_inverse_scaling_exact():
    base = ecrb(THRESHOLD_PRIOR, 100.0, THRESHOLD_GEOM, THRESHOLD_WAVE,
                grid=(16, 16))
    snr10 = ecrb(THRESHOLD_PRIOR, 1000.0, THRESHOLD_GEOM, THRESHOLD_WAVE,
                 grid=(16, 16))
    pitch5 = ecrb(THRESHOLD_PRIOR, 100.0, ArrayGeometry(5.0, 0.5),
                  THRESHOLD_WAVE, grid=(16, 16))
    assert snr10 == (base[0] / 10.0, base[1] / 10.0)
    assert pitch5 == (base[0] / 5.0, base[1] / 5.0)


def test_tilt_information_is_wavelength_free():
    pose = AxialPose(4.0, 0.6)
    a = fim_closed(pose, 100.0, THRESHOLD_GEOM, Wave(0.1))
    b = fim_closed(pose, 100.0, THRESHOLD_GEOM, Wave(0.01))
    assert (a.i_zz1, a.i_zz2, a.i_tt, a.i_zt) == (b.i_zz1, b.i_zz2, b.i_tt, b.i_zt)
    assert a.f_tt == b.f_tt
    assert a.f_zt == b.f_zt
    assert a.f_zz != b.f_zz
    assert "wave" not in inspect.signature(ecrb_ao).parameters


def test_expected_bound_equals_midpoint_average():
    grid = (8, 8)
    bound_z, bound_t = ecrb(THRESHOLD_PRIOR, 200.0, THRESHOLD_GEOM,
                            THRESHOLD_WAVE, grid=grid)
    span = THRESHOLD_PRIOR.span
    z_mid = THRESHOLD_PRIOR.z_min + (np.arange(8) + 0.5) * (span / 8)
    t_mid = (np.arange(8) + 0.5) * ((1.0 - TZ_EPS) / 8)
    acc_z = acc_t = 0.0
    for z in z_mid:
        for t in t_mid:
            fim = fim_closed(AxialPose(z, t), 200.0, THRESHOLD_GEOM,
                             THRESHOLD_WAVE)
            acc_z += fim.f_tt / fim.det
            acc_t += fim.f_zz / fim.det
    assert bound_z == pytest.approx(acc_z / 64.0, rel=1e-12)
    assert bound_t == pytest.approx(acc_t / 64.0, rel=1e-12)


def test_asymptotic_bounds_match_flat_pose_limits():
    snr = 300.0
    wave = Wave(0.1)
    pref = 1.0 / (2.0 * snr * THRESHOLD_GEOM.pitch)
    k = wave.wavenumber
    for z in (3.0, 10.0, 40.0):
        geom = ArrayGeometry(1e6 * z, THRESHOLD_GEOM.pitch)
        fim = fim_closed(AxialPose(z, 0.0), snr, geom, wave)
        crb_z = fim.f_tt / fim.det
        crb_t = fim.f_zz / fim.det
        want_z = 210.0 * z ** 3 / (
            2.0 * snr * geom.pitch * (112.0 * k * k * z * z + 75.0))
        assert crb_z == pytest.approx(want_z, rel=1e-4)
        assert crb_t == pytest.approx(3.0 * z * pref, rel=1e-4)


def test_asymptotic_bound_large_distance_form():
    wave = Wave(0.1)
    prior = UniformPrior(10.0, 20.0)  # hundreds of wavelengths out
    full = ecrb_asymptotic(prior, 100.0, THRESHOLD_GEOM, wave)
    simple = ecrb_asymptotic(prior, 100.0, THRESHOLD_GEOM, wave, large_z=True)
    assert simple[1] == full[1]
    assert simple[0] == pytest.approx(full[0], rel=1e-4)


def test_singular_information_raise_and_skip(monkeypatch):
    z_mid = 0.5 * (THRESHOLD_PRIOR.z_min + THRESHOLD_PRIOR.z_max)

    def half_singular(z, t, geom):
        del geom
        z = np.asarray(z, dtype=float)
        good = (z > z_mid).astype(float)
        return np.ones_like(z), np.zeros_like(z), good, np.zeros_like(z)

    monkeypatch.setattr(ecrb_module, "_factors", half_singular)
    with pytest.raises(SingularFIM, match="z_t="):
        ecrb(THRESHOLD_PRIOR, 10.0, THRESHOLD_GEOM, THRESHOLD_WAVE, grid=(8, 8))


def test_singular_sample_named_with_full_shape_determinant(monkeypatch):
    # the determinant is singular at one (z, t) cell of the full grid; the
    # message names that cell's distance and tilt, read off the sparse axes
    z_star = midpoints(THRESHOLD_PRIOR.z_min, THRESHOLD_PRIOR.z_max, 8)[3]
    t_star = midpoints(0.0, 1.0 - TZ_EPS, 6)[5]

    def one_singular(z, t, geom):
        del geom
        zz, tt = np.broadcast_arrays(z, t)
        good = np.where((zz == z_star) & (tt == t_star), 0.0, 1.0)
        return np.ones_like(zz), np.zeros_like(zz), good, np.zeros_like(zz)

    monkeypatch.setattr(ecrb_module, "_factors", one_singular)
    with pytest.raises(SingularFIM) as info:
        ecrb(THRESHOLD_PRIOR, 10.0, THRESHOLD_GEOM, THRESHOLD_WAVE, grid=(8, 6))
    assert str(info.value) == (
        f"information matrix singular at z_t={z_star!r}, t_z={t_star!r}")


# the threshold config and the geometry_scan bench geometry at aperture 7,
# prior [4, 7], wavelength 0.01, pitch 0.5
DENSE_CASES = (
    (THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE),
    (UniformPrior(4.0, 7.0), ArrayGeometry(7.0, 0.5), Wave(0.01)),
)


@pytest.mark.parametrize("snr", [1e4, [1.0, 100.0, 1e6]])
@pytest.mark.parametrize("prior, geom, wave", DENSE_CASES)
def test_expected_bounds_equal_the_dense_grid_reference(prior, geom, wave, snr):
    # the tau coefficients run once per distance; every bound is
    # bit-identical to taking them on every cell of the dense grid
    for grid in ((64, 64), (7, 5)):
        for got, want in zip(ecrb(prior, snr, geom, wave, grid=grid),
                             ecrb_dense(prior, snr, geom, wave, grid)):
            assert np.array_equal(got, want)
        assert np.array_equal(ecrb_ao(prior, snr, geom, grid=grid),
                              ecrb_ao_dense(prior, snr, geom, grid))
    unbounded = ArrayGeometry(math.inf, geom.pitch)
    assert np.array_equal(ecrb_ao(prior, snr, unbounded),
                          ecrb_ao_dense(prior, snr, unbounded))
    for got, want in zip(ecrb_asymptotic(prior, snr, geom, wave),
                         ecrb_asymptotic_dense(prior, snr, geom, wave)):
        assert np.array_equal(got, want)


def test_tau_coefficients_run_once_per_distance(monkeypatch):
    # under ecrb and ecrb_ao each coefficient sees the n_z distances of the
    # grid, not its n_z * n_t cells
    sizes = {}
    for i in range(1, 13):
        name = f"ftau{i}"

        def counted(tau, name=name, real=getattr(ecrb_module, name)):
            sizes.setdefault(name, []).append(np.size(tau))
            return real(tau)

        monkeypatch.setattr(ecrb_module, name, counted)
    ecrb(THRESHOLD_PRIOR, [10.0, 100.0], THRESHOLD_GEOM, THRESHOLD_WAVE,
         grid=(16, 8))
    assert sizes == {f"ftau{i}": [16] for i in range(1, 13)}
    # ecrb_ao needs the tilt information alone: ftau7-ftau9
    sizes.clear()
    ecrb_ao(THRESHOLD_PRIOR, 10.0, THRESHOLD_GEOM, grid=(16, 8))
    assert sizes == {f"ftau{i}": [16] for i in (7, 8, 9)}


def test_attitude_singularity_guards():
    with pytest.raises(AttitudeSingularity):
        fim_closed(AxialPose(1.0, 1.0 - 1e-13), 10.0,
                   THRESHOLD_GEOM, THRESHOLD_WAVE)
    with pytest.raises(AttitudeSingularity):
        channel_deriv_t(AxialPose(1.0, 1.0 - 1e-13), 0.5, THRESHOLD_WAVE)


def test_bound_validation():
    with pytest.raises(InvariantViolation):
        ecrb(THRESHOLD_PRIOR, 0.0, THRESHOLD_GEOM, THRESHOLD_WAVE)
    with pytest.raises(InvariantViolation):
        ecrb_asymptotic(THRESHOLD_PRIOR, 0.0, THRESHOLD_GEOM, THRESHOLD_WAVE)
    with pytest.raises(InvariantViolation):
        ecrb_ao(THRESHOLD_PRIOR, 0.0, THRESHOLD_GEOM)


@pytest.mark.parametrize("grid", [(8,), (8, 8, 8), 8])
def test_expected_bounds_take_a_grid_of_two_sizes(grid):
    # (8,) averaged over 8 x 64 in silence; (8, 8, 8) and 8 raised a bare
    # TypeError
    for bound in (
            lambda: ecrb(THRESHOLD_PRIOR, 1e3, THRESHOLD_GEOM, THRESHOLD_WAVE,
                         grid),
            lambda: ecrb_ao(THRESHOLD_PRIOR, 1e3, THRESHOLD_GEOM, grid)):
        with pytest.raises(InvariantViolation,
                           match=r"^an expectation grid is two sizes"):
            bound()
    assert (ecrb(THRESHOLD_PRIOR, 1e3, THRESHOLD_GEOM, THRESHOLD_WAVE,
                 np.array([8, 8]))
            == ecrb(THRESHOLD_PRIOR, 1e3, THRESHOLD_GEOM, THRESHOLD_WAVE,
                    (8, 8)))


@pytest.mark.parametrize("snr", [math.nan, -5.0])
@pytest.mark.parametrize("fim", [fim_closed, fim_quadrature])
def test_information_rejects_nan_and_negative_snr(fim, snr):
    with pytest.raises(InvariantViolation, match="snr must be >= 0"):
        fim(AxialPose(4.0, 0.3), snr, THRESHOLD_GEOM, THRESHOLD_WAVE)


@pytest.mark.parametrize("large_z", [False, True])
@pytest.mark.parametrize("snr", [10 ** -322.7, 1e-310])
def test_asymptotic_bounds_outside_float_range_raise(snr, large_z):
    # 2 snr pitch underflows to 0 at 10**-322.7; 1 / (2 snr pitch)
    # overflows at 1e-310
    with pytest.raises(NonFinite, match="not finite at snr"):
        ecrb_asymptotic(UniformPrior(0.5, 0.9), snr, ArrayGeometry(0.5, 0.05),
                        Wave(1.0), large_z)


def test_known_distance_tilt_bound_below_joint():
    _, joint_t = ecrb(THRESHOLD_PRIOR, 100.0, THRESHOLD_GEOM, THRESHOLD_WAVE,
                      grid=(16, 16))
    ao = ecrb_ao(THRESHOLD_PRIOR, 100.0, THRESHOLD_GEOM, grid=(16, 16))
    assert ao <= joint_t
    unbounded = ArrayGeometry(math.inf, 0.1)
    assert ecrb_ao(THRESHOLD_PRIOR, 100.0, unbounded) > 0.0

