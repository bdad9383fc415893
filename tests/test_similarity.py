"""Length similarity of the bounds, the MAP Monte Carlo and the channel
models. Scaling the wavelength, aperture, pitch and prior by alpha keeps
k r, the element count and every voltage (v = A pitch h with h
proportional to 1/alpha), so every distance bound and MSE in m^2 scales
by alpha^2, every tilt bound and MSE not at all, and every relative
channel error not at all."""

import math

import numpy as np
import pytest

from nfepm.channel import RERR_KINDS, AxialPose, rerr
from nfepm.ecrb import ecrb, ecrb_ao
from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
from nfepm.mapest import MapGrid, monte_carlo_mse
from nfepm.observation import snr_from_db
from nfepm.zzb import ZZBGrid, zzb_ao_t, zzb_z
from scenarios import THRESHOLD_GEOM, THRESHOLD_PRIOR, THRESHOLD_WAVE

ALPHAS = [0.37, 10.0, 1000.0]
SNRS = np.array([snr_from_db(db) for db in (20.0, 34.0, 50.0)])
ZZB_GRID = ZZBGrid(32, 16, 16)
ECRB_GRID = (16, 16)
# the bound cases, (wave, array, prior): the threshold config, which is
# fig4's geometry, and 8 more preset geometries: fig5 at apertures 2 and
# 10, fig6 at lambda 0.001, fig7 at pitches 0.02 and 2.5, fig8, and fig9
# at [4, 10] m with aperture 10 and at [9, 10] m with aperture 2
BOUND_CASES = {
    "threshold": (THRESHOLD_WAVE, THRESHOLD_GEOM, THRESHOLD_PRIOR),
    **{f"fig5-aperture-{d:g}": (Wave(0.1), ArrayGeometry(d, 0.1),
                                UniformPrior(4.0, 8.0)) for d in (2.0, 10.0)},
    "fig6-lambda-0.001": (Wave(0.001), ArrayGeometry(5.0, 0.1),
                          UniformPrior(5.0, 6.0)),
    **{f"fig7-pitch-{p:g}": (Wave(0.01), ArrayGeometry(5.0, p),
                             UniformPrior(5.0, 6.0)) for p in (0.02, 2.5)},
    "fig8": (Wave(0.1), ArrayGeometry(5.0, 0.5), UniformPrior(3.0, 4.0)),
    "fig9-[4, 10]-aperture-10": (Wave(0.01), ArrayGeometry(10.0, 0.5),
                                 UniformPrior(4.0, 10.0)),
    "fig9-[9, 10]-aperture-2": (Wave(0.01), ArrayGeometry(2.0, 0.5),
                                UniformPrior(9.0, 10.0)),
}
# the fig4 geometry, 8 seeded trials at 30 and 50 dB on a reduced grid
MAP_CONFIG = (Wave(0.1), ArrayGeometry(5.0, 0.1), UniformPrior(3.0, 5.0))
MAP_GRID = MapGrid(64, 32)
# the fig3 preset's wavelength; its z grid and y_r scale with it
FIG3_WAVELENGTH = 0.01
# relative tolerance per channel model: the near-field model's error is a
# difference of nearly equal channels, which rounds about 1e-11 apart
RERR_RTOL = dict.fromkeys(RERR_KINDS, 1e-12) | {"nfem": 1e-10}


def _scaled(alpha, wave, geom, prior):
    return (Wave(alpha * wave.wavelength, wave.amplitude),
            ArrayGeometry(alpha * geom.aperture, alpha * geom.pitch),
            UniformPrior(alpha * prior.z_min, alpha * prior.z_max))


def _bounds(alpha):
    # each bound at the 3 SNRs on each bound case scaled by alpha, the
    # distance bounds divided by alpha^2, named "<case> <bound>"
    bounds = {}
    for case, config in BOUND_CASES.items():
        wave, geom, prior = _scaled(alpha, *config)
        ecrb_z, ecrb_t = ecrb(prior, SNRS, geom, wave, ECRB_GRID)
        bounds |= {f"{case} {name}": value for name, value in {
            "zzb_z": zzb_z(prior, SNRS, geom, wave, ZZB_GRID) / alpha ** 2,
            "zzb_ao_t": zzb_ao_t(prior, SNRS, geom, ZZB_GRID),
            "ecrb_z": ecrb_z / alpha ** 2,
            "ecrb_t": ecrb_t,
            "ecrb_ao": ecrb_ao(prior, SNRS, geom, ECRB_GRID),
        }.items()}
    return bounds


def _map_mse(alpha):
    # the Monte Carlo MSEs at 30 and 50 dB, mse_z divided by alpha^2
    wave, geom, prior = _scaled(alpha, *MAP_CONFIG)
    reports = monte_carlo_mse(prior, geom, wave, [30.0, 50.0], 8, 3, MAP_GRID)
    return {"mse_z": np.array([r.mse_z for r in reports]) / alpha ** 2,
            "mse_t": np.array([r.mse_t for r in reports])}


def _rerr(alpha):
    # fig3's relative errors of each channel model on its z grid at
    # y_r = 10 lambda and t_z^2 in {0.1, 0.5, 0.9}
    wave = Wave(alpha * FIG3_WAVELENGTH)
    z = wave.wavelength * np.logspace(0.0, 2.0, 41)
    poses = [AxialPose(z, math.sqrt(t_sq)) for t_sq in (0.1, 0.5, 0.9)]
    return {kind: np.array([rerr(kind, pose, 0.0, 10.0 * wave.wavelength, wave)
                            for pose in poses])
            for kind in RERR_KINDS}


@pytest.fixture(scope="module")
def unscaled():
    return _bounds(1.0), _map_mse(1.0), _rerr(1.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bounds_keep_length_similarity(unscaled, alpha):
    scaled = _bounds(alpha)
    for name, want in unscaled[0].items():
        assert np.all(want > 0.0), name
        np.testing.assert_allclose(scaled[name], want, rtol=1e-12, atol=0.0,
                                   err_msg=name)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_monte_carlo_keeps_length_similarity(unscaled, alpha):
    scaled = _map_mse(alpha)
    for name, want in unscaled[1].items():
        assert np.all(want > 0.0), name
        np.testing.assert_allclose(scaled[name], want, rtol=1e-12, atol=0.0,
                                   err_msg=name)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_channel_errors_keep_length_similarity(unscaled, alpha):
    scaled = _rerr(alpha)
    for kind, want in unscaled[2].items():
        assert np.all(want > 0.0), kind
        np.testing.assert_allclose(scaled[kind], want, rtol=RERR_RTOL[kind],
                                   atol=0.0, err_msg=kind)
