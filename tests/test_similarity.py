"""Length similarity of the bounds. Scaling the wavelength, aperture,
pitch and prior by alpha keeps k r, the element count and every voltage
(v = A pitch h with h proportional to 1/alpha), so every distance bound
in m^2 scales by alpha^2 and every tilt bound not at all."""

import numpy as np
import pytest

from nfepm.ecrb import ecrb, ecrb_ao
from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
from nfepm.observation import snr_from_db
from nfepm.zzb import ZZBGrid, zzb_ao_t, zzb_z
from scenarios import THRESHOLD_GEOM, THRESHOLD_PRIOR, THRESHOLD_WAVE

SNRS = np.array([snr_from_db(db) for db in (20.0, 34.0, 50.0)])
ZZB_GRID = ZZBGrid(32, 16, 16)
ECRB_GRID = (16, 16)


def _bounds(alpha):
    # each bound at the 3 SNRs on the threshold config scaled by alpha, the
    # distance bounds divided by alpha^2
    wave = Wave(alpha * THRESHOLD_WAVE.wavelength, THRESHOLD_WAVE.amplitude)
    geom = ArrayGeometry(alpha * THRESHOLD_GEOM.aperture,
                         alpha * THRESHOLD_GEOM.pitch)
    prior = UniformPrior(alpha * THRESHOLD_PRIOR.z_min,
                         alpha * THRESHOLD_PRIOR.z_max)
    ecrb_z, ecrb_t = ecrb(prior, SNRS, geom, wave, ECRB_GRID)
    return {
        "zzb_z": zzb_z(prior, SNRS, geom, wave, ZZB_GRID) / alpha ** 2,
        "zzb_ao_t": zzb_ao_t(prior, SNRS, geom, ZZB_GRID),
        "ecrb_z": ecrb_z / alpha ** 2,
        "ecrb_t": ecrb_t,
        "ecrb_ao": ecrb_ao(prior, SNRS, geom, ECRB_GRID),
    }


@pytest.fixture(scope="module")
def unscaled():
    return _bounds(1.0)


@pytest.mark.parametrize("alpha", [0.37, 10.0, 1000.0])
def test_bounds_keep_length_similarity(unscaled, alpha):
    scaled = _bounds(alpha)
    for name, want in unscaled.items():
        assert np.all(want > 0.0), name
        np.testing.assert_allclose(scaled[name], want, rtol=1e-12, atol=0.0,
                                   err_msg=name)
