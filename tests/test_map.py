"""Grid-search MAP estimator and its Monte-Carlo harness."""

import math

import numpy as np
import pytest

from nfepm.channel import AxialPose
from nfepm.errors import InvariantViolation
from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
from nfepm.mapest import (MapGrid, MseReport, log_likelihood, map_estimate,
                          monte_carlo_mse)
from nfepm.numerics import TZ_EPS, stream
from nfepm.observation import (NoiseSpec, noiseless_voltages, observe,
                               sigma2_for_snr_db)

GEOM = ArrayGeometry(0.5, 0.05)
WAVE = Wave(1.0)
PRIOR = UniformPrior(0.5, 0.9)


def test_grid_validation():
    with pytest.raises(InvariantViolation):
        MapGrid(1, 8)
    with pytest.raises(InvariantViolation):
        MapGrid(8, 8, refine_levels=-1)


def test_report_validation():
    with pytest.raises(InvariantViolation):
        MseReport(30.0, -1.0, 0.1, 0.0, 0.0, 10, 0)
    with pytest.raises(InvariantViolation):
        MseReport(30.0, 0.1, 0.1, 0.0, 0.0, 0, 0)


def test_log_likelihood_values():
    pose = AxialPose(0.7, 0.3)
    v = noiseless_voltages(pose, GEOM, WAVE)
    noise = NoiseSpec(0.5)
    assert log_likelihood(pose, v, GEOM, WAVE, noise) == 0.0
    off = AxialPose(0.75, 0.3)
    ll = log_likelihood(off, v, GEOM, WAVE, noise)
    assert ll < 0.0
    # the variance scales the log-likelihood inversely
    assert log_likelihood(off, v, GEOM, WAVE, NoiseSpec(0.25)) == pytest.approx(
        2.0 * ll, rel=1e-12)
    assert log_likelihood(pose, v, GEOM, WAVE, NoiseSpec(0.0)) == 0.0
    assert log_likelihood(off, v, GEOM, WAVE, NoiseSpec(0.0)) == -math.inf


def test_zero_noise_roundtrip_within_refined_cell():
    grid = MapGrid(32, 16, 3)
    cell_z = PRIOR.span / (grid.n_z - 1)
    cell_t = (1.0 - TZ_EPS) / (grid.n_t - 1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        pose = AxialPose(rng.uniform(0.52, 0.88), rng.uniform(0.05, 0.9))
        v = noiseless_voltages(pose, GEOM, WAVE)
        est = map_estimate(v, PRIOR, GEOM, WAVE, NoiseSpec(0.0), grid)
        assert abs(est.distance - pose.distance) <= 0.05 * cell_z
        assert abs(est.tilt - pose.tilt) <= 0.05 * cell_t


def test_estimate_stays_inside_prior_box():
    grid = MapGrid(16, 8, 2)
    for z, t in ((PRIOR.z_min, 0.0), (PRIOR.z_max, 0.97)):
        v = noiseless_voltages(AxialPose(z, t), GEOM, WAVE)
        est = map_estimate(v, PRIOR, GEOM, WAVE, NoiseSpec(0.0), grid)
        assert PRIOR.z_min <= est.distance <= PRIOR.z_max
        assert 0.0 <= est.tilt <= 1.0 - TZ_EPS


def test_monte_carlo_deterministic():
    grid = MapGrid(32, 16, 1)
    a = monte_carlo_mse(PRIOR, GEOM, WAVE, 30.0, trials=6, seed=9, grid=grid)
    b = monte_carlo_mse(PRIOR, GEOM, WAVE, 30.0, trials=6, seed=9, grid=grid)
    assert a == b
    c = monte_carlo_mse(PRIOR, GEOM, WAVE, 30.0, trials=6, seed=10, grid=grid)
    assert c != a


def test_monte_carlo_error_shrinks_with_snr():
    grid = MapGrid(64, 32, 2)
    low = monte_carlo_mse(PRIOR, GEOM, WAVE, 0.0, trials=8, seed=3, grid=grid)
    high = monte_carlo_mse(PRIOR, GEOM, WAVE, 60.0, trials=8, seed=3, grid=grid)
    assert high.mse_z < low.mse_z
    assert high.mse_t < low.mse_t


def test_monte_carlo_single_trial_and_validation():
    grid = MapGrid(16, 8, 0)
    report = monte_carlo_mse(PRIOR, GEOM, WAVE, 20.0, trials=1, seed=0,
                             grid=grid)
    assert report.trials == 1
    assert math.isnan(report.se_z) and math.isnan(report.se_t)
    assert report.mse_z >= 0.0 and report.mse_t >= 0.0
    with pytest.raises(InvariantViolation):
        monte_carlo_mse(PRIOR, GEOM, WAVE, 20.0, trials=0, seed=0, grid=grid)


@pytest.mark.parametrize("geom, wave, prior", [
    (GEOM, WAVE, PRIOR),
    (ArrayGeometry(5.0, 0.1), Wave(0.1), UniformPrior(3.0, 5.0)),
])
def test_monte_carlo_equals_per_trial_estimates(geom, wave, prior):
    # 70 trials span two scoring blocks of the harness
    grid, trials, seed = MapGrid(32, 16, 2), 70, 11
    for db in (0.0, 20.0, 40.0, 60.0):
        report = monte_carlo_mse(prior, geom, wave, db, trials, seed, grid)
        noise = NoiseSpec(sigma2_for_snr_db(wave, db), seed)
        rng = stream(seed)
        z_true = rng.uniform(prior.z_min, prior.z_max, trials)
        t_true = rng.uniform(0.0, 1.0, trials)
        sq_z, sq_t = np.empty(trials), np.empty(trials)
        for i in range(trials):
            v = observe(noiseless_voltages(AxialPose(z_true[i], t_true[i]),
                                           geom, wave), noise, trial=i)
            est = map_estimate(v, prior, geom, wave, noise, grid)
            sq_z[i] = (est.distance - z_true[i]) ** 2
            sq_t[i] = (est.tilt - t_true[i]) ** 2
        assert (report.mse_z, report.mse_t) == (sq_z.mean(), sq_t.mean())
