"""Grid-search MAP estimation and the Monte-Carlo MSE harness.

The likelihood surface is multimodal in distance through the carrier
phase, so the estimator scans the whole prior box on a coarse grid and
then refines locally; gradient methods are not trustworthy here. With a
uniform prior the MAP estimate coincides with maximum likelihood
restricted to the box.

The coarse model is built by broadcasting the grid distances against the
tilts and the element centres, so the phase, r^2.5 and sqrt(z) are formed
once per (distance, element), not per grid pose. It is kept only as one
real (grid, 2N) matrix [Re | Im], beside its row powers. A block of trials
[Re v | Im v] is scored against it in one real product, half the flops of
the complex one, into a trial-major (block, grid) array; the argmax then
runs along contiguous rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AxialPose
from .errors import InvariantViolation
from .geometry import ArrayGeometry, UniformPrior, Wave
from .numerics import TZ_EPS, require_cells, stream
from .observation import (NoiseSpec, Voltages, element_voltages, observe,
                          sigma2_for_snr_db)

# Trials scored per matrix product so the score block stays ~tens of MB.
_TRIAL_BLOCK = 64


@dataclass(frozen=True)
class MapGrid:
    n_z: int = 256
    n_t: int = 128
    refine_levels: int = 2

    def __post_init__(self):
        if self.n_z < 2 or self.n_t < 2:
            raise InvariantViolation("grid sizes must be >= 2")
        if self.refine_levels < 0:
            raise InvariantViolation("refine_levels must be >= 0")


DEFAULT_MAP_GRID = MapGrid()


@dataclass(frozen=True)
class MseReport:
    snr_db: float
    mse_z: float
    mse_t: float
    se_z: float
    se_t: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.mse_z < 0 or self.mse_t < 0:
            raise InvariantViolation("mean squared errors must be >= 0")
        if self.trials < 1:
            raise InvariantViolation("trials must be >= 1")


def log_likelihood(pose: AxialPose, vtilde: Voltages, geom: ArrayGeometry,
                   wave: Wave, noise: NoiseSpec) -> float:
    """Gaussian log-likelihood up to its additive constant."""
    resid = vtilde.values - element_voltages(pose.distance, pose.tilt, geom, wave)
    total = float(np.sum(np.abs(resid) ** 2))
    if noise.sigma2 == 0:
        return 0.0 if total == 0 else -np.inf
    return -total / noise.sigma2


def _coarse_model(z, t, geom: ArrayGeometry, wave: Wave):
    """Voltages of the grid poses z x t, one row per pose, distance-major,
    broadcast over (distance, tilt, element)."""
    return element_voltages(z[:, None, None], t[None, :, None], geom,
                            wave).reshape(len(z) * len(t), geom.n_elements)


def _map_search(prior: UniformPrior, geom: ArrayGeometry, wave: Wave,
                grid: MapGrid):
    """MAP search over the prior box, as a function from a block of voltage
    rows to their (z, t) estimate arrays. The coarse score 2 Re(model . v*)
    - |model|^2 is the log-likelihood up to a pose-independent constant and
    a positive factor; its argmax along each trial's row (ties to the
    smallest grid index) is refined on 7 x 7 patches, clipped to the box,
    of shrinking cells."""
    # largest arrays: the coarse model as [Re | Im] (grid x 2N), the scores
    # of a trial block (block x grid) and the block's patches (block x 49 x N)
    n_grid, n = grid.n_z * grid.n_t, geom.n_elements
    require_cells("the MAP search", max(n_grid * max(2 * n, _TRIAL_BLOCK),
                                        49 * _TRIAL_BLOCK * n))
    z = np.linspace(prior.z_min, prior.z_max, grid.n_z)
    t = np.linspace(0.0, 1.0 - TZ_EPS, grid.n_t)
    model = _coarse_model(z, t, geom, wave)
    model_power = np.sum(np.abs(model) ** 2, axis=1)
    model_ri = np.concatenate((model.real, model.imag), axis=1)
    offsets = np.linspace(-1.0, 1.0, 7)

    def estimate(noisy):
        scores = np.concatenate((noisy.real, noisy.imag), axis=1) @ model_ri.T
        scores *= 2.0
        scores -= model_power
        best = np.argmax(scores, axis=1)
        z_hat, t_hat = z[best // grid.n_t], t[best % grid.n_t]
        cell_z, cell_t = float(z[1] - z[0]), float(t[1] - t[0])
        rows = np.arange(len(noisy))
        for _ in range(grid.refine_levels):
            zs = np.clip(z_hat[:, None] + cell_z * offsets, prior.z_min, prior.z_max)
            ts = np.clip(t_hat[:, None] + cell_t * offsets, 0.0, 1.0 - TZ_EPS)
            cand = element_voltages(zs[:, :, None, None], ts[:, None, :, None],
                                    geom, wave)
            score = -np.sum(np.abs(cand - noisy[:, None, None, :]) ** 2, axis=3)
            best = np.argmax(score.reshape(len(noisy), -1), axis=1)
            z_hat, t_hat = zs[rows, best // offsets.size], ts[rows, best % offsets.size]
            cell_z /= 3.0
            cell_t /= 3.0
        return z_hat, t_hat

    return estimate


def map_estimate(vtilde: Voltages, prior: UniformPrior, geom: ArrayGeometry,
                 wave: Wave, noise: NoiseSpec,
                 grid: MapGrid = DEFAULT_MAP_GRID) -> AxialPose:
    """Argmax of the posterior over the prior box.

    The noise variance scales the likelihood uniformly and does not move
    the argmax.
    """
    z_hat, t_hat = _map_search(prior, geom, wave, grid)(vtilde.values[None, :])
    return AxialPose(float(z_hat[0]), float(t_hat[0]))


def monte_carlo_mse(prior: UniformPrior, geom: ArrayGeometry, wave: Wave,
                    snr_db, trials: int, seed: int,
                    grid: MapGrid = DEFAULT_MAP_GRID):
    """MAP mean squared errors over random poses and noise: a report at one
    SNR in dB, a list of reports over a 1-D sweep of levels.

    Deterministic given (seed, config): poses come from the base stream,
    the noise of trial i from the i-th substream, at every level. The
    coarse model and the clean voltages are built once for the sweep.
    """
    if trials < 1:
        raise InvariantViolation("trials must be >= 1")
    levels = np.asarray(snr_db, dtype=float)
    if levels.ndim > 1 or levels.size == 0:
        raise InvariantViolation("snr_db is a scalar or a non-empty 1-D sequence")
    levels = levels.ravel().tolist()
    require_cells("the Monte Carlo trials",
                  trials * (geom.n_elements + 2 * len(levels)))
    noises = [NoiseSpec(sigma2_for_snr_db(wave, db), seed) for db in levels]
    rng = stream(seed)
    z_true = rng.uniform(prior.z_min, prior.z_max, trials)
    t_true = rng.uniform(0.0, 1.0, trials)
    estimate = _map_search(prior, geom, wave, grid)
    clean = [Voltages(v, geom) for v in
             element_voltages(z_true[:, None], t_true[:, None], geom, wave)]

    est = np.empty((len(noises), 2, trials))
    for est_level, noise in zip(est, noises):
        for start in range(0, trials, _TRIAL_BLOCK):
            block = slice(start, start + _TRIAL_BLOCK)
            noisy = np.stack([observe(clean[i], noise, trial=i).values
                              for i in range(trials)[block]])
            est_level[:, block] = estimate(noisy)
    sq = (est - np.stack((z_true, t_true))) ** 2

    def se(x):
        return float(np.std(x, ddof=1) / np.sqrt(trials)) if trials > 1 else float("nan")

    reports = [MseReport(snr_db=db, mse_z=float(sq_z.mean()),
                         mse_t=float(sq_t.mean()), se_z=se(sq_z), se_t=se(sq_t),
                         trials=trials, seed=int(seed))
               for db, (sq_z, sq_t) in zip(levels, sq)]
    return reports if np.ndim(snr_db) else reports[0]
