"""Grid-search MAP estimation and the Monte-Carlo MSE harness.

The likelihood surface is multimodal in distance through the carrier
phase, so the estimator scans the whole prior box on a coarse grid and
then refines locally; gradient methods are not trustworthy here. With a
uniform prior the MAP estimate coincides with maximum likelihood
restricted to the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AxialPose, axis_channel
from .errors import InvariantViolation
from .geometry import ArrayGeometry, UniformPrior, Wave
from .numerics import TZ_EPS, stream
from .observation import NoiseSpec, Voltages, observe, sigma2_for_snr_db

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


def _forward(z, t, geom: ArrayGeometry, wave: Wave):
    """Noiseless voltage model, broadcasting over pose arrays."""
    return axis_channel(z, t, geom.element_centers, wave,
                        scale=wave.amplitude * geom.pitch)


def log_likelihood(pose: AxialPose, vtilde: Voltages, geom: ArrayGeometry,
                   wave: Wave, noise: NoiseSpec) -> float:
    """Gaussian log-likelihood up to its additive constant."""
    resid = vtilde.values - _forward(pose.distance, pose.tilt, geom, wave)
    total = float(np.sum(np.abs(resid) ** 2))
    if noise.sigma2 == 0:
        return 0.0 if total == 0 else -np.inf
    return -total / noise.sigma2


def _coarse_grid(prior: UniformPrior, grid: MapGrid):
    z = np.linspace(prior.z_min, prior.z_max, grid.n_z)
    t = np.linspace(0.0, 1.0 - TZ_EPS, grid.n_t)
    return z, t


def _refine(z0, t0, cell_z, cell_t, vtilde_values, prior, geom, wave, levels):
    offsets = np.linspace(-1.0, 1.0, 7)
    for _ in range(levels):
        zs = np.clip(z0 + cell_z * offsets, prior.z_min, prior.z_max)
        ts = np.clip(t0 + cell_t * offsets, 0.0, 1.0 - TZ_EPS)
        zz, tt = np.meshgrid(zs, ts, indexing="ij")
        cand = _forward(zz.ravel()[:, None], tt.ravel()[:, None], geom, wave)
        score = -np.sum(np.abs(cand - vtilde_values[None, :]) ** 2, axis=1)
        best = int(np.argmax(score))
        z0, t0 = float(zz.ravel()[best]), float(tt.ravel()[best])
        cell_z /= 3.0
        cell_t /= 3.0
    return z0, t0


def map_estimate(vtilde: Voltages, prior: UniformPrior, geom: ArrayGeometry,
                 wave: Wave, noise: NoiseSpec,
                 grid: MapGrid = DEFAULT_MAP_GRID) -> AxialPose:
    """Argmax of the posterior over the prior box.

    The noise variance scales the likelihood uniformly, so the argmax is
    computed on the raw squared-residual score. Ties resolve to the
    smallest (z, t) grid indices.
    """
    z, t = _coarse_grid(prior, grid)
    zz, tt = np.meshgrid(z, t, indexing="ij")
    model = _forward(zz.ravel()[:, None], tt.ravel()[:, None], geom, wave)
    score = -np.sum(np.abs(model - vtilde.values[None, :]) ** 2, axis=1)
    best = int(np.argmax(score))
    z0, t0 = float(zz.ravel()[best]), float(tt.ravel()[best])
    z0, t0 = _refine(z0, t0, float(z[1] - z[0]), float(t[1] - t[0]),
                     vtilde.values, prior, geom, wave, grid.refine_levels)
    return AxialPose(z0, t0)


def monte_carlo_mse(prior: UniformPrior, geom: ArrayGeometry, wave: Wave,
                    snr_db: float, trials: int, seed: int,
                    grid: MapGrid = DEFAULT_MAP_GRID) -> MseReport:
    """MAP mean squared errors over random poses and noise.

    Deterministic given (seed, config): poses come from the base stream,
    the noise of trial i from the i-th substream.
    """
    if trials < 1:
        raise InvariantViolation("trials must be >= 1")
    noise = NoiseSpec(sigma2_for_snr_db(wave, snr_db), seed)
    rng = stream(seed)
    z_true = rng.uniform(prior.z_min, prior.z_max, trials)
    t_true = rng.uniform(0.0, 1.0, trials)

    z, t = _coarse_grid(prior, grid)
    zz, tt = np.meshgrid(z, t, indexing="ij")
    zf, tf = zz.ravel(), tt.ravel()
    model = _forward(zf[:, None], tf[:, None], geom, wave)
    model_power = np.sum(np.abs(model) ** 2, axis=1)
    cell_z, cell_t = float(z[1] - z[0]), float(t[1] - t[0])

    sq_z = np.empty(trials)
    sq_t = np.empty(trials)
    for start in range(0, trials, _TRIAL_BLOCK):
        idx = range(start, min(start + _TRIAL_BLOCK, trials))
        noisy = np.stack([
            observe(Voltages(_forward(z_true[i], t_true[i], geom, wave), geom),
                    noise, trial=i).values
            for i in idx])
        # scores differ from the likelihood by a pose-independent constant
        cross = model @ noisy.conj().T
        scores = 2.0 * cross.real - model_power[:, None]
        coarse = np.argmax(scores, axis=0)
        for j, i in enumerate(idx):
            z0, t0 = float(zf[coarse[j]]), float(tf[coarse[j]])
            z_hat, t_hat = _refine(z0, t0, cell_z, cell_t, noisy[j],
                                   prior, geom, wave, grid.refine_levels)
            sq_z[i] = (z_hat - z_true[i]) ** 2
            sq_t[i] = (t_hat - t_true[i]) ** 2

    def se(x):
        return float(np.std(x, ddof=1) / np.sqrt(trials)) if trials > 1 else float("nan")

    return MseReport(snr_db=float(snr_db),
                     mse_z=float(sq_z.mean()), mse_t=float(sq_t.mean()),
                     se_z=se(sq_z), se_t=se(sq_t),
                     trials=trials, seed=int(seed))
