"""Grid-search MAP estimation and the Monte-Carlo MSE harness.

The likelihood surface is multimodal in distance through the carrier
phase, so the estimator scans the whole prior box on a coarse grid and
then refines locally; gradient methods are not trustworthy here. With a
uniform prior the MAP estimate coincides with maximum likelihood
restricted to the box. The estimator is `_map_search`; `monte_carlo_mse`
is its entry point.

The coarse score is separable in distance and tilt (`_coarse_scores`), so
a block of trials is scored by one real product over the block and one
small tilt-expansion product per trial, trial-major, and no model over the
whole grid is formed. The per-trial products keep OpenBLAS's worker thread
asleep, where one product over the block would wake it and leave it
spin-waiting between blocks (`_TRIAL_BLOCK`). The 7 x 7 refinement patches
are scored in a separable form too (`_patch_scores`): per patch distance,
one factor c and one residual at the patch's centre tilt, then each
candidate's score from six element sums, in terms that are each as small
as the residual, so no cancellation costs resolution at high SNR.
`estimate` takes any number of trials, at one SNR level or at several: it
scores the coarse grid one level and `_TRIAL_BLOCK` trials at a time, and
refines every level's rows together, trial-major, a chunk of at most
`_REFINE_CELLS` patch cells per pass, so `monte_carlo_mse` hands it a
whole sweep. A chunk forms c and its sums once per distinct patch
distance: at high SNR a trial's levels share their patches.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .channel import axis_factor
from .errors import InvariantViolation
from .geometry import ArrayGeometry, UniformPrior, Wave
from .numerics import TZ_EPS, require_cells, require_sizes, stream
from .observation import (NoiseSpec, add_noise, element_voltages,
                          sigma2_for_snr_db, unit_noise)

# Trials scored per pass: a block's scores on the default grid take
# 8 x 256 x 128 floats, 2 MiB. The tilt expansion is one (n_z, 5) x
# (5, n_t) product per trial, not one (block n_z, 5) x (5, n_t) product:
# OpenBLAS hands the flat (2048, 5) x (5, 128) product to a worker
# thread, which then spin-waits about 0.1 s after each call, so on a
# Monte Carlo it never sleeps and doubles the CPU time at about the same
# wall time. The per-trial products stay on the calling thread, bit for
# bit the same scores.
_TRIAL_BLOCK = 8
# (row, patch distance, element) cells refined per pass: 93 rows on the
# fig4 geometry's 50 elements, so a 60-trial sweep over 7 levels takes 5
# passes, each of about 13 trials at every level, and a full chunk's arrays
# peak near the 2 MiB of a trial block's scores.
_REFINE_CELLS = 1 << 15


@dataclass(frozen=True)
class MapGrid:
    n_z: int = 256
    n_t: int = 128
    refine_levels: int = 2

    def __post_init__(self):
        for field, size in zip(fields(self),
                               require_sizes("the MAP grid sizes", *astuple(self))):
            object.__setattr__(self, field.name, size)
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


def _coarse_scores(z, t, geom: ArrayGeometry, wave: Wave):
    """Coarse scores 2 Re(model . v*) - |model|^2 of voltage rows v against
    the grid poses z x t, as a function from a block of rows to its
    (block, n_z * n_t) scores, distance-major.

    A model voltage is c(z, e) (y_e t + z s), with c the tilt-free factor
    `axis_factor` and s = sqrt(1 - t^2), so the score is
    sum_k C_k(v, z) B_k(t) over the tilt basis B = (t, s, t^2, t s, s^2),
    with C = (2 P_1, 2 z P_0, -Q_2, -2 z Q_1, -z^2 Q_0),
    P_k = sum_e y_e^k Re(c v_e*) and Q_k = sum_e y_e^k |c|^2. A block's P
    is one (block, 2N) x (2N, 2 n_z) product; its expansion over the basis
    is one (n_z, 5) x (5, n_t) product per row, which stays on the calling
    thread (`_TRIAL_BLOCK`).
    """
    y = geom.element_centers
    c = axis_factor(z[:, None], y, wave, wave.amplitude * geom.pitch)
    c_ri = np.concatenate((c.real, c.imag), axis=1)
    # (2N, 2 n_z): the weights of 2 P_1, then of 2 z P_0, per distance
    factors = 2.0 * np.concatenate((np.concatenate((y, y)) * c_ri,
                                    z[:, None] * c_ri)).T
    q = (c.real ** 2 + c.imag ** 2) @ np.stack((y * y, y, np.ones_like(y)), axis=1)
    fixed = -q * np.stack((np.ones_like(z), 2.0 * z, z * z), axis=1)
    s = np.sqrt(1.0 - t * t)
    basis = np.stack((t, s, t * t, t * s, s * s))

    def score(noisy):
        p = np.concatenate((noisy.real, noisy.imag), axis=1) @ factors
        coef = np.empty((len(noisy), len(z), 5))
        coef[:, :, :2] = p.reshape(len(noisy), 2, len(z)).transpose(0, 2, 1)
        coef[:, :, 2:] = fixed
        # one product per trial, not one per block: see _TRIAL_BLOCK
        return (coef @ basis).reshape(len(noisy), -1)

    return score


def _patch_scores(zs, ts, noisy, geom: ArrayGeometry, wave: Wave):
    """Scores -sum_e |c(z_i, e) (y_e t_j + z_i s_j) - v_e|^2 of voltage
    rows v against their 7 x 7 patches zs[row, i] x ts[row, j], as a
    (rows, 7, 7) array, taken about each patch's centre tilt t_0 =
    ts[row, 3].

    With c = `axis_factor`(z_i, y) and s = sqrt(1 - t^2), the residual at
    the centre tilt is delta_i = c (y t_0 + z_i s_0) - v, and a
    candidate's residual adds c (y dt + z_i ds), so its score is
    -(dt^2 Q_2 + 2 z_i dt ds Q_1 + z_i^2 ds^2 Q_0 + 2 dt R_1 + 2 z_i ds R_0
    + D) with R_k = sum_e y_e^k Re(c delta*), Q_k = sum_e y_e^k |c|^2,
    D = sum_e |delta|^2, dt = t_j - t_0 and the cancellation-free
    ds = s_j - s_0 = -dt (t_j + t_0) / (s_j + s_0). Every term is as
    small as the residual, so the scores keep their resolution at high
    SNR, where 2 Re(model . v*) - |model|^2 cancels.

    c and Q_k depend on the patch distance alone, so they are formed once
    per distinct distance of zs and gathered per row: rows of one trial
    at several SNR levels often share their patches. Each is an
    elementwise function of z or a sum over one distance's elements in a
    fixed order, so a row's scores do not depend on the other rows.
    """
    y = geom.element_centers
    z_col = zs[:, :, None]
    t0 = ts[:, 3:4]
    s0 = np.sqrt(1.0 - t0 * t0)
    distances, at = np.unique(zs.ravel(), return_inverse=True)
    at = at.reshape(zs.shape)
    c = axis_factor(distances[:, None], y, wave, wave.amplitude * geom.pitch)
    # every sum runs over a distance's or a row's elements in one fixed
    # order, so patch rows clipped to one distance score alike and ties go
    # to the first
    cc = c.real * c.real + c.imag * c.imag
    q0, q1, q2 = (np.sum(w * cc, axis=1)[at][:, :, None] for w in (1.0, y, y * y))
    c = c[at]
    delta = c * (y * t0[:, :, None] + z_col * s0[:, :, None])
    delta -= noisy[:, None, :]
    cd = c.real * delta.real + c.imag * delta.imag
    r0, r1 = (np.sum(w * cd, axis=2)[:, :, None] for w in (1.0, y))
    d = np.sum(delta.real * delta.real + delta.imag * delta.imag, axis=2)[:, :, None]
    dt = ts - t0
    ds = -dt * (ts + t0) / (np.sqrt(1.0 - ts * ts) + s0)
    dt, ds = dt[:, None, :], ds[:, None, :]
    return -(dt * dt * q2 + 2.0 * z_col * dt * ds * q1 + z_col * z_col * ds * ds * q0
             + 2.0 * dt * r1 + 2.0 * z_col * ds * r0 + d)


def _map_search(prior: UniformPrior, geom: ArrayGeometry, wave: Wave,
                grid: MapGrid):
    """MAP search over the prior box, as a function from voltage rows to
    their (z, t) estimate arrays: (trials, N) rows at one SNR level, or
    (trials, levels, N) rows of a sweep, any number of trials, give
    (trials,) or (trials, levels) estimates.

    The coarse score 2 Re(model . v*) - |model|^2 is the log-likelihood up
    to a pose-independent constant and a positive factor. It is taken one
    SNR level and `_TRIAL_BLOCK` trials at a time, as a sweep's one-level
    calls take it, and its argmax along each row (ties to the smallest
    grid index, distance-major) is refined on 7 x 7 patches of shrinking
    cells, clipped to the box and scored by `_patch_scores` in trial-major
    chunks of at most `_REFINE_CELLS` (row, patch distance, element)
    cells, one row at least. A row's estimate depends on its own voltages
    alone, so a sweep's estimates equal those of its one-level calls bit
    for bit.

    Each refinement level shrinks the cell by 3, so the search moves at most
    about 1.5 coarse cells from the coarse argmax. Tilt is weakly
    identified along a distance row, and the coarse argmax can sit several
    tilt cells from the truth. On the fig4 geometry at zero noise, 450 of
    1920 trials (seeds 0-31) end more than 0.005 from the true tilt, and
    401 with 6 levels; that floor is about half the 60 dB ecrb_t, so the
    MAP mse_t at 50-60 dB measures the search, not the noise.
    """
    # largest arrays: the (distance, element) factors (2N x 2 n_z), the
    # scores of a trial block (block x grid, or its block x n_z x 5
    # coefficients) and a refinement chunk's (rows x 7 x N) factors and
    # residuals; on the default grid the factors bind, at 16384 elements
    n = geom.n_elements
    chunk = max(1, _REFINE_CELLS // (7 * n))
    require_cells("the MAP search",
                  max(4 * grid.n_z * n,
                      _TRIAL_BLOCK * grid.n_z * max(grid.n_t, 5),
                      chunk * 7 * n))
    z = np.linspace(prior.z_min, prior.z_max, grid.n_z)
    t = np.linspace(0.0, 1.0 - TZ_EPS, grid.n_t)
    coarse_scores = _coarse_scores(z, t, geom, wave)
    offsets = np.linspace(-1.0, 1.0, 7)

    def estimate(noisy):
        sweep = noisy.reshape(len(noisy), -1, n)
        # blocks never mix levels: a one-level call's last block may hold
        # one row, whose product OpenBLAS hands to gemv, which rounds
        # unlike gemm, so a sweep's blocks are the one-level calls' blocks
        best = np.stack([np.concatenate([
            np.argmax(coarse_scores(sweep[start:start + _TRIAL_BLOCK, level]), axis=1)
            for start in range(0, len(sweep), _TRIAL_BLOCK)])
            for level in range(sweep.shape[1])], axis=1).ravel()
        rows = noisy.reshape(-1, n)
        z_hat, t_hat = z[best // grid.n_t], t[best % grid.n_t]
        cell_z, cell_t = float(z[1] - z[0]), float(t[1] - t[0])
        for _ in range(grid.refine_levels):
            for start in range(0, len(rows), chunk):
                part = slice(start, start + chunk)
                zs = np.clip(z_hat[part, None] + cell_z * offsets,
                             prior.z_min, prior.z_max)
                ts = np.clip(t_hat[part, None] + cell_t * offsets, 0.0, 1.0 - TZ_EPS)
                score = _patch_scores(zs, ts, rows[part], geom, wave)
                best = np.argmax(score.reshape(len(zs), -1), axis=1)
                index = np.arange(len(zs))
                z_hat[part] = zs[index, best // offsets.size]
                t_hat[part] = ts[index, best % offsets.size]
            cell_z /= 3.0
            cell_t /= 3.0
        return z_hat.reshape(noisy.shape[:-1]), t_hat.reshape(noisy.shape[:-1])

    return estimate


def monte_carlo_mse(prior: UniformPrior, geom: ArrayGeometry, wave: Wave,
                    snr_db, trials: int, seed: int,
                    grid: MapGrid = DEFAULT_MAP_GRID):
    """MAP mean squared errors over random poses and noise: a report at one
    SNR in dB, a list of reports over a 1-D sweep of levels.

    Deterministic given (seed, config): poses come from the base stream,
    the noise of trial i from the i-th substream, the same draws scaled to
    every level. The coarse factors, the clean voltages and the draws are
    made once for the sweep, and the noisy rows once, trial-major, so the
    search refines every level together and forms each patch distance a
    trial's levels share once. trials and seed are integers, Python or
    numpy ones; else InvariantViolation, before anything is drawn.
    """
    trials, seed = require_sizes("the Monte Carlo trials and seed", trials, seed)
    if trials < 1:
        raise InvariantViolation("trials must be >= 1")
    levels = np.asarray(snr_db, dtype=float)
    if levels.ndim > 1 or levels.size == 0:
        raise InvariantViolation("snr_db is a scalar or a non-empty 1-D sequence")
    levels = levels.ravel().tolist()
    require_cells("the Monte Carlo trials",
                  trials * len(levels) * (geom.n_elements + 2))
    noises = [NoiseSpec(sigma2_for_snr_db(wave, db), seed) for db in levels]
    rng = stream(seed)
    z_true = rng.uniform(prior.z_min, prior.z_max, trials)
    t_true = rng.uniform(0.0, 1.0, trials)
    estimate = _map_search(prior, geom, wave, grid)
    clean = element_voltages(z_true[:, None], t_true[:, None], geom, wave)
    unit = np.stack([unit_noise(seed, i, geom.n_elements) for i in range(trials)])
    noisy = np.empty((trials, len(levels), geom.n_elements), dtype=complex)
    for level, noise in enumerate(noises):
        noisy[:, level] = add_noise(clean, unit, noise.sigma2)

    z_hat, t_hat = estimate(noisy)
    sq = (np.stack((z_hat.T, t_hat.T), axis=1) - np.stack((z_true, t_true))) ** 2

    def se(x):
        return float(np.std(x, ddof=1) / np.sqrt(trials)) if trials > 1 else float("nan")

    reports = [MseReport(snr_db=db, mse_z=float(sq_z.mean()),
                         mse_t=float(sq_t.mean()), se_z=se(sq_z), se_t=se(sq_t),
                         trials=trials, seed=seed)
               for db, (sq_z, sq_t) in zip(levels, sq)]
    return reports if np.ndim(snr_db) else reports[0]
