"""Shared numeric kernels: the Gaussian tail function, deterministic
tensor-grid expectations, SNR sweeps, array-size, SNR and finite-bound
guards, and splittable RNG streams."""

from __future__ import annotations

import operator

import numpy as np
from scipy.special import erfc

from .errors import InvariantViolation, NonFinite

# Upper cap applied to every t_z grid so 1/sqrt(1 - t_z^2) stays finite.
TZ_EPS = 1e-4

# Most cells of one array a config may request: the element count and each
# grid product. 2**24 complex cells take 256 MiB.
MAX_CELLS = 1 << 24

# Default (n_z, n_t) midpoint grid of expect_uniform and the expected CRBs.
EXPECT_GRID = (64, 64)


def require_cells(what: str, cells) -> None:
    """Raise InvariantViolation, before anything is allocated, when `what`
    would request more than MAX_CELLS array cells."""
    if not cells <= MAX_CELLS:
        raise InvariantViolation(
            f"{what} requests {cells} array cells, over the cap of {MAX_CELLS}")


def require_sizes(what: str, *sizes) -> tuple:
    """`sizes`, the grid sizes, counts, seeds or indices that `what` names,
    as Python ints, so products of them cannot wrap around;
    InvariantViolation unless each is an integer, a Python or numpy one, as
    operator.index takes it."""
    ints = []
    for size in sizes:
        try:
            ints.append(operator.index(size))
        except TypeError:
            raise InvariantViolation(
                f"{what} must be integers, got {size!r}") from None
    return tuple(ints)


def require_snr(snr) -> None:
    """Raise InvariantViolation unless every SNR in `snr` is finite and
    >= 0; NaN is not >= 0, and +inf would make every bound 0 or its
    information infinite."""
    snrs = np.asarray(snr, dtype=float)
    if not np.all(snrs >= 0):
        raise InvariantViolation(f"snr must be >= 0, got {snrs[~(snrs >= 0)][0]}")
    if np.isinf(snrs).any():
        raise InvariantViolation("snr must be finite, got inf")


def require_finite(what: str, snrs: np.ndarray, values) -> None:
    """Raise NonFinite naming the first SNR of snrs at which one of the
    bounds `values`, per SNR along their last axis, is not finite."""
    finite = np.isfinite(np.reshape(values, (-1, len(snrs)))).all(axis=0)
    if not finite.all():
        raise NonFinite(f"{what} not finite at snr {snrs[~finite][0]}")


def q_function(x):
    """Standard normal tail probability Q(x) = P(Z > x). Vectorized."""
    return 0.5 * erfc(x / np.sqrt(2.0))


def midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of n equal cells on [lo, hi]."""
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


def expect_uniform(f, prior, n_z: int = EXPECT_GRID[0],
                   n_t: int = EXPECT_GRID[1]):
    """Midpoint tensor-grid average of f(z, t) over the prior box.

    z runs over [z_min, z_max]; t over [0, 1 - TZ_EPS]. f receives the
    midpoint axes as broadcastable z (n_z, 1) and t (1, n_t) arrays, so
    work that depends on z alone runs n_z times, not n_z * n_t; its result
    is broadcast to the (n_z, n_t) grid. Axes of the result in front of
    the grid axes are kept, so a stacked (k, n_z, n_t) result gives k
    averages.
    """
    n_z, n_t = require_sizes("the expectation grid sizes", n_z, n_t)
    if n_z < 1 or n_t < 1:
        raise InvariantViolation("expectation grid sizes must be >= 1")
    require_cells("the expectation grid", n_z * n_t)
    z, t = np.meshgrid(midpoints(prior.z_min, prior.z_max, n_z),
                       midpoints(0.0, 1.0 - TZ_EPS, n_t), indexing="ij",
                       sparse=True)
    vals = np.asarray(f(z, t), dtype=float)
    vals = np.broadcast_to(vals, vals.shape[:-2] + (n_z, n_t))
    return vals.mean(axis=(-2, -1)).tolist()


def snr_sweep(snr):
    """`snr`, a scalar or a non-empty 1-D sequence of SNRs >= 0, as a 1-D
    array, and a function shaping a per-SNR result like `snr`."""
    snrs = np.asarray(snr, dtype=float)
    if snrs.ndim > 1 or snrs.size == 0:
        raise InvariantViolation("an SNR sweep is a scalar or a non-empty 1-D sequence")
    require_snr(snrs)
    shape = (lambda out: out[0]) if snrs.ndim == 0 else (lambda out: out)
    return np.atleast_1d(snrs), shape


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for (seed, indices), stable across runs. The
    seed and the indices are integers >= 0, Python or numpy ones, as
    operator.index takes them; else InvariantViolation."""
    key = require_sizes("seed and stream indices", seed, *indices)
    if min(key) < 0:
        raise InvariantViolation(f"seed and stream indices must be >= 0, got {key}")
    return np.random.default_rng(np.random.SeedSequence(key[0], spawn_key=key[1:]))
