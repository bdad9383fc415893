"""Shared numeric kernels: the Gaussian tail function, deterministic
tensor-grid expectations, array-size guards, the one SNR contract of the
bounds, statistics and information (`snr_sweep`), and RNG streams."""

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


def sweep(values, what: str) -> np.ndarray:
    """`values`, a scalar or a non-empty 1-D sequence of reals, as a 1-D
    float array; InvariantViolation naming `what` for anything else."""
    try:
        vals = np.asarray(values, dtype=float)
    except (TypeError, ValueError):  # ragged, or not real numbers
        vals = None
    if vals is None or vals.ndim > 1 or vals.size == 0:
        raise InvariantViolation(f"{what} is a scalar or a non-empty 1-D sequence")
    return np.atleast_1d(vals)


def snr_sweep(snr, what: str):
    """The SNRs of `snr`, a scalar or a non-empty 1-D sweep, each finite
    and >= 0 (NaN is not; +inf would make the information infinite), as a
    1-D array, and finish(values) for `what`'s values per SNR along their
    last axis: NonFinite names the first SNR where one is not finite, else
    they come shaped like `snr` (a scalar takes its one SNR's entries).
    The caller computes them in between, under np.errstate(all="ignore"),
    so that leaving the float range raises NonFinite, not a warning."""
    snrs = sweep(snr, "an SNR sweep")
    if not np.all(snrs >= 0):
        raise InvariantViolation(f"snr must be >= 0, got {snrs[~(snrs >= 0)][0]}")
    if np.isinf(snrs).any():
        raise InvariantViolation("snr must be finite, got inf")

    def finish(values):
        values = np.asarray(values)
        finite = np.isfinite(values.reshape(-1, len(snrs))).all(axis=0)
        if not finite.all():
            raise NonFinite(f"{what} not finite at snr {snrs[~finite][0]}")
        return values if np.ndim(snr) else values[..., 0][()]

    return snrs, finish


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for (seed, indices), stable across runs. The
    seed and the indices are integers >= 0, Python or numpy ones, as
    operator.index takes them; else InvariantViolation."""
    key = require_sizes("seed and stream indices", seed, *indices)
    if min(key) < 0:
        raise InvariantViolation(f"seed and stream indices must be >= 0, got {key}")
    return np.random.default_rng(np.random.SeedSequence(key[0], spawn_key=key[1:]))
