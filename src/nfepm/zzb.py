"""Ziv-Zakai MSE lower bounds for joint distance/tilt estimation.

The detection statistic behind the bound needs, for every hypothesis
offset, an integral of |h1 - h0|^2 = (A1 - A0)^2 + 4 A0 A1 sin^2(k (r1 -
r0) / 2) along the array, with the on-axis amplitude A_i = G_i (y t_i +
z_i s_i) linear in (tilt, transverse) and G_i = sqrt(z_i) / r_i^2.5. The
engine takes A1 - A0 and r1 - r0 as differences point by point, never
subtracting channel energies, so mu stays accurate relative to itself at
the smallest offsets: per distance offset, the y^0..y^2 moments of seven
kernels in G give 14 coefficients, and mu on a box's tilt grid is one
product with a 14-function tilt basis. Outer offset integrals run on
log-spaced panels because the integrand support shrinks like 1/SNR.

The bounds take `snr` as a scalar (giving a float) or a 1-D sweep (an
array); the SNR-free work, the coefficients included, runs once per sweep.
Each search line of boxes gets mu in blocks of at most `_BLOCK_CELLS`
grid cells (one box at least), and its detection error in blocks of as
many (SNR, box) pairs, so memory grows with neither the sweep nor the
search. Box 0 is taken at every SNR and starts the running maximum.
Since Q decreases, no other box's integral exceeds its cell count times
its cell area times Q at its least mu, and a pair is evaluated only where
that bound reaches the running maximum less `_PRUNE_MARGIN` (1e-9) of it
and its Q at the least mu is not 0.
The least mu of the bound is the least of the very products the cells
use, so only the ulp-level non-monotonicity of `erfc` (below 1e-13
relative) and the rounding of the cell sum and of the cell-area products
(below 1e-14) can put a skipped pair above its bound, far inside the
margin. scipy's `erfc` is exactly 0 from 26.64... on and positive below,
so a pair whose Q at its least mu is 0 integrates to exactly 0 (a bound
of 0 would still reach a running maximum that underflowed to 0). The
bounds are bit-identical to taking every pair, which a margin of 1 does.

Valley-filling is omitted throughout, a known slackening that does not
affect the asymptotic regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantViolation, QuadratureFailure
from .geometry import ArrayGeometry, UniformPrior, Wave
from .numerics import (midpoints, q_function, require_cells, require_snr,
                       snr_sweep)

_TRUNCATE_REL = 1e-12
_DELTA_FLOOR_REL = 1e-9
_MAX_FAMILY_PANELS = 1 << 14
_BLOCK_CELLS = 1 << 14
_FAMILY_BLOCK = 1 << 7
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class ZZBGrid:
    n_delta: int = 64
    n_theta_z: int = 64
    n_theta_t: int = 64
    n_max_search: int = 16
    mu_tol: float = 1e-6

    def __post_init__(self):
        if min(self.n_delta, self.n_theta_z, self.n_theta_t) < 2:
            raise InvariantViolation("grid sizes must be >= 2")
        if self.n_max_search < 1:
            raise InvariantViolation("n_max_search must be >= 1")
        if not self.mu_tol > 0:
            raise InvariantViolation("mu_tol must be > 0")
        # largest arrays: the offset nodes, a search line's 14 coefficients
        # per distance (zzb_t) or basis functions per tilt, a detection
        # block of max(_BLOCK_CELLS, n_theta_z * n_theta_t) cells, and the
        # 7 family kernels on one y-block of 8 * _FAMILY_BLOCK nodes
        require_cells("the ZZB grid", max(
            self.n_delta, _BLOCK_CELLS, self.n_theta_z * self.n_theta_t,
            14 * self.n_max_search * max(self.n_theta_z, self.n_theta_t),
            7 * self.n_theta_z * 8 * _FAMILY_BLOCK))


DEFAULT_GRID = ZZBGrid()


@lru_cache(maxsize=8)
def _gl(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panel_rule(edges: np.ndarray, order: int):
    xi, wi = _gl(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    weights = (half[:, None] * wi[None, :]).ravel()
    return nodes, weights


def _family_eval(theta_z: np.ndarray, delta_z: float, geom: ArrayGeometry,
                 wave: Wave, n_panels: int):
    """y^0, y^1 and y^2 moments (7, 3, n_theta_z) of dG^2, dG G0, dG G1,
    G0^2, G0 G1, G1^2 and G0 G1 S, taken in blocks of _FAMILY_BLOCK panels:
    G_i = sqrt(z_i) / r_i^2.5, dG = G1 - G0, S = sin^2(k (r1 - r0) / 2)."""
    edges = np.linspace(0.0, geom.aperture, n_panels + 1)
    z0 = theta_z[:, None]
    z1 = z0 + delta_z
    half_phase = 0.5 * wave.wavenumber * delta_z * (z0 + z1)
    moments = 0.0
    for i in range(0, n_panels, _FAMILY_BLOCK):
        y, w = _panel_rule(edges[i:i + _FAMILY_BLOCK + 1], 8)
        rho0, rho1 = y * y + z0 * z0, y * y + z1 * z1
        r0, r1 = np.sqrt(rho0), np.sqrt(rho1)
        g0 = np.sqrt(z0) / (rho0 * np.sqrt(r0))
        g1 = np.sqrt(z1) / (rho1 * np.sqrt(r1))
        dg = g1 - g0
        # written in place: stacking the products would copy each once more
        kernels = np.empty((7,) + dg.shape)
        for out, (a, b) in zip(kernels, ((dg, dg), (dg, g0), (dg, g1), (g0, g0),
                                         (g0, g1), (g1, g1))):
            np.multiply(a, b, out=out)
        np.multiply(kernels[4], np.sin(half_phase / (r0 + r1)) ** 2,
                    out=kernels[6])
        moments = moments + kernels @ np.stack((w, y * w, y * y * w), axis=1)
    return np.swapaxes(moments, 1, 2)


def _ten_families(m, z0, dz):
    """The ten y-integrals a_i a_j, a_i b_j, b_i b_j (cross terms with
    cos k (r1 - r0)) of A_i = a_i t_i + b_i s_i, a_i = y G_i, b_i = z_i G_i."""
    g00, g11, c, z1 = m[3], m[5], m[4] - 2.0 * m[6], z0 + dz
    return np.stack((g00[2], z0 * g00[1], z0 * z0 * g00[0],
                     g11[2], z1 * g11[1], z1 * z1 * g11[0],
                     c[2], z1 * c[1], z0 * c[1], z0 * z1 * c[0]))


def _coefficients(m, z0, dz):
    """The 14 coefficients of mu in the tilt basis of _mu_over_tilts.
    A1 - A0 = dG (y t1 + z0 s1) + G0 (y dt + z0 ds) + G1 dz s1, squared,
    plus the phase term 4 G0 G1 S (y t0 + z0 s0)(y t1 + z1 s1)."""
    dd, d0, d1, g00, g01, g11, ph = m
    z1 = z0 + dz
    return np.stack((dd[2], 2.0 * (z0 * dd[1] + dz * d1[1]),
                     z0 * z0 * dd[0] + dz * (2.0 * z0 * d1[0] + dz * g11[0]),
                     g00[2], 2.0 * z0 * g00[1], z0 * z0 * g00[0],
                     2.0 * d0[2], 2.0 * z0 * d0[1],
                     2.0 * (z0 * d0[1] + dz * g01[1]),
                     2.0 * z0 * (z0 * d0[0] + dz * g01[0]),
                     4.0 * ph[2], 4.0 * z1 * ph[1], 4.0 * z0 * ph[1],
                     4.0 * z0 * z1 * ph[0]))


def _families(theta_z: np.ndarray, delta_z: float, geom: ArrayGeometry,
              wave: Wave, mu_tol: float):
    """The 14 mu coefficients per hypothesis distance, from moments refined
    until the ten energy and cross families they give are stable."""
    zmin = float(theta_z.min())
    geom_factor = 1.0 - zmin / math.hypot(zmin, geom.aperture)
    cycles = wave.wavenumber * delta_z * geom_factor / (2.0 * math.pi)
    n_panels = max(8, int(math.ceil(2.0 * cycles)))
    # checked before the first evaluation, which would already cost
    # 8 * n_panels nodes per hypothesis distance
    if 2 * n_panels > _MAX_FAMILY_PANELS:
        raise QuadratureFailure(
            f"channel-mismatch integrals would start at {n_panels} panels")
    vals = _ten_families(_family_eval(theta_z, delta_z, geom, wave, n_panels),
                         theta_z, delta_z)
    while True:
        n_panels *= 2
        moments = _family_eval(theta_z, delta_z, geom, wave, n_panels)
        refined = _ten_families(moments, theta_z, delta_z)
        scale = np.abs(refined).max() + 1e-300
        if np.abs(refined - vals).max() <= mu_tol * scale:
            return _coefficients(moments, theta_z, delta_z)
        if 2 * n_panels > _MAX_FAMILY_PANELS:
            raise QuadratureFailure(
                f"channel-mismatch integrals not converged at {n_panels} panels")
        vals = refined


def _mu_over_tilts(coef: np.ndarray, theta_t: np.ndarray, delta_t):
    """mu/(snr*pitch) on each box's (theta_z, theta_t) grid, one product of
    the coefficients coef (..., 14, n_theta_z) with the tilt basis, theta_t
    and delta_t against (..., 1, n_theta_t)."""
    t0 = theta_t
    s0 = np.sqrt(1.0 - t0 * t0)
    t1 = t0 + delta_t
    s1 = np.sqrt(1.0 - t1 * t1)
    dt = np.broadcast_to(delta_t, t1.shape)
    ds = -dt * (t0 + t1) / (s0 + s1)
    basis = np.concatenate((t1 * t1, t1 * s1, s1 * s1, dt * dt, dt * ds,
                            ds * ds, t1 * dt, t1 * ds, s1 * dt, s1 * ds,
                            t0 * t1, t0 * s1, s0 * t1, s0 * s1), axis=-2)
    return np.swapaxes(coef, -1, -2) @ basis


def _q_box(mu, n_pairs: int, cell, grid: ZZBGrid):
    """Midpoint integrals of the detection error Q(sqrt(mu/2)) for n_pairs
    (SNR, box) pairs, pair j over a box of grid cells of area cell[j] (or
    one area cell for all): mu(rows) gives mu on the grids of the pairs in
    the slice rows, taken in blocks of at most _BLOCK_CELLS grid cells (one
    box at least), so memory grows with neither the sweep nor the search."""
    k = max(1, _BLOCK_CELLS // (grid.n_theta_z * grid.n_theta_t))
    sums = np.empty(n_pairs)
    for i in range(0, n_pairs, k):
        rows = slice(i, i + k)
        sums[rows] = q_function(
            np.sqrt(np.maximum(mu(rows), 0.0) / 2.0)).sum(axis=(-2, -1))
    return sums * cell


def _search_max(coef, theta_t, delta_t, z_len, snrs, pitch, grid: ZZBGrid):
    """Per SNR, the largest detection-error integral over the n_max_search
    boxes of a search line. Box b has coefficients coef[b] (14, n_theta_z),
    tilt grid theta_t[b] (1, n_theta_t), tilt offset delta_t[b] and distance
    length z_len[b]; what the boxes share is given once. Box 0 is taken at
    every SNR, the other boxes' mu in blocks of at most _BLOCK_CELLS grid
    cells (one box at least), and their (SNR, box) pairs only where an
    upper bound reaches the running maximum less _PRUNE_MARGIN of it and
    Q at the box's least mu is not 0; a margin of 1 takes every pair."""
    n, box = grid.n_max_search, grid.n_theta_z * grid.n_theta_t
    coef = np.broadcast_to(coef, (n, 14, grid.n_theta_z))
    theta_t = np.broadcast_to(theta_t, (n, 1, grid.n_theta_t))
    delta_t, z_len = np.broadcast_to(delta_t, n), np.broadcast_to(z_len, n)
    cell = (z_len / grid.n_theta_z) * ((1.0 - delta_t) / grid.n_theta_t)
    sp = snrs * pitch
    m = _mu_over_tilts(coef[:1], theta_t[:1], delta_t[:1, None, None])[0]
    peak = _q_box(lambda rows: sp[rows, None, None] * m, len(sp), cell[0], grid)
    step = max(1, _BLOCK_CELLS // box)
    for i in range(1, n, step):
        m = _mu_over_tilts(coef[i:i + step], theta_t[i:i + step],
                           delta_t[i:i + step, None, None])
        c = cell[i:i + step]
        # Q decreases, so no cell of a box exceeds Q at the box's least mu
        q_least = q_function(np.sqrt(np.maximum(
            sp[:, None] * m.min(axis=(1, 2)), 0.0) / 2.0))
        take = box * c * q_least >= (1.0 - _PRUNE_MARGIN) * peak[:, None]
        if _PRUNE_MARGIN < 1.0:
            # where Q at the least mu underflowed to 0, every cell's Q is 0
            take &= q_least > 0.0
        s, b = np.nonzero(take)
        np.maximum.at(peak, s, _q_box(
            lambda rows: sp[s[rows], None, None] * m[b[rows]], len(s), c[b],
            grid))
    return peak


def _outer(prior, hi: float, n_delta: int, bracket) -> np.ndarray:
    """Offset integral of d * bracket(d) over [hi * _DELTA_FLOOR_REL, hi]
    per SNR, over the prior's span: log-spaced panels with 4-point
    Gauss-Legendre each, each SNR truncated once its bracket falls below
    _TRUNCATE_REL of its running peak."""
    lo = hi * _DELTA_FLOOR_REL
    edges = np.exp(np.linspace(math.log(lo), math.log(hi), max(1, n_delta // 4) + 1))
    total = peak = 0.0
    cut = False
    for d, w in zip(*_panel_rule(edges, 4)):
        value = bracket(d)
        total = total + np.where(cut, 0.0, w * d * value)
        peak = np.maximum(peak, value)
        cut = cut | (value < _TRUNCATE_REL * peak)
        if np.all(cut):
            break
    return total / prior.span


def zzb_z(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
          grid: ZZBGrid = DEFAULT_GRID):
    """MSE lower bound on the source distance (m^2)."""
    snrs, shape = snr_sweep(snr)
    search = np.linspace(0.0, 1.0, grid.n_max_search, endpoint=False)
    theta_t = midpoints(0.0, 1.0 - search[:, None, None], grid.n_theta_t)
    return shape(_outer(prior, prior.span, grid.n_delta, lambda dz: _search_max(
        _families(midpoints(prior.z_min, prior.z_max - dz, grid.n_theta_z),
                  dz, geom, wave, grid.mu_tol),
        theta_t, search, prior.span - dz, snrs, geom.pitch, grid)))


def zzb_t(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
          grid: ZZBGrid = DEFAULT_GRID):
    """MSE lower bound on the tilt (dimensionless^2)."""
    snrs, shape = snr_sweep(snr)
    search = np.linspace(0.0, prior.span, grid.n_max_search, endpoint=False)
    coef = np.stack([
        _families(midpoints(prior.z_min, prior.z_max - dz, grid.n_theta_z),
                  dz, geom, wave, grid.mu_tol) for dz in search])
    return shape(_outer(prior, 1.0, grid.n_delta, lambda dt: _search_max(
        coef, midpoints(0.0, 1.0 - dt, grid.n_theta_t), dt,
        prior.span - search, snrs, geom.pitch, grid)))


def mu_L_ao(z_t, theta_t, delta_t, snr: float, geom: ArrayGeometry):
    """Closed-form detection statistic for tilt-only hypotheses (no
    distance offset). Wavelength-free because the phase cancels exactly.

    An infinite aperture evaluates the limiting form. Broadcasts over
    array inputs.
    """
    require_snr(snr)
    z = np.asarray(z_t, dtype=float)
    t0 = np.asarray(theta_t, dtype=float)
    dt = np.asarray(delta_t, dtype=float)
    if np.any(z <= 0):
        raise InvariantViolation("z_t must be > 0")
    if np.any(t0 < 0) or np.any(t0 + dt > 1) or np.any(dt < 0):
        raise InvariantViolation("tilt hypotheses must stay inside [0, 1]")
    ft = np.sqrt(1.0 - t0 * t0) - np.sqrt(1.0 - (t0 + dt) ** 2)
    if math.isinf(geom.aperture):
        return (snr * geom.pitch / (3.0 * z) * ((dt - ft) ** 2 + ft * ft))[()]
    tau = geom.aperture / z
    p32 = (1.0 + tau * tau) ** 1.5
    m2 = tau ** 3 / (3.0 * p32)
    m1 = (1.0 - 1.0 / p32) / 3.0
    m0 = tau * (2.0 * tau * tau + 3.0) / (3.0 * p32)
    return (snr * geom.pitch / z
            * (dt * dt * m2 - 2.0 * dt * ft * m1 + ft * ft * m0))[()]


def zzb_ao_t(prior: UniformPrior, snr, geom: ArrayGeometry,
             grid: ZZBGrid = DEFAULT_GRID):
    """Tilt bound with the distance treated as a random nuisance.

    Grids and the box integral are those of the joint zzb_t at zero
    distance offset, so the ordering zzb_t >= zzb_ao_t survives
    discretization.
    """
    snrs, shape = snr_sweep(snr)
    z_mid = midpoints(prior.z_min, prior.z_max, grid.n_theta_z)[:, None]

    def bracket(dt):
        theta_t = midpoints(0.0, 1.0 - dt, grid.n_theta_t)[None, :]
        cell = (prior.span / grid.n_theta_z) * ((1.0 - dt) / grid.n_theta_t)
        return _q_box(lambda rows: mu_L_ao(z_mid, theta_t, dt,
                                           snrs[rows, None, None], geom),
                      len(snrs), cell, grid)

    return shape(_outer(prior, 1.0, grid.n_delta, bracket))
