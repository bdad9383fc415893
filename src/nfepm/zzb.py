"""Ziv-Zakai MSE lower bounds for joint distance/tilt estimation.

The detection statistic behind the bound needs, for every hypothesis
offset, an integral of |h1 - h0|^2 = (A1 - A0)^2 + 4 A0 A1 sin^2(k (r1 -
r0) / 2) along the array, with the on-axis amplitude A_i = G_i (y t_i +
z_i s_i) linear in (tilt, transverse) and G_i = sqrt(z_i) / r_i^2.5. The
engine takes A1 - A0 and r1 - r0 as differences point by point, never
subtracting channel energies, so mu stays accurate relative to itself at
the smallest offsets: per distance offset, the y^0..y^2 moments of seven
kernels in G, from one quadrature on a panel count fixed beforehand, give
14 coefficients, and mu on a box's tilt grid is one product with a
14-function tilt basis. Outer offset integrals run on log-spaced panels
because the integrand support shrinks like 1/SNR.

The bounds take `snr` as a scalar (giving a float) or a 1-D sweep (an
array); the SNR-free work, the coefficients and tilt bases included, runs
once per sweep, and the outer offset integral evaluates only the SNRs it
has not cut yet. zzb_z forms its boxes' tilt basis once per call, zzb_t
once per outer node (its boxes share one tilt grid).
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

zzb_t's boxes sit at distance offsets of their own. Box 0 gets its exact
coefficients at once, the others amplitude-only ones: at wavenumber 0 the
phase term, which is >= 0 on the strip, drops out, so they bound mu from
below on every cell. A screened box goes through the same bound as an
exact one, its cell count times its cell area times Q at its least
mu_amp. Where that reaches the running maximum less the margin and is not
0 at some SNR of an outer node, its exact coefficients are built once and
kept for the call, and it goes through the exact bound; otherwise it is
skipped there. The screen's mu is within 1e-12 relative of the exact
coefficients' amplitude part, which moves Q by a factor of at most
exp((x^2 + 1) / 2 * 1e-12), under 7.1e-10 up to x = 37.68 where Q
underflows to 0, inside the margin. Where the bound is 0, the exact least
mu can sit at most 1e-12 lower, where Q is 0 or below 1e-310; only a
running maximum below the box's cell count times that could notice.
Short of that, the bounds are bit-identical to building every box, which
a margin of 1 does.

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
_PANELS_PER_Z = 6.0
_PANELS_PER_CYCLE = 2.0
_BLOCK_CELLS = 1 << 14
_FAMILY_BLOCK = 1 << 7
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class ZZBGrid:
    n_delta: int = 64
    n_theta_z: int = 64
    n_theta_t: int = 64
    n_max_search: int = 16

    def __post_init__(self):
        if min(self.n_delta, self.n_theta_z, self.n_theta_t) < 2:
            raise InvariantViolation("grid sizes must be >= 2")
        if self.n_max_search < 1:
            raise InvariantViolation("n_max_search must be >= 1")
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


def _family_eval(theta_z: np.ndarray, delta_z, geom: ArrayGeometry, k: float,
                 n_panels: int):
    """y^0, y^1 and y^2 moments (7, 3, ..., n_theta_z) of dG^2, dG G0, dG G1,
    G0^2, G0 G1, G1^2 and G0 G1 S at wavenumber k, for hypothesis distances
    theta_z (..., n_theta_z) and offsets delta_z broadcasting against them
    (a scalar, or one per row as (..., 1)): G_i = sqrt(z_i) / r_i^2.5,
    dG = G1 - G0, S = sin^2(k (r1 - r0) / 2), so S = 0 at k = 0. Taken in
    blocks of _FAMILY_BLOCK panels."""
    edges = np.linspace(0.0, geom.aperture, n_panels + 1)
    z0 = theta_z[..., None]
    dz = np.asarray(delta_z)[..., None]
    z1 = z0 + dz
    half_phase = 0.5 * k * dz * (z0 + z1)
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
    return np.moveaxis(moments, -1, 1)


def _coefficients(m, z0, dz):
    """The 14 coefficients of mu in the tilt basis of _tilt_basis.
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
              wave: Wave):
    """The 14 mu coefficients per hypothesis distance, from one evaluation
    of the moments on a panel count fixed before it: the largest of
    2 max(8, ceil(2 cycles)), cycles the turns of the phase k (r1 - r0)
    along the array at the least distance z0; _PANELS_PER_Z per z0 of
    aperture, as the kernels are singular at y = +-i z; and
    _PANELS_PER_CYCLE per turn at the phase's peak rate, which near the
    array lies far above its mean. Against 8x the panels, every coefficient
    is then within 2e-14 of the largest, down to a least distance of 0.0004
    apertures (tests/test_zzb.py). Up to an aperture of 2.5 z0, as in
    every preset, the first term is the largest. A count past
    _MAX_FAMILY_PANELS raises before any evaluation."""
    z0 = float(theta_z.min())
    z1, aperture, k = z0 + delta_z, geom.aperture, wave.wavenumber
    cycles = (k * delta_z * (1.0 - z0 / math.hypot(z0, aperture))
              / (2.0 * math.pi))
    # |d(r1 - r0)/dy| = y dz (z0 + z1) / (r0 r1 (r0 + r1)) rises to its peak
    # at y = (z0 z1)^(2/3) / sqrt(z0^(2/3) + z1^(2/3)) and falls after; at a
    # fixed offset it falls as z0 grows, so the least row bounds the others
    a, b = z0 ** (2.0 / 3.0), z1 ** (2.0 / 3.0)
    y = min(aperture, a * b / math.sqrt(a + b))
    r0, r1 = math.hypot(y, z0), math.hypot(y, z1)
    rate = k * y * delta_z * (z0 + z1) / (r0 * r1 * (r0 + r1))
    n_panels = max(2 * max(8, math.ceil(2.0 * cycles)),
                   _PANELS_PER_Z * aperture / z0,
                   _PANELS_PER_CYCLE * rate * aperture / (2.0 * math.pi))
    # the evaluation would cost 8 * n_panels nodes per hypothesis distance
    if not n_panels <= _MAX_FAMILY_PANELS:
        raise QuadratureFailure(
            f"channel-mismatch integrals would need {n_panels:.6g} panels")
    return _coefficients(
        _family_eval(theta_z, delta_z, geom, k, math.ceil(n_panels)),
        theta_z, delta_z)


def _amplitude_coefficients(theta_z: np.ndarray, delta_z: np.ndarray,
                            geom: ArrayGeometry):
    """Amplitude-only mu coefficients (rows, 14, n_theta_z) for hypothesis
    distances theta_z (rows, n_theta_z) and offsets delta_z (rows,): those
    of _coefficients at wavenumber 0, the ten of (A1 - A0)^2 and four zeros
    for the phase term, which is >= 0 on the strip, so they bound mu from
    below on every cell. The kernels' nearest singularities lie at
    y = +-i z, so panels at most a third of the least distance wide put the
    quadrature error at rounding level; where that would take more than
    _MAX_FAMILY_PANELS panels, all coefficients are 0, the bound mu >= 0."""
    coef = np.zeros((len(theta_z), 14, theta_z.shape[1]))
    n_panels = max(1, math.ceil(3.0 * geom.aperture
                                / theta_z.min(initial=math.inf)))
    if n_panels > _MAX_FAMILY_PANELS:
        return coef
    # rows in groups of at most 16 panels in all: the one evaluation of a
    # _families call has 16 panels at least, so the screen adds no larger
    # y-block
    group = max(1, 16 // n_panels)
    for i in range(0, len(coef), group):
        z0, dz = theta_z[i:i + group], delta_z[i:i + group, None]
        coef[i:i + group] = np.moveaxis(_coefficients(
            _family_eval(z0, dz, geom, 0.0, n_panels), z0, dz), 0, 1)
    return coef


def _tilt_basis(theta_t: np.ndarray, delta_t):
    """The 14 tilt functions (..., 14, n_theta_t) that mu's coefficients
    multiply, theta_t and delta_t given against (..., 1, n_theta_t)."""
    t0 = theta_t
    s0 = np.sqrt(1.0 - t0 * t0)
    t1 = t0 + delta_t
    s1 = np.sqrt(1.0 - t1 * t1)
    dt = np.broadcast_to(delta_t, t1.shape)
    ds = -dt * (t0 + t1) / (s0 + s1)
    return np.concatenate((t1 * t1, t1 * s1, s1 * s1, dt * dt, dt * ds,
                           ds * ds, t1 * dt, t1 * ds, s1 * dt, s1 * ds,
                           t0 * t1, t0 * s1, s0 * t1, s0 * s1), axis=-2)


def _mu(coef: np.ndarray, basis: np.ndarray):
    """mu/(snr*pitch) on each box's (theta_z, theta_t) grid, one product of
    the coefficients coef (..., 14, n_theta_z) with the tilt basis."""
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


def _search_max(coef, exact, build, basis, z_len, delta_t, snrs, pitch,
                grid: ZZBGrid):
    """Per SNR, the largest detection-error integral over the n_max_search
    boxes of a search line. Box b has coefficients coef[b] (14, n_theta_z),
    tilt basis basis[b] (14, n_theta_t), tilt offset delta_t[b] and distance
    length z_len[b]; what the boxes share is given once. Where exact[b] is
    false, coef[b] holds amplitude-only coefficients, below mu on every
    cell; the first time they cannot rule the box out, coef[b] = build(b)
    replaces them with the exact ones and exact[b] is set. Box 0 (exact) is
    taken at every SNR, the other boxes' mu in blocks of at most
    _BLOCK_CELLS grid cells (one box at least). One upper bound, the cell
    count times the cell area times Q at the box's least mu, decides both
    the builds and the (SNR, box) pairs taken: only where it reaches the
    running maximum less _PRUNE_MARGIN of it and is not 0. A margin of 1
    builds every box and takes every pair."""
    n, box = grid.n_max_search, grid.n_theta_z * grid.n_theta_t
    basis = np.broadcast_to(basis, (n, 14, grid.n_theta_t))
    cell = np.broadcast_to(
        (z_len / grid.n_theta_z) * ((1.0 - delta_t) / grid.n_theta_t), n)
    sp = snrs * pitch
    m = _mu(coef[:1], basis[:1])[0]
    peak = _q_box(lambda rows: sp[rows, None, None] * m, len(sp), cell[0], grid)

    def taken(least, c):
        # Q decreases, so no cell of a box exceeds Q at the box's least mu
        bound = q_function(np.sqrt(least / 2.0))
        take = box * c * bound >= (1.0 - _PRUNE_MARGIN) * peak[:, None]
        if _PRUNE_MARGIN < 1.0:
            # where the bound underflowed to 0, every cell's Q is 0
            take &= bound > 0.0
        return take

    step = max(1, _BLOCK_CELLS // box)
    for i in range(1, n, step):
        m = _mu(coef[i:i + step], basis[i:i + step])
        c = cell[i:i + step]
        least = np.maximum(sp[:, None] * m.min(axis=(1, 2)), 0.0)
        screened = np.flatnonzero(~exact[i:i + step])
        if screened.size:
            # a screened box's least mu_amp is at most its least mu
            keep = taken(least[:, screened], c[screened]).any(axis=0)
            for j in screened[keep]:
                coef[i + j], exact[i + j] = build(i + j), True
                m[j] = _mu(coef[i + j], basis[i + j])
                least[:, j] = np.maximum(sp * m[j].min(), 0.0)
        done = np.flatnonzero(exact[i:i + step])
        if done.size == 0:
            continue
        s, b = np.nonzero(taken(least[:, done], c[done]))
        b = done[b]
        np.maximum.at(peak, s, _q_box(
            lambda rows: sp[s[rows], None, None] * m[b[rows]], len(s), c[b],
            grid))
    return peak


def _outer(prior, hi: float, n_delta: int, n_snr: int, bracket) -> np.ndarray:
    """Offset integral of d * bracket(d, live) over [hi * _DELTA_FLOOR_REL,
    hi] for each of n_snr SNRs, over the prior's span: log-spaced panels
    with 4-point Gauss-Legendre each, each SNR truncated once its bracket
    falls below _TRUNCATE_REL of its running peak. bracket(d, live) gives
    the bracket at the still-live SNR indices live only."""
    lo = hi * _DELTA_FLOOR_REL
    edges = np.exp(np.linspace(math.log(lo), math.log(hi), max(1, n_delta // 4) + 1))
    total, peak = np.zeros(n_snr), np.zeros(n_snr)
    live = np.arange(n_snr)
    for d, w in zip(*_panel_rule(edges, 4)):
        value = bracket(d, live)
        total[live] = total[live] + w * d * value
        peak[live] = np.maximum(peak[live], value)
        live = live[~(value < _TRUNCATE_REL * peak[live])]
        if live.size == 0:
            break
    return total / prior.span


def zzb_z(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
          grid: ZZBGrid = DEFAULT_GRID):
    """MSE lower bound on the source distance (m^2)."""
    snrs, shape = snr_sweep(snr)
    search = np.linspace(0.0, 1.0, grid.n_max_search, endpoint=False)
    # the boxes' tilt grids and offsets do not move with the outer node
    basis = _tilt_basis(midpoints(0.0, 1.0 - search[:, None, None],
                                  grid.n_theta_t), search[:, None, None])
    exact = np.ones(grid.n_max_search, dtype=bool)

    def bracket(dz, live):
        coef = _families(midpoints(prior.z_min, prior.z_max - dz, grid.n_theta_z),
                         dz, geom, wave)
        return _search_max(
            np.broadcast_to(coef, (grid.n_max_search,) + coef.shape), exact,
            None, basis, prior.span - dz, search, snrs[live], geom.pitch, grid)

    return shape(_outer(prior, prior.span, grid.n_delta, len(snrs), bracket))


def zzb_t(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
          grid: ZZBGrid = DEFAULT_GRID):
    """MSE lower bound on the tilt (dimensionless^2)."""
    snrs, shape = snr_sweep(snr)
    search = np.linspace(0.0, prior.span, grid.n_max_search, endpoint=False)
    theta_z = midpoints(prior.z_min, prior.z_max - search[:, None],
                        grid.n_theta_z)

    def build(b):
        return _families(theta_z[b], search[b], geom, wave)

    # box 0 is exact from the start; the others keep amplitude-only
    # coefficients until the search needs their exact ones
    coef = np.empty((grid.n_max_search, 14, grid.n_theta_z))
    coef[0] = build(0)
    coef[1:] = _amplitude_coefficients(theta_z[1:], search[1:], geom)
    exact = np.arange(grid.n_max_search) == 0

    def bracket(dt, live):
        # one tilt grid for all boxes: one basis per outer node
        basis = _tilt_basis(midpoints(0.0, 1.0 - dt, grid.n_theta_t)[None, :], dt)
        return _search_max(coef, exact, build, basis, prior.span - search, dt,
                           snrs[live], geom.pitch, grid)

    return shape(_outer(prior, 1.0, grid.n_delta, len(snrs), bracket))


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

    def bracket(dt, live):
        theta_t = midpoints(0.0, 1.0 - dt, grid.n_theta_t)[None, :]
        cell = (prior.span / grid.n_theta_z) * ((1.0 - dt) / grid.n_theta_t)
        return _q_box(lambda rows: mu_L_ao(z_mid, theta_t, dt,
                                           snrs[live[rows], None, None], geom),
                      len(live), cell, grid)

    return shape(_outer(prior, 1.0, grid.n_delta, len(snrs), bracket))
