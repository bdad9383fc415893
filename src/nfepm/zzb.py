"""Ziv-Zakai MSE lower bounds for joint distance/tilt estimation.

The detection statistic behind the bound needs, for every hypothesis
offset, an integral of the squared channel mismatch along the array. The
on-axis channel magnitude is linear in (tilt, transverse), so that
integral splits into ten tilt-independent y-integrals; the engine
computes those once per distance offset and assembles the
tilt/search/SNR dependence algebraically. Outer offset integrals run on
log-spaced panels because the integrand support shrinks like 1/SNR.

The bounds take `snr` as a scalar (giving a float) or a 1-D sweep (an
array); the SNR-free work, the families included, runs once per sweep.
Each search line of boxes is one array pass, the detection error taken
in blocks of (SNR, box) pairs of at most `_BLOCK_CELLS` grid cells (one
box at least), so memory grows with neither the sweep nor the search.

Valley-filling is omitted throughout, a known slackening that does not
affect the asymptotic regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import axis_channel
from .errors import InvariantViolation, QuadratureFailure
from .geometry import ArrayGeometry, UniformPrior, Wave
from .numerics import (DEFAULT_QUADRATURE, QuadratureSpec, integrate, midpoints,
                       q_function, require_cells, require_snr, snr_sweep)

_TRUNCATE_REL = 1e-12
_DELTA_FLOOR_REL = 1e-9
_MAX_FAMILY_PANELS = 1 << 14
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class HypothesisPair:
    """A hypothesis point (theta_z, theta_t) and its nonnegative offset
    (delta_z, delta_t)."""
    theta_z: float
    theta_t: float
    delta_z: float
    delta_t: float

    def __post_init__(self):
        if self.theta_z <= 0 or self.delta_z < 0 or self.delta_t < 0:
            raise InvariantViolation("need theta_z > 0 and offsets >= 0")
        if not (0 <= self.theta_t and self.theta_t + self.delta_t < 1):
            raise InvariantViolation("tilt hypotheses must stay inside [0, 1)")


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
        # largest arrays: the offset nodes, zzb_t's search families, a
        # detection block of max(_BLOCK_CELLS, n_theta_z * n_theta_t) cells
        # (one grid is held to 1/16 of the cap), and a family integrand at
        # the panel cap (8 nodes per panel), so n_theta_z is at most 128
        require_cells("the ZZB grid", max(
            self.n_delta, 10 * self.n_max_search * self.n_theta_z,
            self.n_theta_z * self.n_theta_t * 16,
            self.n_theta_z * 8 * _MAX_FAMILY_PANELS))


DEFAULT_GRID = ZZBGrid()


def ambiguity_function(pair: HypothesisPair, y_r, wave: Wave):
    """Squared channel mismatch between the two hypotheses at array
    coordinate y_r. Equals |h1 - h0|^2."""
    y = np.asarray(y_r, dtype=float)
    z0, z1 = pair.theta_z, pair.theta_z + pair.delta_z
    m0 = np.abs(axis_channel(z0, pair.theta_t, y, wave))
    m1 = np.abs(axis_channel(z1, pair.theta_t + pair.delta_t, y, wave))
    dr = np.sqrt(y * y + z1 * z1) - np.sqrt(y * y + z0 * z0)
    return (m1 * m1 + m0 * m0
            - 2.0 * m1 * m0 * np.cos(wave.wavenumber * dr))[()]


def mu_L(pair: HypothesisPair, snr: float, geom: ArrayGeometry, wave: Wave,
         spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Mean log-likelihood-ratio under the continuous-array approximation:
    snr * pitch * integral of the ambiguity function along the strip."""
    require_snr(snr)
    if snr == 0 or (pair.delta_z == 0 and pair.delta_t == 0):
        return 0.0
    val = integrate(lambda y: ambiguity_function(pair, y, wave),
                    0.0, geom.aperture, spec)
    return snr * geom.pitch * val


def p_min(pair: HypothesisPair, snr: float, geom: ArrayGeometry,
          wave: Wave) -> float:
    """Minimum binary detection error between the two hypotheses under
    equal priors."""
    return float(q_function(math.sqrt(mu_L(pair, snr, geom, wave) / 2.0)))


def p_min_general(mu, prob0: float = 0.5, prob1: float = 0.5):
    """Two-term minimum error probability for unequal hypothesis priors.
    Collapses to Q(sqrt(mu/2)) when the priors match."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise InvariantViolation("mu must be >= 0")
    ratio = math.log(prob1 / prob0)
    s = np.sqrt(2.0 * mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (prob0 * q_function((mu - ratio) / s)
               + prob1 * q_function((mu + ratio) / s))
    return np.where(mu > 0, val, min(prob0, prob1))[()]


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
    y, w = _panel_rule(np.linspace(0.0, geom.aperture, n_panels + 1), 8)
    z0 = theta_z[:, None]
    z1 = z0 + delta_z
    y = y[None, :]
    r0 = np.sqrt(y * y + z0 * z0)
    r1 = np.sqrt(y * y + z1 * z1)
    a0 = np.sqrt(z0) * y / r0 ** 2.5
    b0 = z0 ** 1.5 / r0 ** 2.5
    a1 = np.sqrt(z1) * y / r1 ** 2.5
    b1 = z1 ** 1.5 / r1 ** 2.5
    c = np.cos(wave.wavenumber * (r1 - r0))
    parts = (a0 * a0, a0 * b0, b0 * b0,
             a1 * a1, a1 * b1, b1 * b1,
             a0 * a1 * c, a0 * b1 * c, b0 * a1 * c, b0 * b1 * c)
    return np.stack([p @ w for p in parts])


def _families(theta_z: np.ndarray, delta_z: float, geom: ArrayGeometry,
              wave: Wave, mu_tol: float):
    """Ten y-integrals per hypothesis distance, refined until stable."""
    zmin = float(theta_z.min())
    geom_factor = 1.0 - zmin / math.hypot(zmin, geom.aperture)
    cycles = wave.wavenumber * delta_z * geom_factor / (2.0 * math.pi)
    n_panels = max(8, int(math.ceil(2.0 * cycles)))
    # checked before the first evaluation allocates n_theta_z x 8 * n_panels
    if 2 * n_panels > _MAX_FAMILY_PANELS:
        raise QuadratureFailure(
            f"channel-mismatch integrals would start at {n_panels} panels")
    vals = _family_eval(theta_z, delta_z, geom, wave, n_panels)
    while True:
        n_panels *= 2
        refined = _family_eval(theta_z, delta_z, geom, wave, n_panels)
        scale = np.abs(refined).max() + 1e-300
        if np.abs(refined - vals).max() <= mu_tol * scale:
            return refined
        if 2 * n_panels > _MAX_FAMILY_PANELS:
            raise QuadratureFailure(
                f"channel-mismatch integrals not converged at {n_panels} panels")
        vals = refined


def _mu_over_tilts(fams: np.ndarray, theta_t: np.ndarray, delta_t):
    """Assemble mu/(snr*pitch) on each box's (theta_z, theta_t) grid: fams
    (..., 10, n_theta_z), theta_t and delta_t against (..., 1, n_theta_t)."""
    a0sq, a0b0, b0sq, a1sq, a1b1, b1sq, paa, qab, rba, sbb = np.moveaxis(
        fams, -2, 0)[..., None]
    t0 = theta_t
    s0 = np.sqrt(1.0 - t0 * t0)
    t1 = t0 + delta_t
    s1 = np.sqrt(1.0 - t1 * t1)
    e0 = a0sq * t0 * t0 + 2.0 * a0b0 * t0 * s0 + b0sq * s0 * s0
    e1 = a1sq * t1 * t1 + 2.0 * a1b1 * t1 * s1 + b1sq * s1 * s1
    cross = paa * t0 * t1 + qab * t0 * s1 + rba * s0 * t1 + sbb * s0 * s1
    return e0 + e1 - 2.0 * cross


def _q_box(mu, snrs: np.ndarray, z_len, delta_t, grid: ZZBGrid):
    """Midpoint integrals of the detection error Q(sqrt(mu/2)) per (SNR,
    box) over hypothesis boxes of z_len[b] by 1 - delta_t[b], mu(s) given
    on the boxes' grids for each (k, 1, 1, 1) block s of as many SNRs as
    fit in _BLOCK_CELLS cells (one at least), so memory does not grow
    with the sweep."""
    cell = (z_len / grid.n_theta_z) * ((1.0 - delta_t) / grid.n_theta_t)
    k = max(1, _BLOCK_CELLS // (np.size(cell) * grid.n_theta_z * grid.n_theta_t))
    col = snrs[:, None, None, None]
    return np.concatenate([
        q_function(np.sqrt(np.maximum(mu(col[i:i + k]), 0.0) / 2.0))
        .sum(axis=(2, 3)) for i in range(0, len(snrs), k)]) * cell


def _search_max(fams, theta_t, delta_t, z_len, snrs, pitch, grid: ZZBGrid):
    """Per SNR, the largest detection-error integral over the n_max_search
    boxes of a search line. Box b has families fams[b] (10, n_theta_z),
    tilt grid theta_t[b] (1, n_theta_t), tilt offset delta_t[b] and distance
    length z_len[b]; what the boxes share is given once. The boxes go in
    blocks of at most _BLOCK_CELLS grid cells (one box at least)."""
    n = grid.n_max_search
    fams = np.broadcast_to(fams, (n, 10, grid.n_theta_z))
    theta_t = np.broadcast_to(theta_t, (n, 1, grid.n_theta_t))
    delta_t, z_len = np.broadcast_to(delta_t, n), np.broadcast_to(z_len, n)
    step = max(1, _BLOCK_CELLS // (grid.n_theta_z * grid.n_theta_t))
    peak = []
    for i in range(0, n, step):
        b = slice(i, i + step)
        m = _mu_over_tilts(fams[b], theta_t[b], delta_t[b, None, None])
        peak.append(_q_box(lambda s: s * pitch * m, snrs, z_len[b],
                           delta_t[b], grid).max(axis=1))
    return np.max(peak, axis=0)


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
    fams = np.stack([
        _families(midpoints(prior.z_min, prior.z_max - dz, grid.n_theta_z),
                  dz, geom, wave, grid.mu_tol) for dz in search])
    return shape(_outer(prior, 1.0, grid.n_delta, lambda dt: _search_max(
        fams, midpoints(0.0, 1.0 - dt, grid.n_theta_t), dt,
        prior.span - search, snrs, geom.pitch, grid)))


def zzb_asymptotic(prior: UniformPrior):
    """Zero-SNR (or zero-aperture) limits: the prior variances."""
    return prior.span ** 2 / 12.0, 1.0 / 12.0


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
        return _q_box(lambda s: mu_L_ao(z_mid, theta_t, dt, s, geom), snrs,
                      prior.span, dt, grid)[:, 0]

    return shape(_outer(prior, 1.0, grid.n_delta, bracket))
