"""Ziv-Zakai MSE lower bounds for joint distance/tilt estimation.

The detection statistic mu behind the bound needs, for every hypothesis
offset, an integral of |h1 - h0|^2 = (A1 - A0)^2 + 4 A0 A1 sin^2(k (r1 -
r0) / 2) along the array, with the on-axis amplitude A_i = G_i (y t_i +
z_i s_i) linear in (tilt, transverse) and G_i = sqrt(z_i) / r_i^2.5. The
engine takes A1 - A0 and r1 - r0 as differences point by point, never
subtracting channel energies, so mu stays accurate relative to itself at
the smallest offsets.

The engine, and where each argument lives. It builds only the statistic
zzb_z integrates, at tilt offset 0. `_family_rows` gives, per distance
offset of a batch, 3 coefficients from the y^0..y^2 moments of four
kernels in G (`_family_eval`), on a panel count fixed beforehand
(`_family_panels`), one evaluation per equal panel count. mu on a box's
tilt grid is one product (`_mu`) of them with the tilt basis (t^2, t s,
s^2) (`_tilt_basis`). `_outer` integrates over the offset on log-spaced
panels, as the integrand's support shrinks like 1/SNR, one batch of a
panel's nodes at a time. Each bound hands it box(d): for a batch of
offset nodes d, the statistic per unit snr * pitch on each node's box,
the boxes' cell areas, and the QuadratureFailure of each node it could
not evaluate. `_outer` alone handles the SNRs and the cut: it takes the
root of the statistic once per node for the whole sweep, scales it by
sqrt(snr * pitch / 2) at the SNRs not cut when the batch starts,
integrates the detection error Q(sqrt(mu/2)) over the boxes in blocks of
at most `_BLOCK_CELLS` grid cells, so memory does not grow with the
sweep, and then cuts the SNRs node by node. The phase kernel forms its
sin^2 through tan (`_sin_squared`), which numpy runs as a SIMD loop.

Each bound integrates one box per outer offset, with no offset in the
other parameter (box 0 of the vector bound's search line): zzb_z's box
sits at tilt offset 0, zzb_ao_t's at distance offset 0. Any offset
direction gives a valid bound, and a maximum over directions only
tightens it (Bell, Steinberg, Ephraim and Van Trees, "Extended Ziv-Zakai
lower bound for vector parameter estimation", IEEE Trans. IT 43(2),
1997); a search over 15 more boxes per line raised no bound on any
preset. At distance offset 0 the joint statistic is the tilt-only one in
closed form (`_ao_form`), so zzb_ao_t is also the joint tilt bound: the
CLI writes its values to both the zzb_t and the zzb_ao_t columns. The
form reads the ECRB's tilt coefficients ftau7-ftau9. A
geometry with strong distance-tilt coupling would need one more box,
along the local optimum delta_t = -(J_zt / J_tt) delta_z; it is not
built, and its statistic would need the tilt-offset terms of A1 - A0
back in the coefficients and the tilt basis.

The bounds take `snr` as a scalar (giving a float) or a 1-D sweep (an
array); the SNR-free work runs once per sweep, and a bound that is not
finite raises NonFinite. Valley-filling is omitted throughout, a known
slackening that does not affect the asymptotic regimes.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from functools import lru_cache

import numpy as np

from .ecrb import ftau7, ftau8, ftau9
from .errors import InvariantViolation, QuadratureFailure
from .geometry import ArrayGeometry, UniformPrior, Wave
from .numerics import (midpoints, q_function, require_cells, require_finite,
                       require_sizes, require_snr, snr_sweep)

_TRUNCATE_REL = 1e-12
_DELTA_FLOOR_REL = 1e-9
_MAX_FAMILY_PANELS = 1 << 14
_PANELS_PER_Z = 6.0
_PANELS_PER_CYCLE = 2.0
_BLOCK_CELLS = 1 << 14
_FAMILY_BLOCK = 1 << 7
_FAMILY_BATCH = 1 << 10


@dataclass(frozen=True)
class ZZBGrid:
    """The ZZB grids: n_delta // 4 log panels of 4 offset nodes (one panel
    at least, so n_delta 2-7 all give 4 nodes), and boxes of n_theta_z
    distances by n_theta_t tilts."""
    n_delta: int = 64
    n_theta_z: int = 64
    n_theta_t: int = 64

    def __post_init__(self):
        for field, size in zip(fields(self),
                               require_sizes("the ZZB grid sizes", *astuple(self))):
            object.__setattr__(self, field.name, size)
        if min(self.n_delta, self.n_theta_z, self.n_theta_t) < 2:
            raise InvariantViolation("grid sizes must be >= 2")
        # largest arrays: the offset nodes, zzb_z's 3 tilt basis functions
        # per tilt, a batch's box statistic and each detection block of
        # max(_BLOCK_CELLS, n_theta_z * n_theta_t) cells at most, and the 4
        # family kernels on one y-block of 8 * _FAMILY_BLOCK nodes, summed
        # over the offsets batched
        require_cells("the ZZB grid", max(
            self.n_delta, _BLOCK_CELLS, self.n_theta_z * self.n_theta_t,
            3 * self.n_theta_t, 4 * self.n_theta_z * 8 * _FAMILY_BLOCK))


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


def _y_block(edges: np.ndarray):
    """Nodes y, y^2 and the (nodes, 3) y^0..y^2 moment weights of the
    8-point rule on the panels between edges."""
    y, w = _panel_rule(edges, 8)
    y2 = y * y
    return y, y2, np.stack((w, y * w, y2 * w), axis=1)


@lru_cache(maxsize=16)
def _y_rule(aperture: float, n_panels: int):
    """_y_block on n_panels equal panels over the aperture, for counts of
    one block (at most _FAMILY_BLOCK panels, 40 KB); read-only, as shared."""
    rule = _y_block(np.linspace(0.0, aperture, n_panels + 1))
    for a in rule:
        a.flags.writeable = False
    return rule


def _y_blocks(aperture: float, n_panels: int):
    """The y-rule of n_panels equal panels over the aperture, in blocks of
    _FAMILY_BLOCK panels; a one-block rule comes from the cache."""
    if n_panels <= _FAMILY_BLOCK:
        return (_y_rule(aperture, n_panels),)
    edges = np.linspace(0.0, aperture, n_panels + 1)
    return (_y_block(edges[i:i + _FAMILY_BLOCK + 1])
            for i in range(0, n_panels, _FAMILY_BLOCK))


def _family_eval(theta_z: np.ndarray, delta_z, geom: ArrayGeometry, k: float,
                 n_panels: int):
    """y^0, y^1 and y^2 moments (4, 3, ..., n_theta_z) of dG^2, dG G1, G1^2
    and G0 G1 S at wavenumber k, for hypothesis distances theta_z (...,
    n_theta_z) and offsets delta_z broadcasting against them (a scalar, or
    one per row as (..., 1)): G_i = sqrt(z_i) / r_i^2.5, dG = G1 - G0,
    S = sin^2(k (r1 - r0) / 2), so S = 0 at k = 0. Taken in blocks of
    _FAMILY_BLOCK panels. S comes from _sin_squared's tan form, as
    sin^2 = tan^2 / (1 + tan^2) takes a SIMD tan where np.sin is scalar
    libm; it is as accurate as sin^2 (within 6e-16 relative) up to the
    phases of 1.7e5 rad the geometry_scan geometries reach."""
    z0 = theta_z[..., None]
    dz = np.asarray(delta_z)[..., None]
    z1 = z0 + dz
    half_phase = 0.5 * k * dz * (z0 + z1)
    moments = 0.0
    for y, y2, weights in _y_blocks(geom.aperture, n_panels):
        rho0, rho1 = y2 + z0 * z0, y2 + z1 * z1
        r0, r1 = np.sqrt(rho0), np.sqrt(rho1)
        g0 = np.sqrt(z0) / (rho0 * np.sqrt(r0))
        g1 = np.sqrt(z1) / (rho1 * np.sqrt(r1))
        dg = g1 - g0
        # written in place: stacking the products would copy each once more
        kernels = np.empty((4,) + dg.shape)
        np.multiply(dg, dg, out=kernels[0])
        np.multiply(dg, g1, out=kernels[1])
        np.multiply(g1, g1, out=kernels[2])
        np.multiply(g0 * g1, _sin_squared(half_phase / (r0 + r1)),
                    out=kernels[3])
        moments = moments + kernels @ weights
    return np.moveaxis(moments, -1, 1)


def _sin_squared(phase: np.ndarray) -> np.ndarray:
    """sin^2 of phase, written over phase: tau^2 / (1 + tau^2) with
    tau = tan(phase), as numpy's tan runs as a SIMD loop where its sin
    runs scalar libm, about 10x slower per cell. On phases in [1e-12, 1e6]
    rad, and at float multiples of pi/2, it is within 6e-16 relative of
    sin^2; |tan| stays below 1.7e16 on floats, so tau^2 cannot overflow."""
    np.tan(phase, out=phase)
    np.square(phase, out=phase)
    phase /= 1.0 + phase
    return phase


def _coefficients(m, z0, dz):
    """The coefficients of mu in the tilt basis (t^2, t s, s^2) of
    _tilt_basis, at tilt offset 0: A1 - A0 = dG (y t + z0 s) + G1 dz s,
    squared, plus the phase term 4 G0 G1 S (y t + z0 s)(y t + z1 s)."""
    dd, d1, g11, ph = m
    z1 = z0 + dz
    return np.stack((
        dd[2] + 4.0 * ph[2],
        2.0 * (z0 * dd[1] + dz * d1[1]) + 4.0 * (z0 + z1) * ph[1],
        (z0 * z0 * dd[0] + dz * (2.0 * z0 * d1[0] + dz * g11[0])
         + 4.0 * z0 * z1 * ph[0])))


def _family_panels(theta_z: np.ndarray, delta_z: float, geom: ArrayGeometry,
                   wave: Wave) -> int:
    """The panel count of an offset's one moment evaluation in
    _family_rows: the largest of 2 max(8, ceil(2 cycles)), cycles the turns
    of the phase k (r1 - r0) along the array at the least distance z0;
    _PANELS_PER_Z per z0 of aperture, as the kernels are singular at
    y = +-i z; and _PANELS_PER_CYCLE per turn at the phase's peak rate,
    which near the array lies far above its mean. Against 8x the panels,
    every kernel moment is then within 2e-14 of the largest, down to a
    least distance of 0.0004 apertures (tests/test_zzb.py). mu per cell is
    as close at offsets of 1e-3 of the prior span or more, but not at the
    smallest, where dG = G1 - G0 is a difference of nearly equal numbers
    and the coefficients shrink as delta_z^2: 7e-9 at 1e-9 of the span on
    a prior 0.002 apertures from the array. Up to an aperture of 2.5 z0,
    as in every preset, the first term is the largest. A count past
    _MAX_FAMILY_PANELS raises QuadratureFailure."""
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
    return math.ceil(n_panels)


def _family_rows(theta_z: np.ndarray, delta_z: np.ndarray,
                 geom: ArrayGeometry, wave: Wave):
    """The 3 mu coefficients per hypothesis distance (nodes, 3, n_theta_z)
    at offsets delta_z (nodes,) on rows theta_z (nodes, n_theta_z), each
    from one evaluation of the moments on _family_panels' count: one
    _family_eval per equal count, on groups of at most _FAMILY_BLOCK
    panels in all (one node at least), so no y-block is larger than one
    of a single node's, and of at most _FAMILY_BATCH hypothesis distances
    times panels: past that the y-block leaves the cache, and a group
    costs more per node than one node alone (2.4x at 4 nodes of 64
    distances and 16 panels). A node past _MAX_FAMILY_PANELS is left out,
    and its QuadratureFailure is returned in a dict by node, to be raised
    only if the pass reaches it."""
    coef = np.zeros((len(delta_z), 3, theta_z.shape[1]))
    groups, failures = {}, {}
    for i, (z, dz) in enumerate(zip(theta_z, delta_z)):
        try:
            groups.setdefault(_family_panels(z, dz, geom, wave), []).append(i)
        except QuadratureFailure as failure:
            failures[i] = failure
    batch = min(_FAMILY_BLOCK, _FAMILY_BATCH // theta_z.shape[1])
    for n_panels, nodes in groups.items():
        size = max(1, batch // n_panels)
        for g in range(0, len(nodes), size):
            rows = nodes[g:g + size]
            z0, dz = theta_z[rows], delta_z[rows, None]
            coef[rows] = np.moveaxis(_coefficients(_family_eval(
                z0, dz, geom, wave.wavenumber, n_panels), z0, dz), 0, 1)
    return coef, failures


def _tilt_basis(theta_t: np.ndarray):
    """The tilt functions (t^2, t s, s^2), s = sqrt(1 - t^2), that mu's
    coefficients multiply, as (..., 3, n_theta_t) for theta_t given as
    (..., 1, n_theta_t)."""
    s = np.sqrt(1.0 - theta_t * theta_t)
    return np.concatenate((theta_t * theta_t, theta_t * s, s * s), axis=-2)


def _mu(coef: np.ndarray, basis: np.ndarray):
    """mu/(snr*pitch) on each box's (theta_z, theta_t) grid, one product of
    the coefficients coef (..., 3, n_theta_z) with the tilt basis."""
    return np.swapaxes(coef, -1, -2) @ basis


def _outer(prior, hi: float, grid: ZZBGrid, sp: np.ndarray,
           box) -> np.ndarray:
    """Offset integral of d * bracket(d) over [hi * _DELTA_FLOOR_REL, hi]
    for each channel c, at snr * pitch = sp[c], over the prior's span:
    n_delta // 4 log-spaced panels (one at least) with 4-point
    Gauss-Legendre each, each channel truncated once its bracket falls
    below _TRUNCATE_REL of its running peak.

    The bracket is the midpoint integral of the detection error
    Q(sqrt(mu/2)) over a node's box, mu = sp[c] * stat, taken as
    Q(sqrt(sp[c] / 2) * sqrt(stat)): the root of the statistic, which no SNR
    enters, once per node for the whole sweep, and the scale once per
    channel, so each (node, channel) box costs one multiply before Q. box(d)
    gives, at a batch of offset nodes d, stat (len(d), n_theta_z,
    n_theta_t), the cell areas (len(d),) and a {batch index:
    QuadratureFailure} dict of the nodes it could not evaluate. A batch is
    one panel, or fewer nodes where a box holds more than a quarter of
    _BLOCK_CELLS grid cells. It is evaluated at the channels live when it
    starts, Q in blocks of at most _BLOCK_CELLS grid cells (one box at
    least), so memory does not grow with the sweep. Its nodes are then taken
    in order: each adds its bracket to the channels still live and cuts
    those that fall, and a node's failure is raised only if the pass reaches
    it with a channel live. Each (node, channel) bracket is independent of
    the others, so the sums, and the failures raised, are those of a
    node-by-node pass."""
    lo = hi * _DELTA_FLOOR_REL
    edges = np.exp(np.linspace(math.log(lo), math.log(hi),
                               max(1, grid.n_delta // 4) + 1))
    nodes, weights = _panel_rule(edges, 4)
    # (node, channel) pairs per Q block, and nodes per batch
    pairs = max(1, _BLOCK_CELLS // (grid.n_theta_z * grid.n_theta_t))
    per = min(4, pairs)
    wd = weights * nodes
    scale = np.sqrt(sp / 2.0)
    total, peak = np.zeros(len(sp)), np.zeros(len(sp))
    live = np.arange(len(sp))
    for a in range(0, len(nodes), per):
        if live.size == 0:
            break
        stat, cell, failures = box(nodes[a:a + per])
        # the (node, channel) pairs of the batch, node by node
        i, c = np.divmod(np.arange(len(stat) * len(live)), len(live))
        sums = np.empty(len(i))
        root = np.sqrt(np.maximum(stat, 0.0))
        for b in range(0, len(i), pairs):
            rows = slice(b, b + pairs)
            n = i[rows]
            # a block at one node takes that node's grid as it is, uncopied
            grids = root[n[0]] if n[0] == n[-1] else root[n]
            sums[rows] = q_function(
                scale[live[c[rows]], None, None] * grids).sum(axis=(-2, -1))
        values = (sums * cell[i]).reshape(len(stat), len(live))
        # the columns of values still live
        cols = np.arange(len(live))
        for k, row in enumerate(values):
            if live.size == 0:
                break
            if k in failures:
                raise failures[k]
            value = row[cols]
            total[live] = total[live] + wd[a + k] * value
            peak[live] = running = np.maximum(peak[live], value)
            keep = ~(value < _TRUNCATE_REL * running)
            live, cols = live[keep], cols[keep]
    return total / prior.span


def zzb_z(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
          grid: ZZBGrid = DEFAULT_GRID):
    """MSE lower bound on the source distance (m^2), from one box per
    distance offset at tilt offset 0, a valid bound by itself (Bell et al.
    1997, see the module docstring); NonFinite names the first SNR where it
    is not finite."""
    snrs, shape = snr_sweep(snr)
    # the box's tilt grid does not move with the outer node
    basis = _tilt_basis(midpoints(0.0, 1.0, grid.n_theta_t)[None])

    def box(dz):
        coef, failures = _family_rows(
            midpoints(prior.z_min, prior.z_max - dz[:, None], grid.n_theta_z),
            dz, geom, wave)
        cell = ((prior.span - dz) / grid.n_theta_z) * (1.0 / grid.n_theta_t)
        return _mu(coef, basis), cell, failures

    # a bound that leaves the float range raises NonFinite, not a warning
    with np.errstate(all="ignore"):
        out = _outer(prior, prior.span, grid, snrs * geom.pitch, box)
    require_finite("ZZB", snrs, out)
    return shape(out)


def _ao_form(z, aperture: float):
    """The tilt-only statistic per unit snr * pitch at distances z, as a
    function form(theta_t, delta_t): (dt^2 ftau9 + dt f ftau8 + f^2 (ftau7
    + ftau9)) / z, in the ECRB's tilt coefficients of tau = aperture / z,
    taken here once (their limits past tau = 1e9), and the transverse
    difference f = s0 - s1 formed as dt (t0 + t1) / (s0 + s1)."""
    tau = aperture / z
    f8, f9 = ftau8(tau), ftau9(tau)
    f79 = ftau7(tau) + f9

    def form(t0, dt):
        t1 = t0 + dt
        # s0 + s1 is 0 only at t0 = t1 = 1, where dt, and so f, is 0
        s01 = np.sqrt(1.0 - t0 * t0) + np.sqrt(1.0 - t1 * t1)
        f = dt * (t0 + t1) / np.where(dt > 0, s01, 1.0)
        return (dt * dt * f9 + dt * f * f8 + f * f * f79) / z

    return form


def mu_L_ao(z_t, theta_t, delta_t, snr: float, geom: ArrayGeometry):
    """Closed-form detection statistic for tilt-only hypotheses (no
    distance offset). Wavelength-free because the phase cancels exactly.

    An infinite aperture, or any aspect ratio past 1e9, takes the
    coefficients' limits. Broadcasts over array inputs; NaN inputs raise
    InvariantViolation.
    """
    require_snr(snr)
    z = np.asarray(z_t, dtype=float)
    t0 = np.asarray(theta_t, dtype=float)
    dt = np.asarray(delta_t, dtype=float)
    if not np.all(z > 0):
        raise InvariantViolation("z_t must be > 0")
    if not (np.all(t0 >= 0) and np.all(t0 + dt <= 1) and np.all(dt >= 0)):
        raise InvariantViolation("tilt hypotheses must stay inside [0, 1]")
    return (snr * geom.pitch * _ao_form(z, geom.aperture)(t0, dt))[()]


def zzb_ao_t(prior: UniformPrior, snr, geom: ArrayGeometry,
             grid: ZZBGrid = DEFAULT_GRID):
    """MSE lower bound on the tilt (dimensionless^2) with the distance a
    random nuisance, and the joint tilt bound too: its box, at distance
    offset 0, alone gives a valid one (Bell et al. 1997, see the module
    docstring).

    Its box is mu_L_ao's statistic, its tau-moments taken once per call
    and its tilt factor once per batch of outer nodes. It takes no wave,
    and an infinite aperture takes the moments' limits. NonFinite names
    the first SNR where the bound is not finite.
    """
    snrs, shape = snr_sweep(snr)
    # a bound that leaves the float range raises NonFinite, not a warning
    with np.errstate(all="ignore"):
        form = _ao_form(midpoints(prior.z_min, prior.z_max,
                                  grid.n_theta_z)[:, None], geom.aperture)

        def box(dt):
            theta_t = midpoints(0.0, 1.0 - dt[:, None, None], grid.n_theta_t)
            cell = (prior.span / grid.n_theta_z) * ((1.0 - dt) / grid.n_theta_t)
            return form(theta_t, dt[:, None, None]), cell, {}

        out = _outer(prior, 1.0, grid, snrs * geom.pitch, box)
    require_finite("ZZB", snrs, out)
    return shape(out)
