"""Ziv-Zakai MSE lower bounds for joint distance/tilt estimation.

The detection statistic mu behind the bound needs, for every hypothesis
offset, an integral of |h1 - h0|^2 = (A1 - A0)^2 + 4 A0 A1 sin^2(k (r1 -
r0) / 2) along the array, with the on-axis amplitude A_i = G_i (y t_i +
z_i s_i) linear in (tilt, transverse) and G_i = sqrt(z_i) / r_i^2.5. The
engine takes A1 - A0 and r1 - r0 as differences point by point, never
subtracting channel energies, so mu stays accurate relative to itself at
the smallest offsets.

The engine, and where each argument lives. `_families` gives, per
distance offset, 14 coefficients from the y^0..y^2 moments of seven
kernels in G (`_family_eval`), on a panel count fixed beforehand
(`_family_panels`); `_family_rows` gives them for a batch of offsets, one
evaluation per equal panel count. mu on a box's tilt grid is one product
(`_mu`) of them with a 14-function tilt basis (`_tilt_basis`). `_q_box`
integrates the detection error Q(sqrt(mu/2)) over boxes, in blocks of at
most `_BLOCK_CELLS` grid cells, so memory grows with neither the sweep
nor the search. `_search_max` raises a running maximum, started at box
0's integral, over a search line's other boxes, taking a box only where
an upper bound says it can matter. `_outer` integrates over the offset on
log-spaced panels, as the integrand's support shrinks like 1/SNR, one
batch of a panel's nodes at a time: the bound evaluates the batch at the
SNRs not cut when it starts, and `_outer` then cuts them node by node.

zzb_z searches boxes at tilt offsets, which share the families of the
outer node's distance offset. zzb_t searches boxes at distance offsets.
Its box 0 has none, so it is zzb_ao_t's box: the tilt-only statistic in
closed form (`_ao_form`, integrated by `_tilt_only`), and zzb_tilt gives
both tilt bounds from one outer pass. zzb_t's other boxes carry screen
coefficients below mu (`_amplitude_coefficients`, `_phase_floor`) until
the search needs their exact families.

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
_PRUNE_MARGIN = 1e-9
_FLOOR_ROUNDING = 1e-12
_FLOOR_SLACK = 1e-6


@dataclass(frozen=True)
class ZZBGrid:
    """The ZZB grids: n_delta // 4 log panels of 4 offset nodes (one panel
    at least, so n_delta 2-7 all give 4 nodes), boxes of n_theta_z
    distances by n_theta_t tilts, and search lines of n_max_search
    boxes."""
    n_delta: int = 64
    n_theta_z: int = 64
    n_theta_t: int = 64
    n_max_search: int = 16

    def __post_init__(self):
        for field, size in zip(fields(self),
                               require_sizes("the ZZB grid", *astuple(self))):
            object.__setattr__(self, field.name, size)
        if min(self.n_delta, self.n_theta_z, self.n_theta_t) < 2:
            raise InvariantViolation("grid sizes must be >= 2")
        if self.n_max_search < 1:
            raise InvariantViolation("n_max_search must be >= 1")
        # largest arrays: the offset nodes, a search line's 14 coefficients
        # per distance (zzb_t) or basis functions per tilt, a detection
        # block of max(_BLOCK_CELLS, n_theta_z * n_theta_t) cells (a batch
        # of offset nodes has that many box cells, and its search mu at
        # most 4 * _BLOCK_CELLS or one box), and the 7 family kernels on
        # one y-block of 8 * _FAMILY_BLOCK nodes, summed over the offsets
        # batched (the phase floor's blocks have at most 2 * _FAMILY_BLOCK
        # panel edges)
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
    """y^0, y^1 and y^2 moments (7, 3, ..., n_theta_z) of dG^2, dG G0, dG G1,
    G0^2, G0 G1, G1^2 and G0 G1 S at wavenumber k, for hypothesis distances
    theta_z (..., n_theta_z) and offsets delta_z broadcasting against them
    (a scalar, or one per row as (..., 1)): G_i = sqrt(z_i) / r_i^2.5,
    dG = G1 - G0, S = sin^2(k (r1 - r0) / 2), so S = 0 at k = 0. Taken in
    blocks of _FAMILY_BLOCK panels."""
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
        kernels = np.empty((7,) + dg.shape)
        for out, (a, b) in zip(kernels, ((dg, dg), (dg, g0), (dg, g1), (g0, g0),
                                         (g0, g1), (g1, g1))):
            np.multiply(a, b, out=out)
        np.multiply(kernels[4], np.sin(half_phase / (r0 + r1)) ** 2,
                    out=kernels[6])
        moments = moments + kernels @ weights
    return np.moveaxis(moments, -1, 1)


def _coefficients(m, z0, dz):
    """The 14 coefficients of mu in the tilt basis of _tilt_basis.
    A1 - A0 = dG (y t1 + z0 s1) + G0 (y dt + z0 ds) + G1 dz s1, squared,
    plus the phase term 4 G0 G1 S (y t0 + z0 s0)(y t1 + z1 s1). The rows
    are written into one array; the shared factors 2 z0, z0^2 and 4 z0 are
    the leading products of their rows, so sharing them moves no bit."""
    dd, d0, d1, g00, g01, g11, ph = m
    z1 = z0 + dz
    two_z0, z0_sq, four_z0 = 2.0 * z0, z0 * z0, 4.0 * z0
    out = np.empty((14,) + ph.shape[1:])
    out[0], out[3] = dd[2], g00[2]
    np.multiply(2.0, z0 * dd[1] + dz * d1[1], out=out[1])
    np.add(z0_sq * dd[0], dz * (two_z0 * d1[0] + dz * g11[0]), out=out[2])
    np.multiply(two_z0, g00[1], out=out[4])
    np.multiply(z0_sq, g00[0], out=out[5])
    np.multiply(2.0, d0[2], out=out[6])
    np.multiply(two_z0, d0[1], out=out[7])
    np.multiply(2.0, z0 * d0[1] + dz * g01[1], out=out[8])
    np.multiply(two_z0, z0 * d0[0] + dz * g01[0], out=out[9])
    np.multiply(4.0, ph[2], out=out[10])
    np.multiply(4.0 * z1, ph[1], out=out[11])
    np.multiply(four_z0, ph[1], out=out[12])
    np.multiply(four_z0 * z1, ph[0], out=out[13])
    return out


def _family_panels(theta_z: np.ndarray, delta_z: float, geom: ArrayGeometry,
                   wave: Wave) -> int:
    """The panel count of the one moment evaluation of _families: the
    largest of 2 max(8, ceil(2 cycles)), cycles the turns of the phase
    k (r1 - r0) along the array at the least distance z0; _PANELS_PER_Z per
    z0 of aperture, as the kernels are singular at y = +-i z; and
    _PANELS_PER_CYCLE per turn at the phase's peak rate, which near the
    array lies far above its mean. Against 8x the panels, every coefficient
    is then within 2e-14 of the largest, down to a least distance of 0.0004
    apertures (tests/test_zzb.py). Up to an aperture of 2.5 z0, as in
    every preset, the first term is the largest. A count past
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
    """The 14 mu coefficients per hypothesis distance (nodes, 14,
    n_theta_z) at offsets delta_z (nodes,) on rows theta_z (nodes,
    n_theta_z), each from one evaluation of the moments on _family_panels'
    count: one _family_eval per equal count, on groups of at most
    _FAMILY_BLOCK panels in all (one node at least), so no y-block is
    larger than one of a single node's, and of at most _FAMILY_BATCH
    hypothesis distances times panels: past that the y-block leaves the
    cache, and a group costs more per node than one node alone (2.4x at
    4 nodes of 64 distances and 16 panels). A node past
    _MAX_FAMILY_PANELS is left out, and its QuadratureFailure is returned
    in a dict by node, to be raised only if the pass reaches it."""
    coef = np.zeros((len(delta_z), 14, theta_z.shape[1]))
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


def _families(theta_z: np.ndarray, delta_z: float, geom: ArrayGeometry,
              wave: Wave):
    """_family_rows at the one offset delta_z: (14, n_theta_z), or its
    QuadratureFailure, raised before any evaluation."""
    coef, failures = _family_rows(theta_z[None], np.array([delta_z]), geom,
                                  wave)
    if failures:
        raise failures[0]
    return coef[0]


def _screen_panels(theta_z: np.ndarray, geom: ArrayGeometry) -> int:
    """The screen's equal panels over the aperture, each at most a third of
    the least hypothesis distance wide; the kernels' nearest singularities
    lie at y = +-i z. A count past _MAX_FAMILY_PANELS raises: the nearest
    boxes' families would be past it too."""
    n_panels = 3.0 * geom.aperture / theta_z.min(initial=math.inf)
    if not n_panels <= _MAX_FAMILY_PANELS:
        raise QuadratureFailure(
            f"amplitude screen integrals would need {n_panels:.6g} panels")
    return max(1, math.ceil(n_panels))


def _amplitude_coefficients(theta_z: np.ndarray, delta_z: np.ndarray,
                            geom: ArrayGeometry):
    """Amplitude-only mu coefficients (rows, 14, n_theta_z) for hypothesis
    distances theta_z (rows, n_theta_z) and offsets delta_z (rows,): those
    of _coefficients at wavenumber 0, the ten of (A1 - A0)^2 and four zeros
    for the phase term, which is >= 0 on the strip, so they bound mu from
    below on every cell. On the _screen_panels the quadrature error is at
    rounding level: within 1e-12 relative of the exact coefficients'
    amplitude part, so the screen's mu exceeds the exact mu by at most
    that. That moves Q by a factor of at most exp((x^2 + 1) / 2 * 1e-12),
    under 7.1e-10 up to x = 37.68 where Q underflows to 0, inside
    _PRUNE_MARGIN. Where the screen's bound is 0, the exact least mu can
    sit at most 1e-12 lower, where Q is 0 or below 1e-310; only a running
    maximum below the box's cell count times that could notice."""
    n_panels = _screen_panels(theta_z, geom)
    coef = np.zeros((len(theta_z), 14, theta_z.shape[1]))
    # rows in groups of at most 16 panels in all: the one evaluation of a
    # _families call has 16 panels at least, so the screen adds no larger
    # y-block
    group = max(1, 16 // n_panels)
    for i in range(0, len(coef), group):
        z0, dz = theta_z[i:i + group], delta_z[i:i + group, None]
        coef[i:i + group] = np.moveaxis(_coefficients(
            _family_eval(z0, dz, geom, 0.0, n_panels), z0, dz), 0, 1)
    return coef


def _phase_floor(theta_z: np.ndarray, delta_z: np.ndarray,
                 geom: ArrayGeometry, wave: Wave):
    """Lower bounds (rows, 4, n_theta_z) on the phase coefficients 10-13
    for hypothesis distances theta_z (rows, n_theta_z) and offsets
    delta_z (rows,) > 0: _coefficients' own products, so rounding keeps
    their order, of floors f_k <= ph_k = int G0 G1 S y^k dy. Those rows,
    4 ph_2, 4 z1 ph_1, 4 z0 ph_1 and 4 z0 z1 ph_0, multiply t0 t1, t0 s1,
    s0 t1 and s0 s1, each >= 0 on the strip, so any 0 <= f_k <= ph_k keeps
    the screen's mu at or below the exact mu on every cell.

    On a panel [a, b] of the _screen_panels, G0 G1 >= G0 G1 (b) and
    y^k >= a^k, as r0 and r1 grow with y. The phase phi = k (r1 - r0) / 2
    = k dz (z0 + z1) / (2 (r0 + r1)) falls with y, and |phi'| = k dz
    (z0 + z1) y / (2 r0 r1 (r0 + r1)) has one peak, at y* = (z0 z1)^(2/3)
    / sqrt(z0^(2/3) + z1^(2/3)), where z0^2 / r0^3 = z1^2 / r1^3; on the
    panel it is at most M, its value at y* clipped to the panel. So
    int_a^b sin^2 phi dy >= int sin^2 phi |phi'| dy / M, the integral of
    sin^2 over [phi(b), phi(a)] over M. That integral gives up
    _FLOOR_ROUNDING (1 + phi(a)), far above the rounding of the phases
    and sines, and is clamped at 0, so panels where phi barely moves add
    nothing. The floors are scaled by 1 - _FLOOR_SLACK, far more than the
    rounding of the rest and the quadrature error of the exact ph_k.
    Taken on rows in groups of at most _FAMILY_BLOCK panels in all (one
    row at least) and on panels in blocks of _FAMILY_BLOCK, so no array
    exceeds 2 _FAMILY_BLOCK cells per hypothesis distance."""
    n_panels = _screen_panels(theta_z, geom)
    edges = np.linspace(0.0, geom.aperture, n_panels + 1)
    floor = np.zeros(theta_z.shape + (3,))
    group = max(1, _FAMILY_BLOCK // n_panels)
    for i in range(0, len(theta_z), group):
        z0, dz = theta_z[i:i + group, :, None], delta_z[i:i + group, None, None]
        z1 = z0 + dz
        half_phase = 0.5 * wave.wavenumber * dz * (z0 + z1)
        p, q = z0 ** (2.0 / 3.0), z1 ** (2.0 / 3.0)
        y_peak = p * q / np.sqrt(p + q)
        for j in range(0, n_panels, _FAMILY_BLOCK):
            y = edges[j:j + _FAMILY_BLOCK + 1]
            r0, r1 = np.hypot(y, z0), np.hypot(y, z1)
            phase = half_phase / (r0 + r1)
            gain = np.sqrt(z0 * z1) / (r0 * r1) ** 2.5
            peak = np.clip(y_peak, y[:-1], y[1:])
            r0, r1 = np.hypot(peak, z0), np.hypot(peak, z1)
            rate = half_phase * peak / (r0 * r1 * (r0 + r1))
            hi, lo = phase[..., :-1], phase[..., 1:]
            swept = (0.5 * (hi - lo) - 0.25 * (np.sin(2.0 * hi) - np.sin(2.0 * lo))
                     - _FLOOR_ROUNDING * (1.0 + hi))
            part = gain[..., 1:] * np.maximum(swept, 0.0) / rate
            # times a^0, a^1 and a^2 at each panel's left end, summed
            floor[i:i + group] += part @ np.vander(y[:-1], 3, increasing=True)
    # the other six families enter rows 0-9 only: zeros broadcast there
    m = (np.zeros((3, 1, 1)),) * 6 + (np.moveaxis((1.0 - _FLOOR_SLACK) * floor,
                                                 -1, 0),)
    return np.moveaxis(_coefficients(m, theta_z, delta_z[:, None])[10:], 0, 1)


def _tilt_basis(theta_t: np.ndarray, delta_t):
    """The 14 tilt functions (..., 14, n_theta_t) that mu's coefficients
    multiply, theta_t and delta_t given against (..., 1, n_theta_t)."""
    t0 = theta_t
    s0 = np.sqrt(1.0 - t0 * t0)
    t1 = t0 + delta_t
    s1 = np.sqrt(1.0 - t1 * t1)
    dt = np.full_like(t1, delta_t)
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
    pairs, pair j over a box of grid cells of area cell[j] (or one area
    cell for all): mu(rows) gives mu on the grids of the pairs in the slice
    rows, taken in blocks of at most _BLOCK_CELLS grid cells (one box at
    least), so memory grows with neither the sweep nor the search."""
    k = max(1, _BLOCK_CELLS // (grid.n_theta_z * grid.n_theta_t))
    sums = np.empty(n_pairs)
    for i in range(0, n_pairs, k):
        rows = slice(i, i + k)
        sums[rows] = q_function(
            np.sqrt(np.maximum(mu(rows), 0.0) / 2.0)).sum(axis=(-2, -1))
    return sums * cell


def _q_nodes(mu, n_nodes: int, n_snr: int, cell, grid: ZZBGrid):
    """_q_box over every (node, SNR) pair of n_nodes nodes and n_snr SNRs,
    as (n_nodes, n_snr): mu(i, s) gives mu at the pairs of node indices i
    (one index where they share it) and SNR indices s, and cell[i] is node
    i's cell area."""
    i, s = np.divmod(np.arange(n_nodes * n_snr), n_snr)

    def block(rows):
        nodes = i[rows]
        # a block at one node takes that node's grid as it is, uncopied
        return mu(nodes[0] if nodes[0] == nodes[-1] else nodes, s[rows])

    return _q_box(block, len(i), cell[i], grid).reshape(n_nodes, n_snr)


def _joined(parts):
    """Index arrays given in parts, one tuple each, joined part after part."""
    return parts[0] if len(parts) == 1 else [np.concatenate(a)
                                             for a in zip(*parts)]


def _search_max(peak, coef, exact, build, basis, cell, snrs, pitch,
                grid: ZZBGrid):
    """Per node and SNR, the running maximum peak (nodes, SNRs), box 0's
    detection-error integral over a search line, raised by the integrals
    of the line's other n_max_search - 1 boxes; peak is updated in place
    and returned. At node i, box j of those has coefficients coef[i, j]
    (14, n_theta_z), tilt basis basis[i, j] (14, n_theta_t) and cell area
    cell[i, j]. coef and basis have a node axis and a box axis, each of
    full length or of one entry that all share (the node axis of one of
    them is full), and the matrix product broadcasts them. Where exact[j]
    is false, coef[0, j] (coef then has one node entry) holds screen
    coefficients, amplitude-only plus a phase floor, below mu on every
    cell; at the first node where they cannot rule the box out,
    coef[0, j] = build(j) replaces them with the exact ones and exact[j]
    is set, or, where build(j) is None, the running maximum of every
    (node, SNR) pair that needs the box is NaN. The boxes' mu is taken in
    blocks of at most
    _BLOCK_CELLS grid cells per node (one box at least), and the (node,
    SNR, box) bounds in blocks of at most _BLOCK_CELLS (one SNR at least).

    One upper bound, the cell count times the cell area times Q at the
    box's least mu, decides both the builds and the pairs taken: only where
    it reaches the running maximum less _PRUNE_MARGIN of it and is not 0,
    or where either is NaN, so that the NaN reaches the bound and NonFinite
    raises. Q decreases, and the least mu is the least of the very products
    the cells use, so a skipped pair's integral can exceed its bound only
    by the ulp-level non-monotonicity of `erfc` (below 1e-13 relative) and
    the rounding of the cell sum and the cell areas (below 1e-14), far
    inside the margin. scipy's `erfc` is exactly 0 from 26.64... on, so a
    pair whose Q at its least mu is 0 integrates to 0 (a bound of 0 would
    still reach a running maximum that underflowed to 0). A margin of 1
    builds every box and takes every pair, and gives the same bits. Each
    node takes the pairs it would take alone; only a build before the last
    node costs the later ones a screen bound per SNR more."""
    n, box = grid.n_max_search - 1, grid.n_theta_z * grid.n_theta_t
    sp = snrs * pitch

    def lines(a, rows):
        # the boxes rows of coef or basis, at every node
        return a[:, rows] if a.shape[1] > 1 else a

    def line(a, j, nodes):
        # box j of coef or basis at the nodes
        a = a[:, j] if a.shape[1] > 1 else a[:, 0]
        return a[nodes] if len(a) > 1 else a

    def taken(least, c, peak):
        # (node, SNR, box) indices of the pairs taken, for boxes of least
        # mu / (snr pitch) least and cell area c, both (nodes, boxes)
        per = max(1, _BLOCK_CELLS // least.size)
        found = []
        for k in range(0, len(sp), per):
            # Q decreases, so no cell of a box exceeds Q at the box's least mu
            bound = q_function(np.sqrt(np.maximum(
                sp[k:k + per, None] * least[:, None], 0.0) / 2.0))
            # a NaN bound or peak takes the pair
            take = ~(box * c[:, None] * bound
                     < (1.0 - _PRUNE_MARGIN) * peak[:, k:k + per, None])
            if _PRUNE_MARGIN < 1.0:
                # where the bound underflowed to 0, every cell's Q is 0
                take &= bound != 0.0
            i, s, b = np.nonzero(take)
            found.append((i, s + k, b))
        return _joined(found)

    step = max(1, _BLOCK_CELLS // box)
    for i in range(0, n, step):
        m = _mu(lines(coef, slice(i, i + step)),
                lines(basis, slice(i, i + step)))
        least, c = m.min(axis=(2, 3)), cell[:, i:i + step]
        done = np.flatnonzero(exact[i:i + step])
        screened = np.flatnonzero(~exact[i:i + step])
        pairs = []
        if screened.size:
            # a screened box's least mu_amp is at most its least mu
            node, s, kept = taken(least[:, screened], c[:, screened], peak)
            for k in np.unique(kept) if kept.size else ():
                first, j = node[kept == k].min(), screened[k]
                built = build(i + j)
                if built is None:
                    peak[node[kept == k], s[kept == k]] = math.nan
                    continue
                coef[0, i + j], exact[i + j] = built, True
                m[first:, j] = _mu(coef[0, i + j],
                                   line(basis, i + j, slice(first, None)))
                least[first:, j] = m[first:, j].min(axis=(1, 2))
                node_j, s, _ = taken(least[first:, j:j + 1], c[first:, j:j + 1],
                                     peak[first:])
                pairs.append((node_j + first, s, np.full_like(s, j)))
        if done.size:
            node, s, b = taken(least[:, done], c[:, done], peak)
            pairs.append((node, s, done[b]))
        if not pairs:
            continue
        node, s, b = _joined(pairs)
        np.maximum.at(peak, (node, s), _q_box(
            lambda rows: sp[s[rows], None, None] * m[node[rows], b[rows]],
            len(s), c[node, b], grid))
    return peak


def _outer(prior, hi: float, grid: ZZBGrid, sp: np.ndarray,
           bracket) -> np.ndarray:
    """Offset integral of d * bracket(d) over [hi * _DELTA_FLOOR_REL, hi]
    for each channel c, at snr * pitch = sp[c], over the prior's span:
    n_delta // 4 log-spaced panels (one at least) with 4-point
    Gauss-Legendre each, each channel truncated once its bracket falls
    below _TRUNCATE_REL of its running peak.

    The nodes come in batches of one panel, or fewer where a box holds
    more than a quarter of _BLOCK_CELLS grid cells. bracket(d, live)
    returns the brackets (len(d), len(live)) at a batch's nodes d for the
    channels live when the batch starts, NaN where they cannot be
    evaluated, and the QuadratureFailure behind those, or None. The
    batch's nodes are then taken in order: each adds its bracket to the
    channels still live and cuts those that fall, and the failure is
    raised at the first node where a channel live there has a NaN bracket
    (a NaN is never cut). A channel cut inside a batch is evaluated at the
    batch's later nodes and dropped; each (node, channel) bracket is
    independent of the others, so the sums, and the nodes where a failure
    is raised, are those of a node-by-node pass."""
    lo = hi * _DELTA_FLOOR_REL
    edges = np.exp(np.linspace(math.log(lo), math.log(hi),
                               max(1, grid.n_delta // 4) + 1))
    nodes, weights = _panel_rule(edges, 4)
    per = min(4, max(1, _BLOCK_CELLS // (grid.n_theta_z * grid.n_theta_t)))
    wd = weights * nodes
    total, peak = np.zeros(len(sp)), np.zeros(len(sp))
    live = np.arange(len(sp))
    for a in range(0, len(nodes), per):
        if live.size == 0:
            break
        values, failure = bracket(nodes[a:a + per], live)
        # the columns of values still live
        cols = np.arange(len(live))
        for k, row in enumerate(values):
            if live.size == 0:
                break
            value = row[cols]
            if failure is not None and np.isnan(value).any():
                raise failure
            total[live] = total[live] + wd[a + k] * value
            peak[live] = running = np.maximum(peak[live], value)
            keep = ~(value < _TRUNCATE_REL * running)
            live, cols = live[keep], cols[keep]
    return total / prior.span


def zzb_z(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
          grid: ZZBGrid = DEFAULT_GRID):
    """MSE lower bound on the source distance (m^2); NonFinite names the
    first SNR where it is not finite."""
    snrs, shape = snr_sweep(snr)
    search = np.linspace(0.0, 1.0, grid.n_max_search, endpoint=False)
    # the boxes' tilt grids and offsets do not move with the outer node
    basis = _tilt_basis(midpoints(0.0, 1.0 - search[:, None, None],
                                  grid.n_theta_t), search[:, None, None])
    exact = np.ones(grid.n_max_search - 1, dtype=bool)
    sp = snrs * geom.pitch

    def bracket(dz, live):
        coef, failures = _family_rows(
            midpoints(prior.z_min, prior.z_max - dz[:, None], grid.n_theta_z),
            dz, geom, wave)
        cell = ((prior.span - dz[:, None]) / grid.n_theta_z) * (
            (1.0 - search) / grid.n_theta_t)
        # box 0, at tilt offset 0, is taken at every SNR
        m = _mu(coef, basis[0])
        peak = _q_nodes(lambda i, s: sp[live[s], None, None] * m[i], len(dz),
                        len(live), cell[:, 0], grid)
        peak = _search_max(peak, coef[:, None], exact, None, basis[None, 1:],
                           cell[:, 1:], snrs[live], geom.pitch, grid)
        peak[list(failures)] = math.nan
        return peak, next(iter(failures.values()), None)

    out = _outer(prior, prior.span, grid, sp, bracket)
    require_finite("ZZB", snrs, out)
    return shape(out)


def _ao_form(z, aperture: float):
    """The closed form of the tilt-only statistic at distances z: a divisor
    d and a function form(theta_t, delta_t) such that the statistic is
    snr * pitch / d * form(theta_t, delta_t). The tau-moments m0, m1 and m2
    depend on z alone and are taken here once; an infinite aperture uses
    their limits, d = 3 z."""
    if math.isinf(aperture):
        d, moments = 3.0 * z, None
    else:
        tau = aperture / z
        p32 = (1.0 + tau * tau) ** 1.5
        d, moments = z, (tau ** 3 / (3.0 * p32), (1.0 - 1.0 / p32) / 3.0,
                         tau * (2.0 * tau * tau + 3.0) / (3.0 * p32))

    def form(t0, dt):
        ft = np.sqrt(1.0 - t0 * t0) - np.sqrt(1.0 - (t0 + dt) ** 2)
        if moments is None:
            return (dt - ft) ** 2 + ft * ft
        m2, m1, m0 = moments
        return dt * dt * m2 - 2.0 * dt * ft * m1 + ft * ft * m0

    return d, form


def _tilt_only(prior: UniformPrior, geom: ArrayGeometry, grid: ZZBGrid):
    """The tilt-only box: box(dt, snrs) gives the midpoint integrals
    (len(dt), len(snrs)) of Q(sqrt(mu/2)) over the boxes of the prior's
    distances and the tilts [0, 1 - dt] at tilt offsets dt, mu the
    statistic of _ao_form. Its tau-moments are taken here once, its tilt
    factor once per call of box."""
    d, form = _ao_form(midpoints(prior.z_min, prior.z_max, grid.n_theta_z)[:, None],
                       geom.aperture)

    def box(dt, snrs):
        theta_t = midpoints(0.0, 1.0 - dt[:, None, None], grid.n_theta_t)
        cell = (prior.span / grid.n_theta_z) * ((1.0 - dt) / grid.n_theta_t)
        f = form(theta_t, dt[:, None, None])
        return _q_nodes(
            lambda i, s: snrs[s, None, None] * geom.pitch / d * f[i], len(dt),
            len(snrs), cell, grid)

    return box


def mu_L_ao(z_t, theta_t, delta_t, snr: float, geom: ArrayGeometry):
    """Closed-form detection statistic for tilt-only hypotheses (no
    distance offset). Wavelength-free because the phase cancels exactly.

    An infinite aperture evaluates the limiting form. Broadcasts over
    array inputs; NaN inputs raise InvariantViolation.
    """
    require_snr(snr)
    z = np.asarray(z_t, dtype=float)
    t0 = np.asarray(theta_t, dtype=float)
    dt = np.asarray(delta_t, dtype=float)
    if not np.all(z > 0):
        raise InvariantViolation("z_t must be > 0")
    if not (np.all(t0 >= 0) and np.all(t0 + dt <= 1) and np.all(dt >= 0)):
        raise InvariantViolation("tilt hypotheses must stay inside [0, 1]")
    d, form = _ao_form(z, geom.aperture)
    return (snr * geom.pitch / d * form(t0, dt))[()]


def zzb_tilt(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
             grid: ZZBGrid = DEFAULT_GRID):
    """(zzb_t, zzb_ao_t) from one outer pass, each bit-identical to its own
    call; NonFinite names the first SNR where either is not finite.

    The pass runs 2 n channels for n SNRs, zzb_ao_t's at 0..n-1 and
    zzb_t's at n..2n-1, each truncated on its own. Box 0 of zzb_t's search
    line has no distance offset, so it is the tilt-only box: per batch,
    _tilt_only evaluates it once for the SNRs live in either channel, and
    it starts zzb_t's running maximum. The other boxes sit at distance
    offsets of their own; they keep amplitude-only coefficients and a
    phase floor until _search_max needs their exact ones.
    """
    snrs, shape = snr_sweep(snr)
    n = len(snrs)
    tilt_only = _tilt_only(prior, geom, grid)
    search = np.linspace(0.0, prior.span, grid.n_max_search, endpoint=False)[1:]
    theta_z = midpoints(prior.z_min, prior.z_max - search[:, None],
                        grid.n_theta_z)

    failed = []

    def build(b):
        # None where the box's families are past the panel cap: the search
        # then fails only the (node, SNR) pairs that need the box
        try:
            return _families(theta_z[b], search[b], geom, wave)
        except QuadratureFailure as failure:
            failed.append(failure)
            return None

    # one node entry: a box's coefficients serve every node
    coef = _amplitude_coefficients(theta_z, search, geom)[None]
    coef[0, :, 10:] = _phase_floor(theta_z, search, geom, wave)
    exact = np.zeros(len(search), dtype=bool)

    def bracket(dt, live):
        ao, t = live[live < n], live[live >= n] - n
        # the tilt-only box at the SNRs live in either channel
        on = np.zeros(n, dtype=bool)
        on[ao] = on[t] = True
        q = np.empty((len(dt), n))
        q[:, on] = tilt_only(dt, snrs[on])
        peak = q[:, t]
        if t.size:
            # one tilt grid for all boxes: a basis (1, 14, n_theta_t) per node
            basis = _tilt_basis(
                midpoints(0.0, 1.0 - dt[:, None, None, None], grid.n_theta_t),
                dt[:, None, None, None])
            cell = ((prior.span - search) / grid.n_theta_z) * (
                (1.0 - dt[:, None]) / grid.n_theta_t)
            peak = _search_max(peak, coef, exact, build, basis, cell, snrs[t],
                               geom.pitch, grid)
        return (np.concatenate((q[:, ao], peak), axis=1),
                failed[0] if failed else None)

    sp = snrs * geom.pitch
    out = _outer(prior, 1.0, grid, np.concatenate((sp, sp)),
                 bracket).reshape(2, n)
    require_finite("ZZB", snrs, out)
    return shape(out[1]), shape(out[0])


def zzb_t(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
          grid: ZZBGrid = DEFAULT_GRID):
    """MSE lower bound on the tilt (dimensionless^2): zzb_tilt's first
    bound."""
    return zzb_tilt(prior, snr, geom, wave, grid)[0]


def zzb_ao_t(prior: UniformPrior, snr, geom: ArrayGeometry,
             grid: ZZBGrid = DEFAULT_GRID):
    """Tilt bound with the distance treated as a random nuisance.

    Its box integral is _tilt_only's, which is box 0 of the joint zzb_t's
    search line, the running maximum's start. So zzb_t >= zzb_ao_t holds
    exactly wherever both are truncated at the same outer node. The
    statistic is mu_L_ao's, its tau-moments taken once per call and its
    tilt factor once per batch of outer nodes. It takes no wave, and an
    infinite aperture evaluates the limiting form. NonFinite names the
    first SNR where the bound is not finite.
    """
    snrs, shape = snr_sweep(snr)
    tilt_only = _tilt_only(prior, geom, grid)

    out = _outer(prior, 1.0, grid, snrs * geom.pitch,
                 lambda dt, live: (tilt_only(dt, snrs[live]), None))
    require_finite("ZZB", snrs, out)
    return shape(out)
