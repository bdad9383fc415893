"""Closed-form joint distance/tilt recovery from noise-free voltages.

Three regimes, two rules. In the reactive regime (all probe ranges under
a wavelength) the element phase is unambiguous and the solve is exact. In
the propagating regime the integer phase periods of two elements differ by
at most one once the source is far enough out, which pins the phase
difference and yields a second-order-accurate distance. One phase-period
rule serves both Case II regimes, at the pair that `geometry.probe_elements`
names: a distant pair (phase ambiguity) or elements 1 and 2 (spacing
constraint). The tilt then follows from the two amplitudes
(`_solve_pair`). `solve` classifies the prior box and applies its
regime's rule; all solvers broadcast over array voltage inputs.

`rmse_grids` scores one or several solvers on a grid over the prior, in
one pass on the same data, without forming voltages: per distance row it
takes the tilt-free channel factor of each probe element, reads the range
per cell off the cell's phase with each solver's own rule, and solves the
tilt, linear in the amplitudes, once per row. Its work per row (each
probe element's factor, the row ranges and the tilt solves) runs once per
chunk of a few hundred rows, and its work per cell (each per-cell phase
grid, formed once for every solver that reads that element, and the cell
ranges) once per block of rows within the chunk. A phase grid is wrapped
by one offset per row, not a compare per cell: a row's raw phases share
the sign of the factor's imaginary part, read once per row and chunk
from bounds on the gains, as is the finiteness check (`_phase_offsets`).

Diagnostic mode reproduces deliberate regime-mismatch experiments, the
mismatched solvers of `rmse_grids` (`solve` has none): a negative
radicand is carried into the complex plane instead of raising.
A diagnostic Case I solve takes the complex root always, so it comes back
complex whatever its radicands; it forms numpy's root of r + 0j bit for
bit from the real root of |r| (`_complex_root`). Where a radicand is
>= 0 the root's imaginary part is 0 and its real part the plain root
bit for bit; the tilt there matches the plain solve's to within two ulps
(the real quotient rounds once, numpy's complex one twice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import axis_factor
from .errors import InvariantViolation, NegativeRadicand, NonFinite
from .geometry import (ArrayGeometry, Region, UniformPrior, Wave,
                       classify_region, probe_elements)
from .numerics import require_cells, require_sizes
from .observation import Voltages

_TWO_PI = 2.0 * np.pi
# rmse_grids evaluates the grid in blocks of distance rows of at most this
# many cells (one row at least)
_BLOCK_CELLS = 1 << 14
# and does its per-row work once per chunk of whole blocks of at most this
# many rows (one block at least)
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class DecoupledVoltage:
    """Polar form of a complex voltage: magnitude and principal phase in
    [0, 2*pi)."""
    psi: np.ndarray
    theta: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    z_hat: complex | float | np.ndarray
    t_hat: complex | float | np.ndarray
    region: Region
    diagnostic: bool = False


def _wrapped(phase):
    """phase in [-pi, pi] taken to [0, 2*pi), in place."""
    # on [-pi, pi] this is np.mod(phase, 2*pi) bit for bit: adding 0.0
    # turns -0.0 into 0.0 as mod does
    phase += (phase < 0) * _TWO_PI
    return phase


def decouple(v) -> DecoupledVoltage:
    v = np.asarray(v)
    if not np.all(np.isfinite(v)):
        raise NonFinite("voltage is not finite")
    return DecoupledVoltage(psi=np.abs(v)[()], theta=_wrapped(np.angle(v))[()])


def _phase_offsets(c, lo, hi):
    """The wrap of _gain_phase(c, gain) as one offset per row, for gains
    bounded per row by lo <= gain <= hi (each of shape (rows, 1)); None
    where a row's products may not be finite or its raw phases may not
    share one sign.

    Correctly rounded multiplication is monotone, so a row's products are
    all finite when those at hi are (as the complex c hi is), and its raw
    phase arctan2(Im c g, Re c g) is >= 0 throughout where Im c > 0.
    Where Im c lo rounds below 0 and Re c hi is at most 2^1000 |Im c lo|,
    every cell's Im c g is < 0 and at least 2^-1000 Re c g in size, so
    its raw phase is < 0, not rounding to -0.0. The wrap to [0, 2*pi)
    then adds 0 or 2*pi to the whole row. Rows where Im c is a signed
    zero, or where Im c g or the phase may round to zero, take no
    offset."""
    im_lo = c.imag * lo
    with np.errstate(over="ignore", invalid="ignore"):
        below = (im_lo < 0) & (c.real * hi <= im_lo * -2.0 ** 1000)
        finite = np.all(np.isfinite(c * hi))
    if not (finite and np.all(below | (c.imag > 0))):
        return None
    return np.where(below, _TWO_PI, 0.0)


def _gain_phase(c, gain, offsets=None):
    """decouple(c * gain).theta bit for bit, for complex c of shape
    (rows, 1) and real gain >= 0 of shape (rows, cols). offsets is
    _phase_offsets(c, lo, hi) for bounds lo <= gain <= hi, or None.

    With offsets, the complex product is not formed: np.angle(c * gain)
    is arctan2(c.imag * gain, c.real * gain), wrapped by one add of the
    per-row offsets, and gain is overwritten: its buffer takes the real
    product. Without them the phase is decouple's, which raises NonFinite
    on a product that is not finite."""
    if offsets is None:
        return decouple(c * gain).theta
    im = c.imag * gain
    phase = np.arctan2(im, np.multiply(c.real, gain, out=gain), out=im)
    phase += offsets
    return phase


def _pow_five_quarters(x):
    """x ** 1.25 on the principal branch, for real x >= 0 and complex x
    (diagnostic mode) alike, without the costly complex power."""
    return x * np.sqrt(np.sqrt(x))


def _tilt_from_amplitudes(psi_a, psi_b, y_a, y_b, z, geom: ArrayGeometry, wave: Wave):
    # Amplitude model is linear in (tilt, transverse); eliminating the
    # transverse part between the two elements isolates the tilt.
    # A drive level tiny enough to overflow the quotient raises NonFinite.
    z2 = z * z
    ra = _pow_five_quarters(y_a * y_a + z2)
    rb = _pow_five_quarters(y_b * y_b + z2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = (psi_a * ra - psi_b * rb) / (
            wave.amplitude * geom.pitch * np.sqrt(z) * (y_a - y_b))
    if not np.all(np.isfinite(t)):
        raise NonFinite("tilt estimate is not finite")
    return t


def _complex_root(r):
    """np.sqrt(r + 0j) bit for bit, for a real array r, without the
    complex root: the real root of |r| is its real part where r >= 0 and
    its imaginary part where r < 0. r is overwritten."""
    neg = r < 0
    root = np.sqrt(np.abs(r, out=r), out=r)
    out = np.zeros(r.shape, complex)
    np.copyto(out.real, root, where=~neg)
    np.copyto(out.imag, root, where=neg)
    return out


def _reactive_distance(theta_alpha, y_alpha: float, wave: Wave,
                       diagnostic: bool):
    """The Case I range rule: the alpha phase read as a range. A negative
    radicand raises; diagnostic mode takes the complex root throughout."""
    # in place on its own temporaries (a scalar phase rebinds instead)
    radicand = theta_alpha / wave.wavenumber
    radicand **= 2
    radicand -= y_alpha ** 2
    radicand = np.asarray(radicand)
    if diagnostic:
        return _complex_root(radicand)[()]
    if np.min(radicand, initial=np.inf) < 0:
        raise NegativeRadicand(
            "phase range below element offset; data not from this regime")
    return np.sqrt(radicand, out=radicand)[()]


def _phase_period_distance(theta_alpha, theta_beta, y_alpha: float,
                           y_beta: float, wave: Wave):
    """The Case II range rule: the principal phase difference, shifted up
    by one period when non-positive, read as a range."""
    dtheta = np.asarray(theta_beta - theta_alpha)
    np.add(dtheta, _TWO_PI, out=dtheta, where=dtheta <= 0)
    if np.min(dtheta, initial=np.inf) < 1e-12:
        raise NonFinite("phase difference too small to resolve a distance")
    return np.divide(wave.wavenumber * ((y_beta ** 2 - y_alpha ** 2) / 2.0),
                     dtheta, out=dtheta)[()]


def _distance(kind: Region, theta, y_alpha: float, y_beta: float, wave: Wave,
              diagnostic: bool):
    """The range rule of regime `kind` on theta(y), the principal phase at
    the probe element centred at y; the Case I rule reads only theta(y_alpha)."""
    if kind is Region.CASE1:
        return _reactive_distance(theta(y_alpha), y_alpha, wave, diagnostic)
    return _phase_period_distance(theta(y_alpha), theta(y_beta), y_alpha,
                                  y_beta, wave)


def _solve_pair(kind: Region, v_alpha, v_beta, y_alpha: float, y_beta: float,
                geom: ArrayGeometry, wave: Wave, diagnostic: bool) -> SolveResult:
    """Regime `kind`'s range rule, then the tilt from the two amplitudes,
    on the voltages of two distinct probe elements."""
    da, db = decouple(v_alpha), decouple(v_beta)
    theta = {y_alpha: da.theta, y_beta: db.theta}
    z = _distance(kind, theta.get, y_alpha, y_beta, wave, diagnostic)
    t = _tilt_from_amplitudes(da.psi, db.psi, y_alpha, y_beta, z, geom, wave)
    return SolveResult(z[()], t, kind, diagnostic)


def solve(voltages: Voltages, prior: UniformPrior, wave: Wave,
          alpha_idx: int = 1, beta_idx: int | None = None) -> SolveResult:
    """Classify the prior box on the voltages' own array and apply the
    matching regime's solver at the probe elements `classify_region`
    checked; raises UnsupportedRegion when no single regime covers it."""
    geom = voltages.geom
    region = classify_region(prior, geom, wave, alpha_idx, beta_idx)
    a, b = probe_elements(geom, alpha_idx, beta_idx, region)
    return _solve_pair(region, voltages.values[a - 1], voltages.values[b - 1],
                       geom.element_center(a), geom.element_center(b), geom,
                       wave, False)


def rmse_grids(case: Region, prior: UniformPrior, geom: ArrayGeometry,
               wave: Wave, u: int, v: int, solvers):
    """Forward-model a u-by-v grid over the prior box of `case` data and
    solve each point with each of `solvers`, in one pass: a list of
    (rmse_z, rmse_t), one per solver, each equal to that solver's own
    one-solver pass bit for bit. A solver is None for the regime's own
    solver, or a mismatched `Region` whose solver is applied instead, in
    diagnostic mode; its RMSEs are then complex (square root of the
    complex mean of squared errors).

    Nothing forms the probe voltages c (y t + z s), with c the
    tilt-free factor `axis_factor` of a distance row and s = sqrt(1 - t^2).
    The range is solved per cell from the cell's principal phase alone,
    bit for bit as the regime's solver reads it off the voltage. It is
    not solved once per row from c's phase, which equals the cells' only
    in exact arithmetic: on column 9 of Table 2 the phase-period rule
    divides by a phase difference near 1e-4 rad, so each cell's phase
    rounding shows in rmse_z, which would move by 4.5e-9 relative at
    800 x 800. The attitude term y t + z s is > 0, so a cell's amplitude
    is |c| (y t + z s), and the tilt solve, linear in the two amplitudes,
    runs once per row at the range from c's phases: it gives alpha at the
    amplitudes |c| y and beta at |c| z, the cell's tilt estimate is
    alpha t + beta s, and a row's squared tilt errors sum to
    (alpha - 1)^2 sum t^2 + 2 (alpha - 1) beta sum t s + beta^2 sum s^2.

    A cell's phase is arctan2(Im c g, Re c g), g = y t + z s, wrapped to
    [0, 2*pi) by one offset per row (`_phase_offsets`): g > 0, so a row's
    raw phases share the sign of Im c. The gains' per-row bounds
    z s_min <= g <= y + z give that sign and the finiteness check once
    per row and chunk; a chunk where they do not forms its phases as
    decouple does, from the complex products (`_gain_phase` without
    offsets). A diagnostic Case I solver roots each cell's radicand with
    `_complex_root`.

    The grid is streamed in blocks of distance rows of at most
    `_BLOCK_CELLS` cells (one row at least), and the squared errors are
    summed block by block, so memory does not grow with u * v. The work
    per row runs once per chunk of whole blocks of at most `_CHUNK_ROWS`
    rows (one block at least): each probe element's factor is formed and
    decoupled once, and each solver's row ranges and per-row tilt errors
    are solved once, on the chunk's rows. The work per cell runs per
    block, on the block's slice of the chunk: each element's phase grid
    at most once, for every solver that reads it, then each solver's
    cell ranges; the row tilt errors are summed over the same slice.
    Nothing outlives its chunk. A check failing in any row or block, for
    any solver, raises; no partial RMSE is returned. The block and chunk
    sizes regroup the sums and change nothing else.
    """
    u, v = require_sizes("the RMSE grid sizes", u, v)
    if u < 2 or v < 2:
        raise InvariantViolation("rmse grid needs u, v >= 2")
    require_cells("the RMSE grid", u * v)
    # per solver: its regime, diagnostic flag and probe element centres
    plans = []
    for mismatch in solvers:
        kind = case if mismatch is None else mismatch
        y_a, y_b = (geom.element_center(n)
                    for n in probe_elements(geom, 1, None, kind))
        plans.append((kind, mismatch is not None, y_a, y_b))
    ys = dict.fromkeys(y for *_, y_a, y_b in plans for y in (y_a, y_b))
    scale = wave.amplitude * geom.pitch
    z_rows = np.linspace(prior.z_min, prior.z_max, u)[:, None]
    t = np.linspace(0.0, 1.0, v, endpoint=False)
    s = np.sqrt(1.0 - t * t)
    tt, ts, ss = np.sum(t * t), np.sum(t * s), np.sum(s * s)
    yt = {y: y * t for y in ys}
    s_min = s.min()
    step = max(1, _BLOCK_CELLS // v)
    chunk = step * max(1, _CHUNK_ROWS // step)
    sums = [[0.0, 0.0] for _ in plans]
    for lo in range(0, u, chunk):
        zc = z_rows[lo:lo + chunk]
        c = {y: axis_factor(zc, y, wave, scale) for y in ys}
        row = {y: decouple(cy) for y, cy in c.items()}
        # each row's phase offsets, from bounds on its gains y t + z s
        # (y > 0, t and s in [0, 1]): z s_min <= y t + z s <= y + z
        offsets = {y: _phase_offsets(c[y], zc * s_min, y + zc) for y in ys}
        # per solver, the sum of each row's squared tilt errors
        solved = []
        for kind, diagnostic, y_a, y_b in plans:
            z_row = _distance(kind, lambda y: row[y].theta, y_a, y_b, wave,
                              diagnostic)
            psi_a, psi_b = row[y_a].psi, row[y_b].psi
            alpha = _tilt_from_amplitudes(psi_a * y_a, psi_b * y_b, y_a, y_b,
                                          z_row, geom, wave)
            beta = _tilt_from_amplitudes(psi_a * zc, psi_b * zc, y_a, y_b,
                                         z_row, geom, wave)
            solved.append((alpha - 1.0) ** 2 * tt
                          + 2.0 * (alpha - 1.0) * beta * ts + beta ** 2 * ss)
        for i in range(0, len(zc), step):
            block = slice(i, i + step)
            z = zc[block]
            zs = z * s
            cells = {}

            def theta(y):
                if y not in cells:
                    w = offsets[y]
                    cells[y] = _gain_phase(c[y][block], yt[y] + zs,
                                           None if w is None else w[block])
                return cells[y]

            for (kind, diagnostic, y_a, y_b), err_t, sq in zip(
                    plans, solved, sums):
                z_hat = _distance(kind, theta, y_a, y_b, wave, diagnostic)
                z_hat -= z
                sq[0] += np.sum(np.square(z_hat, out=z_hat))
                sq[1] += np.sum(err_t[block])
    return [tuple((complex if diagnostic else float)(np.sqrt(x / (u * v)))
                  for x in sq)
            for (_, diagnostic, *_), sq in zip(plans, sums)]


# Table 2 of the paper, one solver column each:
# (region, wavelength, aperture, pitch, z_min, z_max)
TABLE2_COLUMNS = (
    (Region.CASE1, 1.0, 0.5, 0.05, 0.5, 0.9),
    (Region.CASE1, 0.5, 1.0, 0.05, 0.1, 0.45),
    (Region.CASE2_PA, 0.1, 1.0, 0.05, 5.0, 20.0),
    (Region.CASE2_PA, 0.1, 2.0, 0.05, 20.0, 80.0),
    (Region.CASE2_PA, 0.01, 2.0, 0.05, 200.0, 400.0),
    (Region.CASE2_SC, 0.1, 1.0, 0.05, 0.18, 4.98),
    (Region.CASE2_SC, 0.1, 1.0, 0.1, 0.36, 4.98),
    (Region.CASE2_SC, 0.01, 2.0, 0.05, 0.25, 199.0),
    (Region.CASE2_SC, 0.01, 2.0, 0.005, 0.018, 199.0),
)

# Diagnostic pairings: wrong solver deliberately applied to each Case II
# column (ambiguity-limited data under the Case I solver, spacing-limited
# data under the phase-ambiguity solver).
TABLE2_MISMATCH = tuple(
    (col, Region.CASE1 if col[0] is Region.CASE2_PA else Region.CASE2_PA)
    for col in TABLE2_COLUMNS if col[0] is not Region.CASE1)
