"""Reference implementations the tests check the library against.

The library computes mu from moment integrals (`zzb._family_rows`) and the
Fisher information from the tau closed forms (`ecrb._factors`); these
integrate the defining expressions directly with adaptive quadrature.
The MAP search scores its coarse grid and its refinement patches in
separable forms (`mapest._coarse_scores`, `mapest._patch_scores`);
`coarse_model` is the dense model of the first, `coarse_scores_flat` the
first with one flat tilt-expansion product per block of trials, and
`patch_scores_dense` scores the patches as -sum |candidate - v|^2 from
every candidate's voltages. `log_likelihood` is the Gaussian
log-likelihood of one pose, whose argmax the search must find.
The expected CRBs take their tau coefficients once per distance, on the
sparse prior axes; `ecrb_dense` and its siblings take them on every cell
of the dense grid. `outer_per_node` is the ZZB offset integral node by
node, with `zzb._outer`'s detection argument sqrt(snr * pitch / 2) *
sqrt(stat) (`q_argument`) or the direct sqrt(mu / 2) (`q_argument_direct`);
`zzb_ao_t_per_node` evaluates the public `mu_L_ao` in full at every outer
node of that pass, and `y_blocks_uncached` builds the family y-rule afresh
on every call. `rmse_grids_per_block` scores the solvers as
`solver.rmse_grids` once did, forming every probe factor and solving
every row's tilt anew in each block of rows.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from nfepm import solver
from nfepm.channel import AxialPose, axis_channel, axis_factor
from nfepm.ecrb import _TY_SQ_MIN, FisherInfo, _assemble, _factors
from nfepm.errors import AttitudeSingularity, InvariantViolation, QuadratureFailure
from nfepm.geometry import ArrayGeometry, UniformPrior, Wave, probe_elements
from nfepm.numerics import (EXPECT_GRID, TZ_EPS, midpoints, q_function,
                            snr_sweep)
from nfepm.observation import NoiseSpec, Voltages, element_voltages
from nfepm.solver import (_distance, _gain_phase, _tilt_from_amplitudes,
                          decouple)
from nfepm.zzb import (_DELTA_FLOOR_REL, _FAMILY_BLOCK, _TRUNCATE_REL,
                       DEFAULT_GRID, ZZBGrid, _panel_rule, mu_L_ao)


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise InvariantViolation("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise InvariantViolation("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def integrate(f: Callable[[float], float], a: float, b: float,
              spec: QuadratureSpec = DEFAULT_QUADRATURE,
              with_error: bool = False):
    """Adaptive quadrature of a real-valued f over [a, b].

    Returns the estimate, or (estimate, error_estimate) when with_error is
    set. Raises QuadratureFailure if the subdivision budget is exhausted
    before the tolerances are met.
    """
    if not a <= b:
        raise InvariantViolation(f"integration bounds out of order: ({a}, {b})")
    out = quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
               limit=spec.max_subdivisions, full_output=1)
    if len(out) > 3:
        raise QuadratureFailure(
            f"quadrature on [{a}, {b}] did not converge: {out[3]} "
            f"(estimate {out[0]!r}, error {out[1]!r})")
    return (out[0], out[1]) if with_error else out[0]


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


def ambiguity_function(pair: HypothesisPair, y_r, wave: Wave):
    """Squared channel mismatch between the two hypotheses at array
    coordinate y_r. Equals |h1 - h0|^2, in a form free of cancellation:
    (m1 - m0)^2 + 4 m0 m1 sin^2(k (r1 - r0) / 2)."""
    y = np.asarray(y_r, dtype=float)
    z0, z1 = pair.theta_z, pair.theta_z + pair.delta_z
    m0 = np.abs(axis_channel(z0, pair.theta_t, y, wave))
    m1 = np.abs(axis_channel(z1, pair.theta_t + pair.delta_t, y, wave))
    dr = pair.delta_z * (z0 + z1) / (np.sqrt(y * y + z1 * z1)
                                     + np.sqrt(y * y + z0 * z0))
    return ((m1 - m0) ** 2
            + 4.0 * m0 * m1 * np.sin(0.5 * wave.wavenumber * dr) ** 2)[()]


def mu_L(pair: HypothesisPair, snr: float, geom: ArrayGeometry, wave: Wave,
         spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Mean log-likelihood-ratio under the continuous-array approximation:
    snr * pitch * integral of the ambiguity function along the strip."""
    snr_sweep(snr, "ZZB statistic")
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


def channel_deriv_z(pose: AxialPose, y_r, wave: Wave):
    """Derivative of the on-axis channel with respect to the source
    distance. Complex; broadcasts over y_r."""
    y = np.asarray(y_r, dtype=float)
    z, t = pose.distance, pose.tilt
    ty = pose.transverse
    r = np.sqrt(y * y + z * z)
    jkr = 1j * wave.wavenumber * r
    l1 = 2.0 * z * z * (2.0 - jkr)
    l2 = 2.0 * z * z * (1.0 - jkr)
    num = t * y * (y * y - l1) + ty * z * (3.0 * y * y - l2)
    return (num / (2.0 * math.sqrt(z) * r ** 4.5) * np.exp(jkr))[()]


def channel_deriv_t(pose: AxialPose, y_r, wave: Wave):
    """Derivative of the on-axis channel with respect to the tilt
    component (with the transverse component eliminated)."""
    y = np.asarray(y_r, dtype=float)
    z, t = pose.distance, pose.tilt
    if 1.0 - t * t < _TY_SQ_MIN:
        raise AttitudeSingularity("t_z too close to 1 for the tilt derivative")
    ty = pose.transverse
    r = np.sqrt(y * y + z * z)
    jkr = 1j * wave.wavenumber * r
    return ((y - z * t / ty) * math.sqrt(z) / r ** 2.5 * np.exp(jkr))[()]


def fim_quadrature(pose: AxialPose, snr: float, geom: ArrayGeometry,
                   wave: Wave,
                   spec: QuadratureSpec = DEFAULT_QUADRATURE) -> FisherInfo:
    """Fisher information by numerical integration of the derivative
    products along the strip; the oracle for fim_closed."""
    snr_sweep(snr, "Fisher information")
    z, tz = pose.distance, pose.tilt
    if 1.0 - tz * tz < _TY_SQ_MIN:
        raise AttitudeSingularity("t_z too close to 1 for the tilt divisions")
    ty = pose.transverse
    c = tz / ty

    def r2(y):
        return y * y + z * z

    def num_z(y):
        # real part of the distance-derivative numerator
        return (tz * y * (y * y - 4.0 * z * z)
                + ty * z * (3.0 * y * y - 2.0 * z * z))

    i_zz1 = integrate(lambda y: num_z(y) ** 2 / (4.0 * z * r2(y) ** 4.5),
                      0.0, geom.aperture, spec)
    i_zz2 = integrate(lambda y: z ** 3 * (tz * y + ty * z) ** 2 / r2(y) ** 3.5,
                      0.0, geom.aperture, spec)
    i_tt = integrate(lambda y: z * (y - z * c) ** 2 / r2(y) ** 2.5,
                     0.0, geom.aperture, spec)
    i_zt = integrate(lambda y: num_z(y) * (y - z * c) / (2.0 * r2(y) ** 3.5),
                     0.0, geom.aperture, spec)
    return _assemble(i_zz1, i_zz2, i_tt, i_zt, snr, geom, wave)


def log_likelihood(pose: AxialPose, vtilde: Voltages, geom: ArrayGeometry,
                   wave: Wave, noise: NoiseSpec) -> float:
    """Gaussian log-likelihood up to its additive constant."""
    resid = vtilde.values - element_voltages(pose.distance, pose.tilt, geom, wave)
    total = float(np.sum(np.abs(resid) ** 2))
    if noise.sigma2 == 0:
        return 0.0 if total == 0 else -np.inf
    return -total / noise.sigma2


def coarse_model(z, t, geom: ArrayGeometry, wave: Wave):
    """Voltages of the grid poses z x t, one row per pose, distance-major,
    broadcast over (distance, tilt, element)."""
    return element_voltages(z[:, None, None], t[None, :, None], geom,
                            wave).reshape(len(z) * len(t), geom.n_elements)


def coarse_scores_flat(z, t, geom: ArrayGeometry, wave: Wave):
    """`mapest._coarse_scores` with a block's tilt expansion formed as one
    flat (block n_z, 5) x (5, n_t) product, as the search once did."""
    y = geom.element_centers
    c = axis_factor(z[:, None], y, wave, wave.amplitude * geom.pitch)
    c_ri = np.concatenate((c.real, c.imag), axis=1)
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
        return (coef.reshape(-1, 5) @ basis).reshape(len(noisy), -1)

    return score


def patch_scores_dense(zs, ts, noisy, geom: ArrayGeometry, wave: Wave):
    """-sum_e |candidate_e - v_e|^2 of voltage rows v against the voltages
    of their 7 x 7 patches zs[row, i] x ts[row, j], as (rows, 7, 7)."""
    cand = element_voltages(zs[:, :, None, None], ts[:, None, :, None], geom, wave)
    return -np.sum(np.abs(cand - noisy[:, None, None, :]) ** 2, axis=3)


def expect_dense(f, prior: UniformPrior, n_z: int = EXPECT_GRID[0],
                 n_t: int = EXPECT_GRID[1]) -> float:
    """The midpoint average of `numerics.expect_uniform`, with f evaluated
    on the dense (n_z, n_t) meshgrids."""
    zz, tt = np.meshgrid(midpoints(prior.z_min, prior.z_max, n_z),
                         midpoints(0.0, 1.0 - TZ_EPS, n_t), indexing="ij")
    vals = np.asarray(f(zz, tt), dtype=float)
    return np.broadcast_to(vals, vals.shape[:-2] + zz.shape).mean(
        axis=(-2, -1)).tolist()


def ecrb_dense(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
               grid=EXPECT_GRID):
    """ecrb's two bounds, its Fisher factors taken on every grid cell."""
    k = wave.wavenumber

    def ratios(z, t):
        i_zz1, i_zz2, i_tt, i_zt = _factors(z, t, geom)
        i_zz = i_zz1 + k * k * i_zz2
        det = i_zz * i_tt - i_zt * i_zt
        return np.stack((i_tt / det, i_zz / det))

    snrs, finish = snr_sweep(snr, "expected CRB")
    mean_z, mean_t = expect_dense(ratios, prior, *grid)
    pref = 1.0 / (2.0 * snrs * geom.pitch)
    return finish(pref * mean_z), finish(pref * mean_t)


def ecrb_ao_dense(prior: UniformPrior, snr, geom: ArrayGeometry,
                  grid=EXPECT_GRID):
    """ecrb_ao's bound, the tilt information taken on every grid cell."""
    snrs, finish = snr_sweep(snr, "expected CRB")
    mean = expect_dense(lambda z, t: 1.0 / _factors(z, t, geom)[2], prior, *grid)
    return finish(mean / (2.0 * snrs * geom.pitch))


def ecrb_asymptotic_dense(prior: UniformPrior, snr, geom: ArrayGeometry,
                          wave: Wave):
    """ecrb_asymptotic's two bounds (large_z off), the distance term
    averaged over every grid cell."""
    k = wave.wavenumber
    snrs, finish = snr_sweep(snr, "expected CRB")
    pref = 1.0 / (2.0 * snrs * geom.pitch)
    mean = expect_dense(
        lambda z, t: 210.0 * z ** 3 / (112.0 * k * k * z * z + 75.0), prior)
    mean_z = 0.5 * (prior.z_min + prior.z_max)
    return finish(pref * mean), finish(3.0 * pref * mean_z)


def q_argument(sp, stat):
    """sqrt(mu/2) on each cell of the statistic stat, mu = sp * stat, as
    zzb._outer forms it: sqrt(sp/2), per SNR along sp's axes, times the
    root of the statistic."""
    return (np.sqrt(np.asarray(sp) / 2.0)[..., None, None]
            * np.sqrt(np.maximum(stat, 0.0)))


def q_argument_direct(sp, stat):
    """sqrt(mu/2) formed from mu itself, one multiply, clamp, divide and
    root per SNR and cell: the rounding of the direct form, which
    q_argument's root of the statistic departs from."""
    mu = np.asarray(sp)[..., None, None] * stat
    return np.sqrt(np.maximum(mu, 0.0) / 2.0)


def outer_per_node(prior: UniformPrior, hi: float, grid: ZZBGrid,
                   sp: np.ndarray, box, argument=q_argument):
    """zzb._outer's offset integral node by node: one box call per node,
    its detection error Q(argument(sp, stat)) summed at the channels live
    at that node, each cut once its bracket falls below _TRUNCATE_REL of
    its running peak."""
    edges = np.exp(np.linspace(math.log(hi * _DELTA_FLOOR_REL), math.log(hi),
                               max(1, grid.n_delta // 4) + 1))
    total, peak = np.zeros(len(sp)), np.zeros(len(sp))
    live = np.arange(len(sp))
    for d, w in zip(*_panel_rule(edges, 4)):
        stat, cell, failures = box(np.array([d]))
        if failures:
            raise failures[0]
        value = q_function(argument(sp[live], stat[0])).sum(
            axis=(-2, -1)) * cell[0]
        total[live] = total[live] + w * d * value
        peak[live] = np.maximum(peak[live], value)
        live = live[~(value < _TRUNCATE_REL * peak[live])]
        if live.size == 0:
            break
    return total / prior.span


def zzb_ao_t_per_node(prior: UniformPrior, snr, geom: ArrayGeometry,
                      grid: ZZBGrid = DEFAULT_GRID):
    """zzb_ao_t with the public mu_L_ao, inputs checked and tau-moments
    formed, called at every outer node, in outer_per_node's pass."""
    snrs, finish = snr_sweep(snr, "ZZB")
    z_mid = midpoints(prior.z_min, prior.z_max, grid.n_theta_z)[:, None]
    # at a power-of-two pitch the aperture holds and snr its inverse,
    # snr * pitch is 1 exactly, and mu_L_ao the statistic per unit of it
    pitch = math.ldexp(1.0, math.frexp(min(geom.aperture, 1.0))[1] - 1)
    unit = ArrayGeometry(geom.aperture, pitch)

    def box(dt):
        theta_t = midpoints(0.0, 1.0 - dt[0], grid.n_theta_t)[None, :]
        cell = (prior.span / grid.n_theta_z) * ((1.0 - dt) / grid.n_theta_t)
        stat = mu_L_ao(z_mid, theta_t, dt[0], 1.0 / pitch, unit)
        return stat[None], cell, {}

    return finish(outer_per_node(prior, 1.0, grid, snrs * geom.pitch, box))


def y_blocks_uncached(aperture: float, n_panels: int):
    """The y-rule of zzb._family_eval built afresh: per block of
    _FAMILY_BLOCK panels, the nodes y, y^2 and the weights (w, y w, y^2 w)."""
    edges = np.linspace(0.0, aperture, n_panels + 1)
    for i in range(0, n_panels, _FAMILY_BLOCK):
        y, w = _panel_rule(edges[i:i + _FAMILY_BLOCK + 1], 8)
        yield y, y * y, np.stack((w, y * w, y * y * w), axis=1)


def rmse_grids_per_block(case, prior: UniformPrior, geom: ArrayGeometry,
                         wave: Wave, u: int, v: int, solvers):
    """solver.rmse_grids with all its work done block by block: each
    block of at most solver._BLOCK_CELLS cells forms its own probe
    factors and row solves."""
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
    step = max(1, solver._BLOCK_CELLS // v)
    sums = [[0.0, 0.0] for _ in plans]
    for i in range(0, u, step):
        z = z_rows[i:i + step]
        zs = z * s
        c = {y: axis_factor(z, y, wave, scale) for y in ys}
        row = {y: decouple(cy) for y, cy in c.items()}
        cells = {}

        def theta(y):
            if y not in cells:
                cells[y] = _gain_phase(c[y], y * t + zs)
            return cells[y]

        for (kind, diagnostic, y_a, y_b), sq in zip(plans, sums):
            z_hat = _distance(kind, theta, y_a, y_b, wave, diagnostic)
            z_row = _distance(kind, lambda y: row[y].theta, y_a, y_b, wave,
                              diagnostic)
            alpha = _tilt_from_amplitudes(row[y_a].psi * y_a,
                                          row[y_b].psi * y_b, y_a, y_b,
                                          z_row, geom, wave)
            beta = _tilt_from_amplitudes(row[y_a].psi * z, row[y_b].psi * z,
                                         y_a, y_b, z_row, geom, wave)
            z_hat -= z
            sq[0] += np.sum(np.square(z_hat, out=z_hat))
            sq[1] += np.sum((alpha - 1.0) ** 2 * tt
                            + 2.0 * (alpha - 1.0) * beta * ts + beta ** 2 * ss)
    return [tuple((complex if diagnostic else float)(np.sqrt(x / (u * v)))
                  for x in sq)
            for (_, diagnostic, *_), sq in zip(plans, sums)]
