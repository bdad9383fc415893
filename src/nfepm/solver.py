"""Closed-form joint distance/tilt recovery from noise-free voltages.

Three regimes. In the reactive regime (all probe ranges under a
wavelength) the element phase is unambiguous and the solve is exact. In
the propagating regime the unknown integer phase periods of two elements
differ by at most one once the source is far enough out, which pins the
phase difference and yields a second-order-accurate distance: either from
a distant element pair (phase-ambiguity regime) or from the first two
elements (spacing-constraint regime). The tilt then follows from the two
amplitudes. All solvers broadcast over array voltage inputs.

Diagnostic mode reproduces deliberate regime-mismatch experiments: a
negative radicand is carried into the complex plane instead of raising,
and estimates may come back complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import axis_channel
from .errors import (DegenerateElements, InvariantViolation, NegativeRadicand,
                     NonFinite, UnsupportedRegion)
from .geometry import (ArrayGeometry, Region, RegionClass, UniformPrior, Wave,
                       classify_region)
from .observation import Voltages

_TWO_PI = 2.0 * np.pi


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
    region: RegionClass
    diagnostic: bool = False


def decouple(v) -> DecoupledVoltage:
    v = np.asarray(v)
    if not np.all(np.isfinite(v)):
        raise NonFinite("voltage is not finite")
    return DecoupledVoltage(psi=np.abs(v)[()], theta=np.mod(np.angle(v), _TWO_PI)[()])


def _tilt_from_amplitudes(psi_a, psi_b, y_a, y_b, z, geom: ArrayGeometry, wave: Wave):
    # Amplitude model is linear in (tilt, transverse); eliminating the
    # transverse part between the two elements isolates the tilt.
    ra = (y_a * y_a + z * z) ** 1.25
    rb = (y_b * y_b + z * z) ** 1.25
    return (psi_a * ra - psi_b * rb) / (
        wave.amplitude * geom.pitch * np.sqrt(z) * (y_a - y_b))


def solve_case1(v_alpha, v_beta, y_alpha: float, y_beta: float,
                geom: ArrayGeometry, wave: Wave,
                diagnostic: bool = False) -> SolveResult:
    """Reactive-regime solve: range read directly off the alpha phase."""
    if y_alpha == y_beta:
        raise DegenerateElements("probe elements coincide")
    da, db = decouple(v_alpha), decouple(v_beta)
    radicand = (da.theta / wave.wavenumber) ** 2 - y_alpha ** 2
    if diagnostic:
        z = np.sqrt(np.asarray(radicand, dtype=complex))[()]
    else:
        if np.any(np.asarray(radicand) < 0):
            raise NegativeRadicand(
                "phase range below element offset; data not from this regime")
        z = np.sqrt(radicand)
    t = _tilt_from_amplitudes(da.psi, db.psi, y_alpha, y_beta, z, geom, wave)
    return SolveResult(z, t, RegionClass(Region.CASE1), diagnostic)


def _phase_period_distance(dtheta, scale, wave: Wave):
    denom = np.where(np.asarray(dtheta) > 0, dtheta, dtheta + _TWO_PI)
    if np.any(denom < 1e-12):
        raise NonFinite("phase difference too small to resolve a distance")
    return wave.wavenumber * scale / denom


def solve_case2_pa(v_alpha, v_beta, y_alpha: float, y_beta: float,
                   geom: ArrayGeometry, wave: Wave,
                   diagnostic: bool = False) -> SolveResult:
    """Phase-ambiguity regime: the two probe phases differ by less than a
    full period, so their principal difference (shifted up by one period
    when non-positive) determines the range."""
    if not y_beta > y_alpha:
        raise DegenerateElements("need y_beta > y_alpha")
    da, db = decouple(v_alpha), decouple(v_beta)
    z = _phase_period_distance(db.theta - da.theta,
                               (y_beta ** 2 - y_alpha ** 2) / 2.0, wave)
    t = _tilt_from_amplitudes(da.psi, db.psi, y_alpha, y_beta, z, geom, wave)
    return SolveResult(z[()], t, RegionClass(Region.CASE2_PA), diagnostic)


def solve_case2_sc(v_1, v_2, geom: ArrayGeometry, wave: Wave,
                   diagnostic: bool = False) -> SolveResult:
    """Spacing-constraint regime: same period argument applied to the
    first two (adjacent) elements."""
    y1, y2 = 0.5 * geom.pitch, 1.5 * geom.pitch
    d1, d2 = decouple(v_1), decouple(v_2)
    z = _phase_period_distance(d2.theta - d1.theta, geom.pitch ** 2, wave)
    t = _tilt_from_amplitudes(d1.psi, d2.psi, y1, y2, z, geom, wave)
    return SolveResult(z[()], t, RegionClass(Region.CASE2_SC), diagnostic)


def solve(voltages: Voltages, prior: UniformPrior, geom: ArrayGeometry,
          wave: Wave, alpha_idx: int = 1, beta_idx: int | None = None,
          diagnostic: bool = False) -> SolveResult:
    """Classify the prior box and dispatch to the matching regime solver."""
    region = classify_region(prior, geom, wave, alpha_idx, beta_idx)
    if not region.is_supported:
        raise UnsupportedRegion(region.reason)
    if beta_idx is None:
        beta_idx = max(alpha_idx + 1, geom.n_elements // 2)
    vals = voltages.values
    if region.kind is Region.CASE2_SC:
        return solve_case2_sc(vals[0], vals[1], geom, wave, diagnostic)
    va, vb = vals[alpha_idx - 1], vals[beta_idx - 1]
    ya, yb = geom.element_center(alpha_idx), geom.element_center(beta_idx)
    if region.kind is Region.CASE1:
        return solve_case1(va, vb, ya, yb, geom, wave, diagnostic)
    return solve_case2_pa(va, vb, ya, yb, geom, wave, diagnostic)


def rmse_grid(case: Region | RegionClass, prior: UniformPrior,
              geom: ArrayGeometry, wave: Wave, u: int = 200, v: int = 200,
              mismatch: Region | None = None,
              alpha_idx: int = 1, beta_idx: int | None = None):
    """Forward-model a u-by-v grid over the prior box and solve each point,
    returning (rmse_z, rmse_t).

    `case` names the regime the data belong to; `mismatch` optionally
    names a different regime whose solver is applied instead, in
    diagnostic mode, in which case the RMSEs may be complex (square root
    of the complex mean of squared errors).
    """
    if u < 2 or v < 2:
        raise InvariantViolation("rmse grid needs u, v >= 2")
    if isinstance(case, RegionClass):
        case = case.kind
    solver_kind = mismatch if mismatch is not None else case
    diagnostic = mismatch is not None
    if beta_idx is None:
        beta_idx = max(alpha_idx + 1, geom.n_elements // 2)

    z = np.linspace(prior.z_min, prior.z_max, u)[:, None]
    t = np.linspace(0.0, 1.0, v, endpoint=False)[None, :]

    if solver_kind is Region.CASE2_SC:
        ya, yb = 0.5 * geom.pitch, 1.5 * geom.pitch
    else:
        ya = geom.element_center(alpha_idx)
        yb = geom.element_center(beta_idx)
    va = axis_channel(z, t, ya, wave, scale=wave.amplitude * geom.pitch)
    vb = axis_channel(z, t, yb, wave, scale=wave.amplitude * geom.pitch)

    if solver_kind is Region.CASE1:
        res = solve_case1(va, vb, ya, yb, geom, wave, diagnostic)
    elif solver_kind is Region.CASE2_PA:
        res = solve_case2_pa(va, vb, ya, yb, geom, wave, diagnostic)
    elif solver_kind is Region.CASE2_SC:
        res = solve_case2_sc(va, vb, geom, wave, diagnostic)
    else:
        raise UnsupportedRegion(f"no solver for {case}")

    err_z = np.broadcast_to(np.asarray(res.z_hat) - z, (u, v))
    err_t = np.broadcast_to(np.asarray(res.t_hat) - t, (u, v))
    rmse_z = np.sqrt(np.mean(err_z ** 2))
    rmse_t = np.sqrt(np.mean(err_t ** 2))
    if not diagnostic:
        return float(rmse_z), float(rmse_t)
    return complex(rmse_z), complex(rmse_t)


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
