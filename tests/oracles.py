"""Reference implementations the tests check the library against.

The library computes mu from moment integrals (`zzb._families`) and the
Fisher information from the tau closed forms (`ecrb._factors`); these
integrate the defining expressions directly with adaptive quadrature.
The MAP search scores its coarse grid in a separable form
(`mapest._coarse_scores`); `coarse_model` is the dense model it replaces.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from nfepm.channel import AxialPose, axis_channel
from nfepm.ecrb import _TY_SQ_MIN, FisherInfo, _assemble
from nfepm.errors import AttitudeSingularity, InvariantViolation, QuadratureFailure
from nfepm.geometry import ArrayGeometry, Wave
from nfepm.numerics import q_function, require_snr
from nfepm.observation import element_voltages


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
    require_snr(snr)
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


def coarse_model(z, t, geom: ArrayGeometry, wave: Wave):
    """Voltages of the grid poses z x t, one row per pose, distance-major,
    broadcast over (distance, tilt, element)."""
    return element_voltages(z[:, None, None], t[None, :, None], geom,
                            wave).reshape(len(z) * len(t), geom.n_elements)
