"""Fisher information and expected Cramer-Rao bounds for the on-axis
channel.

The FIM entries are integrals along the array of products of channel
derivatives, computed here only in closed form: twelve coefficient
functions of the aspect ratio tau = aperture/distance. They are the most
transcription-sensitive code in the package, so the tests check each one,
and the assembled information, against adaptive quadrature of the
defining integrals. The expected bounds average the information on the
prior's midpoint grid, whose distance and tilt axes arrive apart
(`expect_uniform`), so each coefficient runs once per grid distance.
The tilt coefficients ftau7-ftau9 also give the ZZB's tilt-only
statistic (`zzb._ao_form`), so the attitude's bounds share one form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import AxialPose
from .errors import AttitudeSingularity, InvariantViolation, SingularFIM
from .geometry import ArrayGeometry, UniformPrior, Wave
from .numerics import (EXPECT_GRID, expect_uniform, require_finite,
                       require_snr, snr_sweep)

_TY_SQ_MIN = 1e-12
_TAU_LIMIT = 1e9


def _limited(tau, formula, limit: float):
    """Evaluate a tau coefficient, switching to its tau->inf limit where the
    polynomial ratios would lose meaning (or overflow)."""
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0):
        raise InvariantViolation("tau must be >= 0")
    big = (t > _TAU_LIMIT) | np.isinf(t)
    safe = np.where(big, 1.0, t)
    return np.where(big, limit, formula(safe))[()]


def ftau1(tau):
    return _limited(tau, lambda t: (
        (2 * t ** 8 + 8 * t ** 6 + 12 * t ** 4 + 8 * t ** 2 + 2)
        / (7 * (t * t + 1) ** 4)
        - (7 * t ** 4 - 14 * t * t + 4) / (14 * (t * t + 1) ** 3.5)), 2 / 7)


def ftau2(tau):
    return _limited(tau, lambda t: (
        (19 * t ** 7 + 56 * t ** 5 + 112 * t ** 3)
        / (84 * (t * t + 1) ** 3.5)), 19 / 84)


def ftau3(tau):
    return _limited(tau, lambda t: (
        (10 * t ** 7 + 35 * t ** 5 + 28 * t ** 3 + 28 * t)
        / (28 * (t * t + 1) ** 3.5)), 5 / 14)


def ftau4(tau):
    return _limited(tau, lambda t: 0.4 - 0.4 / (t * t + 1) ** 2.5, 2 / 5)


def ftau5(tau):
    return _limited(tau, lambda t: (
        t ** 3 * (2 * t * t + 5) / (15 * (t * t + 1) ** 2.5)), 2 / 15)


def ftau6(tau):
    return _limited(tau, lambda t: (
        (8 * t ** 5 + 20 * t ** 3 + 15 * t) / (15 * (t * t + 1) ** 2.5)), 8 / 15)


def ftau7(tau):
    return _limited(tau, lambda t: (t ** 3 + 3 * t) / (3 * (t * t + 1) ** 1.5), 1 / 3)


def ftau8(tau):
    return _limited(tau, lambda t: 2 / (3 * (t * t + 1) ** 1.5) - 2 / 3, -2 / 3)


def ftau9(tau):
    return _limited(tau, lambda t: t ** 3 / (3 * (t * t + 1) ** 1.5), 1 / 3)


def ftau10(tau):
    return _limited(tau, lambda t: (
        (t * t - 2) / (6 * (t * t + 1) ** 2.5)
        + (t ** 4 + 2 * t * t + 1) / (3 * (t * t + 1) ** 2)), 1 / 3)


def ftau11(tau):
    return _limited(tau, lambda t: (
        (t ** 5 + t ** 3 + 6 * t) / (6 * (t * t + 1) ** 2.5)), 1 / 6)


def ftau12(tau):
    return _limited(tau, lambda t: -t * t / (2 * (t * t + 1) ** 2.5), 0.0)


@dataclass(frozen=True)
class FisherInfo:
    """Integral factors plus the assembled 2x2 information entries."""
    i_zz1: float
    i_zz2: float
    i_tt: float
    i_zt: float
    f_zz: float
    f_tt: float
    f_zt: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.f_zz, self.f_zt], [self.f_zt, self.f_tt]])

    @property
    def det(self) -> float:
        return self.f_zz * self.f_tt - self.f_zt ** 2


def _assemble(i_zz1, i_zz2, i_tt, i_zt, snr, geom, wave) -> FisherInfo:
    scale = 2.0 * snr * geom.pitch
    k = wave.wavenumber
    return FisherInfo(float(i_zz1), float(i_zz2), float(i_tt), float(i_zt),
                      f_zz=scale * float(i_zz1 + k * k * i_zz2),
                      f_tt=scale * float(i_tt),
                      f_zt=scale * float(i_zt))


def _axes(z, t_z, geom: ArrayGeometry):
    """Checked z and t_z, and t_y^2, t_y and tau = aperture / z."""
    z = np.asarray(z, dtype=float)
    tz = np.asarray(t_z, dtype=float)
    if np.any(z <= 0):
        raise InvariantViolation("distance must be > 0")
    ty_sq = 1.0 - tz * tz
    if np.any(ty_sq < _TY_SQ_MIN):
        raise AttitudeSingularity("t_z too close to 1 for the tilt divisions")
    return z, tz, ty_sq, np.sqrt(ty_sq), geom.aperture / z


def _i_tt(z, tz, ty_sq, ty, tau):
    """The tilt information integral per unit (2*SNR*pitch), from _axes."""
    return ((tz * tz / ty_sq) * ftau7(tau) + (tz / ty) * ftau8(tau)
            + ftau9(tau) / ty_sq) / z


def _factors(z, t_z, geom: ArrayGeometry):
    """The four information integrals per unit (2*SNR*pitch), vectorized."""
    z, tz, ty_sq, ty, tau = axes = _axes(z, t_z, geom)
    i_zz1 = (tz * ty * ftau1(tau) + tz * tz * ftau2(tau)
             + ty_sq * ftau3(tau)) / z ** 3
    i_zz2 = (tz * ty * ftau4(tau) + tz * tz * ftau5(tau)
             + ty_sq * ftau6(tau)) / z
    i_zt = ((tz * tz / ty) * ftau10(tau) + tz * ftau11(tau)
            + ty * ftau12(tau)) / z ** 2
    return i_zz1, i_zz2, _i_tt(*axes), i_zt


def fim_closed(pose: AxialPose, snr: float, geom: ArrayGeometry,
               wave: Wave) -> FisherInfo:
    """Fisher information from the tau closed forms."""
    require_snr(snr)
    return _assemble(*_factors(pose.distance, pose.tilt, geom),
                     snr, geom, wave)


def _over_sweep(snr, bounds):
    """bounds(s) at the SNRs s of `snr`, a scalar or a 1-D sweep of SNRs
    > 0, each bound shaped like `snr`; NonFinite names the first SNR where
    one leaves the float range (1 / snr overflows, 2 snr pitch underflows)."""
    snrs, shape = snr_sweep(snr)
    if not snrs.all():
        raise InvariantViolation("snr must be > 0, got 0.0")
    with np.errstate(divide="ignore", over="ignore"):
        values = bounds(snrs)
    require_finite("expected CRB", snrs, values)
    return tuple(map(shape, values))


def _expect_grid(grid) -> tuple:
    """`grid` as its two sizes (n_z, n_t); InvariantViolation unless it
    holds exactly two."""
    try:
        n_z, n_t = grid
    except (TypeError, ValueError):
        raise InvariantViolation(
            f"an expectation grid is two sizes (n_z, n_t), got {grid!r}") from None
    return n_z, n_t


def ecrb(prior: UniformPrior, snr, geom: ArrayGeometry, wave: Wave,
         grid=EXPECT_GRID):
    """Expected CRBs (distance m^2, tilt dimensionless^2) over the prior,
    averaged on an (n_z, n_t) midpoint grid.

    `snr` is a scalar (the bounds are floats) or a 1-D sweep (arrays); the
    grid means are computed once for the sweep. Raises SingularFIM at the
    first prior sample whose information matrix is singular, and NonFinite
    when a bound leaves the float range.
    """
    grid = _expect_grid(grid)
    k = wave.wavenumber

    def ratios(z, t):
        i_zz1, i_zz2, i_tt, i_zt = _factors(z, t, geom)
        i_zz = i_zz1 + k * k * i_zz2
        det = i_zz * i_tt - i_zt * i_zt
        if np.any(det <= 0):
            # z and t are the grid's (n_z, 1) and (1, n_t) axes
            at = tuple(np.argwhere(det <= 0)[0])
            z_at, t_at = (a[at] for a in np.broadcast_arrays(z, t))
            raise SingularFIM(
                f"information matrix singular at z_t={z_at!r}, t_z={t_at!r}")
        return np.stack((i_tt / det, i_zz / det))

    def bounds(s):
        mean_z, mean_t = expect_uniform(ratios, prior, *grid)
        pref = 1.0 / (2.0 * s * geom.pitch)
        return pref * mean_z, pref * mean_t

    return _over_sweep(snr, bounds)


def ecrb_asymptotic(prior: UniformPrior, snr, geom: ArrayGeometry,
                    wave: Wave, large_z: bool = False):
    """Infinite-aperture, zero-tilt limits of the expected CRBs, taking
    `snr` and raising NonFinite as ecrb does. With large_z the distance
    bound uses the further z_t >> lambda simplification."""
    mean_z = 0.5 * (prior.z_min + prior.z_max)
    lam, k = wave.wavelength, wave.wavenumber

    def bounds(s):
        pref = 1.0 / (2.0 * s * geom.pitch)
        if large_z:
            bound_z = 15.0 * lam * lam * mean_z / (
                64.0 * math.pi ** 2 * s * geom.pitch)
        else:
            bound_z = pref * expect_uniform(
                lambda z, t: 210.0 * z ** 3 / (112.0 * k * k * z * z + 75.0),
                prior)
        return bound_z, 3.0 * pref * mean_z

    return _over_sweep(snr, bounds)


def ecrb_ao(prior: UniformPrior, snr, geom: ArrayGeometry, grid=EXPECT_GRID):
    """Expected CRB on the tilt when the distance is known per sample,
    taking `snr` and raising NonFinite as ecrb does.

    Wavelength does not enter (the tilt information carries no phase
    term), so unlike ecrb it takes no wave. An infinite aperture uses the
    limiting coefficient values.
    """
    grid = _expect_grid(grid)

    def inv_itt(z, t):
        return 1.0 / _i_tt(*_axes(z, t, geom))

    return _over_sweep(snr, lambda s: (expect_uniform(inv_itt, prior, *grid)
                                       / (2.0 * s * geom.pitch),))[0]
