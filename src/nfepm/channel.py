"""Electric-field and channel evaluations for a short dipole source above
a strip array.

All channels are returned with the drive amplitude factored out; the
observation layer reattaches it. Functions broadcast over numpy array
inputs and return scalars for scalar inputs.

The scalar channel e^{jkr} sqrt(z) |n x d| / r^2.5 is coded once, behind
general_channel and nf_channel; axis_channel is its signed on-axis
(x_r = 0) hot-path form, which every element voltage uses. Its
tilt-free factor e^{jkr} sqrt(z) / r^2.5 is coded once too, in a helper
that the scalar channel multiplies by |n x d| and axis_factor hands to
axis_channel, which multiplies it by the attitude term. Poses,
observation points and ranges that are not finite raise
ValidityViolation. Two hot paths read the factor without the attitude
term: solver.rmse_grids forms it once per probe element and chunk of
distance rows, for every solver it scores in that pass, and the MAP
search forms it per grid distance and element for its coarse scores and
per patch distance and element for its refinement patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (CoincidentPoints, DivisionByZero, InvariantViolation,
                     NonPositiveDistance, ValidityViolation)
from .geometry import Wave

FREE_SPACE_IMPEDANCE = 376.73

DEGENERATE_KINDS = ("afem", "nusw", "usw")
RERR_KINDS = ("nfem",) + DEGENERATE_KINDS


@dataclass(frozen=True)
class AxialPose:
    """Source on the Z axis at height `distance`, dipole orientation
    confined to the YZ plane with Z component `tilt` in [0, 1)."""
    distance: float
    tilt: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.distance))
                and np.all(np.isfinite(self.tilt))):
            raise ValidityViolation("pose distance and tilt must be finite")
        if not np.all(np.asarray(self.distance) > 0):
            raise NonPositiveDistance("source distance must be > 0")
        t = np.asarray(self.tilt)
        if not (np.all(t >= 0) and np.all(t < 1)):
            raise InvariantViolation("tilt must lie in [0, 1)")

    @property
    def transverse(self):
        """Y component of the orientation unit vector."""
        return np.sqrt(1.0 - np.asarray(self.tilt) ** 2)


@dataclass(frozen=True)
class GeneralPose:
    position: tuple = field(default=(0.0, 0.0, 1.0))
    orientation: tuple = field(default=(0.0, 0.0, 1.0))

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        ori = np.asarray(self.orientation, dtype=float)
        if pos.shape != (3,) or ori.shape != (3,):
            raise InvariantViolation("position and orientation must be 3-vectors")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(ori))):
            raise ValidityViolation("position and orientation must be finite")
        if pos[2] <= 0:
            raise NonPositiveDistance("source must sit strictly above the array plane")
        if abs(ori @ ori - 1.0) > 1e-12:
            raise InvariantViolation("orientation must be a unit vector (|n|-1 <= 1e-12)")
        object.__setattr__(self, "position", tuple(pos))
        object.__setattr__(self, "orientation", tuple(ori))


def _ret(a):
    return np.asarray(a)[()]


def _offsets(position, x_r, y_r):
    """(dx, dy, z, r) from a source at position (x_t, y_t, z) to points
    (x_r, y_r, 0)."""
    x_r = np.asarray(x_r, dtype=float)
    y_r = np.asarray(y_r, dtype=float)
    if not (np.all(np.isfinite(x_r)) and np.all(np.isfinite(y_r))):
        raise ValidityViolation("observation point must be finite")
    x_t, y_t, z = position
    z = np.asarray(z, dtype=float)
    dx = x_r - x_t
    dy = y_r - y_t
    rr = np.sqrt(dx * dx + dy * dy + z * z)
    if np.any(rr == 0):
        raise CoincidentPoints("observation point coincides with the source")
    return dx, dy, z, rr


def _tilt_free(rr, z, wave: Wave, scale=1.0):
    """scale * e^{jkr} / r^2.5 * sqrt(z) at range rr and source height z,
    the factors applied in the order written."""
    return scale * np.exp(1j * wave.wavenumber * rr) / rr ** 2.5 * np.sqrt(z)


def _scalar_channel(position, n, x_r, y_r, wave: Wave):
    """e^{jkr} sqrt(z) |n x d| / r^2.5 for a source at position (x_t, y_t, z)
    with unit orientation n, d pointing from it to (x_r, y_r, 0);
    broadcasts."""
    t_x, t_y, t_z = n
    dx, dy, z, rr = _offsets(position, x_r, y_r)
    amp = np.sqrt((t_y * dx - t_x * dy) ** 2
                  + (t_z * dx + t_x * z) ** 2
                  + (t_z * dy + t_y * z) ** 2)
    return _ret(_tilt_free(rr, z, wave) * amp)


def _range(r):
    """r as a float array, checked finite and > 0."""
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValidityViolation("range must be finite")
    if np.any(r <= 0):
        raise NonPositiveDistance("range must be > 0")
    return r


def scalar_green(r, wave: Wave):
    """Spherical-wave field coefficient at range r."""
    r = _range(r)
    k = wave.wavenumber
    return _ret(1j * FREE_SPACE_IMPEDANCE / (2.0 * wave.wavelength * r)
                * np.exp(1j * k * r))


def vector_field(pose: GeneralPose, x_r, y_r, wave: Wave):
    """Complex field 3-vector at plane points (x_r, y_r, 0), drive-normalized.

    Shape: broadcast(x_r, y_r) + (3,).
    """
    t_x, t_y, t_z = pose.orientation
    dx, dy, z_t, rr = _offsets(pose.position, x_r, y_r)
    phase = np.exp(1j * wave.wavenumber * rr) / rr ** 3
    ex = ((dy * dy + z_t * z_t) * t_x - dx * dy * t_y + dx * z_t * t_z)
    ey = (-dx * dy * t_x + (dx * dx + z_t * z_t) * t_y + dy * z_t * t_z)
    ez = (dx * z_t * t_x + dy * z_t * t_y + (dx * dx + dy * dy) * t_z)
    return 1j * np.stack([ex, ey, ez], axis=-1) * phase[..., None]


def general_channel(pose: GeneralPose, x_r, y_r, wave: Wave):
    """Scalar channel for an arbitrarily placed and oriented source."""
    return _scalar_channel(pose.position, pose.orientation, x_r, y_r, wave)


def nf_channel(pose: AxialPose, x_r, y_r, wave: Wave):
    """Scalar near-field channel for the on-axis source: general_channel at
    position (0, 0, distance), orientation (0, transverse, tilt), for array
    poses too."""
    return _scalar_channel((0.0, 0.0, pose.distance),
                           (0.0, pose.transverse, pose.tilt), x_r, y_r, wave)


def axis_factor(z, y, wave: Wave, scale=1.0):
    """The tilt-free factor of the on-axis kernel: scale * e^{jkr} / r^2.5
    * sqrt(z) with r = sqrt(y^2 + z^2), broadcasting over z and y.

    The factors are applied in the order written; the phase k r is formed
    in full, so its float64 rounding grows with the range. No pose
    validation: callers pass distances > 0.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    return _tilt_free(np.sqrt(y * y + z * z), z, wave, scale)


def axis_channel(z, t, y, wave: Wave, scale=1.0):
    """On-axis channel kernel: axis_factor(z, y, wave, scale) * (y t + z t_y)
    with t_y = sqrt(1 - t^2), broadcasting over z, t and y.

    Every on-axis voltage is this kernel with scale = amplitude * pitch.
    The attitude term y t + z t_y is > 0 for tilts in [0, 1), so the
    voltage's phase is the factor's. No pose validation: callers pass
    distances > 0 and tilts in [0, 1).
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    ty = np.sqrt(1.0 - t * t)
    return axis_factor(z, y, wave, scale) * (y * t + z * ty)


def scaling_factor(r, wave: Wave):
    """Full-field over propagating-field amplitude ratio at range r; >= 1,
    approaching 1 as k*r grows."""
    kr = wave.wavenumber * _range(r)
    inv2 = 1.0 / (kr * kr)
    return _ret(np.sqrt(1.0 + 3.0 * inv2 + 9.0 * inv2 * inv2))


def simp_channel(pose: AxialPose, x_r, y_r, wave: Wave):
    """Channel with the reactive-term amplitude correction applied, the
    reference model for accuracy comparisons."""
    rr = _offsets((0.0, 0.0, pose.distance), x_r, y_r)[3]
    return _ret(scaling_factor(rr, wave) * nf_channel(pose, x_r, y_r, wave))


def degenerate_channel(kind: str, pose: AxialPose, x_r, y_r, wave: Wave):
    """Reduced channel models.

    afem: nf_channel at tilt 0 (geometry kept, attitude term dropped).
    nusw: spherical wave with 1/r amplitude.
    usw:  plane-wave-style amplitude pinned at the source height.
    """
    kind = kind.lower()
    if kind not in DEGENERATE_KINDS:
        raise InvariantViolation(f"unknown degenerate channel kind {kind!r}")
    if kind == "afem":
        return nf_channel(AxialPose(pose.distance, 0.0), x_r, y_r, wave)
    _, _, z, rr = _offsets((0.0, 0.0, pose.distance), x_r, y_r)
    ph = np.exp(1j * wave.wavenumber * rr)
    if kind == "nusw":
        return _ret(ph / rr)
    return _ret(ph / z)


def rerr(kind: str, pose: AxialPose, x_r, y_r, wave: Wave):
    """Relative amplitude error of a candidate channel against the
    corrected reference at the same point."""
    kind = kind.lower()
    if kind not in RERR_KINDS:
        raise InvariantViolation(f"unknown channel kind {kind!r}")
    ref = np.asarray(simp_channel(pose, x_r, y_r, wave))
    if np.any(ref == 0):
        raise DivisionByZero("reference channel vanishes at a requested point")
    if kind == "nfem":
        cand = nf_channel(pose, x_r, y_r, wave)
    else:
        cand = degenerate_channel(kind, pose, x_r, y_r, wave)
    return _ret(np.abs(ref - cand) / np.abs(ref))
