"""Electric-field and channel evaluations for a short dipole source above
a strip array.

All channels are returned with the drive amplitude factored out; the
observation layer reattaches it. Functions broadcast over numpy array
inputs and return scalars for scalar inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (CoincidentPoints, DivisionByZero, InvariantViolation,
                     NonPositiveDistance)
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
        if not np.all(np.asarray(self.distance) > 0):
            raise NonPositiveDistance("source distance must be > 0")
        t = np.asarray(self.tilt)
        if not (np.all(t >= 0) and np.all(t < 1)):
            raise InvariantViolation("tilt must lie in [0, 1)")

    @property
    def transverse(self):
        """Y component of the orientation unit vector."""
        return np.sqrt(1.0 - np.asarray(self.tilt) ** 2)

    def as_general(self) -> "GeneralPose":
        return GeneralPose(position=(0.0, 0.0, float(self.distance)),
                           orientation=(0.0, float(self.transverse), float(self.tilt)))


@dataclass(frozen=True)
class GeneralPose:
    position: tuple = field(default=(0.0, 0.0, 1.0))
    orientation: tuple = field(default=(0.0, 0.0, 1.0))

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        ori = np.asarray(self.orientation, dtype=float)
        if pos.shape != (3,) or ori.shape != (3,):
            raise InvariantViolation("position and orientation must be 3-vectors")
        if pos[2] <= 0:
            raise NonPositiveDistance("source must sit strictly above the array plane")
        if abs(ori @ ori - 1.0) > 1e-12:
            raise InvariantViolation("orientation must be a unit vector (|n|-1 <= 1e-12)")
        object.__setattr__(self, "position", tuple(pos))
        object.__setattr__(self, "orientation", tuple(ori))


def _ret(a):
    return np.asarray(a)[()]


def scalar_green(r, wave: Wave, eta: float = FREE_SPACE_IMPEDANCE):
    """Spherical-wave field coefficient at range r."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise NonPositiveDistance("range must be > 0")
    k = wave.wavenumber
    return _ret(1j * eta / (2.0 * wave.wavelength * r) * np.exp(1j * k * r))


def vector_field(pose: GeneralPose, x_r, y_r, wave: Wave):
    """Complex field 3-vector at plane points (x_r, y_r, 0), drive-normalized.

    Shape: broadcast(x_r, y_r) + (3,).
    """
    x_t, y_t, z_t = pose.position
    t_x, t_y, t_z = pose.orientation
    dx = np.asarray(x_r, dtype=float) - x_t
    dy = np.asarray(y_r, dtype=float) - y_t
    dx, dy = np.broadcast_arrays(dx, dy)
    rr = np.sqrt(dx * dx + dy * dy + z_t * z_t)
    if np.any(rr == 0):
        raise CoincidentPoints("observation point coincides with the source")
    phase = np.exp(1j * wave.wavenumber * rr) / rr ** 3
    ex = ((dy * dy + z_t * z_t) * t_x - dx * dy * t_y + dx * z_t * t_z)
    ey = (-dx * dy * t_x + (dx * dx + z_t * z_t) * t_y + dy * z_t * t_z)
    ez = (dx * z_t * t_x + dy * z_t * t_y + (dx * dx + dy * dy) * t_z)
    return 1j * np.stack([ex, ey, ez], axis=-1) * phase[..., None]


def nf_channel(pose: AxialPose, x_r, y_r, wave: Wave):
    """Scalar near-field channel for the on-axis source."""
    z = np.asarray(pose.distance, dtype=float)
    t = np.asarray(pose.tilt, dtype=float)
    ty = np.sqrt(1.0 - t * t)
    x = np.asarray(x_r, dtype=float)
    y = np.asarray(y_r, dtype=float)
    rr = np.sqrt(x * x + y * y + z * z)
    if np.any(rr == 0):
        raise CoincidentPoints("zero range")
    amp = np.sqrt(z * x * x + z * (y * t + z * ty) ** 2)
    return _ret(np.exp(1j * wave.wavenumber * rr) / rr ** 2.5 * amp)


def axis_channel(z, t, y, wave: Wave, scale=1.0):
    """On-axis channel kernel: scale * e^{jkr} / r^2.5 * sqrt(z) * (y t + z t_y)
    with r = sqrt(y^2 + z^2), broadcasting over z, t and y.

    Every on-axis voltage is this kernel with scale = amplitude * pitch.
    The factors are applied in the order written; the phase k r is formed
    in full, so its float64 rounding grows with the range. No pose
    validation: callers pass distances > 0 and tilts in [0, 1).
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    ty = np.sqrt(1.0 - t * t)
    rr = np.sqrt(y * y + z * z)
    return (scale * np.exp(1j * wave.wavenumber * rr) / rr ** 2.5
            * np.sqrt(z) * (y * t + z * ty))


def nf_channel_axis(pose: AxialPose, y_r, wave: Wave):
    """nf_channel restricted to the array center line x_r = 0.

    The amplitude factor is kept signed, not wrapped in an absolute value.
    """
    return _ret(axis_channel(pose.distance, pose.tilt, y_r, wave))


def general_channel(pose: GeneralPose, x_r, y_r, wave: Wave):
    """Scalar channel for an arbitrarily placed and oriented source."""
    x_t, y_t, z = pose.position
    t_x, t_y, t_z = pose.orientation
    dx = np.asarray(x_r, dtype=float) - x_t
    dy = np.asarray(y_r, dtype=float) - y_t
    rr = np.sqrt(dx * dx + dy * dy + z * z)
    if np.any(rr == 0):
        raise CoincidentPoints("zero range")
    amp = np.sqrt((t_y * dx - t_x * dy) ** 2
                  + (t_z * dx + t_x * z) ** 2
                  + (t_z * dy + t_y * z) ** 2)
    return _ret(np.exp(1j * wave.wavenumber * rr) / rr ** 2.5 * np.sqrt(z) * amp)


def scaling_factor(r, wave: Wave):
    """Full-field over propagating-field amplitude ratio at range r; >= 1,
    approaching 1 as k*r grows."""
    kr = wave.wavenumber * np.asarray(r, dtype=float)
    if np.any(kr <= 0):
        raise NonPositiveDistance("range must be > 0")
    inv2 = 1.0 / (kr * kr)
    return _ret(np.sqrt(1.0 + 3.0 * inv2 + 9.0 * inv2 * inv2))


def simp_channel(pose: AxialPose, x_r, y_r, wave: Wave):
    """Channel with the reactive-term amplitude correction applied, the
    reference model for accuracy comparisons."""
    z = np.asarray(pose.distance, dtype=float)
    x = np.asarray(x_r, dtype=float)
    y = np.asarray(y_r, dtype=float)
    rr = np.sqrt(x * x + y * y + z * z)
    return _ret(scaling_factor(rr, wave) * nf_channel(pose, x_r, y_r, wave))


def degenerate_channel(kind: str, pose: AxialPose, x_r, y_r, wave: Wave):
    """Reduced channel models.

    afem: amplitude keeps the geometry but drops the attitude term.
    nusw: spherical wave with 1/r amplitude.
    usw:  plane-wave-style amplitude pinned at the source height.
    """
    kind = kind.lower()
    if kind not in DEGENERATE_KINDS:
        raise InvariantViolation(f"unknown degenerate channel kind {kind!r}")
    z = np.asarray(pose.distance, dtype=float)
    x = np.asarray(x_r, dtype=float)
    y = np.asarray(y_r, dtype=float)
    rr = np.sqrt(x * x + y * y + z * z)
    if np.any(rr == 0):
        raise CoincidentPoints("zero range")
    ph = np.exp(1j * wave.wavenumber * rr)
    if kind == "afem":
        return _ret(np.sqrt(z) * np.sqrt(x * x + z * z) / rr ** 2.5 * ph)
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
