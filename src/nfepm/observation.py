"""Element voltages: noise-free synthesis, the complex Gaussian noise
model, and the dB-to-noise-variance conversion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import AxialPose, axis_channel
from .errors import InvariantViolation, NonFinite, ValidityViolation
from .geometry import ArrayGeometry, Wave
from .numerics import stream


@dataclass(frozen=True)
class NoiseSpec:
    """Per-element complex noise variance (volt^2) and RNG seed."""
    sigma2: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma2 < 0:
            raise InvariantViolation(f"sigma2 must be >= 0, got {self.sigma2}")
        if not math.isfinite(self.sigma2):
            raise ValidityViolation(f"sigma2 must be finite, got {self.sigma2}")


@dataclass(frozen=True)
class Voltages:
    values: np.ndarray
    geom: ArrayGeometry

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.geom.n_elements,):
            raise InvariantViolation(
                f"expected {self.geom.n_elements} voltages, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise NonFinite("voltage vector contains non-finite entries")
        object.__setattr__(self, "values", vals)


def element_voltages(z, t, geom: ArrayGeometry, wave: Wave):
    """Voltages v = amplitude * pitch * channel(y) at the element centers y,
    under the constant-field-over-element rule; broadcasts over poses z, t
    (a (k, 1) column gives k rows). No pose validation."""
    return axis_channel(z, t, geom.element_centers, wave,
                        scale=wave.amplitude * geom.pitch)


def noiseless_voltages(pose: AxialPose, geom: ArrayGeometry, wave: Wave) -> Voltages:
    """The voltage vector of one validated pose."""
    return Voltages(element_voltages(pose.distance, pose.tilt, geom, wave), geom)


def unit_noise(seed: int, trial: int, n: int) -> np.ndarray:
    """The n complex noise draws of one trial before scaling: d_re + j d_im,
    standard normal, from the substream (seed, trial), real parts drawn
    before imaginary parts."""
    draws = stream(seed, trial).standard_normal((2, n))
    return draws[0] + 1j * draws[1]


def add_noise(values, unit, sigma2: float) -> np.ndarray:
    """values plus unit noise scaled to total variance sigma2 per element
    (sigma2/2 in each quadrature); broadcasts. Raises NonFinite when a
    noisy value is not finite."""
    noisy = values + math.sqrt(sigma2 / 2.0) * unit
    if not np.all(np.isfinite(noisy)):
        raise NonFinite("noisy voltages contain non-finite entries")
    return noisy


def observe(v: Voltages, noise: NoiseSpec, trial: int = 0) -> Voltages:
    """Add circularly-symmetric complex Gaussian noise, total variance
    sigma2 per element (sigma2/2 in each quadrature).

    Deterministic: the draw depends only on (noise.seed, trial), see
    `unit_noise`.
    """
    if noise.sigma2 == 0:
        return v
    unit = unit_noise(noise.seed, trial, v.geom.n_elements)
    return Voltages(values=add_noise(v.values, unit, noise.sigma2), geom=v.geom)


def snr_from_db(db: float) -> float:
    """Linear SNR of a level in decibels. Raises ValidityViolation unless
    the ratio is a finite float > 0."""
    try:
        ratio = 10.0 ** (db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValidityViolation(f"SNR of {db} dB is not a finite positive ratio")
    return ratio


def sigma2_for_snr_db(wave: Wave, db: float) -> float:
    """Noise variance that realizes the requested SNR at this drive level;
    ValidityViolation where it overflows (a strong drive at a low SNR)."""
    sigma2 = wave.amplitude ** 2 / snr_from_db(db)
    if not math.isfinite(sigma2):
        raise ValidityViolation(f"noise variance at {db} dB is not finite")
    return sigma2
