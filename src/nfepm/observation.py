"""Element voltages: noise-free synthesis, the complex Gaussian noise
model, and SNR bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import AxialPose, axis_channel
from .errors import InvariantViolation, NonFinite, ZeroNoise
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


def noiseless_voltages(pose: AxialPose, geom: ArrayGeometry, wave: Wave) -> Voltages:
    """Per-element voltages under the constant-field-over-element rule:
    v_n = amplitude * pitch * channel(center_n)."""
    vals = axis_channel(pose.distance, pose.tilt, geom.element_centers, wave,
                        scale=wave.amplitude * geom.pitch)
    return Voltages(values=np.asarray(vals, dtype=complex), geom=geom)


def observe(v: Voltages, noise: NoiseSpec, trial: int = 0) -> Voltages:
    """Add circularly-symmetric complex Gaussian noise, total variance
    sigma2 per element (sigma2/2 in each quadrature).

    Deterministic: the draw depends only on (noise.seed, trial). Real
    parts are drawn before imaginary parts.
    """
    if noise.sigma2 == 0:
        return v
    n = v.geom.n_elements
    draws = stream(noise.seed, trial).standard_normal((2, n))
    w = math.sqrt(noise.sigma2 / 2.0) * (draws[0] + 1j * draws[1])
    return Voltages(values=v.values + w, geom=v.geom)


def snr(wave: Wave, noise: NoiseSpec) -> float:
    """Drive-power to noise-power ratio."""
    if noise.sigma2 <= 0:
        raise ZeroNoise("snr undefined for sigma2 <= 0")
    return wave.amplitude ** 2 / noise.sigma2


def snr_db(wave: Wave, noise: NoiseSpec) -> float:
    return 10.0 * math.log10(snr(wave, noise))


def sigma2_for_snr_db(wave: Wave, db: float) -> float:
    """Noise variance that realizes the requested SNR at this drive level."""
    return wave.amplitude ** 2 / (10.0 ** (db / 10.0))
