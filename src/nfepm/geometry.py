"""Strip-array geometry, characteristic distances, and solver-region
classification.

The receiving array occupies a strip of length `aperture` along +Y and
width `pitch` along X, split into square elements of side `pitch`; element
n (1-based) is centered at y = (n - 1/2) * pitch. An infinite aperture is
accepted for bound asymptotics, in which case the element grid is
undefined and its accessors raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (IndexOutOfRange, InvariantViolation, NonPositiveDistance,
                     ValidityViolation)


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidityViolation(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ArrayGeometry:
    aperture: float
    pitch: float

    def __post_init__(self):
        if self.pitch <= 0:
            raise NonPositiveDistance(f"pitch must be > 0, got {self.pitch}")
        if self.aperture <= 0:
            raise NonPositiveDistance(f"aperture must be > 0, got {self.aperture}")
        _require_finite(pitch=self.pitch)
        if math.isnan(self.aperture):  # +inf is the asymptotic case
            raise ValidityViolation("aperture must not be NaN")
        if not math.isinf(self.aperture) and self.pitch > self.aperture:
            raise InvariantViolation(
                f"pitch {self.pitch} exceeds aperture {self.aperture}")

    @property
    def n_elements(self) -> int:
        if math.isinf(self.aperture):
            raise ValidityViolation("infinite aperture has no element grid")
        return int(math.floor(self.aperture / self.pitch))

    def element_center(self, n: int) -> float:
        """Center of element n, 1-based."""
        if not 1 <= n <= self.n_elements:
            raise IndexOutOfRange(f"element {n} outside 1..{self.n_elements}")
        return (n - 0.5) * self.pitch

    @property
    def element_centers(self) -> np.ndarray:
        return (np.arange(1, self.n_elements + 1) - 0.5) * self.pitch


@dataclass(frozen=True)
class Wave:
    """Operating wavelength and source drive level (volts)."""
    wavelength: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise NonPositiveDistance(f"wavelength must be > 0, got {self.wavelength}")
        if self.amplitude <= 0:
            raise InvariantViolation(f"amplitude must be > 0, got {self.amplitude}")
        _require_finite(wavelength=self.wavelength, amplitude=self.amplitude)

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class UniformPrior:
    """Uniform source prior: distance on [z_min, z_max], tilt on [0, 1)."""
    z_min: float
    z_max: float

    def __post_init__(self):
        if self.z_min <= 0:
            raise NonPositiveDistance(f"z_min must be > 0, got {self.z_min}")
        if self.z_max <= self.z_min:
            raise InvariantViolation(
                f"prior requires z_min < z_max, got [{self.z_min}, {self.z_max}]")
        _require_finite(z_min=self.z_min, z_max=self.z_max)

    @property
    def span(self) -> float:
        return self.z_max - self.z_min


class Region(Enum):
    CASE1 = "case1"
    CASE2_PA = "case2_pa"
    CASE2_SC = "case2_sc"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class RegionClass:
    kind: Region
    reason: str = ""

    @property
    def is_supported(self) -> bool:
        return self.kind is not Region.UNSUPPORTED


def fraunhofer_distance(geom: ArrayGeometry, wave: Wave) -> float:
    """Far-field boundary 2*D^2/lambda with D taken as the aperture."""
    return 2.0 * geom.aperture ** 2 / wave.wavelength


def fresnel_distance(geom: ArrayGeometry, wave: Wave) -> float:
    return 0.5 * math.sqrt(geom.aperture ** 3 / wave.wavelength)


def phase_ambiguity_distance(geom: ArrayGeometry, wave: Wave) -> float:
    """Quarter Fraunhofer distance; beyond it the phase integer periods of
    any two elements differ by at most one. Requires aperture >= 4.8
    wavelengths, the validity condition of the underlying expansion."""
    if geom.aperture < 4.8 * wave.wavelength:
        raise ValidityViolation(
            f"aperture {geom.aperture} below 4.8 wavelengths "
            f"({4.8 * wave.wavelength}); phase-ambiguity distance undefined")
    return geom.aperture ** 2 / (2.0 * wave.wavelength)


def spacing_constraint_distance(geom: ArrayGeometry, wave: Wave) -> float:
    """Distance beyond which adjacent elements 1 and 2 share the
    single-period phase property."""
    return max(geom.pitch ** 2 / wave.wavelength, 3.6 * geom.pitch)


def classify_region(prior: UniformPrior, geom: ArrayGeometry, wave: Wave,
                    alpha_idx: int = 1, beta_idx: int | None = None) -> RegionClass:
    """Pick the closed-form solver regime covering the whole prior box.

    The reactive test uses the far end of the prior (worst case for the
    probe elements alpha and beta); the phase-regime split is taken at the
    near end, which is conservative since both solver regimes extend
    outward. Priors not covered by a single regime come back Unsupported
    with a reason instead of a guess.
    """
    n = geom.n_elements
    if beta_idx is None:
        beta_idx = max(alpha_idx + 1, n // 2)
    if not (1 <= alpha_idx < beta_idx <= n):
        raise IndexOutOfRange(
            f"need 1 <= alpha < beta <= {n}, got ({alpha_idx}, {beta_idx})")

    lam = wave.wavelength
    reach = [math.hypot(prior.z_max, geom.element_center(k))
             for k in (alpha_idx, beta_idx)]
    if all(r < lam for r in reach):
        return RegionClass(Region.CASE1)
    if any(r < lam for r in reach):
        return RegionClass(
            Region.UNSUPPORTED,
            "prior box straddles the wavelength boundary between regimes")

    try:
        d_pa = phase_ambiguity_distance(geom, wave)
    except ValidityViolation:
        d_pa = None
    # boundary comparisons carry a relative slack so priors placed exactly
    # on a characteristic distance are not tipped over by rounding
    slack = 1.0 - 1e-12
    if d_pa is not None and prior.z_min >= d_pa * slack:
        return RegionClass(Region.CASE2_PA)
    if prior.z_min >= spacing_constraint_distance(geom, wave) * slack:
        return RegionClass(Region.CASE2_SC)
    return RegionClass(
        Region.UNSUPPORTED,
        f"z_min {prior.z_min} below the spacing-constraint distance "
        f"{spacing_constraint_distance(geom, wave)}")
