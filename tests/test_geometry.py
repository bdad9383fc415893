"""Array geometry, characteristic distances, and region classification."""

import math

import numpy as np
import pytest

from nfepm.errors import (IndexOutOfRange, InvariantViolation,
                          NonPositiveDistance, UnsupportedRegion,
                          ValidityViolation)
from nfepm.geometry import (ArrayGeometry, Region, UniformPrior, Wave,
                            classify_region, phase_ambiguity_distance,
                            spacing_constraint_distance)
from scenarios import SOLVER_BENCHMARK, benchmark_setup


def test_element_grid():
    geom = ArrayGeometry(1.0, 0.05)
    assert geom.n_elements == 20
    assert geom.element_center(1) == pytest.approx(0.025)
    assert geom.element_center(20) == pytest.approx(0.975)
    assert np.allclose(geom.element_centers,
                       (np.arange(1, 21) - 0.5) * 0.05)


def test_element_count_floors():
    assert ArrayGeometry(1.0, 0.3).n_elements == 3
    # whole numbers of pitches whose float ratio falls just short
    assert 0.3 / 0.1 < 3.0 and 0.7 / 0.1 < 7.0
    assert ArrayGeometry(0.3, 0.1).n_elements == 3
    assert ArrayGeometry(0.7, 0.1).n_elements == 7


def test_element_index_bounds():
    geom = ArrayGeometry(1.0, 0.05)
    with pytest.raises(IndexOutOfRange):
        geom.element_center(0)
    with pytest.raises(IndexOutOfRange):
        geom.element_center(21)


def test_element_index_must_be_an_integer():
    # a fractional index named a point between two elements
    geom = ArrayGeometry(1.0, 0.05)
    for n in (1.5, 2.0, "2", None):
        with pytest.raises(InvariantViolation,
                           match="element indices must be integers"):
            geom.element_center(n)
    assert geom.element_center(np.int64(2)) == geom.element_center(2)


def test_geometry_validation():
    with pytest.raises(NonPositiveDistance):
        ArrayGeometry(0.0, 0.05)
    with pytest.raises(NonPositiveDistance):
        ArrayGeometry(1.0, 0.0)
    with pytest.raises(InvariantViolation):
        ArrayGeometry(0.5, 0.6)


def test_infinite_aperture_has_no_elements():
    geom = ArrayGeometry(float("inf"), 0.1)
    with pytest.raises(ValidityViolation):
        geom.n_elements


def test_wave():
    assert Wave(0.5).wavenumber == pytest.approx(4.0 * math.pi)
    with pytest.raises(NonPositiveDistance):
        Wave(0.0)
    with pytest.raises(InvariantViolation):
        Wave(1.0, amplitude=0.0)


def test_prior_validation():
    assert UniformPrior(1.0, 3.0).span == 2.0
    with pytest.raises(NonPositiveDistance):
        UniformPrior(0.0, 1.0)
    with pytest.raises(InvariantViolation):
        UniformPrior(2.0, 2.0)


def test_characteristic_distances():
    geom, wave = ArrayGeometry(1.0, 0.05), Wave(0.1)
    # D^2 / (2 lambda), a quarter of the Fraunhofer distance 2 D^2 / lambda = 20
    assert phase_ambiguity_distance(geom, wave) == pytest.approx(5.0)


def test_phase_ambiguity_needs_wide_aperture():
    with pytest.raises(ValidityViolation):
        phase_ambiguity_distance(ArrayGeometry(0.47, 0.05), Wave(0.1))
    # the boundary itself is admissible
    assert phase_ambiguity_distance(ArrayGeometry(0.48, 0.05), Wave(0.1)) > 0


def test_spacing_constraint_two_regimes():
    wave = Wave(0.1)
    # coarse pitch: quadratic term wins
    assert spacing_constraint_distance(ArrayGeometry(2.0, 0.5), wave) == \
        pytest.approx(0.5 ** 2 / 0.1)
    # fine pitch: linear floor wins
    assert spacing_constraint_distance(ArrayGeometry(2.0, 0.05), wave) == \
        pytest.approx(3.6 * 0.05)


def test_classify_benchmark_columns():
    # the second reactive column needs a probe pair drawn from the near end
    # of the strip; the default far probe sits beyond the wavelength there
    for i, column in enumerate(SOLVER_BENCHMARK):
        region, wave, geom, prior = benchmark_setup(column)
        beta = 2 if i == 1 else None
        got = classify_region(prior, geom, wave, beta_idx=beta)
        assert got is region, column


def test_classify_far_amplitude_probe_straddles():
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[1])
    with pytest.raises(UnsupportedRegion, match="straddles"):
        classify_region(prior, geom, wave)


def test_classify_straddling_prior_unsupported():
    # far prior end crosses the wavelength boundary for the beta element only
    geom, wave = ArrayGeometry(0.5, 0.05), Wave(1.0)
    with pytest.raises(UnsupportedRegion, match="straddles"):
        classify_region(UniformPrior(0.5, 0.999), geom, wave)


def test_classify_below_spacing_distance_unsupported():
    geom, wave = ArrayGeometry(1.0, 0.05), Wave(0.1)
    with pytest.raises(UnsupportedRegion, match="spacing"):
        classify_region(UniformPrior(0.05, 4.98), geom, wave)


def test_classify_region_is_total():
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(300):
        lam = 10.0 ** rng.uniform(-2, 0)
        geom = ArrayGeometry(10.0 ** rng.uniform(-0.5, 0.5),
                             10.0 ** rng.uniform(-2, -1))
        z_min = 10.0 ** rng.uniform(-2, 2)
        prior = UniformPrior(z_min, z_min * rng.uniform(1.5, 20.0))
        try:
            kind = classify_region(prior, geom, Wave(lam))
            assert isinstance(kind, Region)
        except UnsupportedRegion:
            kind = "unsupported"
        kinds.add(kind)
    assert len(kinds) >= 3


def test_classify_index_validation():
    geom, wave = ArrayGeometry(1.0, 0.05), Wave(0.1)
    prior = UniformPrior(5.0, 20.0)
    with pytest.raises(IndexOutOfRange):
        classify_region(prior, geom, wave, alpha_idx=0)
    with pytest.raises(IndexOutOfRange):
        classify_region(prior, geom, wave, alpha_idx=5, beta_idx=5)
    with pytest.raises(IndexOutOfRange):
        classify_region(prior, geom, wave, alpha_idx=1, beta_idx=21)
    # fractional indices gave a region
    for alpha, beta in ((1, 2.5), (1.5, None), (1.0, 10)):
        with pytest.raises(InvariantViolation,
                           match="element indices must be integers"):
            classify_region(prior, geom, wave, alpha, beta)
    assert (classify_region(prior, geom, wave, np.int64(1), np.int32(10))
            is classify_region(prior, geom, wave, 1, 10) is Region.CASE2_PA)
