"""Detection-theoretic MSE lower bounds: building blocks and limits."""

import importlib
import math
import warnings

import mpmath
import numpy as np
import pytest

from nfepm.channel import axis_channel
from nfepm.errors import InvariantViolation, QuadratureFailure
from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
from nfepm.numerics import MAX_CELLS, midpoints, q_function
from nfepm.observation import snr_from_db
from nfepm.zzb import (ZZBGrid, _amplitude_coefficients, _families, _mu,
                       _search_max, _tilt_basis, mu_L_ao, zzb_ao_t, zzb_t,
                       zzb_z)
from oracles import HypothesisPair, ambiguity_function, integrate, mu_L, p_min
from scenarios import THRESHOLD_GEOM, THRESHOLD_PRIOR, THRESHOLD_WAVE

zzb_module = importlib.import_module("nfepm.zzb")

COARSE = ZZBGrid(16, 8, 8, 4)


def test_hypothesis_pair_validation():
    HypothesisPair(1.0, 0.2, 0.1, 0.3)
    with pytest.raises(InvariantViolation):
        HypothesisPair(0.0, 0.2, 0.1, 0.3)
    with pytest.raises(InvariantViolation):
        HypothesisPair(1.0, 0.2, -0.1, 0.3)
    with pytest.raises(InvariantViolation):
        HypothesisPair(1.0, -0.2, 0.1, 0.3)
    with pytest.raises(InvariantViolation):
        HypothesisPair(1.0, 0.7, 0.0, 0.3)  # tilts reach 1


def test_grid_validation():
    with pytest.raises(InvariantViolation):
        ZZBGrid(n_delta=1)
    with pytest.raises(InvariantViolation):
        ZZBGrid(n_max_search=0)


_FAMILY_NODES = 8 * zzb_module._FAMILY_BLOCK
# Each edge of the ZZB cell cap: grid sizes whose named array holds at
# most MAX_CELLS cells, and the sizes one step past it.
CAP_EDGES = {
    "offset-nodes": (dict(n_delta=MAX_CELLS), dict(n_delta=MAX_CELLS + 1)),
    "search-coefficients": (
        dict(n_theta_z=2, n_theta_t=2, n_max_search=MAX_CELLS // 28),
        dict(n_theta_z=2, n_theta_t=2, n_max_search=MAX_CELLS // 28 + 1)),
    "search-tilt-basis": (
        dict(n_theta_z=2, n_theta_t=MAX_CELLS // 14, n_max_search=1),
        dict(n_theta_z=2, n_theta_t=MAX_CELLS // 14 + 1, n_max_search=1)),
    "detection-grid": (
        dict(n_theta_z=2048, n_theta_t=MAX_CELLS // 2048, n_max_search=1),
        dict(n_theta_z=2048, n_theta_t=MAX_CELLS // 2048 + 1, n_max_search=1)),
    "family-block": (
        dict(n_theta_z=MAX_CELLS // (7 * _FAMILY_NODES), n_theta_t=2),
        dict(n_theta_z=MAX_CELLS // (7 * _FAMILY_NODES) + 1, n_theta_t=2)),
}


@pytest.mark.parametrize("under, past", CAP_EDGES.values(), ids=CAP_EDGES)
def test_grid_cell_cap_edges(under, past):
    ZZBGrid(**under)
    with pytest.raises(InvariantViolation, match="array cells"):
        ZZBGrid(**past)


def test_ambiguity_equals_squared_channel_gap():
    wave = Wave(0.1)
    rng = np.random.default_rng(31)
    for _ in range(300):
        z0 = 10.0 ** rng.uniform(-1, 1.5)
        t0 = rng.uniform(0.0, 0.98)
        pair = HypothesisPair(z0, t0, rng.uniform(0.0, z0),
                              rng.uniform(0.0, 0.98 - t0))
        y = rng.uniform(0.0, 5.0, size=32)
        h0 = axis_channel(pair.theta_z, pair.theta_t, y, wave)
        h1 = axis_channel(pair.theta_z + pair.delta_z,
                          pair.theta_t + pair.delta_t, y, wave)
        gap = np.abs(h1 - h0) ** 2
        af = ambiguity_function(pair, y, wave)
        assert np.max(np.abs(af - gap)) < 1e-10


def test_ambiguity_degenerate_offsets():
    wave = Wave(0.5)
    y = np.linspace(0.0, 2.0, 9)
    zero = ambiguity_function(HypothesisPair(1.0, 0.3, 0.0, 0.0), y, wave)
    assert np.max(np.abs(zero)) == 0.0
    # same distance: pure amplitude gap, the phase factor cancels
    pair = HypothesisPair(1.0, 0.3, 0.0, 0.4)
    m0 = np.abs(axis_channel(1.0, 0.3, y, wave))
    m1 = np.abs(axis_channel(1.0, 0.7, y, wave))
    assert np.max(np.abs(ambiguity_function(pair, y, wave) - (m1 - m0) ** 2)) < 1e-12


def test_mu_trivial_values():
    geom = ArrayGeometry(2.0, 0.1)
    wave = Wave(0.2)
    pair = HypothesisPair(1.0, 0.1, 0.2, 0.3)
    assert mu_L(pair, 0.0, geom, wave) == 0.0
    assert mu_L(HypothesisPair(1.0, 0.1, 0.0, 0.0), 50.0, geom, wave) == 0.0
    with pytest.raises(InvariantViolation):
        mu_L(pair, -1.0, geom, wave)


def test_tilt_only_statistic_matches_quadrature():
    rng = np.random.default_rng(32)
    for _ in range(60):
        z = 10.0 ** rng.uniform(-0.5, 1.5)
        t0 = rng.uniform(0.0, 0.9)
        dt = rng.uniform(0.0, 1.0 - t0)
        snr = 10.0 ** rng.uniform(0, 4)
        aperture = z * 10.0 ** rng.uniform(-0.5, 1.0)
        geom = ArrayGeometry(aperture, aperture / 8.0)
        ft = math.sqrt(1.0 - t0 * t0) - math.sqrt(1.0 - (t0 + dt) ** 2)

        def integrand(y):
            return z * (y * dt - z * ft) ** 2 / np.hypot(y, z) ** 5

        oracle = snr * geom.pitch * integrate(integrand, 0.0, geom.aperture)
        val = mu_L_ao(z, t0, dt, snr, geom)
        assert val == pytest.approx(oracle, rel=1e-9, abs=1e-300)


def test_tilt_only_statistic_consistent_with_joint():
    geom = ArrayGeometry(4.0, 0.25)
    wave = Wave(0.3)
    for t0, dt in ((0.0, 0.5), (0.2, 0.1), (0.6, 0.39)):
        pair = HypothesisPair(2.5, t0, 0.0, dt)
        assert mu_L(pair, 200.0, geom, wave) == pytest.approx(
            mu_L_ao(2.5, t0, dt, 200.0, geom), rel=1e-8)


def test_tilt_only_statistic_infinite_aperture():
    pitch = 0.4
    big = ArrayGeometry(1e9 * 2.0, pitch)
    unbounded = ArrayGeometry(math.inf, pitch)
    lim = mu_L_ao(2.0, 0.3, 0.4, 100.0, unbounded)
    assert mu_L_ao(2.0, 0.3, 0.4, 100.0, big) == pytest.approx(lim, rel=1e-6)


def test_tilt_only_statistic_validation():
    geom = ArrayGeometry(2.0, 0.1)
    with pytest.raises(InvariantViolation):
        mu_L_ao(-1.0, 0.2, 0.1, 10.0, geom)
    with pytest.raises(InvariantViolation):
        mu_L_ao(1.0, 0.8, 0.3, 10.0, geom)


def test_detection_error_range():
    geom = ArrayGeometry(2.0, 0.1)
    wave = Wave(0.2)
    rng = np.random.default_rng(33)
    for _ in range(50):
        pair = HypothesisPair(rng.uniform(0.5, 5.0), rng.uniform(0.0, 0.5),
                              rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.4))
        p = p_min(pair, 10.0 ** rng.uniform(-2, 4), geom, wave)
        assert 0.0 <= p <= 0.5


def test_bounds_reach_prior_variance_at_zero_snr():
    # the prior variances: span^2 / 12 for the distance, 1 / 12 for the tilt
    var_z, var_t = THRESHOLD_PRIOR.span ** 2 / 12.0, 1.0 / 12.0
    bz = zzb_z(THRESHOLD_PRIOR, 0.0, THRESHOLD_GEOM, THRESHOLD_WAVE, COARSE)
    bt = zzb_t(THRESHOLD_PRIOR, 0.0, THRESHOLD_GEOM, THRESHOLD_WAVE, COARSE)
    assert bz == pytest.approx(var_z, rel=1e-9)
    assert bt == pytest.approx(var_t, rel=1e-9)


def test_bounds_monotone_and_capped():
    var_z, var_t = THRESHOLD_PRIOR.span ** 2 / 12.0, 1.0 / 12.0
    prev_z, prev_t = math.inf, math.inf
    for snr in (0.0, 1e2, 1e4, 1e6):
        bz = zzb_z(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE, COARSE)
        bt = zzb_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE, COARSE)
        assert bz <= var_z * (1.0 + 1e-6)
        assert bt <= var_t * (1.0 + 1e-6)
        assert bz <= prev_z * (1.0 + 1e-12)
        assert bt <= prev_t * (1.0 + 1e-12)
        prev_z, prev_t = bz, bt


def test_joint_tilt_bound_dominates_tilt_only():
    for snr in (1e2, 1e4):
        joint = zzb_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE,
                      COARSE)
        ao = zzb_ao_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, COARSE)
        # equality holds when the distance-offset search peaks at zero, up
        # to the roundoff gap between the quadrature and closed-form paths
        assert joint >= ao * (1.0 - 1e-12)


def test_snr_validation():
    with pytest.raises(InvariantViolation):
        zzb_z(THRESHOLD_PRIOR, -1.0, THRESHOLD_GEOM, THRESHOLD_WAVE, COARSE)
    with pytest.raises(InvariantViolation):
        zzb_t(THRESHOLD_PRIOR, -1.0, THRESHOLD_GEOM, THRESHOLD_WAVE, COARSE)
    with pytest.raises(InvariantViolation):
        zzb_ao_t(THRESHOLD_PRIOR, -1.0, THRESHOLD_GEOM, COARSE)


@pytest.mark.parametrize("snr", [math.nan, -5.0])
def test_scalar_statistics_reject_nan_and_negative_snr(snr):
    pair = HypothesisPair(4.0, 0.2, 0.1, 0.3)
    statistics = (
        lambda: mu_L(pair, snr, THRESHOLD_GEOM, THRESHOLD_WAVE),
        lambda: p_min(pair, snr, THRESHOLD_GEOM, THRESHOLD_WAVE),
        lambda: mu_L_ao(4.0, 0.2, 0.3, snr, THRESHOLD_GEOM),
    )
    for statistic in statistics:
        with pytest.raises(InvariantViolation, match="snr must be >= 0"):
            statistic()


def test_family_integrals_refinement_cap(monkeypatch):
    # The threshold rows at a wavelength whose phase cycles ask for more
    # panels than _MAX_FAMILY_PANELS: _families raises, and raises before
    # it evaluates any family.
    def no_eval(*args):
        raise AssertionError("family evaluated past the panel cap")

    monkeypatch.setattr(zzb_module, "_family_eval", no_eval)
    with pytest.raises(QuadratureFailure):
        _families(np.array([3.0, 4.0]), 0.5, THRESHOLD_GEOM, Wave(1e-6))


def test_family_panel_cap_checked_before_evaluation(monkeypatch):
    # Past the cap, _families raises before its one evaluation, which would
    # allocate arrays of 8 * n_panels nodes per hypothesis distance: at
    # 1e-7 m the phase cycles ask for millions of panels, and 1 mm from a
    # 5 m array the panel width rule asks for 30 000. At 2 mm the width
    # rule stays inside the cap and the evaluation runs.
    real_eval = zzb_module._family_eval
    counts = []

    def capped_eval(theta_z, delta_z, geom, k, n_panels):
        assert n_panels <= zzb_module._MAX_FAMILY_PANELS, n_panels
        counts.append(n_panels)
        return real_eval(theta_z, delta_z, geom, k, n_panels)

    monkeypatch.setattr(zzb_module, "_family_eval", capped_eval)
    for theta_z, delta_z, wave in ((np.array([3.0, 4.0]), 0.5, Wave(1e-7)),
                                   (np.array([1e-3, 2e-3]), 1e-3, Wave(0.01))):
        with pytest.raises(QuadratureFailure):
            _families(theta_z, delta_z, THRESHOLD_GEOM, wave)
    assert counts == []
    _families(np.array([2e-3, 3e-3]), 1e-3, THRESHOLD_GEOM, Wave(0.01))
    assert counts == [15000]


# Geometries (wavelength, aperture, z_min, z_max) of the panel rule tests.
# The fig4-fig9 presets: fig5 and fig9 sweep the aperture, fig6 the
# wavelength down to 1 mm; the pitch does not enter the families, and
# fig4's is the threshold config. The geometry_scan benchmark's 16 are
# among fig9's.
APERTURES = tuple(float(a) for a in range(2, 11))
GEOMETRY_SCAN = [(0.01, a, lo, hi)
                 for lo, hi in ((4.0, 5.0), (4.0, 7.0), (6.0, 7.0), (9.0, 10.0))
                 for a in (2.0, 4.0, 7.0, 10.0)]
PRESET_GEOMETRIES = sorted(
    {(0.1, 5.0, 3.0, 5.0), (0.1, 5.0, 3.0, 4.0)}
    | {(0.1, a, 4.0, 8.0) for a in APERTURES}
    | {(lam, 5.0, 5.0, 6.0) for lam in (0.1, 0.01, 0.001)}
    | {(0.01, a, lo, hi) for a in APERTURES
       for lo, hi in ((4.0, 5.0), (4.0, 7.0), (4.0, 10.0), (6.0, 7.0),
                      (9.0, 10.0))})
# near the array: priors 0.1 to 0.0004 apertures away, the last just
# inside the panel cap
NEAR_ARRAY = [(0.01, 5.0, lo, hi) for lo, hi in (
    (0.5, 2.0), (0.2, 1.0), (0.05, 0.25), (0.01, 0.05), (0.002, 0.01))]
# distance offsets, as fractions of the prior span
SPAN_FRACTIONS = (1e-9, 1e-6, 1e-3, 0.03, 0.1, 0.3, 0.6, 0.99)


def _family_lines(geometries, n_theta_z):
    """Per geometry and offset: the rows, the offset, the array and the
    wavenumber of one _families call, rows as zzb_z lays them out."""
    for lam, aperture, lo, hi in geometries:
        for frac in SPAN_FRACTIONS:
            dz = frac * (hi - lo)
            yield (midpoints(lo, hi - dz, n_theta_z), dz,
                   ArrayGeometry(aperture, 0.5), Wave(lam))


def _counting_family_eval(monkeypatch):
    """Route zzb's family evaluations through a recorder of panel counts;
    returns the list they are appended to."""
    counts = []
    real_eval = zzb_module._family_eval

    def counted(theta_z, delta_z, geom, k, n_panels):
        counts.append(n_panels)
        return real_eval(theta_z, delta_z, geom, k, n_panels)

    monkeypatch.setattr(zzb_module, "_family_eval", counted)
    return counts


@pytest.mark.parametrize("geometries, n_theta_z", [
    (PRESET_GEOMETRIES, 4), (NEAR_ARRAY[:3], 8), (NEAR_ARRAY[3:], 2)],
    ids=["presets", "near-array", "near-array-cap"])
def test_family_panel_rule_matches_eight_times_the_panels(
        monkeypatch, geometries, n_theta_z):
    # each call evaluates once, on the a priori panel count, and is within
    # 1e-12 of the largest coefficient of an evaluation on 8x the panels;
    # one at the count 2 max(8, ceil(2 cycles)) alone is 2e-11 off on the
    # (0.5, 2) prior and 4e-4 on (0.2, 1)
    counts = _counting_family_eval(monkeypatch)
    for theta_z, dz, geom, wave in _family_lines(geometries, n_theta_z):
        counts.clear()
        coef = _families(theta_z, dz, geom, wave)
        assert len(counts) == 1
        reference = zzb_module._coefficients(zzb_module._family_eval(
            theta_z, dz, geom, wave.wavenumber, 8 * counts[0]), theta_z, dz)
        assert np.abs(coef - reference).max() <= 1e-12 * np.abs(reference).max()


def test_families_keep_the_base_count_on_geometry_scan(monkeypatch):
    # the near-array terms never raise the panel count on the geometry_scan
    # benchmark's geometries: the coefficients are those of one evaluation
    # at 2 max(8, ceil(2 cycles)) panels, cycles the turns of the phase
    # along the array at the least distance
    counts = _counting_family_eval(monkeypatch)
    for theta_z, dz, geom, wave in _family_lines(GEOMETRY_SCAN, 12):
        z0, k = theta_z.min(), wave.wavenumber
        cycles = (k * dz * (1.0 - z0 / math.hypot(z0, geom.aperture))
                  / (2.0 * math.pi))
        n_panels = 2 * max(8, math.ceil(2.0 * cycles))
        counts.clear()
        coef = _families(theta_z, dz, geom, wave)
        assert counts == [n_panels]
        assert np.array_equal(coef, zzb_module._coefficients(
            zzb_module._family_eval(theta_z, dz, geom, k, n_panels),
            theta_z, dz))


def test_engine_statistic_matches_mu_L():
    # The bound engine assembles mu from tilt-free moment integrals; mu_L
    # integrates the ambiguity function directly. Neither subtracts the
    # two hypotheses' channel energies, so they agree relative to mu down
    # to the smallest offsets, and to within the quadrature tolerance
    # relative to those energies. The engine runs once per pair and once
    # on the stack of all pairs, the way the bounds evaluate a search line.
    geom, wave, prior = THRESHOLD_GEOM, THRESHOLD_WAVE, THRESHOLD_PRIOR
    rng = np.random.default_rng(34)
    pairs, snrs, fams = [], [], []
    for i in range(120):
        theta_z = rng.uniform(prior.z_min, prior.z_max)
        theta_t = rng.uniform(0.0, 0.9)
        delta_z = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(
            -6.0, math.log10(prior.z_max - theta_z))
        delta_t = 0.0 if i % 4 == 1 else 10.0 ** rng.uniform(
            -6.0, math.log10(0.999 - theta_t))
        pairs.append(HypothesisPair(theta_z, theta_t, delta_z, delta_t))
        snrs.append(10.0 ** rng.uniform(0.0, 6.0))
        fams.append(_families(np.array([theta_z]), delta_z, geom, wave))
    stacked = _mu(np.stack(fams),
                  _tilt_basis(np.array([[[p.theta_t]] for p in pairs]),
                              np.array([[[p.delta_t]] for p in pairs])))
    assert stacked.shape == (len(pairs), 1, 1)
    for pair, snr, fam, m in zip(pairs, snrs, fams, stacked[:, 0, 0]):
        single = _mu(fam, _tilt_basis(np.array([[pair.theta_t]]), pair.delta_t))
        h0, h1 = ((pair.theta_z, pair.theta_t),
                  (pair.theta_z + pair.delta_z, pair.theta_t + pair.delta_t))
        energy = snr * geom.pitch * integrate(
            lambda y: (abs(axis_channel(*h0, y, wave)) ** 2
                       + abs(axis_channel(*h1, y, wave)) ** 2),
            0.0, geom.aperture)
        reference = mu_L(pair, snr, geom, wave)
        for engine in (single[0, 0], m):
            assert abs(snr * geom.pitch * engine - reference) <= min(
                1e-10 * energy, 1e-9 * reference)


def test_bounds_do_not_depend_on_the_block_size(monkeypatch):
    # one search line holds more cells than the default block, so the
    # default splits it; one box per block and the whole line per block
    # must give the same bits
    grid = ZZBGrid(8, 16, 64, 20)
    line = grid.n_max_search * grid.n_theta_z * grid.n_theta_t
    assert line > zzb_module._BLOCK_CELLS
    prior, geom, wave = THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE
    snrs = [10.0 ** (db / 10.0) for db in (0.0, 30.0, 34.0, 45.0, 60.0)]
    results = []
    for block in (zzb_module._BLOCK_CELLS, grid.n_theta_z * grid.n_theta_t,
                  line):
        monkeypatch.setattr(zzb_module, "_BLOCK_CELLS", block)
        results.append([zzb_z(prior, snrs, geom, wave, grid).tolist(),
                        zzb_t(prior, snrs, geom, wave, grid).tolist(),
                        zzb_ao_t(prior, snrs, geom, grid).tolist()])
    assert results[0] == results[1] == results[2]


# 0-60 dB in 5 dB steps, the sweep of the snr_sweep benchmark workload
SWEEP = [snr_from_db(db) for db in range(0, 61, 5)]


def _counting_q(monkeypatch):
    """Route zzb's Q evaluations through a counter of cells; returns the
    one-element list holding the count."""
    cells = [0]

    def counted(x):
        cells[0] += np.size(x)
        return q_function(x)

    monkeypatch.setattr(zzb_module, "q_function", counted)
    return cells


@pytest.mark.parametrize("geom, wave, prior, grid", [
    # the snr_sweep benchmark workload (fig4 geometry) and two
    # geometry_scan geometries: the widest aperture with the widest
    # prior, and the narrowest with the farthest
    (THRESHOLD_GEOM, THRESHOLD_WAVE, THRESHOLD_PRIOR,
     ZZBGrid(n_delta=24, n_theta_z=24)),
    (ArrayGeometry(10.0, 0.5), Wave(0.01), UniformPrior(4.0, 7.0),
     ZZBGrid(24, 12)),
    (ArrayGeometry(2.0, 0.5), Wave(0.01), UniformPrior(9.0, 10.0),
     ZZBGrid(24, 12))])
def test_search_pruning_leaves_the_bounds_bit_identical(
        monkeypatch, geom, wave, prior, grid):
    # a margin of 1 puts the pruning threshold at 0, so every pair is
    # taken; with the default margin, Q sees at most a quarter of the cells
    cells = _counting_q(monkeypatch)
    results = []
    for margin in (zzb_module._PRUNE_MARGIN, 1.0):
        monkeypatch.setattr(zzb_module, "_PRUNE_MARGIN", margin)
        cells[0] = 0
        results.append([zzb_z(prior, SWEEP, geom, wave, grid).tolist(),
                        zzb_t(prior, SWEEP, geom, wave, grid).tolist()])
        results[-1].append(cells[0])
    (pruned_z, pruned_t, pruned), (full_z, full_t, full) = results
    assert pruned_z == full_z and pruned_t == full_t
    assert np.all(np.isfinite(full_z + full_t))
    assert pruned <= 0.25 * full


def test_search_skips_pairs_whose_q_underflowed(monkeypatch):
    # the snr_sweep benchmark config. Q sees the grid cells _q_box
    # integrates, in blocks (k, n_theta_z, n_theta_t), and one cell per
    # (SNR, box) bound, in (SNR, box) arrays. The bound alone left
    # 1 592 976 cells of both kinds; skipping the pairs whose Q at the
    # least mu is 0 dropped 276 480, and screening zzb_t's boxes and
    # evaluating only the SNRs the outer integral has not cut 56 990 more.
    # 4 594 of the 1 259 506 left were bounds; the grid cells stay under
    # the rest. Screening with Q takes one bound per (SNR, screened box)
    # and outer node, and one more per box built.
    cells = {"grid": 0, "bound": 0}

    def counted(x):
        cells["grid" if np.ndim(x) == 3 else "bound"] += np.size(x)
        return q_function(x)

    monkeypatch.setattr(zzb_module, "q_function", counted)
    grid = ZZBGrid(n_delta=24, n_theta_z=24)
    zzb_z(THRESHOLD_PRIOR, SWEEP, THRESHOLD_GEOM, THRESHOLD_WAVE, grid)
    zzb_t(THRESHOLD_PRIOR, SWEEP, THRESHOLD_GEOM, THRESHOLD_WAVE, grid)
    assert cells["grid"] <= 1_592_976 - 276_480 - 56_990 - 4_594
    assert cells["bound"] <= 8_914


def test_outer_integral_evaluates_only_live_snrs(monkeypatch):
    # every bracket call gets only the SNRs not yet cut; 60 dB is cut
    # before 0 dB (tests/test_sweep.py pins the values against one-SNR calls)
    seen = []
    outer = zzb_module._outer

    def recording_outer(prior, hi, n_delta, n_snr, bracket):
        def recorded(d, live):
            seen.append(live.tolist())
            return bracket(d, live)
        return outer(prior, hi, n_delta, n_snr, recorded)

    monkeypatch.setattr(zzb_module, "_outer", recording_outer)
    snrs = [snr_from_db(0.0), snr_from_db(60.0)]
    for bound in (lambda s: zzb_z(THRESHOLD_PRIOR, s, THRESHOLD_GEOM,
                                  THRESHOLD_WAVE, COARSE),
                  lambda s: zzb_t(THRESHOLD_PRIOR, s, THRESHOLD_GEOM,
                                  THRESHOLD_WAVE, COARSE),
                  lambda s: zzb_ao_t(THRESHOLD_PRIOR, s, THRESHOLD_GEOM, COARSE)):
        seen.clear()
        bound(snrs)
        assert seen[0] == [0, 1] and [0] in seen and [1] not in seen


def test_zzb_t_builds_families_only_for_boxes_the_screen_keeps(monkeypatch):
    # a geometry_scan benchmark geometry at 40 dB: box 0 and three of the
    # other 15 search distances need their channel-mismatch families, each
    # built once
    calls = []
    families = zzb_module._families

    def counted(theta_z, delta_z, *args):
        calls.append(float(delta_z))
        return families(theta_z, delta_z, *args)

    monkeypatch.setattr(zzb_module, "_families", counted)
    zzb_t(UniformPrior(4.0, 7.0), snr_from_db(40.0), ArrayGeometry(10.0, 0.5),
          Wave(0.01), ZZBGrid(24, 12))
    assert calls == [0.0, 0.1875, 0.375, 0.5625]


def _screened_line(geom, prior, grid):
    """Boxes 1..n-1 of a zzb_t search line: their hypothesis distances,
    distance offsets and the screen's amplitude-only coefficients."""
    search = np.linspace(0.0, prior.span, grid.n_max_search, endpoint=False)[1:]
    theta_z = midpoints(prior.z_min, prior.z_max - search[:, None],
                        grid.n_theta_z)
    return (theta_z, search, _amplitude_coefficients(theta_z, search, geom))


# tilt offsets of zzb_t outer nodes, from the floor to near the top
OUTER_DT = (1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.7, 0.98)


def test_amplitude_coefficients_bound_mu_from_below():
    # the phase term 4 G0 G1 S (y t0 + z0 s0)(y t1 + z1 s1) is >= 0 on the
    # strip, so the screen's mu is at most the exact mu on every cell
    rng = np.random.default_rng(15)
    grid = ZZBGrid(8, 6, 16, 6)
    for _ in range(24):
        z_min = rng.uniform(0.5, 8.0)
        prior = UniformPrior(z_min, z_min + rng.uniform(0.05, 3.0))
        geom = ArrayGeometry(rng.uniform(0.5, 10.0), 0.5)
        wave = Wave(10.0 ** rng.uniform(-2.0, 0.0))
        theta_z, search, screen = _screened_line(geom, prior, grid)
        exact = np.stack([_families(z, dz, geom, wave)
                          for z, dz in zip(theta_z, search)])
        assert np.all(screen[:, 10:] == 0.0)
        for dt in rng.uniform(0.0, 0.99, 3):
            basis = _tilt_basis(midpoints(0.0, 1.0 - dt, grid.n_theta_t)[None, :],
                                dt)
            assert np.all(_mu(screen, basis) <= _mu(exact, basis))


def test_screen_past_the_panel_cap_keeps_only_mu_nonnegative(monkeypatch):
    # so near the array that the screen would need more panels than the
    # family cap: its coefficients are all 0 and the bound stays exact.
    # Panels z/6 wide would put the nearest boxes' families past the cap
    # too, so zzb_t raises once the search builds them; the comparison
    # with a margin of 1, which builds every box, drops that width rule.
    geom, wave = ArrayGeometry(2.0, 0.5), Wave(0.1)
    prior, grid = UniformPrior(1e-4, 0.0101), ZZBGrid(8, 6, 16, 6)
    assert not _screened_line(geom, prior, grid)[2].any()
    with pytest.raises(QuadratureFailure):
        zzb_t(prior, 1.0, geom, wave, grid)
    monkeypatch.setattr(zzb_module, "_PANELS_PER_Z", 0.0)
    results = []
    for margin in (zzb_module._PRUNE_MARGIN, 1.0):
        monkeypatch.setattr(zzb_module, "_PRUNE_MARGIN", margin)
        results.append(zzb_t(prior, [1.0, 1e2, 1e4], geom, wave, grid).tolist())
    assert results[0] == results[1]


@pytest.mark.parametrize("geom, wave, prior", [
    (ArrayGeometry(a, 0.5), Wave(0.01), UniformPrior(*p))
    for p in ((4.0, 5.0), (4.0, 7.0), (6.0, 7.0), (9.0, 10.0))
    for a in (2.0, 4.0, 7.0, 10.0)] + [
    (THRESHOLD_GEOM, THRESHOLD_WAVE, THRESHOLD_PRIOR),
    (ArrayGeometry(5.0, 0.1), Wave(0.01), THRESHOLD_PRIOR),
    (ArrayGeometry(5.0, 0.5), Wave(0.01), THRESHOLD_PRIOR)])
def test_screen_quadrature_error_is_at_rounding_level(geom, wave, prior):
    # the screen integrates the amplitude kernels on a few panels; its mu
    # must match the amplitude part of the exact coefficients to 1e-12,
    # far inside the pruning margin: exp(709 * 1e-12) - 1 is about 7e-10
    grid = ZZBGrid(24, 12)
    theta_z, search, screen = _screened_line(geom, prior, grid)
    exact = np.stack([_families(z, dz, geom, wave)
                      for z, dz in zip(theta_z, search)])
    exact[:, 10:] = 0.0
    for dt in OUTER_DT:
        basis = _tilt_basis(midpoints(0.0, 1.0 - dt, grid.n_theta_t)[None, :], dt)
        reference = _mu(exact, basis)
        assert np.all(np.abs(_mu(screen, basis) - reference) <= 1e-12 * reference)


def test_q_screen_bounds_every_screened_box():
    # the screen's bound on a box, its cell count times Q at its least
    # mu_amp, is at least its exact integral less the pruning margin, and
    # 0 only where that integral is 0 (the cell area is common to both);
    # on the threshold config, the geometry_scan geometries and a prior
    # 0.1 apertures away, at every outer tilt offset and swept SNR
    grid = ZZBGrid(24, 12)
    box = grid.n_theta_z * grid.n_theta_t
    for lam, aperture, lo, hi in ([(0.1, 5.0, 3.0, 5.0)] + GEOMETRY_SCAN
                                  + NEAR_ARRAY[:1]):
        geom, wave = ArrayGeometry(aperture, 0.5), Wave(lam)
        theta_z, search, screen = _screened_line(
            geom, UniformPrior(lo, hi), grid)
        exact = np.stack([_families(z, dz, geom, wave)
                          for z, dz in zip(theta_z, search)])
        sp = np.array(SWEEP)[:, None] * geom.pitch
        for dt in OUTER_DT:
            basis = _tilt_basis(
                midpoints(0.0, 1.0 - dt, grid.n_theta_t)[None, :], dt)
            least = np.maximum(sp * _mu(screen, basis).min(axis=(1, 2)), 0.0)
            bound = box * q_function(np.sqrt(least / 2.0))
            mu = np.maximum(sp[:, :, None, None] * _mu(exact, basis), 0.0)
            integral = q_function(np.sqrt(mu / 2.0)).sum(axis=(2, 3))
            assert np.all(bound >= (1.0 - zzb_module._PRUNE_MARGIN) * integral)
            assert np.all(integral[bound == 0.0] == 0.0)


RAMP = (1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0)


@pytest.mark.parametrize("block", [None, 32])
@pytest.mark.parametrize("profiles, winners", [
    # box 2 has mu 0 on half its distance nodes and a large mu on the
    # rest: it wins above 0 dB although its mean mu is the largest
    ((RAMP, RAMP, (0.0, 0.0, 1e3, 1e3), RAMP), {0, 2}),
    ([[b * r for r in RAMP] for b in (1.0, 2.0, 3.0, 4.0)], {0})])
def test_search_max_equals_brute_force(monkeypatch, block, profiles, winners):
    # a hand-made search line of four boxes, box b at tilt offset
    # delta_t[b] with mu/(snr*pitch) = profiles[b] over distance times
    # s1^2; block 32 is one box per block, so the running maximum
    # crosses blocks
    if block is not None:
        monkeypatch.setattr(zzb_module, "_BLOCK_CELLS", block)
    grid = ZZBGrid(2, 4, 8, 4)
    delta_t = np.array([0.0, 0.1, 0.2, 0.3])
    coef = np.zeros((4, 14, grid.n_theta_z))
    coef[:, 2] = profiles
    theta_t = midpoints(0.0, 1.0 - delta_t[:, None, None], grid.n_theta_t)
    snrs, pitch, z_len = np.array([0.0, 1.0, 10.0, 1e2, 1e3, 1e4]), 0.1, 2.0
    box = grid.n_theta_z * grid.n_theta_t
    values = np.array([
        q_function(np.sqrt(np.maximum(
            (snrs * pitch)[:, None, None] * _mu(
                coef[b], _tilt_basis(theta_t[b], delta_t[b])), 0.0) / 2.0)).sum(
                    axis=(1, 2))
        * ((z_len / grid.n_theta_z) * ((1.0 - delta_t[b]) / grid.n_theta_t))
        for b in range(4)])
    assert set(values.argmax(axis=0).tolist()) == winners
    cells = _counting_q(monkeypatch)
    peak = _search_max(coef, np.ones(4, dtype=bool), None,
                       _tilt_basis(theta_t, delta_t[:, None, None]), z_len,
                       delta_t, snrs, pitch, grid)
    assert peak.tolist() == values.max(axis=0).tolist()
    # the (SNR, box) upper bounds cost one cell each; fewer than every
    # box's grid means some pair was skipped
    assert box * len(snrs) <= cells[0] < box * values.size


@pytest.mark.parametrize("snr", [0.0, 1e200])
def test_search_pruning_at_extreme_snrs(monkeypatch, snr):
    # SNR 0 gives Q = 1/2 on every cell; at 1e200 every Q underflows to 0
    # and so does the running maximum, so the threshold is 0
    seen = []

    def recording_q(x):
        q = q_function(x)
        seen.append(float(np.max(q, initial=0.0)))
        return q

    monkeypatch.setattr(zzb_module, "q_function", recording_q)
    prior, geom, wave = THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for margin in (zzb_module._PRUNE_MARGIN, 1.0):
            monkeypatch.setattr(zzb_module, "_PRUNE_MARGIN", margin)
            results.append((zzb_z(prior, snr, geom, wave, COARSE),
                            zzb_t(prior, snr, geom, wave, COARSE)))
    assert results[0] == results[1]
    assert all(math.isfinite(v) for v in results[0])
    assert set(seen) == ({0.5} if snr == 0.0 else {0.0})


@pytest.mark.parametrize("delta_z, delta_t", [
    (1e-6, 0.0), (0.0, 1e-6), (1e-6, 1e-6), (1e-4, 1e-3), (1e-2, 1e-2),
    (0.1, 0.05), (0.3, 0.2)])
def test_engine_statistic_matches_high_precision_reference(delta_z, delta_t):
    # mu/(snr*pitch) = integral of |h1 - h0|^2 along the strip, here at
    # 40 digits on the threshold config at z 4, t 0.3; the engine forms it
    # without subtracting channel energies, so it stays accurate relative
    # to mu itself however small the offsets are
    mp = mpmath.mp
    geom, wave = THRESHOLD_GEOM, THRESHOLD_WAVE
    z0, t0 = 4.0, 0.3
    coef = _families(np.array([z0]), delta_z, geom, wave)
    engine = _mu(coef, _tilt_basis(np.array([[t0]]), delta_t))[0, 0]
    with mp.workdps(40):
        k = 2 * mp.pi / mp.mpf(wave.wavelength)

        def h(z, t, y):
            r = mp.sqrt(y * y + z * z)
            return (mp.expj(k * r) * mp.sqrt(z) * (y * t + z * mp.sqrt(1 - t * t))
                    / r ** mp.mpf(2.5))

        z1 = mp.mpf(z0) + mp.mpf(delta_z)
        t1 = mp.mpf(t0) + mp.mpf(delta_t)
        reference = mp.quad(
            lambda y: abs(h(z1, t1, y) - h(mp.mpf(z0), mp.mpf(t0), y)) ** 2,
            mp.linspace(0, geom.aperture, 5))
    assert engine == pytest.approx(float(reference), rel=1e-12, abs=0.0)
