"""Detection-theoretic MSE lower bounds: building blocks and limits."""

import importlib
import math
import warnings

import mpmath
import numpy as np
import oracles
import pytest

from nfepm.channel import axis_channel
from nfepm.errors import InvariantViolation, QuadratureFailure
from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
from nfepm.numerics import MAX_CELLS, midpoints, q_function
from nfepm.observation import snr_from_db
from nfepm.zzb import (_FAMILY_BLOCK, ZZBGrid, _family_eval, _family_rows,
                       _mu, _tilt_basis, _y_rule, mu_L_ao, zzb_ao_t, zzb_t,
                       zzb_z)
from oracles import (HypothesisPair, ambiguity_function, integrate, mu_L,
                     p_min, y_blocks_uncached, zzb_ao_t_per_node)
from scenarios import THRESHOLD_GEOM, THRESHOLD_PRIOR, THRESHOLD_WAVE

zzb_module = importlib.import_module("nfepm.zzb")

COARSE = ZZBGrid(16, 8, 8)


def _families(theta_z, delta_z, geom, wave):
    """The 3 mu coefficients (3, n_theta_z) of _family_rows at the one
    offset delta_z and tilt offset 0, or its QuadratureFailure."""
    coef, failures = _family_rows(theta_z[None], np.array([delta_z]), geom,
                                  wave)
    if failures:
        raise failures[0]
    return coef[0]


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


_FAMILY_NODES = 8 * zzb_module._FAMILY_BLOCK
# Each edge of the ZZB cell cap: grid sizes whose named array holds at
# most MAX_CELLS cells, and the sizes one step past it.
CAP_EDGES = {
    "offset-nodes": (dict(n_delta=MAX_CELLS), dict(n_delta=MAX_CELLS + 1)),
    # zzb_z's box in the tilt basis
    "tilt-basis": (dict(n_theta_z=2, n_theta_t=MAX_CELLS // 3),
                   dict(n_theta_z=2, n_theta_t=MAX_CELLS // 3 + 1)),
    "detection-grid": (dict(n_theta_z=2048, n_theta_t=MAX_CELLS // 2048),
                       dict(n_theta_z=2048, n_theta_t=MAX_CELLS // 2048 + 1)),
    "family-block": (
        dict(n_theta_z=MAX_CELLS // (4 * _FAMILY_NODES), n_theta_t=2),
        dict(n_theta_z=MAX_CELLS // (4 * _FAMILY_NODES) + 1, n_theta_t=2)),
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


@pytest.mark.parametrize("arg", range(3))
def test_tilt_only_statistic_rejects_nan(arg):
    args = [2.0, 0.2, 0.1]
    args[arg] = math.nan
    with pytest.raises(InvariantViolation):
        mu_L_ao(*args, 100.0, ArrayGeometry(2.0, 0.1))


@pytest.mark.parametrize("aperture", [5.0, math.inf])
@pytest.mark.parametrize("snr", [100.0, [0.0, 1.0, 100.0, 1e4, 1e8]])
def test_tilt_only_bound_equals_per_node_reference(monkeypatch, snr, aperture):
    # the tau-moments are taken once per call and the tilt factor once per
    # batch of outer nodes; the bounds are bit-identical to mu_L_ao's node
    # by node, and so is every (node, SNR) grid of sqrt(mu/2) the
    # reference hands to Q: each is among the library's. The library
    # hands them over in blocks of (node, SNR) pairs and evaluates a batch
    # at the SNRs live when it starts, so it has more grids
    geom = ArrayGeometry(aperture, 0.1)
    seen = {zzb_module: [], oracles: []}
    for module, log in seen.items():
        monkeypatch.setattr(module, "q_function",
                            lambda x, log=log: log.append(x) or q_function(x))
    for grid in (COARSE, ZZBGrid(24, 12)):
        assert np.array_equal(zzb_ao_t(THRESHOLD_PRIOR, snr, geom, grid),
                              zzb_ao_t_per_node(THRESHOLD_PRIOR, snr, geom, grid))
    got, want = ({g.tobytes() for block in seen[m] for g in block}
                 for m in (zzb_module, oracles))
    assert len(want) > 0 and want <= got


def test_tilt_only_bound_checks_no_inputs_per_node(monkeypatch):
    # the sweep is checked once on entry; the grids are valid by
    # construction, so no outer node checks them again
    calls = []
    real = zzb_module.require_snr
    monkeypatch.setattr(zzb_module, "require_snr",
                        lambda snr: calls.append(snr) or real(snr))
    zzb_ao_t(THRESHOLD_PRIOR, [1.0, 100.0], THRESHOLD_GEOM, COARSE)
    assert calls == []


def test_cached_family_rule_equals_the_uncached_rule(monkeypatch):
    # one-block rules come from a read-only cache, larger counts are built
    # per call; the moments are bit-identical to building the rule afresh
    theta_z = midpoints(3.0, 4.5, 6)
    cases = [(2, 0.0), (16, 0.02), (_FAMILY_BLOCK, 0.5),
             (_FAMILY_BLOCK + 1, 0.5), (3 * _FAMILY_BLOCK + 5, 0.1)]
    _y_rule.cache_clear()
    cached = [_family_eval(theta_z, 0.3, THRESHOLD_GEOM, k, n)
              for n, k in cases * 2]
    assert _y_rule.cache_info().currsize == 3
    monkeypatch.setattr(zzb_module, "_y_blocks", y_blocks_uncached)
    for got, (n, k) in zip(cached, cases * 2):
        assert np.array_equal(got, _family_eval(theta_z, 0.3, THRESHOLD_GEOM,
                                                k, n))
    for a in _y_rule(THRESHOLD_GEOM.aperture, 16):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_family_rule_cache_takes_one_block_counts_only():
    _y_rule.cache_clear()
    _family_eval(np.array([3.0, 4.0]), 0.5, THRESHOLD_GEOM, 1.0,
                 _FAMILY_BLOCK + 1)
    assert _y_rule.cache_info().currsize == 0
    _family_eval(np.array([3.0, 4.0]), 0.5, THRESHOLD_GEOM, 1.0, _FAMILY_BLOCK)
    assert _y_rule.cache_info().currsize == 1
    assert _y_rule.cache_info().maxsize <= 16


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
        # zzb_t integrates the tilt-only box, so the ordering is exact
        assert joint >= ao


def test_tilt_bound_is_the_tilt_only_bound():
    # zzb_t's box at distance offset 0 is the tilt-only one, so it equals
    # zzb_ao_t bit for bit: on the threshold config and on fig6's prior at
    # two of its wavelengths, over its 0-60 dB sweep at the default grid
    snrs = [snr_from_db(db) for db in range(0, 61, 10)]
    fig6 = (UniformPrior(5.0, 6.0), ArrayGeometry(5.0, 0.1))
    for prior, geom, wave in ((THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE),
                              (*fig6, Wave(0.01)), (*fig6, Wave(0.001))):
        assert (zzb_t(prior, snrs, geom, wave).tobytes()
                == zzb_ao_t(prior, snrs, geom).tobytes())


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
    # panels than _MAX_FAMILY_PANELS: _family_rows hands the node's
    # QuadratureFailure back, and evaluates no family.
    def no_eval(*args):
        raise AssertionError("family evaluated past the panel cap")

    monkeypatch.setattr(zzb_module, "_family_eval", no_eval)
    coef, failures = _family_rows(np.array([[3.0, 4.0]]), np.array([0.5]),
                                  THRESHOLD_GEOM, Wave(1e-6))
    assert list(failures) == [0]
    assert isinstance(failures[0], QuadratureFailure)
    assert np.all(coef == 0.0)


def test_family_panel_cap_checked_before_evaluation(monkeypatch):
    # Past the cap, _family_rows hands a node's QuadratureFailure back
    # before its evaluation, which would allocate arrays of 8 * n_panels
    # nodes per hypothesis distance: at 1e-7 m the phase cycles ask for
    # millions of panels, and 1 mm from a 5 m array the panel width rule
    # asks for 30 000. At 2 mm the width rule stays inside the cap and the
    # evaluation runs.
    real_eval = zzb_module._family_eval
    counts = []

    def capped_eval(theta_z, delta_z, geom, k, n_panels):
        assert n_panels <= zzb_module._MAX_FAMILY_PANELS, n_panels
        counts.append(n_panels)
        return real_eval(theta_z, delta_z, geom, k, n_panels)

    monkeypatch.setattr(zzb_module, "_family_eval", capped_eval)
    _, failures = _family_rows(np.array([[3.0, 4.0]]), np.array([0.5]),
                               THRESHOLD_GEOM, Wave(1e-7))
    assert isinstance(failures[0], QuadratureFailure) and counts == []
    # one batch: the node 1 mm away is handed back, the one at 2 mm runs
    _, failures = _family_rows(np.array([[1e-3, 2e-3], [2e-3, 3e-3]]),
                               np.array([1e-3, 1e-3]), THRESHOLD_GEOM,
                               Wave(0.01))
    assert list(failures) == [0]
    assert isinstance(failures[0], QuadratureFailure)
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


def _recording_family_eval(monkeypatch):
    """Route zzb's family evaluations through a recorder of their panel
    counts and moments; returns the list of (count, moments) pairs they
    are appended to."""
    calls = []
    real_eval = zzb_module._family_eval

    def recorded(theta_z, delta_z, geom, k, n_panels):
        moments = real_eval(theta_z, delta_z, geom, k, n_panels)
        calls.append((n_panels, moments))
        return moments

    monkeypatch.setattr(zzb_module, "_family_eval", recorded)
    return calls


@pytest.mark.parametrize("geometries, n_theta_z", [
    (PRESET_GEOMETRIES, 4), (NEAR_ARRAY[:3], 8), (NEAR_ARRAY[3:], 2)],
    ids=["presets", "near-array", "near-array-cap"])
def test_family_panel_rule_matches_eight_times_the_panels(
        monkeypatch, geometries, n_theta_z):
    # each call evaluates once, on the a priori panel count, and its kernel
    # moments are within 1e-12 of the largest moment of an evaluation on
    # 8x the panels; one at the count 2 max(8, ceil(2 cycles)) alone is
    # 2e-11 off on the (0.5, 2) prior and 4e-4 on (0.2, 1). The moments,
    # not the coefficients: the G1^2 moments set an energy scale, while at
    # the smallest offsets the coefficients shrink as dz^2 and keep the
    # rounding of dG = G1 - G0 (see _family_panels' docstring)
    real_eval = zzb_module._family_eval
    calls = _recording_family_eval(monkeypatch)
    for theta_z, dz, geom, wave in _family_lines(geometries, n_theta_z):
        calls.clear()
        _families(theta_z, dz, geom, wave)
        [(n_panels, moments)] = calls
        reference = real_eval(theta_z[None], np.array([[dz]]), geom,
                              wave.wavenumber, 8 * n_panels)
        assert (np.abs(moments - reference).max()
                <= 1e-12 * np.abs(reference).max())


def test_families_keep_the_base_count_on_geometry_scan(monkeypatch):
    # the near-array terms never raise the panel count on the geometry_scan
    # benchmark's geometries: the coefficients are those of one evaluation
    # at 2 max(8, ceil(2 cycles)) panels, cycles the turns of the phase
    # along the array at the least distance
    calls = _recording_family_eval(monkeypatch)
    for theta_z, dz, geom, wave in _family_lines(GEOMETRY_SCAN, 12):
        z0, k = theta_z.min(), wave.wavenumber
        cycles = (k * dz * (1.0 - z0 / math.hypot(z0, geom.aperture))
                  / (2.0 * math.pi))
        n_panels = 2 * max(8, math.ceil(2.0 * cycles))
        calls.clear()
        coef = _families(theta_z, dz, geom, wave)
        assert [n for n, _ in calls] == [n_panels]
        assert np.array_equal(coef, zzb_module._coefficients(
            zzb_module._family_eval(theta_z, dz, geom, k, n_panels),
            theta_z, dz))


def test_engine_statistic_matches_mu_L():
    # The bound engine assembles mu at tilt offset 0, zzb_z's box, from
    # tilt-free moment integrals; mu_L integrates the ambiguity function
    # directly at any offset. Neither subtracts the two hypotheses'
    # channel energies, so they agree relative to mu down to the smallest
    # offsets, and to within the quadrature tolerance relative to those
    # energies. The engine runs once per pair and once on the stack of all
    # pairs, the way zzb_z evaluates a batch of nodes.
    geom, wave, prior = THRESHOLD_GEOM, THRESHOLD_WAVE, THRESHOLD_PRIOR
    rng = np.random.default_rng(34)
    pairs, snrs, fams = [], [], []
    for _ in range(120):
        theta_z = rng.uniform(prior.z_min, prior.z_max)
        theta_t = rng.uniform(0.0, 0.9)
        delta_z = 10.0 ** rng.uniform(-6.0, math.log10(prior.z_max - theta_z))
        pairs.append(HypothesisPair(theta_z, theta_t, delta_z, 0.0))
        snrs.append(10.0 ** rng.uniform(0.0, 6.0))
        fams.append(_families(np.array([theta_z]), delta_z, geom, wave))
    stacked = _mu(np.stack(fams),
                  _tilt_basis(np.array([[[p.theta_t]] for p in pairs])))
    assert stacked.shape == (len(pairs), 1, 1)
    for pair, snr, fam, m in zip(pairs, snrs, fams, stacked[:, 0, 0]):
        single = _mu(fam, _tilt_basis(np.array([[pair.theta_t]])))
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
    # a batch of four outer nodes at every SNR holds more cells than the
    # default block, so the default splits it; one box per block (which
    # also makes batches of one node) and the whole batch per block must
    # give the same bits
    grid = ZZBGrid(8, 16, 64)
    prior, geom, wave = THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE
    snrs = [10.0 ** (db / 10.0) for db in (0.0, 30.0, 34.0, 45.0, 60.0)]
    box = grid.n_theta_z * grid.n_theta_t
    batch = 4 * len(snrs) * box
    assert batch > zzb_module._BLOCK_CELLS
    results = []
    for block in (zzb_module._BLOCK_CELLS, box, batch):
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


def test_bounds_take_one_box_per_node_and_snr(monkeypatch):
    # the snr_sweep benchmark config. Q sees only the grid cells _outer
    # integrates, one box of 24 x 64 cells per (outer node, SNR) pair a
    # batch evaluates: 292 pairs for zzb_z and 312 for zzb_t. An SNR cut
    # inside a batch is evaluated at the batch's later nodes and dropped
    cells = _counting_q(monkeypatch)
    grid = ZZBGrid(n_delta=24, n_theta_z=24)
    box = grid.n_theta_z * grid.n_theta_t
    zzb_z(THRESHOLD_PRIOR, SWEEP, THRESHOLD_GEOM, THRESHOLD_WAVE, grid)
    assert cells[0] == 292 * box
    zzb_t(THRESHOLD_PRIOR, SWEEP, THRESHOLD_GEOM, THRESHOLD_WAVE, grid)
    assert cells[0] == (292 + 312) * box == 927_744


def test_outer_integral_evaluates_only_live_snrs(monkeypatch):
    # every batch of outer nodes gets only the SNRs not cut when it starts;
    # 60 dB is cut before 0 dB (tests/test_sweep.py pins the values against
    # one-SNR calls). Blocks of two boxes make batches of two nodes, so the
    # cuts inside the tilt bounds' last panel show at a batch's start;
    # zzb_t is zzb_ao_t's pass
    monkeypatch.setattr(zzb_module, "_BLOCK_CELLS",
                        2 * COARSE.n_theta_z * COARSE.n_theta_t)
    seen = _recording_outer(monkeypatch)
    snrs = [snr_from_db(0.0), snr_from_db(60.0)]
    for bound in (
            lambda s: zzb_z(THRESHOLD_PRIOR, s, THRESHOLD_GEOM, THRESHOLD_WAVE,
                            COARSE),
            lambda s: zzb_t(THRESHOLD_PRIOR, s, THRESHOLD_GEOM, THRESHOLD_WAVE,
                            COARSE),
            lambda s: zzb_ao_t(THRESHOLD_PRIOR, s, THRESHOLD_GEOM, COARSE)):
        seen.clear()
        bound(snrs)
        assert len(seen) == 1
        lives = _lives(seen[0])
        assert lives[0] == [0, 1] and [0] in lives
        assert all(0 in live for live in lives)


def test_zzb_t_builds_no_families_on_geometry_scan(monkeypatch):
    # the geometry_scan benchmark's 16 geometries at its 40 dB and grid:
    # zzb_t integrates the tilt-only box in closed form, so it builds no
    # channel-mismatch families and gives zzb_ao_t's bits; zzb_z builds
    # its rows at every batch of outer nodes
    batches = []
    family_rows = zzb_module._family_rows

    def counted(theta_z, delta_z, geom, wave):
        batches.append(len(delta_z))
        return family_rows(theta_z, delta_z, geom, wave)

    monkeypatch.setattr(zzb_module, "_family_rows", counted)
    grid = ZZBGrid(24, 12)
    for lam, aperture, lo, hi in GEOMETRY_SCAN:
        args = (UniformPrior(lo, hi), snr_from_db(40.0),
                ArrayGeometry(aperture, 0.5))
        assert zzb_t(*args, Wave(lam), grid) == zzb_ao_t(*args, grid)
    assert batches == []
    zzb_z(UniformPrior(4.0, 7.0), snr_from_db(40.0), ArrayGeometry(10.0, 0.5),
          Wave(0.01), grid)
    assert batches and all(n >= 1 for n in batches)


def test_joint_tilt_bound_dominates_tilt_only_on_geometry_scan():
    # the geometry_scan benchmark's 16 geometries and grid over 0-60 dB:
    # zzb_t integrates zzb_ao_t's box, bit for bit, so the ordering holds
    # with no slack
    for lam, aperture, lo, hi in GEOMETRY_SCAN:
        prior, geom = UniformPrior(lo, hi), ArrayGeometry(aperture, 0.5)
        joint = zzb_t(prior, SWEEP, geom, Wave(lam), ZZBGrid(24, 12))
        ao = zzb_ao_t(prior, SWEEP, geom, ZZBGrid(24, 12))
        assert np.all(joint >= ao), (lam, aperture, lo, hi)


def _recording_outer(monkeypatch):
    """Route zzb's outer integrals through a recorder of their batches;
    returns the list of calls, one list of batches per _outer call, each
    batch its offsets, a map from each (node, channel) box of sqrt(mu/2)
    to its channel, and the set of channels whose boxes Q takes in the
    batch: those live when it starts."""
    calls = []
    outer = zzb_module._outer

    def recording(prior, hi, grid, sp, box):
        calls.append([])

        def recorded(d):
            stat, cell, failures = box(d)
            channel = {np.sqrt(np.maximum(s * m, 0.0) / 2.0).tobytes(): c
                       for c, s in enumerate(sp) for m in stat}
            calls[-1].append((d.tolist(), channel, set()))
            return stat, cell, failures
        return outer(prior, hi, grid, sp, recorded)

    def recording_q(x):
        _, channel, live = calls[-1][-1]
        live.update(channel[g.tobytes()] for g in x)
        return q_function(x)

    monkeypatch.setattr(zzb_module, "_outer", recording)
    monkeypatch.setattr(zzb_module, "q_function", recording_q)
    return calls


def _lives(batches):
    """The live channels at the start of each of batches, in order."""
    return [sorted(live) for _, _, live in batches]


@pytest.mark.parametrize("skew", [0.0, 1e6])
def test_tilt_pass_equals_the_separate_bounds(monkeypatch, skew):
    # the CLI writes both tilt columns from one zzb_ao_t pass over the
    # sweep; at 0 and 60 dB it equals zzb_t and zzb_ao_t taken one SNR at a
    # time, bit for bit. A skew raises the box's cell area, and so its
    # integral, with the tilt offset, so the 60 dB channel is cut one node
    # later, still before the 0 dB one. Blocks of one box make batches of
    # one node, so every cut shows at a batch's start
    monkeypatch.setattr(zzb_module, "_BLOCK_CELLS",
                        COARSE.n_theta_z * COARSE.n_theta_t)
    calls = _recording_outer(monkeypatch)
    snrs = [snr_from_db(0.0), snr_from_db(60.0)]
    args = (THRESHOLD_PRIOR, snrs, THRESHOLD_GEOM)

    def first_cut():
        """The batch where the 60 dB channel is first cut in one pass."""
        calls.clear()
        zzb_ao_t(*args, COARSE)
        assert len(calls) == 1
        lives = _lives(calls[0])
        assert lives[0] == [0, 1]
        return lives.index([0])

    unskewed = first_cut()
    if skew:
        outer = zzb_module._outer

        def skewed(prior, hi, grid, sp, box):
            def skewed_box(dt):
                stat, cell, failures = box(dt)
                return stat, cell * (1.0 + skew * dt), failures
            return outer(prior, hi, grid, sp, skewed_box)

        monkeypatch.setattr(zzb_module, "_outer", skewed)
    assert first_cut() == unskewed + (1 if skew else 0)
    ao = zzb_ao_t(*args, COARSE)
    assert np.array_equal(zzb_t(*args, THRESHOLD_WAVE, COARSE), ao)
    for i, snr in enumerate(snrs):
        scalar = (zzb_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE,
                        COARSE),
                  zzb_ao_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, COARSE))
        assert scalar == (ao[i], ao[i])
        assert all(isinstance(b, float) for b in scalar)


def _outer_edges(hi, grid):
    """The log panel edges of _outer's offset integral."""
    return np.exp(np.linspace(math.log(hi * zzb_module._DELTA_FLOOR_REL),
                              math.log(hi), max(1, grid.n_delta // 4) + 1))


def _outer_nodes(hi, grid):
    """The offset nodes of _outer, in order."""
    return zzb_module._panel_rule(_outer_edges(hi, grid), 4)[0]


def test_bound_does_not_raise_at_nodes_the_pass_never_reaches(monkeypatch):
    # the threshold geometry at pitch 0.5 and 30 dB on the coarse grid:
    # zzb_z is cut after node 15 of 16, inside the last batch, whose last
    # node needs more family panels than any node reached. With the cap
    # at the largest count reached, the batch is evaluated with that node
    # left out of the family evaluation and its failure handed back, never
    # raised, so the bound keeps its uncapped value; at 0 dB the pass
    # reaches the node and raises
    prior, geom, wave = THRESHOLD_PRIOR, ArrayGeometry(5.0, 0.5), THRESHOLD_WAVE
    snr = snr_from_db(30.0)
    calls = _recording_outer(monkeypatch)
    uncapped = zzb_z(prior, snr, geom, wave, COARSE)
    nodes = _outer_nodes(prior.span, COARSE)
    assert [x for batch, *_ in calls[0] for x in batch] == nodes.tolist()
    assert _lives(calls[0])[-1] == [0]

    def panels(dz):
        return zzb_module._family_panels(
            midpoints(prior.z_min, prior.z_max - dz, COARSE.n_theta_z), dz,
            geom, wave)

    cap = max(panels(dz) for dz in nodes[:15])
    assert panels(nodes[15]) > cap
    monkeypatch.setattr(zzb_module, "_MAX_FAMILY_PANELS", cap)
    assert zzb_z(prior, snr, geom, wave, COARSE) == uncapped
    with pytest.raises(QuadratureFailure):
        zzb_z(prior, snr_from_db(0.0), geom, wave, COARSE)


def _node_by_node_outer(prior, hi, grid, sp, box):
    """_outer's offset integral node by node: one box call per node, its
    detection error summed at the channels live at that node."""
    total, peak = np.zeros(len(sp)), np.zeros(len(sp))
    live = np.arange(len(sp))
    for d, w in zip(*zzb_module._panel_rule(_outer_edges(hi, grid), 4)):
        stat, cell, failures = box(np.array([d]))
        if failures:
            raise failures[0]
        mu = sp[live, None, None] * stat[0]
        value = q_function(np.sqrt(np.maximum(mu, 0.0) / 2.0)).sum(
            axis=(-2, -1)) * cell[0]
        total[live] = total[live] + w * d * value
        peak[live] = np.maximum(peak[live], value)
        live = live[~(value < zzb_module._TRUNCATE_REL * peak[live])]
        if live.size == 0:
            break
    return total / prior.span


@pytest.mark.parametrize("cases", [
    [(UniformPrior(lo, hi), snr_from_db(40.0), ArrayGeometry(aperture, 0.5),
      Wave(lam), ZZBGrid(24, 12)) for lam, aperture, lo, hi in GEOMETRY_SCAN],
    [(THRESHOLD_PRIOR, SWEEP, THRESHOLD_GEOM, THRESHOLD_WAVE, ZZBGrid(24, 24))],
    [(UniformPrior(5.0, 6.0), SWEEP, ArrayGeometry(5.0, 0.1), Wave(0.001),
      ZZBGrid())]], ids=["geometry-scan", "threshold-sweep", "fig6-1mm"])
def test_runs_equal_the_node_by_node_pass(monkeypatch, cases):
    # the batches of outer nodes, each evaluated at the channels live when
    # it starts and cut node by node after, give the bits of a pass that
    # evaluates one node per box call at the channels live there
    def values():
        return [np.array([zzb_z(prior, snr, geom, wave, grid),
                          zzb_t(prior, snr, geom, wave, grid),
                          zzb_ao_t(prior, snr, geom, grid)]).tolist()
                for prior, snr, geom, wave, grid in cases]

    batched = values()
    monkeypatch.setattr(zzb_module, "_outer", _node_by_node_outer)
    assert batched == values()


def test_family_batches_stay_within_one_y_block(monkeypatch):
    # zzb_z evaluates the families of a batch's nodes with equal panel
    # counts together, at most _FAMILY_BLOCK panels in all (one node at
    # least), so no y-block holds more than 8 _FAMILY_BLOCK nodes per
    # hypothesis distance, and at most _FAMILY_BATCH hypothesis distances
    # times panels; on the geometry_scan geometries and near the array,
    # where single nodes need more than one block, and at the default
    # grid, whose 64 distances at 16 panels leave one node per evaluation
    batches = []
    real_eval = zzb_module._family_eval

    def recorded(theta_z, delta_z, geom, k, n_panels):
        batches.append((np.size(delta_z), n_panels, theta_z.shape[-1]))
        return real_eval(theta_z, delta_z, geom, k, n_panels)

    monkeypatch.setattr(zzb_module, "_family_eval", recorded)
    for lam, aperture, lo, hi in GEOMETRY_SCAN + NEAR_ARRAY[:2]:
        zzb_z(UniformPrior(lo, hi), SWEEP, ArrayGeometry(aperture, 0.5),
              Wave(lam), ZZBGrid(24, 12))
    assert max(rows for rows, _, _ in batches) > 1
    assert max(n for _, n, _ in batches) > _FAMILY_BLOCK
    assert all(rows == 1 or (rows * n <= _FAMILY_BLOCK and rows * n * n_z
                             <= zzb_module._FAMILY_BATCH)
               for rows, n, n_z in batches)
    batches.clear()
    zzb_z(THRESHOLD_PRIOR, SWEEP, THRESHOLD_GEOM, THRESHOLD_WAVE)
    assert {rows for rows, _, _ in batches} == {1}


@pytest.mark.parametrize("snr", [0.0, 1e200])
def test_bounds_at_extreme_snrs(monkeypatch, snr):
    # SNR 0 gives Q = 1/2 on every cell; at 1e200 every Q underflows to 0;
    # both bounds stay finite and numpy warns of nothing
    seen = []

    def recording_q(x):
        q = q_function(x)
        seen.append(float(np.max(q, initial=0.0)))
        return q

    monkeypatch.setattr(zzb_module, "q_function", recording_q)
    prior, geom, wave = THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = (zzb_z(prior, snr, geom, wave, COARSE),
                   zzb_t(prior, snr, geom, wave, COARSE))
    assert all(math.isfinite(v) for v in results)
    assert set(seen) == ({0.5} if snr == 0.0 else {0.0})


@pytest.mark.parametrize("delta_z, delta_t", [
    (1e-6, 0.0), (0.0, 1e-6), (1e-4, 0.0), (1e-2, 0.0), (0.1, 0.0),
    (0.3, 0.0)])
def test_engine_statistic_matches_high_precision_reference(delta_z, delta_t):
    # mu/(snr*pitch) = integral of |h1 - h0|^2 along the strip, here at
    # 40 digits on the threshold config at z 4, t 0.3; each bound's box
    # forms it without subtracting channel energies, so it stays accurate
    # relative to mu itself down to offsets of 1e-6: zzb_z's engine at tilt
    # offset 0, and the closed tilt-only form at distance offset 0. (At a
    # distance offset of 1e-9 the engine reads 2.3e-12 off: dG = G1 - G0 is
    # then a difference of nearly equal numbers.)
    mp = mpmath.mp
    geom, wave = THRESHOLD_GEOM, THRESHOLD_WAVE
    z0, t0 = 4.0, 0.3
    if delta_z == 0.0:
        engine = mu_L_ao(z0, t0, delta_t, 1.0, geom) / geom.pitch
    else:
        coef = _families(np.array([z0]), delta_z, geom, wave)
        engine = _mu(coef, _tilt_basis(np.array([[t0]])))[0, 0]
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
