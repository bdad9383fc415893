"""Regime solvers: exactness, bias envelopes, dispatch, and error paths."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from nfepm import solver as solver_module
from nfepm.channel import AxialPose, axis_channel, axis_factor
from nfepm.errors import (InvariantViolation, NegativeRadicand, NonFinite,
                          UnsupportedRegion)
from nfepm.geometry import (ArrayGeometry, Region, UniformPrior, Wave,
                            classify_region, probe_elements)
from nfepm.observation import noiseless_voltages
from nfepm.solver import (TABLE2_COLUMNS, TABLE2_MISMATCH, _complex_root,
                          _gain_phase, _phase_offsets, _pow_five_quarters,
                          _solve_pair, _tilt_from_amplitudes,
                          decouple, rmse_grids, solve)
from oracles import rmse_grids_per_block
from scenarios import SOLVER_BENCHMARK, benchmark_setup

TWO_PI = 2.0 * np.pi


def _rmse_grid(case, prior, geom, wave, u, v, mismatch=None):
    # one solver's (rmse_z, rmse_t): a one-solver pass of rmse_grids
    return rmse_grids(case, prior, geom, wave, u, v, (mismatch,))[0]


def _relative_bias(geom, y_a, y_b, z):
    # leading-order range bias of the period-difference solvers
    del geom
    return (y_a * y_a + y_b * y_b) / (4.0 * z * z)


def test_decouple_polar_form():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    d = decouple(v)
    assert np.all(d.psi >= 0.0)
    assert np.all((d.theta >= 0.0) & (d.theta < TWO_PI))
    back = d.psi * np.exp(1j * d.theta)
    assert np.max(np.abs(back - v)) < 1e-12


def test_decouple_phase_equals_mod_two_pi_bitwise():
    # np.angle lies in [-pi, pi], where shifting the negative half by 2*pi
    # is np.mod(angle, 2*pi) exactly; signed zeros and the ends included
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([complex(re, im) for re in (1.0, -1.0, 0.0, -0.0, tiny, -tiny)
                      for im in (0.0, -0.0, tiny, -tiny, 1e-300, -1e-300)])
    rng = np.random.default_rng(7)
    phases = np.concatenate((
        rng.uniform(-np.pi, np.pi, 4096), [np.pi, -np.pi, np.nextafter(np.pi, 0.0)]))
    v = np.concatenate((edges, 3.0 * np.exp(1j * phases)))
    expected = np.mod(np.angle(v), TWO_PI)
    assert np.array_equal(decouple(v).theta.view(np.uint64), expected.view(np.uint64))


def test_decouple_scalar_and_nonfinite():
    d = decouple(2.0 * np.exp(1j * 5.0))
    assert d.psi == pytest.approx(2.0)
    assert d.theta == pytest.approx(5.0)
    with pytest.raises(NonFinite):
        decouple(np.array([1.0 + 0j, np.nan + 0j]))


def test_tilt_from_true_range_is_exact():
    geom = ArrayGeometry(2.0, 0.05)
    wave = Wave(0.25, amplitude=1.5)
    scale = wave.amplitude * geom.pitch
    rng = np.random.default_rng(4)
    for _ in range(200):
        z = 10.0 ** rng.uniform(-1, 2)
        t = rng.uniform(0.0, 1.0)
        n = rng.integers(1, geom.n_elements)
        y_a, y_b = geom.element_center(n), geom.element_center(n + 1)
        psi_a = np.abs(axis_channel(z, t, y_a, wave, scale))
        psi_b = np.abs(axis_channel(z, t, y_b, wave, scale))
        t_hat = _tilt_from_amplitudes(psi_a, psi_b, y_a, y_b, z, geom, wave)
        assert abs(t_hat - t) < 1e-10


def test_pow_five_quarters_real_within_4_ulp_on_table2_priors():
    # the squared element ranges the tilt solve raises to 1.25, at every
    # column's probe elements across its prior
    for region, lam, aperture, pitch, z_min, z_max in TABLE2_COLUMNS:
        geom = ArrayGeometry(aperture, pitch)
        z = np.linspace(z_min, z_max, 4001)
        for n in probe_elements(geom, 1, None, region):
            r2 = geom.element_center(n) ** 2 + z * z
            ref = r2 ** 1.25
            ulps = np.abs(_pow_five_quarters(r2) - ref) / np.spacing(ref)
            assert ulps.max() <= 4.0, (region, lam, z_min, z_max, n)


def test_pow_five_quarters_complex_is_the_principal_branch():
    # diagnostic-mode ranges z = sqrt(negative radicand) make y^2 + z^2
    # complex and often negative, where the branch matters; random complex
    # values cover the other quadrants. The reference is r2 ** 1.25 on the
    # principal branch at 40 digits; numpy's own complex power is up to
    # ~12 ulp off it, so it only confirms the branch
    rng = np.random.default_rng(5)
    z = np.sqrt(-np.geomspace(1e-6, 1e2, 300).astype(complex))
    r2 = np.concatenate((0.025 ** 2 + z * z, 0.475 ** 2 + z * z,
                         (rng.standard_normal(300) + 1j * rng.standard_normal(300))
                         * 10.0 ** rng.uniform(-3.0, 3.0, 300)))
    assert np.any(r2.real < 0.0) and np.any(r2.real > 0.0)
    with mpmath.workdps(40):
        exact = np.array([complex(mpmath.mpc(x.real, x.imag) ** mpmath.mpf(1.25))
                          for x in r2])
    got = _pow_five_quarters(r2)
    assert np.max(np.abs(got - exact) / np.spacing(np.abs(exact))) <= 4.0
    assert np.max(np.abs(got - r2 ** 1.25) / np.abs(exact)) < 1e-13


@pytest.mark.parametrize("column", [0, 1])
def test_reactive_roundtrip_exact(column):
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    # the far default probe of the second column outreaches the wavelength,
    # so that column pins a nearer pair
    beta_idx = 2 if column == 1 else None
    rng = np.random.default_rng(column)
    for _ in range(16):
        pose = AxialPose(rng.uniform(prior.z_min, prior.z_max),
                         rng.uniform(0.0, 1.0))
        v = noiseless_voltages(pose, geom, wave)
        res = solve(v, prior, geom, wave, beta_idx=beta_idx)
        assert res.region is Region.CASE1
        assert abs(res.z_hat - pose.distance) < 1e-10 * pose.distance
        assert abs(res.t_hat - pose.tilt) < 1e-10


@pytest.mark.parametrize("column", [0, 1])
def test_reactive_grid_rmse_vanishes(column):
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    rmse_z, rmse_t = _rmse_grid(region, prior, geom, wave, u=40, v=40)
    assert rmse_z < 1e-9
    assert rmse_t < 1e-9


def test_distant_pair_bias_envelope():
    # second-order range bias (y_a^2 + y_b^2) / (4 z^2); distance hits it
    # almost exactly, tilt stays under twice that
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-2, 0)
        geom = ArrayGeometry(lam * 10.0 ** rng.uniform(0.7, 1.5), lam / 2)
        wave = Wave(lam)
        scale = wave.amplitude * geom.pitch
        y_a = geom.element_center(1)
        y_b = geom.element_center(max(2, geom.n_elements // 2))
        z = rng.uniform(1.0, 3.0) * geom.aperture ** 2 / (2.0 * lam)
        t = rng.uniform(0.0, 0.95)
        va = axis_channel(z, t, y_a, wave, scale)
        vb = axis_channel(z, t, y_b, wave, scale)
        res = _solve_pair(Region.CASE2_PA, va, vb, y_a, y_b, geom, wave, False)
        eps = _relative_bias(geom, y_a, y_b, z)
        assert abs(res.z_hat - z) / z <= 1.05 * eps + 1e-12
        assert abs(res.t_hat - t) <= 2.5 * eps + 1e-12


def test_adjacent_pair_bias_envelope():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-2, 0)
        pitch = lam * 10.0 ** rng.uniform(-0.6, 0.7)
        geom = ArrayGeometry(pitch * int(rng.integers(4, 40)), pitch)
        wave = Wave(lam)
        scale = wave.amplitude * geom.pitch
        y_1, y_2 = 0.5 * pitch, 1.5 * pitch
        d_sc = max(pitch * pitch / lam, 3.6 * pitch)
        z = rng.uniform(1.0, 10.0) * d_sc
        t = rng.uniform(0.0, 0.95)
        v1 = axis_channel(z, t, y_1, wave, scale)
        v2 = axis_channel(z, t, y_2, wave, scale)
        res = _solve_pair(Region.CASE2_PA, v1, v2, y_1, y_2, geom, wave, False)
        eps = _relative_bias(geom, y_1, y_2, z)
        assert abs(res.z_hat - z) / z <= 1.05 * eps + 1e-12
        assert abs(res.t_hat - t) <= 2.5 * eps + 1e-12


@pytest.mark.parametrize("column", [2, 3, 4])
def test_distant_pair_benchmark_bias_small(column):
    # on the distant-pair benchmark columns the worst-case relative range
    # bias stays under 3.5e-3
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    y_a = geom.element_center(1)
    y_b = geom.element_center(max(2, geom.n_elements // 2))
    eps = _relative_bias(geom, y_a, y_b, prior.z_min)
    assert eps <= 3.5e-3
    scale = wave.amplitude * geom.pitch
    va = axis_channel(prior.z_min, 0.3, y_a, wave, scale)
    vb = axis_channel(prior.z_min, 0.3, y_b, wave, scale)
    res = _solve_pair(Region.CASE2_PA, va, vb, y_a, y_b, geom, wave, False)
    assert abs(res.z_hat - prior.z_min) / prior.z_min <= 3.5e-3


def test_integer_period_law_distant_pair():
    # whole-period counts of the two probes differ by one exactly when the
    # principal phases are not in increasing order
    geom = ArrayGeometry(1.0, 0.05)
    wave = Wave(0.1)
    scale = wave.amplitude * geom.pitch
    y_a = geom.element_center(1)
    y_b = geom.element_center(geom.n_elements // 2)
    rng = np.random.default_rng(21)
    z = rng.uniform(5.0, 50.0, size=1000)
    t = rng.uniform(0.0, 1.0, size=1000)
    va = axis_channel(z, t, y_a, wave, scale)
    vb = axis_channel(z, t, y_b, wave, scale)
    da, db = decouple(va), decouple(vb)
    r_a = np.hypot(y_a, z)
    r_b = np.hypot(y_b, z)
    n_a = np.floor(wave.wavenumber * r_a / TWO_PI - da.theta / TWO_PI + 0.5)
    n_b = np.floor(wave.wavenumber * r_b / TWO_PI - db.theta / TWO_PI + 0.5)
    assert np.array_equal(n_b - n_a, np.where(db.theta > da.theta, 0.0, 1.0))


def test_integer_period_law_adjacent_pair():
    geom = ArrayGeometry(1.0, 0.05)
    wave = Wave(0.1)
    scale = wave.amplitude * geom.pitch
    y_1, y_2 = 0.5 * geom.pitch, 1.5 * geom.pitch
    rng = np.random.default_rng(22)
    z = rng.uniform(0.18, 2.0, size=1000)
    t = rng.uniform(0.0, 1.0, size=1000)
    d1 = decouple(axis_channel(z, t, y_1, wave, scale))
    d2 = decouple(axis_channel(z, t, y_2, wave, scale))
    n_1 = np.floor(wave.wavenumber * np.hypot(y_1, z) / TWO_PI
                   - d1.theta / TWO_PI + 0.5)
    n_2 = np.floor(wave.wavenumber * np.hypot(y_2, z) / TWO_PI
                   - d2.theta / TWO_PI + 0.5)
    assert np.array_equal(n_2 - n_1, np.where(d2.theta > d1.theta, 0.0, 1.0))


def test_wrapped_phase_difference_shift():
    geom = ArrayGeometry(4.0, 1.0)
    wave = Wave(0.1)
    y_a, y_b = 0.5, 1.5
    scale = (y_b ** 2 - y_a ** 2) / 2.0
    res = _solve_pair(Region.CASE2_PA, np.exp(1j * 3.0), np.exp(1j * 1.0),
                      y_a, y_b, geom, wave, False)
    assert res.z_hat == pytest.approx(wave.wavenumber * scale
                                      / (1.0 - 3.0 + TWO_PI))
    res = _solve_pair(Region.CASE2_PA, np.exp(1j * 1.0), np.exp(1j * 2.0),
                      y_a, y_b, geom, wave, False)
    assert res.z_hat == pytest.approx(wave.wavenumber * scale)


def test_vanishing_phase_difference_rejected():
    geom = ArrayGeometry(4.0, 1.0)
    wave = Wave(0.1)
    with pytest.raises(NonFinite):
        _solve_pair(Region.CASE2_PA, np.exp(1j * (TWO_PI - 1e-13)),
                    np.exp(1j * 1e-13), 0.5, 1.5, geom, wave, False)


def test_negative_radicand_and_diagnostic_mode():
    geom = ArrayGeometry(1.0, 0.05)
    wave = Wave(0.5)
    v_a = 0.5 * np.exp(1j * 1e-3)
    v_b = 0.4 * np.exp(1j * 2e-3)
    with pytest.raises(NegativeRadicand):
        _solve_pair(Region.CASE1, v_a, v_b, 0.025, 0.475, geom, wave, False)
    res = _solve_pair(Region.CASE1, v_a, v_b, 0.025, 0.475, geom, wave, True)
    assert res.diagnostic
    assert np.iscomplexobj(np.asarray(res.z_hat))
    assert np.imag(res.z_hat) != 0.0


def test_diagnostic_case1_is_complex_throughout():
    # Case I data (column 1): every radicand is >= 0, and the diagnostic
    # solve is complex with zero imaginary parts; its ranges equal the
    # plain solve's bit for bit, its tilts to two ulps (numpy divides
    # complex numbers by multiplying with a rounded reciprocal)
    geom, wave = ArrayGeometry(0.5, 0.05), Wave(1.0)
    y_a, y_b = geom.element_center(1), geom.element_center(10)
    z = np.linspace(0.5, 0.9, 9)[:, None]
    t = np.linspace(0.0, 0.9, 5)[None, :]
    scale = wave.amplitude * geom.pitch
    v_a = axis_channel(z, t, y_a, wave, scale=scale)
    v_b = axis_channel(z, t, y_b, wave, scale=scale)
    plain = _solve_pair(Region.CASE1, v_a, v_b, y_a, y_b, geom, wave, False)
    res = _solve_pair(Region.CASE1, v_a, v_b, y_a, y_b, geom, wave, True)
    assert np.iscomplexobj(res.z_hat) and np.iscomplexobj(res.t_hat)
    assert np.all(res.z_hat.imag == 0.0) and np.all(res.t_hat.imag == 0.0)
    assert np.array_equal(res.z_hat.real, plain.z_hat)
    np.testing.assert_array_max_ulp(res.t_hat.real, plain.t_hat, maxulp=2)
    # one negative radicand makes only its own cell's imaginary parts nonzero
    v_a[0, 0] = 0.5 * np.exp(1j * 1e-3)
    mixed = _solve_pair(Region.CASE1, v_a, v_b, y_a, y_b, geom, wave, True)
    assert mixed.z_hat[0, 0].imag != 0.0 and mixed.t_hat[0, 0].imag != 0.0
    rest = np.ones(mixed.z_hat.shape, dtype=bool)
    rest[0, 0] = False
    assert np.all(mixed.z_hat.imag[rest] == 0.0)
    assert np.all(mixed.t_hat.imag[rest] == 0.0)
    assert np.array_equal(mixed.z_hat[rest], res.z_hat[rest])


def test_dispatch_matches_region():
    for column, kind in ((0, Region.CASE1), (2, Region.CASE2_PA),
                         (5, Region.CASE2_SC)):
        _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
        z = 0.5 * (prior.z_min + prior.z_max)
        pose = AxialPose(z, 0.4)
        res = solve(noiseless_voltages(pose, geom, wave), prior, geom, wave)
        assert res.region is kind
        assert abs(res.z_hat - z) / z <= 0.05


@pytest.mark.parametrize("column", [5, 6, 7, 8])
def test_spacing_constraint_solve_is_phase_period_rule_at_elements_1_2(column):
    # Case II-SC is the phase-ambiguity rule read at the adjacent pair 1, 2.
    # The tilt quotient differences two terms that agree to about
    # t * pitch / z, so a one-ulp move of the range moves the tilt by up to
    # ~1e-12 on the last column: the tilt gets an absolute tolerance.
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    rng = np.random.default_rng(column)
    for _ in range(16):
        pose = AxialPose(rng.uniform(prior.z_min, prior.z_max),
                         rng.uniform(0.0, 1.0))
        v = noiseless_voltages(pose, geom, wave)
        res = solve(v, prior, geom, wave)
        ref = _solve_pair(Region.CASE2_PA, v.values[0], v.values[1],
                          geom.element_center(1), geom.element_center(2), geom,
                          wave, False)
        assert res.region is Region.CASE2_SC
        assert res.z_hat == pytest.approx(ref.z_hat, rel=1e-12, abs=0.0)
        assert res.t_hat == pytest.approx(ref.t_hat, abs=1e-10)


def test_non_integer_probe_indices_are_invariant_violations():
    # on the Case II-PA column (lambda 0.1, aperture 1, pitch 0.05, prior
    # [5, 20]) a fractional index raised a bare IndexError, and on the
    # Case II-SC column a fractional alpha was ignored; numpy integers pass
    for column, alpha, beta in ((2, 1.5, None), (2, 1, 10.5), (5, 1.5, None)):
        _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
        v = noiseless_voltages(AxialPose(prior.z_min, 0.4), geom, wave)
        with pytest.raises(InvariantViolation,
                           match="element indices must be integers"):
            solve(v, prior, geom, wave, alpha_idx=alpha, beta_idx=beta)
        with pytest.raises(InvariantViolation,
                           match="element indices must be integers"):
            probe_elements(geom, alpha, beta, Region.CASE2_SC)
        plain = solve(v, prior, geom, wave, alpha_idx=1, beta_idx=10)
        got = solve(v, prior, geom, wave, alpha_idx=np.int64(1),
                    beta_idx=np.int32(10))
        assert (got.z_hat, got.t_hat, got.region) == (plain.z_hat, plain.t_hat,
                                                      plain.region)


def test_dispatch_rejects_unsupported_prior():
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[1])
    v = noiseless_voltages(AxialPose(0.3, 0.2), geom, wave)
    with pytest.raises(UnsupportedRegion):
        solve(v, prior, geom, wave)  # default far probe outreaches the prior
    with pytest.raises(UnsupportedRegion):
        solve(v, UniformPrior(0.05, 0.1), ArrayGeometry(1.0, 0.05), Wave(0.1))


def test_rmse_grid_validation():
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[2])
    with pytest.raises(InvariantViolation):
        _rmse_grid(Region.CASE2_PA, prior, geom, wave, u=1, v=8)


def test_rmse_grid_mismatch_is_complex():
    _, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[2])
    rmse_z, rmse_t = _rmse_grid(Region.CASE2_PA, prior, geom, wave,
                                u=8, v=8, mismatch=Region.CASE1)
    assert isinstance(rmse_z, complex) and isinstance(rmse_t, complex)
    assert abs(rmse_z) > 0.0


def _one_array_rmse(case, prior, geom, wave, u, v, mismatch=None):
    # the whole u-by-v grid in one array pass: the unblocked formula
    diagnostic = mismatch is not None
    z = np.linspace(prior.z_min, prior.z_max, u)[:, None]
    t = np.linspace(0.0, 1.0, v, endpoint=False)[None, :]
    kind = mismatch if diagnostic else case
    a, b = probe_elements(geom, 1, None, kind)
    v_a, v_b = (axis_channel(z, t, geom.element_center(n), wave,
                             scale=wave.amplitude * geom.pitch) for n in (a, b))
    res = _solve_pair(kind, v_a, v_b, geom.element_center(a),
                      geom.element_center(b), geom, wave, diagnostic)
    err_z = np.broadcast_to(np.asarray(res.z_hat) - z, (u, v))
    err_t = np.broadcast_to(np.asarray(res.t_hat) - t, (u, v))
    return np.sqrt(np.mean(err_z ** 2)), np.sqrt(np.mean(err_t ** 2))


def _recording_probes(monkeypatch):
    # the distance rows of every probe factor rmse_grids forms (two a
    # chunk), and the shape of every per-cell phase grid it reads
    rows, cells = [], []

    def factor(z, y, wave, scale=1.0):
        out = axis_factor(z, y, wave, scale)
        rows.append(out.shape[0])
        return out

    def phase(c, gain, *offsets):
        out = _gain_phase(c, gain, *offsets)
        cells.append(out.shape)
        return out

    monkeypatch.setattr(solver_module, "axis_factor", factor)
    monkeypatch.setattr(solver_module, "_gain_phase", phase)
    return rows, cells


def _block_and_chunk_rows(v):
    # the rows of one block and of one chunk of whole blocks at v columns
    step = max(1, solver_module._BLOCK_CELLS // v)
    return step, step * max(1, solver_module._CHUNK_ROWS // step)


# (column, mismatch): Case II-SC data under its own solver (real RMSE) and
# Case II-PA data under the Case I solver (diagnostic, complex RMSE)
BLOCKED_CASES = ((5, None), (2, Region.CASE1))


@pytest.mark.parametrize("block", [5 * 23, 200, 10])
@pytest.mark.parametrize("column, mismatch", BLOCKED_CASES)
def test_blocked_rmse_grid_matches_one_array_pass(monkeypatch, column, mismatch,
                                                  block):
    # 37 rows of 23 cells in chunks of at most 12 rows: blocks of 5 rows
    # make chunks of 10 and blocks of 8 chunks of 8, both with a ragged
    # last chunk and block, and a block smaller than a row takes one row
    # at a time, 12 to a chunk
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    u, v = 37, 23
    ref = _one_array_rmse(region, prior, geom, wave, u, v, mismatch)
    monkeypatch.setattr(solver_module, "_BLOCK_CELLS", block)
    monkeypatch.setattr(solver_module, "_CHUNK_ROWS", 12)
    step, chunk = _block_and_chunk_rows(v)
    rows, cells = _recording_probes(monkeypatch)
    got = _rmse_grid(region, prior, geom, wave, u=u, v=v, mismatch=mismatch)
    # each probe row formed once, one factor call per element and chunk
    assert sum(rows) == 2 * u and max(rows) == chunk
    assert len(rows) == 2 * -(-u // chunk)
    assert cells and all(shape[1] == v for shape in cells)
    assert max(shape[0] for shape in cells) == step
    if mismatch is None:
        assert all(isinstance(x, float) for x in got)
    else:
        assert all(isinstance(x, complex) and x.imag != 0.0 for x in got)
    assert got[0] == pytest.approx(complex(ref[0]), rel=1e-12, abs=0.0)
    assert got[1] == pytest.approx(complex(ref[1]), rel=1e-12, abs=0.0)


# every Table 2 pairing: each column under its own solver, then the
# mismatch pairings
TABLE2_PAIRINGS = ([(column, None) for column in range(len(TABLE2_COLUMNS))]
                   + [(TABLE2_COLUMNS.index(col), kind)
                      for col, kind in TABLE2_MISMATCH])


@pytest.mark.parametrize("u, v, block", [(24, 24, solver_module._BLOCK_CELLS),
                                         (37, 23, 5 * 23)])
@pytest.mark.parametrize("column, mismatch", TABLE2_PAIRINGS)
def test_rmse_grid_matches_the_per_cell_solve(monkeypatch, column, mismatch,
                                              u, v, block):
    # each cell's range comes from its own phase, as the solvers read it
    # off the voltage, so in one block rmse_z is the one-array value bit
    # for bit; more blocks only regroup its sum. The tilt is solved per
    # row, at the range from the factor's phase, a few ulps off the
    # cells' ranges; the tilt quotient magnifies that most on the
    # lambda 0.01 phase-ambiguity column, whose rmse_t of 3.6e-6 moves by
    # 4.3e-15 at 37 x 23. So rmse_t agrees to 1e-12 relative or 1e-14
    # absolute; the exactly solved Case I columns read ~1e-16
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    ref = _one_array_rmse(region, prior, geom, wave, u, v, mismatch)
    monkeypatch.setattr(solver_module, "_BLOCK_CELLS", block)
    got = _rmse_grid(region, prior, geom, wave, u=u, v=v, mismatch=mismatch)
    if u * v <= block:
        assert got[0] == complex(ref[0])
    else:
        assert got[0] == pytest.approx(complex(ref[0]), rel=1e-14, abs=0.0)
    assert got[1] == pytest.approx(complex(ref[1]), rel=1e-12, abs=1e-14)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("column, mismatch", BLOCKED_CASES)
def test_rmse_grid_memory_does_not_grow_with_the_grid(column, mismatch):
    # a whole-grid pass peaks at 66.6 MB (Case II-SC) and 97.4 MB
    # (diagnostic) on an 800 x 800 grid
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])

    def peak(u):
        return _peak_bytes(lambda: _rmse_grid(region, prior, geom, wave, u=u,
                                              v=800, mismatch=mismatch))

    assert peak(800) < 8e6
    # four times the rows add only the u-long distance axis (8 bytes a row)
    assert peak(1600) <= peak(400) + 64 * 1024


# each Table 2 column with its mismatched solvers, one pass each as the
# table2 preset scores them, and the per-cell phase grids a block of that
# pass forms: Case I reads element 1, Case II-PA data under their own and
# the Case I solver read 1 and N/2, Case II-SC data under their own and
# the Case II-PA solver read 1, 2 and N/2
TABLE2_PASSES = [(column, (None,) + tuple(kind for col, kind in TABLE2_MISMATCH
                                          if col == TABLE2_COLUMNS[column]))
                 for column in range(len(TABLE2_COLUMNS))]
PHASE_GRIDS = {Region.CASE1: 1, Region.CASE2_PA: 2, Region.CASE2_SC: 3}


@pytest.mark.parametrize("u, v, block", [(24, 24, solver_module._BLOCK_CELLS),
                                         (37, 23, 5 * 23)])
@pytest.mark.parametrize("column, solvers", TABLE2_PASSES)
def test_joint_pass_equals_each_solvers_own_call(monkeypatch, column, solvers,
                                                 u, v, block):
    # one pass over shared probe factors and phase grids gives every solver
    # its own one-solver result bit for bit (repr tells -0.0, float and
    # complex apart); at 37 x 23 the last of 8 blocks holds 2 rows, and
    # chunks of at most 12 rows hold 2 blocks (10 rows), the last 7 rows
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    monkeypatch.setattr(solver_module, "_BLOCK_CELLS", block)
    monkeypatch.setattr(solver_module, "_CHUNK_ROWS", 12)
    alone = [_rmse_grid(region, prior, geom, wave, u=u, v=v, mismatch=kind)
             for kind in solvers]
    rows, cells = _recording_probes(monkeypatch)
    joint = rmse_grids(region, prior, geom, wave, u, v, solvers)
    assert repr(joint) == repr(alone)
    step, chunk = _block_and_chunk_rows(v)
    blocks, chunks = -(-u // step), -(-u // chunk)
    elements = 3 if region is Region.CASE2_SC else 2
    assert sum(rows) == elements * u and len(rows) == elements * chunks
    assert len(cells) == PHASE_GRIDS[region] * blocks


@pytest.mark.parametrize("column, solvers", TABLE2_PASSES)
def test_rmse_grids_equal_the_per_block_oracle(monkeypatch, column, solvers):
    # row work per chunk and cell work per block give the block-by-block
    # pass bit for bit: 37 x 23 in blocks of 5 rows, the last of 2
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    monkeypatch.setattr(solver_module, "_BLOCK_CELLS", 5 * 23)
    assert (repr(rmse_grids(region, prior, geom, wave, 37, 23, solvers))
            == repr(rmse_grids_per_block(region, prior, geom, wave, 37, 23,
                                         solvers)))


def _bits(x):
    # float.hex of a result, of both parts when complex
    return (f"{x.real.hex()} {x.imag.hex()}j" if isinstance(x, complex)
            else x.hex())


# every result of the nine Table 2 passes on 61 x 47 in blocks of 5 rows
# and chunks of 10 (the last chunk one row), bit for bit: neither the
# per-row phase offsets nor the real diagnostic root may move them
TABLE2_BITS = (
    [("0x1.99794e9b8a747p-54", "0x1.66fcf65bbbc94p-51")],
    [("0x1.2f8acc5e6b915p-55", "0x1.0ae99d89a7b54p-52")],
    [("0x1.75ce8e82a58e7p-8", "0x1.9ca085282073ap-11"),
     ("0x1.a76ec41d6654dp+3 -0x1.8946977a00af9p-7j",
      "0x1.eb10abd6656ecp-2 0x1.1ae35799f6cd6p-5j")],
    [("0x1.8934b8f1bbbb2p-8", "0x1.ca439b0f86519p-13"),
     ("0x1.a813515505193p+5 -0x1.8258a88b97a33p-6j",
      "0x1.02d5a04108337p-1 0x1.aa5ed67f41ce4p-5j")],
    [("0x1.b9bcad561adf1p-11", "0x1.ea762009dc4e7p-19"),
     ("0x1.31afd4c68544ep+8 -0x1.8c022becbd176p-6j",
      "0x1.1e3d898a53100p-1 0x1.23e75f8da4f84p-7j")],
    [("0x1.d95fe0e029b90p-10", "0x1.4b7652963bf72p-8"),
     ("0x1.6e090a04af84bp+3 0x0.0p+0j", "0x1.23c88d60faf87p+8 0x0.0p+0j")],
    [("0x1.3c72d04a183fap-8", "0x1.9c5cb5b0bbb75p-8"),
     ("0x1.6b420cdad70cep+1 0x0.0p+0j", "0x1.0662fd8dc3aeep+5 0x0.0p+0j")],
    [("0x1.9d17d807eeac6p-11", "0x1.1c5cb52df558fp-9"),
     ("0x1.975979a4c0acfp+8 0x0.0p+0j", "0x1.bce1f8f77a01ap+11 0x0.0p+0j")],
    [("0x1.c3ba94fed61c6p-14", "0x1.12d257aab9b02p-8"),
     ("0x1.aa3a2df647377p+6 0x0.0p+0j", "0x1.07b2cc10a724bp+14 0x0.0p+0j")],
)


@pytest.mark.parametrize("column, solvers", TABLE2_PASSES)
def test_table2_passes_are_frozen_bit_for_bit(monkeypatch, column, solvers):
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[column])
    monkeypatch.setattr(solver_module, "_BLOCK_CELLS", 5 * 47)
    monkeypatch.setattr(solver_module, "_CHUNK_ROWS", 12)
    got = rmse_grids(region, prior, geom, wave, 61, 47, solvers)
    assert [tuple(_bits(x) for x in pair) for pair in got] == \
        TABLE2_BITS[column]


@pytest.mark.parametrize("data, solvers, setup, u", [
    # Case II-SC data under their own and the phase-ambiguity solver, and
    # Case II-PA data under their own and the Case I solver: at 400
    # columns, chunks of 6 blocks of 40 rows, the last chunk of 2 blocks,
    # the last block of 10 rows
    (5, (None, Region.CASE2_PA), None, 530),
    (2, (None, Region.CASE1), None, 530),
    # Case II-PA data under the Case I solver on narrow priors, where only
    # some radicands are negative
    (2, (Region.CASE1,), (0.1, 1.0, 0.05, 5.05, 5.1), 600),
    (2, (Region.CASE1,), (0.07, 1.0, 0.05, 1.074709263010234, 1.0967), 300),
])
def test_rmse_grids_equal_the_per_block_oracle_over_chunks(data, solvers,
                                                           setup, u):
    region, wave, geom, prior = benchmark_setup(
        SOLVER_BENCHMARK[data][:1] + (setup or SOLVER_BENCHMARK[data][1:6]))
    assert u > _block_and_chunk_rows(400)[1]
    assert (repr(rmse_grids(region, prior, geom, wave, u, 400, solvers))
            == repr(rmse_grids_per_block(region, prior, geom, wave, u, 400,
                                         solvers)))


def test_joint_pass_memory_does_not_grow_with_the_grid():
    # Case II-SC data under their own and the phase-ambiguity solver hold
    # three phase grids a block, one more than a one-solver pass
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[8])

    def peak(u):
        return _peak_bytes(lambda: rmse_grids(region, prior, geom, wave, u, 800,
                                              (None, Region.CASE2_PA)))

    assert peak(800) < 8e6
    assert peak(1600) <= peak(400) + 64 * 1024


def test_gain_phase_checks_each_row_at_its_largest_gain():
    # multiplication rounds monotonically, so a row's products are finite
    # when the one at its largest gain is, and the phase is decouple's
    c = np.array([[1e300 + 1e300j], [3.0 - 4.0j]])
    gain = np.array([[0.5, 1.0, 2.0], [0.0, 7.0, 1e-3]])
    expected = decouple(c * gain).theta
    # _gain_phase overwrites its gain, so it gets a copy
    assert np.array_equal(_gain_phase(c, gain.copy()).view(np.uint64),
                          expected.view(np.uint64))
    overflow = gain.copy()
    overflow[0, 1] = 1e9  # 1e309: only the row's largest product overflows
    nan = gain.copy()
    nan[1, 2] = np.nan
    for bad in (overflow, nan):
        with np.errstate(over="ignore"), pytest.raises(NonFinite):
            _gain_phase(c, bad)


TINY = np.nextafter(0.0, 1.0)


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


# factors whose imaginary part does not fix the sign of the raw phase: a
# signed zero under a real part of either sign, or so small that its
# product with a gain up to 1/2 rounds to zero; and two that do
EDGE_FACTORS = [complex(re, im) for re in (3.0, -3.0, 0.0, -0.0)
                for im in (0.0, -0.0, TINY, -TINY, 4.0, -4.0)]


@pytest.mark.parametrize("gains", [[0.0, 0.25, 0.5, 0.75, 7.0],
                                   [0.75, 1.0, 7.0], [0.0, 0.0]])
def test_gain_phase_wraps_edge_rows_as_decouple(gains):
    gain = np.array([gains] * len(EDGE_FACTORS))
    c = np.array(EDGE_FACTORS)[:, None]
    expected = decouple(c * gain).theta
    # all rows at once, and each row alone, with offsets from its own
    # gains and from looser bounds
    assert _same_bits(_gain_phase(c, gain.copy()), expected)
    for n in range(len(c)):
        row, g = c[n:n + 1], gain[n:n + 1]
        assert _same_bits(_gain_phase(row, g.copy()), expected[n:n + 1])
        offsets = _phase_offsets(row, 0.5 * g.min(axis=1, keepdims=True),
                                 2.0 * g.max(axis=1, keepdims=True))
        assert _same_bits(_gain_phase(row, g.copy(), offsets),
                          expected[n:n + 1]), c[n, 0]


def test_phase_offsets_hold_only_where_the_sign_is_known():
    def offsets(c, lo):
        return _phase_offsets(np.array([[c]]), np.array([[lo]]),
                              np.array([[7.0]]))

    assert offsets(3.0 + 4.0j, 0.0) == 0.0
    assert offsets(-3.0 - 4.0j, 0.5) == TWO_PI
    # -TINY * 0.5 rounds to -0.0, -TINY * 0.75 to -TINY; but under a
    # positive real part the phase of -TINY + 2.25j rounds to -0.0 too
    assert offsets(-3.0 - TINY * 1j, 0.5) is None
    assert offsets(-3.0 - TINY * 1j, 0.75) == TWO_PI
    assert offsets(3.0 - TINY * 1j, 0.75) is None
    assert offsets(3.0 - 1e-290j, 1.0) == TWO_PI
    assert offsets(-3.0 - 4.0j, 0.0) is None
    for im in (0.0, -0.0):
        for re in (3.0, -3.0):
            assert offsets(complex(re, im), 1.0) is None
    # a product past the float range at the upper bound
    assert _phase_offsets(np.array([[1e300 + 1j]]), np.array([[1.0]]),
                          np.array([[1e9]])) is None


def test_grid_phases_at_edge_rows_equal_decouple(monkeypatch):
    # the first chunk's factors at rows 1-6 take edge values; every phase
    # grid of the pass, through the chunk's per-row offsets or without
    # them, is decouple's phase of the cells' voltages c (y t + z s). On
    # column 1's prior the gains span 0.14-0.9, so -TINY g rounds to zero
    # in some cells of a row and not in others
    region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[0])
    monkeypatch.setattr(solver_module, "_BLOCK_CELLS", 5 * 23)
    monkeypatch.setattr(solver_module, "_CHUNK_ROWS", 12)
    edges = [complex(3.0, 0.0), complex(-3.0, -0.0), complex(3.0, -0.0),
             complex(-3.0, -TINY), complex(3.0, -TINY), complex(-0.0, -0.0)]
    passed = []

    def factor(z, y, wave, scale=1.0):
        out = axis_factor(z, y, wave, scale)
        if z[0, 0] == prior.z_min:
            out[1:1 + len(edges), 0] = edges
        return out

    def phase(c, gain, *offsets):
        expected = decouple(c * gain).theta
        out = _gain_phase(c, gain, *offsets)
        assert _same_bits(out, expected)
        passed.append(offsets[0] is not None)
        return out

    monkeypatch.setattr(solver_module, "axis_factor", factor)
    monkeypatch.setattr(solver_module, "_gain_phase", phase)
    rmse_grids(region, prior, geom, wave, 37, 23, (Region.CASE1,))
    # the first chunk's two blocks without offsets, the other six with
    assert passed == [False] * 2 + [True] * 6


def test_complex_root_is_numpys_complex_root():
    r = np.array([0.0, -0.0, TINY, -TINY, 2.5, -2.5, 1e300, -1e300])
    expected = np.sqrt(r.astype(complex))
    assert _same_bits(_complex_root(r.copy()), expected)
    for x, e in zip(r, expected):
        assert _same_bits(np.array([_complex_root(np.array(x))[()]]),
                          np.array([e]))
    # a diagnostic Case I solve whose radicands are all >= 0 is complex,
    # its range the plain solve's with a zero imaginary part
    geom, wave = ArrayGeometry(0.5, 0.05), Wave(1.0)
    y_a, y_b = geom.element_center(1), geom.element_center(10)
    v_a, v_b = (axis_channel(0.7, 0.3, y, wave, scale=wave.amplitude * 0.05)
                for y in (y_a, y_b))
    plain = _solve_pair(Region.CASE1, v_a, v_b, y_a, y_b, geom, wave, False)
    res = _solve_pair(Region.CASE1, v_a, v_b, y_a, y_b, geom, wave, True)
    assert isinstance(res.z_hat, complex) and isinstance(res.t_hat, complex)
    assert res.z_hat == plain.z_hat and np.signbit(res.z_hat.imag) == 0


def test_rmse_grid_check_failing_in_a_later_block_raises(monkeypatch):
    # Case I data on a prior reaching past the wavelength: the first rows
    # solve, but near z = lambda the principal phase range falls below the
    # probe offset and the radicand turns negative
    _, wave, geom, _ = benchmark_setup(SOLVER_BENCHMARK[0])
    prior = UniformPrior(0.5, 1.6)
    with pytest.raises(NegativeRadicand):
        _rmse_grid(Region.CASE1, prior, geom, wave, u=45, v=16)
    monkeypatch.setattr(solver_module, "_BLOCK_CELLS", 16)
    monkeypatch.setattr(solver_module, "_CHUNK_ROWS", 4)
    events = []
    monkeypatch.setattr(solver_module, "axis_factor",
                        lambda z, *args: events.append(len(z))
                        or axis_factor(z, *args))
    monkeypatch.setattr(solver_module, "_gain_phase",
                        lambda c, gain, *offsets: events.append(gain.shape)
                        or _gain_phase(c, gain, *offsets))
    with pytest.raises(NegativeRadicand):
        _rmse_grid(Region.CASE1, prior, geom, wave, u=45, v=16)
    # one row a block and four a chunk, two probe factors a chunk and one
    # phase grid a block: the chunks before the failing one were solved
    # whole, the failing chunk stopped before its last block, and no rows
    # after it were formed
    starts = [n for n, event in enumerate(events) if event == 4][::2]
    assert len(starts) >= 2 and len(starts) * 4 < 45
    grids = [events[a + 2:b] for a, b in zip(starts, starts[1:] + [None])]
    assert all(grid == [(1, 16)] * 4 for grid in grids[:-1])
    assert all(shape == (1, 16) for shape in grids[-1]) and len(grids[-1]) < 4


def test_adjacent_pair_grid_converges_to_reference():
    # pins the 2000-by-2000 linspace value of the last benchmark column,
    # the grid its reference digits agree with. That value is not
    # converged: 6000 rows give 1.62e-5 / 4.31e-4 and the prior average
    # 1.35e-5 / 1.89e-4 (acceptance criterion 1)
    region, wave, geom, prior, ref_z, ref_t = (
        benchmark_setup(SOLVER_BENCHMARK[8]) + SOLVER_BENCHMARK[8][6:])
    rmse_z, rmse_t = _rmse_grid(region, prior, geom, wave, u=2000, v=2000)
    assert rmse_z == pytest.approx(ref_z, rel=0.05)
    assert rmse_t == pytest.approx(ref_t, rel=0.05)


def test_rmse_grid_matches_pointwise_solve():
    unsupported = []
    for column, row in enumerate(SOLVER_BENCHMARK):
        region, wave, geom, prior = benchmark_setup(row)
        try:
            matches = classify_region(prior, geom, wave) is region
        except UnsupportedRegion:
            matches = False
        if not matches:
            unsupported.append(column)
            continue
        rmse_z, rmse_t = _rmse_grid(region, prior, geom, wave, u=5, v=4)
        err_z, err_t = [], []
        for z in np.linspace(prior.z_min, prior.z_max, 5):
            for t in np.linspace(0.0, 1.0, 4, endpoint=False):
                pose = AxialPose(float(z), float(t))
                res = solve(noiseless_voltages(pose, geom, wave), prior, geom,
                            wave)
                err_z.append(res.z_hat - z)
                err_t.append(res.t_hat - t)
        assert rmse_z == pytest.approx(np.sqrt(np.mean(np.square(err_z))),
                                       rel=1e-8, abs=1e-12), column
        assert rmse_t == pytest.approx(np.sqrt(np.mean(np.square(err_t))),
                                       rel=1e-8, abs=1e-12), column
    # the second column's far default probe outreaches the wavelength
    assert unsupported == [1]
