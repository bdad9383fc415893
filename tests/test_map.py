"""Grid-search MAP estimator and its Monte-Carlo harness."""

import importlib
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nfepm.channel import AxialPose, axis_factor
from nfepm.errors import InvariantViolation
from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
from nfepm.mapest import (_REFINE_CELLS, _TRIAL_BLOCK, DEFAULT_MAP_GRID,
                          MapGrid, MseReport, _coarse_scores, _map_search,
                          _patch_scores, monte_carlo_mse)
from nfepm.numerics import MAX_CELLS, TZ_EPS, stream
from nfepm.observation import (NoiseSpec, Voltages, add_noise, element_voltages,
                               noiseless_voltages, observe, sigma2_for_snr_db,
                               unit_noise)
from oracles import (coarse_model, coarse_scores_flat, log_likelihood,
                     patch_scores_dense)
from scenarios import THRESHOLD_GEOM, THRESHOLD_PRIOR, THRESHOLD_WAVE

mapest_module = importlib.import_module("nfepm.mapest")

GEOM = ArrayGeometry(0.5, 0.05)
WAVE = Wave(1.0)
PRIOR = UniformPrior(0.5, 0.9)


def _estimate(v, prior, geom, wave, grid):
    """The MAP estimate (z, t) of one voltage vector."""
    z_hat, t_hat = _map_search(prior, geom, wave, grid)(v.values[None])
    return z_hat[0], t_hat[0]


def test_grid_validation():
    with pytest.raises(InvariantViolation):
        MapGrid(1, 8)
    with pytest.raises(InvariantViolation):
        MapGrid(8, 8, refine_levels=-1)


def test_report_validation():
    with pytest.raises(InvariantViolation):
        MseReport(30.0, -1.0, 0.1, 0.0, 0.0, 10, 0)
    with pytest.raises(InvariantViolation):
        MseReport(30.0, 0.1, 0.1, 0.0, 0.0, 0, 0)


def test_log_likelihood_values():
    pose = AxialPose(0.7, 0.3)
    v = noiseless_voltages(pose, GEOM, WAVE)
    noise = NoiseSpec(0.5)
    assert log_likelihood(pose, v, GEOM, WAVE, noise) == 0.0
    off = AxialPose(0.75, 0.3)
    ll = log_likelihood(off, v, GEOM, WAVE, noise)
    assert ll < 0.0
    # the variance scales the log-likelihood inversely
    assert log_likelihood(off, v, GEOM, WAVE, NoiseSpec(0.25)) == pytest.approx(
        2.0 * ll, rel=1e-12)
    assert log_likelihood(pose, v, GEOM, WAVE, NoiseSpec(0.0)) == 0.0
    assert log_likelihood(off, v, GEOM, WAVE, NoiseSpec(0.0)) == -math.inf


def test_zero_noise_roundtrip_within_refined_cell():
    grid = MapGrid(32, 16, 3)
    cell_z = PRIOR.span / (grid.n_z - 1)
    cell_t = (1.0 - TZ_EPS) / (grid.n_t - 1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        pose = AxialPose(rng.uniform(0.52, 0.88), rng.uniform(0.05, 0.9))
        v = noiseless_voltages(pose, GEOM, WAVE)
        z_hat, t_hat = _estimate(v, PRIOR, GEOM, WAVE, grid)
        assert abs(z_hat - pose.distance) <= 0.05 * cell_z
        assert abs(t_hat - pose.tilt) <= 0.05 * cell_t


def test_estimate_stays_inside_prior_box():
    grid = MapGrid(16, 8, 2)
    for z, t in ((PRIOR.z_min, 0.0), (PRIOR.z_max, 0.97)):
        v = noiseless_voltages(AxialPose(z, t), GEOM, WAVE)
        z_hat, t_hat = _estimate(v, PRIOR, GEOM, WAVE, grid)
        assert PRIOR.z_min <= z_hat <= PRIOR.z_max
        assert 0.0 <= t_hat <= 1.0 - TZ_EPS


def test_monte_carlo_deterministic():
    grid = MapGrid(32, 16, 1)
    a = monte_carlo_mse(PRIOR, GEOM, WAVE, 30.0, trials=6, seed=9, grid=grid)
    b = monte_carlo_mse(PRIOR, GEOM, WAVE, 30.0, trials=6, seed=9, grid=grid)
    assert a == b
    c = monte_carlo_mse(PRIOR, GEOM, WAVE, 30.0, trials=6, seed=10, grid=grid)
    assert c != a


def test_monte_carlo_error_shrinks_with_snr():
    grid = MapGrid(64, 32, 2)
    low = monte_carlo_mse(PRIOR, GEOM, WAVE, 0.0, trials=8, seed=3, grid=grid)
    high = monte_carlo_mse(PRIOR, GEOM, WAVE, 60.0, trials=8, seed=3, grid=grid)
    assert high.mse_z < low.mse_z
    assert high.mse_t < low.mse_t


def test_monte_carlo_single_trial_and_validation():
    grid = MapGrid(16, 8, 0)
    report = monte_carlo_mse(PRIOR, GEOM, WAVE, 20.0, trials=1, seed=0,
                             grid=grid)
    assert report.trials == 1
    assert math.isnan(report.se_z) and math.isnan(report.se_t)
    assert report.mse_z >= 0.0 and report.mse_t >= 0.0
    with pytest.raises(InvariantViolation):
        monte_carlo_mse(PRIOR, GEOM, WAVE, 20.0, trials=0, seed=0, grid=grid)


@pytest.mark.parametrize("trials, seed", [(2.5, 0), ("3", 0), (2, 1.5), (2, "0")])
def test_monte_carlo_non_integer_trials_and_seeds_are_invariant_violations(trials, seed):
    with pytest.raises(InvariantViolation, match="trials and seed must be integers"):
        monte_carlo_mse(PRIOR, GEOM, WAVE, 20.0, trials, seed)


@pytest.mark.parametrize("geom, wave, prior", [
    (GEOM, WAVE, PRIOR),
    (ArrayGeometry(5.0, 0.1), Wave(0.1), UniformPrior(3.0, 5.0)),
])
def test_monte_carlo_equals_per_trial_estimates(geom, wave, prior):
    # 70 trials span nine scoring blocks of the harness
    grid, trials, seed = MapGrid(32, 16, 2), 70, 11
    for db in (0.0, 20.0, 40.0, 60.0):
        report = monte_carlo_mse(prior, geom, wave, db, trials, seed, grid)
        noise = NoiseSpec(sigma2_for_snr_db(wave, db), seed)
        rng = stream(seed)
        z_true = rng.uniform(prior.z_min, prior.z_max, trials)
        t_true = rng.uniform(0.0, 1.0, trials)
        sq_z, sq_t = np.empty(trials), np.empty(trials)
        for i in range(trials):
            v = observe(noiseless_voltages(AxialPose(z_true[i], t_true[i]),
                                           geom, wave), noise, trial=i)
            z_hat, t_hat = _estimate(v, prior, geom, wave, grid)
            sq_z[i] = (z_hat - z_true[i]) ** 2
            sq_t[i] = (t_hat - t_true[i]) ** 2
        assert (report.mse_z, report.mse_t) == (sq_z.mean(), sq_t.mean())


@pytest.mark.parametrize("geom, wave, prior", [
    (GEOM, WAVE, PRIOR), (THRESHOLD_GEOM, THRESHOLD_WAVE, THRESHOLD_PRIOR)])
def test_refinement_chunks_leave_estimates_unchanged(geom, wave, prior,
                                                     monkeypatch):
    # 70 trials refined in one chunk, and in chunks of 16 rows, the last
    # one short
    levels, trials, seed = [0.0, 20.0, 40.0, 60.0], 70, 11
    whole = monte_carlo_mse(prior, geom, wave, levels, trials, seed)
    monkeypatch.setattr(mapest_module, "_REFINE_CELLS", 16 * 7 * geom.n_elements)
    assert monte_carlo_mse(prior, geom, wave, levels, trials, seed) == whole


def _coarse_axes(prior, grid):
    return (np.linspace(prior.z_min, prior.z_max, grid.n_z),
            np.linspace(0.0, 1.0 - TZ_EPS, grid.n_t))


@pytest.mark.parametrize("geom, wave, prior, grid", [
    (GEOM, WAVE, PRIOR, DEFAULT_MAP_GRID),
    (THRESHOLD_GEOM, THRESHOLD_WAVE, THRESHOLD_PRIOR, MapGrid(37, 11))])
def test_coarse_model_equals_per_pose_voltages(geom, wave, prior, grid):
    # the (distance, tilt, element) broadcast against one row per grid
    # pose, distance-major, bit for bit
    z, t = _coarse_axes(prior, grid)
    zz, tt = np.meshgrid(z, t, indexing="ij")
    flat = element_voltages(zz.ravel()[:, None], tt.ravel()[:, None], geom, wave)
    assert np.array_equal(coarse_model(z, t, geom, wave), flat)


@pytest.mark.parametrize("geom, wave, prior", [
    (GEOM, WAVE, PRIOR), (THRESHOLD_GEOM, THRESHOLD_WAVE, THRESHOLD_PRIOR)])
def test_separable_scores_equal_dense_scores(geom, wave, prior):
    # the separable coarse scores against 2 Re(model . v*) - |model|^2 of
    # the dense model at 0-60 dB: within 1e-13 of each row's largest
    # |score|, with the same first argmax
    z, t = _coarse_axes(prior, DEFAULT_MAP_GRID)
    model = coarse_model(z, t, geom, wave)
    power = np.sum(np.abs(model) ** 2, axis=1)
    score = _coarse_scores(z, t, geom, wave)
    rng = stream(5)
    z_true = rng.uniform(prior.z_min, prior.z_max, 32)
    t_true = rng.uniform(0.0, 1.0, 32)
    clean = element_voltages(z_true[:, None], t_true[:, None], geom, wave)
    for db in range(0, 61, 10):
        noise = NoiseSpec(sigma2_for_snr_db(wave, db), 5)
        noisy = np.stack([observe(Voltages(v, geom), noise, trial=i).values
                          for i, v in enumerate(clean)])
        dense = 2.0 * (noisy.conj() @ model.T).real - power
        separable = score(noisy)
        row_max = np.max(np.abs(dense), axis=1, keepdims=True)
        assert np.all(np.abs(separable - dense) <= 1e-13 * row_max)
        assert np.array_equal(np.argmax(separable, axis=1),
                              np.argmax(dense, axis=1))


@pytest.mark.parametrize("rows", [_TRIAL_BLOCK, 3])
def test_per_trial_expansion_equals_the_flat_product(rows):
    # the tilt expansion, one (n_z, 5) x (5, n_t) product per trial,
    # against one flat (rows n_z, 5) x (5, n_t) product, bit for bit, on a
    # full trial block and a partial one
    z, t = _coarse_axes(THRESHOLD_PRIOR, DEFAULT_MAP_GRID)
    rng = stream(11)
    z_true = rng.uniform(THRESHOLD_PRIOR.z_min, THRESHOLD_PRIOR.z_max, rows)
    t_true = rng.uniform(0.0, 1.0, rows)
    clean = element_voltages(z_true[:, None], t_true[:, None], THRESHOLD_GEOM,
                             THRESHOLD_WAVE)
    unit = np.stack([unit_noise(11, i, clean.shape[1]) for i in range(rows)])
    noisy = add_noise(clean, unit, sigma2_for_snr_db(THRESHOLD_WAVE, 20.0))
    args = (z, t, THRESHOLD_GEOM, THRESHOLD_WAVE)
    scores = _coarse_scores(*args)(noisy)
    assert scores.shape == (rows, z.size * t.size)
    assert np.array_equal(scores, coarse_scores_flat(*args)(noisy))


def _numpy_uses_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _numpy_uses_openblas()),
                    reason="OpenBLAS worker threads on Linux only")
def test_monte_carlo_leaves_the_blas_worker_asleep():
    # with two OpenBLAS threads and the worker idle after a warm-up, a
    # Monte Carlo on the fig4 geometry runs on the calling thread: the
    # CPU time of every other thread stays under a quarter of the main
    # thread's, where a product large enough to wake the worker leaves it
    # spinning for the whole run (about as much CPU again)
    code = textwrap.dedent("""
        import time
        from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
        from nfepm.mapest import monte_carlo_mse
        args = (UniformPrior(3.0, 5.0), ArrayGeometry(5.0, 0.1), Wave(0.1),
                [0.0, 20.0, 40.0, 60.0], 60)
        monte_carlo_mse(*args, 0)
        time.sleep(0.5)
        process, thread = time.process_time(), time.thread_time()
        monte_carlo_mse(*args, 1)
        print(time.process_time() - process, time.thread_time() - thread)
    """)
    src = Path(mapest_module.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "2"
    probe = subprocess.run([sys.executable, "-c", code], cwd=src, env=env,
                           capture_output=True, text=True, check=True, timeout=120)
    process, thread = map(float, probe.stdout.split())
    assert process - thread <= 0.25 * thread, (process, thread)


@pytest.mark.parametrize("seed", [0, 4, 17])
def test_coarse_estimates_are_the_likelihood_argmax(seed):
    # with no refinement, every Monte Carlo estimate is the grid pose of
    # largest log-likelihood, the first such in distance-major order
    grid, trials = MapGrid(16, 8, 0), 12
    z, t = _coarse_axes(PRIOR, grid)
    poses = [AxialPose(zi, ti) for zi in z for ti in t]
    rng = stream(seed)
    z_true = rng.uniform(PRIOR.z_min, PRIOR.z_max, trials)
    t_true = rng.uniform(0.0, 1.0, trials)
    for db in (0.0, 30.0, 60.0):
        noise = NoiseSpec(sigma2_for_snr_db(WAVE, db), seed)
        est = np.empty((2, trials))
        for i in range(trials):
            v = observe(noiseless_voltages(AxialPose(z_true[i], t_true[i]),
                                           GEOM, WAVE), noise, trial=i)
            best = np.argmax([log_likelihood(p, v, GEOM, WAVE, noise)
                              for p in poses])
            est[:, i] = poses[best].distance, poses[best].tilt
        report = monte_carlo_mse(PRIOR, GEOM, WAVE, db, trials, seed, grid)
        sq_z, sq_t = (est - np.stack((z_true, t_true))) ** 2
        assert (report.mse_z, report.mse_t) == (sq_z.mean(), sq_t.mean())


def _poses_with_corners(prior, rng, n):
    """n poses drawn from the prior, then the four corners of the box."""
    z_true = np.concatenate((rng.uniform(prior.z_min, prior.z_max, n),
                             [prior.z_min, prior.z_min, prior.z_max, prior.z_max]))
    t_true = np.concatenate((rng.uniform(0.0, 1.0, n), [0.0, 1.0 - TZ_EPS] * 2))
    return z_true, t_true


def _noisy_rows(clean, seed, wave):
    """The rows at zero noise, at 0-60 dB and at 120 dB."""
    unit = np.stack([unit_noise(seed, i, clean.shape[1]) for i in range(len(clean))])
    yield clean
    for db in (*range(0, 61, 10), 120):
        yield add_noise(clean, unit, sigma2_for_snr_db(wave, db))


@pytest.mark.parametrize("geom, wave, prior", [
    (GEOM, WAVE, PRIOR), (THRESHOLD_GEOM, THRESHOLD_WAVE, THRESHOLD_PRIOR)])
def test_patch_scores_equal_dense_scores(geom, wave, prior):
    # the separable patch scores against -sum |candidate - v|^2 over the
    # candidates' voltages, on the cells of refinement levels 0-2, with
    # each patch centred within a cell of its true pose and the corner
    # poses' patches centred on the corners, so clipped: within 1e-12 of
    # each patch's largest |score|, with the same first argmax (patch rows
    # clipped to one distance tie in both forms)
    z, t = _coarse_axes(prior, DEFAULT_MAP_GRID)
    rng = stream(6)
    z_true, t_true = _poses_with_corners(prior, rng, 28)
    clean = element_voltages(z_true[:, None], t_true[:, None], geom, wave)
    offsets = np.linspace(-1.0, 1.0, 7)
    jitter = np.concatenate((rng.uniform(-1.0, 1.0, (2, 28)), np.zeros((2, 4))), axis=1)
    for level in range(3):
        cell_z, cell_t = (z[1] - z[0]) / 3 ** level, (t[1] - t[0]) / 3 ** level
        z_hat = np.clip(z_true + cell_z * jitter[0], prior.z_min, prior.z_max)
        t_hat = np.clip(t_true + cell_t * jitter[1], 0.0, 1.0 - TZ_EPS)
        zs = np.clip(z_hat[:, None] + cell_z * offsets, prior.z_min, prior.z_max)
        ts = np.clip(t_hat[:, None] + cell_t * offsets, 0.0, 1.0 - TZ_EPS)
        assert np.all(zs[-4:-2, :4] == prior.z_min)
        assert np.all(zs[-2:, 3:] == prior.z_max)
        assert np.all(ts[-4::2, :4] == 0.0)
        assert np.all(ts[-3::2, 3:] == 1.0 - TZ_EPS)
        for noisy in _noisy_rows(clean, 6, wave):
            dense = patch_scores_dense(zs, ts, noisy, geom, wave).reshape(len(zs), -1)
            separable = _patch_scores(zs, ts, noisy, geom, wave).reshape(len(zs), -1)
            patch_max = np.max(np.abs(dense), axis=1, keepdims=True)
            assert np.all(np.abs(separable - dense) <= 1e-12 * patch_max)
            assert np.array_equal(np.argmax(separable, axis=1),
                                  np.argmax(dense, axis=1))


@pytest.mark.parametrize("refine_levels", [2, 6])
@pytest.mark.parametrize("geom, wave, prior", [
    (GEOM, WAVE, PRIOR), (THRESHOLD_GEOM, THRESHOLD_WAVE, THRESHOLD_PRIOR)])
def test_search_equals_dense_refinement(geom, wave, prior, refine_levels,
                                        monkeypatch):
    # the search's estimates equal those of the same search refining with
    # the dense patch scores, from zero noise to 120 dB, the box corners
    # among the poses
    estimate = _map_search(prior, geom, wave, MapGrid(refine_levels=refine_levels))
    z_true, t_true = _poses_with_corners(prior, stream(8), 60)
    clean = element_voltages(z_true[:, None], t_true[:, None], geom, wave)
    rows = list(_noisy_rows(clean, 8, wave))
    separable = [estimate(noisy) for noisy in rows]
    monkeypatch.setattr(mapest_module, "_patch_scores", patch_scores_dense)
    for noisy, (z_hat, t_hat) in zip(rows, separable):
        z_dense, t_dense = estimate(noisy)
        assert np.array_equal(z_hat, z_dense) and np.array_equal(t_hat, t_dense)


def test_trial_block_scoring_peak_memory():
    # estimate scores one _TRIAL_BLOCK of rows at a time, as one real
    # (trial, grid) array, and refines one chunk of rows at a time, whose
    # (row, 7, N) arrays (the factors, the residuals and the temporaries
    # of forming them) take at most 80 bytes, five complex values, per
    # cell; four chunks of rows, scored or refined at once, take more
    n = THRESHOLD_GEOM.n_elements
    chunk_cells = _REFINE_CELLS // (7 * n) * 7 * n
    rows = 4 * (chunk_cells // (7 * n))
    estimate = _map_search(THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE,
                           DEFAULT_MAP_GRID)
    clean = noiseless_voltages(AxialPose(4.0, 0.4), THRESHOLD_GEOM, THRESHOLD_WAVE)
    noise = NoiseSpec(sigma2_for_snr_db(THRESHOLD_WAVE, 20.0), 3)
    noisy = np.stack([observe(clean, noise, trial=i).values for i in range(rows)])
    score_bytes = _TRIAL_BLOCK * DEFAULT_MAP_GRID.n_z * DEFAULT_MAP_GRID.n_t * 8
    tracemalloc.start()
    try:
        estimate(noisy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= score_bytes + 5 * 16 * chunk_cells


def test_sweep_scores_the_coarse_blocks_of_its_one_level_calls(monkeypatch):
    # a one-level call's last block may hold one row, whose product
    # OpenBLAS takes by gemv, rounding unlike gemm; so a sweep hands the
    # coarse scores exactly its one-level calls' blocks, none mixing levels
    blocks = []

    def recording(*args):
        score = _coarse_scores(*args)

        def recorded(noisy):
            blocks.append(noisy.copy())
            return score(noisy)

        return recorded

    monkeypatch.setattr(mapest_module, "_coarse_scores", recording)
    grid, levels, trials = MapGrid(16, 8, 1), [0.0, 30.0, 60.0], 17
    monte_carlo_mse(PRIOR, GEOM, WAVE, levels, trials, 4, grid)
    sweep, blocks[:] = blocks[:], []
    for db in levels:
        monte_carlo_mse(PRIOR, GEOM, WAVE, db, trials, 4, grid)
    assert [len(block) for block in sweep] == [8, 8, 1] * len(levels)
    assert len(blocks) == len(sweep)
    assert all(np.array_equal(a, b) for a, b in zip(sweep, blocks))


def test_sweep_scoring_peak_memory():
    # a sweep's rows, (trial, level, element), are scored one level and one
    # _TRIAL_BLOCK at a time and refined together, one chunk of rows at a
    # time, in the bound of one level's rows: 53 trials at 7 levels, 371
    # rows or four chunks
    n = THRESHOLD_GEOM.n_elements
    chunk_cells = _REFINE_CELLS // (7 * n) * 7 * n
    levels = range(0, 61, 10)
    trials = -(-4 * (chunk_cells // (7 * n)) // len(levels))
    estimate = _map_search(THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE,
                           DEFAULT_MAP_GRID)
    rng = stream(3)
    z_true = rng.uniform(THRESHOLD_PRIOR.z_min, THRESHOLD_PRIOR.z_max, trials)
    t_true = rng.uniform(0.0, 1.0, trials)
    clean = element_voltages(z_true[:, None], t_true[:, None], THRESHOLD_GEOM,
                             THRESHOLD_WAVE)
    unit = np.stack([unit_noise(3, i, n) for i in range(trials)])
    noisy = np.stack([add_noise(clean, unit, sigma2_for_snr_db(THRESHOLD_WAVE, db))
                      for db in levels], axis=1)
    score_bytes = _TRIAL_BLOCK * DEFAULT_MAP_GRID.n_z * DEFAULT_MAP_GRID.n_t * 8
    tracemalloc.start()
    try:
        z_hat, _ = estimate(noisy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z_hat.shape == (trials, len(levels))
    assert peak <= score_bytes + 5 * 16 * chunk_cells


def test_refinement_forms_each_distinct_patch_distance_once(monkeypatch):
    # the fig4 Monte Carlo (60 trials at 0-60 dB, seed 0) refines 7 x 60
    # rows twice, 5880 patch distances, in five chunks of at most 93
    # rows, trial-major; it forms axis_factor at the distinct distances of
    # each chunk, 2115 in all, and at the coarse grid's 256
    distances = []

    def counted(z, *args, **kwargs):
        distances.append(np.size(z))
        return axis_factor(z, *args, **kwargs)

    monkeypatch.setattr(mapest_module, "axis_factor", counted)
    monte_carlo_mse(THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE,
                    list(range(0, 61, 10)), 60, 0)
    assert distances[0] == DEFAULT_MAP_GRID.n_z
    assert len(distances) == 1 + 2 * 5
    assert sum(distances[1:]) == 2115


def test_search_build_allocates_less_than_one_score_block():
    # building the search keeps (distance, element) factors and the tilt
    # basis only; a dense model of the default grid would take 26 MB
    # complex on this geometry, and as many again as [Re | Im]
    grid = DEFAULT_MAP_GRID
    score_bytes = _TRIAL_BLOCK * grid.n_z * grid.n_t * 8
    tracemalloc.start()
    try:
        _map_search(THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < score_bytes


class _SearchBuilt(Exception):
    pass


def test_map_cell_cap_edge(monkeypatch):
    # the largest array of the default search is its (2N, 2 n_z)
    # distance factors, 4 x 256 x N cells, so it takes at most
    # 2^24 // 1024 = 16384 elements; one more is refused before anything
    # is allocated
    grid = DEFAULT_MAP_GRID
    assert _TRIAL_BLOCK == 8
    assert 4 * grid.n_z * 16384 <= MAX_CELLS < 4 * grid.n_z * 16385
    # a refinement chunk there is one row, 7 x N cells, and a trial
    # block's (8, grid) scores stay smaller
    assert _REFINE_CELLS // (7 * 16384) == 0
    assert 7 < 4 * grid.n_z and 8 * grid.n_z * grid.n_t < MAX_CELLS

    def built(*args):
        raise _SearchBuilt

    monkeypatch.setattr(mapest_module, "_coarse_scores", built)
    edge = ArrayGeometry(8192.0, 0.5)
    assert edge.n_elements == 16384
    with pytest.raises(_SearchBuilt):
        _map_search(PRIOR, edge, WAVE, grid)
    past = ArrayGeometry(8192.5, 0.5)
    assert past.n_elements == 16385
    tracemalloc.start()
    try:
        with pytest.raises(InvariantViolation, match="array cells"):
            _map_search(PRIOR, past, WAVE, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
