"""The quadrature oracle, Q-function, tensor-grid expectation, and RNG stream
checks."""

import numpy as np
import pytest

from nfepm.errors import ConfigError, InvariantViolation, QuadratureFailure
from nfepm.geometry import ArrayGeometry, Region, UniformPrior, Wave
from nfepm.mapest import MapGrid, monte_carlo_mse
from nfepm.ecrb import ecrb
from nfepm.numerics import (MAX_CELLS, expect_uniform, q_function,
                            require_cells, stream)
from nfepm.solver import rmse_grids
from nfepm.zzb import ZZBGrid, zzb_z
from oracles import QuadratureSpec, integrate


def test_integrate_linear():
    assert abs(integrate(lambda x: x, 0.0, 1.0) - 0.5) < 1e-12


def test_integrate_reports_error_estimate():
    val, err = integrate(lambda x: x * x, 0.0, 2.0, with_error=True)
    assert abs(val - 8.0 / 3.0) < 1e-12
    assert 0.0 <= err < 1e-8


def test_integrate_far_tail_moment():
    # the large-aperture value of this integral is 8/(15 z)
    for z in (0.5, 2.0, 7.0):
        val = integrate(lambda y: z ** 5 / (y * y + z * z) ** 3.5, 0.0, 1e4 * z)
        assert abs(val - 8.0 / (15.0 * z)) < 1e-9 / z


def test_integrate_oscillatory_cancellation():
    assert abs(integrate(lambda x: np.cos(50.0 * x), 0.0, 2.0 * np.pi)) < 1e-10


def test_integrate_rejects_reversed_interval():
    with pytest.raises(InvariantViolation):
        integrate(lambda x: x, 1.0, 0.0)


def test_integrate_subdivision_budget():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=1)
    with pytest.raises(QuadratureFailure):
        integrate(lambda x: np.cos(50.0 * x), 0.0, 2.0 * np.pi, spec)


def test_quadrature_spec_validation():
    for abs_tol, rel_tol in ((0.0, 1e-11), (float("nan"), 1e-11),
                             (1e-11, float("nan"))):
        with pytest.raises(InvariantViolation):
            QuadratureSpec(abs_tol=abs_tol, rel_tol=rel_tol, max_subdivisions=10)
    with pytest.raises(InvariantViolation):
        QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=0)


def test_q_function_anchors():
    assert q_function(0.0) == 0.5
    assert abs(q_function(1.0) - 0.15865525393145707) < 1e-15
    # deep tail must underflow gracefully, not overflow or go NaN
    tail = q_function(40.0)
    assert np.isfinite(tail) and 0.0 <= tail < 1e-300


def test_q_function_symmetry_and_monotonicity():
    x = np.linspace(-5.0, 5.0, 41)
    q = q_function(x)
    assert np.all(np.diff(q) < 0)
    assert np.allclose(q + q_function(-x), 1.0, rtol=0.0, atol=1e-14)


def test_expect_uniform_constant():
    prior = UniformPrior(2.0, 5.0)
    assert expect_uniform(lambda z, t: np.ones_like(z + t), prior) == 1.0


def test_expect_uniform_linear_distance():
    # midpoint rule is exact on a linear integrand
    prior = UniformPrior(2.0, 5.0)
    assert abs(expect_uniform(lambda z, t: z, prior) - 3.5) < 1e-12


def test_expect_uniform_tilt_second_moment():
    prior = UniformPrior(1.0, 2.0)
    assert abs(expect_uniform(lambda z, t: t * t, prior) - 1.0 / 3.0) < 1e-3


def test_expect_uniform_second_order_convergence():
    prior = UniformPrior(1.0, 4.0)
    exact = (4.0 ** 3 - 1.0) / (3.0 * 3.0)
    coarse = abs(expect_uniform(lambda z, t: z * z, prior, 8, 2) - exact)
    fine = abs(expect_uniform(lambda z, t: z * z, prior, 64, 2) - exact)
    assert fine < coarse / 32.0


def test_stream_reproducible():
    assert np.array_equal(stream(42).standard_normal(8),
                          stream(42).standard_normal(8))


def test_stream_substreams_differ():
    a = stream(42).standard_normal(8)
    b = stream(42, 0).standard_normal(8)
    c = stream(42, 1).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(b, c)


def test_stream_spawn_key_contract():
    # substream i must be the generator seeded by (seed, spawn_key=(i,))
    ref = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(3,)))
    assert np.array_equal(stream(7, 3).standard_normal(4),
                          ref.standard_normal(4))


def test_stream_rejects_negative_seed_and_indices():
    for args in ((-1,), (3, -2), (0, 1, -1)):
        with pytest.raises(ConfigError, match="must be >= 0"):
            stream(*args)


@pytest.mark.parametrize("args", [(1.7,), (-0.5,), ("3",), (3, 2.0), (3, 1, "0"),
                                  (np.float64(2.0),), (None,)])
def test_stream_rejects_non_integer_seed_and_indices(args):
    # int() would take 1.7 as seed 1 and -0.5 as seed 0, past the >= 0 check
    with pytest.raises(InvariantViolation,
                       match="seed and stream indices must be integers"):
        stream(*args)


def test_stream_takes_numpy_integers():
    assert np.array_equal(stream(np.int64(7), np.int32(3)).standard_normal(4),
                          stream(7, 3).standard_normal(4))
    with pytest.raises(InvariantViolation, match="must be >= 0"):
        stream(np.int8(-1))


def test_every_array_request_is_capped():
    # each raises before it allocates: the over-cap requests here would
    # take tens of GiB
    require_cells("a grid at the cap", MAX_CELLS)
    # the ZZB grid at each of its caps: the offset nodes, one detection
    # grid at the default 64 distances, and the family block
    ZZBGrid(n_delta=MAX_CELLS)
    ZZBGrid(n_theta_t=MAX_CELLS // 64)
    ZZBGrid(n_theta_z=4096)
    prior, wave = UniformPrior(3.0, 5.0), Wave(0.1)
    fine = ArrayGeometry(5.0, 1e-9)
    requests = (
        lambda: require_cells("a grid over the cap", MAX_CELLS + 1),
        lambda: fine.n_elements,
        lambda: ArrayGeometry(1e300, 1e-300).n_elements,
        lambda: ZZBGrid(n_delta=MAX_CELLS + 1),
        lambda: ZZBGrid(n_theta_t=MAX_CELLS // 64 + 1),
        lambda: ZZBGrid(n_theta_z=4097),
        lambda: expect_uniform(lambda z, t: z, prior, MAX_CELLS, 2),
        lambda: rmse_grids(Region.CASE2_PA, UniformPrior(5.0, 20.0),
                           ArrayGeometry(1.0, 0.05), wave, MAX_CELLS, 2, (None,)),
        lambda: monte_carlo_mse(prior, ArrayGeometry(5.0, 0.1), wave, 30.0, 1, 0,
                                MapGrid(MAX_CELLS, 2)),
        lambda: monte_carlo_mse(prior, ArrayGeometry(5.0, 0.1), wave, 30.0,
                                MAX_CELLS, 0, MapGrid(8, 8, 0)),
    )
    for request in requests:
        with pytest.raises(ConfigError, match="over the cap"):
            request()


_PRIOR, _GEOM, _WAVE = UniformPrior(3.0, 5.0), ArrayGeometry(5.0, 0.1), Wave(0.1)


@pytest.mark.parametrize("request_sizes", [
    lambda: zzb_z(_PRIOR, 1e3, _GEOM, _WAVE, ZZBGrid(8.5, 4, 8)),
    lambda: ZZBGrid(n_theta_z=4.0),
    lambda: ZZBGrid(n_theta_t=8.5),
    lambda: ecrb(_PRIOR, 1e3, _GEOM, _WAVE, grid=(8.5, 8)),
    lambda: expect_uniform(lambda z, t: z, _PRIOR, 8, "8"),
    lambda: MapGrid(32.5, 16),
    lambda: MapGrid(32, 16, 1.5),
    lambda: monte_carlo_mse(_PRIOR, _GEOM, _WAVE, 30.0, 2, 0, MapGrid(32.5, 16)),
    lambda: rmse_grids(Region.CASE2_PA, _PRIOR, _GEOM, _WAVE, 10.5, 10, (None,)),
    lambda: rmse_grids(Region.CASE2_PA, _PRIOR, _GEOM, _WAVE, 10, None, (None,)),
], ids=["zzb_z", "n_theta_z", "n_theta_t", "ecrb",
        "expect_uniform", "map_n_z", "refine_levels", "monte_carlo_mse",
        "rmse_grid_u", "rmse_grid_v"])
def test_non_integer_grid_sizes_are_invariant_violations(request_sizes):
    with pytest.raises(InvariantViolation, match="sizes must be integers"):
        request_sizes()


def test_numpy_integer_grid_sizes_are_python_ints():
    # numpy integers are sizes too; the grids keep them as Python ints, so
    # the cell caps' products of them cannot wrap around
    for grid in (ZZBGrid(np.int64(8), np.int32(4), np.int16(8)),
                 MapGrid(np.int32(32), np.int64(16), np.int8(1))):
        assert all(type(size) is int for size in vars(grid).values())
    assert ZZBGrid(np.int64(8), 4, 8) == ZZBGrid(8, 4, 8)
    assert expect_uniform(lambda z, t: z, _PRIOR, np.int64(4), np.int32(2)) == \
        expect_uniform(lambda z, t: z, _PRIOR, 4, 2)
    grid = MapGrid(16, 8, 1)
    report = monte_carlo_mse(_PRIOR, _GEOM, _WAVE, 30.0, np.int32(3), np.int64(2), grid)
    assert type(report.trials) is int and type(report.seed) is int
    assert report == monte_carlo_mse(_PRIOR, _GEOM, _WAVE, 30.0, 3, 2, grid)
