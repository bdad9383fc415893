"""Field and channel model checks: transversality, the reduction chain,
scalar/vector consistency, the reactive correction, and relative errors."""

import numpy as np
import pytest

from nfepm.channel import (DEGENERATE_KINDS, AxialPose, GeneralPose,
                           axis_channel, axis_factor, degenerate_channel,
                           general_channel,
                           nf_channel, rerr, scalar_green,
                           scaling_factor, simp_channel, vector_field)
from nfepm.errors import (InvariantViolation, NonPositiveDistance,
                          ValidityViolation)
from nfepm.geometry import ArrayGeometry, Wave
from nfepm.observation import noiseless_voltages
from scenarios import ACCURACY_WAVE, ACCURACY_Y

# sqrt(1 + 3/(2 pi)^2 + 9/(2 pi)^4) at range = wavelength
SCALING_AT_ONE_WAVELENGTH = 1.0400795655862167


def _random_general_pose(rng):
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    pos = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 5.0))
    return GeneralPose(position=pos, orientation=tuple(n))


def test_pose_validation():
    with pytest.raises(NonPositiveDistance):
        AxialPose(0.0, 0.5)
    with pytest.raises(InvariantViolation):
        AxialPose(1.0, 1.0)
    with pytest.raises(InvariantViolation):
        AxialPose(1.0, -0.1)
    with pytest.raises(InvariantViolation):
        GeneralPose((0.0, 0.0, 1.0), (0.0, 0.0, 1.1))
    with pytest.raises(NonPositiveDistance):
        GeneralPose((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))
    # non-finite poses, scalar and array alike
    for distance, tilt in ((np.inf, 0.5), (np.nan, 0.5), (1.0, np.nan),
                           (np.array([1.0, np.inf]), 0.5),
                           (np.array([1.0, 2.0]), np.array([0.1, np.nan]))):
        with pytest.raises(ValidityViolation):
            AxialPose(distance, tilt)
    for position, orientation in (((np.nan, 0.0, 1.0), (0.0, 0.0, 1.0)),
                                  ((0.0, np.inf, 1.0), (0.0, 0.0, 1.0)),
                                  ((0.0, 0.0, np.inf), (0.0, 0.0, 1.0)),
                                  ((0.0, 0.0, 1.0), (0.0, np.nan, 1.0))):
        with pytest.raises(ValidityViolation):
            GeneralPose(position, orientation)


def test_non_finite_observation_point_is_rejected():
    wave = Wave(0.3)
    axial, general = AxialPose(1.0, 0.4), GeneralPose((0.1, 0.2, 1.0))
    for x_r, y_r in ((np.nan, 0.0), (0.0, np.inf),
                     (np.array([0.0, -np.inf]), 0.5)):
        for call in (lambda: nf_channel(axial, x_r, y_r, wave),
                     lambda: general_channel(general, x_r, y_r, wave),
                     lambda: vector_field(general, x_r, y_r, wave),
                     lambda: simp_channel(axial, x_r, y_r, wave),
                     lambda: degenerate_channel("usw", axial, x_r, y_r, wave),
                     lambda: rerr("nfem", axial, x_r, y_r, wave)):
            with pytest.raises(ValidityViolation):
                call()


def test_axial_pose_transverse():
    pose = AxialPose(2.0, 0.6)
    assert pose.transverse == pytest.approx(0.8)
    # (0, transverse, tilt) passes GeneralPose's unit-norm check
    gen = GeneralPose((0.0, 0.0, pose.distance), (0.0, pose.transverse, pose.tilt))
    assert gen.orientation == pytest.approx((0.0, 0.8, 0.6))


def test_field_transversality():
    # radiated field has no component along the separation vector
    rng = np.random.default_rng(0)
    wave = Wave(0.3)
    for _ in range(300):
        pose = _random_general_pose(rng)
        x_r, y_r = rng.uniform(-3, 3, 2)
        e = vector_field(pose, x_r, y_r, wave)
        sep = np.array([x_r - pose.position[0], y_r - pose.position[1],
                        -pose.position[2]])
        proj = abs(e @ sep) / (np.linalg.norm(e) * np.linalg.norm(sep))
        assert proj < 1e-10


def test_reduction_chain():
    rng = np.random.default_rng(1)
    wave = Wave(0.2)
    for _ in range(200):
        z = rng.uniform(0.1, 4.0)
        t = rng.uniform(0.0, 0.999)
        x_r, y_r = rng.uniform(0.0, 2.0, 2)
        pose = AxialPose(z, t)
        general = general_channel(
            GeneralPose((0.0, 0.0, z), (0.0, float(pose.transverse), t)),
            x_r, y_r, wave)
        near = nf_channel(pose, x_r, y_r, wave)
        assert abs(general - near) <= 1e-12 * abs(near)

        on_axis = axis_channel(z, t, y_r, wave)
        near0 = nf_channel(pose, 0.0, y_r, wave)
        assert abs(near0 - on_axis) <= 1e-12 * abs(on_axis)

        flat = axis_channel(z, 0.0, y_r, wave)
        afem = degenerate_channel("afem", AxialPose(z, 0.0), 0.0, y_r, wave)
        assert abs(flat - afem) <= 1e-12 * abs(afem)


def test_scalar_vector_consistency():
    # |h| = ||e|| * sqrt(z/r): the channel keeps the aperture projection
    rng = np.random.default_rng(2)
    wave = Wave(0.5)
    for _ in range(200):
        z = rng.uniform(0.1, 4.0)
        t = rng.uniform(0.0, 0.999)
        x_r, y_r = rng.uniform(-2.0, 2.0, 2)
        pose = AxialPose(z, t)
        e = vector_field(GeneralPose((0.0, 0.0, z), (0.0, pose.transverse, t)),
                         x_r, y_r, wave)
        r = np.sqrt(x_r ** 2 + y_r ** 2 + z ** 2)
        lhs = abs(nf_channel(pose, x_r, y_r, wave))
        rhs = np.linalg.norm(e) * np.sqrt(z / r)
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_on_axis_phase_law():
    rng = np.random.default_rng(3)
    wave = Wave(0.25)
    for _ in range(200):
        z = rng.uniform(0.05, 3.0)
        t = rng.uniform(0.0, 0.999)
        y_r = rng.uniform(0.0, 2.0)
        h = axis_channel(z, t, y_r, wave)
        r = np.hypot(y_r, z)
        width = np.angle(h * np.exp(-1j * wave.wavenumber * r))
        assert abs(width) < 1e-10


def test_scalar_green_value():
    wave = Wave(2.0)
    val = scalar_green(1.0, wave)
    assert abs(val) == pytest.approx(376.73 / 4.0)
    with pytest.raises(NonPositiveDistance):
        scalar_green(0.0, wave)


@pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf, [1.0, np.nan]])
def test_non_finite_range_is_rejected(r):
    # before the sign check, which NaN passes
    wave = Wave(1.0)
    with pytest.raises(ValidityViolation, match="finite"):
        scalar_green(r, wave)
    with pytest.raises(ValidityViolation, match="finite"):
        scaling_factor(r, wave)


def test_scaling_factor():
    wave = Wave(1.0)
    assert scaling_factor(1.0, wave) == pytest.approx(
        SCALING_AT_ONE_WAVELENGTH, rel=1e-15)
    r = np.logspace(-1, 3, 50)
    f = scaling_factor(r, wave)
    assert np.all(f >= 1.0)
    assert np.all(np.diff(f) < 0)
    assert f[-1] == pytest.approx(1.0, abs=1e-7)


def test_simp_channel_is_scaled_reference():
    pose, wave = AxialPose(0.4, 0.3), Wave(1.0)
    r = np.hypot(0.1, 0.4)
    assert simp_channel(pose, 0.0, 0.1, wave) == pytest.approx(
        scaling_factor(r, wave) * nf_channel(pose, 0.0, 0.1, wave))


def test_rerr_identity_for_near_field_model():
    # dropping only the reactive correction leaves 1 - 1/F as the error
    wave = ACCURACY_WAVE
    for z in np.logspace(0.0, 2.0, 30) * wave.wavelength:
        pose = AxialPose(float(z), 0.5)
        r = np.hypot(ACCURACY_Y, z)
        expected = 1.0 - 1.0 / scaling_factor(r, wave)
        assert rerr("nfem", pose, 0.0, ACCURACY_Y, wave) == pytest.approx(
            expected, rel=1e-12, abs=1e-15)


def test_rerr_ordering():
    wave = ACCURACY_WAVE
    for t_sq in (0.1, 0.5, 0.9):
        t_z = np.sqrt(t_sq)
        for z in np.logspace(0.0, 2.0, 41) * wave.wavelength:
            pose = AxialPose(float(z), float(t_z))
            base = rerr("nfem", pose, 0.0, ACCURACY_Y, wave)
            for kind in DEGENERATE_KINDS:
                assert base < rerr(kind, pose, 0.0, ACCURACY_Y, wave)


def test_degenerate_channel_kinds():
    pose, wave = AxialPose(1.0, 0.0), Wave(0.5)
    r = np.hypot(0.7, 1.0)
    assert degenerate_channel("nusw", pose, 0.0, 0.7, wave) == pytest.approx(
        np.exp(1j * wave.wavenumber * r) / r)
    assert degenerate_channel("usw", pose, 0.0, 0.7, wave) == pytest.approx(
        np.exp(1j * wave.wavenumber * r))
    with pytest.raises(InvariantViolation):
        degenerate_channel("pw", pose, 0.0, 0.7, wave)
    with pytest.raises(InvariantViolation):
        rerr("spherical", pose, 0.0, 0.7, wave)


def test_channels_broadcast():
    wave = Wave(0.3)
    y = np.linspace(0.0, 2.0, 7)
    h = axis_channel(1.5, 0.2, y, wave)
    assert h.shape == (7,)
    single = axis_channel(1.5, 0.2, float(y[3]), wave)
    assert h[3] == pytest.approx(complex(single))


def test_axis_channel_is_the_on_axis_voltage_kernel():
    # the channel at scale 1, the element voltages at amplitude * pitch,
    # and the same values when broadcast over a pose grid, where the
    # kernel is its tilt-free factor times the attitude term
    wave, geom = Wave(0.1, amplitude=1.5), ArrayGeometry(1.0, 0.05)
    y = geom.element_centers
    z = np.linspace(0.5, 20.0, 5)[:, None]
    t = np.linspace(0.0, 0.9, 4)[None, :]
    grid = axis_channel(z, t, y[:, None, None], wave,
                        scale=wave.amplitude * geom.pitch)
    assert grid.shape == (geom.n_elements, 5, 4)
    # the tilt-free factor times the attitude term, bit for bit
    factor = axis_factor(z, y[:, None, None], wave, wave.amplitude * geom.pitch)
    assert factor.shape == (geom.n_elements, 5, 1)
    split = factor * (y[:, None, None] * t + z * np.sqrt(1.0 - t * t))
    assert np.array_equal(grid.view(np.uint64), split.view(np.uint64))
    for i, j in ((0, 0), (2, 1), (4, 3)):
        pose = AxialPose(float(z[i, 0]), float(t[0, j]))
        np.testing.assert_allclose(axis_channel(pose.distance, pose.tilt, y, wave),
                                   nf_channel(pose, 0.0, y, wave), rtol=1e-12, atol=0)
        volts = noiseless_voltages(pose, geom, wave).values
        np.testing.assert_allclose(grid[:, i, j], volts, rtol=1e-14, atol=0)
