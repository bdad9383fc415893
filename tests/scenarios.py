"""Shared benchmark scenarios for the test suite.

The solver benchmark pairs the nine Table 2 parameter columns with their
published-grid RMSE targets; the named configs below are the recurring
bound/estimator setups.
"""

from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
from nfepm.solver import TABLE2_COLUMNS

# Published (rmse_z, rmse_t) of each Table 2 column, in column order.
_REFERENCE_RMSE = (
    (0.0, 0.0),
    (0.0, 0.0),
    (5.70e-3, 7.72e-4),
    (5.90e-3, 2.15e-4),
    (8.41e-4, 3.66e-6),
    (1.60e-3, 3.80e-3),
    (4.60e-3, 5.50e-3),
    (2.22e-4, 3.99e-4),
    (2.19e-5, 7.29e-4),
)

# (region, wavelength, aperture, pitch, z_min, z_max, ref_rmse_z, ref_rmse_t)
SOLVER_BENCHMARK = tuple(column + ref for column, ref
                         in zip(TABLE2_COLUMNS, _REFERENCE_RMSE, strict=True))


def benchmark_setup(column):
    region, lam, d_r, l_s, h1, h2 = column[:6]
    return region, Wave(lam), ArrayGeometry(d_r, l_s), UniformPrior(h1, h2)


# Threshold-structure config: bounds against MAP over a 0..60 dB sweep.
THRESHOLD_WAVE = Wave(0.1)
THRESHOLD_GEOM = ArrayGeometry(5.0, 0.1)
THRESHOLD_PRIOR = UniformPrior(3.0, 5.0)

# Attitude-only comparison config (coarse pitch, tight prior).
AO_WAVE = Wave(0.1)
AO_GEOM = ArrayGeometry(5.0, 0.5)
AO_PRIOR = UniformPrior(3.0, 4.0)

# Channel-accuracy config: short wavelength, probe point ten wavelengths
# off axis.
ACCURACY_WAVE = Wave(0.01)
ACCURACY_Y = 10.0 * ACCURACY_WAVE.wavelength
