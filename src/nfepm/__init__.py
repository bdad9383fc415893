"""Near-field electromagnetic localization: channel models, closed-form
position/attitude solvers, Ziv-Zakai and expected Cramer-Rao bounds, and
a MAP Monte-Carlo harness."""

__version__ = "0.1.0"

from .channel import (AxialPose, GeneralPose, axis_channel, degenerate_channel,
                      general_channel, nf_channel, nf_channel_axis, rerr,
                      scalar_green, scaling_factor, simp_channel, vector_field)
from .ecrb import (FisherInfo, ecrb, ecrb_ao, ecrb_asymptotic, fim_closed,
                   fim_quadrature)
from .geometry import (ArrayGeometry, Region, RegionClass, UniformPrior, Wave,
                       classify_region, fraunhofer_distance, fresnel_distance,
                       phase_ambiguity_distance, spacing_constraint_distance)
from .mapest import (MapGrid, MseReport, log_likelihood, map_estimate,
                     monte_carlo_mse)
from .numerics import QuadratureSpec, expect_uniform, integrate, q_function, stream
from .observation import (NoiseSpec, Voltages, noiseless_voltages, observe,
                          sigma2_for_snr_db, snr, snr_db)
from .solver import (SolveResult, decouple, rmse_grid, solve, solve_case1,
                     solve_case2_pa, solve_case2_sc)
from .zzb import (HypothesisPair, ZZBGrid, ambiguity_function, mu_L, mu_L_ao,
                  p_min, p_min_general, zzb_ao_t, zzb_asymptotic, zzb_t, zzb_z)

__all__ = [name for name in dir() if not name.startswith("_")]
