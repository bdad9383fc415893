"""Near-field electromagnetic localization: channel models, closed-form
position/attitude solvers, Ziv-Zakai and expected Cramer-Rao bounds, and
a MAP Monte-Carlo harness."""

__version__ = "0.1.0"

from .channel import (AxialPose, GeneralPose, axis_channel, degenerate_channel,
                      general_channel, nf_channel, rerr, scalar_green,
                      scaling_factor, simp_channel, vector_field)
from .ecrb import FisherInfo, ecrb, ecrb_ao, ecrb_asymptotic, fim_closed
from .geometry import (ArrayGeometry, Region, UniformPrior, Wave,
                       classify_region, phase_ambiguity_distance,
                       spacing_constraint_distance)
from .mapest import MapGrid, MseReport, monte_carlo_mse
from .numerics import expect_uniform, q_function, stream
from .observation import (NoiseSpec, Voltages, element_voltages, noiseless_voltages,
                          observe, sigma2_for_snr_db, snr_from_db)
from .solver import SolveResult, decouple, solve
from .zzb import ZZBGrid, mu_L_ao, zzb_ao_t, zzb_z

__all__ = [name for name in dir() if not name.startswith("_")]
