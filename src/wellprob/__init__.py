"""Classical and quantum probability densities for 1D bound states."""

__version__ = "0.1.0"

from .airy import airy_eval_many
from .classical import (DensityCurve, HistogramRun, MeasurementDraws,
                        classical_momentum_density, classical_position_density,
                        measurement_histogram, momentum_delta_masses,
                        project_trajectory, sample_measurements, trajectory)
from .compare import ComparisonReport, momentum_support_mass, plateau_height, v0_sweep
from .errors import (AiryOverflowError, ConfigError, NumericalError, RegimeError,
                     ResolutionError, SupportError, WellProbError)
from .model import (ClassicalState, Constants, PotentialKind, PotentialSpec,
                    bouncer, classical_state, closed_court, infinite_well)
from .quantum import (AiryScales, EigenLevel, Eigenstate, MomentumWavefunction,
                      eigenstate_closed_court, eigenstate_infinite_well,
                      eigenvalues_closed_court, infinite_well_energy,
                      infinite_well_momentum, momentum_transform, nearest_level,
                      spectrum)

__all__ = [
    "AiryOverflowError", "AiryScales", "ClassicalState",
    "ComparisonReport", "ConfigError", "Constants", "DensityCurve", "EigenLevel",
    "Eigenstate", "HistogramRun", "MeasurementDraws", "MomentumWavefunction",
    "NumericalError", "PotentialKind", "PotentialSpec", "RegimeError",
    "ResolutionError", "SupportError", "WellProbError",
    "airy_eval_many", "bouncer",
    "classical_momentum_density", "classical_position_density", "classical_state",
    "closed_court", "eigenstate_closed_court", "eigenstate_infinite_well",
    "eigenvalues_closed_court",
    "infinite_well", "infinite_well_energy", "infinite_well_momentum",
    "measurement_histogram", "momentum_delta_masses", "momentum_support_mass",
    "momentum_transform", "nearest_level", "plateau_height", "project_trajectory",
    "sample_measurements", "spectrum", "trajectory", "v0_sweep",
]
