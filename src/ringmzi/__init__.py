"""Design toolkit for chip-integrated two-mode-squeezed-light interferometry.

Maps microring geometry onto squeezing performance through linearized
input-output theory, validates the linearization against a mean-field
moment solver, and evaluates lossy Mach-Zehnder phase sensitivity.
"""

__version__ = "0.1.0"

from .params import (CavityRates, FwmStrength, Injection, PumpSpec, REFERENCE_GEOMETRY,
                     RingGeometry, chi3_from_n2, derive_rates, efficiency, fwm_gain,
                     injection_from_pump, intracavity_pump, n2_from_chi3, pump_amplitude,
                     resonance_frequency, sigma_from_power, threshold_power)
from .cavity_io import (Detunings, OutputMoments, SeedAmplitudes, ZERO_DETUNING,
                        anomalous_moment, homodyne_signal, jsi, output_moments, photon_flux,
                        quadrature_variance, squeezing_parameter, static_moments, to_db,
                        variance_extrema)
from .meanfield import (MomentState, VACUUM, comparison_curve, drive_for_sigma,
                        lin_steady_state, mf_derivatives, mf_steady_state, validity_bound)
from .interferometer import (GaussianPortState, PhaseReadout, SensitivityReport, SensorSpec,
                             coherent_sensitivity, critical_length, decay_ratio,
                             improvement_factor, intensity_difference_stats, mzi_input_state,
                             mzi_transform, phase_readout, phase_sensitivity_coherent,
                             phase_sensitivity_numeric, phase_sensitivity_squeezed,
                             pole_coherent_amplitude, shot_noise_limit, squeezed_sensitivity)
from .errors import ConfigError, ConvergenceError, DomainError, PoleError, ThresholdError
