"""Design toolkit for chip-integrated two-mode-squeezed-light interferometry.

Maps microring geometry onto squeezing performance through linearized
input-output theory, validates the linearization against a mean-field
moment solver, and evaluates lossy Mach-Zehnder phase sensitivity.
"""

__version__ = "0.1.0"

from .params import (CavityRates, FwmStrength, Injection, REFERENCE_GEOMETRY, RingGeometry,
                     derive_rates, efficiency, fwm_gain, sigma_from_power, threshold_power)
from .cavity_io import (Detunings, ZERO_DETUNING, anomalous_moment, jsi, photon_flux,
                        quadrature_variance, squeezing_parameter, to_db, variance_extrema)
from .meanfield import MomentState, comparison_columns, mf_derivatives, validity_bound
from .interferometer import (coherent_sensitivity, critical_length, decay_ratio,
                             mzi_sensitivity, pole_coherent_amplitude)
from .errors import ConfigError, ConvergenceError, DomainError, ThresholdError
