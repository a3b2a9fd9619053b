"""Design toolkit for chip-integrated two-mode-squeezed-light interferometry.

Maps microring geometry onto squeezing performance through linearized
input-output theory, validates the linearization against a mean-field
moment solver, and evaluates lossy Mach-Zehnder phase sensitivity.
"""

__version__ = "0.1.0"

from .params import (CavityRates, FwmStrength, Injection, REFERENCE_GEOMETRY, RingGeometry,
                     derive_rates, efficiency, fwm_gain, sigma_from_power, threshold_power)
from .cavity_io import jsi, quadrature_variance, to_db
from .meanfield import MomentState, comparison_columns, mf_derivatives
from .interferometer import coherent_sensitivity, decay_ratio, mzi_sensitivity
from .errors import ConfigError, ConvergenceError, DomainError, ThresholdError
