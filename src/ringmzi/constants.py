"""Physical constants (CODATA 2018, SI units)."""

from __future__ import annotations

import math

# Speed of light in vacuum (m/s)
C_VACUUM = 299792458.0

# Planck constant (J·s)
PLANCK_H = 6.62607015e-34

# Reduced Planck constant (J·s)
HBAR = PLANCK_H / (2 * math.pi)
