"""Microring device parameters and the model rates derived from them.

Maps a physical ring/waveguide description onto the rate picture used by
the rest of the toolkit:

    t_round = n_eff·L / c                      round-trip time
    kappa   = X·c / (n_eff·L)                  waveguide coupling rate
    gamma   = (1 - e^(-alpha_loss·L))·c / (n_eff·L)   scattering loss rate
    t_trans = (1 - X)·c / (n_eff·L)            transmission rate
    g       = hbar·omega_p^2·v_g^2·n2 / (c·A_eff·L)   four-wave-mixing gain
    sigma   = 2·g·alpha_p^2                    injection parameter

The oscillation threshold sits at sigma = Gamma = kappa + gamma, that is at
sigma_n = sigma/Gamma = 1; the corresponding waveguide pump power is
P_th = Gamma^3·hbar·omega_p/(8·g·kappa) on resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_VACUUM, HBAR
from .errors import DomainError


def require_finite(fields) -> None:
    """Raise DomainError naming the first non-finite field of a dataclass (None passes)."""
    for name, value in vars(fields).items():
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RingGeometry:
    """Physical description of the microring and its bus waveguide.

    Parameters
    ----------
    ring_length : float
        Ring circumference L [m].
    n_eff : float
        Effective refractive index (>= 1).
    n_g : float
        Group index (>= 1).
    cross_coupling : float
        Power fraction X coupled bus<->ring per round trip, in [0, 1].
    alpha_loss : float
        Propagation loss [1/m].
    n2 : float
        Nonlinear refractive index [m^2/W].
    a_eff : float
        Effective mode area [m^2].
    lambda_p : float
        Pump wavelength [m].
    """

    ring_length: float
    n_eff: float
    n_g: float
    cross_coupling: float
    alpha_loss: float
    n2: float
    a_eff: float
    lambda_p: float

    def __post_init__(self) -> None:
        require_finite(self)
        if self.ring_length <= 0:
            raise DomainError(f"ring_length must be positive, got {self.ring_length}")
        if not 0.0 <= self.cross_coupling <= 1.0:
            raise DomainError(f"cross_coupling out of range [0, 1]: {self.cross_coupling}")
        if self.alpha_loss < 0:
            raise DomainError(f"alpha_loss must be non-negative, got {self.alpha_loss}")
        if self.n_eff < 1:
            raise DomainError(f"n_eff must be >= 1, got {self.n_eff}")
        if self.n_g < 1:
            raise DomainError(f"n_g must be >= 1, got {self.n_g}")
        if self.a_eff <= 0:
            raise DomainError(f"a_eff must be positive, got {self.a_eff}")
        if self.lambda_p <= 0:
            raise DomainError(f"lambda_p must be positive, got {self.lambda_p}")
        if self.n2 < 0:
            raise DomainError(f"n2 must be non-negative, got {self.n2}")

    def pump_frequency(self) -> float:
        """Pump angular frequency 2*pi*c/lambda_p [rad/s]."""
        return 2 * math.pi * C_VACUUM / self.lambda_p


# Si3N4 reference design: 220 um bend radius, 800 nm x 1.2 um cross-section,
# 1 dB/m loss, 1% ring transmission, pumped at 1550 nm.
REFERENCE_GEOMETRY = RingGeometry(
    ring_length=2 * math.pi * 220e-6,
    n_eff=1.801,
    n_g=2.10087,
    cross_coupling=0.01,
    alpha_loss=0.23,
    n2=2.4e-19,
    a_eff=1.05564e-12,
    lambda_p=1550e-9,
)


@dataclass(frozen=True)
class CavityRates:
    """Coupling/loss rates of the driven ring cavity.

    Parameters
    ----------
    kappa : float
        Bus-coupling rate [Hz].
    gamma : float
        Intrinsic loss rate [Hz].
    t_round : float
        Round-trip time [s] (0 when constructed without a geometry).
    t_trans : float
        Transmission rate (1-X)c/(n_eff L) [Hz] (0 without a geometry).
    """

    kappa: float
    gamma: float
    t_round: float = 0.0
    t_trans: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kappa < 0 or self.gamma < 0:
            raise DomainError(f"rates must be non-negative, got kappa={self.kappa}, gamma={self.gamma}")

    @property
    def gamma_total(self) -> float:
        """Total decay rate Gamma = kappa + gamma [Hz]."""
        return self.kappa + self.gamma


@dataclass(frozen=True)
class FwmStrength:
    """Nonlinear interaction strength of the ring.

    Parameters
    ----------
    gain : float
        Four-wave-mixing gain g [Hz].
    gamma_nl : float
        Nonlinear waveguide parameter [1/(W·m)].
    """

    gain: float
    gamma_nl: float


@dataclass(frozen=True)
class Injection:
    """Pair-generation drive sigma = 2*g*alpha_p^2 as a fraction of threshold.

    sigma_n = |sigma|/Gamma is 1 exactly at threshold; phi_sigma is the drive
    phase, zero by default.
    """

    sigma_n: float
    phi_sigma: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.sigma_n < 0:
            raise DomainError(f"sigma_n must be non-negative, got {self.sigma_n}")


def derive_rates(geom: RingGeometry) -> CavityRates:
    """Convert a ring geometry into cavity rates.

    kappa = X·c/(n_eff·L), gamma = (1 - e^(-alpha_loss·L))·c/(n_eff·L),
    t_round = n_eff·L/c, t_trans = (1-X)·c/(n_eff·L).
    """
    per_round = C_VACUUM / (geom.n_eff * geom.ring_length)
    kappa = geom.cross_coupling * per_round
    gamma = -math.expm1(-geom.alpha_loss * geom.ring_length) * per_round
    return CavityRates(
        kappa=kappa,
        gamma=gamma,
        t_round=geom.n_eff * geom.ring_length / C_VACUUM,
        t_trans=(1.0 - geom.cross_coupling) * per_round,
    )


def efficiency(alpha_loss: float, length):
    """Power transmission efficiency eta = e^(-alpha_loss*length), scalar or array.

    Parameters
    ----------
    alpha_loss : float
        Propagation loss [1/m].
    length : float or array
        Propagation length [m].

    math.exp per element: np.exp differs from it in the last bit on some inputs.
    """
    if alpha_loss < 0:
        raise DomainError(f"alpha_loss must be non-negative, got {alpha_loss}")
    length = np.asarray(length, dtype=float)
    if np.any(length < 0):
        raise DomainError(f"length must be non-negative, got {length}")
    with np.errstate(over="ignore"):  # -inf: e^(-inf) is 0
        exponent = -alpha_loss * length
    eta = np.fromiter(map(math.exp, exponent.ravel().tolist()), float, length.size)
    return float(eta[0]) if length.ndim == 0 else eta.reshape(length.shape)


def fwm_gain(geom: RingGeometry) -> FwmStrength:
    """Four-wave-mixing gain of the ring.

    Uses the degenerate approximation g = hbar·omega_p^2·v_g^2·n2/(c·A_eff·L).
    """
    if geom.a_eff <= 0 or geom.ring_length <= 0:
        raise DomainError("a_eff and ring_length must be positive")
    omega_p = geom.pump_frequency()
    v_g = C_VACUUM / geom.n_g
    gain = HBAR * omega_p**2 * v_g**2 * geom.n2 / (C_VACUUM * geom.a_eff * geom.ring_length)
    return FwmStrength(gain=gain, gamma_nl=omega_p * geom.n2 / (C_VACUUM * geom.a_eff))


def threshold_power(rates: CavityRates, gain: float, omega_p: float, delta_p: float = 0.0) -> float:
    """Waveguide pump power at the oscillation threshold [W]; inf or nan where it leaves the
    float range, nan where 2·g·kappa underflows to 0.

    P_th = Gamma·hbar·omega_p·|Gamma/2 - i*delta_p|^2 / (2·g·kappa); on
    resonance this reduces to Gamma^3·hbar·omega_p/(8·g·kappa).
    """
    if gain <= 0:
        raise DomainError(f"gain must be positive for a threshold to exist, got {gain}")
    if rates.kappa <= 0:
        raise DomainError(f"kappa must be positive for a threshold to exist, got {rates.kappa}")
    half = rates.gamma_total / 2.0
    lorentz = half * half + delta_p * delta_p
    coupling = 2.0 * gain * rates.kappa
    if coupling == 0:
        return math.nan
    return rates.gamma_total * HBAR * omega_p * lorentz / coupling


def sigma_from_power(power: float, rates: CavityRates, gain: float, omega_p: float,
                     delta_p: float = 0.0) -> Injection:
    """Injection produced by a waveguide pump power.

    sigma = [2·g·kappa/(Gamma/2 - i*delta_p)^2]·P/(hbar·omega_p), so that
    sigma_n = P/P_th at any delta_p, and phi_sigma = 2 atan2(delta_p, Gamma/2).
    """
    if power < 0:
        raise DomainError(f"power must be non-negative, got {power}")
    return Injection(sigma_n=power / threshold_power(rates, gain, omega_p, delta_p),
                     phi_sigma=2.0 * math.atan2(delta_p, rates.gamma_total / 2.0))
