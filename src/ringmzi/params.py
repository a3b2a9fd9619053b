"""Microring device parameters and the model rates derived from them.

Maps a physical ring/waveguide description onto the rate picture used by
the rest of the toolkit:

    t_round = n_eff·L / c                      round-trip time
    kappa   = X·c / (n_eff·L)                  waveguide coupling rate
    gamma   = (1 - e^(-alpha_loss·L))·c / (n_eff·L)   scattering loss rate
    t_trans = (1 - X)·c / (n_eff·L)            transmission rate
    g       = hbar·omega_p^2·v_g^2·n2 / (c·A_eff·L)   four-wave-mixing gain
    sigma   = 2·g·alpha_p^2                    injection parameter

The oscillation threshold sits at sigma = Gamma = kappa + gamma; the
corresponding waveguide pump power is P_th = Gamma^3·hbar·omega_p/(8·g·kappa)
on resonance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .constants import C_VACUUM, EPSILON_0, HBAR
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
class PumpSpec:
    """Coherent waveguide pump.

    The amplitude carries photon-flux units: |alpha_l|^2 = P/(hbar*omega_p) [Hz].
    """

    power: float
    phase: float
    omega_p: float

    def __post_init__(self) -> None:
        if self.power < 0:
            raise DomainError(f"power must be non-negative, got {self.power}")
        if self.omega_p <= 0:
            raise DomainError(f"omega_p must be positive, got {self.omega_p}")

    @property
    def alpha_l(self) -> complex:
        """Waveguide amplitude sqrt(P/(hbar*omega_p))·e^(i*phase) [sqrt(Hz)]."""
        return pump_amplitude(self.power, self.omega_p, self.phase)

    @classmethod
    def from_power(cls, power: float, omega_p: float, phase: float = 0.0) -> "PumpSpec":
        return cls(power=power, phase=phase, omega_p=omega_p)


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
    """Pair-generation drive sigma = 2*g*alpha_p^2 and its threshold.

    sigma_th equals the total cavity decay rate Gamma; the normalized
    injection sigma_n = sigma_mag/sigma_th is 1 exactly at threshold.
    phi_sigma is the drive phase; it defaults to zero.
    """

    sigma_mag: float
    sigma_th: float
    phi_sigma: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.sigma_mag < 0:
            raise DomainError(f"sigma_mag must be non-negative, got {self.sigma_mag}")
        if self.sigma_th < 0:
            raise DomainError(f"sigma_th must be non-negative, got {self.sigma_th}")

    @property
    def sigma_n(self) -> float:
        """Normalized injection sigma/sigma_th (inf for an undamped cavity)."""
        if self.sigma_th == 0:
            return math.inf if self.sigma_mag > 0 else 0.0
        return self.sigma_mag / self.sigma_th

    @property
    def sigma(self) -> complex:
        """Complex injection sigma_mag * exp(i*phi_sigma)."""
        return self.sigma_mag * cmath.exp(1j * self.phi_sigma)

    @classmethod
    def from_sigma_n(cls, sigma_n: float, rates: CavityRates,
                     phi_sigma: float = 0.0) -> "Injection":
        """Build an injection at a given fraction of threshold."""
        if sigma_n < 0:
            raise DomainError(f"sigma_n must be non-negative, got {sigma_n}")
        gamma_total = rates.gamma_total
        return cls(sigma_mag=sigma_n * gamma_total, sigma_th=gamma_total, phi_sigma=phi_sigma)


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


def efficiency(alpha_loss: float, length: float) -> float:
    """Power transmission efficiency eta = e^(-alpha_loss*length).

    Parameters
    ----------
    alpha_loss : float
        Propagation loss [1/m].
    length : float
        Propagation length [m].
    """
    if alpha_loss < 0:
        raise DomainError(f"alpha_loss must be non-negative, got {alpha_loss}")
    if length < 0:
        raise DomainError(f"length must be non-negative, got {length}")
    return math.exp(-alpha_loss * length)


def fwm_gain(geom: RingGeometry, omega_s: float | None = None,
             omega_i: float | None = None) -> FwmStrength:
    """Four-wave-mixing gain of the ring.

    Uses the degenerate approximation g = hbar·omega_p^2·v_g^2·n2/(c·A_eff·L).
    Passing omega_s and omega_i switches to the exact prefactor
    hbar·omega_p·(omega_p^2·omega_s·omega_i)^(1/4)·v_g^2·n2/(c·A_eff·L);
    for a near-degenerate pair the two agree to well below a percent.
    """
    if geom.a_eff <= 0 or geom.ring_length <= 0:
        raise DomainError("a_eff and ring_length must be positive")
    omega_p = geom.pump_frequency()
    v_g = C_VACUUM / geom.n_g
    if (omega_s is None) != (omega_i is None):
        raise DomainError("omega_s and omega_i must be supplied together")
    if omega_s is None:
        prefactor = omega_p**2
    else:
        if omega_s <= 0 or omega_i <= 0:
            raise DomainError("omega_s and omega_i must be positive")
        prefactor = omega_p * (omega_p**2 * omega_s * omega_i) ** 0.25
    gain = HBAR * prefactor * v_g**2 * geom.n2 / (C_VACUUM * geom.a_eff * geom.ring_length)
    return FwmStrength(gain=gain, gamma_nl=omega_p * geom.n2 / (C_VACUUM * geom.a_eff))


def n2_from_chi3(chi3: float, n_eff: float) -> float:
    """Nonlinear index n2 = 3*chi3/(4*eps0*c*n_eff^2) [m^2/W]."""
    return 3.0 * chi3 / (4.0 * EPSILON_0 * C_VACUUM * n_eff**2)


def chi3_from_n2(n2: float, n_eff: float) -> float:
    """Inverse of :func:`n2_from_chi3` [m^2/V^2]."""
    return n2 * 4.0 * EPSILON_0 * C_VACUUM * n_eff**2 / 3.0


def pump_amplitude(power: float, omega: float, phase: float = 0.0) -> complex:
    """Photon-flux amplitude sqrt(P/(hbar*omega))·e^(i*phase) [sqrt(Hz)]."""
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    if power < 0:
        raise DomainError(f"power must be non-negative, got {power}")
    return math.sqrt(power / (HBAR * omega)) * cmath.exp(1j * phase)


def intracavity_pump(alpha_l: complex, rates: CavityRates, delta_p: float = 0.0) -> complex:
    """Steady-state intracavity pump amplitude (dimensionless).

    alpha_p = sqrt(kappa)·alpha_l / (Gamma/2 - i*delta_p); on resonance the
    field enhancement is 2*sqrt(kappa)/Gamma.
    """
    gamma_total = rates.gamma_total
    denom = gamma_total / 2.0 - 1j * delta_p
    if denom == 0:
        raise DomainError("degenerate cavity: Gamma = 0 on resonance has no steady state")
    return math.sqrt(rates.kappa) * alpha_l / denom


def injection_from_pump(gain: float, alpha_p: complex, rates: CavityRates) -> Injection:
    """Injection sigma = 2*g*alpha_p^2 for a given intracavity pump."""
    sigma = 2.0 * gain * alpha_p * alpha_p
    return Injection(sigma_mag=abs(sigma), sigma_th=rates.gamma_total,
                     phi_sigma=cmath.phase(sigma) if sigma != 0 else 0.0)


def threshold_power(rates: CavityRates, gain: float, omega_p: float, delta_p: float = 0.0) -> float:
    """Waveguide pump power at the oscillation threshold [W].

    P_th = Gamma·hbar·omega_p·|Gamma/2 - i*delta_p|^2 / (2·g·kappa); on
    resonance this reduces to Gamma^3·hbar·omega_p/(8·g·kappa).
    """
    if gain <= 0:
        raise DomainError(f"gain must be positive for a threshold to exist, got {gain}")
    if rates.kappa <= 0:
        raise DomainError(f"kappa must be positive for a threshold to exist, got {rates.kappa}")
    gamma_total = rates.gamma_total
    lorentz = (gamma_total / 2.0) ** 2 + delta_p**2
    return gamma_total * HBAR * omega_p * lorentz / (2.0 * gain * rates.kappa)


def sigma_from_power(power: float, rates: CavityRates, gain: float, omega_p: float,
                     delta_p: float = 0.0) -> Injection:
    """Injection produced by a waveguide pump power.

    sigma = [2·g·kappa/(Gamma/2 - i*delta_p)^2]·P/(hbar·omega_p); on resonance
    sigma_n = P/P_th exactly.
    """
    if gain <= 0:
        raise DomainError(f"gain must be positive, got {gain}")
    if rates.kappa <= 0:
        raise DomainError(f"kappa must be positive, got {rates.kappa}")
    if power < 0:
        raise DomainError(f"power must be non-negative, got {power}")
    gamma_total = rates.gamma_total
    denom = (gamma_total / 2.0 - 1j * delta_p) ** 2
    sigma = 2.0 * gain * rates.kappa * power / (HBAR * omega_p) / denom
    return Injection(sigma_mag=abs(sigma), sigma_th=gamma_total,
                     phi_sigma=cmath.phase(sigma) if sigma != 0 else 0.0)


def resonance_frequency(geom: RingGeometry, mode_index: int) -> float:
    """Cold-cavity resonance omega_r = 2*pi*m*c/(n_eff*L) [rad/s]."""
    if mode_index < 1:
        raise DomainError(f"mode_index must be >= 1, got {mode_index}")
    return 2 * math.pi * mode_index * C_VACUUM / (geom.n_eff * geom.ring_length)
