"""Linearized input-output model of the pumped ring below threshold.

Works in the frame rotating at the signal/idler carriers, with the
operator ordering (a_s, a_s^+, a_i, a_i^+). A frequency-domain scattering
solve expresses the propagating output modes through the waveguide inputs
and the loss bath. Closed forms for the second moments at one evaluation
point (spectral-density prefactors, reported in Hz):

    n_s  = 4 sigma^2 kappa Gamma / (Xi - 2 sigma^2 Gamma^2)
    m_si = -2 kappa sigma (4 D_i D_s - 2i Gamma (D_i + D_s) - Gamma^2 - sigma^2)
           / (Xi - 2 sigma^2 Gamma^2)
    Xi   = (4 D_i D_s - sigma^2)^2 + 4 Gamma^2 (D_i^2 + D_s^2) + Gamma^4

Both are reproduced by the numeric scattering solve, which the tests keep
as their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ThresholdError
from .params import CavityRates, Injection


@dataclass(frozen=True)
class Detunings:
    """Evaluation detunings [rad/s].

    delta_s = omega - omega_s and delta_i = omega - omega_i. For the
    frequency-paired (signal, idler) axes used by the joint spectrum, the
    convention is delta_s = +offset_s and delta_i = -offset_i.
    """

    delta_s: float = 0.0
    delta_i: float = 0.0

    def __post_init__(self) -> None:
        for name in ("delta_s", "delta_i"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")


ZERO_DETUNING = Detunings()


def to_db(value):
    """Noise power in dB relative to vacuum: 10*log10(value), scalar or array.

    math.log10 per element: np.log10 differs from it in the last bit on some inputs.
    """
    db = 10.0 * np.vectorize(math.log10, otypes=[float])(value)
    return float(db) if db.ndim == 0 else db


def _guard_below_threshold(rates: CavityRates, injection: Injection) -> None:
    gamma_total = rates.gamma_total
    if not math.isclose(injection.sigma_th, gamma_total, rel_tol=1e-9, abs_tol=1e-300):
        raise DomainError(
            f"injection threshold {injection.sigma_th} does not match Gamma={gamma_total}")
    if injection.sigma_mag >= gamma_total:
        raise ThresholdError(
            f"at/above threshold: sigma={injection.sigma_mag} >= Gamma={gamma_total}")


def _pair_denominator(gamma_total: float, s2: float, detunings: Detunings) -> float:
    """Common denominator of n_s and m_si, xi - 2 sigma^2 Gamma^2.

    Formed this way it cancels near threshold: at zero detuning it equals
    (Gamma^2 - sigma^2)^2, which falls below the rounding error eps Gamma^4
    within about 1e-8 of threshold. Raises ThresholdError where it rounds to
    zero or below.
    """
    ds, di = detunings.delta_s, detunings.delta_i
    xi = (4 * di * ds - s2) ** 2 + 4 * gamma_total**2 * (di**2 + ds**2) + gamma_total**4
    denominator = xi - 2 * s2 * gamma_total**2
    if not denominator > 0:
        raise ThresholdError(f"within rounding of threshold: sigma^2={s2}, Gamma={gamma_total}")
    return denominator


def photon_flux(rates: CavityRates, injection: Injection,
                detunings: Detunings = ZERO_DETUNING) -> float:
    """Output signal photon-flux spectral density n_s [Hz]."""
    _guard_below_threshold(rates, injection)
    kappa, gamma_total = rates.kappa, rates.gamma_total
    s2 = injection.sigma_mag**2
    return 4 * s2 * kappa * gamma_total / _pair_denominator(gamma_total, s2, detunings)


def anomalous_moment(rates: CavityRates, injection: Injection,
                     detunings: Detunings = ZERO_DETUNING) -> complex:
    """Anomalous pair moment <b_i b_s> (complex spectral density).

    At zero detuning this is real positive for a real drive:
    2*kappa*sigma*(Gamma^2 + sigma^2)/(Gamma^2 - sigma^2)^2.
    """
    _guard_below_threshold(rates, injection)
    kappa, gamma_total = rates.kappa, rates.gamma_total
    sigma = injection.sigma
    s2 = injection.sigma_mag**2
    ds, di = detunings.delta_s, detunings.delta_i
    num = -2 * kappa * sigma * (4 * di * ds - 2j * gamma_total * (di + ds) - gamma_total**2 - s2)
    return num / _pair_denominator(gamma_total, s2, detunings)


def jsi(rates: CavityRates, injection: Injection, delta_ws, delta_wi):
    """Joint spectral intensity over paired frequency offsets.

    Phi(dw_s, dw_i) = [16 k^2 s^4 G^2 + 4 k^2 s^2 (Lam + (G^2+s^2)^2)]
                      / (Lam + (G^2-s^2)^2)^2
    Lam = 16 dw_s^2 dw_i^2 + 8 dw_s dw_i s^2 + 4 G^2 (dw_s^2 + dw_i^2)

    Accepts scalars or broadcastable arrays for the offsets. Identical to
    n_s^2 + |m_si|^2 at detunings (+dw_s, -dw_i).
    """
    _guard_below_threshold(rates, injection)
    kappa, gamma_total = rates.kappa, rates.gamma_total
    s2 = injection.sigma_mag**2
    dws = np.asarray(delta_ws, dtype=float)
    dwi = np.asarray(delta_wi, dtype=float)
    lam = 16 * dws**2 * dwi**2 + 8 * dws * dwi * s2 + 4 * gamma_total**2 * (dws**2 + dwi**2)
    num = 16 * kappa**2 * s2**2 * gamma_total**2 + 4 * kappa**2 * s2 * (lam + (gamma_total**2 + s2) ** 2)
    value = num / (lam + (gamma_total**2 - s2) ** 2) ** 2
    return float(value) if value.ndim == 0 else value


def quadrature_variance(rates: CavityRates, injection: Injection, phi_lo):
    """Joint-quadrature noise power at local-oscillator phase phi_lo.

    V(phi_lo) = 1 + 2*n_s + 2*Re(m_si * e^(2i*phi_lo)), vacuum = 1, at zero
    detuning (frequency-integrated convention). Squeezing at phi_lo = pi/2,
    anti-squeezing at phi_lo = 0 for a real positive drive. Accepts a scalar
    or an array of phases.

    Evaluated through the equivalent grouping V = V_sq + 4*m_si*cos^2(phi_lo)
    with V_sq = 1 - 4*kappa*sigma/(Gamma+sigma)^2, which stays accurate when
    n_s and m_si are large and nearly cancel near threshold.
    """
    _guard_below_threshold(rates, injection)
    gamma_total = rates.gamma_total
    sigma = injection.sigma_mag
    v_squeezed = 1.0 - 4.0 * rates.kappa * sigma / (gamma_total + sigma) ** 2
    m_si = anomalous_moment(rates, injection)
    # m_si e^(2i phi) averaged with its conjugate pair: 2 Re(m e^(2i phi));
    # for the drive phase rotated into m_si the grouping below is exact.
    rotated = (m_si * np.exp(2j * np.asarray(phi_lo, dtype=float))).real
    aligned = abs(m_si)
    value = v_squeezed + 2.0 * (aligned + rotated)
    return float(value) if value.ndim == 0 else value


def variance_extrema(rates: CavityRates, injection: Injection) -> tuple[float, float]:
    """(V_squeezed, V_antisqueezed) quadrature variances.

    Equal by construction to the general variance at phi_lo = pi/2 and 0;
    algebraically V_sq = 1 - 4*kappa*sigma/(Gamma+sigma)^2 and
    V_anti = 1 + 4*kappa*sigma/(Gamma-sigma)^2 (this corrected pairing of
    the denominators is the one consistent with the moment solve and with
    the reported decibel values; the commonly printed forms have the two
    denominators interchanged).
    """
    return (quadrature_variance(rates, injection, math.pi / 2),
            quadrature_variance(rates, injection, 0.0))


def squeezing_parameter(rates: CavityRates, injection: Injection,
                        detunings: Detunings = ZERO_DETUNING) -> float:
    """Squeezing parameter r = asinh(sqrt(n_s))."""
    return math.asinh(math.sqrt(photon_flux(rates, injection, detunings)))
