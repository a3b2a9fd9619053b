"""The pair moments in Hz at 100 digits, from the same float inputs (tests only).

The forms ringmzi.cavity_io evaluated before it moved to units of Gamma,
with sigma = sigma_n Gamma e^(i phi_sigma) and Gamma = kappa + gamma:

    n_s  = 4 |sigma|^2 kappa Gamma / (Xi - 2 |sigma|^2 Gamma^2)
    m_si = -2 kappa sigma (4 D_i D_s - 2i Gamma (D_i + D_s) - Gamma^2 - |sigma|^2)
           / (Xi - 2 |sigma|^2 Gamma^2)
    Xi   = (4 D_i D_s - |sigma|^2)^2 + 4 Gamma^2 (D_i^2 + D_s^2) + Gamma^4

and V(phi) = 1 + 2 n_s + 2 Re(m_si e^(2i phi)) at zero detuning. These
cancel near threshold: V loses up to 65 digits at sigma_n = 1 - 2^-53 on a
nearly lossless ring, and the 100 digits here keep 35. mpmath has no
overflow, so rings of any size are evaluated alike.
"""

from __future__ import annotations

import mpmath

DIGITS = 100


def pair_moments(rates, injection, delta_s=0.0, delta_i=0.0):
    """(n_s, m_si) as mpmath numbers."""
    with mpmath.workdps(DIGITS):
        kappa, gamma = mpmath.mpf(rates.kappa), mpmath.mpf(rates.gamma)
        big = kappa + gamma
        s2 = (mpmath.mpf(injection.sigma_n) * big) ** 2
        sigma = mpmath.sqrt(s2) * mpmath.expj(injection.phi_sigma)
        ds, di = mpmath.mpf(delta_s), mpmath.mpf(delta_i)
        xi = (4 * di * ds - s2) ** 2 + 4 * big**2 * (di**2 + ds**2) + big**4
        denominator = xi - 2 * s2 * big**2
        n_s = 4 * s2 * kappa * big / denominator
        m_si = (-2 * kappa * sigma * (4 * di * ds - 2j * big * (di + ds) - big**2 - s2)
                / denominator)
        return +n_s, +m_si


def variance(rates, injection, phi):
    """V(phi) at zero detuning."""
    n_s, m_si = pair_moments(rates, injection)
    with mpmath.workdps(DIGITS):
        return +(1 + 2 * n_s + 2 * mpmath.re(m_si * mpmath.expj(2 * mpmath.mpf(phi))))


def jsi(rates, injection, delta_ws, delta_wi):
    """n_s^2 + |m_si|^2 at detunings (+dw_s, -dw_i)."""
    n_s, m_si = pair_moments(rates, injection, delta_ws, -delta_wi)
    with mpmath.workdps(DIGITS):
        return +(n_s**2 + abs(m_si) ** 2)
