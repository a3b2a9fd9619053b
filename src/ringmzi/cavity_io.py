"""Linearized input-output model of the pumped ring below threshold.

Works in the frame rotating at the signal/idler carriers, with the
operator ordering (a_s, a_s^+, a_i, a_i^+). A frequency-domain scattering
solve expresses the propagating output modes through the waveguide inputs
and the loss bath. The second moments at one evaluation point are ratios
of rates, so every power of Gamma cancels: they depend only on s = sigma_n,
x = kappa/Gamma and the detunings in units of Gamma, u = delta_s/Gamma and
v = delta_i/Gamma, and they are evaluated in these units:

    n_s  = 4 s^2 x / D
    m_si = -2 x s e^(i phi_sigma) (4 u v - 2i (u + v) - 1 - s^2) / D
    D    = Lambda + ((1 - s)(1 + s))^2,  Lambda = 16 u^2 v^2 - 8 u v s^2 + 4 (u^2 + v^2)
         = (4 u v + (1 - s)(1 + s))^2 + 4 (u - v)^2
    jsi  = n_s^2 + |m_si|^2 = n_s (x + 2 n_s)         at (u, v) = (dw_s, -dw_i)/Gamma
    V_sq = 1 - 4 x s/(1 + s)^2 = ((1 - s)^2 + 4 s gamma/Gamma)/(1 + s)^2

D is a sum of squares, and (1 - s)(1 + s) >= 1.1e-16 for any float s < 1,
so below threshold nothing cancels or divides by zero, whatever the rates
in Hz. Beyond about 1e77 Gamma D overflows; there n_s, and so the jsi,
is evaluated with sqrt(D) = 4 g h, g = max(|u|, |v|). The threshold is the
one rule sigma_n >= 1. The moments are reproduced by the numeric scattering
solve, which the tests keep as their oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ThresholdError
from .params import CavityRates, Injection


def to_db(value):
    """Noise power in dB relative to vacuum: 10*log10(value), scalar or array.

    math.log10 per element: np.log10 differs from it in the last bit on some inputs.
    """
    value = np.asarray(value, dtype=float)
    db = 10.0 * np.fromiter(map(math.log10, value.ravel().tolist()), float, value.size)
    return float(db[0]) if value.ndim == 0 else db.reshape(value.shape)


def _pair_moments(rates: CavityRates, injection: Injection, delta_s=0.0, delta_i=0.0,
                  anomalous: bool = True, scale: float = 1.0):
    """(x, n_s, m_si e^(-i phi_sigma), V_sq) at detunings delta_s, delta_i [rad/s].

    The closed forms of the module docstring, in units of Gamma; the detunings may be floats or
    broadcastable arrays. Where D overflows, floats turn inf without a warning; jsi evaluates
    arrays under np.errstate. m_si is None unless ``anomalous``: its complex arithmetic would
    double the cost of the jsi. m_si is evaluated only where D is finite, as it is at zero
    detuning, where D = ((1 - s)(1 + s))^2 <= 1. n_s and m_si come divided by scale^2 and
    scale, a power of two, which keeps a tiny drive's from rounding to subnormals. Raises
    ThresholdError at sigma_n >= 1.
    """
    s = injection.sigma_n
    if s >= 1:
        raise ThresholdError(f"at/above threshold: sigma_n = {s!r} >= 1")
    gamma_total = rates.gamma_total
    x, t = rates.kappa / gamma_total, s / scale
    u, v = delta_s / gamma_total, delta_i / gamma_total
    uv = 4 * u * v
    # u - v taken in Hz: from the rounded u and v it loses up to 1e-13 near threshold.
    # Squares as products: a float ** that overflows raises.
    near, apart = uv + (1 - s) * (1 + s), (delta_s - delta_i) / gamma_total
    denominator = near * near + 4 * apart * apart
    n_s = 4 * t * t * x / denominator
    m_si = -2 * x * t * (uv - 1 - s * s - 2j * (u + v)) / denominator if anomalous else None
    if not np.isfinite(denominator).all():  # there sqrt(D) = 4 g h, g = max(|u|, |v|)
        finite, g = np.isfinite(denominator), np.maximum(abs(u), abs(v))
        h = np.hypot(u / g * v + (1 - s) * (1 + s) / (4 * g), (u / g - v / g) / 2)
        n_s = np.where(finite, n_s, t * t * x / g / h / (4 * g) / h)[()]
    v_squeezed = ((1 - s) ** 2 + 4 * s * (rates.gamma / gamma_total)) / (1 + s) ** 2
    return x, n_s, m_si, v_squeezed


def jsi(rates: CavityRates, injection: Injection, delta_ws, delta_wi):
    """Joint spectral intensity over paired frequency offsets [rad/s].

    Phi(dw_s, dw_i) = n_s^2 + |m_si|^2 = n_s (x + 2 n_s) at detunings
    (+dw_s, -dw_i). Accepts scalars or broadcastable arrays for the offsets.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # if D overflows
        x, n_s, _, _ = _pair_moments(rates, injection, np.asarray(delta_ws, dtype=float),
                                     -np.asarray(delta_wi, dtype=float), anomalous=False)
    value = n_s * (x + 2 * n_s)
    return float(value) if value.ndim == 0 else value


def quadrature_variance(rates: CavityRates, injection: Injection, phi_lo):
    """Joint-quadrature noise power at local-oscillator phase phi_lo.

    V(phi_lo) = 1 + 2*n_s + 2*Re(m_si * e^(2i*phi_lo)), vacuum = 1, at zero
    detuning (frequency-integrated convention). Squeezing at phi_lo = pi/2,
    anti-squeezing at phi_lo = 0 for a real positive drive. Accepts a scalar
    or an array of phases.

    Evaluated as V = V_sq + 4 |m_si| cos^2(phi_lo + phi_sigma/2), a sum of
    non-negative terms, which stays accurate where n_s and m_si are large.
    """
    _, _, m_si, v_squeezed = _pair_moments(rates, injection)
    phase = np.asarray(phi_lo, dtype=float) + injection.phi_sigma / 2
    value = v_squeezed + 4.0 * m_si.real * np.cos(phase) ** 2
    return float(value) if value.ndim == 0 else value
