"""Lossy Mach-Zehnder phase estimation with a squeezed signal/idler port.

The interferometer maps the two spatial input ports A = (a_0, a_1) onto the
detected ports through D = BS @ [sqrt(eta) PS BS A + sqrt(1-eta) B], with

    BS = (1/sqrt(2)) [[1, 1], [1, -1]],   PS = diag(e^{i phi/2}, e^{-i phi/2})

and one fresh vacuum mode per path modelling the propagation loss eta.
Port a_0 carries the coherent probe, of real-positive amplitude a = alpha_c;
port a_1 carries the frequency-paired signal/idler field as a single
composite mode with population N = 2 n_s, anomalous moment M = 2 m_si and
commutator weight 2 (the pairing a balanced bichromatic readout measures).
Detection is the intensity difference ID = d_0^+ d_0 - d_1^+ d_1, whose
Gaussian moments are, in closed form,

    <ID>    = eta (a^2 - N) cos(phi)
    Var ID  = eta^2 [cos^2(phi) (a^2 + N(N+2) + M^2) + sin^2(phi) (2 a^2 V_min + N)]
              + eta (1 - eta) (a^2 + N)

with V_min = 1 + N - M = V_sq the squeezed quadrature variance; N, M and
V_sq are evaluated in units of Gamma by ringmzi.cavity_io. The minimum
detectable phase is dphi = sqrt(Var ID)/|d<ID>/dphi|, and eta (a^2 + N)
photons are detected.
The tests hold these against the 2x2 Gaussian-moment pipeline of
tests/mzi_oracle.py.
"""

from __future__ import annotations

import math

import numpy as np

from .cavity_io import _pair_moments
from .params import CavityRates, Injection

# Relative gap |a^2 - N| |sin phi|/(a^2 + N) at or below which a point is a pole.
POLE_TOLERANCE = 1e-9


def mzi_sensitivity(alpha_c, phi, eta, rates: CavityRates, injection: Injection):
    """Squeezed-port sensitivity of the lossy MZI over broadcast alpha_c, phi, eta.

    Returns arrays (dphi_squeezed, detected_photons, pole) of the broadcast
    shape: dphi = sqrt(Var ID)/(eta |(a^2 - N) sin phi|) from the closed form of
    the module docstring, the detected photons eta (a^2 + N), and the pole mask
    |(a^2 - N) sin phi| <= POLE_TOLERANCE (a^2 + N), where dphi is inf. N, M and
    V_min are those of cavity_io at zero detuning, M for a drive phase aligned
    with the readout; ThresholdError at sigma_n >= 1 holds for every point alike.
    """
    alpha_c, phi, eta = (np.asarray(x, dtype=float) for x in (alpha_c, phi, eta))
    # N = n scale^2 and M = m scale: n and m keep every digit where a tiny drive's N is subnormal;
    # root takes a and sqrt(N) to about 1 where both lie below 2^-600, so no term is subnormal.
    scale = math.ldexp(1.0, min(math.frexp(injection.sigma_n)[1], 0))
    _, n_s, m_si, v_min = _pair_moments(rates, injection, scale=scale)
    n, m = 2 * n_s, 2 * m_si.real
    big_n = n * scale * scale
    root = np.where(alpha_c * alpha_c < 2.0 ** -600, np.ldexp(1.0, np.minimum(-np.frexp(np.maximum(
        np.abs(alpha_c), scale * math.sqrt(n)))[1], 1023)), 1.0) if big_n < 2.0 ** -600 else 1.0
    unit = scale * root  # N root^2 = n unit^2 and M root = m unit
    # a^2 takes the broadcast shape, and so every result does.
    a2 = np.square(alpha_c * root, out=np.empty(np.broadcast(alpha_c, phi, eta).shape))
    scaled_n, scaled_m = n * unit * unit, m * unit
    cosine, sine = np.cos(phi), np.sin(phi)
    var_id = (eta * eta * (cosine * cosine * (a2 + scaled_n * (big_n + 2) + scaled_m * scaled_m)
                           + sine * sine * (2 * a2 * v_min + scaled_n))
              + eta * (1 - eta) * (a2 + scaled_n))
    gap = np.abs((a2 - scaled_n) * sine)
    pole = gap <= POLE_TOLERANCE * (a2 + scaled_n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # only on pole rows
        dphi = np.where(pole, math.inf, np.sqrt(var_id) * root / (eta * gap))
    return dphi, eta * (a2 + scaled_n) / root / root, pole


def coherent_sensitivity(alpha_c, eta, phi=math.pi / 2):
    """Coherent-probe sensitivity 1/(sqrt(eta) |alpha_c| |sin phi|), with a vacuum port.

    Broadcasts over alpha_c, eta and phi arrays; inf where alpha_c is zero, and on the pole
    |sin phi| <= POLE_TOLERANCE, where the slope eta alpha_c^2 |sin phi| is at most
    POLE_TOLERANCE times the photons eta alpha_c^2. sin(pi/2) is exactly 1.
    """
    sine = np.abs(np.sin(phi))
    with np.errstate(divide="ignore", over="ignore"):  # both only where the value is inf
        value = np.where(sine > POLE_TOLERANCE,
                         1.0 / (np.sqrt(eta) * np.abs(np.asarray(alpha_c, dtype=float))) / sine,
                         math.inf)
    return float(value) if value.ndim == 0 else value


def decay_ratio(rates: CavityRates) -> float:
    """Cavity design ratio DR = kappa/gamma (inf for a lossless ring)."""
    if rates.gamma == 0:
        return math.inf
    return rates.kappa / rates.gamma
