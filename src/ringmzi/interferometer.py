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
from .errors import DomainError
from .params import CavityRates, Injection

_PHYSICALITY_SLACK = 1e-9
# Relative gap |a^2 - N| |sin phi|/(a^2 + N) at or below which a point is a pole.
POLE_TOLERANCE = 1e-9


def _check_pair_port(n: float, m: float) -> None:
    """Raise DomainError unless the pair port (population N, anomalous moment M,
    commutator weight 2) is finite with N >= 0 and M^2 <= N (N + 2), each with a
    small slack."""
    if not (math.isfinite(n) and math.isfinite(m)) or n < -_PHYSICALITY_SLACK or (
            m * m > n * (n + 2.0) * (1 + 1e-6) + _PHYSICALITY_SLACK):
        raise DomainError(f"pair port is not finite or violates physicality: N={n!r}, M={m!r}")


def mzi_sensitivity(alpha_c, phi, eta, rates: CavityRates, injection: Injection):
    """Squeezed-port sensitivity of the lossy MZI over broadcast alpha_c, phi, eta.

    Returns arrays (dphi_squeezed, detected_photons, pole) of the broadcast
    shape: dphi = sqrt(Var ID)/(eta |(a^2 - N) sin phi|) from the closed form of
    the module docstring, the detected photons eta (a^2 + N), and the pole mask
    |(a^2 - N) sin phi| <= POLE_TOLERANCE (a^2 + N), where dphi is inf. N, M and
    V_min are those of cavity_io at zero detuning, M for a drive phase aligned
    with the readout; ThresholdError at sigma_n >= 1 and the DomainError of
    _check_pair_port hold for every point alike.
    """
    _, n_s, m_si, v_min = _pair_moments(rates, injection)
    n, m = 2 * n_s, 2 * m_si.real
    _check_pair_port(n, m)
    alpha_c, phi, eta = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                             for x in (alpha_c, phi, eta)))
    a2 = alpha_c * alpha_c
    cosine, sine = np.cos(phi), np.sin(phi)
    var_id = (eta * eta * (cosine * cosine * (a2 + n * (n + 2) + m * m)
                           + sine * sine * (2 * a2 * v_min + n))
              + eta * (1 - eta) * (a2 + n))
    gap = np.abs((a2 - n) * sine)
    pole = gap <= POLE_TOLERANCE * (a2 + n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # only on pole rows
        dphi = np.where(pole, math.inf, np.sqrt(var_id) / (eta * gap))
    return dphi, eta * (a2 + n), pole


def coherent_sensitivity(alpha_c, eta):
    """Coherent-probe sensitivity 1/(sqrt(eta)*alpha_c) at phi = pi/2.

    Broadcasts over alpha_c and eta arrays; inf where alpha_c is zero.
    """
    with np.errstate(divide="ignore", over="ignore"):
        value = 1.0 / (np.sqrt(eta) * np.asarray(alpha_c, dtype=float))
    return float(value) if value.ndim == 0 else value


def decay_ratio(rates: CavityRates) -> float:
    """Cavity design ratio DR = kappa/gamma (inf for a lossless ring)."""
    if rates.gamma == 0:
        return math.inf
    return rates.kappa / rates.gamma


def critical_length(alpha_loss: float) -> float:
    """Sensor length 2/alpha_loss beyond which squeezing stops helping.

    The corresponding efficiency is e^(-2), about 13.5%.
    """
    if alpha_loss <= 0:
        raise DomainError(f"alpha_loss must be positive, got {alpha_loss}")
    return 2.0 / alpha_loss


def pole_coherent_amplitude(rates: CavityRates, injection: Injection) -> float:
    """Coherent amplitude at which the squeezed sensitivity diverges.

    The pole sits where the coherent flux matches the total squeezed flux:
    alpha_c^2 = N = 2 n_s, with n_s as mzi_sensitivity takes it, so that
    mzi_sensitivity flags this amplitude a pole at phi = pi/2.
    """
    return math.sqrt(2 * _pair_moments(rates, injection)[1])
