"""Numeric scattering solve of the driven ring (tests only).

The frequency-domain solve

    B_out = -(1/sqrt(kappa)) [ (A - kappa/2)(A + kappa/2)^-1
            (sqrt(kappa) B_in + sqrt(gamma) B_bath) - sqrt(gamma) B_bath ]

with A = -K, K the 4x4 drift matrix in the (a_s, a_s^+, a_i, a_i^+)
ordering, evaluated with a linear solve at one point. ringmzi.cavity_io
evaluates the same model through closed forms; the tests pin those against
this solve; closed_moments reads them for the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ringmzi import CavityRates, DomainError, Injection, ThresholdError
from ringmzi.cavity_io import _pair_moments


@dataclass(frozen=True)
class TransferMatrices:
    """Frequency-domain scattering at one evaluation point.

    b_out = s_in @ b_in + s_gamma @ b_bath in the (a_s, a_s^+, a_i, a_i^+)
    ordering. For sigma = 0 and gamma = 0 the cavity is all-pass: s_in is
    unitary and s_gamma vanishes.
    """

    s_in: np.ndarray
    s_gamma: np.ndarray


def drift_matrix(rates: CavityRates, injection: Injection, delta_s: float = 0.0,
                 delta_i: float = 0.0) -> np.ndarray:
    """4x4 drift matrix K in the rotating (detuning) frame.

    Diagonal blocks decay at gamma/2 and rotate at the detunings delta_s = omega - omega_s
    and delta_i = omega - omega_i [rad/s]; the anti-diagonal sigma/2 entries couple a_s to
    a_i^+ and a_i to a_s^+.
    """
    gamma = rates.gamma
    sigma = injection.sigma_n * rates.gamma_total * cmath.exp(1j * injection.phi_sigma)
    return np.array(
        [
            [1j * delta_s - gamma / 2, 0, 0, sigma / 2],
            [0, -1j * delta_s - gamma / 2, np.conj(sigma) / 2, 0],
            [0, sigma / 2, 1j * delta_i - gamma / 2, 0],
            [np.conj(sigma) / 2, 0, 0, -1j * delta_i - gamma / 2],
        ],
        dtype=complex,
    )


def output_transfer(rates: CavityRates, injection: Injection, delta_s: float = 0.0,
                    delta_i: float = 0.0, max_condition: float = 1e12) -> TransferMatrices:
    """Scattering matrices of the output modes at one evaluation point.

    Raises
    ------
    ThresholdError
        When the intracavity solve is singular (at/above threshold) or its
        condition number exceeds ``max_condition``.
    """
    if rates.kappa <= 0:
        raise DomainError(f"kappa must be positive, got {rates.kappa}")
    a = -drift_matrix(rates, injection, delta_s, delta_i)
    eye = np.eye(4)
    a_plus = a + rates.kappa / 2 * eye
    a_minus = a - rates.kappa / 2 * eye
    if np.linalg.cond(a_plus) > max_condition:
        raise ThresholdError("intracavity solve is at/above threshold (ill-conditioned)")
    resolvent = np.linalg.solve(a_plus.T, a_minus.T).T  # a_minus @ inv(a_plus)
    s_in = -resolvent
    s_gamma = math.sqrt(rates.gamma / rates.kappa) * (eye + s_in)
    return TransferMatrices(s_in=s_in, s_gamma=s_gamma)


def transfer_moments(tm: TransferMatrices) -> tuple[float, float, complex]:
    """(n_s, n_i, m_si) evaluated from the scattering matrices.

    Vacuum inputs leave only <b b^+> contractions, i.e. ordered column
    pairs (2m, 2m+1) of each channel.
    """

    def pair(a: int, b: int) -> complex:
        total = 0.0 + 0.0j
        for chan in (tm.s_in, tm.s_gamma):
            for m in range(2):
                total += chan[a, 2 * m] * chan[b, 2 * m + 1]
        return total

    n_s = pair(1, 0)
    n_i = pair(3, 2)
    m_si = pair(2, 0)
    return float(n_s.real), float(n_i.real), m_si


def closed_moments(rates: CavityRates, injection: Injection, delta_s: float = 0.0,
                   delta_i: float = 0.0) -> tuple[float, complex]:
    """(n_s, m_si) of ringmzi.cavity_io's closed forms at detunings delta_s, delta_i [rad/s],
    m_si with its drive phase e^(i phi_sigma)."""
    _, n_s, m_si, _ = _pair_moments(rates, injection, delta_s, delta_i)
    return n_s, m_si * cmath.exp(1j * injection.phi_sigma)
