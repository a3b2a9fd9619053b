"""Closed forms the table checks compare against, written from the formulas
in the ringmzi module docstrings and docs/formats.md, not by calling ringmzi.

All functions take plain floats or numpy arrays. ``Ring`` holds the rates of
the reference silicon-nitride design (or of a copy with another decay ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

C_VACUUM = 299792458.0
HBAR = 6.62607015e-34 / (2 * math.pi)

# Built-in design of docs/formats.md (the configuration every workload starts from).
RING_LENGTH = 2 * math.pi * 220e-6
N_EFF = 1.801
N_G = 2.10087
CROSS_COUPLING = 0.01
ALPHA_LOSS = 0.23
N2 = 2.4e-19
A_EFF = 1.05564e-12
LAMBDA_P = 1550e-9


@dataclass(frozen=True)
class Ring:
    """Bus-coupling rate kappa, loss rate gamma, FWM gain g [Hz], pump omega_p [rad/s]."""

    kappa: float
    gamma: float
    gain: float
    omega_p: float

    @property
    def total(self) -> float:
        return self.kappa + self.gamma

    def with_decay_ratio(self, ratio: float) -> "Ring":
        """The improvement sweep's ring: gamma = kappa/DR at fixed kappa."""
        return Ring(self.kappa, self.kappa / ratio, self.gain, self.omega_p)


def reference_ring() -> Ring:
    """kappa = X c/(n_eff L), gamma = (1 - e^(-alpha L)) c/(n_eff L),
    g = hbar omega_p^2 v_g^2 n2/(c A_eff L) with v_g = c/n_g."""
    per_round = C_VACUUM / (N_EFF * RING_LENGTH)
    omega_p = 2 * math.pi * C_VACUUM / LAMBDA_P
    v_g = C_VACUUM / N_G
    gain = HBAR * omega_p**2 * v_g**2 * N2 / (C_VACUUM * A_EFF * RING_LENGTH)
    return Ring(kappa=CROSS_COUPLING * per_round,
                gamma=-math.expm1(-ALPHA_LOSS * RING_LENGTH) * per_round,
                gain=gain, omega_p=omega_p)


def pair_flux(ring: Ring, sigma_n):
    """Zero-detuning pair flux n_s = 4 sigma^2 kappa Gamma/(Gamma^2 - sigma^2)^2."""
    big = ring.total
    sigma = np.asarray(sigma_n, dtype=float) * big
    return 4 * sigma**2 * ring.kappa * big / (big**2 - sigma**2) ** 2


def anomalous(ring: Ring, sigma_n):
    """Zero-detuning pair moment m_si = 2 kappa sigma (Gamma^2 + sigma^2)/(Gamma^2 - sigma^2)^2."""
    big = ring.total
    sigma = np.asarray(sigma_n, dtype=float) * big
    return 2 * ring.kappa * sigma * (big**2 + sigma**2) / (big**2 - sigma**2) ** 2


def v_squeezed(ring: Ring, sigma_n):
    """V_sq = 1 - 4 kappa sigma/(Gamma + sigma)^2."""
    sigma = np.asarray(sigma_n, dtype=float) * ring.total
    return 1.0 - 4 * ring.kappa * sigma / (ring.total + sigma) ** 2


def v_antisqueezed(ring: Ring, sigma_n):
    """V_anti = 1 + 4 kappa sigma/(Gamma - sigma)^2."""
    sigma = np.asarray(sigma_n, dtype=float) * ring.total
    return 1.0 + 4 * ring.kappa * sigma / (ring.total - sigma) ** 2


def quadrature_variance(ring: Ring, sigma_n, phi_lo):
    """V(phi) = 1 + 2 n_s + 2 m cos(2 phi), written as V_sq sin^2 + V_anti cos^2
    so that no large terms cancel near threshold."""
    phi_lo = np.asarray(phi_lo, dtype=float)
    return (v_squeezed(ring, sigma_n) * np.sin(phi_lo) ** 2
            + v_antisqueezed(ring, sigma_n) * np.cos(phi_lo) ** 2)


def pole_amplitude(ring: Ring, sigma_n) -> float:
    """Coherent amplitude of the sensitivity pole, alpha_c^2 = 2 n_s."""
    return math.sqrt(2.0 * float(pair_flux(ring, sigma_n)))


def is_pole(alpha_c, ring: Ring, sigma_n):
    """Pole flag: |a^2 - 2 n_s| <= 1e-9 (a^2 + 2 n_s)."""
    a2 = np.asarray(alpha_c, dtype=float) ** 2
    flux = 2.0 * pair_flux(ring, sigma_n)
    return np.abs(a2 - flux) <= 1e-9 * (a2 + flux)


def dphi_squeezed(ring: Ring, sigma_n, alpha_c, eta):
    """Squeezed-port sensitivity at phi = pi/2 of the lossy MZI.

    Var ID = eta a^2 (1 - eta + 2 eta V_sq) + 2 eta n_s and |d<ID>/dphi| =
    eta |a^2 - 2 n_s|, from the Gaussian moments of the composite pair port
    (population 2 n_s, anomalous moment 2 m_si, commutator weight 2).
    """
    a2 = np.asarray(alpha_c, dtype=float) ** 2
    eta = np.asarray(eta, dtype=float)
    n_s = pair_flux(ring, sigma_n)
    var = eta * a2 * (1.0 - eta + 2.0 * eta * v_squeezed(ring, sigma_n)) + 2.0 * eta * n_s
    with np.errstate(divide="ignore"):  # inf on the pole
        return np.sqrt(var) / (eta * np.abs(a2 - 2.0 * n_s))


def improvement_lossless(ring: Ring, sigma_n, alpha_c):
    """Improvement at eta = 1: (1 - eps)/sqrt(2 V_sq + eps), eps = 2 n_s/alpha_c^2."""
    eps = 2.0 * pair_flux(ring, sigma_n) / np.asarray(alpha_c, dtype=float) ** 2
    return np.abs(1.0 - eps) / np.sqrt(2.0 * v_squeezed(ring, sigma_n) + eps)


def dphi_coherent(alpha_c, eta):
    """Coherent-probe sensitivity 1/(sqrt(eta) alpha_c) at phi = pi/2."""
    return 1.0 / (np.sqrt(eta) * np.asarray(alpha_c, dtype=float))


def pump_flux(ring: Ring, sigma_n) -> float:
    """Pump photon flux charged to the shot-noise budget: sigma_n P_th/(hbar omega_p)
    with P_th = Gamma^3 hbar omega_p/(8 g kappa) on resonance."""
    return sigma_n * ring.total**3 / (8.0 * ring.gain * ring.kappa)


def dphi_snl(ring: Ring, sigma_n, alpha_c, eta):
    """Shot-noise limit 1/sqrt(N): detected photons eta (a^2 + 2 n_s) plus the pump flux."""
    a2 = np.asarray(alpha_c, dtype=float) ** 2
    detected = eta * (a2 + 2.0 * pair_flux(ring, sigma_n))
    return 1.0 / np.sqrt(detected + pump_flux(ring, sigma_n))


def jsi(ring: Ring, sigma_n, dws, dwi):
    """Joint spectral intensity of the cavity_io docstring:
    [16 k^2 s^4 G^2 + 4 k^2 s^2 (Lam + (G^2+s^2)^2)]/(Lam + (G^2-s^2)^2)^2,
    Lam = 16 dws^2 dwi^2 + 8 dws dwi s^2 + 4 G^2 (dws^2 + dwi^2)."""
    big, kappa = ring.total, ring.kappa
    s2 = (sigma_n * big) ** 2
    lam = 16 * dws**2 * dwi**2 + 8 * dws * dwi * s2 + 4 * big**2 * (dws**2 + dwi**2)
    num = 16 * kappa**2 * s2**2 * big**2 + 4 * kappa**2 * s2 * (lam + (big**2 + s2) ** 2)
    return num / (lam + (big**2 - s2) ** 2) ** 2


def ns_linearized(sigma_n):
    """Linearized intracavity pair number n_s = sigma_n^2/(2 (1 - sigma_n^2))."""
    sigma_n = np.asarray(sigma_n, dtype=float)
    return sigma_n**2 / (2.0 * (1.0 - sigma_n**2))


def np_linearized(ring: Ring, sigma_n):
    """Undepleted intracavity pump number: sigma = 2 g n_p, so n_p = sigma_n Gamma/(2 g)."""
    return np.asarray(sigma_n, dtype=float) * ring.total / (2.0 * ring.gain)


def np_clamped(ring: Ring) -> float:
    """Pump number held at its threshold value Gamma/(2 g) above threshold."""
    return ring.total / (2.0 * ring.gain)


# Gaussian propagation through the lossy MZI, in elementary modes.
#
# Modes (a_0, a_s, a_i, b_0, b_1): coherent probe, the signal/idler pair (the
# composite port is a_1 = a_s + a_i) and one loss vacuum per path. Detected
# ports d = U a with, for c = cos(phi/2) and s = sin(phi/2),
#   d_0 = sqrt(eta) (c a_0 + i s a_1) + sqrt((1-eta)/2) (b_0 + b_1)
#   d_1 = sqrt(eta) (i s a_0 + c a_1) + sqrt((1-eta)/2) (b_0 - b_1).
# With quadratures R = (x_0..x_4, p_0..p_4), [x_k, p_k] = i, the intensity
# difference is ID = R^T H R + const, and for a Gaussian state of mean r and
# symmetric covariance S:
#   <ID> = tr(H S) + r^T H r + const,  const = -(1/2) sum_p sign_p C_pp
#   Var ID = 2 tr(H S H S) + tr(H W H W)/2 + 4 r^T H S H r,  W = [[0, I], [-I, 0]].

_MODES = 5


def _port_matrix(phi, eta, dphi_order: int):
    """U(phi) (dphi_order 0) or dU/dphi (1), shape (len(phi), 2, 5)."""
    half = np.asarray(phi, dtype=float) / 2
    c, s = np.cos(half), np.sin(half)
    if dphi_order:
        c, s = -s / 2, np.cos(half) / 2
    root = math.sqrt(eta)
    loss = 0.0 if dphi_order else math.sqrt((1.0 - eta) / 2.0)
    u = np.zeros(half.shape + (2, _MODES), dtype=complex)
    u[..., 0, 0] = root * c
    u[..., 0, 1] = u[..., 0, 2] = 1j * root * s
    u[..., 1, 0] = 1j * root * s
    u[..., 1, 1] = u[..., 1, 2] = root * c
    u[..., 0, 3] = u[..., 0, 4] = u[..., 1, 3] = loss
    u[..., 1, 4] = -loss
    return u


def _quadratic_form(u, weights, du=None):
    """H of sum_p weights_p d_p^+ d_p = R^T H R + const, or dH/dphi given du.

    X_p = g_p . R and P_p = h_p . R with g_p = (Re U_p, -Im U_p) and
    h_p = (Im U_p, Re U_p); d_p^+ d_p = (X_p^2 + P_p^2)/2 - C_pp/2.
    """
    def rows(mat):
        return np.stack([np.concatenate([mat.real, -mat.imag], axis=-1),
                         np.concatenate([mat.imag, mat.real], axis=-1)], axis=-2)

    outer = "...pkx,...pky,p->...xy"
    if du is None:
        return 0.5 * np.einsum(outer, rows(u), rows(u), weights)
    return 0.5 * (np.einsum(outer, rows(du), rows(u), weights)
                  + np.einsum(outer, rows(u), rows(du), weights))


def _input_state(alpha_c: float, n_s: float, m_si: float):
    """Mean and symmetric covariance of (a_0, a_s, a_i, b_0, b_1): coherent alpha_c,
    a two-mode squeezed pair with <a_s^+ a_s> = <a_i^+ a_i> = n_s and
    <a_s a_i> = m_si (real), and vacuum."""
    mean = np.zeros(2 * _MODES)
    mean[0] = math.sqrt(2.0) * alpha_c
    cov = 0.5 * np.eye(2 * _MODES)
    xs, xi, ps, pi_ = 1, 2, 1 + _MODES, 2 + _MODES
    for k in (xs, xi, ps, pi_):
        cov[k, k] = n_s + 0.5
    cov[xs, xi] = cov[xi, xs] = m_si
    cov[ps, pi_] = cov[pi_, ps] = -m_si
    return mean, cov


def _expectation(form, mean, cov, weight_sum):
    return (np.einsum("...xy,yx->...", form, cov) + np.einsum("x,...xy,y->...", mean, form, mean)
            - 0.5 * weight_sum)


def mzi_readout(alpha_c: float, eta: float, n_s: float, m_si: float, phi):
    """(Var ID, d<ID>/dphi, detected photons) over an array of phases.

    The slope is analytic: the expectation of dH/dphi, less half the phi
    derivative of sum_p sign_p C_pp, where C_pp = sum_k |U_pk|^2.
    """
    u = _port_matrix(phi, eta, 0)
    du = _port_matrix(phi, eta, 1)
    mean, cov = _input_state(alpha_c, n_s, m_si)
    sign, both = np.array([1.0, -1.0]), np.ones(2)
    weight = np.einsum("...pk,...pk->...p", u.conj(), u).real
    dweight = 2.0 * np.einsum("...pk,...pk->...p", u.conj(), du).real
    form = _quadratic_form(u, sign)
    symplectic = np.block([[np.zeros((_MODES, _MODES)), np.eye(_MODES)],
                           [-np.eye(_MODES), np.zeros((_MODES, _MODES))]])
    hs, hw = form @ cov, form @ symplectic
    var_id = (2.0 * np.einsum("...xy,...yx->...", hs, hs)
              + 0.5 * np.einsum("...xy,...yx->...", hw, hw)
              + 4.0 * np.einsum("x,...xy,y->...", mean, hs @ form, mean))
    slope = _expectation(_quadratic_form(u, sign, du), mean, cov, dweight @ sign)
    photons = _expectation(_quadratic_form(u, both), mean, cov, weight @ both)
    return var_id, slope, photons
