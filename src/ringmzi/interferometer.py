"""Lossy Mach-Zehnder phase estimation with a squeezed signal/idler port.

The interferometer maps the two spatial input ports A = (a_0, a_1) onto the
detected ports through D = BS @ [sqrt(eta) PS BS A + sqrt(1-eta) B], with

    BS = (1/sqrt(2)) [[1, 1], [1, -1]],   PS = diag(e^{i phi/2}, e^{-i phi/2})

and one fresh vacuum mode per path modelling the propagation loss eta.
Port a_0 carries the coherent probe (real-positive amplitude); port a_1
carries the frequency-paired signal/idler field as a single composite mode
with population 2 n_s, anomalous moment 2 m_si and commutator weight 2
(the pairing a balanced bichromatic readout measures). Detection is the
intensity difference ID = d_0^+ d_0 - d_1^+ d_1; its mean and variance
follow exactly from the Gaussian moment expansion, and the minimum
detectable phase is dphi = sqrt(Var ID)/|d<ID>/dphi|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import CODATA2018
from .cavity_io import OutputMoments, photon_flux
from .errors import DomainError, PoleError, ThresholdError
from .params import CavityRates, Injection

_PHYSICALITY_SLACK = 1e-9
_BEAM_SPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class SensorSpec:
    """Sensor-region description of the interferometer.

    Parameters
    ----------
    phi : float
        Interferometer phase, applied symmetrically as +/- phi/2 [rad].
    alpha_c : float
        Real-positive coherent amplitude at port a_0 [sqrt(Hz)].
    eta : float, optional
        Path efficiency in (0, 1]. Alternatively give sensor_length and
        alpha_loss, from which eta = e^(-alpha_loss*sensor_length).
    sensor_length : float, optional
        Physical path length [m].
    alpha_loss : float, optional
        Waveguide loss of the sensor region [1/m].
    alpha_l_power : float
        Pump power charged to the shot-noise budget [W].
    omega_p : float
        Pump angular frequency [rad/s]; required when alpha_l_power > 0.
    """

    phi: float
    alpha_c: float = 0.0
    eta: float | None = None
    sensor_length: float | None = None
    alpha_loss: float | None = None
    alpha_l_power: float = 0.0
    omega_p: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha_c < 0:
            raise DomainError(f"alpha_c must be non-negative (phase is pinned), got {self.alpha_c}")
        if self.alpha_l_power < 0:
            raise DomainError(f"alpha_l_power must be non-negative, got {self.alpha_l_power}")
        if self.eta is None and (self.sensor_length is None or self.alpha_loss is None):
            raise DomainError("give either eta or both sensor_length and alpha_loss")
        if self.eta is not None and self.sensor_length is not None:
            raise DomainError("eta and sensor_length are mutually exclusive")
        eta = self.eta_value
        if not 0.0 < eta <= 1.0:
            raise DomainError(f"eta out of range (0, 1]: {eta}")

    @property
    def eta_value(self) -> float:
        """Resolved path efficiency."""
        if self.eta is not None:
            return self.eta
        return math.exp(-self.alpha_loss * self.sensor_length)

    @property
    def pump_flux(self) -> float:
        """Pump photon flux |alpha_l|^2 charged to the shot-noise budget [Hz]."""
        if self.alpha_l_power == 0.0:
            return 0.0
        if self.omega_p <= 0:
            raise DomainError("omega_p must be positive when alpha_l_power > 0")
        return self.alpha_l_power / (CODATA2018.hbar * self.omega_p)


@dataclass(frozen=True)
class GaussianPortState:
    """Gaussian state of the two spatial ports.

    mean[p] is the field amplitude of port p; number[p, q] = <da_p^+ da_q>
    and anomalous[p, q] = <da_p da_q> are the fluctuation moments; comm[p, q]
    is the commutator weight [a_p, a_q^+]. A port carrying both halves of a
    frequency-paired field counts two elementary modes and has weight 2.
    """

    mean: np.ndarray
    number: np.ndarray
    anomalous: np.ndarray
    comm: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean", "number", "anomalous", "comm"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(np.asarray(arr, dtype=complex).view(float))):
                raise DomainError(f"{name} must be finite")
        for p in range(2):
            n_pp = self.number[p, p].real
            w_pp = self.comm[p, p].real
            if n_pp < -_PHYSICALITY_SLACK:
                raise DomainError(f"negative population on port {p}")
            bound = n_pp * (n_pp + w_pp)
            if abs(self.anomalous[p, p]) ** 2 > bound * (1 + 1e-6) + _PHYSICALITY_SLACK:
                raise DomainError(f"anomalous moment on port {p} violates physicality")

    def port_photons(self, port: int) -> float:
        """Mean photon flux <a_p^+ a_p> including the displacement."""
        return abs(self.mean[port]) ** 2 + self.number[port, port].real

    def total_photons(self) -> float:
        return self.port_photons(0) + self.port_photons(1)


def mzi_input_state(alpha_c: complex, squeezed: OutputMoments | None = None,
                    squeeze_phase: float = 0.0) -> GaussianPortState:
    """Input state: coherent probe on port a_0, pair field on port a_1.

    With ``squeezed`` given, port a_1 is the composite two-band mode with
    population n_s + n_i, anomalous moment 2*m_si (rotated by
    e^(2i*squeeze_phase); zero keeps phi = pi/2 squeezing-aligned) and any
    static seed amplitude. Without it, port a_1 is a plain vacuum mode.
    """
    mean = np.zeros(2, dtype=complex)
    number = np.zeros((2, 2), dtype=complex)
    anomalous = np.zeros((2, 2), dtype=complex)
    mean[0] = alpha_c
    if squeezed is None:
        comm = np.diag([1.0, 1.0]).astype(complex)
    else:
        comm = np.diag([1.0, 2.0]).astype(complex)
        number[1, 1] = squeezed.n_s + squeezed.n_i
        anomalous[1, 1] = 2.0 * squeezed.m_si * np.exp(2j * squeeze_phase)
        mean[1] = (squeezed.first_s + squeezed.first_i) * np.exp(1j * squeeze_phase)
    return GaussianPortState(mean=mean, number=number, anomalous=anomalous, comm=comm)


def _mzi_maps(phi: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    bs = _BEAM_SPLITTER
    ps = np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)])
    return math.sqrt(eta) * bs @ ps @ bs, math.sqrt(1.0 - eta) * bs


def mzi_transform(state: GaussianPortState, spec: SensorSpec) -> GaussianPortState:
    """Propagate the port state through BS, +/-phi/2, loss and the exit BS."""
    signal_map, vacuum_map = _mzi_maps(spec.phi, spec.eta_value)
    mean = signal_map @ state.mean
    number = np.conj(signal_map) @ state.number @ signal_map.T
    anomalous = signal_map @ state.anomalous @ signal_map.T
    comm = (signal_map @ state.comm @ np.conj(signal_map.T)
            + vacuum_map @ np.conj(vacuum_map.T))
    return GaussianPortState(mean=mean, number=number, anomalous=anomalous, comm=comm)


def gaussian_moment(means: Sequence[complex],
                    pair_moments: Callable[[int, int], complex]) -> complex:
    """Moment <X_1 X_2 ... X_n> of jointly Gaussian operators.

    ``means[i]`` is <X_i> and ``pair_moments(i, j)`` the ordered second
    moment <X_i X_j> for i < j. All cumulants beyond second order vanish
    for a Gaussian state, so the moment is the sum over all partitions of
    the index set into singletons and ordered pairs:

        <X_1 .. X_n> = sum  prod <X_i>  prod (<X_j X_k> - <X_j><X_k>).

    For n = 3 this reproduces the familiar reduction
    <X1 X2 X3> = <X1 X2><X3> + <X1 X3><X2> + <X1><X2 X3> - 2<X1><X2><X3>.
    """
    idx = list(range(len(means)))

    def covariance(i: int, j: int) -> complex:
        return pair_moments(i, j) - means[i] * means[j]

    def recurse(active: list[int]) -> complex:
        if not active:
            return 1.0 + 0.0j
        head, tail = active[0], active[1:]
        total = means[head] * recurse(tail)
        for pos, partner in enumerate(tail):
            total += covariance(head, partner) * recurse(tail[:pos] + tail[pos + 1:])
        return total

    return recurse(idx)


def _ordered_pair_moment(state: GaussianPortState, op_a: tuple[int, bool],
                         op_b: tuple[int, bool]) -> complex:
    """Ordered fluctuation moment <dX_a dX_b>; op = (port, is_dagger)."""
    (p, dag_a), (q, dag_b) = op_a, op_b
    if dag_a and not dag_b:
        return state.number[p, q]
    if not dag_a and dag_b:
        return state.comm[p, q] + state.number[q, p]
    if not dag_a and not dag_b:
        return state.anomalous[p, q]
    return np.conj(state.anomalous[q, p])


def intensity_difference_stats(state: GaussianPortState) -> tuple[float, float]:
    """Mean and variance of ID = d_0^+ d_0 - d_1^+ d_1.

    The variance is the Gaussian fourth-moment expansion (pair contractions
    of the fluctuations plus displacement cross terms), written in central
    form to avoid cancellation between large raw moments; the generic
    :func:`gaussian_moment` reduction yields the identical expression.
    """
    mu, number, anomalous, comm = state.mean, state.number, state.anomalous, state.comm

    def cov_ordered(p: int, q: int) -> float:
        val = abs(anomalous[p, q]) ** 2 + number[p, q] * (comm[p, q] + number[q, p])
        val += 2.0 * (np.conj(mu[p]) * np.conj(mu[q]) * anomalous[p, q]).real
        val += 2.0 * (mu[p] * np.conj(mu[q]) * number[p, q]).real
        val += np.conj(mu[p]) * mu[q] * comm[p, q]
        return float(val.real)

    mean_id = state.port_photons(0) - state.port_photons(1)
    var_id = 0.0
    for p, sign_p in ((0, 1.0), (1, -1.0)):
        for q, sign_q in ((0, 1.0), (1, -1.0)):
            var_id += sign_p * sign_q * cov_ordered(p, q)
    return mean_id, var_id


def intensity_difference_stats_generic(state: GaussianPortState) -> tuple[float, float]:
    """Same statistics evaluated through the generic moment expander.

    Exact but subject to cancellation at very large displacements; kept as
    the reference implementation behind :func:`intensity_difference_stats`.
    """
    ops = [(0, True), (0, False), (1, True), (1, False)]

    def mean_of(op: tuple[int, bool]) -> complex:
        port, dag = op
        return np.conj(state.mean[port]) if dag else state.mean[port]

    def evaluate(op_list: list[tuple[int, bool]]) -> complex:
        means = [mean_of(op) for op in op_list]

        def pairs(i: int, j: int) -> complex:
            return (_ordered_pair_moment(state, op_list[i], op_list[j])
                    + means[i] * means[j])

        return gaussian_moment(means, pairs)

    mean_id = evaluate(ops[:2]).real - evaluate(ops[2:]).real
    second = 0.0
    for block_p, sign_p in ((ops[:2], 1.0), (ops[2:], -1.0)):
        for block_q, sign_q in ((ops[:2], 1.0), (ops[2:], -1.0)):
            second += sign_p * sign_q * evaluate(block_p + block_q).real
    return mean_id, second - mean_id**2


@dataclass(frozen=True)
class SensitivityReport:
    """Phase-estimation figures at one operating point."""

    dphi: float
    mean_id: float
    var_id: float
    snl: float
    improvement: float


def phase_sensitivity_numeric(spec: SensorSpec,
                              squeezed_port: OutputMoments | None = None) -> SensitivityReport:
    """Minimum detectable phase from the Gaussian moment pipeline.

    dphi = sqrt(Var ID)/|d<ID>/dphi|. The slope is exact: the derivative of
    the signal map, dS/dphi = sqrt(eta) BS dPS BS, carried through the output
    mean and number moments (the loss map does not depend on phi). A slope
    of at most 1e-9 * eta * N, N the input photons, is a pole: the relative
    rule :func:`phase_sensitivity_squeezed` applies to its gap.
    """
    state = mzi_input_state(spec.alpha_c, squeezed_port)
    eta = spec.eta_value
    output = mzi_transform(state, spec)
    mean_id, var_id = intensity_difference_stats(output)
    signal_map, _ = _mzi_maps(spec.phi, eta)
    d_ps = np.diag([0.5j * np.exp(1j * spec.phi / 2), -0.5j * np.exp(-1j * spec.phi / 2)])
    d_map = math.sqrt(eta) * _BEAM_SPLITTER @ d_ps @ _BEAM_SPLITTER
    # number is Hermitian, so d(number)_pp = 2 Re[(conj(dS) number S^T)_pp].
    d_number = (np.conj(d_map) @ state.number @ signal_map.T).diagonal()
    d_photons = 2.0 * (np.conj(output.mean) * (d_map @ state.mean) + d_number).real
    slope = float(d_photons[0] - d_photons[1])
    if abs(slope) <= 1e-9 * eta * state.total_photons():
        raise PoleError(f"signal slope vanishes at phi={spec.phi}")
    dphi = math.sqrt(max(var_id, 0.0)) / abs(slope)
    snl = shot_noise_limit(spec, output)
    improvement = phase_sensitivity_coherent(spec) / dphi if spec.alpha_c > 0 else math.nan
    return SensitivityReport(dphi=dphi, mean_id=mean_id, var_id=var_id, snl=snl,
                             improvement=improvement)


def phase_sensitivity_coherent(spec: SensorSpec) -> float:
    """Coherent-probe sensitivity 1/(sqrt(eta)*alpha_c) at phi = pi/2."""
    if spec.alpha_c <= 0:
        raise DomainError("alpha_c must be positive for the coherent sensitivity")
    return 1.0 / (math.sqrt(spec.eta_value) * spec.alpha_c)


def phase_sensitivity_squeezed(spec: SensorSpec, rates: CavityRates,
                               injection: Injection) -> float:
    """Closed-form sensitivity with the squeezed pair port, at phi = pi/2.

    Evaluates

        dphi = sqrt( eta a^2 (G-s)^2 (G^2 + s(2 gamma - 6 kappa) + s^2)
                     + a^2 (G^2-s^2)^2 + 8 kappa s^2 G )
               / [ sqrt(eta) (G^2-s^2) |a^2 - 8 s^2 kappa G/(G^2-s^2)^2| ]

    with a = alpha_c, s = sigma, G = Gamma. Diverges on the pole
    a^2 = 2 n_s where the slope of <ID> changes sign.
    """
    kappa, gamma = rates.kappa, rates.gamma
    gamma_total = rates.gamma_total
    sigma = injection.sigma_mag
    if sigma >= gamma_total:
        raise ThresholdError(f"at/above threshold: sigma={sigma} >= Gamma={gamma_total}")
    eta = spec.eta_value
    a2 = spec.alpha_c**2
    g2 = gamma_total**2
    s2 = sigma**2
    num = math.sqrt(
        eta * a2 * (gamma_total - sigma) ** 2 * (g2 + sigma * (2 * gamma - 6 * kappa) + s2)
        + a2 * (g2 - s2) ** 2
        + 8 * kappa * s2 * gamma_total
    )
    squeezed_flux = 8 * s2 * kappa * gamma_total / (g2 - s2) ** 2
    gap = abs(a2 - squeezed_flux)
    if gap <= 1e-9 * (a2 + squeezed_flux):
        raise PoleError("coherent flux equals the squeezed flux (sensitivity pole)")
    return num / (math.sqrt(eta) * (g2 - s2) * gap)


def shot_noise_limit(spec: SensorSpec, output: GaussianPortState) -> float:
    """Shot-noise-limited phase 1/sqrt(N) with the squeezer pump charged.

    N counts the detected photons of both ports plus the pump flux
    spec.alpha_l_power/(hbar*omega_p) spent generating the pair field.
    """
    total = output.total_photons() + spec.pump_flux
    if total <= 0:
        raise DomainError("no photons in the budget; shot-noise limit undefined")
    return 1.0 / math.sqrt(total)


def decay_ratio(rates: CavityRates) -> float:
    """Cavity design ratio DR = kappa/gamma (inf for a lossless ring)."""
    if rates.gamma == 0:
        return math.inf
    return rates.kappa / rates.gamma


def improvement_factor(spec: SensorSpec, rates: CavityRates, injection: Injection) -> float:
    """Sensitivity gain dphi_coherent/dphi_squeezed at identical alpha_c and eta."""
    return phase_sensitivity_coherent(spec) / phase_sensitivity_squeezed(spec, rates, injection)


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
    alpha_c^2 = 2 n_s.
    """
    return math.sqrt(2.0 * photon_flux(rates, injection))
