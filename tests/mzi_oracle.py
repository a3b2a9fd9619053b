"""Per-point Gaussian MZI pipeline and per-row sweep tables (tests only).

The interferometer one operating point at a time: a 2x2 port state built
and validated per point (mzi_input_state -> mzi_transform ->
intensity_difference_stats), the generic Gaussian moment expander behind
the central-form statistics, the closed forms on Python floats, and the
sensitivity, pole and improvement tables assembled row by row, each row's
flag taken from the exception its point raised. ringmzi evaluates all of
this as array expressions over a whole sweep; the tests require the two to
agree bit for bit and the masks to equal these exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ringmzi import (CavityRates, DomainError, OutputMoments, PoleError, SensorSpec,
                     ThresholdError, output_moments)
from ringmzi.constants import HBAR

_PHYSICALITY_SLACK = 1e-9
_BEAM_SPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class GaussianPortState:
    """Gaussian state of the two spatial ports, validated on construction."""

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
        return abs(self.mean[port]) ** 2 + self.number[port, port].real

    def total_photons(self) -> float:
        return self.port_photons(0) + self.port_photons(1)


def mzi_input_state(alpha_c: complex, squeezed: OutputMoments | None = None,
                    squeeze_phase: float = 0.0) -> GaussianPortState:
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


def _ordered_pair_moment(state, op_a: tuple[int, bool], op_b: tuple[int, bool]) -> complex:
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
    """Central-form mean and variance of ID = d_0^+ d_0 - d_1^+ d_1."""
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


def intensity_difference_stats_generic(state) -> tuple[float, float]:
    """Same statistics evaluated through the generic moment expander.

    Exact but subject to cancellation at very large displacements; the
    reference behind the central form. Works on any unbatched state with
    mean/number/anomalous/comm fields.
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


def shot_noise_limit(spec: SensorSpec, output: GaussianPortState) -> float:
    total = output.total_photons() + spec.pump_flux
    if total <= 0:
        raise DomainError("no photons in the budget; shot-noise limit undefined")
    return 1.0 / math.sqrt(total)


@dataclass(frozen=True)
class PointReadout:
    dphi: float
    mean_id: float
    var_id: float
    slope: float
    snl: float


def point_readout(spec: SensorSpec, squeezed_port: OutputMoments | None = None) -> PointReadout:
    """Gaussian-pipeline sensitivity at one point, raising on a domain or pole point."""
    state = mzi_input_state(spec.alpha_c, squeezed_port)
    eta = spec.eta_value
    output = mzi_transform(state, spec)
    mean_id, var_id = intensity_difference_stats(output)
    signal_map, _ = _mzi_maps(spec.phi, eta)
    d_ps = np.diag([0.5j * np.exp(1j * spec.phi / 2), -0.5j * np.exp(-1j * spec.phi / 2)])
    d_map = math.sqrt(eta) * _BEAM_SPLITTER @ d_ps @ _BEAM_SPLITTER
    d_number = (np.conj(d_map) @ state.number @ signal_map.T).diagonal()
    d_photons = 2.0 * (np.conj(output.mean) * (d_map @ state.mean) + d_number).real
    slope = float(d_photons[0] - d_photons[1])
    if abs(slope) <= 1e-9 * eta * state.total_photons():
        raise PoleError(f"signal slope vanishes at phi={spec.phi}")
    dphi = math.sqrt(max(var_id, 0.0)) / abs(slope)
    return PointReadout(dphi=dphi, mean_id=mean_id, var_id=var_id, slope=slope,
                        snl=shot_noise_limit(spec, output))


def phase_sensitivity_coherent(spec: SensorSpec) -> float:
    if spec.alpha_c <= 0:
        raise DomainError("alpha_c must be positive for the coherent sensitivity")
    return 1.0 / (math.sqrt(spec.eta_value) * spec.alpha_c)


def phase_sensitivity_squeezed(spec: SensorSpec, rates: CavityRates, injection) -> float:
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


def _spec(cfg, alpha_c: float, pump_power: float, phi: float | None = None,
          length: float | None = None) -> SensorSpec:
    kwargs = dict(phi=cfg.phi if phi is None else phi, alpha_c=alpha_c,
                  alpha_l_power=pump_power, omega_p=cfg.geometry.pump_frequency())
    if length is not None:
        return SensorSpec(sensor_length=length, alpha_loss=cfg.sensor_alpha_loss, **kwargs)
    if cfg.sensor_length is not None:
        return SensorSpec(sensor_length=cfg.sensor_length, alpha_loss=cfg.sensor_alpha_loss,
                          **kwargs)
    return SensorSpec(eta=cfg.eta, **kwargs)


def sensitivity_rows(cfg, rates, injection, alpha_c: float, pump_power: float,
                     grid: Sequence[float]) -> list[list]:
    """Rows of the sensitivity table (p_c or phi sweep) built point by point."""
    omega_p = cfg.geometry.pump_frequency()
    moments = None
    try:
        moments = output_moments(rates, injection)
    except ThresholdError:
        pass

    def snl_at(spec: SensorSpec) -> float:
        return shot_noise_limit(spec, mzi_transform(mzi_input_state(spec.alpha_c, moments), spec))

    def power_row(p_c: float) -> list:
        a_c = math.sqrt(p_c / (HBAR * omega_p))
        spec = _spec(cfg, a_c, pump_power)
        try:
            if moments is None:
                raise ThresholdError("above threshold")
            return [p_c, a_c, phase_sensitivity_squeezed(spec, rates, injection),
                    phase_sensitivity_coherent(spec), snl_at(spec), ""]
        except PoleError:
            return [p_c, a_c, math.inf, phase_sensitivity_coherent(spec), snl_at(spec), "pole"]
        except (ThresholdError, DomainError) as exc:
            flag = "threshold" if isinstance(exc, ThresholdError) else "domain"
            return [p_c, a_c, math.inf, math.inf, math.inf, flag]

    def phase_row(phi: float) -> list:
        spec = _spec(cfg, alpha_c, pump_power, phi=phi)
        try:
            if moments is None:
                raise ThresholdError("above threshold")
            sine = abs(math.sin(phi))
            coherent = phase_sensitivity_coherent(spec) / sine if sine > 1e-9 else math.inf
            readout = point_readout(spec, moments)
            return [phi, readout.dphi, coherent, readout.snl, ""]
        except PoleError:
            return [phi, math.inf, coherent, snl_at(spec), "pole"]
        except (ThresholdError, DomainError) as exc:
            flag = "threshold" if isinstance(exc, ThresholdError) else "domain"
            return [phi, math.inf, math.inf, math.inf, flag]

    row = power_row if cfg.sweep.variable == "p_c" else phase_row
    return [row(x) for x in grid]


def pole_rows(cfg, rates, injection, pump_power: float, grid: Sequence[float]) -> list[list]:
    """Rows of the pole table built point by point."""
    def row(alpha_c: float) -> list:
        spec = _spec(cfg, alpha_c, pump_power)
        try:
            return [alpha_c, phase_sensitivity_squeezed(spec, rates, injection), ""]
        except PoleError:
            return [alpha_c, math.inf, "pole"]
        except ThresholdError:
            return [alpha_c, math.inf, "threshold"]

    return [row(x) for x in grid]


def improvement_rows(cfg, ring, injection, alpha_c: float, pump_power: float,
                     grid: Sequence[float]) -> list[list]:
    """Rows of the improvement table built point by point (``ring`` at the target DR)."""
    def row(length: float) -> list:
        spec = _spec(cfg, alpha_c, pump_power, length=length)
        try:
            improvement = (phase_sensitivity_coherent(spec)
                           / phase_sensitivity_squeezed(spec, ring, injection))
            return [length, spec.eta_value, improvement, ""]
        except PoleError:
            return [length, spec.eta_value, math.inf, "pole"]
        except ThresholdError:
            return [length, spec.eta_value, math.inf, "threshold"]

    return [row(x) for x in grid]
