"""Per-point Gaussian MZI pipeline and per-row sweep tables (tests only).

The interferometer one operating point at a time: a 2x2 port state built
and validated per point (mzi_input_state -> mzi_transform ->
intensity_difference_stats), with the phase slope carried analytically
through the signal map, and the generic Gaussian moment expander behind the
central-form statistics. This pipeline is the physics reference the closed
form of ringmzi.interferometer is held against. Beside it, the closed form
on Python floats, grouped as ringmzi groups it and fed the pair port of
ringmzi.cavity_io, and the sensitivity, pole and improvement tables
assembled from it row by row, each row's flag taken from the exception its
point raised; the tests require these tables to equal ringmzi's array
tables cell for cell. pole_coherent_amplitude gives the probe on the pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ringmzi import DomainError, ThresholdError
from ringmzi.cavity_io import _pair_moments
from ringmzi.constants import HBAR
from scattering_oracle import closed_moments

_PHYSICALITY_SLACK = 1e-9
_POLE_TOLERANCE = 1e-9
_BEAM_SPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


class PoleError(ValueError):
    """The sensitivity estimate sits on a pole of the error-propagation formula."""


@dataclass(frozen=True)
class Point:
    """One operating point: phase phi [rad], probe amplitude alpha_c and path efficiency eta."""

    phi: float
    alpha_c: float
    eta: float = 1.0


@dataclass(frozen=True)
class PairPort:
    """Port a_1 as one composite two-band mode: population n, anomalous moment m
    and a static mean amplitude (a seed)."""

    n: float
    m: complex
    mean: complex = 0.0


def pair_port(rates, injection, mean: complex = 0.0) -> PairPort:
    """The ring's pair field at zero detuning, n = 2 n_s and m = 2 m_si, from ringmzi.cavity_io."""
    n_s, m_si = closed_moments(rates, injection)
    return PairPort(n=2.0 * n_s, m=2.0 * m_si, mean=mean)


def pole_coherent_amplitude(rates, injection) -> float:
    """Coherent amplitude at which the squeezed sensitivity diverges.

    The pole sits where the coherent flux matches the total squeezed flux:
    alpha_c^2 = N = 2 n_s, with n_s as mzi_sensitivity takes it, so that
    mzi_sensitivity flags this amplitude a pole at phi = pi/2.
    """
    scale = math.ldexp(1.0, min(math.frexp(injection.sigma_n)[1], 0))  # as mzi_sensitivity's
    return scale * math.sqrt(2 * _pair_moments(rates, injection, scale=scale)[1])


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


def mzi_input_state(alpha_c: complex, port: PairPort | None = None,
                    squeeze_phase: float = 0.0) -> GaussianPortState:
    """Coherent probe on port a_0; the pair port (commutator weight 2), or a
    plain vacuum mode without one, on port a_1.

    Where a^2 and N are below 2^-600 and M^2 <= N (N + 2), as mzi_sensitivity scales them,
    the state, and so the pipeline, is in extended precision (80-bit on x86), whose exponent
    range holds a subnormal double as a normal number: no moment then underflows."""
    tiny = port is not None and max(abs(alpha_c) ** 2, port.n) < 2.0 ** -600 and (
        abs(port.m) <= math.sqrt(port.n * (port.n + 2)))
    dtype = np.clongdouble if tiny else complex
    mean = np.zeros(2, dtype=dtype)
    number = np.zeros((2, 2), dtype=dtype)
    anomalous = np.zeros((2, 2), dtype=dtype)
    mean[0] = alpha_c
    if port is None:
        comm = np.diag([1.0, 1.0]).astype(dtype)
    else:
        comm = np.diag([1.0, 2.0]).astype(dtype)
        number[1, 1] = port.n
        rotation = np.exp(1j * squeeze_phase) if squeeze_phase else 1.0  # inf * (1+0j) is nan
        anomalous[1, 1] = port.m * rotation**2
        mean[1] = port.mean * rotation
    return GaussianPortState(mean=mean, number=number, anomalous=anomalous, comm=comm)


def _mzi_maps(phi: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    bs = _BEAM_SPLITTER
    ps = np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)])
    return math.sqrt(eta) * bs @ ps @ bs, math.sqrt(1.0 - eta) * bs


def mzi_transform(state: GaussianPortState, point: Point) -> GaussianPortState:
    signal_map, vacuum_map = _mzi_maps(point.phi, point.eta)
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
        return val.real

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


@dataclass(frozen=True)
class PointReadout:
    dphi: float
    mean_id: float
    var_id: float
    slope: float
    photons: float


def point_readout(point: Point, port: PairPort | None = None,
                  squeeze_phase: float = 0.0) -> PointReadout:
    """Gaussian-pipeline sensitivity at one point, raising on a domain or pole point.

    The slope d<ID>/dphi is exact: the derivative of the signal map carried
    through the output mean and number moments. A slope of at most 1e-9 eta N,
    N the input photons, is a pole; ``photons`` are the detected ones.
    """
    state = mzi_input_state(point.alpha_c, port, squeeze_phase)
    output = mzi_transform(state, point)
    mean_id, var_id = intensity_difference_stats(output)
    signal_map, _ = _mzi_maps(point.phi, point.eta)
    d_ps = np.diag([0.5j * np.exp(1j * point.phi / 2), -0.5j * np.exp(-1j * point.phi / 2)])
    d_map = math.sqrt(point.eta) * _BEAM_SPLITTER @ d_ps @ _BEAM_SPLITTER
    # number is Hermitian, so d(number)_pp = 2 Re[(conj(dS) number S^T)_pp].
    d_number = (np.conj(d_map) @ state.number @ signal_map.T).diagonal()
    d_photons = 2.0 * (np.conj(output.mean) * (d_map @ state.mean) + d_number).real
    slope = d_photons[0] - d_photons[1]
    if abs(slope) <= _POLE_TOLERANCE * point.eta * state.total_photons():
        raise PoleError(f"signal slope vanishes at phi={point.phi}")
    dphi = np.sqrt(max(var_id, 0.0)) / abs(slope)
    return PointReadout(dphi=float(dphi), mean_id=float(mean_id), var_id=float(var_id),
                        slope=float(slope), photons=float(output.total_photons()))


def closed_form(point: Point, rates, injection) -> tuple[float, float, bool]:
    """(dphi, detected photons, pole) of the closed form on Python floats.

    Every operation is grouped as ringmzi.interferometer groups it, so the
    two round alike: the pair port is that of a drive phase aligned with the
    readout, and V_min = V_sq as ringmzi.cavity_io forms it. dphi is inf on a
    pole. Raises ThresholdError at or above threshold and DomainError where
    the pair port is unphysical.
    """
    port = pair_port(rates, replace(injection, phi_sigma=0.0))
    mzi_input_state(0.0, port)  # validates the port
    n, m = port.n, port.m.real
    s = injection.sigma_n
    v_min = ((1 - s) ** 2 + 4 * s * (rates.gamma / rates.gamma_total)) / (1 + s) ** 2
    eta, alpha_c, root = point.eta, point.alpha_c, 1.0
    if max(alpha_c * alpha_c, n) < 2.0 ** -600 and abs(m) <= math.sqrt(n * (n + 2)):
        root = math.ldexp(1.0, min(-math.frexp(max(abs(alpha_c), math.sqrt(n)))[1], 1023))
    a2, scaled_n, scaled_m = (alpha_c * root) * (alpha_c * root), n * root * root, m * root
    cosine, sine = float(np.cos(point.phi)), float(np.sin(point.phi))
    var_id = (eta * eta * (cosine * cosine * (a2 + scaled_n * (n + 2) + scaled_m * scaled_m)
                           + sine * sine * (2 * a2 * v_min + scaled_n))
              + eta * (1 - eta) * (a2 + scaled_n))
    gap = abs((a2 - scaled_n) * sine)
    photons = eta * (a2 + scaled_n) / root / root
    if gap <= _POLE_TOLERANCE * (a2 + scaled_n):
        return math.inf, photons, True
    return math.sqrt(var_id) * root / (eta * gap), photons, False


def coherent_reference(point: Point) -> float:
    """Coherent probe with a vacuum port, 1/(sqrt(eta) alpha_c |sin phi|): inf on the pole
    |sin phi| <= 1e-9, and 1/(sqrt(eta) alpha_c) at phi = pi/2, where the sine is exactly 1."""
    if point.alpha_c <= 0:
        raise DomainError("alpha_c must be positive for the coherent sensitivity")
    product = math.sqrt(point.eta) * point.alpha_c
    sine = abs(float(np.sin(point.phi)))
    # A product that rounds to 0 is below 2.5e-324, so its reciprocal overflows.
    return (1.0 / product if product else math.inf) / sine if sine > _POLE_TOLERANCE else math.inf


def sensitivity_rows(cfg, rates, injection, alpha_c: float, pump_power: float,
                     grid: Sequence[float]) -> list[list]:
    """Rows of the sensitivity table (p_c or phi sweep) built point by point."""
    omega_p = cfg.geometry.pump_frequency()
    eta = cfg.eta
    pump_flux = pump_power / (HBAR * omega_p)

    def snl(photons: float) -> float:
        total = photons + pump_flux
        return 1.0 / math.sqrt(total) if total > 0 else math.inf

    def power_row(p_c: float) -> list:
        a_c = math.sqrt(p_c / (HBAR * omega_p))
        point = Point(math.pi / 2, a_c, eta)
        try:
            dphi, photons, pole = closed_form(point, rates, injection)
            coherent = coherent_reference(point)
        except (ThresholdError, DomainError) as exc:
            flag = "threshold" if isinstance(exc, ThresholdError) else "domain"
            return [p_c, a_c, math.inf, math.inf, math.inf, flag]
        return [p_c, a_c, dphi, coherent, snl(photons), "pole" if pole else ""]

    def phase_row(phi: float) -> list:
        point = Point(phi, alpha_c, eta)
        try:
            dphi, photons, pole = closed_form(point, rates, injection)
            coherent = coherent_reference(point)
        except (ThresholdError, DomainError) as exc:
            flag = "threshold" if isinstance(exc, ThresholdError) else "domain"
            return [phi, math.inf, math.inf, math.inf, flag]
        return [phi, dphi, coherent, snl(photons), "pole" if pole else ""]

    row = power_row if cfg.sweep.variable == "p_c" else phase_row
    return [row(x) for x in grid]


def pole_rows(cfg, rates, injection, grid: Sequence[float]) -> list[list]:
    """Rows of the pole table built point by point."""
    eta = cfg.eta

    def row(alpha_c: float) -> list:
        try:
            dphi, _, pole = closed_form(Point(math.pi / 2, alpha_c, eta), rates, injection)
        except ThresholdError:
            return [alpha_c, math.inf, "threshold"]
        return [alpha_c, dphi, "pole" if pole else ""]

    return [row(x) for x in grid]


def improvement_rows(cfg, ring, injection, alpha_c: float,
                     grid: Sequence[float]) -> list[list]:
    """Rows of the improvement table built point by point (``ring`` at the target DR)."""
    def row(length: float) -> list:
        eta = math.exp(-cfg.sensor_alpha_loss * length)
        point = Point(math.pi / 2, alpha_c, eta)
        try:
            dphi, _, pole = closed_form(point, ring, injection)
        except ThresholdError:
            return [length, eta, math.inf, "threshold"]
        return [length, eta, math.inf if pole else coherent_reference(point) / dphi,
                "pole" if pole else ""]

    return [row(x) for x in grid]
