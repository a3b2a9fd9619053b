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

Each quantity has one array path over the points (alpha_c, phi, eta) of a
sweep, which returns per-point failures as masks; the functions taking a
:class:`SensorSpec` call it on one point and raise instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .cavity_io import OutputMoments, photon_flux
from .errors import DomainError, PoleError, ThresholdError
from .params import CavityRates, Injection, require_finite

_PHYSICALITY_SLACK = 1e-9
# Relative gap (closed form) or slope (pipeline) at or below which a point is a pole.
POLE_TOLERANCE = 1e-9
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
        require_finite(self)
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
        return self.alpha_l_power / (HBAR * self.omega_p)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product rounded as on numpy scalars (the array loop may fuse multiply-adds)."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _abs_squared(z: np.ndarray) -> np.ndarray:
    """abs(z)**2 per element as numpy scalars evaluate it (hypot, then pow)."""
    z = np.asarray(z)
    return np.float_power(np.hypot(z.real, z.imag), 2)


@dataclass(frozen=True)
class GaussianPortState:
    """Gaussian state of the two spatial ports, for one point or a batch.

    mean[..., p] is the field amplitude of port p; number[..., p, q] =
    <da_p^+ da_q> and anomalous[..., p, q] = <da_p da_q> are the fluctuation
    moments; comm[..., p, q] is the commutator weight [a_p, a_q^+]. A port
    carrying both halves of a frequency-paired field counts two elementary
    modes and has weight 2. Leading axes index a batch, whose full shape
    ``mean`` carries; an unbatched state that is :meth:`unphysical` raises.
    """

    mean: np.ndarray
    number: np.ndarray
    anomalous: np.ndarray
    comm: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.mean) == 1 and self.unphysical():
            raise DomainError("port state is not finite or violates physicality "
                              "(negative population or anomalous moment out of bound)")

    def unphysical(self) -> np.ndarray:
        """Mask over the batch: a non-finite moment, a negative population or an
        anomalous moment beyond |m|^2 <= n (n + w), each with a small slack."""
        bad = ~np.isfinite(self.mean).all(axis=-1)
        for arr in (self.number, self.anomalous, self.comm):
            bad = bad | ~np.isfinite(arr).all(axis=(-2, -1))
        with np.errstate(invalid="ignore", over="ignore"):  # rows already marked non-finite
            for p in range(2):
                n_pp = self.number[..., p, p].real
                bound = n_pp * (n_pp + self.comm[..., p, p].real)
                bad = bad | (n_pp < -_PHYSICALITY_SLACK)
                bad = bad | (_abs_squared(self.anomalous[..., p, p])
                             > bound * (1 + 1e-6) + _PHYSICALITY_SLACK)
        return bad

    def port_photons(self, port: int) -> np.ndarray:
        """Mean photon flux <a_p^+ a_p> including the displacement."""
        return _abs_squared(self.mean[..., port]) + self.number[..., port, port].real

    def total_photons(self) -> np.ndarray:
        return self.port_photons(0) + self.port_photons(1)


def mzi_input_state(alpha_c, squeezed: OutputMoments | None = None,
                    squeeze_phase: float = 0.0) -> GaussianPortState:
    """Input state: coherent probe on port a_0, pair field on port a_1.

    ``alpha_c`` may be an array; the state then has its batch shape. With
    ``squeezed`` given, port a_1 is the composite two-band mode with
    population n_s + n_i, anomalous moment 2*m_si (rotated by
    e^(2i*squeeze_phase); zero keeps phi = pi/2 squeezing-aligned) and any
    static seed amplitude. Without it, port a_1 is a plain vacuum mode.
    """
    alpha_c = np.asarray(alpha_c)
    mean = np.zeros(alpha_c.shape + (2,), dtype=complex)
    number = np.zeros((2, 2), dtype=complex)
    anomalous = np.zeros((2, 2), dtype=complex)
    mean[..., 0] = alpha_c
    if squeezed is None:
        comm = np.diag([1.0, 1.0]).astype(complex)
    else:
        comm = np.diag([1.0, 2.0]).astype(complex)
        number[1, 1] = squeezed.n_s + squeezed.n_i
        anomalous[1, 1] = 2.0 * squeezed.m_si * np.exp(2j * squeeze_phase)
        mean[..., 1] = (squeezed.first_s + squeezed.first_i) * np.exp(1j * squeeze_phase)
    return GaussianPortState(mean=mean, number=number, anomalous=anomalous, comm=comm)


def _phase_diagonal(phi: np.ndarray, plus: complex, minus: complex) -> np.ndarray:
    """diag(plus e^{i phi/2}, minus e^{-i phi/2}) over the batch of phi."""
    out = np.zeros(phi.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = plus * np.exp(1j * phi / 2)
    out[..., 1, 1] = minus * np.exp(-1j * phi / 2)
    return out


def _mzi_maps(phi, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal map S, its phase derivative dS/dphi and the vacuum map, (..., 2, 2).

    dS/dphi = sqrt(eta) BS dPS BS; the loss map does not depend on phi.
    """
    phi = np.asarray(phi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    root = np.sqrt(eta)[..., None, None]
    bs = _BEAM_SPLITTER
    signal_map = root * bs @ _phase_diagonal(phi, 1.0, 1.0) @ bs
    d_map = root * bs @ _phase_diagonal(phi, 0.5j, -0.5j) @ bs
    return signal_map, d_map, np.sqrt(1.0 - eta)[..., None, None] * bs


def _propagate(state: GaussianPortState, signal_map: np.ndarray,
               vacuum_map: np.ndarray) -> GaussianPortState:
    signal_t = signal_map.swapaxes(-1, -2)
    mean = (signal_map @ state.mean[..., None])[..., 0]
    number = np.conj(signal_map) @ state.number @ signal_t
    anomalous = signal_map @ state.anomalous @ signal_t
    comm = (signal_map @ state.comm @ np.conj(signal_t)
            + vacuum_map @ np.conj(vacuum_map.swapaxes(-1, -2)))
    return GaussianPortState(mean=mean, number=number, anomalous=anomalous, comm=comm)


def mzi_transform(state: GaussianPortState, spec: SensorSpec) -> GaussianPortState:
    """Propagate the port state through BS, +/-phi/2, loss and the exit BS."""
    signal_map, _, vacuum_map = _mzi_maps(spec.phi, spec.eta_value)
    return _propagate(state, signal_map, vacuum_map)


def intensity_difference_stats(state: GaussianPortState) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of ID = d_0^+ d_0 - d_1^+ d_1, per point of the batch.

    The variance is the Gaussian fourth-moment expansion (pair contractions
    of the fluctuations plus displacement cross terms), written in central
    form to avoid cancellation between large raw moments; the generic
    moment expansion yields the identical expression.
    """
    mu, number, anomalous, comm = state.mean, state.number, state.anomalous, state.comm

    def cov_ordered(p: int, q: int) -> np.ndarray:
        mu_p, mu_q = mu[..., p], mu[..., q]
        val = (_abs_squared(anomalous[..., p, q])
               + _cmul(number[..., p, q], comm[..., p, q] + number[..., q, p]).real)
        val = val + 2.0 * _cmul(_cmul(np.conj(mu_p), np.conj(mu_q)), anomalous[..., p, q]).real
        val = val + 2.0 * _cmul(_cmul(mu_p, np.conj(mu_q)), number[..., p, q]).real
        return val + _cmul(_cmul(np.conj(mu_p), mu_q), comm[..., p, q]).real

    mean_id = state.port_photons(0) - state.port_photons(1)
    var_id = 0.0
    for p, sign_p in ((0, 1.0), (1, -1.0)):
        for q, sign_q in ((0, 1.0), (1, -1.0)):
            var_id = var_id + sign_p * sign_q * cov_ordered(p, q)
    return mean_id, var_id


@dataclass(frozen=True)
class SensitivityReport:
    """Phase-estimation figures at one operating point."""

    dphi: float
    mean_id: float
    var_id: float
    snl: float
    improvement: float


@dataclass(frozen=True)
class PhaseReadout:
    """Intensity-difference readout over the broadcast of (alpha_c, phi, eta).

    ``output`` is the detected port state; ``domain`` marks points SensorSpec
    rejects or with an unphysical state; ``pole`` the others with |d<ID>/dphi|
    <= POLE_TOLERANCE * eta * N, N the input photons. ``dphi`` is inf on both.
    """

    output: GaussianPortState
    mean_id: np.ndarray
    var_id: np.ndarray
    slope: np.ndarray
    dphi: np.ndarray
    domain: np.ndarray
    pole: np.ndarray


def phase_readout(alpha_c, phi, eta,
                  squeezed_port: OutputMoments | None = None) -> PhaseReadout:
    """Gaussian-pipeline sensitivity over broadcast alpha_c, phi and eta arrays.

    dphi = sqrt(Var ID)/|d<ID>/dphi| with the slope exact: the derivative of
    the signal map carried through the output mean and number moments. With
    0-d inputs the states are unbatched, so an unphysical one raises
    DomainError instead of being masked.
    """
    alpha_c, phi, eta = (np.asarray(x, dtype=float) for x in (alpha_c, phi, eta))
    # SensorSpec's rule as a mask; the maps are evaluated on every point regardless.
    domain = ~(np.isfinite(alpha_c) & np.isfinite(phi) & np.isfinite(eta) & (alpha_c >= 0)
               & (eta > 0) & (eta <= 1))
    state = mzi_input_state(alpha_c, squeezed_port)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        signal_map, d_map, vacuum_map = _mzi_maps(phi, eta)
        output = _propagate(state, signal_map, vacuum_map)
        mean_id, var_id = intensity_difference_stats(output)
        # number is Hermitian, so d(number)_pp = 2 Re[(conj(dS) number S^T)_pp].
        d_number = np.diagonal(np.conj(d_map) @ state.number @ signal_map.swapaxes(-1, -2),
                               axis1=-2, axis2=-1)
        d_mean = (d_map @ state.mean[..., None])[..., 0]
        d_photons = 2.0 * (np.conj(output.mean) * d_mean + d_number).real
        slope = d_photons[..., 0] - d_photons[..., 1]
        domain = domain | state.unphysical() | output.unphysical()
        pole = ~domain & (np.abs(slope) <= POLE_TOLERANCE * eta * state.total_photons())
        dphi = np.where(domain | pole, math.inf,
                        np.sqrt(np.maximum(var_id, 0.0)) / np.abs(slope))
    return PhaseReadout(output=output, mean_id=mean_id, var_id=var_id, slope=slope, dphi=dphi,
                        domain=domain, pole=pole)


def phase_sensitivity_numeric(spec: SensorSpec,
                              squeezed_port: OutputMoments | None = None) -> SensitivityReport:
    """Minimum detectable phase from the Gaussian moment pipeline at one point.

    :func:`phase_readout` on a single point: an unphysical state raises
    DomainError, a slope of at most POLE_TOLERANCE * eta * N raises
    PoleError (the relative rule :func:`phase_sensitivity_squeezed` applies
    to its gap), and an empty photon budget raises DomainError.
    """
    readout = phase_readout(spec.alpha_c, spec.phi, spec.eta_value, squeezed_port)
    if readout.pole:
        raise PoleError(f"signal slope vanishes at phi={spec.phi}")
    dphi = float(readout.dphi)
    snl = shot_noise_limit(spec, readout.output)
    improvement = phase_sensitivity_coherent(spec) / dphi if spec.alpha_c > 0 else math.nan
    return SensitivityReport(dphi=dphi, mean_id=float(readout.mean_id),
                             var_id=float(readout.var_id), snl=snl, improvement=improvement)


def coherent_sensitivity(alpha_c, eta):
    """Coherent-probe sensitivity 1/(sqrt(eta)*alpha_c) at phi = pi/2.

    Broadcasts over alpha_c and eta arrays; inf where alpha_c is zero.
    """
    with np.errstate(divide="ignore", over="ignore"):
        value = 1.0 / (np.sqrt(eta) * np.asarray(alpha_c, dtype=float))
    return float(value) if value.ndim == 0 else value


def phase_sensitivity_coherent(spec: SensorSpec) -> float:
    """Coherent-probe sensitivity 1/(sqrt(eta)*alpha_c) at phi = pi/2."""
    if spec.alpha_c <= 0:
        raise DomainError("alpha_c must be positive for the coherent sensitivity")
    return coherent_sensitivity(spec.alpha_c, spec.eta_value)


def squeezed_sensitivity(alpha_c, eta, rates: CavityRates,
                         injection: Injection) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form sensitivity with the squeezed pair port, at phi = pi/2.

    Evaluates

        dphi = sqrt( eta a^2 (G-s)^2 (G^2 + s(2 gamma - 6 kappa) + s^2)
                     + a^2 (G^2-s^2)^2 + 8 kappa s^2 G )
               / [ sqrt(eta) (G^2-s^2) |a^2 - 8 s^2 kappa G/(G^2-s^2)^2| ]

    with a = alpha_c, s = sigma, G = Gamma, broadcast over alpha_c and eta
    arrays. Returns (dphi, pole): the pole mask marks the points where
    |a^2 - 2 n_s| <= POLE_TOLERANCE (a^2 + 2 n_s), the coherent flux matching
    the squeezed flux, and dphi is inf there. Raises ThresholdError at or
    above threshold, which holds for every point alike.
    """
    kappa, gamma = rates.kappa, rates.gamma
    gamma_total = rates.gamma_total
    sigma = injection.sigma_mag
    if sigma >= gamma_total:
        raise ThresholdError(f"at/above threshold: sigma={sigma} >= Gamma={gamma_total}")
    eta = np.asarray(eta, dtype=float)
    a2 = np.float_power(alpha_c, 2)  # pow, as the scalar alpha_c**2 rounds
    g2 = gamma_total**2
    s2 = sigma**2
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.sqrt(
            eta * a2 * (gamma_total - sigma) ** 2 * (g2 + sigma * (2 * gamma - 6 * kappa) + s2)
            + a2 * (g2 - s2) ** 2
            + 8 * kappa * s2 * gamma_total
        )
        squeezed_flux = 8 * s2 * kappa * gamma_total / (g2 - s2) ** 2
        gap = np.abs(a2 - squeezed_flux)
        pole = gap <= POLE_TOLERANCE * (a2 + squeezed_flux)
        dphi = np.where(pole, math.inf, num / (np.sqrt(eta) * (g2 - s2) * gap))
    return dphi, pole


def phase_sensitivity_squeezed(spec: SensorSpec, rates: CavityRates,
                               injection: Injection) -> float:
    """Closed-form sensitivity of :func:`squeezed_sensitivity` at one point.

    Raises PoleError on the pole a^2 = 2 n_s, where the slope of <ID>
    changes sign, and ThresholdError at or above threshold.
    """
    dphi, pole = squeezed_sensitivity(spec.alpha_c, spec.eta_value, rates, injection)
    if pole:
        raise PoleError("coherent flux equals the squeezed flux (sensitivity pole)")
    return float(dphi)


def shot_noise_limit(spec: SensorSpec, output: GaussianPortState) -> float:
    """Shot-noise-limited phase 1/sqrt(N) with the squeezer pump charged.

    N counts the detected photons of both ports plus the pump flux
    spec.alpha_l_power/(hbar*omega_p) spent generating the pair field.
    Broadcasts over a batched output state, with inf where N = 0; an
    unbatched state without photons raises DomainError.
    """
    total = output.total_photons() + spec.pump_flux
    if np.ndim(total) == 0 and total <= 0:
        raise DomainError("no photons in the budget; shot-noise limit undefined")
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(total)


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
