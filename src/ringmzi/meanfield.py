"""Mean-field validation of the linearized pair-generation model.

Tracks the minimal moment set {<a_p>, <a_p a_p>, <a_p^+ a_p>, <a_s^+ a_s>,
<a_i^+ a_i>, <a_s a_i>} of the driven three-mode cavity in the co-rotating
frame. Mixed pump-pair moments are factorized (e.g. <a_p^+ a_p a_s a_i> ->
<a_p^+ a_p><a_s a_i>), which keeps the pump dynamical and exhibits pump
depletion at threshold, while the signal/idler sector stays linear:

    d<a_p>/dt   = sqrt(k) a_l - (G/2)<a_p> - 2 g <a_p>* <a_s a_i>
    d<a_p^2>/dt = 2 sqrt(k) a_l <a_p> - G <a_p^2> - g (4<n_p>+2) <a_s a_i>
    d<n_p>/dt   = 2 sqrt(k) Re(a_l* <a_p>) - G <n_p> - 4 g Re(<a_p^2><a_s a_i>*)
    d<n_s>/dt   = 2 g Re(<a_p^2><a_s a_i>*) - G <n_s>        (same for n_i)
    d<a_s a_i>/dt = g <a_p^2> (<n_s>+<n_i>+1) - G <a_s a_i>

The linearized counterpart replaces 2 g <a_p^2> by the externally fixed
injection sigma and drops the pump equations; its steady state
n_s = sigma^2/(2(Gamma^2 - sigma^2)) exists only below threshold.

The steady state is solved directly. With y = 2 g |<a_p^2>|/G the
signal/idler equations give n_s = n_i = y^2/(2(1-y^2)) and
|<a_s a_i>| = y/(2(1-y^2)). Pair emission damps the pump amplitude by the
factor 1 + d, d = 4 g |<a_s a_i>|/G, so in the frame where a_l is real
<a_p> = 2 sqrt(k) |a_l|/(G(1+d)), and the <n_p> and <a_p^2> equations
follow. What is left is one residual, G y/(2g) - <a_p^2>, which equals
(1-d)/(1+d) (N(d) - N_0) with N_0 = 4 k |a_l|^2/G^2 the empty-cavity pump
number and

    N(d) = C y (1+d)^2 + d(1+d)/(2(1-d)),    C = G/(2g),    y = y(d).

N(d) rises from 0 to infinity on 0 <= d < 1, so the first root reached from
vacuum (the smallest y) is the unique root with d < 1; the residual has a
second root at d > 1. The root is solved in r = d/(1-d), which keeps both a
small d (about y/C below threshold) and a small 1 - d (far above it)
precise, by a Newton iteration over the whole grid with the analytic slope
(dy/dt = (1-y^2)^2/(1+y^2) for t = C d), kept inside the bracket
[tiny, 2 N_0 + 1] by a bisection step wherever it would leave it. It
starts from a closed form that is close in every regime: below and near
threshold y solves C y + y/(1-y) = N_0, which gives the linearized
y = N_0/C far below and, for y = 1 - eps near threshold, the quadratic
eps^2 + (delta + 1/C) eps - 1/C = 0 with delta = N_0/C - 1; far above,
y is about 1 and x = 1 - d solves 4 C x^2 + (N_0 + 3/2 - 4 C) x - 1 = 0.
Each estimate overshoots d in the other's regime, so the smaller is taken.
A complex a_l rotates <a_p> by its phase and <a_p^2>, <a_s a_i> by twice
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError, DomainError, ThresholdError
from .params import CavityRates

# Stop rule every returned steady state meets: each moment (real and
# imaginary parts apart) changes by less than CONVERGENCE_TOL of
# max(|moment|, 1e-6) per 1/Gamma.
CONVERGENCE_TOL = 1e-9
# Grid points with 1 - sigma_n at or below this count as at threshold, the
# 1e12 conditioning limit of the scattering solve; float rounding of a grid
# cannot then decide the flag.
THRESHOLD_MARGIN = 1e-12


@dataclass(frozen=True)
class MomentState:
    """Tracked intracavity moments (co-rotating frame)."""

    a_p: complex = 0.0
    a_pp: complex = 0.0
    n_p: float = 0.0
    n_s: float = 0.0
    n_i: float = 0.0
    m_si: complex = 0.0


def mf_derivatives(state: MomentState, rates: CavityRates, gain: float,
                   alpha_l: complex) -> MomentState:
    """Time derivative of the mean-field moment set."""
    gamma_total = rates.gamma_total
    sqk = math.sqrt(rates.kappa)
    pair_rate = 2.0 * gain * (state.a_pp * np.conj(state.m_si)).real
    return MomentState(
        a_p=sqk * alpha_l - gamma_total / 2 * state.a_p - 2 * gain * np.conj(state.a_p) * state.m_si,
        a_pp=2 * sqk * alpha_l * state.a_p - gamma_total * state.a_pp
        - gain * (4 * state.n_p + 2) * state.m_si,
        n_p=2 * sqk * (np.conj(alpha_l) * state.a_p).real - gamma_total * state.n_p - 2 * pair_rate,
        n_s=pair_rate - gamma_total * state.n_s,
        n_i=pair_rate - gamma_total * state.n_i,
        m_si=gain * state.a_pp * (state.n_s + state.n_i + 1) - gamma_total * state.m_si,
    )


def lin_steady_state(rates: CavityRates, sigma) -> MomentState:
    """Analytic fixed point of the linearized moment equations; sigma may be an array.

    n_s = n_i = |sigma|^2/(2(Gamma^2-|sigma|^2)),
    m_si = sigma*Gamma/(2(Gamma^2-|sigma|^2)); requires |sigma| < Gamma.
    """
    gamma_total = rates.gamma_total
    magnitude = np.abs(sigma)
    if np.any(magnitude >= gamma_total):
        raise ThresholdError(f"no linearized steady state at |sigma|={np.max(magnitude)} "
                             f">= {gamma_total}")
    mag2 = np.float_power(magnitude, 2)  # pow, as Python's float ** rounds it
    denom = 2.0 * (gamma_total**2 - mag2)
    return MomentState(n_s=mag2 / denom, n_i=mag2 / denom, m_si=sigma * gamma_total / denom)


def drive_for_sigma(rates: CavityRates, gain: float, sigma):
    """Waveguide drive amplitude |alpha_l| producing a given on-resonance sigma.

    Inverts sigma = 8*g*kappa*|alpha_l|^2/Gamma^2 [sqrt(Hz)]; sigma may be an
    array.
    """
    if gain <= 0 or rates.kappa <= 0:
        raise DomainError("gain and kappa must be positive")
    return np.sqrt(sigma * rates.gamma_total**2 / (8.0 * gain * rates.kappa))


def _bisect(excess, lo, hi, midpoint):
    """Narrow the brackets [lo, hi] of excess(lo) <= 0 < excess(hi) to adjacent floats.

    ``excess`` is evaluated on every bracket at once; returns (lo, hi).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    while True:
        mid = midpoint(lo, hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return lo, hi
        above = excess(mid) > 0
        lo, hi = np.where(inside & ~above, mid, lo), np.where(inside & above, mid, hi)


def _pair_moments(depletion: np.ndarray, clamp: float):
    """(d, 2|<a_s a_i>|, y) at r = d/(1-d), clamp C = G/(2g)."""
    d = depletion / (1.0 + depletion)
    twice_m = clamp * d
    return d, twice_m, 2.0 * twice_m / (1.0 + np.hypot(1.0, 2.0 * twice_m))


def _excess(depletion: np.ndarray, n_empty: np.ndarray, clamp: float):
    """(N(d) - N_0, its derivative in r) at r = d/(1-d)."""
    d, _, y = _pair_moments(depletion, clamp)
    excess = (clamp * y * (1.0 + d) ** 2
              + depletion * (1.0 + 2.0 * depletion) / (2.0 * (1.0 + depletion)) - n_empty)
    # dy/dt = (1-y^2)^2/(1+y^2) at t = C d, and dd/dr = 1/(1+r)^2.
    y2 = y * y
    dy_dd = clamp * (1.0 - y2) ** 2 / (1.0 + y2)
    slope = (clamp * (1.0 + d) * (dy_dd * (1.0 + d) + 2.0 * y)
             + (1.0 + 4.0 * depletion + 2.0 * depletion**2) / 2.0) / (1.0 + depletion) ** 2
    return excess, slope


def _depletion_start(n_empty: np.ndarray, clamp: float) -> np.ndarray:
    """Closed-form estimate of r = d/(1-d); see the module docstring."""
    y = 2.0 * n_empty / (clamp + 1.0 + n_empty
                         + np.sqrt((clamp - n_empty) ** 2 + 2.0 * (clamp + n_empty) + 1.0))
    b = n_empty + 1.5 - 4.0 * clamp
    root = np.hypot(b, 4.0 * math.sqrt(clamp))
    x = np.where(b > 0, 2.0 / (root + np.abs(b)), (root + np.abs(b)) / (8.0 * clamp))
    # Far above threshold y rounds to 1 and d_low to inf, in the branch not taken.
    with np.errstate(divide="ignore", invalid="ignore"):
        d_low = y / (clamp * (1.0 - y * y))
        return np.where(d_low < 1.0 - x, d_low / (1.0 - d_low), (1.0 - x) / x)


# The Newton iteration stops after a step below NEWTON_STEP_TOL relative (the
# next would be below rounding) or one that a residual of 8 ulps of N_0, the
# rounding of the residual itself, accounts for.
NEWTON_STEP_TOL = 1e-9
NEWTON_MAX_STEPS = 100


def _depletion(n_empty: np.ndarray, clamp: float) -> np.ndarray:
    """r = d/(1-d) of the first steady state for each empty-cavity pump number.

    Each point iterates on its own, so its root does not depend on the grid.
    """
    # excess(r) >= r/2 - n_empty, so hi brackets the root.
    lo = np.full_like(n_empty, np.finfo(float).tiny)
    hi = 2.0 * n_empty + 1.0
    depletion = _depletion_start(n_empty, clamp)
    depletion = np.where((lo < depletion) & (depletion < hi), depletion, np.sqrt(lo) * np.sqrt(hi))
    active = n_empty > 0
    for _ in range(NEWTON_MAX_STEPS):
        if not active.any():
            return np.where(n_empty > 0, depletion, 0.0)
        excess, slope = _excess(depletion, n_empty, clamp)
        lo = np.where(active & (excess <= 0), depletion, lo)
        hi = np.where(active & (excess > 0), depletion, hi)
        candidate = depletion - excess / slope
        candidate = np.where((lo <= candidate) & (candidate <= hi), candidate,
                             np.sqrt(lo) * np.sqrt(hi))
        done = np.abs(candidate - depletion) <= (NEWTON_STEP_TOL * depletion
                                                 + 8.0 * np.spacing(n_empty) / slope)
        depletion = np.where(active, candidate, depletion)
        active &= ~done
    k = np.flatnonzero(active)[0]
    raise ConvergenceError(f"no depletion root at empty-cavity pump number {n_empty.flat[k]} "
                           f"within {NEWTON_MAX_STEPS} Newton steps", k)


def _max_relative_rate(state: MomentState, rate: MomentState) -> np.ndarray:
    """Largest |d moment/dt|/max(|moment|, 1e-6) per point, parts apart."""
    worst = 0.0
    for name in (f.name for f in fields(MomentState)):
        value, change = getattr(state, name), getattr(rate, name)
        for part in (np.real, np.imag):
            worst = np.maximum(worst, np.abs(part(change)) / np.maximum(np.abs(part(value)), 1e-6))
    return worst


def _steady_states(rates: CavityRates, gain: float, alpha_l) -> MomentState:
    """Steady states reached from vacuum, one per drive; fields are arrays.

    Raises ConvergenceError when a state misses the stop rule against
    mf_derivatives; the rule is checked where a_l is real, since a
    phase rotation maps steady states onto steady states exactly.
    """
    if gain < 0:
        raise DomainError(f"gain must be non-negative, got {gain}")
    gamma_total = rates.gamma_total
    drive = np.asarray(alpha_l, dtype=complex)
    amplitude = np.abs(drive)
    empty_pump = 2.0 * math.sqrt(rates.kappa) * amplitude / gamma_total
    n_empty = empty_pump**2
    if gain > 0:
        clamp = gamma_total / (2.0 * gain)
        d, twice_m, y = _pair_moments(_depletion(n_empty, clamp), clamp)
    else:
        d = twice_m = y = np.zeros_like(n_empty)
    pump = n_empty / (1.0 + d)
    n_p = pump - y * twice_m
    state = MomentState(a_p=empty_pump / (1.0 + d) + 0j, a_pp=pump - d * (n_p + 0.5) + 0j,
                        n_p=n_p, n_s=y * twice_m / 2, n_i=y * twice_m / 2,
                        m_si=twice_m / 2 + 0j)
    rate = _max_relative_rate(state, mf_derivatives(state, rates, gain, amplitude)) / gamma_total
    missed = np.flatnonzero(~(rate < CONVERGENCE_TOL))
    if len(missed):
        k = missed[0]
        raise ConvergenceError(f"steady state at drive {drive.flat[k]} changes at relative rate "
                               f"{rate.flat[k]:.3g} per 1/Gamma (limit {CONVERGENCE_TOL})", k)
    phase = np.exp(1j * np.angle(drive))
    return MomentState(a_p=state.a_p * phase, a_pp=state.a_pp * phase**2, n_p=state.n_p,
                       n_s=state.n_s, n_i=state.n_i, m_si=state.m_si * phase**2)


def validity_bound(rates: CavityRates, gain: float, error_tol: float) -> float:
    """Largest sigma_n at which the linearized n_s stays within error_tol of mean field.

    Brackets the root of the relative deviation |n_s,lin - n_s,MF|/n_s,MF
    minus error_tol in (0, 1 - 1e-9]; the deviation grows monotonically
    towards threshold as pump depletion sets in.
    """
    if not 0.0 < error_tol <= 0.5:
        raise DomainError(f"error_tol must lie in (0, 0.5], got {error_tol}")

    def excess(sigma_n) -> float:
        columns = comparison_columns(rates, gain, [sigma_n])
        ns_lin, ns_mf = columns["ns_lin"][0], columns["ns_mf"][0]
        return abs(ns_lin - ns_mf) / ns_mf - error_tol

    hi = 1.0 - 1e-9
    if excess(hi) <= 0:
        return hi
    lo, _ = _bisect(excess, 0.0, hi, lambda lo, hi: 0.5 * (lo + hi))
    return float(lo)


def comparison_columns(rates: CavityRates, gain: float, sigma_ns) -> dict[str, np.ndarray]:
    """Linearized vs mean-field steady state over a sigma_n grid, one array per column.

    Columns sigma_n, ns_lin, ns_mf, np_lin, np_mf; at threshold
    (1 - sigma_n <= THRESHOLD_MARGIN) and above it ns_lin is inf. A point whose
    drive |alpha_l| or np_lin overflows raises ConvergenceError, as does one
    whose steady state misses its stop rule.
    """
    gamma_total = rates.gamma_total
    sigma_ns = np.asarray(sigma_ns, dtype=float)
    with np.errstate(over="ignore"):  # checked below
        sigma = sigma_ns * gamma_total
        drives = drive_for_sigma(rates, gain, sigma)
        np_lin = 4.0 * rates.kappa * np.float_power(drives, 2) / gamma_total**2
    if not np.isfinite(np_lin).all():
        k = np.flatnonzero(~np.isfinite(np_lin))[0]
        raise ConvergenceError(f"the drive |alpha_l| = {float(drives.flat[k])!r} is too large: "
                               "|alpha_l|^2 overflows", k)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow misses the stop rule
        states = _steady_states(rates, gain, drives)
    below = 1.0 - sigma_ns > THRESHOLD_MARGIN
    ns_lin = lin_steady_state(rates, np.where(below, sigma, 0.0)).n_s
    return {"sigma_n": sigma_ns,
            "ns_lin": np.where(below, ns_lin, math.inf),
            "ns_mf": states.n_s,
            "np_lin": np_lin,
            "np_mf": states.n_p}
