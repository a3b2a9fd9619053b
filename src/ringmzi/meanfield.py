"""Mean-field validation of the linearized pair-generation model.

Tracks the minimal moment set {<a_p>, <a_p a_p>, <a_p^+ a_p>, <a_s^+ a_s>,
<a_i^+ a_i>, <a_s a_i>} of the driven three-mode cavity in the co-rotating
frame, in units of Gamma: time in 1/Gamma, the real waveguide drive a_l as
f = sqrt(k) a_l/G and the pair coupling as c = g/G. Mixed pump-pair moments
are factorized (e.g. <a_p^+ a_p a_s a_i> -> <a_p^+ a_p><a_s a_i>), which
keeps the pump dynamical and exhibits pump depletion at threshold, while the
signal/idler sector stays linear:

    d<a_p>/dt   = f - <a_p>/2 - 2 c <a_p>* <a_s a_i>
    d<a_p^2>/dt = 2 f <a_p> - <a_p^2> - c (4<n_p>+2) <a_s a_i>
    d<n_p>/dt   = 2 f Re<a_p> - <n_p> - 4 c Re(<a_p^2><a_s a_i>*)
    d<n_s>/dt   = 2 c Re(<a_p^2><a_s a_i>*) - <n_s>        (same for n_i)
    d<a_s a_i>/dt = c <a_p^2> (<n_s>+<n_i>+1) - <a_s a_i>

The linearized counterpart replaces 2 c <a_p^2> by the externally fixed
injection sigma_n and drops the pump equations; its steady state
n_s = sigma_n^2/(2(1 - sigma_n^2)) exists only below threshold.

The steady state is solved directly. With y = 2 c <a_p^2> the
signal/idler equations give n_s = n_i = y^2/(2(1-y^2)) and
<a_s a_i> = y/(2(1-y^2)). Pair emission damps the pump amplitude by the
factor 1 + d, d = 4 c <a_s a_i>, so <a_p> = 2 f/(1+d), and the <n_p> and
<a_p^2> equations follow. What is left is one residual, C y - <a_p^2>,
which equals (1-d)/(1+d) (N(d) - N_0) with N_0 = 4 f^2 = sigma_n C the
empty-cavity pump number and

    N(d) = C y (1+d)^2 + d(1+d)/(2(1-d)),    C = 1/(2c) = G/(2g),    y = y(d).

So a steady state depends on the cavity only through C and N_0.
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError, DomainError
from .params import CavityRates

# Stop rule every returned steady state meets: each moment changes by less
# than CONVERGENCE_TOL of max(|moment|, 1e-6) per 1/Gamma.
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


def mf_derivatives(state: MomentState, drive: float, coupling: float) -> MomentState:
    """Time derivative of the mean-field moment set per 1/Gamma.

    drive = sqrt(kappa) a_l/Gamma for a real waveguide drive a_l, coupling = g/Gamma.
    """
    # The coupling scales a_pp first: a_pp m_si alone is of order C^2, C = 1/(2c).
    pair_rate = (2.0 * coupling * state.a_pp * np.conj(state.m_si)).real
    return MomentState(
        a_p=drive - state.a_p / 2 - 2 * coupling * np.conj(state.a_p) * state.m_si,
        a_pp=2 * drive * state.a_p - state.a_pp - coupling * (4 * state.n_p + 2) * state.m_si,
        n_p=2 * drive * np.real(state.a_p) - state.n_p - 2 * pair_rate,
        n_s=pair_rate - state.n_s,
        n_i=pair_rate - state.n_i,
        m_si=coupling * state.a_pp * (state.n_s + state.n_i + 1) - state.m_si,
    )


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
    # hypot, as the square of C - N_0 overflows for C beyond about 1e154.
    y = 2.0 * n_empty / (clamp + 1.0 + n_empty
                         + np.hypot(clamp - n_empty, np.sqrt(2.0 * (clamp + n_empty) + 1.0)))
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
    """Largest |d moment/dt|/max(|moment|, 1e-6) per point."""
    worst = 0.0
    for name in (f.name for f in fields(MomentState)):
        value, change = getattr(state, name), getattr(rate, name)
        worst = np.maximum(worst, np.abs(change) / np.maximum(np.abs(value), 1e-6))
    return worst


def _steady_states(n_empty: np.ndarray, clamp: float) -> MomentState:
    """Steady states reached from vacuum at C = Gamma/(2g), one per empty-cavity pump
    number N_0 in the array n_empty; fields are arrays, real as the drive is.

    Raises ConvergenceError when a state misses the stop rule against mf_derivatives.
    """
    d, twice_m, y = _pair_moments(_depletion(n_empty, clamp), clamp)
    amplitude = np.sqrt(n_empty)
    pump = n_empty / (1.0 + d)
    n_p = pump - y * twice_m
    state = MomentState(a_p=amplitude / (1.0 + d), a_pp=pump - d * (n_p + 0.5), n_p=n_p,
                        n_s=y * twice_m / 2, n_i=y * twice_m / 2, m_si=twice_m / 2)
    rate = _max_relative_rate(state, mf_derivatives(state, amplitude / 2, 0.5 / clamp))
    missed = np.flatnonzero(~(rate < CONVERGENCE_TOL))
    if len(missed):
        k = missed[0]
        raise ConvergenceError(f"steady state at empty-cavity pump number "
                               f"{float(n_empty.flat[k])!r} changes at relative rate "
                               f"{rate.flat[k]:.3g} per 1/Gamma (limit {CONVERGENCE_TOL})", k)
    return state


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

    Columns sigma_n, ns_lin, ns_mf, np_lin, np_mf. np_lin is the empty-cavity pump
    number N_0 = sigma_n C, C = Gamma/(2g), since sigma = 2 g N_0; at threshold
    (1 - sigma_n <= THRESHOLD_MARGIN) and above it ns_lin is inf. A point whose N_0
    overflows raises ConvergenceError, as does one whose steady state misses its
    stop rule. A gain g <= 0 (no pairs, no threshold) raises DomainError.
    """
    if gain <= 0:
        raise DomainError(f"gain must be positive for pairs and a threshold, got {gain!r}")
    clamp = rates.gamma_total / (2.0 * gain)
    sigma_ns = np.asarray(sigma_ns, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below; C = inf at 0 is nan
        n_empty = sigma_ns * clamp
    if not np.isfinite(n_empty).all():
        k = np.flatnonzero(~np.isfinite(n_empty))[0]
        raise ConvergenceError(f"the empty-cavity pump number sigma_n Gamma/(2g) overflows "
                               f"at Gamma/(2g) = {clamp!r}", k)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow misses the stop rule
        states = _steady_states(n_empty, clamp)
    below = 1.0 - sigma_ns > THRESHOLD_MARGIN
    s = np.where(below, sigma_ns, 0.0)
    return {"sigma_n": sigma_ns,
            "ns_lin": np.where(below, s * s / (2.0 * (1.0 - s) * (1.0 + s)), math.inf),
            "ns_mf": states.n_s,
            "np_lin": n_empty,
            "np_mf": states.n_p}
