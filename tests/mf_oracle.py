"""Oracles for the mean-field steady state (tests only).

Integrates ringmzi.meanfield.mf_derivatives from vacuum with LSODA (or a
fixed-step RK4), in time units of 1/Gamma, until every moment changes
relatively less than convergence_tol per unit of integration time. The
direct solve in ringmzi.meanfield is checked against it; its stop rule
leaves an error of about convergence_tol/(1 - sigma_n) below threshold.

absolute_derivatives is the same right-hand side in Hz, with the waveguide
drive a_l in sqrt(Hz): the reference that the substitution into units of
Gamma is checked against.

bisected_depletion solves the direct solve's scalar root by bisection to
adjacent floats, the reference for its Newton iteration. mf_steady_state and
comparison_curve are one-point and row-by-row views of the direct solve.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import math

import numpy as np
from scipy.integrate import solve_ivp

from ringmzi import (CavityRates, ConvergenceError, DomainError, MomentState, comparison_columns,
                     mf_derivatives)
from ringmzi.meanfield import _bisect, _excess, _steady_states

DIVERGENCE_LIMIT = 1e30
VACUUM = MomentState()


class DivergenceError(RuntimeError):
    """A tracked moment grew without bound during integration."""


@dataclass(frozen=True)
class SolverConfig:
    """Integration settings for the steady-state search, in time units of 1/Gamma.

    The solver is converged when every moment changes relatively less than
    convergence_tol per 1/Gamma of integration time.
    """

    dt: float = 0.01
    t_max: float = 200.0
    convergence_tol: float = 1e-9
    method: str = "adaptive"

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.t_max <= 0:
            raise DomainError(f"t_max must be positive, got {self.t_max}")
        if self.convergence_tol <= 0:
            raise DomainError(f"convergence_tol must be positive, got {self.convergence_tol}")
        if self.method not in ("adaptive", "fixed"):
            raise DomainError(f"method must be 'adaptive' or 'fixed', got {self.method!r}")


def _pack(state: MomentState) -> np.ndarray:
    return np.array([
        state.a_p.real, state.a_p.imag,
        state.a_pp.real, state.a_pp.imag,
        state.n_p, state.n_s, state.n_i,
        state.m_si.real, state.m_si.imag,
    ])


def _unpack(y: np.ndarray) -> MomentState:
    return MomentState(
        a_p=complex(y[0], y[1]),
        a_pp=complex(y[2], y[3]),
        n_p=float(y[4]),
        n_s=float(y[5]),
        n_i=float(y[6]),
        m_si=complex(y[7], y[8]),
    )


def lin_derivatives(state: MomentState, sigma_n: float) -> MomentState:
    """Time derivative per 1/Gamma of the linearized signal/idler moments (pump frozen)."""
    pair_rate = sigma_n * np.real(state.m_si)
    return MomentState(
        a_p=0.0,
        a_pp=0.0,
        n_p=0.0,
        n_s=pair_rate - state.n_s,
        n_i=pair_rate - state.n_i,
        m_si=sigma_n / 2 * (state.n_s + state.n_i + 1) - state.m_si,
    )


def absolute_derivatives(state: MomentState, rates: CavityRates, gain: float,
                         alpha_l: complex) -> MomentState:
    """Time derivative of the mean-field moment set in Hz, driven by alpha_l [sqrt(Hz)]."""
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


def _max_rel_rate(y: np.ndarray, dy: np.ndarray) -> float:
    scale = np.maximum(np.abs(y), 1e-6)
    return float(np.max(np.abs(dy) / scale))


def steady_state(derivative_fn: Callable[[MomentState], MomentState],
                 initial: MomentState, cfg: SolverConfig) -> MomentState:
    """Integrate the moment equations until a fixed point is reached.

    Raises
    ------
    DivergenceError
        When any moment exceeds the divergence limit (no steady state).
    ConvergenceError
        When t_max is reached before the convergence criterion is met.
    """

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        return _pack(derivative_fn(_unpack(y)))

    y0 = _pack(initial)
    if _max_rel_rate(y0, rhs(0.0, y0)) < cfg.convergence_tol:
        return initial

    if cfg.method == "fixed":
        return _steady_state_fixed(rhs, y0, cfg)

    def converged(_t: float, y: np.ndarray) -> float:
        return _max_rel_rate(y, rhs(0.0, y)) - cfg.convergence_tol

    converged.terminal = True
    converged.direction = -1

    def diverged(_t: float, y: np.ndarray) -> float:
        return float(np.max(np.abs(y))) - DIVERGENCE_LIMIT

    diverged.terminal = True
    diverged.direction = 1

    sol = solve_ivp(rhs, (0.0, cfg.t_max), y0, method="LSODA",
                    events=(converged, diverged), rtol=1e-10, atol=1e-12,
                    first_step=min(cfg.dt, cfg.t_max / 100))
    if sol.status == 1:
        if len(sol.t_events[1]):
            raise DivergenceError("moments grew beyond the divergence limit")
        return _unpack(sol.y[:, -1])
    if sol.status == 0:
        raise ConvergenceError(f"no steady state within t_max={cfg.t_max}")
    raise ConvergenceError(f"integration failed: {sol.message}")


def _steady_state_fixed(rhs, y0: np.ndarray, cfg: SolverConfig) -> MomentState:
    """Classic RK4 with step dt; convergence checked once per 1/Gamma."""
    steps_per_check = max(1, int(round(1.0 / cfg.dt)))
    y = y0.copy()
    t = 0.0
    while t < cfg.t_max:
        for _ in range(steps_per_check):
            k1 = rhs(t, y)
            k2 = rhs(t, y + cfg.dt / 2 * k1)
            k3 = rhs(t, y + cfg.dt / 2 * k2)
            k4 = rhs(t, y + cfg.dt * k3)
            y = y + cfg.dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += cfg.dt
        if np.max(np.abs(y)) > DIVERGENCE_LIMIT:
            raise DivergenceError("moments grew beyond the divergence limit")
        if _max_rel_rate(y, rhs(t, y)) < cfg.convergence_tol:
            return _unpack(y)
    raise ConvergenceError(f"no steady state within t_max={cfg.t_max}")


def marched_steady_state(n_empty: float, clamp: float,
                         cfg: SolverConfig | None = None) -> MomentState:
    """Mean-field steady state reached by time-marching from vacuum, at the empty-cavity
    pump number N_0 = n_empty and C = Gamma/(2g)."""
    if cfg is None:
        cfg = SolverConfig(t_max=3e6)
    drive, coupling = math.sqrt(n_empty) / 2, 0.5 / clamp
    return steady_state(lambda s: mf_derivatives(s, drive, coupling), VACUUM, cfg)


def bisected_depletion(n_empty: np.ndarray, clamp: float) -> np.ndarray:
    """r = d/(1-d) of the first steady state, bisected to adjacent floats.

    A drop-in for ringmzi.meanfield._depletion: the same residual, bracket
    and root, narrowed by geometric midpoints instead of Newton steps. Of the
    two final ends, the one with the smaller residual is the root: the
    rounded residual can step by several ulps of N_0 between them.
    """
    def midpoint(lo, hi):
        # Geometric, but arithmetic where the geometric midpoint rounds onto an
        # end (a bracket a few floats wide), so the bracket still closes.
        mid = np.sqrt(lo) * np.sqrt(hi)
        return np.where((lo < mid) & (mid < hi), mid, 0.5 * (lo + hi))

    def excess(depletion):
        return _excess(depletion, n_empty, clamp)[0]

    lo, hi = _bisect(excess, np.full_like(n_empty, np.finfo(float).tiny), 2.0 * n_empty + 1.0,
                     midpoint)
    root = np.where(np.abs(excess(lo)) < np.abs(excess(hi)), lo, hi)
    return np.where(n_empty > 0, root, 0.0)


def mf_steady_state(n_empty: float, clamp: float) -> MomentState:
    """Mean-field steady state of the direct solve reached from vacuum, one N_0."""
    states = _steady_states(np.asarray(n_empty, dtype=float), clamp)
    return MomentState(**{f.name: getattr(states, f.name).item() for f in fields(MomentState)})


def comparison_curve(rates: CavityRates, gain: float, sigma_ns) -> list[dict[str, float]]:
    """ringmzi.meanfield.comparison_columns as one dict per grid point."""
    columns = comparison_columns(rates, gain, sigma_ns)
    return [dict(zip(columns, row)) for row in zip(*(column.tolist()
                                                     for column in columns.values()))]
