"""Tests of ringmzi.meanfield.

The time-marching tests (TestLinearized integration cases, the fixed-step
and dt-halving cases and SolverConfig validation) exercise the LSODA/RK4
oracle in tests/mf_oracle.py, which TestOracleAgreement compares with the
direct solve. TestNewtonRoot compares the direct solve's Newton root with
the bisection oracle there.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mf_oracle import (VACUUM, DivergenceError, SolverConfig, _max_rel_rate, _pack,
                       bisected_depletion, comparison_curve, lin_derivatives,
                       marched_steady_state, mf_steady_state, steady_state)
from ringmzi import (CavityRates, ConvergenceError, DomainError, MomentState, ThresholdError,
                     drive_for_sigma, lin_steady_state, mf_derivatives, validity_bound)
import ringmzi.meanfield as meanfield


def solver_for(rates, **overrides):
    return SolverConfig.for_rates(rates, **overrides)


class TestDerivatives:
    def test_vacuum_is_fixed_point(self, rates, gain):
        derivative = mf_derivatives(VACUUM, rates, gain, 0.0)
        assert derivative == VACUUM

    def test_pump_decouples_without_gain(self, rates):
        """g = 0 leaves a driven empty cavity: n_p -> 4 kappa |a_l|^2 / Gamma^2."""
        alpha_l = 1e7
        state = mf_steady_state(rates, 0.0, alpha_l)
        expected = 4 * rates.kappa * alpha_l**2 / rates.gamma_total**2
        assert state.n_p == pytest.approx(expected, rel=1e-6)
        # the resonant intracavity pump 2 sqrt(kappa) a_l / Gamma
        assert state.a_p == pytest.approx(2 * math.sqrt(rates.kappa) * alpha_l / rates.gamma_total,
                                          rel=1e-6)
        assert state.n_s == pytest.approx(0.0, abs=1e-12)

    def test_pair_symmetry(self, rates, gain):
        alpha_l = drive_for_sigma(rates, gain, 0.8 * rates.gamma_total)
        state = mf_steady_state(rates, gain, alpha_l)
        assert state.n_s == pytest.approx(state.n_i, rel=1e-9)

    def test_matches_linearized_below_threshold(self, rates, gain):
        """Cross-module oracle: MF n_s ~ sigma^2/(2(Gamma^2-sigma^2)) at sigma_n=0.95."""
        sigma = 0.95 * rates.gamma_total
        mf = mf_steady_state(rates, gain, drive_for_sigma(rates, gain, sigma))
        lin = lin_steady_state(rates, sigma)
        assert mf.n_s == pytest.approx(lin.n_s, rel=0.05)


class TestLinearized:
    def test_decay_to_vacuum(self, rates):
        initial = MomentState(n_s=5.0, n_i=5.0, m_si=1.0 + 0.5j)
        state = steady_state(lambda s: lin_derivatives(s, rates, 0.0),
                             initial, solver_for(rates))
        assert state.n_s == pytest.approx(0.0, abs=1e-9)
        assert abs(state.m_si) == pytest.approx(0.0, abs=1e-9)

    def test_integrated_matches_analytic(self, rates):
        sigma = 0.9 * rates.gamma_total
        integrated = steady_state(lambda s: lin_derivatives(s, rates, sigma),
                                  VACUUM, solver_for(rates))
        analytic = lin_steady_state(rates, sigma)
        assert integrated.n_s == pytest.approx(analytic.n_s, rel=1e-6)
        assert integrated.m_si == pytest.approx(analytic.m_si, rel=1e-6)

    def test_analytic_form(self, rates):
        sigma = 0.5 * rates.gamma_total
        state = lin_steady_state(rates, sigma)
        gamma_total = rates.gamma_total
        assert state.n_s == pytest.approx(sigma**2 / (2 * (gamma_total**2 - sigma**2)),
                                          rel=1e-14)
        assert state.m_si == pytest.approx(sigma * gamma_total / (2 * (gamma_total**2 - sigma**2)),
                                           rel=1e-14)

    def test_above_threshold_diverges(self, rates):
        sigma = 1.05 * rates.gamma_total
        cfg = solver_for(rates, t_max=5e3 / rates.gamma_total)
        with pytest.raises(DivergenceError):
            steady_state(lambda s: lin_derivatives(s, rates, sigma), VACUUM, cfg)

    def test_at_threshold_never_settles(self, rates):
        sigma = rates.gamma_total
        with pytest.raises((ConvergenceError, DivergenceError)):
            steady_state(lambda s: lin_derivatives(s, rates, sigma), VACUUM,
                         solver_for(rates))

    def test_analytic_rejects_threshold(self, rates):
        with pytest.raises(ThresholdError):
            lin_steady_state(rates, rates.gamma_total)


class TestSteadyState:
    def test_vacuum_trivial(self, rates, gain):
        assert mf_steady_state(rates, gain, 0.0) == VACUUM

    def test_converges_below_threshold(self, rates, gain):
        alpha_l = drive_for_sigma(rates, gain, 0.5 * rates.gamma_total)
        state = mf_steady_state(rates, gain, alpha_l)
        assert math.isfinite(state.n_s)
        assert state.n_s > 0

    def test_pump_clamps_above_threshold(self, rates, gain):
        """MF pump depletes: n_p stays pinned near Gamma/(2g) past threshold."""
        clamp = rates.gamma_total / (2 * gain)
        values = {}
        for sigma_n in (1.05, 1.15):
            alpha_l = drive_for_sigma(rates, gain, sigma_n * rates.gamma_total)
            values[sigma_n] = mf_steady_state(rates, gain, alpha_l).n_p
            assert values[sigma_n] == pytest.approx(clamp, rel=0.05)
        # the linearized pump would grow by (1.15/1.05) between these points
        assert values[1.15] / values[1.05] < 1.02

    def test_fixed_step_agrees_with_adaptive(self, rates, gain):
        alpha_l = drive_for_sigma(rates, gain, 0.6 * rates.gamma_total)
        adaptive = marched_steady_state(rates, gain, alpha_l, solver_for(rates))
        fixed = marched_steady_state(rates, gain, alpha_l, solver_for(rates, method="fixed"))
        assert fixed.n_s == pytest.approx(adaptive.n_s, rel=1e-6)

    def test_invariant_under_dt_halving(self, rates, gain):
        alpha_l = drive_for_sigma(rates, gain, 0.6 * rates.gamma_total)
        gamma_total = rates.gamma_total
        coarse = marched_steady_state(rates, gain, alpha_l,
                                      solver_for(rates, method="fixed", dt=0.02 / gamma_total))
        fine = marched_steady_state(rates, gain, alpha_l,
                                    solver_for(rates, method="fixed", dt=0.01 / gamma_total))
        assert fine.n_s == pytest.approx(coarse.n_s, rel=1e-6)
        assert fine.n_p == pytest.approx(coarse.n_p, rel=1e-6)

    def test_solver_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(dt=0.0, t_max=1.0)
        with pytest.raises(DomainError):
            SolverConfig(dt=1.0, t_max=1.0, method="leapfrog")


class TestComparisonCurve:
    def test_agreement_region_and_physicality(self, rates, gain):
        records = comparison_curve(rates, gain, [0.3, 0.6, 0.9])
        for record in records:
            assert record["ns_lin"] == pytest.approx(record["ns_mf"], rel=0.01)
            assert record["np_mf"] >= 0
            assert record["ns_mf"] >= 0

    def test_pump_monotone_and_depletion_kink(self, rates, gain):
        records = comparison_curve(rates, gain, [0.6, 0.9, 1.1])
        pumps = [record["np_mf"] for record in records]
        assert pumps[0] < pumps[1] < pumps[2]
        below, above = records[1], records[2]
        assert below["np_mf"] == pytest.approx(below["np_lin"], rel=0.01)
        assert above["np_mf"] < 0.95 * above["np_lin"]
        assert math.isinf(above["ns_lin"])

    def test_moment_bound(self, rates, gain):
        alpha_l = drive_for_sigma(rates, gain, 0.95 * rates.gamma_total)
        state = mf_steady_state(rates, gain, alpha_l)
        assert abs(state.m_si) ** 2 <= state.n_s * (state.n_i + 1) * (1 + 1e-9)


class TestValidityBound:
    def test_rejects_bad_tolerance(self, rates, gain):
        from ringmzi import validity_bound
        with pytest.raises(DomainError):
            validity_bound(rates, gain, 0.0)
        with pytest.raises(DomainError):
            validity_bound(rates, gain, 0.7)

    def test_monotone_and_below_threshold(self, rates, gain):
        """A looser tolerance admits more injection, but never reaches threshold."""
        from ringmzi import validity_bound
        tight = validity_bound(rates, gain, 0.05)
        loose = validity_bound(rates, gain, 0.5)
        assert tight < loose < 1.0


class TestMomentInvariants:
    def test_pump_coherence_bound(self, rates, gain):
        """|<a_p>|^2 <= <a_p^+ a_p>: pair emission adds incoherent pump population."""
        for sigma_n in (0.5, 0.95):
            alpha_l = drive_for_sigma(rates, gain, sigma_n * rates.gamma_total)
            state = mf_steady_state(rates, gain, alpha_l)
            assert abs(state.a_p) ** 2 <= state.n_p * (1 + 1e-9)


def _cavity(kappa_exp, gamma_exp, gain_exp):
    return CavityRates(kappa=10.0**kappa_exp, gamma=10.0**gamma_exp), 10.0**gain_exp


class TestDirectSolve:
    @settings(max_examples=300, deadline=None)
    @given(kappa_exp=st.floats(6, 11), gamma_exp=st.floats(5, 10), gain_exp=st.floats(-3, 3),
           sigma_exp=st.floats(-3, 3), phase=st.floats(-math.pi, math.pi))
    def test_invariants(self, kappa_exp, gamma_exp, gain_exp, sigma_exp, phase):
        """Physical bounds and the stop rule over random cavities and drives.

        The bounds allow 1e-12 relative for rounding: they are equalities
        where depletion vanishes (|a_p|^2 = n_p at g -> 0).
        """
        rates, gain = _cavity(kappa_exp, gamma_exp, gain_exp)
        sigma_n = 10.0**sigma_exp
        amplitude = drive_for_sigma(rates, gain, sigma_n * rates.gamma_total)
        state = mf_steady_state(rates, gain, amplitude * np.exp(1j * phase))
        assert state.n_s >= 0 and state.n_i >= 0 and state.n_p >= 0
        assert abs(state.a_p) ** 2 <= state.n_p * (1 + 1e-12)
        assert abs(state.m_si) ** 2 <= state.n_s * (state.n_i + 1) * (1 + 1e-12)
        if 1 - sigma_n > 1e-12:
            ns_lin = lin_steady_state(rates, sigma_n * rates.gamma_total).n_s
            assert state.n_s <= ns_lin * (1 + 1e-12)
        # The old time-marching stop rule, in the frame where the drive is real.
        frame = mf_steady_state(rates, gain, amplitude)
        rate = mf_derivatives(frame, rates, gain, amplitude)
        assert _max_rel_rate(_pack(frame), _pack(rate), rates.gamma_total) < 1e-9

    def test_empty_cavity_without_gain(self, rates):
        """g = 0: a_p = 2 sqrt(kappa) alpha_l/Gamma, n_p = |a_p|^2, no pairs."""
        for alpha_l in (1e7, 3e6 * np.exp(2.1j)):
            state = mf_steady_state(rates, 0.0, alpha_l)
            a_p = 2 * math.sqrt(rates.kappa) * alpha_l / rates.gamma_total
            assert state.a_p == pytest.approx(a_p, rel=1e-15)
            assert state.a_pp == pytest.approx(a_p**2, rel=1e-14)
            assert state.n_p == pytest.approx(abs(a_p) ** 2, rel=1e-14)
            assert state.n_s == state.n_i == 0.0
            assert state.m_si == 0.0

    @pytest.mark.parametrize("sigma_n", [0.5, 0.999, 2.0, 10.0])
    def test_complex_drive_rotates_phases(self, rates, gain, sigma_n):
        amplitude = drive_for_sigma(rates, gain, sigma_n * rates.gamma_total)
        phase = np.exp(0.7j)
        real = mf_steady_state(rates, gain, amplitude)
        rotated = mf_steady_state(rates, gain, amplitude * phase)
        assert rotated.n_p == pytest.approx(real.n_p, rel=1e-14)
        assert rotated.n_s == pytest.approx(real.n_s, rel=1e-12)
        assert rotated.a_p == pytest.approx(real.a_p * phase, rel=1e-14)
        assert rotated.a_pp == pytest.approx(real.a_pp * phase**2, rel=1e-12)
        assert rotated.m_si == pytest.approx(real.m_si * phase**2, rel=1e-12)

    def test_rejects_negative_gain(self, rates):
        with pytest.raises(DomainError):
            mf_steady_state(rates, -1.0, 1e7)

    def test_curve_matches_pointwise_solve(self, rates, gain):
        grid = [0.2, 0.99, 1.3]
        for record in comparison_curve(rates, gain, grid):
            sigma = record["sigma_n"] * rates.gamma_total
            state = mf_steady_state(rates, gain, drive_for_sigma(rates, gain, sigma))
            assert (record["ns_mf"], record["np_mf"]) == (state.n_s, state.n_p)

    def test_linear_columns_round_as_python_floats(self, rates, gain):
        """ns_lin and np_lin equal the per-row Python float formulas bit for bit."""
        gamma_total = rates.gamma_total
        grid = np.concatenate([np.linspace(0.1, 1.15, 22), np.linspace(0.9, 0.999, 16),
                               np.random.default_rng(5).uniform(0.0, 1.0, 20000)])
        columns = meanfield.comparison_columns(rates, gain, grid)
        for k, sigma_n in enumerate(grid.tolist()):
            sigma = sigma_n * gamma_total
            alpha_l = math.sqrt(sigma * gamma_total**2 / (8.0 * gain * rates.kappa))
            assert columns["np_lin"][k] == 4.0 * rates.kappa * alpha_l**2 / gamma_total**2
            if 1.0 - sigma_n > 1e-12:
                mag2 = abs(sigma) ** 2
                assert columns["ns_lin"][k] == mag2 / (2.0 * (gamma_total**2 - mag2)), sigma_n

    def test_threshold_margin(self, rates, gain):
        """1 - sigma_n <= 1e-12 counts as threshold: ns_lin is inf there."""
        grid = [1 - 2e-12, 1 - 1e-12, 1 - 2.2e-16, 1.0]
        ns_lin = [record["ns_lin"] for record in comparison_curve(rates, gain, grid)]
        assert math.isfinite(ns_lin[0])
        assert all(math.isinf(value) for value in ns_lin[1:])


# Grids on which the direct solve is compared with the time-marching oracle.
ORACLE_GRIDS = {
    "preset": np.linspace(0.1, 1.15, 22).tolist(),
    "crowded": np.linspace(0.9, 0.999, 16).tolist(),
    "above": [2.0, 10.0, 100.0],
}


class TestOracleAgreement:
    @pytest.mark.parametrize("grid", sorted(ORACLE_GRIDS))
    def test_matches_time_marching(self, rates, gain, grid):
        """Every moment agrees with LSODA within 3e-9 (1 + 1/max(|1 - sigma_n|, 1e-4)).

        The oracle stops at a relative rate of 1e-9 per 1/Gamma, which leaves
        it about 1e-9/|1 - sigma_n| short of the fixed point (9.4e-6 at
        sigma_n = 1, where relaxation is slowest).
        """
        for sigma_n in ORACLE_GRIDS[grid]:
            drive = drive_for_sigma(rates, gain, sigma_n * rates.gamma_total)
            direct = mf_steady_state(rates, gain, drive)
            marched = marched_steady_state(rates, gain, drive)
            tolerance = 3e-9 * (1 + 1 / max(abs(1 - sigma_n), 1e-4))
            for name in ("a_p", "a_pp", "n_p", "n_s", "n_i", "m_si"):
                assert getattr(direct, name) == pytest.approx(getattr(marched, name),
                                                              rel=tolerance), (sigma_n, name)


class TestValidityBoundRoot:
    def test_bound_is_the_crossing(self, rates, gain):
        """The bound is the last float at which the deviation stays within tolerance."""

        def deviation(sigma_n):
            sigma = sigma_n * rates.gamma_total
            ns_mf = mf_steady_state(rates, gain, drive_for_sigma(rates, gain, sigma)).n_s
            return abs(lin_steady_state(rates, sigma).n_s - ns_mf) / ns_mf

        bound = validity_bound(rates, gain, 0.05)
        assert deviation(bound) <= 0.05 < deviation(np.nextafter(bound, 1.0))


def _root_inputs(rates, gain, sigma_ns):
    """(N_0, C) of the depletion root at each sigma_n, as _steady_states forms them."""
    drives = drive_for_sigma(rates, gain, np.asarray(sigma_ns) * rates.gamma_total)
    empty_pump = 2.0 * math.sqrt(rates.kappa) * drives / rates.gamma_total
    return empty_pump**2, rates.gamma_total / (2.0 * gain)


def _ulps_around_one(count):
    """sigma_n = 1 and the `count` floats on either side of it."""
    below, above = [1.0], [1.0]
    for _ in range(count):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 2.0))
    return below[:0:-1] + above


class TestNewtonRoot:
    GRIDS = dict(ORACLE_GRIDS, ulps=_ulps_around_one(4))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_moments_match_bisection(self, rates, gain, grid, monkeypatch):
        """Every moment agrees with the bisected root's within 1e-11 relative."""
        drives = drive_for_sigma(rates, gain, np.asarray(self.GRIDS[grid]) * rates.gamma_total)
        newton = meanfield._steady_states(rates, gain, drives)
        monkeypatch.setattr(meanfield, "_depletion", bisected_depletion)
        bisected = meanfield._steady_states(rates, gain, drives)
        for name in ("a_p", "a_pp", "n_p", "n_s", "n_i", "m_si"):
            assert getattr(newton, name) == pytest.approx(getattr(bisected, name), rel=1e-11,
                                                          abs=0.0), name

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_steps_per_grid(self, rates, gain, grid, monkeypatch):
        """At most 8 Newton steps solve a whole grid (one residual evaluation each)."""
        calls = []

        def counted(*args):
            calls.append(1)
            return excess(*args)

        excess = meanfield._excess
        monkeypatch.setattr(meanfield, "_excess", counted)
        meanfield._depletion(*_root_inputs(rates, gain, self.GRIDS[grid]))
        assert 1 <= len(calls) <= 8

    @settings(max_examples=300, deadline=None)
    @given(kappa_exp=st.floats(6, 11), gamma_exp=st.floats(5, 10), gain_exp=st.floats(-3, 3),
           sigma_exps=st.lists(st.floats(-8, 6), min_size=1, max_size=8))
    def test_residual_within_rounding(self, kappa_exp, gamma_exp, gain_exp, sigma_exps):
        """|N(d) - N_0| at the root: within 8 ulps of N_0 (the bisection's within 4)."""
        rates, gain = _cavity(kappa_exp, gamma_exp, gain_exp)
        n_empty, clamp = _root_inputs(rates, gain, 10.0 ** np.array(sigma_exps))
        ulp = np.spacing(n_empty)
        newton = np.abs(meanfield._excess(meanfield._depletion(n_empty, clamp), n_empty, clamp)[0])
        bisected = np.abs(meanfield._excess(bisected_depletion(n_empty, clamp), n_empty, clamp)[0])
        assert np.all(newton <= 8 * ulp), newton / ulp
        assert np.all(bisected <= 4 * ulp), bisected / ulp

    def test_slope_is_the_derivative(self):
        """The analytic slope against a central difference, below, at and above threshold."""
        clamp = 3.5e8
        n_empty = clamp * np.array([0.3, 1.0, 1.0, 2.0, 50.0])
        depletion = np.array([1e-9, 3e-5, 0.2, 2.0, 4e9])
        step = 1e-6 * depletion
        _, slope = meanfield._excess(depletion, n_empty, clamp)
        upper, _ = meanfield._excess(depletion + step, n_empty, clamp)
        lower, _ = meanfield._excess(depletion - step, n_empty, clamp)
        assert slope == pytest.approx((upper - lower) / (2 * step), rel=1e-6)
