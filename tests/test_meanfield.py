"""Tests of ringmzi.meanfield.

The solve works in units of Gamma: a sigma_n enters as the empty-cavity pump
number N_0 = sigma_n C, C = Gamma/(2g), and time in units of 1/Gamma.
TestUnitsOfGamma holds its right-hand side against the absolute one in Hz
of tests/mf_oracle.py. The time-marching tests (TestLinearized integration
cases, the fixed-step and dt-halving cases and SolverConfig validation)
exercise the LSODA/RK4 oracle there, which TestOracleAgreement compares with
the direct solve. TestNewtonRoot compares the direct solve's Newton root
with the bisection oracle there.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mf_oracle import (VACUUM, DivergenceError, SolverConfig, _max_rel_rate, _pack, _unpack,
                       absolute_derivatives, bisected_depletion, comparison_curve,
                       lin_derivatives, marched_steady_state, mf_steady_state, steady_state)
from ringmzi import (CavityRates, ConvergenceError, DomainError, MomentState, mf_derivatives,
                     validity_bound)
import ringmzi.meanfield as meanfield


def _pump_numbers(rates, gain, sigma_ns):
    """(N_0, C) at each sigma_n, as comparison_columns forms them: N_0 = sigma_n C,
    C = Gamma/(2g)."""
    clamp = rates.gamma_total / (2.0 * gain)
    return np.asarray(sigma_ns, dtype=float) * clamp, clamp


def _state_at(rates, gain, sigma_n):
    """The direct solve's steady state at one sigma_n."""
    return mf_steady_state(*_pump_numbers(rates, gain, sigma_n))


def _ns_linearized(sigma_n):
    return sigma_n**2 / (2 * (1 - sigma_n**2))


class TestDerivatives:
    def test_vacuum_is_fixed_point(self, rates, gain):
        derivative = mf_derivatives(VACUUM, 0.0, gain / rates.gamma_total)
        assert derivative == VACUUM

    def test_pump_decouples_without_gain(self):
        """Coupling 0 leaves a driven empty cavity: from vacuum the pump settles at
        <a_p> = 2 f, <a_p^2> = n_p = 4 f^2 = N_0, an exact fixed point, and no pairs."""
        drive = 3.0
        empty = MomentState(a_p=2 * drive, a_pp=4 * drive**2, n_p=4 * drive**2)
        assert mf_derivatives(empty, drive, 0.0) == VACUUM
        state = steady_state(lambda s: mf_derivatives(s, drive, 0.0), VACUUM, SolverConfig())
        assert state.a_p == pytest.approx(2 * drive, rel=1e-6)
        assert state.a_pp == pytest.approx(4 * drive**2, rel=1e-6)
        assert state.n_p == pytest.approx(4 * drive**2, rel=1e-6)
        assert state.n_s == state.n_i == 0.0
        assert state.m_si == 0.0

    def test_pair_symmetry(self, rates, gain):
        state = _state_at(rates, gain, 0.8)
        assert state.n_s == pytest.approx(state.n_i, rel=1e-9)

    def test_matches_linearized_below_threshold(self, rates, gain):
        """Cross-module oracle: MF n_s ~ sigma_n^2/(2(1-sigma_n^2)) at sigma_n=0.95."""
        assert _state_at(rates, gain, 0.95).n_s == pytest.approx(_ns_linearized(0.95), rel=0.05)


class TestLinearized:
    def test_decay_to_vacuum(self):
        initial = MomentState(n_s=5.0, n_i=5.0, m_si=1.0 + 0.5j)
        state = steady_state(lambda s: lin_derivatives(s, 0.0), initial, SolverConfig())
        assert state.n_s == pytest.approx(0.0, abs=1e-9)
        assert abs(state.m_si) == pytest.approx(0.0, abs=1e-9)

    def test_integrated_matches_analytic(self):
        """n_s = sigma_n^2/(2(1-sigma_n^2)), m_si = sigma_n/(2(1-sigma_n^2))."""
        sigma_n = 0.9
        integrated = steady_state(lambda s: lin_derivatives(s, sigma_n), VACUUM, SolverConfig())
        assert integrated.n_s == pytest.approx(_ns_linearized(sigma_n), rel=1e-6)
        assert integrated.m_si == pytest.approx(sigma_n / (2 * (1 - sigma_n**2)), rel=1e-6)

    def test_analytic_form(self, rates, gain):
        """The linearized columns: ns_lin = sigma_n^2/(2(1-sigma_n^2)), np_lin = sigma_n C."""
        columns = meanfield.comparison_columns(rates, gain, [0.5])
        assert columns["ns_lin"][0] == pytest.approx(_ns_linearized(0.5), rel=1e-14)
        assert columns["np_lin"][0] == pytest.approx(0.5 * rates.gamma_total / (2 * gain),
                                                     rel=1e-14)

    def test_above_threshold_diverges(self):
        with pytest.raises(DivergenceError):
            steady_state(lambda s: lin_derivatives(s, 1.05), VACUUM, SolverConfig(t_max=5e3))

    def test_at_threshold_never_settles(self):
        with pytest.raises((ConvergenceError, DivergenceError)):
            steady_state(lambda s: lin_derivatives(s, 1.0), VACUUM, SolverConfig())


class TestSteadyState:
    def test_vacuum_trivial(self, rates, gain):
        assert _state_at(rates, gain, 0.0) == VACUUM

    def test_converges_below_threshold(self, rates, gain):
        state = _state_at(rates, gain, 0.5)
        assert math.isfinite(state.n_s)
        assert state.n_s > 0

    def test_pump_clamps_above_threshold(self, rates, gain):
        """MF pump depletes: n_p stays pinned near C = Gamma/(2g) past threshold."""
        clamp = rates.gamma_total / (2 * gain)
        values = {}
        for sigma_n in (1.05, 1.15):
            values[sigma_n] = _state_at(rates, gain, sigma_n).n_p
            assert values[sigma_n] == pytest.approx(clamp, rel=0.05)
        # the linearized pump would grow by (1.15/1.05) between these points
        assert values[1.15] / values[1.05] < 1.02

    def test_fixed_step_agrees_with_adaptive(self, rates, gain):
        point = _pump_numbers(rates, gain, 0.6)
        adaptive = marched_steady_state(*point, SolverConfig())
        fixed = marched_steady_state(*point, SolverConfig(method="fixed"))
        assert fixed.n_s == pytest.approx(adaptive.n_s, rel=1e-6)

    def test_invariant_under_dt_halving(self, rates, gain):
        point = _pump_numbers(rates, gain, 0.6)
        coarse = marched_steady_state(*point, SolverConfig(method="fixed", dt=0.02))
        fine = marched_steady_state(*point, SolverConfig(method="fixed", dt=0.01))
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
        state = _state_at(rates, gain, 0.95)
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

    def test_upper_end_where_the_pump_does_not_deplete(self):
        """At C = Gamma/(2g) = 5.5e20 the deviation stays within tolerance up to the
        bracket's upper end, which is returned."""
        assert validity_bound(CavityRates(kappa=1e9, gamma=1e8), 1e-12, 0.05) == 1.0 - 1e-9

    @pytest.mark.parametrize("nonpositive", [-1.0, 0.0])
    def test_rejects_gain_without_pairs(self, nonpositive):
        """g <= 0 gives no pairs and no threshold: comparison_columns, and validity_bound
        through it, raise DomainError naming the gain, not a bare ValueError or
        ZeroDivisionError."""
        rates = CavityRates(kappa=1e9, gamma=1e8)
        with pytest.raises(DomainError, match=f"gain must be positive .*{nonpositive!r}"):
            meanfield.comparison_columns(rates, nonpositive, [0.5])
        with pytest.raises(DomainError, match="gain must be positive"):
            validity_bound(rates, nonpositive, 0.05)


class TestMomentInvariants:
    def test_pump_coherence_bound(self, rates, gain):
        """|<a_p>|^2 <= <a_p^+ a_p>: pair emission adds incoherent pump population."""
        for sigma_n in (0.5, 0.95):
            state = _state_at(rates, gain, sigma_n)
            assert abs(state.a_p) ** 2 <= state.n_p * (1 + 1e-9)


def _cavity(kappa_exp, gamma_exp, gain_exp):
    return CavityRates(kappa=10.0**kappa_exp, gamma=10.0**gamma_exp), 10.0**gain_exp


def _term_sizes(state, rates, gain, alpha_l):
    """Sum of the magnitudes of the terms of each absolute_derivatives component, packed:
    the scale its rounding is relative to."""
    gamma_total, drive = rates.gamma_total, math.sqrt(rates.kappa) * abs(alpha_l)
    a_p, a_pp, m_si = abs(state.a_p), abs(state.a_pp), abs(state.m_si)
    n_p, n_s, n_i = abs(state.n_p), abs(state.n_s), abs(state.n_i)
    pair = 2 * gain * a_pp * m_si
    sizes = [drive + gamma_total * a_p / 2 + 2 * gain * a_p * m_si,
             2 * drive * a_p + gamma_total * a_pp + gain * (4 * n_p + 2) * m_si,
             2 * drive * a_p + gamma_total * n_p + 2 * pair,
             pair + gamma_total * n_s, pair + gamma_total * n_i,
             gain * a_pp * (n_s + n_i + 1) + gamma_total * m_si]
    return np.array(sizes)[[0, 0, 1, 1, 2, 3, 4, 5, 5]]


class TestUnitsOfGamma:
    @settings(max_examples=300, deadline=None)
    @given(kappa_exp=st.floats(6, 11), gamma_exp=st.floats(5, 10), gain_exp=st.floats(-3, 3),
           sigma_exp=st.floats(-3, 3),
           moments=st.lists(st.floats(-1e9, 1e9), min_size=9, max_size=9))
    def test_gamma_times_rates_are_the_absolute_rates(self, kappa_exp, gamma_exp, gain_exp,
                                                      sigma_exp, moments):
        """Gamma times mf_derivatives at drive sqrt(kappa) a_l/Gamma and coupling g/Gamma is
        the right-hand side in Hz at the waveguide drive a_l, within rounding, over random
        (complex) states and cavities."""
        rates, gain = _cavity(kappa_exp, gamma_exp, gain_exp)
        gamma_total = rates.gamma_total
        # The drive of sigma_n: sigma = 8 g kappa |a_l|^2/Gamma^2 [sqrt(Hz)].
        alpha_l = math.sqrt(10.0**sigma_exp * gamma_total**3 / (8.0 * gain * rates.kappa))
        state = _unpack(np.array(moments))
        scaled = mf_derivatives(state, math.sqrt(rates.kappa) * alpha_l / gamma_total,
                                gain / gamma_total)
        absolute = absolute_derivatives(state, rates, gain, alpha_l)
        error = np.abs(gamma_total * _pack(scaled) - _pack(absolute))
        bound = 8 * np.finfo(float).eps * _term_sizes(state, rates, gain, alpha_l)
        assert np.all(error <= bound), error / bound


# Cavities with the reference ring's Gamma/(2g), as (kappa, gamma, gain) factors of the
# reference rates: both scalings by a power of 2 are exact, as is the even split of Gamma.
SAME_CLAMP = {
    "scaled-down": lambda kappa, gamma, gain: (kappa * 2.0**-40, gamma * 2.0**-40,
                                               gain * 2.0**-40),
    "scaled-up": lambda kappa, gamma, gain: (kappa * 2.0**60, gamma * 2.0**60, gain * 2.0**60),
    "even-split": lambda kappa, gamma, gain: ((kappa + gamma) / 2, (kappa + gamma) / 2, gain),
}


class TestUnitsOfGammaColumns:
    @pytest.mark.parametrize("cavity", sorted(SAME_CLAMP))
    def test_columns_depend_only_on_the_clamp(self, rates, gain, cavity):
        """Every column is the same, bit for bit, on a cavity with the same Gamma/(2g):
        neither the scale of the rates nor the split of Gamma into kappa and gamma enters."""
        kappa, gamma, other_gain = SAME_CLAMP[cavity](rates.kappa, rates.gamma, gain)
        other = CavityRates(kappa=kappa, gamma=gamma)
        assert other.gamma_total / (2 * other_gain) == rates.gamma_total / (2 * gain)
        grid = np.concatenate([np.linspace(0.1, 1.15, 22), [1 - 1e-9, 2.0, 10.0, 100.0]])
        expected = meanfield.comparison_columns(rates, gain, grid)
        columns = meanfield.comparison_columns(other, other_gain, grid)
        for name, column in expected.items():
            assert np.array_equal(columns[name], column), name


class TestDirectSolve:
    @settings(max_examples=300, deadline=None)
    @given(kappa_exp=st.floats(6, 11), gamma_exp=st.floats(5, 10), gain_exp=st.floats(-3, 3),
           sigma_exp=st.floats(-3, 3))
    def test_invariants(self, kappa_exp, gamma_exp, gain_exp, sigma_exp):
        """Physical bounds and the stop rule over random cavities and drives.

        The bounds allow 1e-12 relative for rounding: they are equalities
        where depletion vanishes (|a_p|^2 = n_p at g -> 0).
        """
        rates, gain = _cavity(kappa_exp, gamma_exp, gain_exp)
        sigma_n = 10.0**sigma_exp
        n_empty, clamp = _pump_numbers(rates, gain, sigma_n)
        state = mf_steady_state(n_empty, clamp)
        assert state.n_s >= 0 and state.n_i >= 0 and state.n_p >= 0
        assert abs(state.a_p) ** 2 <= state.n_p * (1 + 1e-12)
        assert abs(state.m_si) ** 2 <= state.n_s * (state.n_i + 1) * (1 + 1e-12)
        if 1 - sigma_n > 1e-12:
            assert state.n_s <= _ns_linearized(sigma_n) * (1 + 1e-12)
        # The time-marching stop rule, per 1/Gamma.
        rate = mf_derivatives(state, math.sqrt(n_empty) / 2, gain / rates.gamma_total)
        assert _max_rel_rate(_pack(state), _pack(rate)) < 1e-9

    @pytest.mark.parametrize("sigma_n", [0.5, 0.999, 2.0, 10.0])
    def test_real_drive_reaches_the_first_root(self, rates, gain, sigma_n):
        """The moments of the real drive sqrt(N_0)/2 are real and in phase with it
        (<a_p>, <a_p^2>, <a_s a_i> > 0), at the root with pump damping d = 2<a_s a_i>/C
        below 1, the first reached from vacuum."""
        n_empty, clamp = _pump_numbers(rates, gain, [sigma_n])
        state = meanfield._steady_states(n_empty, clamp)
        for name in ("a_p", "a_pp", "n_p", "n_s", "n_i", "m_si"):
            assert getattr(state, name).dtype == np.float64, name
        assert state.a_p[0] > 0 and state.a_pp[0] > 0 and state.m_si[0] > 0
        assert 2 * state.m_si[0] / clamp < 1

    def test_tiny_gain_approaches_the_empty_cavity(self):
        """At C = Gamma/(2g) = 1e12 the pump barely depletes below threshold: <a_p> =
        sqrt(N_0), <a_p^2> = n_p = N_0 and n_s = sigma_n^2/(2(1-sigma_n^2)) within 1e-9."""
        clamp = 1e12
        for sigma_n in (0.1, 0.5, 0.95):
            n_empty = sigma_n * clamp
            state = mf_steady_state(n_empty, clamp)
            assert state.a_p == pytest.approx(math.sqrt(n_empty), rel=1e-9)
            assert state.a_pp == pytest.approx(n_empty, rel=1e-9)
            assert state.n_p == pytest.approx(n_empty, rel=1e-9)
            assert state.n_s == pytest.approx(_ns_linearized(sigma_n), rel=1e-9)

    def test_curve_matches_pointwise_solve(self, rates, gain):
        grid = [0.2, 0.99, 1.3]
        for record in comparison_curve(rates, gain, grid):
            state = _state_at(rates, gain, record["sigma_n"])
            assert (record["ns_mf"], record["np_mf"]) == (state.n_s, state.n_p)

    def test_linear_columns_match_exact_rationals(self, rates, gain):
        """ns_lin within 6e-16 of sigma_n^2/(2(1 - sigma_n^2)) (five roundings), and np_lin
        within 4e-16 of sigma_n Gamma/(2g), both taken in exact rationals of the floats."""
        grid = np.concatenate([np.linspace(0.1, 1.15, 22), np.linspace(0.9, 0.999, 16),
                               [1 - 1e-9, 1 - 2e-12, 1 - 1.1e-12],
                               np.random.default_rng(5).uniform(0.0, 1.0, 20000)])
        columns = meanfield.comparison_columns(rates, gain, grid)
        clamp = Fraction(rates.gamma_total) / (2 * Fraction(gain))
        ns_tol, np_tol = Fraction(6e-16), Fraction(4e-16)
        for sigma_n, ns_lin, np_lin in zip(grid.tolist(), columns["ns_lin"].tolist(),
                                           columns["np_lin"].tolist()):
            s = Fraction(sigma_n)
            assert abs(Fraction(np_lin) - s * clamp) <= np_tol * s * clamp, sigma_n
            if 1.0 - sigma_n > 1e-12:
                exact = s * s / (2 * (1 - s * s))
                assert abs(Fraction(ns_lin) - exact) <= ns_tol * exact, sigma_n

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
            point = _pump_numbers(rates, gain, sigma_n)
            direct = mf_steady_state(*point)
            marched = marched_steady_state(*point)
            tolerance = 3e-9 * (1 + 1 / max(abs(1 - sigma_n), 1e-4))
            for name in ("a_p", "a_pp", "n_p", "n_s", "n_i", "m_si"):
                assert getattr(direct, name) == pytest.approx(getattr(marched, name),
                                                              rel=tolerance), (sigma_n, name)


class TestValidityBoundRoot:
    def test_bound_is_the_crossing(self, rates, gain):
        """The bound is the last float at which the deviation stays within tolerance."""

        def deviation(sigma_n):
            ns_mf = _state_at(rates, gain, sigma_n).n_s
            ns_lin = sigma_n * sigma_n / (2.0 * (1.0 - sigma_n) * (1.0 + sigma_n))
            return abs(ns_lin - ns_mf) / ns_mf

        bound = validity_bound(rates, gain, 0.05)
        assert deviation(bound) <= 0.05 < deviation(np.nextafter(bound, 1.0))


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
        point = _pump_numbers(rates, gain, self.GRIDS[grid])
        newton = meanfield._steady_states(*point)
        monkeypatch.setattr(meanfield, "_depletion", bisected_depletion)
        bisected = meanfield._steady_states(*point)
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
        meanfield._depletion(*_pump_numbers(rates, gain, self.GRIDS[grid]))
        assert 1 <= len(calls) <= 8

    @settings(max_examples=300, deadline=None)
    @given(kappa_exp=st.floats(6, 11), gamma_exp=st.floats(5, 10), gain_exp=st.floats(-3, 3),
           sigma_exps=st.lists(st.floats(-8, 6), min_size=1, max_size=8))
    def test_residual_within_rounding(self, kappa_exp, gamma_exp, gain_exp, sigma_exps):
        """|N(d) - N_0| at the root: within 8 ulps of N_0 (the bisection's within 4)."""
        rates, gain = _cavity(kappa_exp, gamma_exp, gain_exp)
        n_empty, clamp = _pump_numbers(rates, gain, 10.0 ** np.array(sigma_exps))
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
