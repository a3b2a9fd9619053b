import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import exact_moments
import mzi_oracle as oracle
from tables import rows
from mzi_oracle import (PairPort, Point, PoleError, gaussian_moment,
                        intensity_difference_stats_generic)
from ringmzi import (REFERENCE_GEOMETRY, CavityRates, DomainError, Injection, ThresholdError,
                     coherent_sensitivity, critical_length, decay_ratio, derive_rates,
                     efficiency, mzi_sensitivity, photon_flux, pole_coherent_amplitude)
from ringmzi.cli import run_command
from ringmzi.config import parse_config
from ringmzi.constants import HBAR
from ringmzi.errors import ConfigError
from ringmzi.interferometer import POLE_TOLERANCE, _check_pair_port

HALF_PI = math.pi / 2


def inj(rates, sigma_n):
    return Injection(sigma_n)


def closed(alpha_c, rates, injection, phi=HALF_PI, eta=1.0):
    """The array form on one point: (dphi_squeezed, detected photons, pole) as Python values."""
    dphi, photons, pole = mzi_sensitivity(alpha_c, phi, eta, rates, injection)
    return float(dphi), float(photons), bool(pole)


def closed_form_squeezed(kappa, gamma, sigma, eta, alpha_c):
    """Independent transcription of the wide sensitivity formula at phi = pi/2."""
    g_tot = kappa + gamma
    a2 = alpha_c**2
    num = math.sqrt(
        eta * a2 * (g_tot - sigma) ** 2 * (g_tot**2 + sigma * (2 * gamma - 6 * kappa) + sigma**2)
        + a2 * (g_tot**2 - sigma**2) ** 2
        + 8 * kappa * sigma**2 * g_tot
    )
    den = math.sqrt(eta) * (g_tot**2 - sigma**2) * abs(
        a2 - 8 * sigma**2 * kappa * g_tot / (g_tot**2 - sigma**2) ** 2)
    return num / den


def sweep_rows(command, text):
    return rows(run_command(parse_config(text, command=command)))


class TestGaussianMoment:
    def test_third_moment_identity(self):
        """<X1X2X3> = <X1X2><X3> + <X1X3><X2> + <X1><X2X3> - 2<X1><X2><X3>."""
        rng = np.random.default_rng(12)
        means = rng.normal(size=3) + 1j * rng.normal(size=3)
        table = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

        def pairs(i, j):
            return table[i, j]

        expected = (table[0, 1] * means[2] + table[0, 2] * means[1]
                    + means[0] * table[1, 2] - 2 * means[0] * means[1] * means[2])
        assert gaussian_moment(means, pairs) == pytest.approx(expected, rel=1e-12)

    def test_orders_one_and_two(self):
        means = [2.0 + 1j, -0.5]
        assert gaussian_moment(means[:1], lambda i, j: 0.0) == means[0]
        assert gaussian_moment(means, lambda i, j: 7.0) == 7.0

    def test_generic_stats_match_central_form(self, rates):
        """The expander-based ID statistics equal the stable central form."""
        state = oracle.mzi_input_state(25.0, oracle.pair_port(rates, inj(rates, 0.8)))
        for phi, eta in ((0.3, 1.0), (HALF_PI, 0.7), (2.5, 0.4)):
            out = oracle.mzi_transform(state, Point(phi, 25.0, eta))
            mean_a, var_a = oracle.intensity_difference_stats(out)
            mean_b, var_b = intensity_difference_stats_generic(out)
            assert mean_b == pytest.approx(mean_a, rel=1e-9, abs=1e-9)
            assert var_b == pytest.approx(var_a, rel=1e-9)


class TestSensorSpec:
    """The sensor region as configured: sensor.eta, or sensor.length with sensor.alpha_loss."""

    def test_eta_from_length(self):
        cfg = parse_config("sensor.length = 2.0\nsensor.alpha_loss = 0.23", command="sensitivity")
        assert cfg.eta_value == pytest.approx(efficiency(0.23, 2.0), rel=1e-14)

    def test_requires_one_loss_description(self):
        assert parse_config("", command="sensitivity").eta_value == 1.0
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("sensor.eta = 0.5\nsensor.length = 1.0", command="sensitivity")

    def test_eta_range(self):
        for eta in ("1.5", "0"):
            with pytest.raises(ConfigError, match="sensor.eta out of range"):
                parse_config(f"sensor.eta = {eta}", command="sensitivity")

    @pytest.mark.parametrize("fields", [("pump.alpha_c", "inf"), ("sensor.length", "inf"),
                                        ("pump.p_l", "nan")])
    def test_rejects_non_finite_fields(self, fields):
        key, value = fields
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {value}", command="sensitivity")

    def test_pump_flux_needs_frequency(self, geometry):
        """dphi_snl charges the pump flux p_l/(hbar omega_p) at the geometry's pump frequency."""
        text = "pump.p_l = 1e-3\nsweep.start = 1e-12\nsweep.stop = 1e-11\nsweep.points = 2\n"
        for lambda_p in (1550e-9, 775e-9):
            omega_p = replace(geometry, lambda_p=lambda_p).pump_frequency()
            row = sweep_rows("sensitivity", text + f"geometry.lambda_p = {lambda_p!r}")[0]
            assert row[4] == pytest.approx(1 / math.sqrt(1e-3 / (HBAR * omega_p)), rel=1e-6)


class TestMziTransform:
    def test_balanced_output_port(self):
        out = oracle.mzi_transform(oracle.mzi_input_state(3.0), Point(0.0, 3.0))
        assert out.port_photons(0) == pytest.approx(9.0, rel=1e-12)
        assert out.port_photons(1) == pytest.approx(0.0, abs=1e-20)

    def test_pi_phase_swaps_ports(self):
        out = oracle.mzi_transform(oracle.mzi_input_state(3.0), Point(math.pi, 3.0))
        assert out.port_photons(0) == pytest.approx(0.0, abs=1e-18)
        assert out.port_photons(1) == pytest.approx(9.0, rel=1e-12)

    def test_vacuum_stays_vacuum(self):
        state = oracle.mzi_input_state(0.0)
        for eta, phi in ((1.0, 0.4), (0.3, 2.2)):
            out = oracle.mzi_transform(state, Point(phi, 0.0, eta))
            assert out.total_photons() == pytest.approx(0.0, abs=1e-20)

    def test_photon_conservation_lossless(self, rates):
        port = oracle.pair_port(rates, inj(rates, 0.9))
        state = oracle.mzi_input_state(1e4, port)
        total_in = 1e4**2 + port.n
        for phi in np.linspace(0.0, 2 * math.pi, 9):
            out = oracle.mzi_transform(state, Point(phi, 1e4))
            assert out.total_photons() == pytest.approx(total_in, rel=1e-9)


class TestIntensityDifference:
    def test_vacuum(self):
        out = oracle.mzi_transform(oracle.mzi_input_state(0.0), Point(HALF_PI, 0.0, 0.8))
        mean, var = oracle.intensity_difference_stats(out)
        assert mean == 0.0
        assert var == pytest.approx(0.0, abs=1e-20)

    def test_coherent_shot_noise(self):
        """Balanced coherent interferometer: Var ID = |alpha_c|^2 at phi = pi/2."""
        out = oracle.mzi_transform(oracle.mzi_input_state(40.0), Point(HALF_PI, 40.0))
        mean, var = oracle.intensity_difference_stats(out)
        assert mean == pytest.approx(0.0, abs=1e-8)
        assert var == pytest.approx(40.0**2, rel=1e-12)

    def test_mean_follows_cosine(self, rates):
        flux = 2 * photon_flux(rates, inj(rates, 0.9))
        state = oracle.mzi_input_state(1e3, oracle.pair_port(rates, inj(rates, 0.9)))
        for phi in (0.0, 0.8, 2.0):
            out = oracle.mzi_transform(state, Point(phi, 1e3, 0.6))
            mean, _ = oracle.intensity_difference_stats(out)
            assert mean == pytest.approx(0.6 * (1e6 - flux) * math.cos(phi), rel=1e-9)


class TestCoherentSensitivity:
    def test_reference_value(self):
        assert coherent_sensitivity(1e5, 1.0) == pytest.approx(1e-5, rel=1e-12)

    def test_efficiency_scaling(self):
        assert coherent_sensitivity(1e5, 0.25) == pytest.approx(2e-5, rel=1e-12)

    def test_matches_numeric_pipeline(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            point = Point(HALF_PI, 10 ** rng.uniform(2, 6), rng.uniform(0.1, 1.0))
            report = oracle.point_readout(point, None)
            assert report.dphi == pytest.approx(
                coherent_sensitivity(point.alpha_c, point.eta), rel=1e-9)

    def test_rejects_zero_amplitude(self):
        """No probe, no coherent reference: inf, which the tables flag as a domain row."""
        assert math.isinf(coherent_sensitivity(0.0, 1.0))
        assert list(coherent_sensitivity(np.array([0.0, 1e5]), 1.0)) == [math.inf, 1e-5]


class TestNumericSensitivity:
    """The Gaussian pipeline of tests/mzi_oracle.py, and the closed form against it."""

    def test_coherent_point(self):
        assert oracle.point_readout(Point(HALF_PI, 10.0)).dphi == pytest.approx(0.1, rel=1e-9)

    def test_vacuum_pair_port_penalty(self, rates):
        """An empty pair port still injects its two-band vacuum: dphi = sqrt(2)/alpha_c."""
        port = oracle.pair_port(rates, inj(rates, 0.0))
        report = oracle.point_readout(Point(HALF_PI, 1e4), port)
        assert report.dphi == pytest.approx(math.sqrt(2) / 1e4, rel=1e-9)
        assert closed(1e4, rates, inj(rates, 0.0))[0] == pytest.approx(math.sqrt(2) / 1e4,
                                                                        rel=1e-12)

    def test_matches_closed_form_grid(self, rates):
        worst = 0.0
        for sigma_n in np.linspace(0.0, 0.99, 5):
            injection = inj(rates, sigma_n)
            port = oracle.pair_port(rates, injection)
            for eta in (0.1, 0.55, 1.0):
                for phi in (0.4, HALF_PI, 2.9):
                    numeric = oracle.point_readout(Point(phi, 1e5, eta), port).dphi
                    value = closed(1e5, rates, injection, phi, eta)[0]
                    worst = max(worst, abs(numeric - value) / value)
        assert worst < 1e-6

    def test_pole_at_zero_slope(self, rates):
        for phi in (0.0, math.pi):  # sin(float pi) = 1.2e-16: below the relative rule
            with pytest.raises(PoleError):
                oracle.point_readout(Point(phi, 100.0))
        dphi, _, pole = mzi_sensitivity(100.0, np.array([0.0, HALF_PI, math.pi]), 1.0,
                                        rates, inj(rates, 0.5))
        assert list(pole) == [True, False, True]
        assert math.isinf(dphi[0]) and math.isinf(dphi[2]) and math.isfinite(dphi[1])

    @settings(max_examples=200, deadline=None)
    @given(alpha_c=st.floats(1e2, 1e6), eta=st.floats(0.05, 1.0),
           sigma_n=st.floats(0.0, 0.999, exclude_max=True), phi=st.floats(-math.pi, 2 * math.pi),
           seed=st.none() | st.complex_numbers(max_magnitude=1e4))
    def test_analytic_slope_matches_central_difference(self, rates, alpha_c, eta, sigma_n,
                                                       phi, seed):
        """The pipeline's analytic slope, with or without a seed amplitude on port a_1."""
        injection = inj(rates, sigma_n)
        port = oracle.pair_port(rates, injection, mean=0.0 if seed is None else seed)
        point = Point(phi, alpha_c, eta)
        state = oracle.mzi_input_state(alpha_c, port)

        def mean_at(angle):
            return oracle.intensity_difference_stats(
                oracle.mzi_transform(state, replace(point, phi=angle)))[0]

        step = 1e-5
        central = (mean_at(phi + step) - mean_at(phi - step)) / (2 * step)
        # The difference loses about 1e-16 * eta * N / step to cancellation
        # (N the input photons), so slopes near zero are left out.
        assume(abs(central) >= 1e-3 * eta * state.total_photons())
        report = oracle.point_readout(point, port)
        assert math.sqrt(report.var_id) / report.dphi == pytest.approx(abs(central), rel=1e-6)

    def test_report_fields(self, rates):
        injection = inj(rates, 0.9)
        port = oracle.pair_port(rates, injection)
        report = oracle.point_readout(Point(HALF_PI, 1e5), port)
        assert report.var_id > 0
        assert report.dphi == pytest.approx(math.sqrt(report.var_id) / abs(report.slope),
                                            rel=1e-15)
        assert report.photons == pytest.approx(1e10 + port.n, rel=1e-12)
        dphi, photons, pole = closed(1e5, rates, injection)
        assert not pole and dphi == pytest.approx(report.dphi, rel=1e-9)
        assert photons == pytest.approx(report.photons, rel=1e-12)

    def test_misaligned_squeeze_phase_degrades(self, rates):
        """Rotating the pair phase by pi/2 aligns the anti-squeezing with phi = pi/2."""
        port = oracle.pair_port(rates, inj(rates, 0.9))
        point = Point(HALF_PI, 1e5)
        aligned = oracle.point_readout(point, port).dphi
        _, var_mis = oracle.intensity_difference_stats(oracle.mzi_transform(
            oracle.mzi_input_state(1e5, port, squeeze_phase=math.pi / 2), point))
        _, var_aligned = oracle.intensity_difference_stats(oracle.mzi_transform(
            oracle.mzi_input_state(1e5, port), point))
        assert var_mis > var_aligned
        assert math.sqrt(var_mis) / math.sqrt(var_aligned) > 10
        assert aligned < 1e-5


def mp_closed_form(alpha_c, phi, eta, rates, injection):
    """(dphi, photons, a^2 - N, a^2 + N) of the module docstring's expression, at 50 digits
    from the same float inputs, with N, M and V_min in Hz."""
    with mpmath.workdps(50):
        kappa, gamma = mpmath.mpf(rates.kappa), mpmath.mpf(rates.gamma)
        big = kappa + gamma
        sigma = mpmath.mpf(injection.sigma_n) * big
        a2, phi, eta = mpmath.mpf(alpha_c) ** 2, mpmath.mpf(phi), mpmath.mpf(eta)
        square = ((big - sigma) * (big + sigma)) ** 2
        n = 8 * sigma**2 * kappa * big / square
        m = 4 * kappa * sigma * (big**2 + sigma**2) / square
        v_min = 1 - 4 * kappa * sigma / (big + sigma) ** 2
        var_id = (eta**2 * (mpmath.cos(phi) ** 2 * (a2 + n * (n + 2) + m**2)
                            + mpmath.sin(phi) ** 2 * (2 * a2 * v_min + n))
                  + eta * (1 - eta) * (a2 + n))
        gap = eta * abs((a2 - n) * mpmath.sin(phi))
        dphi = mpmath.sqrt(var_id) / gap if gap else mpmath.inf
        return dphi, eta * (a2 + n), a2 - n, a2 + n


class TestClosedFormSensitivity:
    def test_vacuum_limit(self, rates):
        value = closed(1e5, rates, inj(rates, 0.0))[0]
        assert value == pytest.approx(math.sqrt(2) / 1e5, rel=1e-12)

    def test_matches_independent_transcription(self, rates):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sigma_n = rng.uniform(0, 0.99)
            eta = rng.uniform(0.1, 1.0)
            alpha_c = 10 ** rng.uniform(3, 6)
            injection = inj(rates, sigma_n)
            expected = closed_form_squeezed(rates.kappa, rates.gamma,
                                            sigma_n * rates.gamma_total, eta, alpha_c)
            value = closed(alpha_c, rates, injection, eta=eta)[0]
            assert value == pytest.approx(expected, rel=1e-12)

    def test_lossless_asymptotic_form(self):
        """eta=1, gamma=0, large alpha_c: dphi ~ (sqrt(2)/alpha_c)(k-s)/(k+s)."""
        rates = CavityRates(kappa=1e9, gamma=0.0)
        for sigma_n in (0.3, 0.6, 0.9):
            injection = inj(rates, sigma_n)
            sigma = sigma_n * 1e9
            value = closed(1e6, rates, injection)[0]
            approx = (math.sqrt(2) / 1e6) * (1e9 - sigma) / (1e9 + sigma)
            assert value == pytest.approx(approx, rel=0.01)

    def test_threshold_guard(self, rates):
        with pytest.raises(ThresholdError):
            mzi_sensitivity(1e5, HALF_PI, 1.0, rates, inj(rates, 1.0))

    def test_pole_divergence_bracketing(self, rates):
        injection = inj(rates, 0.99895)
        pole = pole_coherent_amplitude(rates, injection)
        far = closed(10 * pole, rates, injection)[0]
        for side in (1 - 1e-3, 1 + 1e-3):
            assert closed(side * pole, rates, injection)[0] > 1e3 * far
        dphi, _, on_pole = closed(pole, rates, injection)
        assert on_pole and math.isinf(dphi)

    @settings(max_examples=400, deadline=None)
    @given(ratio=st.floats(1.0, 1000.0), sigma_n=st.floats(0.0, 0.9995),
           phi=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
           eta=st.floats(1e-6, 1.0), alpha_c=st.floats(1.0, 1e7),
           near_pole=st.none() | st.floats(-1e-3, 1e-3))
    def test_matches_50_digit_evaluation(self, rates, ratio, sigma_n, phi, eta, alpha_c,
                                         near_pole):
        """Within 1e-11 of the same expression at 50 digits wherever |a^2 - N| >= 1e-3 (a^2 + N)."""
        ring = CavityRates(kappa=rates.kappa, gamma=rates.kappa / ratio)
        injection = inj(ring, sigma_n)
        if near_pole is not None:  # a probe within 1e-3 of the pole
            alpha_c = pole_coherent_amplitude(ring, injection) * (1 + near_pole)
            assume(alpha_c >= 1.0)
        dphi, photons, pole = closed(alpha_c, ring, injection, phi, eta)
        exact, exact_photons, gap, total = mp_closed_form(alpha_c, phi, eta, ring, injection)
        assert photons == pytest.approx(float(exact_photons), rel=1e-13)
        if abs(gap) < 1e-3 * total:
            return
        if pole:  # |sin phi| within 1e-9 (a^2 + N)/|a^2 - N| of zero
            assert abs(gap * mpmath.sin(phi)) <= 1.001e-9 * total
            return
        assert float(abs(dphi / exact - 1)) <= 1e-11


class TestShotNoiseLimit:
    """dphi_snl = 1/sqrt(N) with N the detected photons eta (a^2 + N_pair) plus the pump flux."""

    def test_coherent_only(self, rates):
        _, photons, _ = closed(1e4, rates, inj(rates, 0.0))
        assert 1 / math.sqrt(photons) == pytest.approx(1e-4, rel=1e-12)

    def test_pump_dominated(self, geometry):
        omega_p = geometry.pump_frequency()
        row = sweep_rows("sensitivity", "pump.p_l = 14.12e-3\nsweep.start = 1e-15\n"
                                        "sweep.stop = 1e-14\nsweep.points = 2")[0]
        assert row[4] == pytest.approx(1.0 / math.sqrt(14.12e-3 / (HBAR * omega_p)), rel=1e-6)

    def test_zero_budget_rejected(self):
        """No probe, no pairs and no pump: no photons at all, a domain row."""
        rows = sweep_rows("sensitivity", "pump.sigma_n = 0\nsweep.scale = linear\n"
                                         "sweep.start = 0\nsweep.stop = 1e-3\nsweep.points = 2")
        assert rows[0][-1] == "domain" and math.isinf(rows[0][4])


def improvement(ring, injection, alpha_c=1e5, eta=1.0):
    return coherent_sensitivity(alpha_c, eta) / closed(alpha_c, ring, injection, eta=eta)[0]


class TestImprovementFactor:
    def test_vacuum_port_penalty(self, rates):
        assert improvement(rates, inj(rates, 0.0)) == pytest.approx(1 / math.sqrt(2), rel=1e-9)

    def test_monotone_in_decay_ratio(self, rates):
        previous = 0.0
        for ratio in (10.0, 31.5, 100.0, 1000.0):
            ring = CavityRates(kappa=rates.kappa, gamma=rates.kappa / ratio)
            value = improvement(ring, inj(ring, 0.99895))
            assert value > previous
            previous = value
        assert decay_ratio(CavityRates(kappa=10.0, gamma=2.0)) == 5.0

    def test_long_sensor_gives_no_advantage(self, rates):
        eta = efficiency(0.23, 3 * critical_length(0.23))
        value = improvement(rates, inj(rates, 0.99895), eta=eta)
        assert value == pytest.approx(1.0, abs=0.05)

    def test_sensitivities_improve_with_efficiency(self, rates):
        """Both dphi_c and dphi_s are non-increasing as eta rises."""
        injection = inj(rates, 0.9)
        etas = np.linspace(0.1, 1.0, 8)
        coherent = coherent_sensitivity(1e5, etas)
        squeezed = mzi_sensitivity(1e5, HALF_PI, etas, rates, injection)[0]
        assert all(a >= b for a, b in zip(coherent, coherent[1:]))
        assert all(a >= b for a, b in zip(squeezed, squeezed[1:]))


class TestCriticalLength:
    def test_value_and_efficiency(self):
        length = critical_length(0.23)
        assert length == pytest.approx(2 / 0.23, rel=1e-14)
        assert efficiency(0.23, length) == pytest.approx(0.1353, abs=1e-3)

    def test_scaling(self):
        assert critical_length(0.46) == pytest.approx(critical_length(0.23) / 2, rel=1e-14)

    def test_rejects_lossless(self):
        with pytest.raises(DomainError):
            critical_length(0.0)


class TestPoleAmplitude:
    def test_vacuum(self, rates):
        assert pole_coherent_amplitude(rates, inj(rates, 0.0)) == 0.0

    def test_reference_point(self, rates):
        value = pole_coherent_amplitude(rates, inj(rates, 0.99895))
        assert value == pytest.approx(math.sqrt(2 * 8.78e5), rel=1e-3)
        assert value == pytest.approx(1.33e3, rel=5e-3)

    @pytest.mark.parametrize("sigma_n", [0.99895, 0.9999, 0.99999])
    def test_is_a_pole_of_the_closed_form(self, rates, sigma_n):
        """The amplitude shares N with mzi_sensitivity, so it is flagged there near threshold,
        where a last-bit difference in N would move it off the 1e-9 pole rule."""
        injection = inj(rates, sigma_n)
        dphi, _, pole = closed(pole_coherent_amplitude(rates, injection), rates, injection)
        assert pole and math.isinf(dphi)


class TestSensitivityVsPhase:
    def test_beats_shot_noise_limit(self, rates):
        """At the working point the squeezed minimum sits well below the SNL.

        The margin the closed-form sensitivities give at sigma_n = 0.99895,
        alpha_c = 1e5 is about 4x.
        """
        injection = inj(rates, 0.99895)
        dphi = closed(1e5, rates, injection)[0]
        snl_plain = 1.0 / math.sqrt(1e10 + 2 * photon_flux(rates, injection))
        assert dphi < snl_plain / 2
        assert dphi < coherent_sensitivity(1e5, 1.0)


def ring_rates(cross_coupling, alpha_loss, radius):
    geometry = replace(REFERENCE_GEOMETRY, cross_coupling=cross_coupling, alpha_loss=alpha_loss,
                       ring_length=2 * math.pi * radius)
    return derive_rates(geometry)


# Phases on and next to the poles of the readout (0, pi and float pi) besides random ones.
# The pole rule |sin phi| <= 1e-9 is met with equality at phi = 1e-9 without pairs, where
# the two paths' last-bit rounding decides the flag: the phases next to it sit 1e-6 off.
SPECIAL_PHASES = [0.0, math.pi, 2 * math.pi, HALF_PI, math.nextafter(math.pi, 0.0),
                  math.nextafter(0.0, 1.0), 1e-9 * (1 - 1e-6), 1e-9 * (1 + 1e-6),
                  math.pi - 1e-9, -HALF_PI]
GEOMETRIES = dict(cross_coupling=st.floats(1e-3, 0.2), alpha_loss=st.floats(0.01, 20.0),
                  radius=st.floats(20e-6, 1e-3))
# C8's bound: the closed form against the Gaussian pipeline.
PIPELINE_TOLERANCE = 1e-6


class TestArrayPath:
    """The array form against the per-point Gaussian pipeline of tests/mzi_oracle.py.

    The pipeline's pair port is the closed form's own (N, M) (oracle.pair_port, from
    ringmzi.cavity_io), so the comparison holds near the pole too, where dphi moves with
    the last bits of N. Below N = 2^-1000 (sigma_n of about 1e-150) that float N is
    rounded, a subnormal n_s, and the closed form's scaled port is not: there the 100-digit
    closed form of tests/exact_moments.py judges the array form instead.
    """

    @staticmethod
    def oracle_row(point, port):
        """Readout of one point, or the exception the point raised."""
        try:
            return oracle.point_readout(point, port)
        except (PoleError, DomainError) as exc:
            return type(exc)

    def assert_matches(self, dphi, photons, pole, point, rates, injection):
        port = oracle.pair_port(rates, injection)
        if injection.sigma_n > 0 and port.n < 2.0 ** -1000:
            exact = exact_moments.mzi_readout(rates, injection, point.alpha_c, point.phi,
                                              point.eta)
            assert pole == (exact.gap <= POLE_TOLERANCE)
            if pole:
                assert math.isinf(dphi)
            else:  # 1e-16 relative in a^2 - N moves dphi by about 1e-16/gap
                rel = 1e-9 + 1e-14 / float(exact.gap)
                assert dphi == pytest.approx(float(exact.dphi), rel=rel)
                assert photons == pytest.approx(float(exact.photons), rel=1e-9, abs=5e-324)
            return
        expected = self.oracle_row(point, port)
        assert pole == (expected is PoleError)
        if pole:
            assert math.isinf(dphi)
        else:
            assert dphi == pytest.approx(expected.dphi, rel=PIPELINE_TOLERANCE)
            assert photons == pytest.approx(expected.photons, rel=PIPELINE_TOLERANCE)

    @settings(max_examples=150, deadline=None)
    @given(**GEOMETRIES, sigma_n=st.floats(0.0, 0.9999), eta=st.floats(1e-3, 1.0),
           alpha_c=st.floats(0.0, 1e6), on_pole=st.booleans(),
           phases=st.lists(st.sampled_from(SPECIAL_PHASES) | st.floats(-7.0, 7.0),
                           min_size=1, max_size=6))
    def test_phase_batch_equals_pointwise(self, cross_coupling, alpha_loss, radius, sigma_n,
                                          eta, alpha_c, on_pole, phases):
        rates = ring_rates(cross_coupling, alpha_loss, radius)
        injection = inj(rates, sigma_n)
        if on_pole:  # phi = pi/2 is then a pole of the squeezed readout
            alpha_c = pole_coherent_amplitude(rates, injection)
        dphi, photons, pole = mzi_sensitivity(alpha_c, np.array(phases), eta, rates, injection)
        assert dphi.shape == photons.shape == pole.shape == (len(phases),)
        for k, phi in enumerate(phases):
            self.assert_matches(dphi[k], photons[k], pole[k], Point(phi, alpha_c, eta), rates,
                                injection)

    @settings(max_examples=150, deadline=None)
    @given(**GEOMETRIES, sigma_n=st.floats(0.0, 0.9999), eta=st.floats(1e-3, 1.0),
           phi=st.sampled_from(SPECIAL_PHASES) | st.floats(-7.0, 7.0),
           amplitudes=st.lists(st.just(0.0) | st.floats(1e-3, 1e6), min_size=1, max_size=6),
           near_pole=st.sampled_from([0.0, 1.0, 1 - 1e-10, 1 + 1e-10, 1 + 1e-8]))
    # N = 1.48e-319 is subnormal: the pipeline's slope underflowed and it missed the pole
    # (a relative gap of 2e-10), and its slope at alpha_c = 0 was 6.3e-5 off; then the
    # closed form, at eta = 0.5, and at a gap of 2e-8, which it took for a pole. At
    # sigma_n = 1.6e-162 the float N = 2e-323 is 3% below the exact one: a closed form on
    # that N reads dphi 1.9% (phi = 0.5) and 19% (phi = 1.0) off. At sigma_n = 5e-324 the
    # pole amplitude is 1.5e-323, and sqrt(eta) alpha_c rounds to 0 in the coherent reference.
    @example(cross_coupling=0.125, alpha_loss=1.0, radius=0.0008484518022431566,
             sigma_n=1.6408061761055254e-162, eta=1.0, phi=0.5, amplitudes=[0.0], near_pole=0.0)
    @example(cross_coupling=0.125, alpha_loss=1.0, radius=0.0008484518022431566,
             sigma_n=1.6408061761055254e-162, eta=1.0, phi=1.0, amplitudes=[0.0], near_pole=0.0)
    @example(cross_coupling=0.125, alpha_loss=1.0, radius=0.0008148642645197752,
             sigma_n=1.388908641308492e-160, eta=1.0, phi=HALF_PI, amplitudes=[1.0],
             near_pole=1 + 1e-10)
    @example(cross_coupling=0.125, alpha_loss=1.0, radius=0.0008148642645197752,
             sigma_n=1.388908641308492e-160, eta=1.0, phi=HALF_PI, amplitudes=[0.0],
             near_pole=0.0)
    @example(cross_coupling=0.125, alpha_loss=1.0, radius=0.0008148642645197752,
             sigma_n=1.388908641308492e-160, eta=0.5, phi=HALF_PI, amplitudes=[0.0],
             near_pole=0.0)
    @example(cross_coupling=0.125, alpha_loss=1.0, radius=0.001, sigma_n=1.388908641308492e-160,
             eta=1.0, phi=HALF_PI, amplitudes=[0.0], near_pole=1 + 1e-8)
    @example(cross_coupling=0.125, alpha_loss=1.0, radius=0.001, sigma_n=5e-324, eta=0.015625,
             phi=0.0, amplitudes=[0.0], near_pole=1.0)
    def test_probe_batch_equals_pointwise(self, cross_coupling, alpha_loss, radius, sigma_n,
                                          eta, phi, amplitudes, near_pole):
        """A batch over alpha_c, with points on and next to the pole a^2 = N."""
        rates = ring_rates(cross_coupling, alpha_loss, radius)
        injection = inj(rates, sigma_n)
        amplitudes = amplitudes + [near_pole * pole_coherent_amplitude(rates, injection)]
        dphi, photons, pole = mzi_sensitivity(np.array(amplitudes), phi, eta, rates, injection)
        coherent = coherent_sensitivity(np.array(amplitudes), eta)
        for k, a_c in enumerate(amplitudes):
            point = Point(phi, a_c, eta)
            self.assert_matches(dphi[k], photons[k], pole[k], point, rates, injection)
            # The one-point call is the same path.
            assert closed(a_c, rates, injection, phi, eta) == (dphi[k], photons[k], pole[k])
            if a_c > 0:
                assert coherent[k] == oracle.coherent_reference(point)

    @settings(max_examples=100, deadline=None)
    @given(n_pair=st.floats(0.0, 1e8), excess=st.floats(0.5, 2.0), phi=st.floats(-7.0, 7.0),
           eta=st.floats(1e-3, 1.0))
    def test_domain_mask_equals_state_exceptions(self, n_pair, excess, phi, eta):
        """An anomalous moment beyond |M|^2 <= N (N + 2) is rejected by the array form's port
        check exactly where the oracle's port state raises."""
        n = 2 * n_pair
        m = excess * math.sqrt(n * (n + 2))
        try:
            oracle.mzi_input_state(1e4, PairPort(n=n, m=m))
        except DomainError:
            with pytest.raises(DomainError):
                _check_pair_port(n, m)
        else:
            _check_pair_port(n, m)

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([0.0, -1e-3, -2e-9, math.nan, math.inf, -math.inf])
           | st.floats(-10.0, 1e6),
           m=st.sampled_from([0.0, -1e-3, math.nan, math.inf, -math.inf]) | st.floats(-1e6, 1e6))
    def test_unphysical_mask_equals_constructor_exceptions(self, n, m):
        """Non-finite, negative and oversized port moments: the port check raises exactly
        where the oracle's state constructor does."""
        try:
            oracle.mzi_input_state(1.0, PairPort(n=n, m=m))
        except DomainError:
            with pytest.raises(DomainError):
                _check_pair_port(n, m)
        else:
            _check_pair_port(n, m)

    @settings(max_examples=200, deadline=None)
    @given(**GEOMETRIES, sigma_n=st.floats(0.0, 0.9999), eta=st.floats(1e-3, 1.0),
           alpha_c=st.floats(1.0, 1e6), phi=st.floats(-7.0, 7.0))
    def test_photon_conservation(self, cross_coupling, alpha_loss, radius, sigma_n, eta,
                                 alpha_c, phi):
        """The signal map is sqrt(eta) times a unitary and the loss adds no photons."""
        rates = ring_rates(cross_coupling, alpha_loss, radius)
        injection = inj(rates, sigma_n)
        port = oracle.pair_port(rates, injection)
        _, photons, _ = mzi_sensitivity(np.array([alpha_c]), phi, eta, rates, injection)
        expected = eta * (alpha_c**2 + port.n)
        assert photons[0] == pytest.approx(expected, rel=1e-12)
        output = oracle.mzi_transform(oracle.mzi_input_state(alpha_c, port),
                                      Point(phi, alpha_c, eta))
        assert output.total_photons() == pytest.approx(expected, rel=1e-9)
