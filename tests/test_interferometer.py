import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringmzi import (CavityRates, DomainError, Injection, OutputMoments, PoleError,
                     SensorSpec, ThresholdError, critical_length, decay_ratio, efficiency,
                     gaussian_moment, improvement_factor, intensity_difference_stats,
                     intensity_difference_stats_generic, mzi_input_state, mzi_transform,
                     output_moments, phase_sensitivity_coherent, phase_sensitivity_numeric,
                     phase_sensitivity_squeezed, photon_flux, pole_coherent_amplitude,
                     SeedAmplitudes, shot_noise_limit, variance_extrema)

HALF_PI = math.pi / 2


def inj(rates, sigma_n):
    return Injection.from_sigma_n(sigma_n, rates)


def spec_at(phi=HALF_PI, alpha_c=1e5, eta=1.0, **kwargs):
    return SensorSpec(phi=phi, alpha_c=alpha_c, eta=eta, **kwargs)


def closed_form_squeezed(kappa, gamma, sigma, eta, alpha_c):
    """Independent transcription of the wide sensitivity formula."""
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
        moments = output_moments(rates, inj(rates, 0.8))
        state = mzi_input_state(25.0, moments)
        for phi, eta in ((0.3, 1.0), (HALF_PI, 0.7), (2.5, 0.4)):
            out = mzi_transform(state, spec_at(phi=phi, alpha_c=25.0, eta=eta))
            mean_a, var_a = intensity_difference_stats(out)
            mean_b, var_b = intensity_difference_stats_generic(out)
            assert mean_b == pytest.approx(mean_a, rel=1e-9, abs=1e-9)
            assert var_b == pytest.approx(var_a, rel=1e-9)


class TestSensorSpec:
    def test_eta_from_length(self):
        spec = SensorSpec(phi=0.0, sensor_length=2.0, alpha_loss=0.23)
        assert spec.eta_value == pytest.approx(efficiency(0.23, 2.0), rel=1e-14)

    def test_requires_one_loss_description(self):
        with pytest.raises(DomainError):
            SensorSpec(phi=0.0)
        with pytest.raises(DomainError):
            SensorSpec(phi=0.0, eta=0.5, sensor_length=1.0, alpha_loss=0.2)

    def test_eta_range(self):
        with pytest.raises(DomainError):
            SensorSpec(phi=0.0, eta=1.5)
        with pytest.raises(DomainError):
            SensorSpec(phi=0.0, eta=0.0)

    def test_pump_flux_needs_frequency(self):
        spec = SensorSpec(phi=0.0, eta=1.0, alpha_l_power=1e-3)
        with pytest.raises(DomainError):
            spec.pump_flux
        with_freq = SensorSpec(phi=0.0, eta=1.0, alpha_l_power=1e-3, omega_p=1.2e15)
        assert with_freq.pump_flux > 0


class TestMziTransform:
    def test_balanced_output_port(self):
        state = mzi_input_state(3.0)
        out = mzi_transform(state, spec_at(phi=0.0, alpha_c=3.0))
        assert out.port_photons(0) == pytest.approx(9.0, rel=1e-12)
        assert out.port_photons(1) == pytest.approx(0.0, abs=1e-20)

    def test_pi_phase_swaps_ports(self):
        state = mzi_input_state(3.0)
        out = mzi_transform(state, spec_at(phi=math.pi, alpha_c=3.0))
        assert out.port_photons(0) == pytest.approx(0.0, abs=1e-18)
        assert out.port_photons(1) == pytest.approx(9.0, rel=1e-12)

    def test_vacuum_stays_vacuum(self):
        state = mzi_input_state(0.0)
        for eta, phi in ((1.0, 0.4), (0.3, 2.2)):
            out = mzi_transform(state, spec_at(phi=phi, alpha_c=0.0, eta=eta))
            assert out.total_photons() == pytest.approx(0.0, abs=1e-20)

    def test_photon_conservation_lossless(self, rates):
        moments = output_moments(rates, inj(rates, 0.9))
        state = mzi_input_state(1e4, moments)
        total_in = 1e4**2 + moments.n_s + moments.n_i
        for phi in np.linspace(0.0, 2 * math.pi, 9):
            out = mzi_transform(state, spec_at(phi=phi, alpha_c=1e4))
            assert out.total_photons() == pytest.approx(total_in, rel=1e-9)


class TestIntensityDifference:
    def test_vacuum(self):
        out = mzi_transform(mzi_input_state(0.0), spec_at(alpha_c=0.0, eta=0.8))
        mean, var = intensity_difference_stats(out)
        assert mean == 0.0
        assert var == pytest.approx(0.0, abs=1e-20)

    def test_coherent_shot_noise(self):
        """Balanced coherent interferometer: Var ID = |alpha_c|^2 at phi = pi/2."""
        out = mzi_transform(mzi_input_state(40.0), spec_at(alpha_c=40.0))
        mean, var = intensity_difference_stats(out)
        assert mean == pytest.approx(0.0, abs=1e-8)
        assert var == pytest.approx(40.0**2, rel=1e-12)

    def test_mean_follows_cosine(self, rates):
        moments = output_moments(rates, inj(rates, 0.9))
        flux = 2 * photon_flux(rates, inj(rates, 0.9))
        state = mzi_input_state(1e3, moments)
        for phi in (0.0, 0.8, 2.0):
            out = mzi_transform(state, spec_at(phi=phi, alpha_c=1e3, eta=0.6))
            mean, _ = intensity_difference_stats(out)
            assert mean == pytest.approx(0.6 * (1e6 - flux) * math.cos(phi), rel=1e-9)


class TestCoherentSensitivity:
    def test_reference_value(self):
        assert phase_sensitivity_coherent(spec_at(alpha_c=1e5)) == pytest.approx(1e-5, rel=1e-12)

    def test_efficiency_scaling(self):
        quarter = phase_sensitivity_coherent(spec_at(alpha_c=1e5, eta=0.25))
        assert quarter == pytest.approx(2e-5, rel=1e-12)

    def test_matches_numeric_pipeline(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            spec = spec_at(alpha_c=10 ** rng.uniform(2, 6), eta=rng.uniform(0.1, 1.0))
            report = phase_sensitivity_numeric(spec, squeezed_port=None)
            assert report.dphi == pytest.approx(phase_sensitivity_coherent(spec), rel=1e-9)

    def test_rejects_zero_amplitude(self):
        with pytest.raises(DomainError):
            phase_sensitivity_coherent(spec_at(alpha_c=0.0))


class TestNumericSensitivity:
    def test_coherent_point(self):
        report = phase_sensitivity_numeric(spec_at(alpha_c=10.0))
        assert report.dphi == pytest.approx(0.1, rel=1e-9)

    def test_vacuum_pair_port_penalty(self, rates):
        """An empty pair port still injects its two-band vacuum: dphi = sqrt(2)/alpha_c."""
        moments = output_moments(rates, inj(rates, 0.0))
        report = phase_sensitivity_numeric(spec_at(alpha_c=1e4), moments)
        assert report.dphi == pytest.approx(math.sqrt(2) / 1e4, rel=1e-9)

    def test_matches_closed_form_grid(self, rates):
        worst = 0.0
        for sigma_n in np.linspace(0.0, 0.99, 5):
            injection = inj(rates, sigma_n)
            moments = output_moments(rates, injection)
            for eta in (0.1, 0.55, 1.0):
                spec = spec_at(alpha_c=1e5, eta=eta)
                numeric = phase_sensitivity_numeric(spec, moments).dphi
                closed = phase_sensitivity_squeezed(spec, rates, injection)
                worst = max(worst, abs(numeric - closed) / closed)
        assert worst < 1e-6

    def test_pole_at_zero_slope(self):
        with pytest.raises(PoleError):
            phase_sensitivity_numeric(spec_at(phi=0.0, alpha_c=100.0))
        with pytest.raises(PoleError):  # sin(float pi) = 1.2e-16: below the relative rule
            phase_sensitivity_numeric(spec_at(phi=math.pi, alpha_c=100.0))

    @settings(max_examples=200, deadline=None)
    @given(alpha_c=st.floats(1e2, 1e6), eta=st.floats(0.05, 1.0),
           sigma_n=st.floats(0.0, 0.999, exclude_max=True), phi=st.floats(-math.pi, 2 * math.pi),
           seed=st.none() | st.complex_numbers(max_magnitude=1e4))
    def test_analytic_slope_matches_central_difference(self, rates, alpha_c, eta, sigma_n,
                                                       phi, seed):
        seeds = None if seed is None else SeedAmplitudes(alpha_s=seed)
        moments = output_moments(rates, inj(rates, sigma_n), seeds=seeds)
        spec = spec_at(phi=phi, alpha_c=alpha_c, eta=eta)
        state = mzi_input_state(alpha_c, moments)

        def mean_at(angle):
            return intensity_difference_stats(mzi_transform(state, replace(spec, phi=angle)))[0]

        step = 1e-5
        central = (mean_at(phi + step) - mean_at(phi - step)) / (2 * step)
        # The difference loses about 1e-16 * eta * N / step to cancellation
        # (N the input photons), so slopes near zero are left out.
        assume(abs(central) >= 1e-3 * eta * state.total_photons())
        report = phase_sensitivity_numeric(spec, moments)
        slope = math.sqrt(report.var_id) / report.dphi
        assert slope == pytest.approx(abs(central), rel=1e-6)

    def test_report_fields(self, rates):
        moments = output_moments(rates, inj(rates, 0.9))
        report = phase_sensitivity_numeric(spec_at(alpha_c=1e5), moments)
        assert report.var_id > 0
        assert report.snl > 0
        assert report.improvement == pytest.approx(
            phase_sensitivity_coherent(spec_at(alpha_c=1e5)) / report.dphi, rel=1e-12)

    def test_misaligned_squeeze_phase_degrades(self, rates):
        """Rotating the pair phase by pi/2 aligns the anti-squeezing with phi = pi/2."""
        moments = output_moments(rates, inj(rates, 0.9))
        aligned = phase_sensitivity_numeric(
            spec_at(alpha_c=1e5), moments).dphi
        misaligned_state = mzi_input_state(1e5, moments, squeeze_phase=math.pi / 2)
        out = mzi_transform(misaligned_state, spec_at(alpha_c=1e5))
        _, var_mis = intensity_difference_stats(out)
        out_aligned = mzi_transform(mzi_input_state(1e5, moments), spec_at(alpha_c=1e5))
        _, var_aligned = intensity_difference_stats(out_aligned)
        assert var_mis > var_aligned
        assert math.sqrt(var_mis) / math.sqrt(var_aligned) > 10
        assert aligned < 1e-5


class TestClosedFormSensitivity:
    def test_vacuum_limit(self, rates):
        value = phase_sensitivity_squeezed(spec_at(alpha_c=1e5), rates, inj(rates, 0.0))
        assert value == pytest.approx(math.sqrt(2) / 1e5, rel=1e-12)

    def test_matches_independent_transcription(self, rates):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sigma_n = rng.uniform(0, 0.99)
            eta = rng.uniform(0.1, 1.0)
            alpha_c = 10 ** rng.uniform(3, 6)
            injection = inj(rates, sigma_n)
            expected = closed_form_squeezed(rates.kappa, rates.gamma,
                                            injection.sigma_mag, eta, alpha_c)
            value = phase_sensitivity_squeezed(spec_at(alpha_c=alpha_c, eta=eta),
                                               rates, injection)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_lossless_asymptotic_form(self):
        """eta=1, gamma=0, large alpha_c: dphi ~ (sqrt(2)/alpha_c)(k-s)/(k+s)."""
        rates = CavityRates(kappa=1e9, gamma=0.0)
        for sigma_n in (0.3, 0.6, 0.9):
            injection = inj(rates, sigma_n)
            sigma = injection.sigma_mag
            value = phase_sensitivity_squeezed(spec_at(alpha_c=1e6), rates, injection)
            approx = (math.sqrt(2) / 1e6) * (1e9 - sigma) / (1e9 + sigma)
            assert value == pytest.approx(approx, rel=0.01)

    def test_threshold_guard(self, rates):
        with pytest.raises(ThresholdError):
            phase_sensitivity_squeezed(spec_at(), rates,
                                       Injection(sigma_mag=rates.gamma_total,
                                                 sigma_th=rates.gamma_total))

    def test_pole_divergence_bracketing(self, rates):
        injection = inj(rates, 0.99895)
        pole = pole_coherent_amplitude(rates, injection)
        far = phase_sensitivity_squeezed(spec_at(alpha_c=10 * pole), rates, injection)
        for side in (1 - 1e-3, 1 + 1e-3):
            near = phase_sensitivity_squeezed(spec_at(alpha_c=side * pole), rates, injection)
            assert near > 1e3 * far
        with pytest.raises(PoleError):
            phase_sensitivity_squeezed(spec_at(alpha_c=pole), rates, injection)


class TestShotNoiseLimit:
    def test_coherent_only(self):
        spec = spec_at(alpha_c=1e4)
        out = mzi_transform(mzi_input_state(1e4), spec)
        assert shot_noise_limit(spec, out) == pytest.approx(1e-4, rel=1e-12)

    def test_pump_dominated(self, rates, geometry):
        omega_p = geometry.pump_frequency()
        spec = SensorSpec(phi=HALF_PI, alpha_c=1.0, eta=1.0,
                          alpha_l_power=14.12e-3, omega_p=omega_p)
        out = mzi_transform(mzi_input_state(1.0), spec)
        assert shot_noise_limit(spec, out) == pytest.approx(
            1.0 / math.sqrt(spec.pump_flux), rel=1e-6)

    def test_zero_budget_rejected(self):
        spec = spec_at(alpha_c=0.0)
        out = mzi_transform(mzi_input_state(0.0), spec)
        with pytest.raises(DomainError):
            shot_noise_limit(spec, out)


class TestImprovementFactor:
    def test_vacuum_port_penalty(self, rates):
        value = improvement_factor(spec_at(alpha_c=1e5), rates, inj(rates, 0.0))
        assert value == pytest.approx(1 / math.sqrt(2), rel=1e-9)

    def test_monotone_in_decay_ratio(self, rates):
        previous = 0.0
        for ratio in (10.0, 31.5, 100.0, 1000.0):
            ring = CavityRates(kappa=rates.kappa, gamma=rates.kappa / ratio)
            value = improvement_factor(spec_at(alpha_c=1e5), ring,
                                       Injection.from_sigma_n(0.99895, ring))
            assert value > previous
            previous = value
        assert decay_ratio(CavityRates(kappa=10.0, gamma=2.0)) == 5.0

    def test_long_sensor_gives_no_advantage(self, rates):
        length = 3 * critical_length(0.23)
        spec = SensorSpec(phi=HALF_PI, alpha_c=1e5, sensor_length=length, alpha_loss=0.23)
        value = improvement_factor(spec, rates, inj(rates, 0.99895))
        assert value == pytest.approx(1.0, abs=0.05)

    def test_sensitivities_improve_with_efficiency(self, rates):
        """Both dphi_c and dphi_s are non-increasing as eta rises."""
        injection = inj(rates, 0.9)
        etas = np.linspace(0.1, 1.0, 8)
        coherent = [phase_sensitivity_coherent(spec_at(eta=e)) for e in etas]
        squeezed = [phase_sensitivity_squeezed(spec_at(eta=e), rates, injection) for e in etas]
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


class TestSensitivityVsPhase:
    def test_beats_shot_noise_limit(self, rates):
        """At the working point the squeezed minimum sits well below the SNL.

        The margin the closed-form sensitivities give at sigma_n = 0.99895,
        alpha_c = 1e5 is about 4x.
        """
        injection = inj(rates, 0.99895)
        moments = output_moments(rates, injection)
        spec = spec_at(alpha_c=1e5)
        report = phase_sensitivity_numeric(spec, moments)
        snl_plain = 1.0 / math.sqrt(1e10 + moments.n_s + moments.n_i)
        assert report.dphi < snl_plain / 2
        assert report.dphi < phase_sensitivity_coherent(spec)
