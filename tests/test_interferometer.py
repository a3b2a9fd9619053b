import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mzi_oracle as oracle
from mzi_oracle import gaussian_moment, intensity_difference_stats_generic
from ringmzi import (REFERENCE_GEOMETRY, CavityRates, DomainError, GaussianPortState,
                     Injection, OutputMoments, PoleError, SensorSpec, ThresholdError,
                     coherent_sensitivity, critical_length, decay_ratio, derive_rates,
                     efficiency, improvement_factor, intensity_difference_stats,
                     mzi_input_state, mzi_transform, output_moments, phase_readout,
                     phase_sensitivity_coherent, phase_sensitivity_numeric,
                     phase_sensitivity_squeezed, photon_flux, pole_coherent_amplitude,
                     SeedAmplitudes, shot_noise_limit, squeezed_sensitivity, variance_extrema)

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

    @pytest.mark.parametrize("fields", [dict(phi=math.nan, alpha_c=math.nan, eta=1.0),
                                        dict(phi=0.0, alpha_c=math.inf, eta=1.0),
                                        dict(phi=0.0, sensor_length=math.inf, alpha_loss=0.2),
                                        dict(phi=0.0, eta=1.0, alpha_l_power=math.nan)])
    def test_rejects_non_finite_fields(self, fields):
        with pytest.raises(DomainError, match="must be finite"):
            SensorSpec(**fields)

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


def bits(value):
    """Bytes of a float array: equal only when every element is bit-identical."""
    return np.asarray(value, dtype=float).tobytes()


def ring_rates(cross_coupling, alpha_loss, radius):
    geometry = replace(REFERENCE_GEOMETRY, cross_coupling=cross_coupling, alpha_loss=alpha_loss,
                       ring_length=2 * math.pi * radius)
    return derive_rates(geometry)


# Phases on and next to the poles of the readout (0, pi and float pi) besides random ones.
SPECIAL_PHASES = [0.0, math.pi, 2 * math.pi, HALF_PI, math.nextafter(math.pi, 0.0),
                  math.nextafter(0.0, 1.0), 1e-9, math.pi - 1e-9, -HALF_PI]
GEOMETRIES = dict(cross_coupling=st.floats(1e-3, 0.2), alpha_loss=st.floats(0.01, 20.0),
                  radius=st.floats(20e-6, 1e-3))


class TestArrayPath:
    """The array path against the per-point pipeline of tests/mzi_oracle.py, bit for bit."""

    @staticmethod
    def oracle_row(spec, moments):
        """Readout fields of one point, or the exception the point raised."""
        try:
            point = oracle.point_readout(spec, moments)
        except (PoleError, DomainError) as exc:
            return type(exc)
        return point

    @settings(max_examples=150, deadline=None)
    @given(**GEOMETRIES, sigma_n=st.floats(0.0, 0.9999), eta=st.floats(1e-3, 1.0),
           alpha_c=st.floats(0.0, 1e6), on_pole=st.booleans(), power=st.floats(0.0, 1e-2),
           phases=st.lists(st.sampled_from(SPECIAL_PHASES) | st.floats(-7.0, 7.0),
                           min_size=1, max_size=6),
           seed=st.none() | st.complex_numbers(max_magnitude=1e4))
    def test_phase_batch_equals_pointwise(self, cross_coupling, alpha_loss, radius, sigma_n,
                                          eta, alpha_c, on_pole, power, phases, seed):
        rates = ring_rates(cross_coupling, alpha_loss, radius)
        injection = inj(rates, sigma_n)
        seeds = None if seed is None else SeedAmplitudes(alpha_s=seed)
        moments = output_moments(rates, injection, seeds=seeds)
        if on_pole:  # phi = pi/2 is then a pole of the squeezed readout
            alpha_c = pole_coherent_amplitude(rates, injection)
        base = spec_at(alpha_c=alpha_c, eta=eta, alpha_l_power=power, omega_p=1.2e15)
        readout = phase_readout(alpha_c, np.array(phases), eta, moments)
        snl = shot_noise_limit(base, readout.output)
        for k, phi in enumerate(phases):
            point = self.oracle_row(replace(base, phi=phi), moments)
            assert readout.pole[k] == (point is PoleError)
            assert readout.domain[k] == (point is DomainError)
            assert bits(readout.mean_id[k]) == bits(oracle_stats(base, phi, moments)[0])
            if isinstance(point, oracle.PointReadout):
                assert bits(readout.var_id[k]) == bits(point.var_id)
                assert bits(readout.slope[k]) == bits(point.slope)
                assert bits(readout.dphi[k]) == bits(point.dphi)
                assert bits(snl[k]) == bits(point.snl)
            else:
                assert math.isinf(readout.dphi[k])

    @settings(max_examples=150, deadline=None)
    @given(**GEOMETRIES, sigma_n=st.floats(0.0, 0.9999), eta=st.floats(1e-3, 1.0),
           phi=st.sampled_from(SPECIAL_PHASES) | st.floats(-7.0, 7.0),
           amplitudes=st.lists(st.just(0.0) | st.floats(1e-3, 1e6), min_size=1, max_size=6),
           near_pole=st.sampled_from([0.0, 1.0, 1 - 1e-10, 1 + 1e-10, 1 + 1e-8]),
           seed=st.none() | st.complex_numbers(max_magnitude=1e4))
    def test_probe_batch_equals_pointwise(self, cross_coupling, alpha_loss, radius, sigma_n,
                                          eta, phi, amplitudes, near_pole, seed):
        """A batch over alpha_c, with points on and next to the pole a^2 = 2 n_s."""
        rates = ring_rates(cross_coupling, alpha_loss, radius)
        injection = inj(rates, sigma_n)
        seeds = None if seed is None else SeedAmplitudes(alpha_s=seed)
        moments = output_moments(rates, injection, seeds=seeds)
        amplitudes = amplitudes + [near_pole * pole_coherent_amplitude(rates, injection)]
        alpha_c = np.array(amplitudes)
        readout = phase_readout(alpha_c, phi, eta, moments)
        closed, pole = squeezed_sensitivity(alpha_c, eta, rates, injection)
        coherent = coherent_sensitivity(alpha_c, eta)
        snl = shot_noise_limit(spec_at(phi=phi, eta=eta), readout.output)
        for k, a_c in enumerate(amplitudes):
            spec = spec_at(phi=phi, alpha_c=a_c, eta=eta)
            point = self.oracle_row(spec, moments)
            assert readout.pole[k] == (point is PoleError)
            assert readout.domain[k] == (point is DomainError)
            if isinstance(point, oracle.PointReadout):
                assert bits([readout.mean_id[k], readout.var_id[k], readout.slope[k],
                             readout.dphi[k], snl[k]]) == bits([point.mean_id, point.var_id,
                                                                point.slope, point.dphi,
                                                                point.snl])
            try:
                expected = oracle.phase_sensitivity_squeezed(spec, rates, injection)
            except PoleError:
                assert pole[k] and math.isinf(closed[k])
            else:
                assert not pole[k] and bits(closed[k]) == bits(expected)
            if a_c > 0:
                assert bits(coherent[k]) == bits(oracle.phase_sensitivity_coherent(spec))
            # The scalar functions are the same path on one point.
            if pole[k]:
                with pytest.raises(PoleError):
                    phase_sensitivity_squeezed(spec, rates, injection)
            else:
                assert bits(phase_sensitivity_squeezed(spec, rates, injection)) == bits(closed[k])

    @settings(max_examples=100, deadline=None)
    @given(n_pair=st.floats(0.0, 1e8), excess=st.floats(0.5, 2.0), phi=st.floats(-7.0, 7.0),
           eta=st.floats(1e-3, 1.0))
    def test_domain_mask_equals_state_exceptions(self, n_pair, excess, phi, eta):
        """An anomalous moment beyond the bound, or a probe SensorSpec rejects, is a domain row."""
        bound = (2 * n_pair) * (2 * n_pair + 2)
        port = OutputMoments(n_s=n_pair, n_i=n_pair, m_si=excess * math.sqrt(bound) / 2)
        amplitudes = [1e4, 0.0, math.nan, math.inf, -1.0]
        readout = phase_readout(np.array(amplitudes), phi, eta, port)
        for k, a_c in enumerate(amplitudes):
            try:
                raised = self.oracle_row(spec_at(phi=phi, alpha_c=a_c, eta=eta), port)
            except DomainError:
                raised = DomainError
            assert readout.domain[k] == (raised is DomainError)
            assert readout.pole[k] == (raised is PoleError)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), size=st.integers(1, 5))
    def test_unphysical_mask_equals_constructor_exceptions(self, data, size):
        """The batched state checks raise, point by point, exactly where the mask is set."""
        def entries(shape, scale):
            values = st.sampled_from([0.0, -1e-3, -2e-9, math.nan, math.inf]) | st.floats(
                -scale, scale)
            real, imag = (np.array(data.draw(st.lists(values, min_size=int(np.prod(shape)),
                                                      max_size=int(np.prod(shape)))))
                          for _ in range(2))
            return (real + 1j * np.where(np.isfinite(imag), imag, 0.0)).reshape(shape)

        fields = dict(mean=entries((size, 2), 1e3), number=entries((size, 2, 2), 10.0),
                      anomalous=entries((size, 2, 2), 10.0), comm=entries((size, 2, 2), 2.0))
        mask = GaussianPortState(**fields).unphysical()
        for k in range(size):
            try:
                oracle.GaussianPortState(**{name: value[k] for name, value in fields.items()})
            except DomainError:
                assert mask[k]
            else:
                assert not mask[k]
                GaussianPortState(**{name: value[k] for name, value in fields.items()})

    @settings(max_examples=200, deadline=None)
    @given(**GEOMETRIES, sigma_n=st.floats(0.0, 0.9999), eta=st.floats(1e-3, 1.0),
           alpha_c=st.floats(1.0, 1e6), phi=st.floats(-7.0, 7.0), power=st.floats(0.0, 1.0))
    def test_photon_conservation(self, cross_coupling, alpha_loss, radius, sigma_n, eta,
                                 alpha_c, phi, power):
        """The signal map is sqrt(eta) times a unitary and the loss adds no photons."""
        rates = ring_rates(cross_coupling, alpha_loss, radius)
        moments = output_moments(rates, inj(rates, sigma_n))
        spec = spec_at(phi=phi, alpha_c=alpha_c, eta=eta, alpha_l_power=power, omega_p=1.2e15)
        readout = phase_readout(np.array([alpha_c]), phi, eta, moments)
        expected = 1 / math.sqrt(eta * (alpha_c**2 + 2 * moments.n_s) + spec.pump_flux)
        assert shot_noise_limit(spec, readout.output)[0] == pytest.approx(expected, rel=1e-12)


def oracle_stats(spec, phi, moments):
    state = oracle.mzi_input_state(spec.alpha_c, moments)
    return oracle.intensity_difference_stats(oracle.mzi_transform(state, replace(spec, phi=phi)))
