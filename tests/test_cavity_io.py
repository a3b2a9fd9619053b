import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ringmzi import (REFERENCE_GEOMETRY, CavityRates, Detunings, Injection,
                     ThresholdError, anomalous_moment, derive_rates, jsi, photon_flux,
                     quadrature_variance, squeezing_parameter, to_db, variance_extrema)
import exact_moments
from scattering_oracle import drift_matrix, output_transfer, transfer_moments

SIGMA_N_GRID = np.linspace(0.0, 0.99, 10)
DETUNING_GRID = np.linspace(-2.0, 2.0, 10)  # units of Gamma


def inj(rates, sigma_n, phi=0.0):
    return Injection(sigma_n, phi_sigma=phi)


class TestDriftMatrix:
    def test_uncoupled_eigenvalues(self, rates):
        detunings = Detunings(delta_s=3e8, delta_i=-1e8)
        matrix = drift_matrix(rates, inj(rates, 0.0), detunings)
        eigen = sorted(np.linalg.eigvals(matrix), key=lambda z: (z.imag, z.real))
        expected = sorted([1j * 3e8 - rates.gamma / 2, -1j * 3e8 - rates.gamma / 2,
                           1j * -1e8 - rates.gamma / 2, -1j * -1e8 - rates.gamma / 2],
                          key=lambda z: (z.imag, z.real))
        assert np.allclose(eigen, expected, rtol=1e-9)

    def test_coupling_entries(self, rates):
        matrix = drift_matrix(rates, inj(rates, 0.5, phi=0.4))
        sigma = 0.5 * rates.gamma_total * cmath.exp(0.4j)
        assert matrix[0, 3] == pytest.approx(sigma / 2, rel=1e-12)
        assert matrix[1, 2] == pytest.approx(np.conj(sigma) / 2, rel=1e-12)

    def test_trace(self, rates):
        matrix = drift_matrix(rates, inj(rates, 0.7), Detunings(delta_s=1e8, delta_i=2e8))
        assert np.trace(matrix) == pytest.approx(-2 * rates.gamma, rel=1e-12)


class TestOutputTransfer:
    def test_lossless_passive_is_allpass(self):
        rates = CavityRates(kappa=1e9, gamma=0.0)
        injection = inj(rates, 0.0)
        for delta in (-2e9, 0.0, 5e8):
            tm = output_transfer(rates, injection, Detunings(delta_s=delta, delta_i=delta))
            assert np.allclose(tm.s_in @ tm.s_in.conj().T, np.eye(4), atol=1e-12)
            assert np.allclose(tm.s_gamma, 0.0)

    def test_critical_coupling_extinction(self):
        rates = CavityRates(kappa=1e9, gamma=1e9)
        tm = output_transfer(rates, inj(rates, 0.0))
        assert np.allclose(np.diag(tm.s_in), 0.0, atol=1e-12)

    def test_threshold_is_singular(self, rates):
        with pytest.raises(ThresholdError):
            output_transfer(rates, inj(rates, 1.0))

    def test_numeric_matches_closed_forms(self, rates):
        """Scattering moments equal the closed-form spectral densities."""
        gamma_total = rates.gamma_total
        worst = 0.0
        for sigma_n in SIGMA_N_GRID:
            injection = inj(rates, sigma_n, phi=0.37)
            for delta in DETUNING_GRID:
                detunings = Detunings(delta_s=delta * gamma_total,
                                      delta_i=-0.6 * delta * gamma_total)
                n_s, n_i, m_si = transfer_moments(
                    output_transfer(rates, injection, detunings))
                n_closed = photon_flux(rates, injection, detunings)
                m_closed = anomalous_moment(rates, injection, detunings)
                scale = max(abs(n_closed), 1e-12)
                worst = max(worst, abs(n_s - n_closed) / scale,
                            abs(n_i - n_closed) / scale,
                            abs(m_si - m_closed) / max(abs(m_closed), 1e-12))
        assert worst < 1e-9


class TestPhotonFlux:
    def test_vacuum(self, rates):
        assert photon_flux(rates, inj(rates, 0.0)) == 0.0

    def test_reference_operating_point(self, rates):
        assert photon_flux(rates, inj(rates, 0.99895)) == pytest.approx(8.78e5, rel=1e-3)

    def test_detuned_against_expansion(self, rates):
        """Independent expansion of the detuned denominator."""
        gamma_total = rates.gamma_total
        injection = inj(rates, 0.8)
        detunings = Detunings(delta_s=gamma_total, delta_i=gamma_total)
        sigma = 0.8 * gamma_total
        xi = ((4 * gamma_total**2 - sigma**2) ** 2
              + 8 * gamma_total**4 + gamma_total**4)
        expected = 4 * sigma**2 * rates.kappa * gamma_total / (xi - 2 * sigma**2 * gamma_total**2)
        assert photon_flux(rates, injection, detunings) == pytest.approx(expected, rel=1e-12)

    def test_threshold_guard(self, rates):
        with pytest.raises(ThresholdError):
            photon_flux(rates, inj(rates, 1.0))


class TestAnomalousMoment:
    def test_vacuum(self, rates):
        assert anomalous_moment(rates, inj(rates, 0.0)) == 0.0

    def test_zero_detuning_closed_form(self, rates):
        gamma_total = rates.gamma_total
        injection = inj(rates, 0.6)
        sigma = 0.6 * gamma_total
        expected = 2 * rates.kappa * sigma * (gamma_total**2 + sigma**2) / (
            gamma_total**2 - sigma**2) ** 2
        value = anomalous_moment(rates, injection)
        assert value.imag == pytest.approx(0.0, abs=1e-12 * abs(value))
        assert value.real == pytest.approx(expected, rel=1e-12)
        assert value.real > 0

    def test_pair_correlation_identity(self, rates):
        """|m_si|^2 = n_s^2 + n_s*kappa/Gamma at zero detuning.

        Saturating the Gaussian bound n_s*(n_s+1) therefore requires a
        lossless ring (kappa = Gamma).
        """
        for sigma_n in (0.3, 0.9, 0.99895):
            injection = inj(rates, sigma_n)
            n_s = photon_flux(rates, injection)
            m2 = abs(anomalous_moment(rates, injection)) ** 2
            expected = n_s**2 + n_s * rates.kappa / rates.gamma_total
            assert m2 == pytest.approx(expected, rel=1e-9)
            assert m2 <= n_s * (n_s + 1) * (1 + 1e-12)

    def test_saturation_when_lossless(self):
        rates = CavityRates(kappa=1e9, gamma=0.0)
        injection = inj(rates, 0.9)
        n_s = photon_flux(rates, injection)
        m2 = abs(anomalous_moment(rates, injection)) ** 2
        assert m2 == pytest.approx(n_s * (n_s + 1), rel=1e-9)

    def test_drive_phase_carried(self, rates):
        aligned = anomalous_moment(rates, inj(rates, 0.5))
        rotated = anomalous_moment(rates, inj(rates, 0.5, phi=0.8))
        assert rotated == pytest.approx(aligned * cmath.exp(1j * 0.8), rel=1e-12)


class TestJsi:
    def test_peak_value(self, rates):
        assert jsi(rates, inj(rates, 0.995), 0.0, 0.0) == pytest.approx(2.98e9, rel=0.02)

    def test_vacuum(self, rates):
        grid = np.linspace(-1e9, 1e9, 5)
        assert np.all(jsi(rates, inj(rates, 0.0), grid, grid) == 0.0)

    def test_anticorrelated_ridge(self, rates):
        injection = inj(rates, 0.95)
        delta = rates.gamma_total
        assert jsi(rates, injection, delta, -delta) >= jsi(rates, injection, delta, delta)

    def test_symmetric_under_mode_swap(self, rates):
        injection = inj(rates, 0.9)
        rng = np.random.default_rng(4)
        for _ in range(20):
            dws, dwi = rng.uniform(-3, 3, size=2) * rates.gamma_total
            assert jsi(rates, injection, dws, dwi) == pytest.approx(
                jsi(rates, injection, dwi, dws), rel=1e-12)

    def test_equals_moment_combination(self, rates):
        """Phi = n_s^2 + |m_si|^2 at detunings (+dw_s, -dw_i)."""
        injection = inj(rates, 0.9)
        rng = np.random.default_rng(9)
        for _ in range(20):
            dws, dwi = rng.uniform(-2, 2, size=2) * rates.gamma_total
            detunings = Detunings(delta_s=dws, delta_i=-dwi)
            expected = (photon_flux(rates, injection, detunings) ** 2
                        + abs(anomalous_moment(rates, injection, detunings)) ** 2)
            assert jsi(rates, injection, dws, dwi) == pytest.approx(expected, rel=1e-9)

    def test_broadcasts(self, rates):
        grid = np.linspace(-1e9, 1e9, 7)
        values = jsi(rates, inj(rates, 0.9), grid[:, None], grid[None, :])
        assert values.shape == (7, 7)


class TestQuadratureVariance:
    def test_vacuum_flat(self, rates):
        for phi in np.linspace(0, math.pi, 7):
            assert quadrature_variance(rates, inj(rates, 0.0), phi) == pytest.approx(1.0)

    @pytest.mark.parametrize("sigma_n,db_sq,db_anti", [
        (0.95, -15.0, 31.68),
        (0.99895, -15.0, 65.46),
    ])
    def test_reported_decibels(self, rates, sigma_n, db_sq, db_anti):
        v_sq, v_anti = variance_extrema(rates, inj(rates, sigma_n))
        assert to_db(v_sq) == pytest.approx(db_sq, abs=0.2)
        assert to_db(v_anti) == pytest.approx(db_anti, abs=0.1)

    def test_extrema_closed_forms(self, rates):
        """V_sq = 1 - 4ks/(G+s)^2 and V_anti = 1 + 4ks/(G-s)^2."""
        gamma_total = rates.gamma_total
        for sigma_n in (0.1, 0.5, 0.9, 0.99):
            injection = inj(rates, sigma_n)
            sigma = sigma_n * gamma_total
            v_sq, v_anti = variance_extrema(rates, injection)
            assert v_sq == pytest.approx(
                1 - 4 * rates.kappa * sigma / (gamma_total + sigma) ** 2, rel=1e-12)
            assert v_anti == pytest.approx(
                1 + 4 * rates.kappa * sigma / (gamma_total - sigma) ** 2, rel=1e-12)

    def test_extrema_are_the_general_variance(self, rates):
        injection = inj(rates, 0.9)
        v_sq, v_anti = variance_extrema(rates, injection)
        assert v_sq == quadrature_variance(rates, injection, math.pi / 2)
        assert v_anti == quadrature_variance(rates, injection, 0.0)

    def test_drive_phase_shifts_quadrature(self, rates):
        """Rotating the drive by phi_sigma shifts the noise ellipse by phi_sigma/2."""
        for phi in np.linspace(0, math.pi, 7):
            rotated = quadrature_variance(rates, inj(rates, 0.9, phi=0.6), phi)
            aligned = quadrature_variance(rates, inj(rates, 0.9), phi + 0.3)
            assert rotated == pytest.approx(aligned, rel=1e-12)

    def test_monotonic_in_injection(self, rates):
        values = [variance_extrema(rates, inj(rates, s)) for s in np.linspace(0.05, 0.99, 12)]
        squeezed = [v[0] for v in values]
        anti = [v[1] for v in values]
        assert all(a > b for a, b in zip(squeezed, squeezed[1:]))
        assert all(a < b for a, b in zip(anti, anti[1:]))

    def test_uncertainty_product(self, rates):
        for sigma_n in np.linspace(0.1, 0.999, 15):
            v_sq, v_anti = variance_extrema(rates, inj(rates, sigma_n))
            assert v_sq * v_anti >= 1.0 - 1e-12

    def test_lossless_limits(self):
        rates = CavityRates(kappa=1e9, gamma=0.0)
        v_sq, v_anti = variance_extrema(rates, inj(rates, 0.9999))
        assert v_sq * v_anti == pytest.approx(1.0, rel=1e-6)
        assert v_sq < 1e-7
        assert v_anti > 1e7

    def test_critical_coupling_floor(self):
        rates = CavityRates(kappa=1e9, gamma=1e9)
        v_sq, _ = variance_extrema(rates, inj(rates, 0.9999))
        assert v_sq == pytest.approx(0.5, abs=1e-3)

    def test_coupling_regimes(self, geometry):
        """Squeezing improves with over-coupling; under-coupling stays near vacuum."""
        from ringmzi import derive_rates
        from dataclasses import replace
        variances = {}
        for label, alpha_loss in (("over", 0.23), ("critical", 7.28), ("under", 23.04)):
            rates = derive_rates(replace(geometry, alpha_loss=alpha_loss))
            variances[label] = variance_extrema(rates, inj(rates, 0.95))[0]
        assert variances["over"] < variances["critical"] < variances["under"]
        assert to_db(variances["under"]) > -3.0


class TestSqueezingParameter:
    def test_vacuum(self, rates):
        assert squeezing_parameter(rates, inj(rates, 0.0)) == 0.0

    def test_reference_value(self, rates):
        assert squeezing_parameter(rates, inj(rates, 0.99895)) == pytest.approx(7.54, abs=0.02)

    def test_inverse_identity(self, rates):
        """r = 1 exactly where the flux crosses sinh(1)^2."""
        target = math.sinh(1.0) ** 2

        def flux_gap(sigma_n):
            return photon_flux(rates, inj(rates, sigma_n)) - target

        sigma_n = brentq(flux_gap, 0.1, 0.99, xtol=1e-15)
        assert squeezing_parameter(rates, inj(rates, sigma_n)) == pytest.approx(1.0, rel=1e-9)


def _ring(cross_coupling, alpha_loss, radius):
    return derive_rates(replace(REFERENCE_GEOMETRY, cross_coupling=cross_coupling,
                                alpha_loss=alpha_loss, ring_length=2 * math.pi * radius))


RINGS = dict(cross_coupling=st.floats(1e-3, 0.2), alpha_loss=st.floats(0.01, 20.0),
             radius=st.floats(20e-6, 1e-3))
BELOW_THRESHOLD = st.floats(0.0, 1.0, exclude_max=True)
REFERENCE_RING = dict(cross_coupling=REFERENCE_GEOMETRY.cross_coupling,
                      alpha_loss=REFERENCE_GEOMETRY.alpha_loss,
                      radius=REFERENCE_GEOMETRY.ring_length / (2 * math.pi))


class TestRandomGeometryInvariants:
    """Below threshold every drive, however close to it, has finite moments."""

    @settings(max_examples=300, deadline=None)
    @given(**RINGS, sigma_n=BELOW_THRESHOLD, drive_phase=st.floats(-math.pi, math.pi),
           phi=st.floats(-math.pi, math.pi))
    @example(**REFERENCE_RING, sigma_n=1 - 1e-9, drive_phase=0.0, phi=0.0)
    def test_uncertainty_product(self, cross_coupling, alpha_loss, radius, sigma_n,
                                 drive_phase, phi):
        """V(phi) V(phi + pi/2) >= 1 within rounding, 16 eps (V(phi) + V(phi + pi/2))^2.

        Rounding of phi + phi_sigma/2 leaves each variance about eps |m_si| off,
        and the larger variance is about 4 |m_si|.
        """
        rates = _ring(cross_coupling, alpha_loss, radius)
        injection = inj(rates, sigma_n, phi=drive_phase)
        first, second = quadrature_variance(rates, injection, [phi, phi + math.pi / 2])
        eps = np.finfo(float).eps
        assert first * second >= 1.0 - 16 * eps * (first + second) ** 2

    @settings(max_examples=300, deadline=None)
    @given(**RINGS, sigma_n=BELOW_THRESHOLD, delta_s=st.floats(-1e3, 1e3),
           delta_i=st.floats(-1e3, 1e3))
    @example(**REFERENCE_RING, sigma_n=1 - 1e-9, delta_s=0.0, delta_i=0.0)
    @example(**REFERENCE_RING, sigma_n=0.9999999999999895, delta_s=0.0, delta_i=0.0)
    def test_photon_flux_nonnegative(self, cross_coupling, alpha_loss, radius, sigma_n,
                                     delta_s, delta_i):
        """0 <= n_s < inf at detunings up to 1000 Gamma on either mode."""
        rates = _ring(cross_coupling, alpha_loss, radius)
        detunings = Detunings(delta_s=delta_s * rates.gamma_total,
                              delta_i=delta_i * rates.gamma_total)
        assert 0.0 <= photon_flux(rates, inj(rates, sigma_n), detunings) < math.inf


# Relative error bound against exact_moments; the absolute term covers moments whose
# exact value lies below the normal floats, where s^2 underflows.
EXACT_REL, EXACT_ABS = 1e-13, 1e-290


def assert_exact(value, exact):
    assert abs(value - complex(exact)) <= EXACT_REL * abs(complex(exact)) + EXACT_ABS


class TestUnitsOfGamma:
    """n_s, m_si, V(phi) and the jsi against the Hz forms at 100 digits (tests/exact_moments.py),
    on rings from 1e-80 to 1e90 m: within 1e-13, up to sigma_n = 1 - 2^-53."""

    @settings(max_examples=300, deadline=None)
    @given(cross_coupling=st.floats(1e-3, 0.2), alpha_loss=st.floats(0.01, 20.0),
           log_length=st.floats(-80.0, 90.0),
           sigma_n=BELOW_THRESHOLD | st.sampled_from([1 - 1e-12, math.nextafter(1.0, 0.0)]),
           drive_phase=st.floats(-math.pi, math.pi),
           phi=st.floats(-math.pi, math.pi) | st.just(math.pi / 2),
           delta_s=st.floats(-1e3, 1e3), delta_i=st.floats(-1e3, 1e3))
    @example(cross_coupling=0.2, alpha_loss=0.01, log_length=-80.0, sigma_n=0.99,
             drive_phase=0.0, phi=math.pi / 2, delta_s=0.0, delta_i=0.0)
    # Close detunings near threshold: u - v formed from the rounded u and v is 2.2e-13 off.
    @example(cross_coupling=0.01, alpha_loss=0.23, log_length=-80.0, sigma_n=1 - 1e-12,
             drive_phase=0.0, phi=0.0, delta_s=3.54e-08, delta_i=3.54382e-08)
    @example(cross_coupling=0.01, alpha_loss=0.23, log_length=-80.0, sigma_n=1 - 1e-12,
             drive_phase=0.5, phi=math.pi / 2, delta_s=0.0, delta_i=0.0)
    @example(cross_coupling=0.01, alpha_loss=0.23, log_length=90.0, sigma_n=1 - 1e-12,
             drive_phase=0.0, phi=math.pi / 2, delta_s=0.3, delta_i=0.3)
    def test_matches_exact_moments(self, cross_coupling, alpha_loss, log_length, sigma_n,
                                   drive_phase, phi, delta_s, delta_i):
        """V is taken at a drive phase of 0: the phase enters it as cos^2(phi + phi_sigma/2),
        whose argument rounds, and near the squeezed quadrature V is ill-conditioned in it."""
        rates = derive_rates(replace(REFERENCE_GEOMETRY, cross_coupling=cross_coupling,
                                     alpha_loss=alpha_loss, ring_length=10.0**log_length))
        injection = inj(rates, sigma_n, phi=drive_phase)
        detunings = Detunings(delta_s=delta_s * rates.gamma_total,
                              delta_i=delta_i * rates.gamma_total)
        n_s, m_si = exact_moments.pair_moments(rates, injection, detunings.delta_s,
                                               detunings.delta_i)
        assert_exact(photon_flux(rates, injection, detunings), n_s)
        assert_exact(anomalous_moment(rates, injection, detunings), m_si)
        dws, dwi = detunings.delta_s, -detunings.delta_i
        assert_exact(jsi(rates, injection, dws, dwi),
                     exact_moments.jsi(rates, injection, dws, dwi))
        aligned = inj(rates, sigma_n)
        assert_exact(quadrature_variance(rates, aligned, phi),
                     exact_moments.variance(rates, aligned, phi))
