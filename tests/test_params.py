import cmath
import math

import numpy as np
import pytest

from ringmzi import (CavityRates, DomainError, Injection, REFERENCE_GEOMETRY, RingGeometry,
                     derive_rates, efficiency, fwm_gain, sigma_from_power, threshold_power)
from ringmzi.constants import C_VACUUM, HBAR, PLANCK_H

RING_LENGTH = 2 * math.pi * 220e-6


def make_geometry(**overrides):
    fields = dict(ring_length=RING_LENGTH, n_eff=1.801, n_g=2.10087, cross_coupling=0.01,
                  alpha_loss=0.23, n2=2.4e-19, a_eff=1.05564e-12, lambda_p=1550e-9)
    fields.update(overrides)
    return RingGeometry(**fields)


class TestConstants:
    def test_codata_values(self):
        assert C_VACUUM == 299792458.0
        assert PLANCK_H == 6.62607015e-34
        assert HBAR == pytest.approx(1.054571817e-34, rel=1e-9)


class TestDeriveRates:
    def test_reference_design_regression(self, rates):
        """kappa ~ 1208 MHz and gamma ~ 38.3 MHz for the reference ring."""
        assert rates.kappa == pytest.approx(1208e6, rel=0.01)
        assert rates.gamma == pytest.approx(38.3e6, rel=0.01)

    def test_no_coupling_no_loss(self):
        rates = derive_rates(make_geometry(cross_coupling=0.0, alpha_loss=0.0))
        assert rates.kappa == 0.0
        assert rates.gamma == 0.0

    def test_full_coupling(self):
        rates = derive_rates(make_geometry(cross_coupling=1.0))
        assert rates.kappa == pytest.approx(C_VACUUM / (1.801 * RING_LENGTH), rel=1e-14)

    def test_round_trip_and_transmission(self, rates):
        assert rates.t_round == pytest.approx(1.801 * RING_LENGTH / C_VACUUM, rel=1e-14)
        assert rates.t_trans == pytest.approx(0.99 * C_VACUUM / (1.801 * RING_LENGTH), rel=1e-14)

    def test_gamma_total_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            kappa, gamma = rng.uniform(0, 1e10, size=2)
            assert CavityRates(kappa=kappa, gamma=gamma).gamma_total == kappa + gamma

    def test_rates_scale_inversely_with_length(self):
        """kappa and gamma go as 1/L at fixed X and fixed alpha_loss*L."""
        base = derive_rates(make_geometry())
        for factor in np.linspace(0.5, 5.0, 10):
            scaled = derive_rates(make_geometry(ring_length=RING_LENGTH * factor,
                                                alpha_loss=0.23 / factor))
            assert scaled.kappa * factor == pytest.approx(base.kappa, rel=1e-12)
            assert scaled.gamma * factor == pytest.approx(base.gamma, rel=1e-12)

    def test_zero_length_rejected(self):
        with pytest.raises(DomainError):
            make_geometry(ring_length=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            CavityRates(kappa=-1.0, gamma=0.0)

    def test_geometry_range_checks(self):
        with pytest.raises(DomainError, match="cross_coupling"):
            make_geometry(cross_coupling=1.5)
        with pytest.raises(DomainError, match="alpha_loss"):
            make_geometry(alpha_loss=-1.0)


class TestEfficiency:
    def test_lossless(self):
        assert efficiency(0.0, 123.0) == 1.0

    def test_critical_length_value(self):
        assert efficiency(0.23, 2 / 0.23) == pytest.approx(math.exp(-2), rel=1e-14)

    def test_ring_pass(self):
        assert efficiency(0.23, RING_LENGTH) == pytest.approx(math.exp(-0.23 * RING_LENGTH),
                                                              rel=1e-14)

    def test_multiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            l1, l2 = rng.uniform(0, 10, size=2)
            product = efficiency(0.23, l1) * efficiency(0.23, l2)
            assert efficiency(0.23, l1 + l2) == pytest.approx(product, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            efficiency(-0.1, 1.0)
        with pytest.raises(DomainError):
            efficiency(0.1, -1.0)
        with pytest.raises(DomainError):
            efficiency(0.1, np.array([1.0, -1.0]))

    def test_array_is_math_exp_per_element(self):
        """An array of lengths gives the floats math.exp gives one by one, in its shape."""
        lengths = np.logspace(-3, 4, 2001)
        assert isinstance(efficiency(0.23, 1.0), float)
        assert efficiency(0.23, lengths).tolist() == [math.exp(-0.23 * length)
                                                      for length in lengths.tolist()]
        assert efficiency(0.23, lengths.reshape(3, 667)).shape == (3, 667)


class TestFwmGain:
    def test_reference_value(self, geometry):
        # independent evaluation of the degenerate gain formula
        omega_p = 2 * math.pi * C_VACUUM / 1550e-9
        v_g = C_VACUUM / 2.10087
        expected = HBAR * omega_p**2 * v_g**2 * 2.4e-19 / (C_VACUUM * 1.05564e-12 * RING_LENGTH)
        strength = fwm_gain(geometry)
        assert strength.gain == pytest.approx(expected, rel=1e-12)
        assert strength.gain == pytest.approx(1.5, rel=0.25)
        assert strength.gamma_nl == pytest.approx(omega_p * 2.4e-19 / (C_VACUUM * 1.05564e-12),
                                                  rel=1e-12)

    def test_zero_nonlinearity(self):
        assert fwm_gain(make_geometry(n2=0.0)).gain == 0.0

    def test_inverse_length_dependence(self, geometry):
        doubled = fwm_gain(make_geometry(ring_length=2 * RING_LENGTH)).gain
        assert doubled == pytest.approx(fwm_gain(geometry).gain / 2, rel=1e-12)


class TestInjection:
    def test_sigma_n_definition(self, rates, gain, geometry):
        """sigma_n is held as given, and P_th drives sigma_n = 1 exactly."""
        assert Injection(0.5).sigma_n == 0.5
        omega_p = geometry.pump_frequency()
        p_th = threshold_power(rates, gain, omega_p)
        assert sigma_from_power(p_th, rates, gain, omega_p).sigma_n == 1.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Injection(-0.1)


class TestThresholdPower:
    def test_on_resonance_value(self, rates, gain, geometry):
        omega_p = geometry.pump_frequency()
        expected = rates.gamma_total**3 * HBAR * omega_p / (8 * gain * rates.kappa)
        assert threshold_power(rates, gain, omega_p) == pytest.approx(expected, rel=1e-12)

    def test_gain_halves_threshold(self, rates, gain, geometry):
        omega_p = geometry.pump_frequency()
        assert threshold_power(rates, 2 * gain, omega_p) == pytest.approx(
            threshold_power(rates, gain, omega_p) / 2, rel=1e-12)

    def test_round_trip_with_sigma(self, rates, gain, geometry):
        omega_p = geometry.pump_frequency()
        for delta_p in (0.0, 0.3 * rates.gamma_total):
            p_th = threshold_power(rates, gain, omega_p, delta_p)
            injection = sigma_from_power(p_th, rates, gain, omega_p, delta_p)
            assert injection.sigma_n == pytest.approx(1.0, rel=1e-12)

    def test_domain_errors(self, rates, geometry):
        omega_p = geometry.pump_frequency()
        with pytest.raises(DomainError):
            threshold_power(rates, 0.0, omega_p)
        with pytest.raises(DomainError):
            threshold_power(CavityRates(kappa=0.0, gamma=1e7), 1.5, omega_p)


class TestSigmaFromPower:
    @pytest.mark.parametrize("delta_p", [0.0, 0.3, -2.0, 1e6])
    def test_drive_phase(self, rates, gain, geometry, delta_p):
        """phi_sigma is the phase of 1/(Gamma/2 - i delta_p)^2, delta_p in units of Gamma."""
        delta_p *= rates.gamma_total
        injection = sigma_from_power(1e-3, rates, gain, geometry.pump_frequency(), delta_p)
        expected = cmath.phase(1 / (rates.gamma_total / 2 - 1j * delta_p) ** 2)
        assert cmath.exp(1j * injection.phi_sigma) == pytest.approx(cmath.exp(1j * expected),
                                                                     abs=1e-12)

    def test_zero_power(self, rates, gain, geometry):
        injection = sigma_from_power(0.0, rates, gain, geometry.pump_frequency())
        assert injection.sigma_n == 0.0

    def test_half_threshold(self, rates, gain, geometry):
        omega_p = geometry.pump_frequency()
        p_th = threshold_power(rates, gain, omega_p)
        assert sigma_from_power(0.5 * p_th, rates, gain, omega_p).sigma_n == pytest.approx(
            0.5, rel=1e-12)

    @pytest.mark.parametrize("scale", [0.1, 0.5, 2.0])
    def test_linearity_in_power(self, rates, gain, geometry, scale):
        omega_p = geometry.pump_frequency()
        base = sigma_from_power(1e-3, rates, gain, omega_p).sigma_n
        assert sigma_from_power(scale * 1e-3, rates, gain, omega_p).sigma_n == pytest.approx(
            scale * base, rel=1e-12)


def test_reference_geometry_is_validated():
    assert REFERENCE_GEOMETRY.cross_coupling == 0.01
    assert REFERENCE_GEOMETRY.ring_length == pytest.approx(RING_LENGTH)


class TestNonFiniteFields:
    """NaN passes every range comparison, so each field is also required to be finite."""

    @pytest.mark.parametrize("field", ["ring_length", "alpha_loss", "n_eff", "cross_coupling"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_ring_geometry(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            make_geometry(**{field: value})

    @pytest.mark.parametrize("fields", [dict(kappa=math.nan, gamma=1.0),
                                        dict(kappa=1.0, gamma=math.inf),
                                        dict(kappa=1.0, gamma=1.0, t_round=math.nan)])
    def test_cavity_rates(self, fields):
        with pytest.raises(DomainError, match="must be finite"):
            CavityRates(**fields)

    @pytest.mark.parametrize("fields", [dict(sigma_n=math.nan),
                                        dict(sigma_n=math.inf),
                                        dict(sigma_n=0.5, phi_sigma=math.nan)])
    def test_injection(self, fields):
        with pytest.raises(DomainError, match="must be finite"):
            Injection(**fields)
