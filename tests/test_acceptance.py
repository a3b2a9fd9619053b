"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Module-level invariant suites (oracle equivalences, monotonicity, moment
bounds, solver invariances) live next to their modules in the other test
files; criterion 11 re-runs the cross-cutting ones explicitly.
"""

import math

import numpy as np
import pytest

import mzi_oracle as oracle
from mf_oracle import validity_bound
from mzi_oracle import Point
from ringmzi import (CavityRates, Injection, coherent_sensitivity, comparison_columns,
                     efficiency, jsi, mzi_sensitivity, quadrature_variance, sigma_from_power,
                     threshold_power, to_db)
from scattering_oracle import closed_moments, output_transfer, transfer_moments
from ringmzi.cli import main as cli_main
from ringmzi.constants import HBAR

OPERATING_SIGMA_N = 0.99895
HALF_PI = math.pi / 2
EXTREMA = [HALF_PI, 0.0]  # the LO phases of V_sq and V_anti for a real positive drive


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def inj(rates, sigma_n):
    return Injection(sigma_n)


def squeezed(alpha_c, eta, rates, injection):
    """dphi_squeezed of the closed form at phi = pi/2, one point."""
    return float(mzi_sensitivity(alpha_c, HALF_PI, eta, rates, injection)[0])


def test_c01_rates_regression(rates):
    ok = (abs(rates.kappa / 1208e6 - 1) < 0.01) and (abs(rates.gamma / 38.3e6 - 1) < 0.01)
    report("C1 rates", ok,
           f"kappa={rates.kappa / 1e6:.2f} MHz (ref 1208 +-1%), "
           f"gamma={rates.gamma / 1e6:.3f} MHz (ref 38.3 +-1%)")
    assert rates.kappa == pytest.approx(1208e6, rel=0.01)
    assert rates.gamma == pytest.approx(38.3e6, rel=0.01)


def test_c02_gain_and_threshold(geometry, rates, gain):
    omega_p = geometry.pump_frequency()
    p_th = threshold_power(rates, gain, omega_p)
    p_operating = OPERATING_SIGMA_N * p_th
    round_trip = sigma_from_power(p_th, rates, gain, omega_p).sigma_n
    ok = (abs(gain / 1.5 - 1) < 0.25 and abs(p_operating / 14.12e-3 - 1) < 0.15
          and abs(round_trip - 1) < 1e-12)
    report("C2 gain/threshold", ok,
           f"g={gain:.4f} Hz (ref 1.5 +-25%), P_l={p_operating * 1e3:.3f} mW "
           f"(ref 14.12 +-15%), sigma_n(P_th)={round_trip:.15f}")
    assert gain == pytest.approx(1.5, rel=0.25)
    assert p_operating == pytest.approx(14.12e-3, rel=0.15)
    assert round_trip == pytest.approx(1.0, rel=1e-12)


def test_c03_squeezing_regression(rates):
    v_sq_95, v_anti_95 = quadrature_variance(rates, inj(rates, 0.95), EXTREMA)
    v_sq_op, v_anti_op = quadrature_variance(rates, inj(rates, OPERATING_SIGMA_N), EXTREMA)
    values = (to_db(v_sq_95), to_db(v_anti_95), to_db(v_sq_op), to_db(v_anti_op))
    ok = (abs(values[0] + 15.0) < 0.2 and abs(values[1] - 31.68) < 0.1
          and abs(values[2] + 15.0) < 0.2 and abs(values[3] - 65.46) < 0.1)
    report("C3 squeezing dB", ok,
           f"sn=0.95: {values[0]:.3f}/{values[1]:.3f} dB, "
           f"sn={OPERATING_SIGMA_N}: {values[2]:.3f}/{values[3]:.3f} dB")
    assert values[0] == pytest.approx(-15.0, abs=0.2)
    assert values[1] == pytest.approx(31.68, abs=0.1)
    assert values[2] == pytest.approx(-15.0, abs=0.2)
    assert values[3] == pytest.approx(65.46, abs=0.1)


def test_c04_squeezing_parameter(rates):
    r = math.asinh(math.sqrt(closed_moments(rates, inj(rates, OPERATING_SIGMA_N))[0]))
    report("C4 squeezing parameter", abs(r - 7.54) < 0.02, f"r={r:.4f} (ref 7.54 +-0.02)")
    assert r == pytest.approx(7.54, abs=0.02)


def test_c05_jsi_peak(rates):
    peak = jsi(rates, inj(rates, 0.995), 0.0, 0.0)
    report("C5 JSI peak", abs(peak / 2.98e9 - 1) < 0.02, f"peak={peak:.4e} (ref 2.98e9 +-2%)")
    assert peak == pytest.approx(2.98e9, rel=0.02)


def test_c06_output_power(geometry, rates):
    omega_p = geometry.pump_frequency()
    flux = closed_moments(rates, inj(rates, OPERATING_SIGMA_N))[0]
    p_s_mw = HBAR * omega_p * flux * 1e3
    report("C6 output power", abs(p_s_mw / 1.13e-10 - 1) < 0.03,
           f"P_s={p_s_mw:.4e} mW (ref 1.13e-10 +-3%)")
    assert p_s_mw == pytest.approx(1.13e-10, rel=0.03)


def test_c07_linearization_validity(rates, gain):
    bound = validity_bound(rates, gain, 0.05)
    curve = comparison_columns(rates, gain, [0.5, 0.7, 0.9])
    agreement = max(abs(curve["ns_lin"] / curve["ns_mf"] - 1).tolist())
    # split before threshold: the deviation exceeds 5% strictly below sigma_n=1
    sigma_split = 0.5 * (bound + 1.0)
    at_split = comparison_columns(rates, gain, [sigma_split])
    split = abs(at_split["ns_lin"][0] / at_split["ns_mf"][0] - 1) > 0.05
    # pump depletion onset at threshold
    records = comparison_columns(rates, gain, [0.9, 1.1])
    ratio_below, ratio_above = (records["np_mf"] / records["np_lin"]).tolist()
    depletion = ratio_below > 0.99 and ratio_above < 0.95
    ok = abs(bound - OPERATING_SIGMA_N) < 0.002 and agreement < 0.01 and split and depletion
    report("C7 linearization validity", ok,
           f"bound={bound:.5f} (ref 0.99895 +-0.002), max dev(sn<=0.9)={agreement:.2e}, "
           f"split@{sigma_split:.5f}={split}, pump ratio {ratio_below:.3f}->{ratio_above:.3f}")
    assert bound == pytest.approx(OPERATING_SIGMA_N, abs=0.002)
    assert agreement < 0.01
    assert split
    assert depletion


def test_c08_oracle_equivalence(rates):
    # Gaussian-moment MZI pipeline (tests/mzi_oracle.py) against both closed forms
    worst_mzi = 0.0
    for sigma_n in np.linspace(0.0, 0.99, 10):
        injection = inj(rates, sigma_n)
        port = oracle.pair_port(rates, injection)
        for eta in np.linspace(0.1, 1.0, 10):
            point = Point(HALF_PI, 1e5, eta)
            closed = squeezed(1e5, eta, rates, injection)
            numeric = oracle.point_readout(point, port).dphi
            worst_mzi = max(worst_mzi, abs(numeric / closed - 1))
            coherent_numeric = oracle.point_readout(point, None).dphi
            worst_mzi = max(worst_mzi,
                            abs(coherent_numeric / coherent_sensitivity(1e5, eta) - 1))
    # closed-form spectral moments against the 4x4 scattering solve
    worst_transfer = 0.0
    for sigma_n in np.linspace(0.0, 0.99, 10):
        injection = inj(rates, sigma_n)
        for delta in np.linspace(-2.0, 2.0, 10):
            detunings = (delta * rates.gamma_total, -0.7 * delta * rates.gamma_total)
            n_s, n_i, m_si = transfer_moments(output_transfer(rates, injection, *detunings))
            n_closed, m_closed = closed_moments(rates, injection, *detunings)
            scale_n = max(n_closed, 1e-12)
            scale_m = max(abs(m_closed), 1e-12)
            worst_transfer = max(worst_transfer, abs(n_s - n_closed) / scale_n,
                                 abs(n_i - n_closed) / scale_n,
                                 abs(m_si - m_closed) / scale_m)
    ok = worst_mzi < 1e-6 and worst_transfer < 1e-9
    report("C8 oracle equivalence", ok,
           f"MZI pipeline vs closed forms: {worst_mzi:.2e} (<1e-6), "
           f"scattering vs closed moments: {worst_transfer:.2e} (<1e-9)")
    assert worst_mzi < 1e-6
    assert worst_transfer < 1e-9


def test_c09_pole_and_crossover(geometry, rates, gain):
    injection = inj(rates, OPERATING_SIGMA_N)
    pole = oracle.pole_coherent_amplitude(rates, injection)
    far = squeezed(10 * pole, 1.0, rates, injection)
    diverges = all(squeezed(side * pole, 1.0, rates, injection) > 1e3 * far
                   for side in (1 - 1e-3, 1 + 1e-3))

    # operating point: P_l = 14.12 mW, strong coherent probe
    omega_p = geometry.pump_frequency()
    injection_pl = sigma_from_power(14.12e-3, rates, gain, omega_p)
    alpha_c = math.sqrt(0.1 / (HBAR * omega_p))
    dphi_s, photons, _ = mzi_sensitivity(alpha_c, HALF_PI, 1.0, rates, injection_pl)
    dphi_c = coherent_sensitivity(alpha_c, 1.0)
    snl = 1.0 / math.sqrt(photons + 14.12e-3 / (HBAR * omega_p))
    ordering = dphi_s < snl < dphi_c
    ok = diverges and ordering
    report("C9 pole/crossover", ok,
           f"pole at alpha_c={pole:.1f} diverges={diverges}; "
           f"dphi_s={dphi_s:.3e} < SNL={snl:.3e} < dphi_c={dphi_c:.3e}: {ordering}")
    assert diverges
    assert ordering


# The logarithmic fit is a large-DR approximation, asserted for DR >= 100 only.
# At eta = 1 the closed form reduces to I = (1 - eps)/sqrt(2 V_sq + eps) with
# eps = 2 n_s/alpha_c^2, and V_sq -> 1/(DR + 1) near threshold. At DR = 31.5
# (the reference ring) C3 pins V_sq to -15.0 +-0.2 dB, which confines I to
# 3.88-4.06, outside the fit's 15% band of 2.51-3.40; below DR = 100 the
# near-threshold law sqrt((DR + 1)/2) is asserted instead.
FIT_MIN_DECAY_RATIO = 100.0


@pytest.mark.parametrize("ratio", [10.0, 31.5, 100.0, 1000.0])
def test_c10_improvement_fit(rates, ratio):
    """Short-sensor improvement against the decay ratio DR.

    Protocol: kappa fixed at the reference value, gamma = kappa/DR,
    sigma_n = 0.99895, alpha_c = 1e5 for both sensitivities, eta -> 1.
    Every point equals (1 - eps)/sqrt(2 V_sq + eps) with the squeezed
    variance of C3 (rel 1e-9). It then follows the logarithmic fit
    10.218 ln(DR + 143.47) - 49.816 within 15% for DR >= 100, and the
    near-threshold law sqrt((DR + 1)/2) within 1% below.
    """
    ring = CavityRates(kappa=rates.kappa, gamma=rates.kappa / ratio)
    injection = inj(ring, OPERATING_SIGMA_N)
    alpha_c = 1e5
    measured = coherent_sensitivity(alpha_c, 1.0) / squeezed(alpha_c, 1.0, ring, injection)
    v_sq = quadrature_variance(ring, injection, HALF_PI)
    eps = 2 * closed_moments(ring, injection)[0] / alpha_c**2
    reduced = (1 - eps) / math.sqrt(2 * v_sq + eps)
    if ratio >= FIT_MIN_DECAY_RATIO:
        law, tolerance = "log fit", 0.15
        expected = 10.218 * math.log(ratio + 143.47) - 49.816
    else:
        law, tolerance = "sqrt((DR+1)/2)", 0.01
        expected = math.sqrt((ratio + 1) / 2)
    deviation = abs(measured / expected - 1)
    reduction_error = abs(measured / reduced - 1)
    report(f"C10 improvement DR={ratio:g} vs {law}",
           deviation < tolerance and reduction_error < 1e-9,
           f"measured={measured:.4f}, {law}={expected:.4f}, deviation={deviation:.1%} "
           f"(<{tolerance:.0%}); vs (1-eps)/sqrt(2 V_sq+eps): {reduction_error:.1e} (<1e-9)")
    assert measured == pytest.approx(reduced, rel=1e-9), (
        f"improvement factor {measured:.6f} departs from (1-eps)/sqrt(2 V_sq+eps) "
        f"= {reduced:.6f} at DR={ratio:g}")
    assert measured == pytest.approx(expected, rel=tolerance), (
        f"improvement factor {measured:.4f} deviates {deviation:.1%} from the "
        f"{law} value {expected:.4f} at DR={ratio:g}")


def test_c10_improvement_saturation(rates):
    critical_length = 2 / 0.23  # beyond it squeezing stops helping
    eta = efficiency(0.23, 3 * critical_length)
    saturated = (coherent_sensitivity(1e5, eta)
                 / squeezed(1e5, eta, rates, inj(rates, OPERATING_SIGMA_N)))
    eta_crit = efficiency(0.23, critical_length)
    ok = abs(saturated - 1.0) < 0.05 and abs(eta_crit - 0.135) < 0.001
    report("C10 improvement saturation", ok,
           f"I(3 L_crit)={saturated:.4f} (1 +-0.05), eta(L_crit)={eta_crit:.4f} "
           f"(0.135 +-0.001)")
    assert saturated == pytest.approx(1.0, abs=0.05)
    assert eta_crit == pytest.approx(0.135, abs=0.001)


def test_c11_invariant_suites(rates, tmp_path):
    # uncertainty product, with equality in the lossless limit
    lossy_ok = True
    for sigma_n in np.linspace(0.05, 0.999, 12):
        v_sq, v_anti = quadrature_variance(rates, inj(rates, sigma_n), EXTREMA)
        lossy_ok &= v_sq * v_anti >= 1.0 - 1e-12
    lossless = CavityRates(kappa=rates.kappa, gamma=0.0)
    v_sq0, v_anti0 = quadrature_variance(lossless, inj(lossless, 0.9), EXTREMA)
    equality = abs(v_sq0 * v_anti0 - 1.0) < 1e-9

    # photon conservation through the lossless interferometer
    port = oracle.pair_port(rates, inj(rates, 0.9))
    state = oracle.mzi_input_state(1e4, port)
    total_in = 1e8 + port.n
    conservation = all(
        abs(oracle.mzi_transform(state, Point(phi, 1e4)).total_photons() / total_in - 1) < 1e-9
        for phi in np.linspace(0.0, 2 * math.pi, 7))

    # CLI byte determinism
    args = ["squeezing", "--set", "sweep.points=21", "--set", "pump.sigma_n=0.95"]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(path_a)]) == 0
    assert cli_main(args + ["--out", str(path_b)]) == 0
    deterministic = path_a.read_bytes() == path_b.read_bytes()

    ok = lossy_ok and equality and conservation and deterministic
    report("C11 invariants", ok,
           f"uncertainty product>=1: {lossy_ok}, lossless equality: {equality}, "
           f"photon conservation: {conservation}, CLI determinism: {deterministic}")
    assert lossy_ok and equality and conservation and deterministic
