"""Batch command line: each command's table from a RunConfig, and ``main``.

Every physics error at a grid point flags the row instead of aborting the
run; only configuration problems change the exit code (0 success, 2 config
error, 3 I/O error).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__, table
from .cavity_io import jsi as jsi_density
from .cavity_io import quadrature_variance, to_db
from .config import RunConfig, parse_config
from .constants import HBAR
from .errors import ConfigError, ConvergenceError, DomainError, ThresholdError
from .interferometer import POLE_TOLERANCE, coherent_sensitivity, decay_ratio, mzi_sensitivity
from .meanfield import comparison_columns
from .params import (CavityRates, Injection, derive_rates, efficiency, fwm_gain,
                     sigma_from_power, threshold_power)
from .table import LazyBlocks, ResultTable, flags, format_e17, write_table

COMMANDS = ("rates", "squeezing", "jsi", "meanfield", "sensitivity", "pole", "improvement")


def _resolve_drive(cfg: RunConfig, rates: CavityRates, gain: float):
    """(injection, alpha_c) for the configured pump block."""
    omega_p = cfg.geometry.pump_frequency()
    if cfg.p_l is not None:
        try:
            injection = sigma_from_power(cfg.p_l, rates, gain, omega_p, cfg.delta_p)
        except DomainError as exc:  # p_l / P_th overflows
            raise ConfigError(f"{exc} (from pump.p_l)") from exc
    else:
        injection = Injection(cfg.sigma_n)
    alpha_c = cfg.alpha_c
    if alpha_c is None:
        alpha_c = math.sqrt(cfg.p_c / (HBAR * omega_p))
    return injection, alpha_c


# The keys the rates, then the four-wave-mixing strength, are derived from.
_RATE_KEYS = ("geometry.ring_length", "geometry.n_eff", "geometry.cross_coupling",
              "geometry.alpha_loss")
_GAIN_KEYS = ("geometry.ring_length", "geometry.n_g", "geometry.n2", "geometry.a_eff",
              "geometry.lambda_p")


def _check_threshold(p_th: float, keys) -> None:
    """ConfigError naming ``keys`` unless the threshold power p_th is positive and finite."""
    if not 0 < p_th < math.inf:
        raise ConfigError(f"p_th = {p_th!r} must be positive and finite (from {', '.join(keys)})")


def _derive(cfg: RunConfig) -> tuple[CavityRates, float]:
    """(rates, gain) of the geometry, once the rates, g, gamma_nl and P_th are checked finite,
    and g and kappa positive: a value that fails is a ConfigError naming the keys it comes from."""
    def fail(problem: str, keys) -> ConfigError:
        return ConfigError(f"{problem} (from {', '.join(keys)})")

    try:
        rates = derive_rates(cfg.geometry)
    except DomainError as exc:  # a rate is not finite
        raise fail(str(exc), _RATE_KEYS) from exc
    try:
        strength = fwm_gain(cfg.geometry)
    except OverflowError as exc:  # omega_p**2 of a Python float raises
        raise fail("g must be finite: omega_p^2 = (2 pi c/lambda_p)^2 overflows",
                   _GAIN_KEYS) from exc
    except ZeroDivisionError as exc:  # c A_eff L underflows to 0
        raise fail("g must be finite: c A_eff L underflows to 0", _GAIN_KEYS) from exc
    if not math.isfinite(strength.gain + strength.gamma_nl):
        raise fail(f"g = {strength.gain!r} and gamma_nl = {strength.gamma_nl!r} must be finite",
                   _GAIN_KEYS)
    if strength.gain <= 0:  # n2 = 0, or g underflows: no pairs and no threshold
        raise fail(f"g = {strength.gain!r} must be positive", _GAIN_KEYS)
    if rates.kappa <= 0:  # an uncoupled ring has no threshold and takes no drive
        raise fail(f"kappa = {rates.kappa!r} must be positive for a threshold to exist",
                   ("geometry.cross_coupling",))
    p_th = threshold_power(rates, strength.gain, cfg.geometry.pump_frequency(), cfg.delta_p)
    _check_threshold(p_th, _RATE_KEYS + _GAIN_KEYS[1:] + ("pump.delta_p",))
    return rates, strength.gain


def _probe_keys(cfg: RunConfig) -> str:
    """The keys the probe amplitude alpha_c of a sweep comes from."""
    return ("sweep.start, sweep.stop" if cfg.sweep.variable in ("p_c", "alpha_c")
            else "pump.alpha_c" if cfg.alpha_c is not None else "pump.p_c")


def _check_probe(alpha_c, cfg: RunConfig) -> None:
    """ConfigError naming the keys of the probe amplitude alpha_c unless 2 alpha_c^2, the
    largest probe term of Var ID (see interferometer), is finite at every point."""
    with np.errstate(over="ignore"):
        if np.isfinite(2 * np.square(alpha_c)).all():
            return
    raise ConfigError(f"the probe amplitude alpha_c = {float(np.max(alpha_c))!r} is too large: "
                      f"2 alpha_c^2 overflows (from {_probe_keys(cfg)})")


def _check_coherent(column, flagged, alpha_c, cfg: RunConfig) -> None:
    """ConfigError naming the keys of the probe amplitude alpha_c unless ``column``, built on
    the coherent reference 1/(sqrt(eta) alpha_c |sin phi|), is finite on every row not
    otherwise flagged: the small-amplitude mirror of _check_probe."""
    if np.isfinite(column[~flagged]).all():
        return
    raise ConfigError(f"the probe amplitude alpha_c = {float(np.min(alpha_c))!r} is too small: "
                      "a column built on 1/(sqrt(eta) alpha_c |sin phi|) overflows "
                      f"(from {_probe_keys(cfg)})")


def run_command(cfg: RunConfig) -> ResultTable:
    """Evaluate one command; per-point physics errors become flagged rows."""
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    rates, gain = _derive(cfg)
    meta = {"tool_version": __version__, "config_sha256": cfg.config_sha256()}
    builder = {
        "rates": _run_rates,
        "squeezing": _run_squeezing,
        "jsi": _run_jsi,
        "meanfield": _run_meanfield,
        "sensitivity": _run_sensitivity,
        "pole": _run_pole,
        "improvement": _run_improvement,
    }[cfg.command]
    columns, blocks = builder(cfg, rates, gain)
    return ResultTable(columns=columns, blocks=blocks, meta=meta)


def _run_rates(cfg: RunConfig, rates: CavityRates, gain: float):
    omega_p = cfg.geometry.pump_frequency()
    strength = fwm_gain(cfg.geometry)
    p_th = threshold_power(rates, gain, omega_p, cfg.delta_p)
    columns = ["kappa", "gamma", "gamma_total", "t_round", "t_trans", "g", "gamma_nl", "p_th"]
    values = [rates.kappa, rates.gamma, rates.gamma_total, rates.t_round, rates.t_trans,
              strength.gain, strength.gamma_nl, p_th]
    return columns, [[np.array([value]) for value in values]]


def _run_squeezing(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, _ = _resolve_drive(cfg, rates, gain)
    phi_lo = cfg.sweep.grid()
    columns = ["phi_lo", "variance", "variance_db", "flag"]
    try:
        variance = quadrature_variance(rates, injection, phi_lo)
    except ThresholdError:  # the injection, and so the flag, is fixed per table
        infinite = np.full(phi_lo.size, math.inf)
        return columns, [[phi_lo, infinite, infinite, flags(phi_lo.size, threshold=True)]]
    return columns, [[phi_lo, variance, to_db(variance), flags(phi_lo.size)]]


def _run_jsi(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, _ = _resolve_drive(cfg, rates, gain)
    if injection.sigma_n >= 1:  # before any row, as rows are computed lazily
        raise ConfigError(f"jsi needs a drive below threshold, got sigma_n = {injection.sigma_n!r} "
                          f"(from {'pump.sigma_n' if cfg.p_l is None else 'pump.p_l'})")
    span = cfg.jsi_span if cfg.jsi_span is not None else 3.0 * rates.gamma_total
    if not math.isfinite(span / rates.gamma_total):
        raise ConfigError(f"jsi.span = {span!r} is more than 1e308 Gamma = {rates.gamma_total!r}")
    if not math.isfinite(2 * span):
        raise ConfigError(f"jsi.span = {span!r} is too large: the axis width 2 jsi.span overflows")
    axis = np.linspace(-span, span, cfg.jsi_points)
    cells = format_e17(axis)  # each axis value formatted once
    idler, per = cells[None], max(1, table.WRITE_BLOCK_ROWS // axis.size)  # signal rows per block

    def block(k: int) -> list:
        a, b = k * per, (k + 1) * per
        return [cells[a:b, None], idler, jsi_density(rates, injection, axis[a:b, None], axis)]

    return ["delta_ws", "delta_wi", "value"], LazyBlocks(-(-axis.size // per), block)


def _run_meanfield(cfg: RunConfig, rates: CavityRates, gain: float):
    grid = cfg.sweep.grid()
    try:
        columns = comparison_columns(rates, gain, grid)
    except ConvergenceError as exc:
        keys = ("sweep.start", "sweep.stop") + _RATE_KEYS + _GAIN_KEYS[1:]
        raise ConfigError(f"no mean-field steady state at sigma_n = {float(grid[exc.index])!r}: "
                          f"{exc} (from {', '.join(keys)})") from exc
    flag = flags(columns["sigma_n"].size, threshold=np.isinf(columns["ns_lin"]))
    return [*columns, "flag"], [[*columns.values(), flag]]


def _run_sensitivity(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, alpha_c = _resolve_drive(cfg, rates, gain)
    sweep = cfg.sweep
    grid = sweep.grid()
    eta = cfg.eta_value
    omega_p = cfg.geometry.pump_frequency()
    pump_power = (cfg.p_l if cfg.p_l is not None
                  else cfg.sigma_n * threshold_power(rates, gain, omega_p, cfg.delta_p))
    if sweep.variable == "p_c":  # at phi = pi/2
        with np.errstate(over="ignore"):  # a flux beyond the float range: _check_probe
            alpha_c, phi = np.sqrt(grid / (HBAR * omega_p)), math.pi / 2
        columns = ["p_c", "alpha_c", "dphi_squeezed", "dphi_coherent", "dphi_snl", "flag"]
        leading = [grid, alpha_c]
    else:
        phi = grid
        columns = ["phi", "dphi_squeezed", "dphi_coherent", "dphi_snl", "flag"]
        leading = [grid]
    _check_probe(alpha_c, cfg)
    try:
        squeezed, photons, pole = mzi_sensitivity(alpha_c, phi, eta, rates, injection)
    except ThresholdError:  # the drive, and so the flag, is fixed per table
        infinite = np.full(grid.size, math.inf)
        return columns, [leading + [infinite] * 3 + [flags(grid.size, threshold=True)]]
    # The coherent reference needs a probe: no probe is a domain row. A coherent probe with
    # a vacuum port reads 1/(sqrt(eta) alpha_c |sin phi|), a pole where its slope
    # eta N |sin phi| is within POLE_TOLERANCE eta N of zero; sin(pi/2) is exactly 1.
    domain = np.asarray(alpha_c) <= 0
    sine = np.abs(np.sin(phi))
    with np.errstate(divide="ignore", over="ignore"):  # both only where the row is inf
        coherent = np.where(sine > POLE_TOLERANCE, coherent_sensitivity(alpha_c, eta) / sine,
                            math.inf)
    _check_coherent(coherent, domain | pole, alpha_c, cfg)
    quantum = HBAR * omega_p
    with np.errstate(divide="ignore"):  # no photons at all: a domain row
        snl = 1.0 / np.sqrt(photons + pump_power / quantum)
    if pump_power / quantum == math.inf:  # a pump flux beyond the float range; P is finite
        snl = math.sqrt(quantum) / np.sqrt(photons * quantum + pump_power)
    return columns, [leading + [np.where(domain | pole, math.inf, squeezed),
                                np.where(domain, math.inf, coherent),
                                np.where(domain, math.inf, snl),
                                flags(grid.size, domain=domain, pole=pole)]]


def _run_pole(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, _ = _resolve_drive(cfg, rates, gain)
    alpha_c = cfg.sweep.grid()
    _check_probe(alpha_c, cfg)
    columns = ["alpha_c", "dphi_squeezed", "flag"]
    try:
        dphi, _, pole = mzi_sensitivity(alpha_c, math.pi / 2, cfg.eta_value, rates, injection)
    except ThresholdError:
        return columns, [[alpha_c, np.full(alpha_c.size, math.inf),
                          flags(alpha_c.size, threshold=True)]]
    return columns, [[alpha_c, dphi, flags(alpha_c.size, pole=pole)]]


def _run_improvement(cfg: RunConfig, rates: CavityRates, gain: float):
    # Sweep protocol: gamma adjusted at fixed kappa to reach the target
    # decay ratio, sigma_n held at the configured value.
    ratio = cfg.decay_ratio if cfg.decay_ratio is not None else decay_ratio(rates)
    # A configured ratio is positive (parse_config); the geometry's kappa/gamma can underflow to 0.
    gamma = rates.kappa / ratio if ratio > 0 else math.nan
    if not math.isfinite(gamma):
        raise ConfigError(f"improvement.decay_ratio = {ratio!r} with kappa = {rates.kappa!r} "
                          f"(geometry.cross_coupling) gives gamma = {gamma!r}, not finite")
    ring = CavityRates(kappa=rates.kappa, gamma=gamma)
    if cfg.p_l is not None:  # sigma_n = p_l / P_th of this ring
        _check_threshold(threshold_power(ring, gain, cfg.geometry.pump_frequency(), cfg.delta_p),
                         ("improvement.decay_ratio", "geometry.cross_coupling", "pump.p_l"))
    injection, alpha_c = _resolve_drive(cfg, ring, gain)
    lengths = cfg.sweep.grid()
    columns = ["sensor_length", "eta", "improvement", "flag"]
    eta = efficiency(cfg.sensor_alpha_loss, lengths)
    if alpha_c <= 0:
        raise ConfigError(f"the improvement needs a probe, alpha_c > 0, got {alpha_c!r} "
                          f"(from {_probe_keys(cfg)})")
    _check_probe(alpha_c, cfg)
    try:
        squeezed, _, pole = mzi_sensitivity(alpha_c, math.pi / 2, eta, ring, injection)
    except ThresholdError:
        return columns, [[lengths, eta, np.full(lengths.size, math.inf),
                          flags(lengths.size, threshold=True)]]
    domain = eta == 0  # a long sensor's e^(-alpha L) underflows: no light reaches the detector
    with np.errstate(invalid="ignore", over="ignore"):  # inf/inf on domain rows; overflow
        factor = np.where(domain | pole, math.inf, coherent_sensitivity(alpha_c, eta) / squeezed)
    _check_coherent(factor, domain | pole, alpha_c, cfg)
    return columns, [[lengths, eta, factor, flags(lengths.size, domain=domain, pole=pole)]]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to main."""
    parser = argparse.ArgumentParser(
        prog="ringmzi",
        description="Microring squeezed-light interferometry design tables.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a key-value configuration file")
    parser.add_argument("--out", help="output CSV path (default: stdout); an existing file is "
                        "overwritten in place, and only exit status 0 means a complete table")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration entry (repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"ringmzi: cannot read config: {exc}", file=sys.stderr)
            return 3
    if args.set:
        text += "\n" + "\n".join(args.set)

    try:
        cfg = parse_config(text, command=args.command)
        result = run_command(cfg)
    except (ConfigError, DomainError) as exc:
        print(f"ringmzi: config error: {exc}", file=sys.stderr)
        return 2

    try:
        write_table(result, args.out)
    except OSError as exc:
        print(f"ringmzi: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
