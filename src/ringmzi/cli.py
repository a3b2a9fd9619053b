"""Batch command line: each command's table from a RunConfig, and ``main``.

A grid point at or above threshold, with an undefined quantity or on a sensitivity pole flags
its row (`threshold`, `domain`, `pole`; docs/formats.md) and the run goes on. Four physics
errors are configuration errors instead, which write no table: a `jsi` drive at or above
threshold (that table has no flag column), a `meanfield` grid point with no steady state in
reach, a probe whose 2 alpha_c^2 overflows (_check_probe), and a probe whose coherent
reference overflows on an unflagged row (_check_coherent). Exit codes: 0 success, 2 usage or
configuration error, 3 I/O error.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import __version__
from .cavity_io import jsi as jsi_density
from .cavity_io import quadrature_variance, to_db
from .config import RunConfig, parse_config
from .constants import HBAR
from .errors import ConfigError, ConvergenceError, DomainError, ThresholdError
from .interferometer import POLE_TOLERANCE, coherent_sensitivity, decay_ratio, mzi_sensitivity
from .meanfield import comparison_columns
from .params import (CavityRates, FwmStrength, Injection, derive_rates, efficiency, fwm_gain,
                     sigma_from_power, threshold_power)
from .table import ResultTable, flags, format_e17, write_table


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
    alpha_c = cfg.alpha_c if cfg.alpha_c is not None else math.sqrt(cfg.p_c / (HBAR * omega_p))
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


def _derive(cfg: RunConfig) -> tuple[CavityRates, FwmStrength, float]:
    """(rates, strength, P_th) of the geometry, once the rates, g, gamma_nl and P_th are checked
    finite, and g and kappa positive: a value that fails is a ConfigError naming the keys it
    comes from. Every builder takes them, so each is derived once per table."""
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
    return rates, strength, p_th


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
    """Evaluate one command; per-point physics errors become flagged rows, bar the four of the
    module docstring."""
    builder = _BUILDERS.get(cfg.command)
    if builder is None:
        raise ConfigError(f"unknown command {cfg.command!r}")
    columns, data = builder(cfg, *_derive(cfg))
    return ResultTable(columns, data, {"tool_version": __version__,
                                       "config_sha256": cfg.config_sha256()})


def _run_rates(cfg: RunConfig, rates: CavityRates, strength: FwmStrength, p_th: float):
    columns = ["kappa", "gamma", "gamma_total", "t_round", "t_trans", "g", "gamma_nl", "p_th"]
    values = [rates.kappa, rates.gamma, rates.gamma_total, rates.t_round, rates.t_trans,
              strength.gain, strength.gamma_nl, p_th]
    return columns, [np.array([value]) for value in values]


def _run_squeezing(cfg: RunConfig, rates: CavityRates, strength: FwmStrength, p_th: float):
    injection, _ = _resolve_drive(cfg, rates, strength.gain)
    phi_lo = cfg.sweep.grid()
    columns = ["phi_lo", "variance", "variance_db", "flag"]
    try:
        variance = quadrature_variance(rates, injection, phi_lo)
    except ThresholdError:  # the injection, and so the flag, is fixed per table
        infinite = np.full(phi_lo.size, math.inf)
        return columns, [phi_lo, infinite, infinite, flags(threshold=True)]
    return columns, [phi_lo, variance, to_db(variance), flags()]


def _run_jsi(cfg: RunConfig, rates: CavityRates, strength: FwmStrength, p_th: float):
    injection, _ = _resolve_drive(cfg, rates, strength.gain)
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

    def value(rows: slice, cols: slice) -> np.ndarray:
        return jsi_density(rates, injection, axis[rows, None], axis[cols])

    return ["delta_ws", "delta_wi", "value"], [cells[:, None], cells[None], value]


def _run_meanfield(cfg: RunConfig, rates: CavityRates, strength: FwmStrength, p_th: float):
    grid = cfg.sweep.grid()
    try:
        columns = comparison_columns(rates, strength.gain, grid)
    except ConvergenceError as exc:
        keys = ("sweep.start", "sweep.stop") + _RATE_KEYS + _GAIN_KEYS[1:]
        raise ConfigError(f"no mean-field steady state at sigma_n = {float(grid[exc.index])!r}: "
                          f"{exc} (from {', '.join(keys)})") from exc
    flag = flags(threshold=np.isinf(columns["ns_lin"]))
    return [*columns, "flag"], [*columns.values(), flag]


def _run_sensitivity(cfg: RunConfig, rates: CavityRates, strength: FwmStrength, p_th: float):
    injection, alpha_c = _resolve_drive(cfg, rates, strength.gain)
    grid = cfg.sweep.grid()
    omega_p = cfg.geometry.pump_frequency()
    pump_power = cfg.p_l if cfg.p_l is not None else cfg.sigma_n * p_th
    if cfg.sweep.variable == "p_c":  # at phi = pi/2
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
        squeezed, photons, pole = mzi_sensitivity(alpha_c, phi, cfg.eta, rates, injection)
    except ThresholdError:  # the drive, and so the flag, is fixed per table
        infinite = np.full(grid.size, math.inf)
        return columns, leading + [infinite] * 3 + [flags(threshold=True)]
    # The coherent reference needs a probe: no probe is a domain row. A coherent probe with
    # a vacuum port reads 1/(sqrt(eta) alpha_c |sin phi|), a pole where its slope
    # eta N |sin phi| is within POLE_TOLERANCE eta N of zero; sin(pi/2) is exactly 1.
    domain = np.asarray(alpha_c) <= 0
    sine = np.abs(np.sin(phi))
    with np.errstate(divide="ignore", over="ignore"):  # both only where the row is inf
        coherent = np.where(sine > POLE_TOLERANCE, coherent_sensitivity(alpha_c, cfg.eta) / sine,
                            math.inf)
    _check_coherent(coherent, domain | pole, alpha_c, cfg)
    quantum = HBAR * omega_p
    with np.errstate(divide="ignore"):  # no photons at all: a domain row
        snl = 1.0 / np.sqrt(photons + pump_power / quantum)
    if pump_power / quantum == math.inf:  # a pump flux beyond the float range; P is finite
        snl = math.sqrt(quantum) / np.sqrt(photons * quantum + pump_power)
    return columns, leading + [np.where(domain | pole, math.inf, squeezed),
                               np.where(domain, math.inf, coherent),
                               np.where(domain, math.inf, snl), flags(domain=domain, pole=pole)]


def _run_pole(cfg: RunConfig, rates: CavityRates, strength: FwmStrength, p_th: float):
    injection, _ = _resolve_drive(cfg, rates, strength.gain)
    alpha_c = cfg.sweep.grid()
    _check_probe(alpha_c, cfg)
    columns = ["alpha_c", "dphi_squeezed", "flag"]
    try:
        dphi, _, pole = mzi_sensitivity(alpha_c, math.pi / 2, cfg.eta, rates, injection)
    except ThresholdError:
        return columns, [alpha_c, np.full(alpha_c.size, math.inf), flags(threshold=True)]
    return columns, [alpha_c, dphi, flags(pole=pole)]


def _run_improvement(cfg: RunConfig, rates: CavityRates, strength: FwmStrength, p_th: float):
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
        ring_p_th = threshold_power(ring, strength.gain, cfg.geometry.pump_frequency(), cfg.delta_p)
        _check_threshold(ring_p_th, ("improvement.decay_ratio", "geometry.cross_coupling",
                                     "pump.p_l"))
    injection, alpha_c = _resolve_drive(cfg, ring, strength.gain)
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
        return columns, [lengths, eta, np.full(lengths.size, math.inf), flags(threshold=True)]
    domain = eta == 0  # a long sensor's e^(-alpha L) underflows: no light reaches the detector
    with np.errstate(invalid="ignore", over="ignore"):  # inf/inf on domain rows; overflow
        factor = np.where(domain | pole, math.inf, coherent_sensitivity(alpha_c, eta) / squeezed)
    _check_coherent(factor, domain | pole, alpha_c, cfg)
    return columns, [lengths, eta, factor, flags(domain=domain, pole=pole)]


# Each command's table builder: run_command looks it up, and _read_argv accepts its names.
_BUILDERS = {"rates": _run_rates, "squeezing": _run_squeezing, "jsi": _run_jsi,
             "meanfield": _run_meanfield, "sensitivity": _run_sensitivity, "pole": _run_pole,
             "improvement": _run_improvement}
COMMANDS = tuple(_BUILDERS)

_USAGE = ("usage: ringmzi [-h] [--config CONFIG] [--out OUT] [--set KEY=VALUE] "
          f"{{{','.join(COMMANDS)}}}")
_HELP = (f"{_USAGE}\n\nMicroring squeezed-light interferometry design tables.\n\n"
         "  --config CONFIG  path to a key-value configuration file\n"
         "  --out OUT        output CSV path (default: stdout); an existing file is overwritten\n"
         "                   in place, and only exit status 0 means a complete table\n"
         "  --set KEY=VALUE  override a configuration entry (repeatable)")
_OPTIONS = {option[:end]: option for option in ("--help", "--config", "--out", "--set")
            for end in range(3, len(option) + 1)} | {"-h": "--help"}  # all prefixes unique


def _read_argv(argv: list[str]) -> tuple[str, str | None, str | None, list[str]]:
    """(command, --config, --out, [--set ...]) of a command line; the command is '--help' for
    -h or --help, and a usage error raises ValueError naming the token at fault."""
    command, extra, found = None, [], {"--config": [None], "--out": [None], "--set": []}
    for token in (tokens := iter(argv)):
        name, equals, value = token.partition("=")
        option = _OPTIONS.get(name)
        if option == "--help":
            return option, None, None, []
        if option:
            if not equals:
                value = next(tokens, None)
                # A value may be '-' or a negative number, but not another option.
                if value is None or value[:1] == "-" and value[1:2] not in "0123456789.":
                    raise ValueError(f"argument {option}: expected one argument")
            found[option].append(value)
        elif command is None and token in COMMANDS:
            command = token
        elif command is None and token[:1] != "-":
            raise ValueError(f"argument command: invalid choice: {token!r}")
        else:
            extra.append(token)
    if command is None or extra:
        raise ValueError(f"unrecognized arguments: {' '.join(extra)}" if command else
                         "the following arguments are required: command")
    return command, found["--config"][-1], found["--out"][-1], found["--set"]


def main(argv: list[str] | None = None) -> int:
    try:
        command, config, out, settings = _read_argv(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"{_USAGE}\nringmzi: error: {exc}", file=sys.stderr)
        return 2
    if command == "--help":
        print(_HELP)
        return 0

    text = ""
    if config is not None:
        try:
            with open(config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"ringmzi: cannot read config: {exc}", file=sys.stderr)
            return 3
    if settings:
        text += "\n" + "\n".join(settings)

    try:
        cfg = parse_config(text, command=command)
        result = run_command(cfg)
    except (ConfigError, DomainError) as exc:
        print(f"ringmzi: config error: {exc}", file=sys.stderr)
        return 2

    try:
        write_table(result, out)
    except OSError as exc:
        print(f"ringmzi: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
