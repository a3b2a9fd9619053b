"""Batch command-line interface: config parsing, sweeps, CSV tables.

Configuration is flat ``section.key = value`` text ('#' starts a comment,
SI units throughout). Every physics error at a grid point flags the row
instead of aborting the run; only configuration problems change the exit
code (0 success, 2 config error, 3 I/O error).
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import itertools
import math
import os
import stat
import sys
from collections.abc import Callable, Iterable
from contextlib import contextmanager, nullcontext
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from . import __version__
from .cavity_io import jsi as jsi_density
from .cavity_io import quadrature_variance, to_db
from .constants import HBAR
from .errors import ConfigError, ConvergenceError, DomainError, ThresholdError
from .interferometer import POLE_TOLERANCE, coherent_sensitivity, decay_ratio, mzi_sensitivity
from .meanfield import comparison_columns
from .params import (CavityRates, Injection, REFERENCE_GEOMETRY, RingGeometry, derive_rates,
                     efficiency, fwm_gain, sigma_from_power, threshold_power)

COMMANDS = ("rates", "squeezing", "jsi", "meanfield", "sensitivity", "pole", "improvement")

# The RunConfig field of each pump, sensor, jsi and improvement key. The
# geometry.* and sweep.* keys are the fields of RingGeometry and SweepSpec.
_FIELDS = {
    "pump.sigma_n": "sigma_n", "pump.p_l": "p_l", "pump.p_c": "p_c", "pump.alpha_c": "alpha_c",
    "pump.delta_p": "delta_p", "sensor.phi": "phi", "sensor.eta": "eta",
    "sensor.length": "sensor_length", "sensor.alpha_loss": "sensor_alpha_loss",
    "jsi.span": "jsi_span", "jsi.points": "jsi_points", "improvement.decay_ratio": "decay_ratio",
}

# Each sweeping command's variables, the first its default, and each variable's
# default (start, stop, points, scale), phi without default bounds, and the keys it
# overrides, which are a config error.
_SWEEPS = {
    "squeezing": {"phi_lo": (0.0, math.pi, 181, "linear", ())},
    "meanfield": {"sigma_n": (0.1, 1.15, 22, "linear", ("pump.sigma_n", "pump.p_l"))},
    "sensitivity": {"p_c": (1e-8, 1.0, 161, "log", ("pump.p_c", "pump.alpha_c")),
                    "phi": (None, None, 101, "linear", ("sensor.phi",))},
    "pole": {"alpha_c": (1e1, 1e6, 201, "log", ("pump.alpha_c", "pump.p_c"))},
    "improvement": {"sensor_length": (1e-3, 1e2, 181, "log", ("sensor.length", "sensor.eta"))},
}

# Sweep variables whose negative values have no meaning.
_NONNEGATIVE_SWEEPS = ("sigma_n", "p_c", "alpha_c", "sensor_length")

# Rows formatted per write; bounds the text held in memory for large tables. A chunk costs
# about 0.23 ms plus 84 ns per row (a jsi block), so fewer, larger chunks write faster; at
# 8192 rows a 400 x 400 jsi write peaks at about 0.9 MB, traced.
_WRITE_BLOCK_ROWS = 8192
# A chunk of one row is cut where its widths change, unless the cuts that adds to the runs
# passed in average fewer than _RUN_ROWS rows each: it is then compacted (see _chunk). One
# more run costs about what compacting 80 rows does (measured from 16 to 4096 rows).
_RUN_ROWS = 80

# A sweep table is held whole, at up to about 0.5 KB per point (phase sweep);
# the bound applies to jsi.points (per axis) as well.
MAX_SWEEP_POINTS = 1_000_000


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float | None
    stop: float | None
    points: int
    scale: str

    def __post_init__(self) -> None:
        if self.start is None or self.stop is None:
            raise ConfigError("sweep.start and sweep.stop are required")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep.start and sweep.stop must be finite")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep.scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ConfigError("log sweeps need positive start/stop")
        if self.start == self.stop:
            raise ConfigError("sweep.start and sweep.stop must differ")
        if self.variable in _NONNEGATIVE_SWEEPS and min(self.start, self.stop) < 0:
            raise ConfigError(f"a {self.variable} sweep must not go below 0, "
                              f"got {self.start} .. {self.stop}")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.points)
        return np.linspace(self.start, self.stop, self.points)


KNOWN_KEYS = (tuple(f"geometry.{f.name}" for f in fields(RingGeometry)) + tuple(_FIELDS)
              + tuple(f"sweep.{f.name}" for f in fields(SweepSpec)))


@dataclass
class RunConfig:
    """Validated run description assembled from defaults, file and --set lines."""

    command: str
    geometry: RingGeometry
    sigma_n: float | None
    p_l: float | None
    p_c: float | None
    alpha_c: float | None
    delta_p: float
    phi: float
    eta: float | None
    sensor_length: float | None
    sensor_alpha_loss: float
    sweep: SweepSpec | None
    jsi_span: float | None
    jsi_points: int
    decay_ratio: float | None
    resolved: dict[str, str]

    @property
    def eta_value(self) -> float:
        """The configured path efficiency: sensor.eta, or e^(-alpha_loss * length)."""
        if self.sensor_length is None:
            return self.eta
        return efficiency(self.sensor_alpha_loss, self.sensor_length)

    def config_sha256(self) -> str:
        canonical = "".join(f"{k} = {self.resolved[k]}\n" for k in sorted(self.resolved))
        canonical = f"command = {self.command}\n" + canonical
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class LazyBlocks:
    """Re-iterable table blocks, each computed when reached: block k is ``make(k)``."""

    def __init__(self, count: int, make: Callable[[int], list]) -> None:
        self.count, self.make = count, make

    def __iter__(self):
        return map(self.make, range(self.count))


@dataclass
class ResultTable:
    """Table with provenance metadata: a re-iterable sequence of column blocks.

    A block holds one column per entry of ``columns``. Its columns broadcast to
    one length, or to one 2-D shape whose rows are the table's rows in C order.
    A numeric column is a float, int or bool array, or its cells formatted by
    ``_format_e17`` (Cells). ``flag`` is the Cells of ``_flags``, whose four kinds
    have four widths, or a bytes or str array. ``data`` is either the whole table
    as one block of 1-D columns or a LazyBlocks.
    """

    columns: list[str]
    data: InitVar[list | LazyBlocks]
    meta: dict[str, str]
    blocks: Iterable[list] = field(init=False)

    def __post_init__(self, data) -> None:
        if not isinstance(data, LazyBlocks):
            data = [c if isinstance(c, Cells) else np.asarray(c) for c in data]
            lengths = {column.shape for column in data}
            if len(data) != len(self.columns) or len(lengths) != 1 or len(lengths.pop()) != 1:
                raise ConfigError("result columns must match the column names and share one length")
            data = (data,)
        self.blocks = data


def _parse_lines(text: str) -> list[tuple[int, str, str]]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        entries.append((lineno, key, value))
    return entries


def parse_config(text: str, command: str = "") -> RunConfig:
    """Parse flat key-value configuration text into a validated RunConfig.

    Later assignments override earlier ones; unknown keys, malformed values
    and conflicting settings raise ConfigError with the offending key and
    line number. An empty text yields the reference design profile. The
    sweep of a sweeping command is resolved here, from its defaults.
    """
    values = {key: (value, lineno) for lineno, key, value in _parse_lines(text)}

    def fail(key: str, rule: str) -> ConfigError:
        value, lineno = values[key]
        return ConfigError(f"line {lineno}: {key} {rule}, got {value!r}")

    def number(key: str, default):
        """The key's value, or default if unset; *.points is an integer, 2 .. MAX_SWEEP_POINTS."""
        if key not in values:
            return default
        try:
            value = float(values[key][0])
        except ValueError:
            value = math.nan
        if math.isnan(value):
            raise fail(key, "expects a number")
        if not key.endswith(".points"):
            return value
        if not math.isfinite(value) or value != int(value):
            raise fail(key, "expects an integer")
        if value < 2:
            raise fail(key, "must be >= 2")
        if value > MAX_SWEEP_POINTS:
            raise fail(key, f"must be at most {MAX_SWEEP_POINTS}")
        return int(value)

    try:
        geometry = RingGeometry(**{f.name: number(f"geometry.{f.name}",
                                                  getattr(REFERENCE_GEOMETRY, f.name))
                                   for f in fields(RingGeometry)})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    setting = {}  # the value of each key of _FIELDS

    def either(first: str, second: str, default: float) -> None:
        """Mutually exclusive keys; ``first`` is ``default`` when neither is set."""
        setting[first], setting[second] = number(first, None), number(second, None)
        if setting[first] is not None and setting[second] is not None:
            raise ConfigError(f"{first} and {second} are mutually exclusive")
        if setting[first] is None and setting[second] is None:
            setting[first] = default

    either("pump.sigma_n", "pump.p_l", 0.99895)
    either("pump.alpha_c", "pump.p_c", 1e5)
    for key in ("pump.sigma_n", "pump.p_l", "pump.alpha_c", "pump.p_c"):
        if setting[key] is not None and setting[key] < 0:
            raise ConfigError(f"{key} out of range: {setting[key]}")
    either("sensor.eta", "sensor.length", 1.0)
    eta, length = setting["sensor.eta"], setting["sensor.length"]
    if eta is not None and not 0 < eta <= 1:
        raise ConfigError(f"sensor.eta out of range (0, 1]: {eta}")
    if length is not None and not 0 <= length < math.inf:
        raise fail("sensor.length", "must be finite and >= 0")
    loss = setting["sensor.alpha_loss"] = number("sensor.alpha_loss", geometry.alpha_loss)
    if not 0 <= loss < math.inf:
        raise fail("sensor.alpha_loss", "must be finite and >= 0")
    if length is not None and command != "improvement":  # its sweep overrides the length
        eta_length = efficiency(loss, length)
        if not 0 < eta_length <= 1:
            raise ConfigError(
                f"line {values['sensor.length'][1]}: sensor.length = "
                f"{values['sensor.length'][0]!r} with sensor.alpha_loss = {loss!r} "
                f"gives eta = e^(-alpha_loss * length) = {eta_length!r}, outside (0, 1]")

    sweep_set = any(key.startswith("sweep.") for key in values)
    sweep = None
    if command in _SWEEPS:
        variables = _SWEEPS[command]
        variable = values.get("sweep.variable", (next(iter(variables)),))[0]
        if variable not in variables:
            raise ConfigError(
                f"command {command!r} sweeps one of {tuple(variables)}, got {variable!r}")
        start, stop, points, scale, overridden = variables[variable]
        for key in overridden:
            if key in values:
                raise fail(key, f"is overridden by the {variable} sweep")
        sweep = SweepSpec(variable, number("sweep.start", start), number("sweep.stop", stop),
                          number("sweep.points", points), values.get("sweep.scale", (scale,))[0])
    elif sweep_set:
        raise ConfigError(f"command {command!r} does not take a sweep")

    for key, default in (("jsi.points", 200), ("jsi.span", None), ("pump.delta_p", 0.0),
                         ("sensor.phi", math.pi / 2), ("improvement.decay_ratio", None)):
        setting[key] = number(key, default)
    span = setting["jsi.span"]
    if span is not None and not (math.isfinite(span) and span > 0):
        raise fail("jsi.span", "must be positive and finite")
    for key in ("pump.alpha_c", "pump.p_c", "pump.delta_p", "sensor.phi"):
        if setting[key] is not None and not math.isfinite(setting[key]):
            raise fail(key, "must be finite")
    ratio = setting["improvement.decay_ratio"]
    if ratio is not None and ratio <= 0:
        raise fail("improvement.decay_ratio", "must be positive")

    # The hashed text: every key but the sweep's, which enter only when set.
    resolved = {f"geometry.{f.name}": getattr(geometry, f.name) for f in fields(RingGeometry)}
    resolved.update(setting)
    if sweep_set:
        resolved.update((f"sweep.{f.name}", getattr(sweep, f.name)) for f in fields(SweepSpec))
    return RunConfig(command=command, geometry=geometry, sweep=sweep,
                     **{name: setting[key] for key, name in _FIELDS.items()},
                     resolved={key: str(value) for key, value in resolved.items()})


def _resolve_drive(cfg: RunConfig, rates: CavityRates, gain: float):
    """(injection, alpha_c, pump_power) for the configured pump block."""
    omega_p = cfg.geometry.pump_frequency()
    if cfg.p_l is not None:
        injection = sigma_from_power(cfg.p_l, rates, gain, omega_p, cfg.delta_p)
        pump_power = cfg.p_l
    else:
        injection = Injection(cfg.sigma_n)
        pump_power = cfg.sigma_n * threshold_power(rates, gain, omega_p, cfg.delta_p)
    alpha_c = cfg.alpha_c
    if alpha_c is None:
        alpha_c = math.sqrt(cfg.p_c / (HBAR * omega_p))
    return injection, alpha_c, pump_power


# The flag kinds by code, as cells from byte 0 (see Cells): their text and signed widths.
_FLAG_TEXT = np.array([b"", b"pole", b"domain", b"threshold"], "S9").view(np.uint8).reshape(4, 9)
_FLAG_WIDTHS = np.array([0, -4, -6, -9], np.int8)


def _flags(size: int, threshold=False, domain=False, pole=False) -> Cells:
    """Flag column as Cells from row masks: threshold outranks domain, domain outranks pole."""
    kind = np.where(threshold, 3, np.where(domain, 2, np.where(pole, 1, 0)))
    if kind.ndim:
        return Cells(_FLAG_TEXT.take(kind, axis=0), _FLAG_WIDTHS.take(kind))
    return Cells(np.broadcast_to(_FLAG_TEXT[kind], (size, 9)),  # one kind: a read-only view
                 np.broadcast_to(_FLAG_WIDTHS[kind], size))


# The keys the rates, then the four-wave-mixing strength, are derived from.
_RATE_KEYS = ("geometry.ring_length", "geometry.n_eff", "geometry.cross_coupling",
              "geometry.alpha_loss")
_GAIN_KEYS = ("geometry.ring_length", "geometry.n_g", "geometry.n2", "geometry.a_eff",
              "geometry.lambda_p")


def _derive(cfg: RunConfig) -> tuple[CavityRates, float]:
    """(rates, gain) of the geometry, once the rates, g, gamma_nl and P_th are checked
    finite: a value that overflows is a ConfigError naming the keys it comes from."""
    def fail(problem: str, keys) -> ConfigError:
        return ConfigError(f"{problem} (from {', '.join(keys)})")

    try:
        rates = derive_rates(cfg.geometry)
    except DomainError as exc:  # a rate is not finite
        raise fail(str(exc), _RATE_KEYS) from exc
    strength = fwm_gain(cfg.geometry)
    if not math.isfinite(strength.gain + strength.gamma_nl):
        raise fail(f"g = {strength.gain!r} and gamma_nl = {strength.gamma_nl!r} must be finite",
                   _GAIN_KEYS)
    if strength.gain > 0 and rates.kappa > 0:  # else there is no threshold: the commands say so
        p_th = threshold_power(rates, strength.gain, cfg.geometry.pump_frequency(), cfg.delta_p)
        if not 0 < p_th < math.inf:
            raise fail(f"p_th = {p_th!r} must be positive and finite",
                       _RATE_KEYS + _GAIN_KEYS[1:] + ("pump.delta_p",))
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
    columns, data = builder(cfg, rates, gain)
    return ResultTable(columns=columns, data=data, meta=meta)


def _run_rates(cfg: RunConfig, rates: CavityRates, gain: float):
    omega_p = cfg.geometry.pump_frequency()
    strength = fwm_gain(cfg.geometry)
    p_th = threshold_power(rates, gain, omega_p, cfg.delta_p)
    columns = ["kappa", "gamma", "gamma_total", "t_round", "t_trans", "g", "gamma_nl", "p_th"]
    values = [rates.kappa, rates.gamma, rates.gamma_total, rates.t_round, rates.t_trans,
              strength.gain, strength.gamma_nl, p_th]
    return columns, [np.array([value]) for value in values]


def _run_squeezing(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, _, _ = _resolve_drive(cfg, rates, gain)
    phi_lo = cfg.sweep.grid()
    columns = ["phi_lo", "variance", "variance_db", "flag"]
    try:
        variance = quadrature_variance(rates, injection, phi_lo)
    except ThresholdError:  # the injection, and so the flag, is fixed per table
        infinite = np.full(phi_lo.size, math.inf)
        return columns, [phi_lo, infinite, infinite, _flags(phi_lo.size, threshold=True)]
    return columns, [phi_lo, variance, to_db(variance), _flags(phi_lo.size)]


def _run_jsi(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, _, _ = _resolve_drive(cfg, rates, gain)
    if injection.sigma_n >= 1:  # before any row, as rows are computed lazily
        raise ConfigError(f"jsi needs a drive below threshold, got sigma_n = {injection.sigma_n!r}")
    span = cfg.jsi_span if cfg.jsi_span is not None else 3.0 * rates.gamma_total
    if not math.isfinite(span / rates.gamma_total):
        raise ConfigError(f"jsi.span = {span!r} is more than 1e308 Gamma = {rates.gamma_total!r}")
    axis = np.linspace(-span, span, cfg.jsi_points)
    cells = _format_e17(axis, widths=True)  # each axis value formatted once
    idler, per = cells[None], max(1, _WRITE_BLOCK_ROWS // axis.size)  # signal rows per block
    marks = idler.cuts[1]  # where the axis cells change width, found once per table

    def block(k: int) -> list:
        a, b = k * per, (k + 1) * per
        signal = cells[a:b, None]  # its Cells.cuts, from the marks inside (a, b)
        signal.cuts = [[m - a for m in marks[bisect.bisect_right(marks, a):
                                             bisect.bisect_left(marks, b)]], []]
        return [signal, idler, jsi_density(rates, injection, axis[a:b, None], axis)]

    return ["delta_ws", "delta_wi", "value"], LazyBlocks(-(-axis.size // per), block)


def _run_meanfield(cfg: RunConfig, rates: CavityRates, gain: float):
    grid = cfg.sweep.grid()
    try:
        columns = comparison_columns(rates, gain, grid)
    except ConvergenceError as exc:
        keys = ("sweep.start", "sweep.stop") + _RATE_KEYS + _GAIN_KEYS[1:]
        raise ConfigError(f"no mean-field steady state at sigma_n = {float(grid[exc.index])!r}: "
                          f"{exc} (from {', '.join(keys)})") from exc
    flags = _flags(columns["sigma_n"].size, threshold=np.isinf(columns["ns_lin"]))
    return [*columns, "flag"], [*columns.values(), flags]


def _run_sensitivity(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, alpha_c, pump_power = _resolve_drive(cfg, rates, gain)
    sweep = cfg.sweep
    grid = sweep.grid()
    eta = cfg.eta_value
    omega_p = cfg.geometry.pump_frequency()
    if sweep.variable == "p_c":  # at phi = pi/2; sensor.phi is not read
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
        return columns, leading + [infinite] * 3 + [_flags(grid.size, threshold=True)]
    # The coherent reference needs a probe: no probe is a domain row. A coherent probe with
    # a vacuum port reads 1/(sqrt(eta) alpha_c |sin phi|), a pole where its slope
    # eta N |sin phi| is within POLE_TOLERANCE eta N of zero; sin(pi/2) is exactly 1.
    domain = np.asarray(alpha_c) <= 0
    sine = np.abs(np.sin(phi))
    with np.errstate(divide="ignore", over="ignore"):  # both only where the row is inf
        coherent = np.where(sine > POLE_TOLERANCE, coherent_sensitivity(alpha_c, eta) / sine,
                            math.inf)
    quantum = HBAR * omega_p
    with np.errstate(divide="ignore"):  # no photons at all: a domain row
        snl = 1.0 / np.sqrt(photons + pump_power / quantum)
    if pump_power / quantum == math.inf:  # a pump flux beyond the float range; P is finite
        snl = math.sqrt(quantum) / np.sqrt(photons * quantum + pump_power)
    return columns, leading + [np.where(domain | pole, math.inf, squeezed),
                               np.where(domain, math.inf, coherent),
                               np.where(domain, math.inf, snl),
                               _flags(grid.size, domain=domain, pole=pole)]


def _run_pole(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, _, _ = _resolve_drive(cfg, rates, gain)
    alpha_c = cfg.sweep.grid()
    _check_probe(alpha_c, cfg)
    columns = ["alpha_c", "dphi_squeezed", "flag"]
    try:
        dphi, _, pole = mzi_sensitivity(alpha_c, math.pi / 2, cfg.eta_value, rates, injection)
    except ThresholdError:
        return columns, [alpha_c, np.full(alpha_c.size, math.inf),
                         _flags(alpha_c.size, threshold=True)]
    return columns, [alpha_c, dphi, _flags(alpha_c.size, pole=pole)]


def _run_improvement(cfg: RunConfig, rates: CavityRates, gain: float):
    # Sweep protocol: gamma adjusted at fixed kappa to reach the target
    # decay ratio, sigma_n held at the configured value.
    ratio = cfg.decay_ratio if cfg.decay_ratio is not None else decay_ratio(rates)
    # A configured ratio is positive (parse_config); the geometry's is 0 where kappa = 0.
    gamma = rates.kappa / ratio if ratio > 0 else math.nan
    if not math.isfinite(gamma):
        raise ConfigError(f"improvement.decay_ratio = {ratio!r} with kappa = {rates.kappa!r} "
                          f"(geometry.cross_coupling) gives gamma = {gamma!r}, not finite")
    ring = CavityRates(kappa=rates.kappa, gamma=gamma)
    if cfg.p_l is not None:  # sigma_n = p_l / P_th of this ring
        p_th = threshold_power(ring, gain, cfg.geometry.pump_frequency(), cfg.delta_p)
        if not 0 < p_th < math.inf:
            raise ConfigError(f"the improvement ring's p_th = {p_th!r} must be positive and finite "
                              "(from improvement.decay_ratio, geometry.cross_coupling, pump.p_l)")
    injection, alpha_c, _ = _resolve_drive(cfg, ring, gain)
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
        return columns, [lengths, eta, np.full(lengths.size, math.inf),
                         _flags(lengths.size, threshold=True)]
    domain = eta == 0  # a long sensor's e^(-alpha L) underflows: no light reaches the detector
    with np.errstate(invalid="ignore"):  # inf/inf on domain rows
        factor = np.where(domain | pole, math.inf, coherent_sensitivity(alpha_c, eta) / squeezed)
    return columns, [lengths, eta, factor, _flags(lengths.size, domain=domain, pole=pole)]


_POWER_RANGE = range(342, -293, -1)  # 10^(17 - k) for every decimal exponent k of a finite float
_SPLIT = 2.0 ** 27 + 1  # Dekker's split of a double into two 26-bit halves


@functools.cache
def _e17_tables():
    """Built on the first write, from integers. At k + 325, k a decimal exponent: rows (hi, hi's
    Dekker halves, lo) and shifts, 10^(17 - k) = (hi + lo) 2^shift, hi in [1/2, 2]; 'e-32' ..
    'e+30' as '<u4' words, the fifth bytes of 'e-325' .. 'e+309'; the signed width (see Cells),
    at 635 + k + 325 if negative. The '<u4' words of NUL or '-', digit, '.', digit at D // 10^16
    (+ 100 if negative) and of 0000 .. 9999; the dtype of a cell's 25 bytes as such words. The
    cells of 0, -0, inf, -inf, nan, nan (at 2 isinf + 4 isnan + signbit), and their widths."""
    powers = []
    for p in _POWER_RANGE:
        e = (10 ** abs(p)).bit_length() * (1 if p >= 0 else -1)
        n, d = (10 ** p, 1 << e) if p >= 0 else (1 << -e, 10 ** -p)
        hi = n / d  # int / int is correctly rounded, and so is the remainder
        hn, hd = hi.as_integer_ratio()
        head = _SPLIT * hi - (_SPLIT * hi - hi)
        powers.append((hi, head, hi - head, (n * hd - hn * d) / (d * hd), e))
    exponents, powers = [b"e%+03d" % k for k in range(-325, 310)], np.array(powers)
    widths = [19 + len(text) for text in exponents]
    words = lambda texts: np.frombuffer(b"".join(texts), "<u4")  # noqa: E731
    special = [b"%.17e" % value for value in (0.0, -0.0, math.inf, -math.inf, math.nan, math.nan)]
    return (powers[:, :4].copy(), powers[:, 4].astype(np.int32), words(t[:4] for t in exponents),
            np.frombuffer(b"".join(t[4:] or b"\0" for t in exponents), np.uint8),
            np.array(widths + [-1 - width for width in widths], np.int8),
            words(s + b"%d.%d" % divmod(i, 10) for s in (b"\0", b"-") for i in range(100)),
            words(b"%04d" % i for i in range(10 ** 4)),
            np.dtype([("head", "<u4"), ("quads", "<u4", 4), ("exponent", "<u4"), ("tail", "u1")]),
            np.array(special, "S25").view(np.uint8).reshape(-1, 25),
            np.array([-len(text) for text in special], np.int8))


def _scaled_digits(m, e2, index):
    """floor and fraction of m 2^e2 10^(17 - k), k = index - 325, exact to about 2^-100: Dekker's
    product, each term written over a row of powers gathered as rows (2x faster than by column)."""
    hi, hi_head, hi_tail, lo = _e17_tables()[0].take(index, axis=0).T.copy()
    head, m_head = m * hi, _SPLIT * m
    m_head -= m_head - m
    m_tail = m - m_head
    error = np.multiply(m_head, hi_head, out=hi)
    error -= head
    error += np.multiply(m_head, hi_tail, out=m_head)
    error += np.multiply(m_tail, hi_head, out=hi_head)
    error += np.multiply(m_tail, hi_tail, out=hi_tail)
    error += np.multiply(m, lo, out=lo)
    del m_head, m_tail
    scale = e2 + _e17_tables()[1].take(index)
    whole = np.floor(np.ldexp(error, scale, out=error), out=lo)
    digits = np.ldexp(head, scale, out=head).astype(np.int64)
    digits += whole.astype(np.int64)
    return digits, error - whole  # a new array: the gathered powers are freed on return


@dataclass
class Cells:
    """Cells of a CSV column: their text as uint8 of ``shape`` + (bytes,), NUL-padded, and
    each cell's length in bytes, negated where the text starts at byte 0 instead of 1."""

    text: np.ndarray
    widths: np.ndarray

    shape = property(lambda self: self.widths.shape)

    def __getitem__(self, index) -> Cells:
        return Cells(self.text[index], self.widths[index])

    @functools.cached_property
    def cuts(self) -> list[list[int]]:
        """Of 2-D cells, per axis: the indices whose widths differ from the ones before."""
        return [(np.flatnonzero(np.diff(self.widths, axis=axis).any(axis=1 - axis)) + 1).tolist()
                if self.shape[axis] > 1 else [] for axis in (0, 1)]


def _format_e17(values, widths: bool = False):
    """Each value's '%.17e' text, byte for byte, as uint8 of shape + (25,), NUL-padded;
    with ``widths``, as Cells.

    The 18 significant digits D = round(|x| 10^(17-k)) are taken in double-double
    arithmetic; values within 2^-30 of a rounding tie go to '%'. A cell is 23 bytes,
    plus 1 for a '-' in byte 0 (else byte 0 is a NUL) and 1 for a 3-digit exponent. A
    '%' cell, and a cell of 0, inf or nan (copied from a table), starts at byte 0 and is
    as long as its text. The others are written as words: sign, digit, '.', digit;
    4 x 4 digits; 'e+NN'; a last byte.
    """
    _, _, exponents, tails, lengths, heads, quads, record, specials, special_widths = _e17_tables()
    x = np.asarray(values, dtype=np.float64).ravel()
    magnitude, special = np.abs(x), []  # special: the indices of 0, inf and nan
    if not 0 < magnitude.min(initial=1.0) <= magnitude.max(initial=1.0) < math.inf:
        special = (~((magnitude > 0) & (magnitude < math.inf))).nonzero()[0]
        magnitude[special] = 1.0  # 10^17 exactly, whose fraction is 0: no '%' below
    mantissa, e2 = np.frexp(magnitude)
    # k + 325, floored before the offset (325 - 1e-17 rounds to 325). floor(log10) can still
    # be one off: k is corrected from the floored digits, not the rounded ones.
    index = (np.floor(np.log10(magnitude, out=magnitude), out=magnitude) + 325).astype(np.intp)
    del magnitude  # each array is dropped once dead: the peak bounds the write block
    digits, fraction = _scaled_digits(mantissa, e2, index)
    if digits.min(initial=10 ** 17) < 10 ** 17 or digits.max(initial=0) >= 10 ** 18:
        redo = ((digits < 10 ** 17) | (digits >= 10 ** 18)).nonzero()[0]
        index[redo] += np.where(digits[redo] < 10 ** 17, -1, 1)
        digits[redo], fraction[redo] = _scaled_digits(mantissa[redo], e2[redo], index[redo])
    del mantissa, e2
    digits += fraction >= 0.5
    fallback = (np.abs(fraction - 0.5) < 2.0 ** -30).nonzero()[0]
    del fraction
    if digits.max(initial=0) == 10 ** 18:  # 18 nines rounded up
        index += (carry := digits == 10 ** 18)
        digits[carry] = 10 ** 17
    # The 16 last digits in 4-digit groups, in contiguous rows: 1st, 3rd, 2nd, 4th.
    groups = np.empty((4, x.size), np.int64)
    np.subtract(digits, (first := digits // 10 ** 8) * 10 ** 8, out=groups[3])
    np.subtract(first, (digits := first // 10 ** 8) * 10 ** 8, out=groups[2])
    del first
    np.floor_divide(groups[2:], 10 ** 4, out=groups[:2])
    groups[2:] -= groups[:2] * 10 ** 4
    cells = (out := np.empty((x.size, 25), np.uint8)).view(record)[:, 0]
    cells["head"] = heads.take(digits + 100 * (negative := np.signbit(x)))
    del digits
    words = quads.take(groups)
    del groups
    for j, word in zip((0, 2, 1, 3), words):  # per word: 2x faster than (n, 4)
        cells["quads"][:, j] = word
    cells["exponent"], cells["tail"] = exponents.take(index), tails.take(index)
    text = ["%.17e" % value for value in x[fallback].tolist()]
    if text:
        out[fallback] = np.array(text, dtype="S25").view(np.uint8).reshape(-1, 25)
    if len(special):
        code = 2 * np.isinf(x[special]) + 4 * np.isnan(x[special]) + negative[special]
        out[special] = specials.take(code, axis=0)
    out = out.reshape(np.shape(values) + (25,))
    if not widths:
        return out
    width = lengths.take(index + 635 * negative)
    if text:
        width[fallback] = [-len(cell) for cell in text]
    if len(special):
        width[special] = special_widths.take(code)
    return Cells(out, width.reshape(np.shape(values)))


def _text_cells(column) -> Cells:
    """A 2-D text column as Cells of shape (outer, span, 1), each cell from byte 0 (a cell
    holds no NUL: its width is its count of other bytes)."""
    text = np.ascontiguousarray(column, dtype="S" if column.dtype.kind == "U" else None)
    text = text.view(np.uint8).reshape(text.shape + (1, text.itemsize))
    return Cells(text, -np.count_nonzero(text, axis=-1))


# One dtype object per width: parsing "S25" at every copy costs more than a small copy.
_bytes = functools.cache(lambda width: np.dtype(f"S{width}"))


def _chunk(columns: list, runs: list) -> np.ndarray:
    """The rows of ``columns``, which broadcast to (outer, span), as CSV bytes in C order.

    Numbers are formatted together. Each Cells column passed in has one width in each
    span [a, b) of ``runs``. A chunk of one row (outer = 1) is cut further, wherever a
    column's cell width changes; in a chunk of several rows, the other columns must fit
    the runs as they are. The rows of each run are copied at their widths through one
    (outer, b - a, row) view, as 2-D bytes. Where a run of several rows mixes widths, or
    a chunk of one row is cut further once per fewer than _RUN_ROWS rows, every cell is
    copied NUL-padded and the NULs are removed.
    """
    kinds = ["cells" if isinstance(c, Cells) else "text" if c.dtype.kind in "SU" else "number"
             for c in columns]
    numbers = [c for c, kind in zip(columns, kinds) if kind == "number"]
    if len({c.shape for c in numbers}) > 1:
        numbers = np.broadcast_arrays(*numbers)
    formatted = numbers and _format_e17(  # one column is formatted through a view: no copy
        np.stack(numbers, axis=-1) if len(numbers) > 1 else numbers[0][..., None], widths=True)
    # Cells of shape (outer or 1, span or 1, columns): one per run of adjacent numeric
    # columns, one per other column. Only those passed in as Cells are known to fit the runs.
    segments, varying, j = [], [], 0
    for kind, group in itertools.groupby(range(len(columns)), kinds.__getitem__):
        if kind == "number":
            j += (count := len(list(group)))
            segments.append(formatted if count == len(numbers) else formatted[:, :, j - count:j])
        for i in () if kind == "number" else group:
            segments.append(columns[i][:, :, None] if kind == "cells" else _text_cells(columns[i]))
        varying += segments[-1:] if kind != "cells" else []
    outer, span, _ = map(max, zip(*(c.shape for c in segments)))
    if outer == 1:  # cut where the widths of any column change; per column, 4x faster than any()
        changed = np.zeros(span - 1, bool)
        for c in segments:
            for w in c.widths[0].T if c.shape[1] > 1 else ():
                changed |= w[1:] != w[:-1]
        cuts = np.flatnonzero(changed)
        if fixed := (cuts.size + 1 - len(runs)) * _RUN_ROWS < span:
            marks = [0, *(cuts + 1).tolist(), span]
            runs = list(zip(marks, marks[1:]))
    else:  # whether each run of the others holds one width: as bytes, cheaper than numpy's
        fixed = all((w := c.widths[:, a:b]).tobytes()
                    == w[:1, :1].tobytes() * (w.size // w.shape[2])
                    for c in varying for a, b in runs)
    if fixed:  # each column's width in each run, from one take per segment
        starts = [a for a, _ in runs]
        layout = [(a, b, ws) for (a, b), ws in zip(runs, zip(*(
            c.widths[0].take(starts, axis=0, mode="clip").tolist() for c in segments)))]
    else:  # every cell padded, from byte 0
        layout = [(0, span, [[-c.text.shape[-1]] * c.shape[2] for c in segments])]
    sizes = [(b - a) * sum(abs(w) + 1 for ws in widths for w in ws) for a, b, widths in layout]
    out, at = np.full((outer, sum(sizes)), ord(","), np.uint8), 0
    for (a, b, widths), size in zip(layout, sizes):
        row, pos, at = size // (b - a), at, at + size
        for c, ws in zip(segments, widths):
            part, first = slice(a, b) if c.shape[1] > 1 else slice(None), 0
            for w, same in itertools.groupby(ws):  # adjacent columns of one width: one copy
                count, start, width = len(list(same)), int(w > 0), abs(w)
                if width:  # each cell copied as one S item; an empty flag copies nothing
                    np.ndarray((outer, b - a, count, 1), _bytes(width), out, pos,
                               (out.strides[0], row, width + 1, 1))[...] = c.text[
                        :, part, first:first + count, start:start + width].view(_bytes(width))
                pos, first = pos + count * (width + 1), first + count
        out[:, at - size + row - 1:at:row] = ord("\n")
    return out if fixed else out[out != 0]


def _chunks(block: list):
    """The rows of a block as _chunk bytes of at most _WRITE_BLOCK_ROWS rows each.

    A 1-D block is one row of 2-D columns, which _chunk cuts itself. A 2-D block is
    also cut where the widths of a Cells column change, along either axis.
    """
    block = [c if len(c.shape) == 2 else c[None] for c in block]
    outer, span = map(max, zip(*(c.shape for c in block)))
    cuts = [c.cuts for c in block if isinstance(c, Cells)] if outer > 1 else []
    if not cuts and outer * span <= _WRITE_BLOCK_ROWS:  # one chunk, one run
        yield _chunk(block, [(0, span)])
        return
    row_marks = sorted({*range(0, outer, max(1, _WRITE_BLOCK_ROWS // span)), outer,
                        *(i for rows, _ in cuts for i in rows)})
    for j0 in range(0, span, _WRITE_BLOCK_ROWS):
        j1 = min(j0 + _WRITE_BLOCK_ROWS, span)
        marks = sorted({j0, j1, *(j for _, cols in cuts for j in cols if j0 < j < j1)})
        runs = [(a - j0, b - j0) for a, b in zip(marks, marks[1:])]
        for i0, i1 in zip(row_marks, row_marks[1:]):
            yield _chunk([c[slice(i0, i1) if c.shape[0] > 1 else slice(None),
                            slice(j0, j1) if c.shape[1] > 1 else slice(None)] for c in block], runs)


@contextmanager
def _overwrite(path: str):
    """A binary handle that writes over the file at path from byte 0, creating it if need be.

    The file is opened without O_TRUNC: freeing a previous file's blocks first costs more
    than writing over them. Once the handle is closed, a regular file that is longer than
    what reached it is cut there, also after a failure, so no byte of the previous file
    remains. A new file, or one the table outgrew, takes no cut.
    """
    # O_BINARY (Windows only): without it the C runtime writes each '\n' as '\r\n'.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb", closefd=False) as handle:
            yield handle
    finally:
        try:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):  # /dev/null and FIFOs take no cut (and cannot seek)
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if st.st_size > end:
                    os.ftruncate(fd, end)
        finally:
            os.close(fd)


def write_table(table: ResultTable, path: str | None) -> None:
    """Write the table as CSV with '#'-prefixed metadata lines.

    Each block goes out in _chunks: numbers as Python's '%.17e' byte for byte
    ('inf', 'nan' as such), text, preformatted numbers and flags as is. The bytes
    go over the file in place (see _overwrite) or to stdout's binary buffer. Output
    bytes are a pure function of the table contents, so identical configurations
    produce identical files.
    """
    header = [f"# {k}={table.meta[k]}" for k in sorted(table.meta)] + [",".join(table.columns)]
    if path is None:
        sys.stdout.flush()  # text already written to stdout goes first
    with nullcontext(sys.stdout.buffer) if path is None else _overwrite(path) as handle:
        handle.write(("\n".join(header) + "\n").encode())
        # Unlike for loops, writelines and chain drop each chunk, and each block once its
        # chunks are written, before they make the next.
        handle.writelines(itertools.chain.from_iterable(map(_chunks, table.blocks)))


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
        table = run_command(cfg)
    except (ConfigError, DomainError) as exc:
        print(f"ringmzi: config error: {exc}", file=sys.stderr)
        return 2

    try:
        write_table(table, args.out)
    except OSError as exc:
        print(f"ringmzi: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
