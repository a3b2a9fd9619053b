"""Batch command-line interface: config parsing, sweeps, CSV tables.

Configuration is flat ``section.key = value`` text ('#' starts a comment,
SI units throughout). Every physics error at a grid point flags the row
instead of aborting the run; only configuration problems change the exit
code (0 success, 2 config error, 3 I/O error).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from . import __version__
from .cavity_io import jsi as jsi_density
from .cavity_io import quadrature_variance, to_db
from .constants import HBAR
from .errors import ConfigError, DomainError, ThresholdError
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

# Rows formatted per write; bounds the text held in memory for large tables.
_WRITE_BLOCK_ROWS = 4096

# Smaller chunks are written by '%'. The array writer broke even at 210-280 cells of
# a 7-column table: 99 us against 76 us for '%' at 154 cells, 155 against 214 at 350,
# 0.68 ms against 2.0 ms at 4102 (medians of 7, 2 vCPU, Python 3.11, numpy 2.4).
_MIN_ARRAY_CELLS = 240

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

    A block holds one column per entry of ``columns``, all of one length. A
    numeric column is a float array or its cells formatted by ``_format_e17``,
    a (rows, 25) uint8 array; ``flag`` is a string array. ``data`` is either
    the whole table as one block of columns or a LazyBlocks.
    """

    columns: list[str]
    data: InitVar[list | LazyBlocks]
    meta: dict[str, str]
    blocks: Iterable[list] = field(init=False)

    def __post_init__(self, data) -> None:
        if not isinstance(data, LazyBlocks):
            data = [np.asarray(column) for column in data]
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


def _flags(size: int, threshold=False, domain=False, pole=False) -> np.ndarray:
    """Flag column from row masks: threshold outranks domain, domain outranks pole."""
    flags = np.where(threshold, "threshold", np.where(domain, "domain", np.where(pole, "pole", "")))
    return np.broadcast_to(flags, size)


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
    cells = _format_e17(axis)  # each axis value formatted once
    per = max(1, _WRITE_BLOCK_ROWS // axis.size)  # signal rows per block
    signal = [slice(start, start + per) for start in range(0, axis.size, per)]
    return ["delta_ws", "delta_wi", "value"], LazyBlocks(len(signal), lambda k: [
        np.repeat(cells[signal[k]], axis.size, axis=0), np.tile(cells, (len(cells[signal[k]]), 1)),
        jsi_density(rates, injection, axis[signal[k], None], axis).ravel()])


def _run_meanfield(cfg: RunConfig, rates: CavityRates, gain: float):
    columns = comparison_columns(rates, gain, cfg.sweep.grid())
    flags = _flags(columns["sigma_n"].size, threshold=np.isinf(columns["ns_lin"]))
    return [*columns, "flag"], [*columns.values(), flags]


def _run_sensitivity(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, alpha_c, pump_power = _resolve_drive(cfg, rates, gain)
    sweep = cfg.sweep
    grid = sweep.grid()
    eta = cfg.eta_value
    omega_p = cfg.geometry.pump_frequency()
    if sweep.variable == "p_c":  # at phi = pi/2; sensor.phi is not read
        alpha_c, phi = np.sqrt(grid / (HBAR * omega_p)), math.pi / 2
        columns = ["p_c", "alpha_c", "dphi_squeezed", "dphi_coherent", "dphi_snl", "flag"]
        leading = [grid, alpha_c]
    else:
        phi = grid
        columns = ["phi", "dphi_squeezed", "dphi_coherent", "dphi_snl", "flag"]
        leading = [grid]
    try:
        squeezed, photons, pole = mzi_sensitivity(alpha_c, phi, eta, rates, injection)
    except (ThresholdError, DomainError) as exc:  # the drive, and so the flag, is fixed per table
        infinite = np.full(grid.size, math.inf)
        flag = "threshold" if isinstance(exc, ThresholdError) else "domain"
        return columns, leading + [infinite] * 3 + [_flags(grid.size, **{flag: True})]
    # The coherent reference needs a probe: no probe is a domain row.
    domain = np.asarray(alpha_c) <= 0
    coherent = coherent_sensitivity(alpha_c, eta)
    if sweep.variable == "phi":
        # A coherent probe with a vacuum port reads 1/(sqrt(eta) alpha_c |sin phi|), a
        # pole where its slope eta N |sin phi| is within POLE_TOLERANCE eta N of zero.
        sine = np.abs(np.sin(grid))
        with np.errstate(divide="ignore", over="ignore"):  # both only where the row is inf
            coherent = np.where(sine > POLE_TOLERANCE, coherent / sine, math.inf)
    with np.errstate(divide="ignore"):  # no photons at all: a domain row
        snl = 1.0 / np.sqrt(photons + pump_power / (HBAR * omega_p))
    return columns, leading + [np.where(domain | pole, math.inf, squeezed),
                               np.where(domain, math.inf, coherent),
                               np.where(domain, math.inf, snl),
                               _flags(grid.size, domain=domain, pole=pole)]


def _run_pole(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, _, _ = _resolve_drive(cfg, rates, gain)
    alpha_c = cfg.sweep.grid()
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
    injection, alpha_c, _ = _resolve_drive(cfg, ring, gain)
    lengths = cfg.sweep.grid()
    columns = ["sensor_length", "eta", "improvement", "flag"]
    eta = efficiency(cfg.sensor_alpha_loss, lengths)
    if alpha_c <= 0:
        raise DomainError(f"the improvement needs a probe, alpha_c > 0, got {alpha_c}")
    try:
        squeezed, _, pole = mzi_sensitivity(alpha_c, math.pi / 2, eta, ring, injection)
    except ThresholdError:
        return columns, [lengths, eta, np.full(lengths.size, math.inf),
                         _flags(lengths.size, threshold=True)]
    domain = eta == 0  # a long sensor's e^(-alpha L) underflows: no light reaches the detector
    with np.errstate(invalid="ignore"):  # inf/inf on domain rows
        factor = np.where(domain | pole, math.inf, coherent_sensitivity(alpha_c, eta) / squeezed)
    return columns, [lengths, eta, factor, _flags(lengths.size, domain=domain, pole=pole)]


_POWER_RANGE = range(-292, 343)  # 10^(17 - k) for every decimal exponent k of a finite float
_SPLIT = 2.0 ** 27 + 1  # Dekker's split of a double into two 26-bit halves


@functools.cache
def _e17_tables():
    """Built on the first write, from integers: rows (hi, hi's Dekker halves, lo, shift)
    with 10^p = (hi + lo) 2^shift, hi in [1/2, 2], for p in _POWER_RANGE; 'e-325' ..
    'e+309' NUL-padded to 5 bytes, at 325 + k; the digits 0000 .. 9999 as uint32."""
    powers = []
    for p in _POWER_RANGE:
        e = (10 ** abs(p)).bit_length() * (1 if p >= 0 else -1)
        n, d = (10 ** p, 1 << e) if p >= 0 else (1 << -e, 10 ** -p)
        hi = n / d  # int / int is correctly rounded, and so is the remainder
        hn, hd = hi.as_integer_ratio()
        head = _SPLIT * hi - (_SPLIT * hi - hi)
        powers.append((hi, head, hi - head, (n * hd - hn * d) / (d * hd), e))
    exponents = b"".join(b"e%+03d" % k + b"\0" * (abs(k) < 100) for k in range(-325, 310))
    return (np.array(powers), np.frombuffer(exponents, np.uint8).reshape(-1, 5),
            np.frombuffer(b"".join(b"%04d" % i for i in range(10 ** 4)), np.uint32))


def _scaled_digits(m, e2, p):
    """floor and fraction of m 2^e2 10^p, the product exact to about 2^-100."""
    hi, hi_head, hi_tail, lo, shift = _e17_tables()[0][p - _POWER_RANGE.start].T
    head = m * hi
    m_head = _SPLIT * m - (_SPLIT * m - m)
    m_tail = m - m_head
    error = ((m_head * hi_head - head) + m_head * hi_tail + m_tail * hi_head) + m_tail * hi_tail
    scale = e2 + shift.astype(np.int32)
    rest = np.ldexp(error + m * lo, scale)
    whole = np.floor(rest)
    return np.ldexp(head, scale).astype(np.int64) + whole.astype(np.int64), rest - whole


def _format_e17(values) -> np.ndarray:
    """Each value's '%.17e' text, byte for byte, as uint8 of shape + (25,), NUL-padded.

    The 18 significant digits D = round(|x| 10^(17-k)) are taken in double-double
    arithmetic; 0, inf, nan and values within 2^-30 of a rounding tie go to '%'.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    finite = (x != 0) & np.isfinite(x)
    magnitude = np.where(finite, np.abs(x), 1.0)
    mantissa, e2 = np.frexp(magnitude)
    k = np.floor(np.log10(magnitude)).astype(np.int64)
    digits, fraction = _scaled_digits(mantissa, e2, 17 - k)
    # floor(log10) can be one off: correct k from the floored digits, not the rounded ones.
    if (redo := np.flatnonzero((digits < 10 ** 17) | (digits >= 10 ** 18))).size:
        k[redo] += np.where(digits[redo] < 10 ** 17, -1, 1)
        digits[redo], fraction[redo] = _scaled_digits(mantissa[redo], e2[redo], 17 - k[redo])
    digits += fraction >= 0.5
    k += (carry := digits == 10 ** 18)
    digits[carry] = 10 ** 17
    exponents, quads = _e17_tables()[1:]
    groups = np.empty((x.size, 5), np.int64)  # D in groups of 4 digits, the first < 100
    for j in (4, 3, 2, 1):
        digits, groups[:, j] = np.divmod(digits, 10 ** 4)
    groups[:, 0] = digits
    out = np.empty((x.size, 25), np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    out[:, 2:20] = quads[groups].view(np.uint8).reshape(-1, 20)[:, 2:]  # the 18 digits
    out[:, 1] = out[:, 2]
    out[:, 2] = ord(".")
    out[:, 20:] = exponents[k + 325]
    fallback = np.flatnonzero(~finite | (np.abs(fraction - 0.5) < 2.0 ** -30))
    text = np.array(["%.17e" % value for value in x[fallback].tolist()], dtype="S25")
    out[fallback] = text.view(np.uint8).reshape(-1, 25)
    return out.reshape(np.shape(values) + (25,))


def _chunk_text(parts: list) -> str:
    """Rows of the columns ``parts`` as CSV text: the cells, ',' and '\n' in one
    NUL-padded uint8 buffer, compacted once. Float columns are formatted together."""
    rows = len(parts[0])
    floats = [column for column in parts if column.ndim == 1 and column.dtype.kind == "f"]
    formatted = iter(_format_e17(np.stack(floats, axis=1)).swapaxes(0, 1) if floats else ())
    pieces = []
    for column in parts:
        if column.ndim == 1:  # floats, or text as 'S' strings, which are NUL-padded
            column = next(formatted) if column.dtype.kind == "f" else (
                column.astype("S").view(np.uint8).reshape(rows, -1))
        pieces += [column, np.full((rows, 1), ord(","), np.uint8)]
    pieces[-1] = np.full((rows, 1), ord("\n"), np.uint8)
    flat = np.concatenate(pieces, axis=1).ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def write_table(table: ResultTable, path: str | None) -> None:
    """Write the table as CSV with '#'-prefixed metadata lines.

    Numbers are written byte for byte as Python's '%.17e' (which spells 'inf'
    and 'nan' as such); text, preformatted numbers and flags, as is. Output
    bytes are a pure function of the table contents, so identical
    configurations produce identical files.
    """
    header = [f"# {k}={table.meta[k]}" for k in sorted(table.meta)] + [",".join(table.columns)]
    width = len(table.columns)
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as handle:
        handle.write("\n".join(header) + "\n")
        for block in table.blocks:
            line = ",".join("%s" if c.dtype.kind == "U" else "%.17e" for c in block) + "\n"
            for start in range(0, len(block[0]), _WRITE_BLOCK_ROWS):
                parts = [column[start:start + _WRITE_BLOCK_ROWS] for column in block]
                if len(parts[0]) * width >= _MIN_ARRAY_CELLS or any(c.ndim == 2 for c in parts):
                    handle.write(_chunk_text(parts))
                else:
                    handle.write("".join(line % row for row in zip(*(c.tolist() for c in parts))))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to main."""
    parser = argparse.ArgumentParser(
        prog="ringmzi",
        description="Microring squeezed-light interferometry design tables.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a key-value configuration file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
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
