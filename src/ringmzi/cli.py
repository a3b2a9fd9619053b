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
from .cavity_io import output_moments, quadrature_variance, to_db
from .constants import HBAR
from .errors import ConfigError, DomainError, ThresholdError
from .interferometer import (POLE_TOLERANCE, SensorSpec, coherent_sensitivity, decay_ratio,
                             phase_readout, shot_noise_limit, squeezed_sensitivity)
from .meanfield import comparison_columns
from .params import (CavityRates, Injection, REFERENCE_GEOMETRY, RingGeometry, derive_rates,
                     fwm_gain, sigma_from_power, threshold_power)

COMMANDS = ("rates", "squeezing", "jsi", "meanfield", "sensitivity", "pole", "improvement")

# The RunConfig field of each pump, sensor, jsi and improvement key. The
# geometry.* and sweep.* keys are the fields of RingGeometry and SweepSpec.
_FIELDS = {
    "pump.sigma_n": "sigma_n", "pump.p_l": "p_l", "pump.p_c": "p_c", "pump.alpha_c": "alpha_c",
    "pump.delta_p": "delta_p", "sensor.phi": "phi", "sensor.eta": "eta",
    "sensor.length": "sensor_length", "sensor.alpha_loss": "sensor_alpha_loss",
    "jsi.span": "jsi_span", "jsi.points": "jsi_points", "improvement.decay_ratio": "decay_ratio",
}

# Each sweeping command's variables, the first its default, and each
# variable's default (start, stop, points, scale); phi has no default bounds.
_SWEEPS = {
    "squeezing": {"phi_lo": (0.0, math.pi, 181, "linear")},
    "meanfield": {"sigma_n": (0.1, 1.15, 22, "linear")},
    "sensitivity": {"p_c": (1e-8, 1.0, 161, "log"), "phi": (None, None, 101, "linear")},
    "pole": {"alpha_c": (1e1, 1e6, 201, "log")},
    "improvement": {"sensor_length": (1e-3, 1e2, 181, "log")},
}

# Sweep variables whose negative values have no meaning.
_NONNEGATIVE_SWEEPS = ("sigma_n", "p_c", "alpha_c", "sensor_length")

# Rows formatted per write; bounds the text held in memory for large tables.
_WRITE_BLOCK_ROWS = 4096

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
    numeric column is a float array or a list of its values already
    formatted ``%.17e``; ``flag`` is a string array. ``data`` is either the
    whole table as one block of columns or a LazyBlocks.
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

    @property
    def rows(self) -> list[list]:
        """The table row by row (Python floats and strings; text is read back with float())."""
        return [list(row) for block in self.blocks for row in zip(*(
            list(map(float, c)) if isinstance(c, list) else c.tolist() for c in block))]


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
    loss = setting["sensor.alpha_loss"] = number("sensor.alpha_loss", geometry.alpha_loss)
    if not 0 <= loss < math.inf:
        raise fail("sensor.alpha_loss", "must be finite and >= 0")
    # improvement sweeps the length itself: there a dark sensor is a domain row.
    if length is not None and command != "improvement":
        eta_length = math.exp(-loss * length)
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
        start, stop, points, scale = variables[variable]
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
    for key in ("pump.delta_p", "sensor.phi"):
        if not math.isfinite(setting[key]):
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
        injection = Injection.from_sigma_n(cfg.sigma_n, rates)
        pump_power = cfg.sigma_n * threshold_power(rates, gain, omega_p, cfg.delta_p)
    alpha_c = cfg.alpha_c
    if alpha_c is None:
        alpha_c = math.sqrt(cfg.p_c / (HBAR * omega_p))
    return injection, alpha_c, pump_power


def _sensor_spec(cfg: RunConfig, pump_power: float) -> SensorSpec:
    """The configured sensor (probe left out); a sweep evaluates it over its grid."""
    kwargs = dict(phi=cfg.phi, alpha_l_power=pump_power, omega_p=cfg.geometry.pump_frequency())
    if cfg.sensor_length is not None:
        return SensorSpec(sensor_length=cfg.sensor_length, alpha_loss=cfg.sensor_alpha_loss, **kwargs)
    return SensorSpec(eta=cfg.eta, **kwargs)


def _flags(size: int, threshold=False, domain=False, pole=False) -> np.ndarray:
    """Flag column from row masks: threshold outranks domain, domain outranks pole."""
    flags = np.where(threshold, "threshold", np.where(domain, "domain", np.where(pole, "pole", "")))
    return np.broadcast_to(flags, size)


def run_command(cfg: RunConfig) -> ResultTable:
    """Evaluate one command; per-point physics errors become flagged rows."""
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    rates = derive_rates(cfg.geometry)
    gain = fwm_gain(cfg.geometry).gain
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
    # A variance rounded to 0 (a lossless ring near threshold) has no dB value.
    domain = ~(variance > 0)
    variance = np.where(domain, math.inf, variance)
    return columns, [phi_lo, variance, to_db(variance), _flags(phi_lo.size, domain=domain)]


def _run_jsi(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, _, _ = _resolve_drive(cfg, rates, gain)
    if injection.sigma_mag >= rates.gamma_total:  # before any row, as rows are computed lazily
        raise ConfigError(f"jsi needs a drive below threshold, got sigma_n = {injection.sigma_n!r}")
    span = cfg.jsi_span if cfg.jsi_span is not None else 3.0 * rates.gamma_total
    axis = np.linspace(-span, span, cfg.jsi_points)
    labels = ["%.17e" % value for value in axis.tolist()]  # each axis value formatted once
    return ["delta_ws", "delta_wi", "value"], LazyBlocks(axis.size, lambda k: [
        [labels[k]] * axis.size, labels, jsi_density(rates, injection, axis[k], axis)])


def _run_meanfield(cfg: RunConfig, rates: CavityRates, gain: float):
    columns = comparison_columns(rates, gain, cfg.sweep.grid())
    flags = _flags(columns["sigma_n"].size, threshold=np.isinf(columns["ns_lin"]))
    return [*columns, "flag"], [*columns.values(), flags]


def _run_sensitivity(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, alpha_c, pump_power = _resolve_drive(cfg, rates, gain)
    sweep = cfg.sweep
    grid = sweep.grid()
    spec = _sensor_spec(cfg, pump_power)
    eta = spec.eta_value
    if sweep.variable == "p_c":
        alpha_c, phi = np.sqrt(grid / (HBAR * cfg.geometry.pump_frequency())), cfg.phi
        columns = ["p_c", "alpha_c", "dphi_squeezed", "dphi_coherent", "dphi_snl", "flag"]
        leading = [grid, alpha_c]
    else:
        phi = grid
        columns = ["phi", "dphi_squeezed", "dphi_coherent", "dphi_snl", "flag"]
        leading = [grid]
    try:
        moments = output_moments(rates, injection)
    except ThresholdError:  # the injection, and so the flag, is fixed per table
        infinite = np.full(grid.size, math.inf)
        return columns, leading + [infinite] * 3 + [_flags(grid.size, threshold=True)]
    readout = phase_readout(alpha_c, phi, eta, moments)
    # The coherent reference needs a probe: no probe is a domain row.
    domain = (np.asarray(alpha_c) <= 0) | readout.domain
    coherent = coherent_sensitivity(alpha_c, eta)
    if sweep.variable == "p_c":
        squeezed, pole = squeezed_sensitivity(alpha_c, eta, rates, injection)
    else:
        # A coherent probe with a vacuum port reads 1/(sqrt(eta) alpha_c |sin phi|), a
        # pole where its slope eta N |sin phi| is within POLE_TOLERANCE eta N of zero.
        sine = np.abs(np.sin(grid))
        with np.errstate(divide="ignore", over="ignore"):  # both only where the row is inf
            coherent = np.where(sine > POLE_TOLERANCE, coherent / sine, math.inf)
        squeezed, pole = readout.dphi, readout.pole
    snl = shot_noise_limit(spec, readout.output)
    return columns, leading + [np.where(domain | pole, math.inf, squeezed),
                               np.where(domain, math.inf, coherent),
                               np.where(domain, math.inf, snl),
                               _flags(grid.size, domain=domain, pole=pole)]


def _run_pole(cfg: RunConfig, rates: CavityRates, gain: float):
    injection, _, pump_power = _resolve_drive(cfg, rates, gain)
    alpha_c = cfg.sweep.grid()
    eta = _sensor_spec(cfg, pump_power).eta_value
    columns = ["alpha_c", "dphi_squeezed", "flag"]
    try:
        dphi, pole = squeezed_sensitivity(alpha_c, eta, rates, injection)
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
    injection, alpha_c, pump_power = _resolve_drive(cfg, ring, gain)
    lengths = cfg.sweep.grid()
    columns = ["sensor_length", "eta", "improvement", "flag"]
    # math.exp per row, as SensorSpec.eta_value: np.exp differs in the last bit.
    eta = np.array([math.exp(-cfg.sensor_alpha_loss * length) for length in lengths.tolist()])
    if alpha_c <= 0:
        raise DomainError(f"the improvement needs a probe, alpha_c > 0, got {alpha_c}")
    try:
        squeezed, pole = squeezed_sensitivity(alpha_c, eta, ring, injection)
    except ThresholdError:
        return columns, [lengths, eta, np.full(lengths.size, math.inf),
                         _flags(lengths.size, threshold=True)]
    domain = eta == 0  # a long sensor's e^(-alpha L) underflows: no light reaches the detector
    with np.errstate(invalid="ignore"):  # inf/inf on domain rows
        factor = np.where(domain | pole, math.inf, coherent_sensitivity(alpha_c, eta) / squeezed)
    return columns, [lengths, eta, factor, _flags(lengths.size, domain=domain, pole=pole)]


def write_table(table: ResultTable, path: str | None) -> None:
    """Write the table as CSV with '#'-prefixed metadata lines.

    Numbers are written '%.17e' (which spells 'inf' and 'nan' as such); text,
    preformatted numbers and flags, as is. Output bytes are a pure function of
    the table contents, so identical configurations produce identical files.
    """
    header = [f"# {k}={table.meta[k]}" for k in sorted(table.meta)] + [",".join(table.columns)]
    width = len(table.columns)
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="\n")) as handle:
        handle.write("\n".join(header) + "\n")
        for block in table.blocks:
            line = ",".join("%s" if isinstance(column, list) or column.dtype.kind == "U"
                            else "%.17e" for column in block) + "\n"
            for start in range(0, len(block[0]), _WRITE_BLOCK_ROWS):
                rows = min(_WRITE_BLOCK_ROWS, len(block[0]) - start)
                cells = [None] * (rows * width)
                for j, column in enumerate(block):  # row-major: cell j of each row
                    part = column[start:start + rows]
                    cells[j::width] = part if isinstance(part, list) else part.tolist()
                handle.write(line * rows % tuple(cells))


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
