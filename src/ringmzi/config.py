"""Run configuration: flat ``section.key = value`` text ('#' starts a comment, SI units
throughout) parsed into a validated RunConfig, or a ConfigError naming the key and line."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError
from .params import REFERENCE_GEOMETRY, RingGeometry, efficiency

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

# A sweep table is held whole: at most about 260 B per point (meanfield, +260 MB peak RSS at
# 1e6 points), about 95 B for the phase sweep. The bound applies to jsi.points (per axis) too.
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
            raise ConfigError("log sweeps need positive sweep.start and sweep.stop")
        if self.start == self.stop:
            raise ConfigError("sweep.start and sweep.stop must differ")
        if self.variable in _NONNEGATIVE_SWEEPS and min(self.start, self.stop) < 0:
            raise ConfigError(f"a {self.variable} sweep must not go below 0, got "
                              f"sweep.start .. sweep.stop = {self.start} .. {self.stop}")

    def grid(self) -> np.ndarray:
        """The sweep's points; a ConfigError where one of them leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            if self.scale == "log":
                grid = np.logspace(math.log10(self.start), math.log10(self.stop), self.points)
            else:
                grid = np.linspace(self.start, self.stop, self.points)
        if not np.isfinite(grid).all():
            raise ConfigError(f"the {self.scale} sweep from {self.start!r} to {self.stop!r} has "
                              "points beyond the float range (from sweep.start, sweep.stop)")
        return grid


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
    except DomainError as exc:  # each message starts with the field it checks
        raise ConfigError(f"geometry.{exc}") from exc

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
        key = next(key for key in values if key.startswith("sweep."))
        raise fail(key, f"is set, but command {command!r} does not take a sweep")

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
