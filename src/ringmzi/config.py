"""Run configuration: flat ``section.key = value`` text ('#' starts a comment, SI units
throughout) parsed into a validated RunConfig, or a ConfigError naming the key and line."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .params import REFERENCE_GEOMETRY, RingGeometry, efficiency, within

# A sweep table is held whole. At 1e6 points its peak RSS rises above the post-import baseline
# by about 178 MB (meanfield), 95-102 MB (the sensitivity sweeps) and 49-72 MB (squeezing, pole,
# improvement), so at most about 180 B per point. The bound applies to jsi.points too.
MAX_SWEEP_POINTS = 1_000_000
_POINTS = f"an integer in [2, {MAX_SWEEP_POINTS}]"

# Each number key: its field (of RingGeometry for a geometry key, of RunConfig.sweep for a sweep
# key, else of RunConfig), its default (None: unset; a sweep key's is its command's, in _SWEEPS,
# and sensor.alpha_loss's is geometry.alpha_loss) and the values it accepts, where a square
# bracket includes its end and a round one excludes it. The geometry rules are RingGeometry's.
_NUMBERS = {
    **{f"geometry.{name}": (name, getattr(REFERENCE_GEOMETRY, name), rule)
       for name, rule in RingGeometry.RULES.items()},
    "pump.sigma_n": ("sigma_n", 0.99895, "in [0, inf)"),
    "pump.p_l": ("p_l", None, "in [0, inf)"),
    "pump.p_c": ("p_c", None, "in [0, inf)"),
    "pump.alpha_c": ("alpha_c", 1e5, "in [0, inf)"),
    "pump.delta_p": ("delta_p", 0.0, "in (-inf, inf)"),
    "sensor.eta": ("eta", 1.0, "in (0, 1]"),
    "sensor.length": (None, None, "in [0, inf)"),  # no field: the run reads only its eta
    "sensor.alpha_loss": ("sensor_alpha_loss", None, "in [0, inf)"),
    "jsi.span": ("jsi_span", None, "in (0, inf)"),
    "jsi.points": ("jsi_points", 200, _POINTS),
    "improvement.decay_ratio": ("decay_ratio", None, "in (0, inf]"),  # inf: a lossless ring
    "sweep.start": ("start", None, "in (-inf, inf)"),
    "sweep.stop": ("stop", None, "in (-inf, inf)"),
    "sweep.points": ("points", None, _POINTS),
}

# Pairs of keys of which at most one is set; the first takes its default when neither is.
_EXCLUSIVE = (("pump.sigma_n", "pump.p_l"), ("pump.alpha_c", "pump.p_c"),
              ("sensor.eta", "sensor.length"))


# Each sweeping command's variables, the first its default, and each variable's
# default (start, stop, points, scale), phi without default bounds, and the keys it
# overrides, which are a config error.
_SWEEPS = {
    "squeezing": {"phi_lo": (0.0, math.pi, 181, "linear", ())},
    "meanfield": {"sigma_n": (0.1, 1.15, 22, "linear", ("pump.sigma_n", "pump.p_l"))},
    "sensitivity": {"p_c": (1e-8, 1.0, 161, "log", ("pump.p_c", "pump.alpha_c")),
                    "phi": (None, None, 101, "linear", ())},
    "pole": {"alpha_c": (1e1, 1e6, 201, "log", ("pump.alpha_c", "pump.p_c"))},
    "improvement": {"sensor_length": (1e-3, 1e2, 181, "log", ("sensor.length", "sensor.eta"))},
}

# Sweep variables whose negative values have no meaning.
_NONNEGATIVE_SWEEPS = ("sigma_n", "p_c", "alpha_c", "sensor_length")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float | None
    stop: float | None
    points: int
    scale: str

    def __post_init__(self) -> None:
        if self.start is None or self.stop is None:
            raise ConfigError(f"sweep.variable = {self.variable} needs sweep.start and sweep.stop")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep.scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ConfigError("sweep.start and sweep.stop must be positive for sweep.scale = log")
        if self.start == self.stop:
            raise ConfigError("sweep.start and sweep.stop must differ")
        if self.variable in _NONNEGATIVE_SWEEPS and min(self.start, self.stop) < 0:
            raise ConfigError(f"a {self.variable} sweep must not go below 0, got "
                              f"sweep.start .. sweep.stop = {self.start} .. {self.stop}")

    def grid(self) -> np.ndarray:
        """The sweep's points, by np.linspace's arithmetic (of the exponents, for a log sweep);
        a ConfigError where one of them leaves the float range."""
        start, stop = ((math.log10(self.start), math.log10(self.stop)) if self.scale == "log"
                       else (self.start, self.stop))
        grid, div = np.arange(self.points, dtype=float), self.points - 1
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            if (step := (stop - start) / div) == 0:  # a subnormal step: over div first
                grid /= div
                step = stop - start
            grid *= step
            grid += start
            grid[-1] = stop
            if self.scale == "log":
                grid = 10.0 ** grid
        if not np.isfinite(grid).all():
            raise ConfigError(f"the {self.scale} sweep from {self.start!r} to {self.stop!r} has "
                              "points beyond the float range (from sweep.start, sweep.stop)")
        return grid


KNOWN_KEYS = tuple(_NUMBERS) + ("sweep.variable", "sweep.scale")


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
    eta: float  # sensor.eta, or e^(-alpha_loss * length) where sensor.length is set
    sensor_alpha_loss: float
    sweep: SweepSpec | None
    jsi_span: float | None
    jsi_points: int
    decay_ratio: float | None
    resolved: dict[str, object]

    def config_sha256(self) -> str:
        # By line, sorted as by key: ' ' sorts before every character of a key.
        canonical = "".join(sorted(f"{k} = {v}\n" for k, v in self.resolved.items()))
        return hashlib.sha256(f"command = {self.command}\n{canonical}".encode()).hexdigest()


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
        """The key's value, or default if unset; a value its row of _NUMBERS accepts."""
        if key not in values:
            return default
        try:
            value = float(values[key][0])
        except ValueError:
            value = math.nan
        if math.isnan(value):
            raise fail(key, "expects a number")
        accepted = _NUMBERS[key][2]
        if not within(value, accepted):
            raise fail(key, f"must be {accepted}")
        return int(value) if "integer" in accepted else value

    setting = {key: number(key, default) for key, (_, default, _) in _NUMBERS.items()
               if not key.startswith("sweep.")}
    geometry = RingGeometry(**{name: setting.pop(f"geometry.{name}")
                               for name in RingGeometry.RULES})
    for first, second in _EXCLUSIVE:
        if second in values:
            if first in values:
                raise ConfigError(f"line {max(values[first][1], values[second][1])}: {first} "
                                  f"and {second} are mutually exclusive")
            setting[first] = None
    loss = setting["sensor.alpha_loss"] = number("sensor.alpha_loss", geometry.alpha_loss)
    eta, length = setting["sensor.eta"], setting["sensor.length"]
    if length is not None and command != "improvement":  # its sweep overrides the length
        eta = efficiency(loss, length)
        if not 0 < eta <= 1:
            raise ConfigError(
                f"line {values['sensor.length'][1]}: sensor.length = "
                f"{values['sensor.length'][0]!r} with sensor.alpha_loss = {loss!r} "
                f"gives eta = e^(-alpha_loss * length) = {eta!r}, outside (0, 1]")

    sweep_set = any(key.startswith("sweep.") for key in values)
    sweep = None
    if command in _SWEEPS:
        variables = _SWEEPS[command]
        variable = values.get("sweep.variable", (next(iter(variables)),))[0]
        if variable not in variables:
            raise fail("sweep.variable", f"must be one of {tuple(variables)} for command "
                                         f"{command!r}")
        start, stop, points, scale, overridden = variables[variable]
        for key in overridden:
            if key in values:
                raise fail(key, f"is overridden by the {variable} sweep")
        spec = (variable, number("sweep.start", start), number("sweep.stop", stop),
                number("sweep.points", points), values.get("sweep.scale", (scale,))[0])
        try:
            sweep = SweepSpec(*spec)
        except ConfigError as exc:  # at the line of the key it names that was set last
            lines = [lineno for key, (_, lineno) in values.items() if key in str(exc)]
            raise ConfigError(f"line {max(lines)}: {exc}") from exc
    elif sweep_set:
        key = next(key for key in values if key.startswith("sweep."))
        raise fail(key, f"is set, but command {command!r} does not take a sweep")

    # The hashed text: every key but the sweep's, which enter only when set.
    resolved = {f"geometry.{name}": value for name, value in vars(geometry).items()}
    resolved.update(setting)
    if sweep_set:
        resolved.update((f"sweep.{name}", value) for name, value in vars(sweep).items())
    setting["sensor.eta"] = eta  # resolved keeps None where sensor.length is set
    del setting["sensor.length"]  # and keeps the length, which has no field
    return RunConfig(command=command, geometry=geometry, sweep=sweep, resolved=resolved,
                     **{_NUMBERS[key][0]: value for key, value in setting.items()})
