"""Every command over every numeric key at the float extremes, through ``main``."""

import contextlib
import io
import itertools
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringmzi.cli import COMMANDS, main
from ringmzi.config import KNOWN_KEYS

EXTREMES = [0.0, -0.0, *(sign * magnitude for magnitude in (5e-324, 2.2e-308, 1e-300, 1e-160,
                                                            1e154, 1e300, 1.7976931348623157e308)
                         for sign in (1, -1))]
NUMERIC_KEYS = [key for key in KNOWN_KEYS if key not in ("sweep.variable", "sweep.scale")]
SWEEPING = ("squeezing", "meanfield", "sensitivity", "pole", "improvement")
# Each command after the small grids (sweep.points=7 where it sweeps, jsi.points=5), which
# alone exit 0, and the sensitivity phase sweep, whose variable is not numeric.
BASES = {**{command: ["jsi.points=5", *(["sweep.points=7"] if command in SWEEPING else [])]
            for command in COMMANDS},
         "sensitivity-phase": ["jsi.points=5", "sweep.points=7", "sweep.variable=phi",
                               "sweep.start=0.5", "sweep.stop=1"]}


def run(command: str, assignments: list[str], keys: str, path) -> tuple[int | None, str]:
    """(exit status, what is wrong) of one call, one --set per assignment, with every warning
    an error. What is wrong: an exception, which the console shows as a traceback; on
    exit 2, a message that names none of ``keys`` (space-separated); on exit 0, a nan cell,
    an inf on a row without a flag (rates and jsi have no flag column, so no inf at all), or
    a dphi_* or variance cell at or below 0."""
    err = io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            status = main([command, "--out", str(path),
                           *(arg for pair in assignments for arg in ("--set", pair))])
    except Exception as exc:  # noqa: BLE001 - any escape is a traceback at the console
        return None, f"raised {type(exc).__name__}: {exc}"
    if status != 0:
        named = any(key in err.getvalue() for key in keys.split())
        return status, "" if status == 2 and named else repr(err.getvalue())
    header, *body = [line.split(",") for line in path.read_text().splitlines()
                     if not line.startswith("#")]
    flagged = header[-1] == "flag"
    positive = [k for k, name in enumerate(header) if name == "variance" or name[:5] == "dphi_"]
    wrong = [row for row in body if "nan" in row
             or {"inf", "-inf"} & set(row) and not (flagged and row[-1])
             or any(float(row[k]) <= 0 for k in positive)]
    return status, f"row {wrong[0]}" if wrong else ""


@pytest.mark.parametrize("base", BASES)
def test_every_numeric_key_at_every_extreme(base, tmp_path):
    """Each call sets one key after the base's settings. It exits 0 or 2 with nothing
    wrong (see run): exit 2 names the key."""
    command = base.split("-")[0]
    failures = [f"{base} {key}={value!r}: exit {status} {wrong}"
                for key in NUMERIC_KEYS for value in EXTREMES
                for status, wrong in [run(command, BASES[base] + [f"{key}={value!r}"], key,
                                          tmp_path / "table.csv")]
                if status not in (0, 2) or wrong]
    assert not failures, "\n".join(failures)


GEOMETRY_KEYS = [key for key in NUMERIC_KEYS if key.startswith("geometry.")]
# The distinct extremes >= 0: a ring is derived from every pair of them.
NONNEGATIVE = [0.0, *(value for value in EXTREMES if value > 0)]


@pytest.mark.parametrize("base", ["rates", "meanfield"])
def test_every_pair_of_geometry_keys_at_nonnegative_extremes(base, tmp_path):
    """Two geometry keys at once, each at every extreme >= 0, under the rules of run: exit 2
    names one of the two keys. A pair can fail where neither key alone does, as when
    c A_eff L underflows to 0."""
    failures = [f"{base} {pair}: exit {status} {wrong}"
                for first, second in itertools.combinations(GEOMETRY_KEYS, 2)
                for a, b in itertools.product(NONNEGATIVE, repeat=2)
                for pair in [[f"{first}={a!r}", f"{second}={b!r}"]]
                for status, wrong in [run(base, BASES[base] + pair, f"{first} {second}",
                                          tmp_path / "table.csv")]
                if status not in (0, 2) or wrong]
    assert not failures, "\n".join(failures)


# Finite doubles of either sign across the whole exponent range, 0 and subnormals included.
FINITE = st.builds(lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
                   st.sampled_from([1.0, -1.0]), st.floats(0.5, 1.0, exclude_max=True),
                   st.integers(-1075, 1024))


@pytest.mark.parametrize("base", BASES)
# Every example writes the one table path: the function-scoped tmp_path is safe to share.
@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(st.tuples(st.sampled_from(NUMERIC_KEYS), FINITE), min_size=1,
                      max_size=2, unique_by=lambda pair: pair[0]))
def test_finite_floats_of_one_key_and_of_pairs(base, pairs, tmp_path):
    """One or two keys at finite doubles after the base's settings, under the rules of run:
    exit 2 names one of the keys set."""
    lines = BASES[base] + [f"{key}={value!r}" for key, value in pairs]
    status, wrong = run(base.split("-")[0], lines, " ".join(key for key, _ in pairs),
                        tmp_path / "table.csv")
    assert status in (0, 2) and not wrong, (lines, status, wrong)


@pytest.mark.parametrize("command,setting,status,key", [
    # The coherent reference 1/(sqrt(eta) alpha_c |sin phi|) of the phase sweep overflows.
    ("sensitivity", "sweep.variable=phi sweep.start=0.5 sweep.stop=1 pump.alpha_c=5e-324", 2,
     "pump.alpha_c"),
    # At 2.2e-308 it is still finite, about 9.5e307 at phi = 0.5; no probe is a domain row.
    ("sensitivity", "sweep.variable=phi sweep.start=0.5 sweep.stop=1 pump.alpha_c=2.2e-308", 0,
     None),
    ("sensitivity", "sweep.variable=phi sweep.start=0.5 sweep.stop=1 pump.alpha_c=0", 0, None),
    # The axis -span .. span is 2 span wide.
    ("jsi", "jsi.span=1e308 jsi.points=3", 2, "jsi.span"),
    # Each grid point is finite; linspace's last product overflows before it is set to stop.
    ("squeezing", "sweep.start=1.7976931348623157e308 sweep.stop=0 sweep.points=1000", 0, None),
    ("squeezing", "sweep.start=-1e308 sweep.stop=1e308", 2, "sweep.start, sweep.stop"),
])
def test_extreme_combinations(command, setting, status, key, tmp_path):
    """Inputs of more than one key, outside the grid above."""
    assert run(command, setting.split(), key or "", tmp_path / "table.csv") == (status, "")
