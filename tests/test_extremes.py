"""Every command over every numeric key at the float extremes, through ``main``."""

import contextlib
import io
import warnings

import pytest

from ringmzi.cli import COMMANDS, main
from ringmzi.config import KNOWN_KEYS

EXTREMES = [0.0, -0.0, *(sign * magnitude for magnitude in (5e-324, 2.2e-308, 1e-300, 1e-160,
                                                            1e154, 1e300, 1.7976931348623157e308)
                         for sign in (1, -1))]
NUMERIC_KEYS = [key for key in KNOWN_KEYS if key not in ("sweep.variable", "sweep.scale")]
SWEEPING = ("squeezing", "meanfield", "sensitivity", "pole", "improvement")


def run(command: str, settings: list[str], key: str, path) -> tuple[int | None, str]:
    """(exit status, what is wrong) of one call, one --set per setting, with every warning
    an error. What is wrong: an exception, which the console shows as a traceback; on
    exit 2, a message without ``key``; on exit 0, a nan cell, or an inf on a row without
    a flag (rates and jsi have no flag column, so no inf at all)."""
    err = io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            status = main([command, "--out", str(path),
                           *(arg for setting in settings for arg in ("--set", setting))])
    except Exception as exc:  # noqa: BLE001 - any escape is a traceback at the console
        return None, f"raised {type(exc).__name__}: {exc}"
    if status != 0:
        return status, "" if status == 2 and key in err.getvalue() else repr(err.getvalue())
    header, *body = [line.split(",") for line in path.read_text().splitlines()
                     if not line.startswith("#")]
    flagged = header[-1] == "flag"
    wrong = [row for row in body if "nan" in row
             or {"inf", "-inf"} & set(row) and not (flagged and row[-1])]
    return status, f"row {wrong[0]}" if wrong else ""


@pytest.mark.parametrize("command", COMMANDS)
def test_every_numeric_key_at_every_extreme(command, tmp_path):
    """Each call sets one key after the small grids (sweep.points=7 where the command
    sweeps, jsi.points=5, which alone exit 0). It exits 0 or 2 with nothing wrong (see
    run): exit 2 names the key."""
    grids = ["jsi.points=5", *(["sweep.points=7"] if command in SWEEPING else [])]
    failures = [f"{command} {key}={value!r}: exit {status} {wrong}"
                for key in NUMERIC_KEYS for value in EXTREMES
                for status, wrong in [run(command, grids + [f"{key}={value!r}"], key,
                                          tmp_path / "table.csv")]
                if status not in (0, 2) or wrong]
    assert not failures, "\n".join(failures)


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
