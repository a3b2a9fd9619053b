"""Self-tests of the benchmark's table checks.

    python3 -m pytest bench/test_checks.py -q

The tables come from the program in ./src (one pass of every workload at a
fixed seed). Each test mutates one table the way a faulty program could and
asserts that the check reports it; the clean tables must pass.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """{table name: (Table, csv text)} for one pass of every workload."""
    from ringmzi.cli import main
    out = tmp_path_factory.mktemp("tables")
    tables = {}
    for workload in workloads.WORKLOADS:
        for table in workloads.build(workload, SEED):
            path = out / f"{table.name}.csv"
            assert main(table.argv(str(path))) == 0
            tables[table.name] = (table, path.read_text(encoding="utf-8"))
    return tables


def _split(text: str):
    lines = text.split("\n")[:-1]
    head = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines[:head], [line.split(",") for line in lines[head:]]


def _join(head, rows) -> str:
    return "\n".join(head + [",".join(row) for row in rows]) + "\n"


def _column(text: str, name: str) -> int:
    head, _ = _split(text)
    return head[-1].split(",").index(name)


def scale(name, row, factor):
    def mutate(text):
        head, rows = _split(text)
        k = _column(text, name)
        rows[row][k] = format(float(rows[row][k]) * factor, ".17e")
        return _join(head, rows)
    return mutate


def set_cell(name, row, value):
    def mutate(text):
        head, rows = _split(text)
        rows[row][_column(text, name)] = value
        return _join(head, rows)
    return mutate


def swap_rows(first, second):
    def mutate(text):
        head, rows = _split(text)
        rows[first], rows[second] = rows[second], rows[first]
        return _join(head, rows)
    return mutate


def drop_last(count):
    def mutate(text):
        head, rows = _split(text)
        return _join(head, rows[:-count])
    return mutate


def scale_all(name, factor):
    def mutate(text):
        head, rows = _split(text)
        k = _column(text, name)
        for row in rows:
            row[k] = format(float(row[k]) * factor, ".17e")
        return _join(head, rows)
    return mutate


def _rows_where(produced, table, column, predicate):
    data = checks.TableData(produced[table][1])
    return [int(k) for k in np.flatnonzero(predicate(data.floats(column)))]


def _problems(produced, name, mutate=None):
    table, text = produced[name]
    return checks.check_text(table, mutate(text) if mutate else text, SEED)


@pytest.mark.parametrize("name", ["squeezing", "pole", "improvement", "power", "phase",
                                  "threshold", "jsi", "preset", "crowded"])
def test_clean_table_passes(produced, name):
    assert _problems(produced, name) == []


def test_sweeps_carry_each_flag_kind(produced):
    flags = [f for name in ("squeezing", "pole", "improvement", "power", "phase", "threshold")
             for f in checks.TableData(produced[name][1]).flags()]
    counts = {kind: flags.count(kind) for kind in ("threshold", "pole", "domain")}
    assert counts == {"threshold": workloads.THRESHOLD_POINTS, "pole": 2, "domain": 1}


MUTATIONS = [
    # one value off by 1e-6, where the tolerance is tighter
    ("squeezing", scale("variance", 700, 1 + 1e-6), "variance off"),
    ("squeezing", scale("variance_db", 0, 1 + 1e-6), "variance_db off"),
    ("pole", scale("dphi_squeezed", 5, 1 + 1e-6), "dphi_squeezed off"),
    ("improvement", scale("improvement", 900, 1 + 1e-6), "improvement off"),
    ("improvement", scale("eta", 900, 1 + 1e-6), "eta off"),
    ("power", scale("dphi_squeezed", 1500, 1 + 1e-6), "dphi_squeezed off"),
    ("power", scale("dphi_coherent", 1500, 1 + 1e-6), "dphi_coherent off"),
    ("power", scale("dphi_snl", 1500, 1 + 1e-6), "dphi_snl off"),
    ("power", scale("alpha_c", 1500, 1 + 1e-6), "alpha_c off"),
    ("phase", scale("dphi_squeezed", 300, 1 + 1e-6), "dphi_squeezed off"),
    ("phase", scale("dphi_snl", 300, 1 + 1e-6), "dphi_snl off"),
    ("phase", scale("dphi_coherent", workloads.SWEEP_POINTS // 2, 1 + 1e-6),
     "dphi_coherent at phi = pi/2 off"),
    ("jsi", scale("value", 0, 1 + 1e-6), "value off"),
    ("preset", scale("ns_lin", 3, 1 + 1e-6), "ns_lin off"),
    ("preset", scale("np_lin", 3, 1 + 1e-6), "np_lin off"),
    ("preset", scale("ns_mf", 16, 1 + 1e-6), "ns_mf exceeds"),
    ("preset", scale("np_mf", 16, 1 + 1e-6), "np_mf exceeds"),
    ("preset", scale("ns_mf", 2, 1 - 2e-6), "depletion is negligible"),
    ("preset", scale("np_mf", 20, 1 + 1e-6), "pump clamping"),
    ("crowded", scale("ns_lin", 10, 1 + 1e-6), "ns_lin off"),
    # dropped or extra flags
    ("pole", set_cell("flag", 0, ""), "flag differs at row 0"),
    ("pole", set_cell("flag", 1, "pole"), "flag differs at row 1"),
    ("power", set_cell("flag", 0, ""), "flag differs at row 0"),
    ("threshold", set_cell("flag", 100, ""), "flag differs at row 100"),
    ("squeezing", set_cell("flag", 100, "threshold"), "flag differs at row 100"),
    ("preset", set_cell("flag", 0, "threshold"), "flag differs at row 0"),
    ("preset", set_cell("flag", 21, ""), "flag differs at row 21"),
    ("phase", set_cell("flag", 4, "banana"), "unknown flags"),
    # flagged rows keep inf
    ("threshold", set_cell("variance", 3, "1.00000000000000000e+00"), "must be inf"),
    # swapped rows and truncated grids
    ("squeezing", swap_rows(10, 11), "phi_lo differs"),
    ("crowded", swap_rows(0, 1), "sigma_n differs"),
    ("jsi", swap_rows(1, 2), "delta_wi differs"),
    ("jsi", drop_last(1), "rows, expected"),
    ("jsi", drop_last(workloads.JSI_POINTS), "rows, expected"),
    ("phase", drop_last(1), "rows, expected"),
    # cells that do not read back as the table's own floats
    ("pole", set_cell("dphi_squeezed", 7, "1.5e-03"), "round-trip"),
    ("improvement", set_cell("improvement", 7, "nan"), "improvement off"),
    ("squeezing", set_cell("variance", 7, "x"), "not a number"),
    # anchors and properties of whole tables
    ("squeezing", scale_all("variance", 1e-7), "uncertainty bound"),
    ("squeezing", scale_all("variance", 1e-7), "squeezing floor"),
    ("squeezing", scale_all("variance", 1e-7), "minimum variance"),
    ("jsi", scale_all("value", 1.05), "centre value"),
]


@pytest.mark.parametrize("name,mutate,message", MUTATIONS,
                         ids=[f"{m[0]}-{k}" for k, m in enumerate(MUTATIONS)])
def test_mutated_table_fails(produced, name, mutate, message):
    problems = _problems(produced, name, mutate)
    assert any(message in p for p in problems), problems


def test_jsi_symmetry_catches_a_mirrored_cell(produced):
    table, text = produced["jsi"]
    data = checks.TableData(text)
    points = table.settings["jsi.points"]
    sample = checks.sample_rows(len(data), np.array([], dtype=int), SEED, "jsi")
    i, j = next((i, j) for i, j in zip(*np.divmod(sample, points))
                if i != j and j * points + i not in set(sample))
    problems = checks.check_text(table, scale("value", j * points + i, 1 + 1e-6)(text), SEED)
    assert any("ws <-> wi" in p for p in problems), problems


def test_phase_coherent_column_is_pinned_only_at_half_pi(produced):
    """dphi_coherent away from pi/2 is a known fault; both it and its fix pass."""
    table, text = produced["phase"]
    head, rows = _split(text)
    k = _column(text, "dphi_coherent")
    alpha = table.settings["pump.alpha_c"]
    for row in rows:
        row[k] = format(1.0 / (alpha * abs(math.sin(float(row[0])))), ".17e")
    assert checks.check_text(table, _join(head, rows), SEED) == []


def test_meanfield_row_at_threshold_accepts_either_form(produced):
    """The preset row at sigma_n = 1 - 2e-16 may be finite and unflagged, or flagged inf."""
    near = _rows_where(produced, "preset", "sigma_n", lambda s: np.abs(1 - s) <= 1e-12)
    assert len(near) == 1
    row = near[0]
    flagged = set_cell("flag", row, "threshold")
    as_fixed = lambda text: set_cell("ns_lin", row, "inf")(flagged(text))  # noqa: E731
    assert _problems(produced, "preset", as_fixed) == []
    problems = _problems(produced, "preset", flagged)
    assert any("at threshold" in p for p in problems), problems
