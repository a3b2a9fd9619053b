"""Correctness checks for the tables a workload writes.

Each check reads one CSV and compares it with bench/reference.py, which
works from the formulas in the ringmzi module docstrings and the paper's
anchors; no check calls ringmzi or compares with a stored earlier output.
Structural checks (columns, row count, the sweep grid, the flag of every
row) cover every row. Value checks run on a seeded sample of rows that
holds every flagged row (all rows for tables of up to SAMPLE_ROWS rows).

``check_file`` returns a list of problems; an empty list means the table
is correct.
"""

from __future__ import annotations

import math
import random

import numpy as np

import reference as ref
from workloads import Table

SAMPLE_ROWS = 4096

# Relative tolerances. The program evaluates n_s and m_si over
# Xi - 2 sigma^2 Gamma^2, which loses about 1e-16/(1 - sigma_n^2)^2 near
# threshold (2e-10 at sigma_n = 0.9995); TOL covers that with margin and is
# still tighter than a 1e-6 change of any value.
TOL = 1e-8
# The phase sweep differentiates <ID> by a central difference of 1e-6 rad;
# its error relative to the analytic slope stays below 1e-8 on these grids.
TOL_PHASE = 1e-7
TOL_EXACT = 1e-13
# LSODA stops at a relative rate of 1e-9 per 1/Gamma: mean-field values carry
# that error, while depletion lowers n_s by at least 3e-9 at sigma_n = 0.1.
TOL_MF_ORDER = 1e-9
# Depletion is negligible below sigma_n = 0.5 (n_s within 1.3e-8 of linear).
TOL_MF_AGREE = 1e-6
# Above threshold the mean-field pump number sits within 6e-8 of Gamma/(2 g).
TOL_CLAMP = 5e-7
# A drive this close to threshold is a float-rounding artefact of the grid
# (1 - sigma_n below 1e-12): either a finite n_s with no flag or 'threshold'.
NEAR_THRESHOLD = 1e-12

FLAG_KINDS = ("", "threshold", "pole", "domain")
COLUMNS = {
    "squeezing": ["phi_lo", "variance", "variance_db", "flag"],
    "pole": ["alpha_c", "dphi_squeezed", "flag"],
    "improvement": ["sensor_length", "eta", "improvement", "flag"],
    "power": ["p_c", "alpha_c", "dphi_squeezed", "dphi_coherent", "dphi_snl", "flag"],
    "phase": ["phi", "dphi_squeezed", "dphi_coherent", "dphi_snl", "flag"],
    "jsi": ["delta_ws", "delta_wi", "value"],
    "meanfield": ["sigma_n", "ns_lin", "ns_mf", "np_lin", "np_mf", "flag"],
}
# Default sweep grids of docs/formats.md for the settings a table leaves out.
DEFAULT_GRID = {
    "squeezing": (0.0, math.pi, "linear"),
    "pole": (1e1, 1e6, "log"),
    "improvement": (1e-3, 1e2, "log"),
    "meanfield": (0.1, 1.15, "linear"),
}
DEFAULT_POINTS = {"meanfield": 22}


class TableData:
    """A parsed CSV: metadata, header, raw cell strings and float columns."""

    def __init__(self, text: str):
        lines = text.split("\n")
        if lines[-1] != "":
            raise ValueError("file does not end with a newline")
        lines.pop()
        self.meta = {}
        while lines and lines[0].startswith("# "):
            key, _, value = lines.pop(0)[2:].partition("=")
            self.meta[key] = value
        if not lines:
            raise ValueError("no header line")
        self.columns = lines[0].split(",")
        self.cells = [line.split(",") for line in lines[1:]]
        for number, row in enumerate(self.cells):
            if len(row) != len(self.columns):
                raise ValueError(f"row {number} has {len(row)} cells, header has {len(self.columns)}")

    def __len__(self) -> int:
        return len(self.cells)

    def floats(self, name: str) -> np.ndarray:
        index = self.columns.index(name)
        return np.array([row[index] for row in self.cells], dtype=float)

    def flags(self) -> np.ndarray:
        if "flag" not in self.columns:
            return np.full(len(self), "", dtype=object)
        index = self.columns.index("flag")
        return np.array([row[index] for row in self.cells], dtype=object)


class Report:
    """Collects problems of one table, checked on a sample of row indices."""

    def __init__(self, label: str, sample: np.ndarray):
        self.label = label
        self.sample = sample
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(f"{self.label}: {message}")

    def close(self, what: str, got, want, rel: float, rows=None) -> None:
        """|got - want| <= rel |want| on ``rows`` (default: the sample)."""
        rows = self.sample if rows is None else rows
        if len(rows) == 0:
            return
        got = np.asarray(got, dtype=float)[rows]
        want = np.broadcast_to(np.asarray(want, dtype=float), got.shape) if np.ndim(want) == 0 \
            else np.asarray(want, dtype=float)[rows]
        bad = ~(np.abs(got - want) <= rel * np.abs(want))
        if bad.any():
            k = int(np.argmax(bad))
            self.fail(f"{what} off at row {int(rows[k])}: {got[k]!r} vs {want[k]!r} "
                      f"({int(bad.sum())} rows beyond rel {rel:g})")

    def equal(self, what: str, got, want) -> None:
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            self.fail(f"{what}: {got.shape[0]} rows, expected {want.shape[0]}")
            return
        bad = got != want
        if bad.any():
            k = int(np.argmax(bad))
            self.fail(f"{what} differs at row {k}: {got[k]!r} vs {want[k]!r} "
                      f"({int(bad.sum())} rows)")

    def all_inf(self, what: str, values, rows) -> None:
        values = np.asarray(values)[rows]
        if len(rows) and not np.all(np.isposinf(values)):
            self.fail(f"{what} of flagged rows must be inf")


def _grid(table: Table) -> np.ndarray:
    """The sweep grid the table's settings ask for, as the CLI builds it."""
    settings, kind = table.settings, table.kind
    start, stop, scale = DEFAULT_GRID.get(kind, (None, None, "linear"))
    start = settings.get("sweep.start", start)
    stop = settings.get("sweep.stop", stop)
    scale = settings.get("sweep.scale", scale)
    points = settings.get("sweep.points", DEFAULT_POINTS.get(kind))
    if scale == "log":
        return np.logspace(math.log10(start), math.log10(stop), points)
    return np.linspace(start, stop, points)


def _threshold(sigma_n: float) -> bool:
    """'threshold' iff sigma >= Gamma, with sigma = sigma_n Gamma."""
    big = ref.reference_ring().total
    return sigma_n * big >= big


def _round_trip(report: Report, data: TableData) -> None:
    """Every sampled numeric cell is '%.17e' of its own float, or 'inf'."""
    numeric = [k for k, name in enumerate(data.columns) if name != "flag"]
    for row in report.sample:
        for k in numeric:
            cell = data.cells[row][k]
            try:
                value = float(cell)
            except ValueError:
                report.fail(f"row {row} column {data.columns[k]}: {cell!r} is not a number")
                return
            if cell != ("inf" if value == math.inf else format(value, ".17e")):
                report.fail(f"row {row} column {data.columns[k]}: {cell!r} does not "
                            f"round-trip through its float")
                return


def _expect_flags(report: Report, data: TableData, expected: np.ndarray) -> None:
    got = data.flags()
    unknown = set(got) - set(FLAG_KINDS)
    if unknown:
        report.fail(f"unknown flags {sorted(unknown)}")
    report.equal("flag", got, expected)


def _check_squeezing(report, table, data):
    sigma_n = table.settings["pump.sigma_n"]
    ring = ref.reference_ring()
    phi = data.floats("phi_lo")
    variance = data.floats("variance")
    db = data.floats("variance_db")
    above = _threshold(sigma_n)
    _expect_flags(report, data, np.full(len(data), "threshold" if above else "", dtype=object))
    if above:
        report.all_inf("variance", variance, report.sample)
        report.all_inf("variance_db", db, report.sample)
        return
    report.close("variance", variance, ref.quadrature_variance(ring, sigma_n, phi), TOL)
    report.close("variance_db", db, 10.0 * np.log10(ref.quadrature_variance(ring, sigma_n, phi)),
                 TOL, rows=report.sample[np.abs(db[report.sample]) > 1e-3])
    v_sq = float(ref.v_squeezed(ring, sigma_n))
    if abs(variance.min() - v_sq) > TOL * v_sq:  # the grid holds phi = pi/2
        report.fail(f"minimum variance {variance.min()!r}, expected V_sq = {v_sq!r}")
    floor_db = 10.0 * math.log10(variance.min())
    if abs(floor_db + 15.0) > 0.2:  # C3: -15.0 +- 0.2 dB on the reference ring
        report.fail(f"squeezing floor {floor_db:.3f} dB, expected -15.0 +- 0.2 dB")
    quarter = (len(data) - 1) // 2  # grid 0..pi: row i + quarter is phi + pi/2
    product = variance[:len(data) - quarter] * variance[quarter:]
    if not np.all(product >= 1.0 - 1e-12):
        report.fail(f"V(phi) V(phi + pi/2) = {product.min()!r} < 1 (uncertainty bound)")


def _check_pole(report, table, data):
    sigma_n = table.settings["pump.sigma_n"]
    ring = ref.reference_ring()
    alpha = data.floats("alpha_c")
    dphi = data.floats("dphi_squeezed")
    pole = ref.is_pole(alpha, ring, sigma_n)
    _expect_flags(report, data, np.where(pole, "pole", "").astype(object))
    flagged = report.sample[pole[report.sample]]
    clear = report.sample[~pole[report.sample]]
    report.all_inf("dphi_squeezed", dphi, flagged)
    report.close("dphi_squeezed", dphi, ref.dphi_squeezed(ring, sigma_n, alpha, 1.0), TOL, clear)
    with np.errstate(divide="ignore"):
        gain = ref.dphi_coherent(alpha, 1.0) / dphi
    report.close("improvement at eta = 1", gain, ref.improvement_lossless(ring, sigma_n, alpha),
                 TOL, clear)


def _check_improvement(report, table, data):
    settings = table.settings
    sigma_n, alpha = settings["pump.sigma_n"], settings["pump.alpha_c"]
    ring = ref.reference_ring().with_decay_ratio(settings["improvement.decay_ratio"])
    length = data.floats("sensor_length")
    eta = data.floats("eta")
    gain = data.floats("improvement")
    pole = bool(ref.is_pole(alpha, ring, sigma_n))
    _expect_flags(report, data, np.full(len(data), "pole" if pole else "", dtype=object))
    report.close("eta", eta, np.exp(-ref.ALPHA_LOSS * length), TOL_EXACT)
    if pole:
        report.all_inf("improvement", gain, report.sample)
        return
    want = ref.dphi_coherent(alpha, eta) / ref.dphi_squeezed(ring, sigma_n, alpha, eta)
    report.close("improvement", gain, want, TOL)


def _check_power(report, table, data):
    sigma_n = table.settings["pump.sigma_n"]
    ring = ref.reference_ring()
    p_c = data.floats("p_c")
    alpha = data.floats("alpha_c")
    squeezed, coherent, snl = (data.floats(c) for c in ("dphi_squeezed", "dphi_coherent", "dphi_snl"))
    report.close("alpha_c", alpha, np.sqrt(p_c / (ref.HBAR * ring.omega_p)), TOL_EXACT)
    domain = alpha == 0.0
    pole = ref.is_pole(alpha, ring, sigma_n) & ~domain
    _expect_flags(report, data, np.where(domain, "domain", np.where(pole, "pole", "")).astype(object))
    sample = report.sample
    report.all_inf("dphi_squeezed", squeezed, sample[(pole | domain)[sample]])
    for name, column in (("dphi_coherent", coherent), ("dphi_snl", snl)):
        report.all_inf(name, column, sample[domain[sample]])
    clear = sample[~(pole | domain)[sample]]
    finite = sample[~domain[sample]]
    report.close("dphi_squeezed", squeezed, ref.dphi_squeezed(ring, sigma_n, alpha, 1.0), TOL, clear)
    with np.errstate(divide="ignore"):  # alpha_c = 0 on the domain row
        report.close("dphi_coherent", coherent, ref.dphi_coherent(alpha, 1.0), TOL_EXACT, finite)
    report.close("dphi_snl", snl, ref.dphi_snl(ring, sigma_n, alpha, 1.0), TOL, finite)


def _check_phase(report, table, data):
    settings = table.settings
    sigma_n, alpha = settings["pump.sigma_n"], settings["pump.alpha_c"]
    ring = ref.reference_ring()
    phi = data.floats("phi")
    squeezed, coherent, snl = (data.floats(c) for c in ("dphi_squeezed", "dphi_coherent", "dphi_snl"))
    pole = bool(ref.is_pole(alpha, ring, sigma_n))
    _expect_flags(report, data, np.full(len(data), "pole" if pole else "", dtype=object))
    sample = report.sample
    var_id, slope, photons = ref.mzi_readout(
        alpha, 1.0, float(ref.pair_flux(ring, sigma_n)), float(ref.anomalous(ring, sigma_n)),
        phi[sample])
    want = np.full(len(data), np.nan)
    want[sample] = np.sqrt(var_id) / np.abs(slope)
    if pole:
        report.all_inf("dphi_squeezed", squeezed, sample)
    else:
        report.close("dphi_squeezed", squeezed, want, TOL_PHASE)
    want[sample] = 1.0 / np.sqrt(photons + ref.pump_flux(ring, sigma_n))
    report.close("dphi_snl", snl, want, TOL)
    # The coherent column is checked only at phi = pi/2, where it is 1/alpha_c.
    centre = sample[np.abs(phi[sample] - math.pi / 2) <= 1e-12]
    report.close("dphi_coherent at phi = pi/2", coherent, ref.dphi_coherent(alpha, 1.0),
                 TOL_EXACT, centre)


def _check_jsi(report, table, data):
    settings = table.settings
    sigma_n, points = settings["pump.sigma_n"], settings["jsi.points"]
    ring = ref.reference_ring()
    axis = np.linspace(-settings["jsi.span"], settings["jsi.span"], points)
    ws = data.floats("delta_ws")
    wi = data.floats("delta_wi")
    value = data.floats("value")
    report.equal("delta_ws", ws, np.repeat(axis, points))
    report.equal("delta_wi", wi, np.tile(axis, points))
    if report.problems:
        return
    report.close("value", value, ref.jsi(ring, sigma_n, ws, wi), TOL)
    i, j = np.divmod(report.sample, points)
    partner = np.full(len(data), np.nan)
    partner[report.sample] = value[j * points + i]
    report.close("value under ws <-> wi", value, partner, TOL_EXACT)
    if points % 2 and sigma_n == 0.995:  # C5: centre value 2.98e9 +- 2%
        centre = value[(points // 2) * points + points // 2]
        if abs(centre / 2.98e9 - 1) > 0.02:
            report.fail(f"centre value {centre:.4e}, expected 2.98e9 +- 2%")


def _check_meanfield(report, table, data):
    ring = ref.reference_ring()
    sigma_n = data.floats("sigma_n")
    ns_lin, ns_mf, np_lin, np_mf = (data.floats(c) for c in ("ns_lin", "ns_mf", "np_lin", "np_mf"))
    flags = data.flags()
    near = np.abs(1.0 - sigma_n) <= NEAR_THRESHOLD
    above = np.array([_threshold(s) for s in sigma_n])
    expected = np.where(above, "threshold", "").astype(object)
    expected[near] = flags[near]
    _expect_flags(report, data, expected)
    near_ok = np.where(flags == "threshold", np.isposinf(ns_lin), np.isfinite(ns_lin) & (ns_lin > 1e12))
    if not np.all(near_ok[near]):
        report.fail("a row at threshold must carry either a finite n_s > 1e12 or 'threshold' and inf")
    sample = report.sample
    flagged = sample[(flags == "threshold")[sample]]
    below = sample[((flags == "") & ~near)[sample]]
    report.all_inf("ns_lin", ns_lin, flagged)
    report.close("np_lin", np_lin, ref.np_linearized(ring, sigma_n), TOL_EXACT)
    # sigma_n^2/(1 - sigma_n^2) and the program's sigma^2/(Gamma^2 - sigma^2)
    # round differently by about 1e-16/(1 - sigma_n^2).
    want = ref.ns_linearized(sigma_n[below])
    bad = below[np.abs(ns_lin[below] - want) > 1e-13 / (1.0 - sigma_n[below] ** 2) * want]
    if len(bad):
        report.fail(f"ns_lin off at row {int(bad[0])}: {ns_lin[bad[0]]!r} vs "
                    f"{float(ref.ns_linearized(sigma_n[bad[0]]))!r}")
    if not np.all((ns_mf[sample] >= 0) & (np_mf[sample] >= 0)):
        report.fail("mean-field moments must be non-negative")
    for name, mf, lin in (("ns_mf", ns_mf, ns_lin), ("np_mf", np_mf, np_lin)):
        rows = below[mf[below] > lin[below] * (1.0 + TOL_MF_ORDER)]
        if len(rows):
            report.fail(f"{name} exceeds its linearized value at row {int(rows[0])} "
                        f"(depletion can only lower it)")
    report.close("ns_mf where depletion is negligible", ns_mf, ns_lin, TOL_MF_AGREE,
                 below[sigma_n[below] <= 0.5])
    report.close("np_mf above threshold (pump clamping)", np_mf, ref.np_clamped(ring), TOL_CLAMP,
                 sample[(sigma_n[sample] > 1.0) & ~near[sample]])


CHECKS = {
    "squeezing": _check_squeezing,
    "pole": _check_pole,
    "improvement": _check_improvement,
    "power": _check_power,
    "phase": _check_phase,
    "jsi": _check_jsi,
    "meanfield": _check_meanfield,
}


def expected_rows(table: Table) -> int:
    if table.kind == "jsi":
        return table.settings["jsi.points"] ** 2
    return table.settings.get("sweep.points", DEFAULT_POINTS.get(table.kind))


def sample_rows(count: int, flagged: np.ndarray, seed: int, label: str) -> np.ndarray:
    """Rows the value checks read: all of a small table; otherwise SAMPLE_ROWS
    seeded rows plus every flagged row and the first, middle and last row."""
    if count <= SAMPLE_ROWS:
        return np.arange(count)
    rng = random.Random(f"{seed}:{label}")
    picked = rng.sample(range(count), SAMPLE_ROWS) + [0, count // 2, count - 1]
    return np.union1d(np.array(picked), flagged).astype(int)


def check_text(table: Table, text: str, seed: int) -> list[str]:
    """Problems found in the CSV ``text`` that ``table`` produced."""
    label = table.name
    try:
        data = TableData(text)
    except ValueError as exc:
        return [f"{label}: unreadable CSV ({exc})"]
    if set(data.meta) != {"config_sha256", "tool_version"}:
        return [f"{label}: metadata keys {sorted(data.meta)}"]
    if data.columns != COLUMNS[table.kind]:
        return [f"{label}: columns {data.columns}, expected {COLUMNS[table.kind]}"]
    if len(data) != expected_rows(table):
        return [f"{label}: {len(data)} rows, expected {expected_rows(table)}"]
    try:
        return _check_rows(table, data, seed)
    except ValueError as exc:  # a cell that is not a number
        return [f"{label}: {exc}"]


def _check_rows(table: Table, data: TableData, seed: int) -> list[str]:
    label = table.name
    if table.kind != "jsi":
        grid_name = data.columns[0]
        grid = _grid(table)
        report = Report(label, np.arange(0))
        report.equal(grid_name, data.floats(grid_name), grid)
        if report.problems:
            return report.problems
    sample = sample_rows(len(data), np.flatnonzero(data.flags() != ""), seed, label)
    report = Report(label, sample)
    _round_trip(report, data)
    if not report.problems:
        CHECKS[table.kind](report, table, data)
    return report.problems


def check_file(table: Table, path: str, seed: int) -> list[str]:
    with open(path, encoding="utf-8", newline="") as handle:
        return check_text(table, handle.read(), seed)
