import errno
import hashlib
import io
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

import exact_moments
import mzi_oracle as oracle
from tables import rows
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from ringmzi import (REFERENCE_GEOMETRY, CavityRates, Injection, decay_ratio, derive_rates,
                     fwm_gain, pole_coherent_amplitude, threshold_power)
from ringmzi.cavity_io import jsi as jsi_density
from ringmzi import cli
from ringmzi import table as writer
from ringmzi.cli import _parser, _resolve_drive, main, run_command
from ringmzi.config import parse_config
from ringmzi.errors import ConfigError
from ringmzi.table import Cells, LazyBlocks, ResultTable, format_e17, write_table
from ringmzi.constants import HBAR


def run(command, text=""):
    return run_command(parse_config(text, command=command))


class TestParseConfig:
    def test_empty_gives_reference_profile(self):
        cfg = parse_config("", command="rates")
        assert cfg.geometry == REFERENCE_GEOMETRY
        assert cfg.sigma_n == 0.99895
        assert cfg.alpha_c == 1e5
        assert cfg.eta == 1.0

    def test_comments_and_overrides(self):
        text = """
        # a comment line
        geometry.cross_coupling = 0.02  # inline comment
        geometry.cross_coupling = 0.03
        pump.sigma_n = 0.5
        """
        cfg = parse_config(text, command="rates")
        assert cfg.geometry.cross_coupling == 0.03
        assert cfg.sigma_n == 0.5

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'geometry.bogus'"):
            parse_config("\ngeometry.bogus = 1\n", command="rates")

    def test_range_error_names_field(self):
        with pytest.raises(ConfigError, match="cross_coupling"):
            parse_config("geometry.cross_coupling = 1.5", command="rates")

    def test_pump_conflict(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("pump.sigma_n = 0.5\npump.p_l = 1e-3", command="rates")

    def test_probe_conflict(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("pump.p_c = 1e-3\npump.alpha_c = 10", command="rates")

    def test_sensor_conflict(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("sensor.eta = 0.5\nsensor.length = 1", command="rates")

    def test_malformed_value(self):
        with pytest.raises(ConfigError, match="expects a number"):
            parse_config("pump.sigma_n = abc", command="rates")

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="points"):
            parse_config("sweep.variable = phi_lo\nsweep.start = 0\n"
                         "sweep.stop = 1\nsweep.points = 1", command="squeezing")
        with pytest.raises(ConfigError, match="scale"):
            parse_config("sweep.variable = phi_lo\nsweep.start = 0\n"
                         "sweep.stop = 1\nsweep.scale = cubic", command="squeezing")
        with pytest.raises(ConfigError, match="finite"):
            parse_config("sweep.start = -inf", command="squeezing")
        with pytest.raises(ConfigError, match="line 1: sweep.points expects an integer"):
            parse_config("sweep.points = inf", command="squeezing")
        with pytest.raises(ConfigError, match=r"sweeps one of \('alpha_c',\), got 'p_c'") as info:
            parse_config("sweep.variable = p_c\nsweep.points = 3", command="pole")
        assert "start" not in str(info.value) and "stop" not in str(info.value)

    def test_sweep_for_sweepless_command(self):
        with pytest.raises(ConfigError, match="does not take a sweep"):
            parse_config("sweep.points = 7", command="rates")

    @pytest.mark.parametrize("command,text,digest", [
        ("squeezing", "", "e3e5a2a462a7a99519a9b1ba30d8d56c645cfa27ce2807fb383372c9535600d2"),
        ("rates", "", "5199eb63ae7de76d728e76268ad2d731c4d60c75a2a726a03dda8814c3eb34bb"),
        ("squeezing", "sweep.points = 7\npump.sigma_n = 0.9",
         "c6b5afda08c20b3b026c5b4ab9ec0376024f38d2b802066ef9662e4a7d253719"),
        ("sensitivity", "sweep.variable = phi\nsweep.start = 0.1\nsweep.stop = 3\nsweep.points = 9",
         "f09d821d1e1ce306a29923d3dc20d48e0ee226bc51fe0e954f143642bca071fd"),
        ("sensitivity", "sensor.length = 1\npump.p_l = 0.01",
         "ca885539e32746d744958cea8624cf0e3e831d1383529671614e3d9d49c14ddd"),
        ("jsi", "jsi.span = 1e9\njsi.points = 4\ngeometry.n2 = 3e-19",
         "7b9cc7940e16e30e44d1a95fa3dc65f671433b7922b19ea9a695a24316465baa"),
    ])
    def test_config_sha256_is_pinned(self, command, text, digest):
        """The hashed text (docs/formats.md) is built from repr of floats: platform-stable."""
        assert parse_config(text, command=command).config_sha256() == digest


class TestCommands:
    def test_rates_row(self):
        table = run("rates")
        row = dict(zip(table.columns, rows(table)[0]))
        assert row["kappa"] == pytest.approx(1208e6, rel=0.01)
        assert row["gamma"] == pytest.approx(38.3e6, rel=0.01)
        assert row["gamma_total"] == pytest.approx(row["kappa"] + row["gamma"], rel=1e-15)
        assert row["g"] == pytest.approx(1.5, rel=0.25)
        assert row["p_th"] == pytest.approx(14.12e-3, rel=0.15)

    def test_squeezing_minimum(self):
        table = run("squeezing", "pump.sigma_n = 0.95\nsweep.points = 91")
        db = [row[2] for row in rows(table)]
        assert min(db) == pytest.approx(-15.0, abs=0.2)

    def test_squeezing_above_threshold_flags(self):
        table = run("squeezing", "pump.sigma_n = 1.2\nsweep.points = 5")
        assert all(row[3] == "threshold" for row in rows(table))
        assert all(math.isinf(row[1]) for row in rows(table))

    def test_jsi_grid(self):
        table = run("jsi", "jsi.points = 5\npump.sigma_n = 0.995")
        assert table.columns == ["delta_ws", "delta_wi", "value"]
        assert len(rows(table)) == 25
        center = max(rows(table), key=lambda row: row[2])
        assert center[0] == center[1] == 0.0
        assert center[2] == pytest.approx(2.98e9, rel=0.02)

    def test_meanfield_curve(self):
        table = run("meanfield", "sweep.start = 0.4\nsweep.stop = 0.8\nsweep.points = 2")
        for row in rows(table):
            record = dict(zip(table.columns, row))
            assert record["ns_lin"] == pytest.approx(record["ns_mf"], rel=0.01)
            assert record["flag"] == ""

    def test_meanfield_row_at_threshold_is_flagged(self):
        """Row 18 of the default grid is 1 - 2.2e-16 after linspace rounding: at threshold."""
        table = run("meanfield")
        row = dict(zip(table.columns, rows(table)[18]))
        assert row["sigma_n"] == 0.99999999999999978
        assert row["flag"] == "threshold"
        assert math.isinf(row["ns_lin"])
        assert math.isfinite(row["ns_mf"]) and row["ns_mf"] > 0
        flags = [r[-1] for r in rows(table)]
        assert flags == [""] * 18 + ["threshold"] * 4

    def test_sensitivity_power_sweep_ordering(self):
        text = "sweep.start = 1e-3\nsweep.stop = 1e-1\nsweep.points = 3\npump.p_l = 14.12e-3"
        table = run("sensitivity", text)
        last = dict(zip(table.columns, rows(table)[-1]))
        assert last["flag"] == ""
        assert last["dphi_squeezed"] < last["dphi_snl"] < last["dphi_coherent"]

    def test_sensitivity_crossover(self):
        """Weak probes sit above the pump-charged SNL; strong probes beat it."""
        text = ("sweep.start = 1e-6\nsweep.stop = 1e-1\nsweep.points = 2\n"
                "pump.p_l = 14.12e-3")
        table = run("sensitivity", text)
        weak = dict(zip(table.columns, rows(table)[0]))
        strong = dict(zip(table.columns, rows(table)[-1]))
        assert weak["dphi_squeezed"] > weak["dphi_snl"]
        assert strong["dphi_squeezed"] < strong["dphi_snl"]

    def test_sensitivity_phase_sweep_flags_poles(self):
        text = ("sweep.variable = phi\nsweep.start = 0\n"
                f"sweep.stop = {math.pi}\nsweep.points = 5\nsweep.scale = linear")
        table = run("sensitivity", text)
        flags = [row[-1] for row in rows(table)]
        assert flags[0] == "pole" and flags[-1] == "pole"
        assert flags[2] == ""

    def test_pole_sweep_flags_exact_pole(self):
        rates = derive_rates(REFERENCE_GEOMETRY)
        pole = pole_coherent_amplitude(rates, Injection(0.99895))
        text = (f"sweep.start = {pole / 2}\nsweep.stop = {pole * 2}\n"
                "sweep.points = 3\nsweep.scale = log")
        table = run("pole", text)
        assert rows(table)[1][0] == pytest.approx(pole, rel=1e-9)
        assert rows(table)[1][2] == "pole"
        assert math.isinf(rows(table)[1][1])

    def test_improvement_reaches_unity(self):
        table = run("improvement", "sweep.start = 1e-3\nsweep.stop = 40\nsweep.points = 9")
        first = dict(zip(table.columns, rows(table)[0]))
        last = dict(zip(table.columns, rows(table)[-1]))
        assert first["improvement"] > 3.0
        assert last["improvement"] == pytest.approx(1.0, abs=0.05)

    def test_improvement_decay_ratio_override(self):
        base = run("improvement", "sweep.start = 1e-3\nsweep.stop = 1e-2\nsweep.points = 2")
        strong = run("improvement", "improvement.decay_ratio = 1000\n"
                                    "sweep.start = 1e-3\nsweep.stop = 1e-2\nsweep.points = 2")
        assert rows(strong)[0][2] > rows(base)[0][2]
        lossless = run("improvement", "improvement.decay_ratio = inf\n"
                                      "sweep.start = 1e-3\nsweep.stop = 1e-2\nsweep.points = 2")
        assert rows(lossless)[0][2] > rows(strong)[0][2]


class TestBlockShapes:
    @pytest.mark.parametrize("command,text,flag", [
        *((command, "", None) for command in cli.COMMANDS),
        ("jsi", "jsi.points = 101", None),  # 81 signal rows per block, then 20
        *((command, "pump.sigma_n = 1.2\nsweep.points = 5", "threshold")
          for command in ("squeezing", "sensitivity", "pole", "improvement")),
        ("sensitivity", "sweep.variable = phi\nsweep.start = 0\n"
                        "sweep.stop = 3.141592653589793\nsweep.points = 101", "pole"),
    ])
    def test_every_block_fits_its_columns(self, command, text, flag):
        """Each builder's blocks hold a column per name, each an array of numbers or Cells,
        that broadcast to one 1-D length or one 2-D shape, the shape of every array; only
        jsi has several blocks."""
        table = run(command, text)
        blocks = list(table.blocks)
        assert (len(blocks) > 1) == (command == "jsi")
        for block in blocks:
            assert len(block) == len(table.columns)
            assert all(isinstance(c, Cells) or c.dtype.kind in "fiub" for c in block)
            shape = np.broadcast_shapes(*(c.shape for c in block))
            assert len(shape) == (2 if command == "jsi" else 1)
            assert {len(c.shape) for c in block} == {len(shape)}
            assert {c.shape for c in block if not isinstance(c, Cells)} == {shape}
        if flag is not None:
            assert flag in {row[-1] for row in rows(table)}


class TestPhaseSweep:
    """Phase sweeps of the sensitivity command."""

    @staticmethod
    def sweep(start, stop, points, extra=""):
        return run("sensitivity", f"sweep.variable = phi\nsweep.start = {start!r}\n"
                                  f"sweep.stop = {stop!r}\nsweep.points = {points}\n{extra}")

    def test_coherent_minimum_at_half_pi(self):
        table = self.sweep(0.2, math.pi - 0.2, 101, "pump.alpha_c = 1e4")
        best = min(rows(table), key=lambda row: row[2])
        step = rows(table)[1][0] - rows(table)[0][0]
        assert best[0] == pytest.approx(math.pi / 2, abs=step)

    def test_symmetry_about_pi(self):
        left = self.sweep(math.pi - 0.3, math.pi - 1.2, 7, "pump.sigma_n = 0.9")
        right = self.sweep(math.pi + 0.3, math.pi + 1.2, 7, "pump.sigma_n = 0.9")
        for row_l, row_r in zip(rows(left), rows(right)):
            assert row_l[1] == pytest.approx(row_r[1], rel=1e-9)

    def test_poles_flagged_not_raised(self):
        table = self.sweep(0.0, math.pi, 3, "pump.alpha_c = 1e4")
        assert [row[-1] for row in rows(table)] == ["pole", "", "pole"]
        assert math.isinf(rows(table)[0][1])
        assert math.isinf(rows(table)[0][2])  # sin(0) == 0: no coherent slope either

    def test_float_pi_is_a_pole_in_both_columns(self):
        """sin(float pi) = 1.2e-16: both columns apply the relative rule |sin phi| <= 1e-9."""
        table = self.sweep(0.0, math.pi, 3)
        last = rows(table)[-1]
        assert last[0] == math.pi
        assert last[-1] == "pole"
        assert math.isinf(last[1]) and math.isinf(last[2])
        near = rows(self.sweep(math.pi - 1e-6, math.pi - 2e-6, 2))[0]
        assert math.isfinite(near[2])

    def test_coherent_column_follows_phase(self):
        """dphi_coherent is the vacuum-port probe 1/(sqrt(eta) alpha_c |sin phi|)."""
        table = self.sweep(0.3, 2.8, 6)
        assert rows(table)[0][2] == pytest.approx(3.38e-5, abs=5e-8)
        for row in rows(table):
            point = oracle.Point(row[0], 1e5)
            assert row[2] == pytest.approx(oracle.point_readout(point, None).dphi, rel=1e-9)


def csv_cells(rows):
    return [["%.17e" % cell if isinstance(cell, float) else cell for cell in row] for row in rows]


class TestArrayTables:
    """The array-built sweep tables against tables built row by row (tests/mzi_oracle.py)."""

    @staticmethod
    def oracle_rows(cfg, grid=None):
        rates = derive_rates(cfg.geometry)
        gain = fwm_gain(cfg.geometry).gain
        grid = cfg.sweep.grid().tolist() if grid is None else grid
        if cfg.command == "improvement":
            ratio = cfg.decay_ratio if cfg.decay_ratio is not None else decay_ratio(rates)
            ring = CavityRates(kappa=rates.kappa, gamma=rates.kappa / ratio)
            injection, alpha_c = _resolve_drive(cfg, ring, gain)
            return oracle.improvement_rows(cfg, ring, injection, alpha_c, grid)
        injection, alpha_c = _resolve_drive(cfg, rates, gain)
        if cfg.command == "pole":
            return oracle.pole_rows(cfg, rates, injection, grid)
        power = cfg.p_l if cfg.p_l is not None else cfg.sigma_n * threshold_power(
            rates, gain, cfg.geometry.pump_frequency(), cfg.delta_p)
        return oracle.sensitivity_rows(cfg, rates, injection, alpha_c, power, grid)

    @settings(max_examples=60, deadline=None)
    @given(sigma_n=st.floats(0.0, 1.2), eta=st.floats(0.01, 1.0),
           alpha_c=st.floats(10.0, 1e6), power=st.booleans(), cross_coupling=st.floats(0.002, 0.1),
           start=st.floats(-4.0, 4.0), width=st.floats(0.1, 7.0), points=st.integers(2, 40))
    def test_phase_sweep(self, sigma_n, eta, alpha_c, power, cross_coupling, start, width,
                         points):
        probe = f"pump.p_c = {alpha_c * 1e-14!r}" if power else f"pump.alpha_c = {alpha_c!r}"
        cfg = parse_config(f"pump.sigma_n = {sigma_n!r}\nsensor.eta = {eta!r}\n{probe}\n"
                           f"geometry.cross_coupling = {cross_coupling!r}\n"
                           f"sweep.variable = phi\nsweep.start = {start!r}\n"
                           f"sweep.stop = {start + width!r}\nsweep.points = {points}\n"
                           "sweep.scale = linear", command="sensitivity")
        assert csv_cells(rows(run_command(cfg))) == csv_cells(self.oracle_rows(cfg))

    @settings(max_examples=60, deadline=None)
    @given(sigma_n=st.floats(1e-6, 1.2), eta=st.floats(0.01, 1.0), stop=st.floats(1e-9, 1e-3),
           points=st.integers(2, 60), on_pole=st.booleans(),
           length=st.none() | st.floats(0.0, 8.0))
    def test_power_sweep(self, sigma_n, eta, stop, points, on_pole, length):
        """Linear from 0 W (a domain row), optionally through the pole power."""
        sensor = f"sensor.eta = {eta!r}" if length is None else f"sensor.length = {length!r}"
        text = f"pump.sigma_n = {sigma_n!r}\n{sensor}\nsweep.variable = p_c\n"
        if on_pole and sigma_n < 0.999:
            rates = derive_rates(REFERENCE_GEOMETRY)
            pole = pole_coherent_amplitude(rates, Injection(sigma_n))
            stop = max(pole**2 * HBAR * REFERENCE_GEOMETRY.pump_frequency() * 2, 1e-30)
            points = 2 * (points // 2) + 1  # the middle point lands on the pole power
        cfg = parse_config(text + f"sweep.start = 0\nsweep.stop = {stop!r}\n"
                                  f"sweep.points = {points}\nsweep.scale = linear",
                           command="sensitivity")
        assert csv_cells(rows(run_command(cfg))) == csv_cells(self.oracle_rows(cfg))

    @settings(max_examples=60, deadline=None)
    @given(sigma_n=st.floats(0.0, 1.2), eta=st.floats(0.01, 1.0), ratio=st.floats(1.0, 1e4),
           alpha_c=st.floats(1.0, 1e6), points=st.integers(1, 30), near=st.floats(0.1, 0.9))
    def test_pole_and_improvement_sweeps(self, sigma_n, eta, ratio, alpha_c, points, near):
        """A linear alpha_c sweep whose middle point sits on the pole, and a DR sweep."""
        rates = derive_rates(REFERENCE_GEOMETRY)
        pole = 1.0
        if 0 < sigma_n < 0.999:
            pole = max(pole_coherent_amplitude(rates, Injection(sigma_n)),
                       1e-3)
        cfg = parse_config(f"pump.sigma_n = {sigma_n!r}\nsensor.eta = {eta!r}\n"
                           f"sweep.start = {pole * near!r}\nsweep.stop = {pole * (2 - near)!r}\n"
                           f"sweep.points = {2 * points + 1}\nsweep.scale = linear",
                           command="pole")
        assert csv_cells(rows(run_command(cfg))) == csv_cells(self.oracle_rows(cfg))
        cfg = parse_config(f"pump.sigma_n = {sigma_n!r}\npump.alpha_c = {alpha_c!r}\n"
                           f"improvement.decay_ratio = {ratio!r}\nsweep.points = {points + 1}",
                           command="improvement")
        assert csv_cells(rows(run_command(cfg))) == csv_cells(self.oracle_rows(cfg))

    def test_no_probe_without_pair_photons_is_a_domain_row(self):
        """sigma_n = 0 at 0 W: the closed form's gap is 0 (a pole), but there is no probe.

        Row by row, the pole handler's coherent reference raised and aborted the run.
        """
        table = run("sensitivity", "pump.sigma_n = 0\nsweep.variable = p_c\nsweep.start = 0\n"
                                   "sweep.stop = 1e-3\nsweep.points = 3\nsweep.scale = linear")
        assert [row[-1] for row in rows(table)] == ["domain", "", ""]
        assert all(math.isinf(cell) for cell in rows(table)[0][2:5])

    def test_flags_across_write_blocks(self, tmp_path):
        """Flags and values stay in their rows past the first write block."""
        assert 9001 > writer.WRITE_BLOCK_ROWS
        text = ("sweep.variable = phi\nsweep.start = 0\nsweep.stop = 6.283185307179586\n"
                "sweep.points = 9001\nsweep.scale = linear")
        path = tmp_path / "phase.csv"
        write_table(run("sensitivity", text), str(path))
        lines = path.read_text().splitlines()[3:]
        assert [line.split(",")[-1] for line in lines].count("pole") >= 3
        cfg = parse_config(text, command="sensitivity")
        assert [line.split(",") for line in lines] == csv_cells(self.oracle_rows(cfg))

    def test_long_sensor_rows_are_domain(self, tmp_path):
        """eta = e^(-0.23 * 1e4) underflows to 0: that row is flagged, the others unchanged."""
        path = tmp_path / "long.csv"
        assert main(["improvement", "--set", "sweep.stop=1e4", "--set", "sweep.points=5",
                     "--out", str(path)]) == 0
        lines = [line.split(",") for line in path.read_text().splitlines()[3:]]
        eta = [float(cells[1]) for cells in lines]
        assert eta[-1] == 0.0 and all(value > 0 for value in eta[:-1])
        assert lines[-1][2:] == ["inf", "domain"]
        cfg = parse_config("sweep.stop = 1e4\nsweep.points = 5", command="improvement")
        lit = [x for x, value in zip(cfg.sweep.grid().tolist(), eta) if value > 0]
        assert lines[:-1] == csv_cells(self.oracle_rows(cfg, lit))

    def test_long_sensor_flag_precedence(self):
        """threshold outranks domain, and domain outranks pole."""
        text = "sweep.stop = 1e4\nsweep.points = 5\n"
        above = run("improvement", text + "pump.sigma_n = 1.2")
        assert [row[-1] for row in rows(above)] == ["threshold"] * 5
        rates = derive_rates(REFERENCE_GEOMETRY)
        pole = pole_coherent_amplitude(rates, Injection(0.99895))
        on_pole = run("improvement", text + f"pump.alpha_c = {pole!r}")
        assert [row[-1] for row in rows(on_pole)] == ["pole"] * 4 + ["domain"]
        assert all(math.isinf(row[2]) for row in rows(on_pole))

    def test_default_improvement_csv_is_unchanged(self, tmp_path):
        """The default preset writes the bytes of the row-by-row table."""
        path = tmp_path / "improvement.csv"
        assert main(["improvement", "--out", str(path)]) == 0
        body = "".join(",".join(cells) + "\n" for cells in csv_cells(
            self.oracle_rows(parse_config("", command="improvement"))))
        assert path.read_text().split("\n", 3)[3] == body


def jsi_oracle_body(cfg) -> str:
    """The jsi rows in one shot: the whole meshgrid, then '%.17e' row by row."""
    rates = derive_rates(cfg.geometry)
    injection = _resolve_drive(cfg, rates, fwm_gain(cfg.geometry).gain)[0]
    span = cfg.jsi_span if cfg.jsi_span is not None else 3.0 * rates.gamma_total
    axis = np.linspace(-span, span, cfg.jsi_points)
    grid_s, grid_i = np.meshgrid(axis, axis, indexing="ij")
    values = jsi_density(rates, injection, grid_s, grid_i)
    return "".join("%.17e,%.17e,%.17e\n" % row for row in zip(
        grid_s.ravel().tolist(), grid_i.ravel().tolist(), values.ravel().tolist()))


class TestStreamedJsi:
    """The jsi table, computed and written one signal row at a time."""

    @staticmethod
    def check(settings):
        cfg = parse_config("\n".join(settings), command="jsi")
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "jsi.csv")
            argv = ["jsi"] + [arg for setting in settings for arg in ("--set", setting)]
            assert main(argv + ["--out", path]) == 0
            text = Path(path).read_text()
        header, body = text.split("\n", 3)[2:]
        assert header == "delta_ws,delta_wi,value"
        assert body == jsi_oracle_body(cfg)

    @settings(max_examples=40, deadline=None)
    @given(span=st.floats(1e3, 1e12), points=st.integers(2, 40), sigma_n=st.floats(0.0, 0.9999))
    def test_equals_one_shot_grid(self, span, points, sigma_n):
        self.check([f"jsi.span={span!r}", f"jsi.points={points}", f"pump.sigma_n={sigma_n!r}"])

    def test_more_rows_than_a_write_block(self):
        """More rows than one write block holds (100 x 100 at 8192 rows): several blocks."""
        points = math.isqrt(writer.WRITE_BLOCK_ROWS) + 10
        table = run_command(parse_config(f"jsi.points={points}", command="jsi"))
        assert len(list(table.blocks)) > 1
        self.check([f"jsi.points={points}", "pump.sigma_n=0.995"])

    @staticmethod
    def write_peak(points: int) -> int:
        """The tracemalloc peak of a points x points table written to the null device. The
        formatter's tables are built first: built inside, they would be traced too."""
        writer._e17_tables()
        cfg = parse_config(f"jsi.points = {points}", command="jsi")
        tracemalloc.start()
        try:
            write_table(run_command(cfg), os.devnull)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_linear_in_points(self):
        """A 400 x 400 table (three columns of 3.8 MB) is written in under 1.28 MB, the peak
        of the NUL-compacting writer."""
        assert self.write_peak(400) < 1.28e6

    def test_memory_does_not_grow_with_the_table(self):
        """An 800 x 800 table, four times the rows, peaks within 10% of a 400 x 400 one."""
        assert self.write_peak(800) <= 1.1 * self.write_peak(400)

    def test_rows_and_text_columns_across_write_blocks(self, tmp_path):
        """Blocks mixing formatted cells, arrays and flags split at WRITE_BLOCK_ROWS rows, and
        re-iterate for rows."""
        size = writer.WRITE_BLOCK_ROWS + 904
        values = np.linspace(-1.0, 1.0, size) * 1e9
        text = format_e17(values)
        pole = np.arange(size) % 2 == 1
        flags = writer.flags(size, pole=pole)
        table = ResultTable(columns=["a", "b", "flag"], meta={},
                            blocks=LazyBlocks(2, lambda k: [text, values * (k + 1), flags]))
        assert len(list(writer._chunks(next(iter(table.blocks))))) == 2
        path = tmp_path / "blocks.csv"
        write_table(table, str(path))
        labels = np.where(pole, "pole", "").tolist()
        expected = [[a, b * (k + 1), flag] for k in range(2)
                    for a, b, flag in zip(values.tolist(), values.tolist(), labels)]
        assert path.read_text() == "a,b,flag\n" + "".join(
            "%.17e,%.17e,%s\n" % tuple(row) for row in expected)
        assert rows(table) == expected


def e17_rows(*columns) -> bytes:
    """Broadcast columns as rows of '%.17e' cells joined by ','."""
    cells = [column.ravel().tolist() for column in np.broadcast_arrays(*columns)]
    return "".join(",".join("%.17e" % v for v in row) + "\n" for row in zip(*cells)).encode()


class TestRowAssembly:
    """Rows filled at fixed widths, or compacted where a column mixes widths, are the bytes of
    '%.17e' row by row, written to a file and to stdout alike. Flag cells are their text."""

    @staticmethod
    def written(table_or_argv, tmp_path, capsysbinary) -> bytes:
        """The CSV as written to a file, checked equal to what stdout receives."""
        path = tmp_path / "out.csv"
        capsysbinary.readouterr()
        if isinstance(table_or_argv, list):
            assert main(table_or_argv + ["--out", str(path)]) == 0
            assert main(table_or_argv) == 0
        else:
            write_table(table_or_argv, str(path))
            write_table(table_or_argv, None)
        assert capsysbinary.readouterr().out == path.read_bytes()
        return path.read_bytes()

    def check_jsi(self, settings, tmp_path, capsysbinary) -> list[list[str]]:
        cfg = parse_config("\n".join(settings), command="jsi")
        argv = ["jsi"] + [arg for setting in settings for arg in ("--set", setting)]
        body = self.written(argv, tmp_path, capsysbinary).split(b"\n", 3)[3]
        assert body == jsi_oracle_body(cfg).encode()
        return [line.split(",") for line in body.decode().splitlines()]

    @staticmethod
    def strided(cfg) -> list[bool]:
        """Per chunk of the table: whether it was filled at fixed widths (2-D bytes)."""
        return [chunk.ndim == 2 for block in run_command(cfg).blocks
                for chunk in writer._chunks(block)]

    @pytest.mark.parametrize("points", [6, 7, 200])
    def test_odd_and_even_points(self, points, tmp_path, capsysbinary):
        """An odd axis has an exact 0.0, a '%' cell as wide as a positive one but from byte 0."""
        settings = [f"jsi.points={points}"]
        rows = self.check_jsi(settings, tmp_path, capsysbinary)
        assert ("0.00000000000000000e+00" in {row[1] for row in rows}) == (points % 2 == 1)
        assert all(self.strided(parse_config("\n".join(settings), command="jsi")))

    def test_three_digit_axis_exponents(self, tmp_path, capsysbinary):
        rows = self.check_jsi(["jsi.span=1e-95", "jsi.points=7"], tmp_path, capsysbinary)
        assert rows[0][:2] == ["-9.99999999999999989e-96"] * 2 and rows[-1][1].endswith("e-96")

    @pytest.mark.parametrize("ratio", [1e25, 1e30, 1e60, 1e77, 1e80, 1e100])
    def test_spans_whose_values_mix_exponents(self, ratio, tmp_path, capsysbinary):
        """Values of 2- and 3-digit exponents, subnormals and 0 in one column. Where they
        cross 1e-99 within a run of one axis width (1e25 Gamma) the chunk is compacted.
        Where D = (4uv + (1 - s)(1 + s))^2 + 4 (u - v)^2 overflows, beyond about 1e77 Gamma,
        each cell is still the 100-digit value, or 0 where that underflows."""
        rates = derive_rates(REFERENCE_GEOMETRY)
        settings = [f"jsi.span={ratio * rates.gamma_total!r}", "jsi.points=9"]
        rows = self.check_jsi(settings, tmp_path, capsysbinary)
        values = [float(row[2]) for row in rows]
        assert min(v for v in values if v > 0) < 1e-99 < max(values)
        assert (0.0 in values) == (ratio == 1e100)
        assert (min(values) < 2.2250738585072014e-308) == (ratio >= 1e77)  # subnormal
        strided = self.strided(parse_config("\n".join(settings), command="jsi"))
        assert all(strided) == (ratio != 1e25)
        injection = Injection(parse_config("", command="jsi").sigma_n)
        for ws, wi, value in ([float(cell) for cell in row] for row in rows):
            exact = float(exact_moments.jsi(rates, injection, ws, wi))
            assert abs(value - exact) <= 1e-13 * exact + 4 * 5e-324, (ws, wi, value, exact)

    @pytest.mark.parametrize("block_rows", [4, 5])
    def test_signal_row_longer_than_a_write_block(self, block_rows, monkeypatch, tmp_path,
                                                   capsysbinary):
        """jsi.points above WRITE_BLOCK_ROWS: one signal row is cut into several chunks."""
        monkeypatch.setattr(writer, "WRITE_BLOCK_ROWS", block_rows)
        self.check_jsi(["jsi.points=7"], tmp_path, capsysbinary)
        cfg = parse_config("jsi.points=7", command="jsi")
        assert len(self.strided(cfg)) > 7

    def test_hand_built_blocks_with_special_values(self, tmp_path, capsysbinary):
        """Axis cells of every width (-0.0, inf, nan, 3-digit exponents) against values that
        mix widths, then values of one width."""
        signal = np.array([-1.5, -0.0, 0.0, 2.5e100, math.nan])[:, None]
        idler = np.array([-math.inf, -2.0, 3.0, math.nan, 1e-300, 4.0, 5.0, -0.0])[None]
        uniform = np.linspace(1.0, 9.0, signal.size * idler.size).reshape(signal.size, -1)
        mixed = uniform * np.where(np.arange(uniform.size) % 3, 1.0, -1.0).reshape(uniform.shape)
        mixed[1, 1], mixed[2, 2], mixed[3, 3], mixed[4, 5:7] = math.inf, math.nan, -0.0, 1e-300
        blocks = [(signal, idler, mixed), (signal, idler, uniform),
                  (signal[:2], idler, uniform[:2])]
        table = ResultTable(columns=["s", "i", "v"], meta={}, blocks=LazyBlocks(
            len(blocks), lambda k: [format_e17(blocks[k][0]),
                                    format_e17(blocks[k][1]), blocks[k][2]]))
        assert self.written(table, tmp_path, capsysbinary) == b"s,i,v\n" + b"".join(
            e17_rows(*block) for block in blocks)
        # Cut at the signal's widths: 4, 4 and 1 chunks. The chunk of two rows of the first
        # block mixes widths within idler runs: compacted. A chunk of one row is cut where any
        # column's widths change, unless that adds a cut per fewer than 80 rows: rows 2 and 3
        # of the first block, 8 cells each, are compacted; row 4 adds no cut.
        assert [chunk.ndim for block in table.blocks for chunk in writer._chunks(block)] == [
            1, 1, 1, 2, 2, 2, 2, 2, 2]
        np.testing.assert_array_equal(np.array(rows(table)), np.array(
            [row for block in blocks for row in zip(*(c.ravel().tolist() for c in
                                                      np.broadcast_arrays(*block)))]))

    # Cells of every width: +-0, +-inf, nan, subnormals, 2- and 3-digit exponents.
    WIDTHS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -4.9e-322,
              2.2250738585072014e-308, -1e-100, 9.999999999999999e99, 1e100, -1.5, 0.1, 1e300]

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), size=st.integers(1, 400), numbers=st.integers(1, 4),
           flag=st.booleans(),
           block_rows=st.sampled_from([writer.WRITE_BLOCK_ROWS, 7]), seed=st.integers(0, 3))
    def test_one_dimensional_tables(self, data, size, numbers, flag, block_rows, seed,
                                    monkeypatch, tmp_path, capsysbinary):
        """Numbers of every width and exact ties, in runs or cell by cell, beside flags of
        every kind from flags: '%.17e' row by row, whether a chunk is cut into runs or
        compacted."""
        monkeypatch.setattr(writer, "WRITE_BLOCK_ROWS", block_rows)
        pool = self.WIDTHS + exact_ties(2, seed)

        def column(strategy):
            """Drawn cell by cell, or as a few runs of one drawn value each."""
            if data.draw(st.booleans()):
                return data.draw(st.lists(strategy, min_size=size, max_size=size))
            inner = st.lists(st.integers(1, size - 1), max_size=5) if size > 1 else st.just([])
            marks = sorted({0, size, *data.draw(inner)})
            return [cell for a, b in zip(marks, marks[1:])
                    for cell in [data.draw(strategy)] * (b - a)]

        values = [np.array(column(st.sampled_from(pool) | st.floats())) for _ in range(numbers)]
        for k, scale in enumerate(data.draw(st.lists(st.booleans(), min_size=numbers,
                                                     max_size=numbers))):
            if scale:  # values that differ within a run of one width (or overflow to inf)
                with np.errstate(over="ignore"):
                    values[k] = values[k] * np.linspace(1.0, 1.5, size)
        names, columns = [f"x{k}" for k in range(numbers)], list(values)
        if flag:
            threshold, domain, pole = (np.array(column(st.booleans())) for _ in range(3))
            labels = np.where(threshold, "threshold",
                              np.where(domain, "domain", np.where(pole, "pole", ""))).tolist()
            columns.append(writer.flags(size, threshold=threshold, domain=domain, pole=pole))
        names += ["flag"] if flag else []
        table = ResultTable(columns=names, blocks=[columns], meta={})
        cells = [["%.17e" % v for v in column.tolist()] for column in values]
        assert self.written(table, tmp_path, capsysbinary).decode() == "".join(
            ",".join(row) + "\n" for row in [names, *zip(*cells, *([labels] if flag else []))])

    @pytest.mark.parametrize("cuts,strided", [(0, True), (4, True), (5, False), (399, False)])
    def test_runs_or_compaction_by_run_count(self, cuts, strided):
        """A chunk of one row, of a 1-D table or of a 2-D block, is cut where its widths
        change, unless that adds a cut per fewer than _RUN_ROWS rows: 4 cuts of 400 rows are
        written in runs, 5 compacted."""
        signs = np.ones(400)
        for k in range(cuts):  # every change of sign is a change of width
            signs[(k + 1) * 400 // (cuts + 1):] *= -1
        values = np.linspace(1.0, 2.0, 400) * signs
        chunks = writer._chunks([values, writer.flags(400)])
        assert [chunk.ndim == 2 for chunk in chunks] == [strided]
        # Two signal cells of two widths: one chunk of one row each.
        block = [format_e17(np.array([[-1.0], [1.0]])),
                 format_e17(np.linspace(1.0, 2.0, 400)[None]),
                 np.vstack([values] * 2)]
        assert [chunk.ndim == 2 for chunk in writer._chunks(block)] == [strided] * 2

    @pytest.mark.parametrize("settings,strided", [
        (["sweep.points=2001"], True),  # 3 changes of width
        (["pump.sigma_n=0.3", "sweep.start=-1e4", "sweep.stop=1e4", "sweep.points=2001"], False),
        ([], False),  # the default: 3 changes in 181 rows
    ])
    def test_squeezing_sweeps(self, settings, strided, tmp_path, capsysbinary):
        """A sweep with a change of width per 80 rows or more is written in runs; one whose
        widths change more often (734 changes in 2001 rows, 3 in 181) is compacted. Both
        read back as '%.17e' and the flag text."""
        cfg = parse_config("\n".join(settings), command="squeezing")
        assert self.strided(cfg) == [strided]
        argv = ["squeezing"] + [arg for setting in settings for arg in ("--set", setting)]
        body = self.written(argv, tmp_path, capsysbinary).split(b"\n", 3)[3]
        assert body.decode() == "".join(
            ",".join("%.17e" % v if isinstance(v, float) else v for v in row) + "\n"
            for row in rows(run_command(cfg)))


class TestImport:
    def test_cli_imports_no_scipy(self):
        """A fresh interpreter loads the whole command line without scipy."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import ringmzi.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"


class TestPresetRuntime:
    @pytest.mark.parametrize("command", ["jsi", "meanfield"])
    def test_default_presets_are_fast(self, command, tmp_path):
        """The heaviest default presets stay far under the 60 s budget."""
        import time
        start = time.monotonic()
        assert main([command, "--out", str(tmp_path / "out.csv")]) == 0
        assert time.monotonic() - start < 60.0


def texts(cells) -> list[str]:
    """The text of format_e17 cells as strings."""
    return [bytes(cell).replace(b"\0", b"").decode("ascii") for cell in cells]


def exact_ties(count: int, seed: int = 0) -> list[float]:
    """Doubles M / 2^s whose exact decimal has 19 significant digits, the last a 5:
    '%.17e' rounds each half to even."""
    rng, ties = np.random.default_rng(seed), []
    while len(ties) < count:
        shift = int(rng.integers(4, 60))
        mantissa = int(rng.integers(1, 2 ** 26)) * 2 ** 27 + int(rng.integers(0, 2 ** 27)) | 1
        if len(str(mantissa * 5 ** shift)) == 19:
            ties.append(mantissa / 2 ** shift)
    return ties


class TestFormatE17:
    """format_e17 writes the bytes of Python's '%.17e'."""

    @staticmethod
    def check(values) -> None:
        """The text of each cell: its bytes are the text from byte 0 or 1, NUL-padded, and its
        width the text's length, negated where it starts at byte 0."""
        values = np.asarray(values, dtype=np.float64)
        expected = ["%.17e" % value for value in values.tolist()]
        cells = format_e17(values)
        assert texts(cells.text) == expected
        later = (cells.text[:, 0] == 0).tolist()  # from byte 1
        assert [bytes(cell).rstrip(b"\0") for cell in cells.text] == [
            b"\0" * start + text.encode() for start, text in zip(later, expected)]
        assert cells.widths.tolist() == [len(text) if start else -len(text)
                                         for start, text in zip(later, expected)]

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
           floats=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=64))
    def test_random_bit_patterns_and_floats(self, bits, floats):
        """Every double, subnormals included, and hypothesis's own float edge cases."""
        self.check(np.array(bits, dtype=np.uint64).view(np.float64))
        self.check(floats)

    def test_random_bit_patterns_in_bulk(self):
        self.check(np.random.default_rng(7).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
                   .view(np.float64))

    def test_special_values(self):
        self.check([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308])

    def test_powers_of_ten_and_neighbours(self):
        """Where floor(log10) can be one off, and where the 18 digits carry."""
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)] +
                          [10.0 ** k for k in range(-307, 309)])
        for values in (powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf)):
            self.check(values)
            self.check(-values)
        # Both doubles lie within 5e-18 relative below their power of ten: k is one
        # less from the floored digits, but the 18 digits of 1e153 round up to 10^18.
        assert texts(format_e17(np.array([1e-305, 1e153])).text) == [
            "9.99999999999999996e-306", "1.00000000000000000e+153"]

    def test_exact_and_near_ties(self):
        ties = np.array(exact_ties(2000))
        for values in (ties, np.nextafter(ties, 0), np.nextafter(ties, math.inf), -ties):
            self.check(values)

    def test_decimals_and_integers(self):
        rng = np.random.default_rng(11)
        self.check(np.round(rng.uniform(-1e6, 1e6, 20_000), 3))
        self.check(rng.integers(-10 ** 15, 10 ** 15, 20_000).astype(float))

    def test_keeps_the_shape(self):
        cells = format_e17(np.zeros((3, 2)))
        assert cells.text.shape == (3, 2, 25) and cells.widths.shape == (3, 2)

    def test_input_layouts(self):
        """A big-endian array, a transposed 2-D view and a strided slice are formatted as
        '%.17e' and as their contiguous copies are."""
        values = np.random.default_rng(5).standard_normal((40, 30))
        values *= 10.0 ** np.arange(-150, 150, 10)  # 2- and 3-digit exponents
        values[0, :4] = [0.0, -math.inf, math.nan, 5e-324]
        for view in (values.astype(">f8"), values.T, values[::3, 1::2]):
            cells = format_e17(view)
            copy = format_e17(np.ascontiguousarray(view, dtype=np.float64))
            assert cells.text.shape == view.shape + (25,) and cells.widths.shape == view.shape
            assert texts(cells.text.reshape(-1, 25)) == ["%.17e" % v for v in view.ravel().tolist()]
            np.testing.assert_array_equal(cells.text, copy.text)
            np.testing.assert_array_equal(cells.widths, copy.widths)


class TestDefaultPresets:
    @pytest.mark.parametrize("command,digest", [
        ("rates", "619d294842e371271523401cbc859d39c341b15a99f4e83356f131f69b0e0b97"),
        ("squeezing", "31f293793ecc6199215c5cf79fa83d755ced790783f8dcd009707ce5603b57c2"),
        ("jsi", "fb82491fdd83ad1988b638468d59f1882e1b278ec1b427a27043a561370f68ee"),
        ("meanfield", "52cc699976fb57f489cbdf6fd9c1ba09962e0e19f32f190a064e11d0cedc2ab7"),
        ("sensitivity", "da3af680503c41f95f4562058616b3a6ef06bd4bd869afcc1686e465610ed560"),
        ("pole", "4599a81f3af948357ed97df4a6797323b79873c4719fd17dccd9467de48690b9"),
        ("improvement", "a54f4722e2c3e05c6b84da2c002def8fcf43a4ca9355b12f2dcb7f64a0483967"),
    ])
    def test_csv_bytes_are_pinned(self, command, digest, tmp_path):
        """The default CSVs keep the bytes that '%.17e' row by row wrote; the pair-moment
        tables as evaluated in units of Gamma."""
        path = tmp_path / f"{command}.csv"
        assert main([command, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestWriteTable:
    def test_metadata_and_values(self, tmp_path):
        table = ResultTable(columns=["x", "flag"],
                            blocks=[[np.array([1.5, math.inf]),
                                     writer.flags(2, pole=np.array([False, True]))]],
                            meta={"tool_version": "0.1.0", "config_sha256": "ab"})
        path = tmp_path / "out.csv"
        write_table(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_sha256=ab"
        assert lines[1] == "# tool_version=0.1.0"
        assert lines[2] == "x,flag"
        assert lines[3].startswith("1.5")
        assert lines[4] == "inf,pole"

    def test_array_rows_write_like_lists(self, tmp_path):
        """Columns write the bytes of their rows formatted one by one, across write blocks."""
        values = np.linspace(-1.0, 1.0, 3 * 5000).reshape(-1, 3) * 1e9
        values[7] = [math.inf, -math.inf, math.nan]
        path = tmp_path / "columns.csv"
        write_table(ResultTable(columns=["a", "b", "c"], blocks=[list(values.T)], meta={}),
                    str(path))
        text = path.read_text()
        assert text == "a,b,c\n" + "".join("%.17e,%.17e,%.17e\n" % tuple(row)
                                           for row in values.tolist())
        lines = text.splitlines()
        assert len(lines) == 5001
        assert lines[8] == "inf,-inf,nan"
        assert lines[1] == ",".join(format(v, ".17e") for v in values[0])

    @pytest.mark.parametrize("count", [1, 79, 81, writer.WRITE_BLOCK_ROWS + 79])
    def test_every_flag_kind_from_masks(self, count, tmp_path):
        """Flag cells of every kind write as text beside 0, inf and nan, from one row up to a
        table whose last write block is short, and read back as str."""
        values = np.random.default_rng(count).standard_normal((2, count)) * 1e5
        special = np.array([[0.0, math.inf, math.nan], [-math.inf, math.nan, -0.0]])
        values[:, :3] = special[:, :count]
        flags = (["threshold", "domain", "pole", ""] * count)[:count]
        kind = np.arange(count) % 4
        table = ResultTable(columns=["a", "b", "flag"], meta={}, blocks=[[
            *values, writer.flags(count, threshold=kind == 0, domain=kind == 1, pole=kind == 2)]])
        path = tmp_path / "flags.csv"
        write_table(table, str(path))
        assert path.read_text() == "a,b,flag\n" + "".join(
            "%.17e,%.17e,%s\n" % row for row in zip(*values.tolist(), flags))
        assert [row[-1] for row in rows(table)] == flags

    def test_one_row_of_eight_floats(self, tmp_path):
        """The shape of the rates table, with every special value a cell can hold."""
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.5e-300, 6.02214076e23]
        path = tmp_path / "row.csv"
        write_table(ResultTable(columns=list("abcdefgh"), blocks=[[np.array([v]) for v in values]],
                                meta={}), str(path))
        assert path.read_text() == "a,b,c,d,e,f,g,h\n%s\n" % ",".join("%.17e" % v for v in values)

    @pytest.mark.parametrize("count", [1, 100])
    def test_int_and_bool_columns_write_as_numbers(self, count, tmp_path):
        """As '%.17e' writes them, in a table of any size."""
        ints, bools = np.arange(count) - 7, np.arange(count) % 2 == 0
        path = tmp_path / "ints.csv"
        write_table(ResultTable(columns=["n", "b", "x"], blocks=[[ints, bools, ints / 3]],
                                meta={}), str(path))
        assert path.read_text() == "n,b,x\n" + "".join(
            "%.17e,%.17e,%.17e\n" % row for row in zip(ints.tolist(), bools.tolist(),
                                                     (ints / 3).tolist()))

    def test_deterministic_bytes(self, tmp_path):
        args = ["squeezing", "--set", "sweep.points=7", "--set", "pump.sigma_n=0.9"]
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(path_a)]) == 0
        assert main(args + ["--out", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()

    SWEEP = ["squeezing", "--set", "sweep.points=2001"]

    @pytest.fixture
    def fresh(self, tmp_path):
        """The bytes of the 2001-point sweep written to a new path."""
        path = tmp_path / "fresh.csv"
        assert main(self.SWEEP + ["--out", str(path)]) == 0
        return path.read_bytes()

    @pytest.mark.parametrize("case", ["longer", "shorter", "identical", "symlink", "mode"])
    def test_overwrite_equals_fresh_write(self, case, fresh, tmp_path):
        """Written over an existing file, the sweep has the bytes of a write to a new path.
        The file keeps its inode; a symlink is written through and kept; a mode is kept."""
        old = tmp_path / "old.csv"
        if case == "shorter":
            assert main(["rates", "--out", str(old)]) == 0
        elif case == "identical":
            old.write_bytes(fresh)
        else:
            assert main(["jsi", "--out", str(old)]) == 0  # the default 200 x 200 table
        assert len(old.read_bytes()) != len(fresh) or case == "identical"
        out = old
        if case == "symlink":
            out = tmp_path / "link.csv"
            out.symlink_to(old)
        elif case == "mode":
            old.chmod(0o600)
        inode = old.stat().st_ino
        assert main(self.SWEEP + ["--out", str(out)]) == 0
        assert old.read_bytes() == fresh
        assert old.stat().st_ino == inode
        assert out.is_symlink() == (case == "symlink")
        if case == "mode":
            assert stat.S_IMODE(old.stat().st_mode) == 0o600

    class _SmallDisk(io.FileIO):
        """A file that takes `room` bytes, then fails every write as a full disk does."""
        room = 0

        def write(self, data):
            if not self.room:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            count = super().write(memoryview(data)[:self.room])
            self.room -= count
            return count

    @pytest.mark.parametrize("failure,room,old", [
        pytest.param("chunks", None, "longer", id="chunks"),
        pytest.param("disk", 0, "longer", id="disk-0"),
        pytest.param("disk", 5000, "longer", id="disk-5000"),
        pytest.param("disk", 5000, "shorter", id="disk-5000-over-shorter")])
    def test_failed_write_leaves_no_previous_byte(self, failure, room, old, fresh,
                                                  tmp_path, monkeypatch, capsys):
        """A write that fails after its first chunk, or whose flush at close fails, exits 3
        and leaves a prefix of the new table: nothing of the file it wrote over, whether
        that was longer than the prefix or shorter."""
        path = tmp_path / "old.csv"
        old_bytes = 2 * len(fresh) if old == "longer" else 2500
        path.write_bytes(b"\xff" * old_bytes)  # no byte of it is CSV text
        if failure == "chunks":
            monkeypatch.setattr(writer, "WRITE_BLOCK_ROWS", 500)  # the sweep in five chunks
            chunks = writer._chunks

            def first_chunk_only(block):
                yield next(chunks(block))
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            monkeypatch.setattr(writer, "_chunks", first_chunk_only)
        else:
            def small_disk_open(file, mode, closefd=True):
                raw = self._SmallDisk(file, mode, closefd=closefd)
                raw.room = room
                return io.BufferedWriter(raw)
            monkeypatch.setattr(writer, "open", small_disk_open, raising=False)
        assert main(self.SWEEP + ["--out", str(path)]) == 3
        assert "cannot write output" in capsys.readouterr().err
        left = path.read_bytes()
        assert fresh.startswith(left)
        if failure == "chunks":
            assert 0 < len(left) < len(fresh)  # the header and the first chunk
        else:
            assert len(left) == room

    def test_dev_null(self):
        assert main(["rates", "--out", os.devnull]) == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_fifo_receives_the_file_bytes(self, fresh, tmp_path):
        fifo = tmp_path / "table.pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(self.SWEEP + ["--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert received == [fresh]


class TestMain:
    def test_stdout_run(self, capsys):
        assert main(["rates"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# config_sha256=")
        assert "kappa" in out

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("pump.sigma_n = 0.5\n")
        assert main(["rates", "--config", str(config)]) == 0
        capsys.readouterr()

    def test_config_error_exit_code(self, capsys):
        assert main(["rates", "--set", "geometry.cross_coupling=1.5"]) == 2
        assert "cross_coupling" in capsys.readouterr().err

    @pytest.mark.parametrize("command,setting", [("squeezing", "pump.sigma_n=nan"),
                                                 ("squeezing", "sweep.start=nan")])
    def test_nan_is_config_error(self, command, setting, capsys):
        assert main([command, "--set", setting]) == 2
        key = setting.split("=")[0]
        assert f"line 2: {key} expects a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command,setting,message", [
        ("rates", "pump.delta_p=inf", "line 2: pump.delta_p must be finite, got 'inf'"),
        ("sensitivity", "pump.delta_p=inf", "line 2: pump.delta_p must be finite, got 'inf'"),
        ("improvement", "improvement.decay_ratio=-1",
         "line 2: improvement.decay_ratio must be positive, got '-1'"),
        # kappa/decay_ratio overflows: the message names the key, not gamma alone.
        ("improvement", "improvement.decay_ratio=1e-300", "improvement.decay_ratio = 1e-300"),
        # kappa = 0, whose own decay ratio would be 0: the ring is rejected before the ratio
        # is read, with no ZeroDivisionError traceback.
        ("improvement", "geometry.cross_coupling=0",
         "kappa = 0.0 must be positive for a threshold to exist (from geometry.cross_coupling)"),
        # An infinite probe wrote every improvement row 'inf,pole'.
        ("improvement", "pump.alpha_c=inf", "line 2: pump.alpha_c must be finite, got 'inf'"),
        ("improvement", "pump.p_c=inf", "line 2: pump.p_c must be finite, got 'inf'"),
        # Without loss e^(-alpha_loss * length) is 1, a valid eta, for any length.
        ("sensitivity", "sensor.length=-5 sensor.alpha_loss=0",
         "line 2: sensor.length must be finite and >= 0, got '-5'"),
        ("pole", "sensor.length=-5 sensor.alpha_loss=0",
         "line 2: sensor.length must be finite and >= 0, got '-5'"),
        # The improvement ring's (Gamma/2)^2 underflows: P_th = 0 left p_l / P_th undefined.
        ("improvement", "geometry.cross_coupling=1e-300 pump.p_l=1e-3 improvement.decay_ratio=1e10"
         " sweep.points=2", "p_th = 0.0 must be positive and finite "
         "(from improvement.decay_ratio, geometry.cross_coupling, pump.p_l)"),
        # A line without '=' or without a value, and a phase sweep, which has no default
        # bounds, given none.
        ("rates", "pump.sigma_n", "line 2: expected 'section.key = value', got 'pump.sigma_n'"),
        ("rates", "pump.sigma_n=", "line 2: empty value for 'pump.sigma_n'"),
        ("sensitivity", "sweep.variable=phi", "sweep.start and sweep.stop are required"),
    ], ids=["rates-delta_p", "sensitivity-delta_p", "decay_ratio-negative",
            "decay_ratio-overflow", "decay_ratio-zero-kappa", "improvement-alpha_c",
            "improvement-p_c", "sensitivity-negative-length", "pole-negative-length",
            "improvement-ring-p_th-underflow", "no-equals", "empty-value",
            "phase-sweep-without-bounds"])
    def test_out_of_range_value_names_its_key(self, command, setting, message, capsys):
        """``setting`` is one or more space-separated KEY=VALUE pairs, one --set each."""
        assert main([command] + [arg for pair in setting.split() for arg in ("--set", pair)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    # sigma_n is the first failing point of the 22-point grid from 0.1: the second, 0.1 +
    # (stop - 0.1)/21, for the stop rule; for the overflow the first whose sigma_n C does.
    @pytest.mark.parametrize("setting,sigma_n,cause", [
        ("sweep.stop=1e12", 47619047619.14286, "changes at relative rate 9.6e-08"),
        ("sweep.stop=1e30", 4.761904761904762e+28, "changes at relative rate"),
        # N_0 = sigma_n C overflows at C = Gamma/(2g) = 3.6e8.
        ("sweep.stop=1e300", 5.238095238095239e+299,
         "the empty-cavity pump number sigma_n Gamma/(2g) overflows at Gamma/(2g) = "),
        # C itself overflows, g being 3.6e-305: N_0 = 0 C is not a number at sigma_n = 0.
        ("geometry.n2=5e-324 sweep.start=0 sweep.scale=linear", 0.0,
         "the empty-cavity pump number sigma_n Gamma/(2g) overflows at Gamma/(2g) = inf"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_meanfield_out_of_reach_names_sigma_n(self, setting, sigma_n, cause, capsys):
        """A steady state that misses its stop rule, or whose empty-cavity pump number
        overflows, exits 2 with the sigma_n and the keys it comes from, not a traceback.
        ``setting`` is one or more space-separated KEY=VALUE pairs, one --set each."""
        argv = [arg for pair in setting.split() for arg in ("--set", pair)]
        assert main(["meanfield"] + argv) == 2
        err = capsys.readouterr().err
        assert f"no mean-field steady state at sigma_n = {sigma_n!r}: " in err
        assert cause in err
        assert "(from sweep.start, sweep.stop, geometry.ring_length, " in err
        assert "geometry.cross_coupling" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("settings", [
        # kappa = 1.2e-289 Hz, where the waveguide drive in sqrt(Hz) overflows.
        ["geometry.cross_coupling=1e-300"],
        # C = 8.6e189, whose square overflows.
        ["geometry.n2=1e-200", "sweep.stop=0.99"],
        # C = 8.6e289, across threshold, where a_pp m_si is of order C^2.
        ["geometry.n2=1e-300"],
    ], ids=["tiny-kappa", "tiny-g", "tinier-g"])
    def test_meanfield_far_from_the_reference_ring(self, settings, tmp_path):
        """The solve runs in units of Gamma: rings whose absolute drive leaves the float
        range exit 0 with finite cells (ns_lin inf only on threshold rows), np_lin =
        sigma_n C, and ns_mf = ns_lin within 2e-14 below threshold where C is so large
        that the pump does not deplete there."""
        path = tmp_path / "meanfield.csv"
        assert main(["meanfield", "--out", str(path)]
                    + [arg for pair in settings for arg in ("--set", pair)]) == 0
        header, *body = [line.split(",") for line in path.read_text().splitlines()
                         if not line.startswith("#")]
        columns = dict(zip(header, map(list, zip(*body))))
        flag = np.array(columns.pop("flag"))
        sigma_n, ns_lin, ns_mf, np_lin, np_mf = (np.array(columns[name], dtype=float)
                                                 for name in header[:-1])
        assert np.isfinite([ns_mf, np_lin, np_mf]).all()
        assert np.array_equal(np.isinf(ns_lin), flag == "threshold")
        assert np.isfinite(ns_lin[flag == ""]).all() and (flag == "").any()
        cfg = parse_config("\n".join(settings), command="meanfield")
        clamp = derive_rates(cfg.geometry).gamma_total / (2 * fwm_gain(cfg.geometry).gain)
        assert np_lin == pytest.approx(sigma_n * clamp, rel=4e-16)
        if clamp > 1e150:
            below = flag == ""
            assert ns_mf[below] == pytest.approx(ns_lin[below], rel=2e-14)

    @pytest.mark.parametrize("argv,key,variable", [
        (["improvement"], "sensor.length=1e4", "sensor_length"),
        (["improvement"], "sensor.eta=0.5", "sensor_length"),
        (["sensitivity"], "pump.p_c=1e-3", "p_c"),
        (["sensitivity"], "pump.alpha_c=1e4", "p_c"),
        (["pole"], "pump.alpha_c=1e4", "alpha_c"),
        (["pole"], "pump.p_c=1e-3", "alpha_c"),
        (["meanfield"], "pump.sigma_n=0.5", "sigma_n"),
        (["meanfield"], "pump.p_l=1e-3", "sigma_n"),
    ])
    def test_key_the_sweep_overrides_is_config_error(self, argv, key, variable, capsys):
        """The table would ignore the key: the error names the sweep variable instead."""
        assert main(argv + ["--set", key]) == 2
        name, value = key.split("=")
        line = len(argv) // 2 + 2
        assert (f"line {line}: {name} is overridden by the {variable} sweep, got '{value}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command,key", [("squeezing", "pump.delta_p=1e9"),
                                             ("squeezing", "pump.alpha_c=1e4")])
    def test_key_a_command_never_reads_stays_accepted(self, command, key, capsys):
        """One file serves all seven commands, so an unread key is not an error."""
        assert main([command, "--set", "sweep.points=3"]) == 0
        plain = capsys.readouterr().out.split("\n", 1)[1]  # after the config_sha256 line
        assert main([command, "--set", key, "--set", "sweep.points=3"]) == 0
        assert capsys.readouterr().out.split("\n", 1)[1] == plain

    def test_negative_power_sweep_is_config_error(self, capsys):
        assert main(["sensitivity", "--set", "sweep.variable=p_c", "--set", "sweep.scale=linear",
                     "--set", "sweep.start=-1", "--set", "sweep.stop=1"]) == 2
        assert "p_c" in capsys.readouterr().err

    @pytest.mark.parametrize("command,variable", [("meanfield", "sigma_n"), ("pole", "alpha_c"),
                                                  ("improvement", "sensor_length")])
    def test_negative_sweep_is_config_error(self, command, variable, capsys):
        """A sigma_n below 0 has no drive amplitude: no math domain error traceback."""
        assert main([command, "--set", "sweep.start=-0.5", "--set", "sweep.stop=0.5",
                     "--set", "sweep.points=3", "--set", "sweep.scale=linear"]) == 2
        err = capsys.readouterr().err
        assert f"a {variable} sweep must not go below 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("points", ["0", "1", "-3"])
    def test_jsi_points_below_two_is_config_error(self, points, capsys):
        assert main(["jsi", "--set", f"jsi.points={points}"]) == 2
        assert "jsi.points must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["inf", "-inf", "0", "-1e9"])
    def test_jsi_span_must_be_positive_and_finite(self, span, capsys):
        assert main(["jsi", "--set", f"jsi.span={span}", "--set", "jsi.points=3"]) == 2
        assert "line 2: jsi.span must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma_n", ["1.2", "1.0"])
    def test_jsi_at_or_above_threshold_is_config_error(self, sigma_n, tmp_path, capsys):
        """Checked before the output is opened: no partial CSV of lazily computed rows."""
        path = tmp_path / "jsi.csv"
        assert main(["jsi", "--set", f"pump.sigma_n={sigma_n}", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert "jsi needs a drive below threshold" in err
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("command,loss", [("sensitivity", "-1"), ("improvement", "-1"),
                                              ("improvement", "inf")])
    def test_sensor_loss_must_be_finite_and_nonnegative(self, command, loss, capsys):
        assert main([command, "--set", "sensor.length=1", "--set",
                     f"sensor.alpha_loss={loss}"]) == 2
        assert "line 3: sensor.alpha_loss must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sensitivity", "pole"])
    def test_dark_sensor_is_config_error(self, command, capsys):
        """e^(-alpha_loss * length) underflowing to 0 names both keys, not just eta."""
        assert main([command, "--set", "sensor.length=1e4"]) == 2
        err = capsys.readouterr().err
        assert "line 2: sensor.length = '1e4' with sensor.alpha_loss = 0.23" in err
        assert "Traceback" not in err

    def test_dark_sensor_in_improvement_stays_a_domain_row(self, capsys):
        assert main(["improvement", "--set", "sweep.stop=1e4", "--set", "sweep.points=3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(",domain")

    def test_sweep_points_cap(self, capsys):
        """Refused while parsing, before any grid exists; the cap itself is accepted."""
        assert parse_config("sweep.points = 1000000", command="squeezing").sweep.points == 1_000_000
        with pytest.raises(ConfigError, match="line 2: sweep.points must be at most 1000000"):
            parse_config("\nsweep.points = 1000001", command="squeezing")
        assert main(["squeezing", "--set", "sweep.points=2e6"]) == 2
        assert "line 2: sweep.points must be at most 1000000, got '2e6'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="line 1: jsi.points must be at most 1000000"):
            parse_config("jsi.points = 1000001", command="jsi")
        assert main(["jsi", "--set", "jsi.points=1000001"]) == 2
        err = capsys.readouterr().err
        assert "line 2: jsi.points must be at most 1000000, got '1000001'" in err
        assert "Traceback" not in err

    def test_lossless_ring_improvement(self, capsys):
        """gamma = 0 gives an infinite decay ratio, not a ZeroDivisionError; the factor is
        the 60-digit 74.1589436432238653 to the last bit."""
        assert main(["improvement", "--set", "geometry.alpha_loss=0",
                     "--set", "sweep.points=3"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        rows = [line.split(",") for line in captured.out.splitlines()[3:]]
        assert len(rows) == 3
        assert all(float(eta) == 1.0 and flag == "" for _, eta, _, flag in rows)
        assert {improvement for _, _, improvement, _ in rows} == {"7.41589436432238784e+01"}

    @staticmethod
    def exact_variance_rows(command_line, rates, sigma_n, capsys):
        """Assert that the squeezing table has unflagged rows whose variance is the exact
        value at 100 digits, within 1e-13, and no traceback."""
        assert main(command_line) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        rows = [line.split(",") for line in captured.out.splitlines()[3:]]
        assert rows and all(row[3] == "" for row in rows)
        for phi_lo, variance, variance_db, _ in rows:
            exact = exact_moments.variance(rates, Injection(sigma_n), float(phi_lo))
            assert float(variance) == pytest.approx(float(exact), rel=1e-13)
            assert float(variance_db) == pytest.approx(10 * math.log10(float(exact)), rel=1e-13)

    def test_lossless_ring_variance_stays_positive(self, capsys):
        """gamma = 0 near threshold: V(pi/2) is 1.8e-16, the exact value at float pi/2, and
        not a variance rounded to 0."""
        rates = derive_rates(replace(REFERENCE_GEOMETRY, alpha_loss=0.0))
        self.exact_variance_rows(["squeezing", "--set", "geometry.alpha_loss=0", "--set",
                                  "pump.sigma_n=0.99999999", "--set", "sweep.points=3"],
                                 rates, 0.99999999, capsys)

    def test_drive_within_rounding_of_threshold_is_exact(self, capsys):
        """At sigma_n = 1 - 1e-9 the rows are finite and exact, not threshold rows."""
        self.exact_variance_rows(["squeezing", "--set", "pump.sigma_n=0.999999999",
                                  "--set", "sweep.points=3"],
                                 derive_rates(REFERENCE_GEOMETRY), 0.999999999, capsys)

    @pytest.mark.parametrize("command,setting,key", [
        *((command, f"geometry.ring_length={length}", None)
          for command in ("squeezing", "jsi", "sensitivity", "pole")
          for length in ("1e-80", "1e90")),
        ("improvement", "improvement.decay_ratio=1e-100", None),
        ("rates", "geometry.ring_length=1e-160", "geometry.ring_length"),
        ("squeezing", "geometry.ring_length=1e-160", "geometry.ring_length"),
        ("rates", "geometry.n2=1e300", "geometry.n2"),
        ("rates", "geometry.ring_length=1e-310", "geometry.ring_length"),
        ("rates", "pump.delta_p=1e200", "pump.delta_p"),
        # A probe whose 2 alpha_c^2 overflows reads inf <= inf in the pole test: far from
        # the pole, rows would be flagged pole.
        pytest.param("sensitivity", "sweep.stop=1e300 sweep.points=2", "sweep.start, sweep.stop",
                     id="sensitivity-p_c-sweep-1e300"),
        pytest.param("pole", "sweep.stop=1e300 sweep.points=2", "sweep.start, sweep.stop",
                     id="pole-alpha_c-sweep-1e300"),
        pytest.param("improvement", "pump.alpha_c=1e300 sweep.points=2", "pump.alpha_c",
                     id="improvement-alpha_c-1e300"),
        *(pytest.param("sensitivity", f"sweep.variable=phi sweep.start=1 sweep.stop=2 "
                       f"sweep.points=2 {key}=1e300", key, id=f"sensitivity-phi-{key}-1e300")
          for key in ("pump.alpha_c", "pump.p_c")),
        pytest.param("pole", "sweep.stop=1e154 sweep.points=2", "sweep.start, sweep.stop",
                     id="pole-alpha_c-sweep-1e154"),
        # No probe: the improvement is undefined, a config error naming the probe's key.
        pytest.param("improvement", "pump.alpha_c=0", "pump.alpha_c", id="improvement-alpha_c-0"),
        pytest.param("improvement", "pump.p_c=0", "pump.p_c", id="improvement-p_c-0"),
    ])
    def test_extreme_inputs_write_finite_rows_or_name_their_key(self, command, setting, key,
                                                                 capsys):
        """Exit 0 with no nan cell, or a config error naming the key; never a traceback.
        ``setting`` is one or more space-separated KEY=VALUE pairs, one --set each."""
        status = main([command] + [arg for pair in setting.split() for arg in ("--set", pair)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if key is None:
            assert status == 0
            cells = [cell for line in captured.out.splitlines()[3:] for cell in line.split(",")]
            assert cells and "nan" not in cells
        else:
            assert status == 2 and key in captured.err

    def test_pump_flux_beyond_float_range(self, capsys):
        """P_th = 4.3e291 W is finite but P_th/(hbar omega_p) is not: dphi_snl is still
        1/sqrt(flux), about 5.5e-156, not 0. The probe's photons are negligible beside it."""
        assert main(["sensitivity", "--set", "geometry.cross_coupling=1e-300",
                     "--set", "sweep.points=2"]) == 0
        lines = capsys.readouterr().out.splitlines()[3:]
        assert len(lines) == 2
        geometry = replace(REFERENCE_GEOMETRY, cross_coupling=1e-300)
        omega_p = geometry.pump_frequency()
        p_th = threshold_power(derive_rates(geometry), fwm_gain(geometry).gain, omega_p)
        with mpmath.workdps(50):
            expected = float(mpmath.sqrt(mpmath.mpf(HBAR) * omega_p / (mpmath.mpf(0.99895) * p_th)))
        for line in lines:
            snl, flag = line.split(",")[4:]
            assert float(snl) == pytest.approx(expected, rel=1e-15, abs=0) and flag == ""

    def test_jsi_span_beyond_float_range_of_gamma(self, capsys):
        """A span of more than 1e308 linewidths has no offsets in units of Gamma."""
        assert main(["jsi", "--set", "geometry.ring_length=1e90", "--set", "jsi.span=1e300",
                     "--set", "jsi.points=3"]) == 2
        assert "jsi.span = 1e+300 is more than 1e308 Gamma" in capsys.readouterr().err

    def test_successive_calls_share_no_parser_state(self, tmp_path, capsys):
        """The parser is built once; --set lists of earlier calls do not leak into later ones."""
        first, second, expected = (tmp_path / f"{name}.csv"
                                   for name in ("first", "second", "expected"))
        assert main(["squeezing", "--set", "pump.sigma_n=0.5", "--set", "sweep.points=3",
                     "--out", str(first)]) == 0
        assert main(["squeezing", "--set", "sweep.points=4", "--out", str(second)]) == 0
        assert _parser() is _parser()
        write_table(run("squeezing", "sweep.points = 4"), str(expected))
        assert second.read_bytes() == expected.read_bytes()

    def test_retired_time_horizon_key(self, capsys):
        """The direct mean-field solve has no integration horizon to set."""
        assert main(["meanfield", "--set", "meanfield.t_max_factor=3e6"]) == 2
        assert "unknown key 'meanfield.t_max_factor'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_retired_phase_key(self, command, capsys):
        """The MZI tables are taken at phi = pi/2 or over the phase sweep: no command reads a
        phase key."""
        assert main([command, "--set", "sensor.phi=0.3"]) == 2
        err = capsys.readouterr().err
        assert "line 2: unknown key 'sensor.phi'" in err and "Traceback" not in err

    def test_unknown_key_exit_code(self, capsys):
        assert main(["rates", "--set", "geometry.nope=1"]) == 2
        capsys.readouterr()

    def test_missing_config_file_is_io_error(self, capsys):
        assert main(["rates", "--config", "/nonexistent/run.cfg"]) == 3
        capsys.readouterr()

    def test_unwritable_output_is_io_error(self, capsys):
        assert main(["rates", "--out", "/nonexistent/dir/out.csv"]) == 3
        capsys.readouterr()

    def test_flagged_rows_keep_exit_zero(self, capsys):
        """Per-point physics failures flag rows without changing the exit code."""
        assert main(["squeezing", "--set", "pump.sigma_n=1.2",
                     "--set", "sweep.points=3"]) == 0
        out = capsys.readouterr().out
        assert "threshold" in out

    def test_set_overrides_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("pump.sigma_n = 0.5\n")
        assert main(["squeezing", "--config", str(config), "--set", "pump.sigma_n=0.95",
                     "--set", "sweep.points=41"]) == 0
        out = capsys.readouterr().out
        db = [float(line.split(",")[2]) for line in out.splitlines()[3:]]
        assert min(db) == pytest.approx(-15.0, abs=0.2)
