"""Seeded ringmzi CLI configurations, one list of tables per workload.

The seed moves operating points (pump level, probe amplitude, decay ratio,
sweep ranges, grid span) inside ranges where every table keeps its row
count and its number of flagged rows, so the work per pass does not depend
on the seed. The program sees only the generated ``--set`` lines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import reference as ref

SWEEP_POINTS = 2001
THRESHOLD_POINTS = 201
JSI_POINTS = 501
JSI_SIGMA_N = 0.995          # C5 anchors the JSI centre value at this drive
CROWDED_POINTS = 16


@dataclass(frozen=True)
class Table:
    """One CLI call: ``ringmzi <command> --set key=value ...``.

    ``name`` labels the table in metrics and file names; ``kind`` selects its
    correctness check; ``settings`` are the configuration entries as typed
    values, which the checks read back.
    """

    name: str
    command: str
    kind: str
    settings: dict

    def argv(self, out_path: str) -> list[str]:
        args = [self.command]
        for key, value in self.settings.items():
            text = repr(float(value)) if isinstance(value, float) else str(value)
            args += ["--set", f"{key}={text}"]
        return args + ["--out", out_path]


def _sweeps(rng: random.Random) -> list[Table]:
    ring = ref.reference_ring()

    def drive() -> float:
        # -15.0 +- 0.2 dB squeezing (C3) holds over this whole range.
        return rng.uniform(0.95, 0.9995)

    def probe() -> float:
        return 10 ** rng.uniform(4.5, 5.5)

    sn_pole = drive()
    a_pole = ref.pole_amplitude(ring, sn_pole)
    sn_power = drive()
    p_pole = ref.pole_amplitude(ring, sn_power) ** 2 * ref.HBAR * ring.omega_p
    pole_index = rng.randint(200, SWEEP_POINTS - 200)
    half_width = rng.uniform(1.2, 1.5)
    return [
        Table("squeezing", "squeezing", "squeezing",
              {"pump.sigma_n": drive(), "sweep.points": SWEEP_POINTS}),
        # Starts on the pole: row 0 is flagged 'pole'.
        Table("pole", "pole", "pole",
              {"pump.sigma_n": sn_pole, "sweep.start": a_pole,
               "sweep.stop": a_pole * 10 ** rng.uniform(2.0, 4.0), "sweep.points": SWEEP_POINTS}),
        Table("improvement", "improvement", "improvement",
              {"pump.sigma_n": drive(), "pump.alpha_c": probe(),
               "improvement.decay_ratio": 10 ** rng.uniform(1.0, 3.0),
               "sweep.points": SWEEP_POINTS}),
        # Linear from 0 W: row 0 is flagged 'domain' (alpha_c = 0), and the
        # grid lands on the pole power at row pole_index.
        Table("power", "sensitivity", "power",
              {"pump.sigma_n": sn_power, "sweep.variable": "p_c", "sweep.scale": "linear",
               "sweep.start": 0.0, "sweep.stop": p_pole * (SWEEP_POINTS - 1) / pole_index,
               "sweep.points": SWEEP_POINTS}),
        # Symmetric about pi/2, so the middle row sits at phi = pi/2.
        Table("phase", "sensitivity", "phase",
              {"pump.sigma_n": drive(), "pump.alpha_c": probe(), "sweep.variable": "phi",
               "sweep.start": math.pi / 2 - half_width, "sweep.stop": math.pi / 2 + half_width,
               "sweep.points": SWEEP_POINTS}),
        # Above threshold: every row is flagged 'threshold'.
        Table("threshold", "squeezing", "squeezing",
              {"pump.sigma_n": rng.uniform(1.0, 1.2), "sweep.points": THRESHOLD_POINTS}),
    ]


def _jsi_grid(rng: random.Random) -> list[Table]:
    span = rng.uniform(2.0, 4.0) * ref.reference_ring().total
    return [Table("jsi", "jsi", "jsi",
                  {"pump.sigma_n": JSI_SIGMA_N, "jsi.span": span, "jsi.points": JSI_POINTS})]


def _meanfield(rng: random.Random) -> list[Table]:
    return [
        # The default preset: 22 rows from 0.1 to 1.15, across threshold.
        Table("preset", "meanfield", "meanfield", {}),
        # Crowded just below threshold, where each LSODA point is slowest.
        Table("crowded", "meanfield", "meanfield",
              {"sweep.start": 0.9 + rng.uniform(0.0, 0.005),
               "sweep.stop": 0.999 - rng.uniform(0.0, 0.0005),
               "sweep.points": CROWDED_POINTS}),
    ]


WORKLOADS = {"sweeps": _sweeps, "jsi-grid": _jsi_grid, "meanfield": _meanfield}


def build(workload: str, seed: int) -> list[Table]:
    """The tables of one pass of ``workload``; the same seed gives the same tables."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
