"""ringmzi benchmark: one workload, timed end to end or per layer, then checked.

    python3 bench/run.py --workload sweeps|jsi-grid|meanfield --seed N \
        --seconds S --trace 0|1

Run from the root of a ringmzi checkout; ringmzi is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics (setup_s, rows_per_s, peak_rss_mb); --trace 1 reports the per-layer
metrics, measured in a separate run with wrappers around each layer. See
bench/README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import KERNEL_MODULES  # noqa: E402

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT_S = 150
# Typical time of worker.reference_loop on the machine of the README's figures.
REFERENCE_LOOP_S = 0.009
SWEEP_TABLES = ("squeezing", "pole", "improvement", "power", "phase", "threshold")
SUMMED = tuple(f"{m}.ms" for m in KERNEL_MODULES) + (
    "cli.parse_ms", "cli.table_ms", "cli.write_ms", "kernel.calls", "meanfield.rhs_calls")


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def setup_seconds(root: str) -> float:
    """Median wall time of a fresh interpreter running ``import ringmzi.cli``."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ringmzi.cli"], env=_child_env(root),
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_layers(root: str) -> dict:
    """Modules imported and self time of scipy and ringmzi, from -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ringmzi.cli"],
                              env=_child_env(root), check=True, timeout=60,
                              capture_output=True, text=True)
        modules, self_us = 0, {"scipy": 0, "ringmzi": 0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, _, name = line[len("import time:"):].split("|")
            modules += 1
            package = name.strip().split(".")[0]
            if package in self_us:
                self_us[package] += int(own)
        runs.append((modules, self_us["scipy"] / 1e3, self_us["ringmzi"] / 1e3))
    return {
        "setup.modules": statistics.median(r[0] for r in runs),
        "setup.scipy_ms": statistics.median(r[1] for r in runs),
        "setup.ringmzi_ms": statistics.median(r[2] for r in runs),
    }


def src_lines(root: str) -> int:
    total = 0
    for folder, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def _rows_per_s(rows: int, passes: list[dict]) -> float:
    """Rows of all timed passes over the summed wall time of their calls.

    A sum, not a median of passes: this machine's speed switches between two
    levels about 40% apart every few seconds, and a median of a few long
    passes lands on one level or the other, while the sum averages them.
    """
    return rows * len(passes) / sum(sum(p.values()) for p in passes)


def _at_reference_speed(rate: float, loops: list[float]) -> float:
    """``rate`` rescaled to the machine speed at which the reference loop takes
    REFERENCE_LOOP_S: the speed also drifts over minutes, by up to 30% between
    runs, and the loop, timed between the tables, follows that drift."""
    return rate * statistics.fmean(loops) / REFERENCE_LOOP_S


def layer_metrics(root: str, workload: str, run: dict) -> dict:
    metrics = import_layers(root)
    traces = run["traces"]
    for key in SUMMED:
        metrics[key] = statistics.median(sum(t[key] for t in trace.values()) for trace in traces)
    metrics["kernel.threads"] = statistics.median(
        max(t["kernel.threads"] for t in trace.values()) for trace in traces)
    for name in SWEEP_TABLES:
        metrics[f"sweep.{name}_ms"] = (
            statistics.median(trace[name]["cli.run_ms"] for trace in traces)
            if workload == "sweeps" else 0.0)
    metrics["cli.rows"] = run["rows"]
    metrics["cli.csv_bytes"] = run["bytes"]
    metrics["code.src_lines"] = src_lines(root)
    plain = _rows_per_s(run["rows"], run["passes"])
    traced = _rows_per_s(run["rows"], run["traced_passes"])
    metrics["trace.overhead_pct"] = 100.0 * (plain - traced) / plain
    metrics["wall.rows_per_s"] = plain
    metrics["machine.loop_ms"] = statistics.fmean(run["loops"]) * 1e3
    units = {"wall.rows_per_s": "rows/s", "setup.modules": "count", "kernel.calls": "count",
             "kernel.threads": "count", "meanfield.rhs_calls": "count", "cli.rows": "count",
             "cli.csv_bytes": "bytes", "code.src_lines": "count", "trace.overhead_pct": "%"}
    return {name: {"value": value, "unit": units.get(name, "ms")} for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ringmzi", "cli.py")):
        print("bench: run from the root of a ringmzi checkout (no src/ringmzi/cli.py here)",
              file=sys.stderr)
        return 2

    out_root = os.path.join(BENCH_DIR, "_out")
    os.makedirs(out_root, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        setup = None if args.trace else setup_seconds(root)
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", out_dir],
            env=_child_env(root), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        problems = []
        for table in workloads.build(args.workload, args.seed):
            problems += checks.check_file(table, os.path.join(out_dir, f"{table.name}.csv"),
                                          args.seed)
        for problem in problems:
            print(f"bench: {problem}", file=sys.stderr)
        if args.trace:
            metrics = layer_metrics(root, args.workload, run)
            calls = run["tables"] * (1 + len(run["passes"]) + len(run["traced_passes"]))
        else:
            metrics = {
                "setup_s": {"value": setup, "unit": "s"},
                "rows_per_s": {"value": _at_reference_speed(
                    _rows_per_s(run["rows"], run["passes"]), run["loops"]), "unit": "rows/s"},
                "peak_rss_mb": {"value": run["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
            calls = run["tables"] * (1 + len(run["passes"]))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": calls, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
