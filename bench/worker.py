"""Child process of bench/run.py: runs one workload in-process and times it.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR

Imports ringmzi from ./src, writes each table of a pass to DIR/<name>.csv
through ringmzi.cli.main, and prints one JSON line with the timings. The
first pass is a warm-up and is not timed; its files are the ones run.py
checks, and every later output must match them byte for byte. After each
timed table, outside the timed region, a fixed pure-Python loop is timed as
a measure of the machine's speed at that moment.

With --trace 1 untraced and traced passes alternate. In a traced pass,
calls from ringmzi.cli into params, cavity_io, interferometer and meanfield
are wrapped where ringmzi.cli binds them, as are parse_config, run_command
and write_table, and ringmzi.meanfield.mf_derivatives counts
right-hand-side evaluations.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import resource
import sys
import threading
import time

import workloads

KERNEL_MODULES = ("params", "cavity_io", "interferometer", "meanfield")
CLI_LAYERS = ("parse_config", "run_command", "write_table")


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ringmzi.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"worker: ringmzi imported from {cli.__file__}, not from {src}")
    return cli


def _digest(path: str) -> tuple[str, int, int]:
    """(sha256, bytes, data rows) of a CSV, read in blocks."""
    sha = hashlib.sha256()
    size = newlines = 0
    with open(path, "rb") as handle:
        while block := handle.read(1 << 20):
            if not size:  # metadata lines lead the file
                preamble = sum(1 for line in block.split(b"\n") if line.startswith(b"#"))
            sha.update(block)
            size += len(block)
            newlines += block.count(b"\n")
    return sha.hexdigest(), size, newlines - preamble - 1


class Tracer:
    """Spans (layer, start, end, thread) of the calls made from ringmzi.cli."""

    def __init__(self, cli):
        import ringmzi.meanfield as meanfield
        self.spans: list[tuple[str, float, float, int]] = []
        self.rhs_calls = 0
        self._swaps: list[tuple[object, str, object, object]] = []
        for name, obj in list(vars(cli).items()):
            module = getattr(obj, "__module__", "") or ""
            layer = module.rpartition(".")[2]
            if inspect.isfunction(obj) and module.startswith("ringmzi.") and layer in KERNEL_MODULES:
                self._swaps.append((cli, name, obj, self._timed(obj, layer)))
            elif name in CLI_LAYERS:
                self._swaps.append((cli, name, obj, self._timed(obj, name)))
        rhs = meanfield.mf_derivatives
        self._swaps.append((meanfield, "mf_derivatives", rhs, self._counted(rhs)))

    def install(self) -> None:
        for owner, name, _, wrapper in self._swaps:
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original, _ in self._swaps:
            setattr(owner, name, original)

    def _timed(self, fn, layer: str):
        spans, clock, ident = self.spans, time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((layer, start, clock(), ident()))
        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.rhs_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def take(self) -> dict:
        """Per-layer figures of the spans recorded since the last call."""
        spans = self.spans[:]
        self.spans.clear()  # the wrappers hold this list
        rhs, self.rhs_calls = self.rhs_calls, 0
        out = {f"{m}.ms": 0.0 for m in KERNEL_MODULES}
        kernel = [s for s in spans if s[0] in KERNEL_MODULES]
        for layer, start, end, _ in kernel:
            out[f"{layer}.ms"] += (end - start) * 1e3
        run = [s for s in spans if s[0] == "run_command"]
        run_ms = sum(end - start for _, start, end, _ in run) * 1e3
        covered = 0.0
        for _, run_start, run_end, _ in run:
            covered += _union_length([(max(s, run_start), min(e, run_end))
                                      for _, s, e, _ in kernel if s < run_end and e > run_start])
        out.update({
            "cli.parse_ms": sum(e - s for layer, s, e, _ in spans if layer == "parse_config") * 1e3,
            "cli.write_ms": sum(e - s for layer, s, e, _ in spans if layer == "write_table") * 1e3,
            "cli.run_ms": run_ms,
            "cli.table_ms": run_ms - covered * 1e3,
            "kernel.calls": len(kernel),
            "kernel.threads": len({s[3] for s in kernel}),
            "meanfield.rhs_calls": rhs,
        })
        return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def _run_pass(cli, tables, out_dir, reference, tracer=None):
    """Run every table once; returns per-table seconds, trace figures and the
    reference-loop times taken after each table."""
    seconds, traces, loops = {}, {}, []
    for table in tables:
        path = os.path.join(out_dir, f"{table.name}.csv")
        argv = table.argv(path)
        start = time.perf_counter()
        code = cli.main(argv)
        seconds[table.name] = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"worker: {table.name} exited with {code}")
        if tracer is not None:
            traces[table.name] = tracer.take()
        if reference is not None and _digest(path)[0] != reference[table.name][0]:
            raise SystemExit(f"worker: {table.name} output differs from the warm-up pass")
        loops.append(reference_loop())
    return seconds, traces, loops


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    cli = _import_cli(os.getcwd())
    tables = workloads.build(args.workload, args.seed)

    _run_pass(cli, tables, args.out, None)
    reference = {t.name: _digest(os.path.join(args.out, f"{t.name}.csv")) for t in tables}
    rows = sum(reference[t.name][2] for t in tables)

    result = {"tables": len(tables), "rows": rows,
              "bytes": sum(reference[t.name][1] for t in tables), "passes": [], "loops": []}
    tracer = Tracer(cli) if args.trace else None
    begin = time.perf_counter()
    while not result["passes"] or time.perf_counter() - begin < args.seconds:
        seconds, _, loops = _run_pass(cli, tables, args.out, reference)
        result["passes"].append(seconds)
        result["loops"] += loops
        if tracer is None:
            continue
        # Traced passes alternate with plain ones, so that drift in machine
        # speed falls on both sides of the tracing-overhead estimate.
        tracer.install()
        try:
            seconds, traces, _ = _run_pass(cli, tables, args.out, reference, tracer)
        finally:
            tracer.restore()
        result.setdefault("traced_passes", []).append(seconds)
        result.setdefault("traces", []).append(traces)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
