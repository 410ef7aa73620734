#!/usr/bin/env python3
"""Run one workload of the friezes benchmark and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  The
loop is closed with one client: each op starts when the previous one has
returned, in this one process, with no threads.  Rounds of the run's ops
repeat until ``--seconds`` have passed, and every op's output is checked
outside its timed span.

Ops are timed in process CPU time (user plus system): they run in one
thread, do no I/O and never sleep, so on an idle machine their CPU time is
their wall time, and it leaves out the time the scheduler gives the CPU to
other processes.  Each op's CPU time is scaled to the reference speed of
``speed.py`` by a calibration kernel timed before it, because the shared
host's own speed drifts by more than the benchmark's bounds.  Raw CPU and
wall-clock figures are kept in the record line.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` untraced rounds run for half the time, then one round is
replayed with every layer boundary wrapped, and the last line holds the
per-layer metrics; spans are written to ``.perfbench-out/``.  The line
before the last records the machine, the seed and the run's shape.  The exit
code is 0 only when every op was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import cases
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 15
MIN_ROUNDS = 5
MODULES = ("gf", "frieze", "search", "formulas", "moduli", "partitions", "cli")

# Times one set-up in a fresh interpreter: import the package, build every
# field the workload uses.  Then it times the calibration kernel, and prints
# both CPU times.
SETUP_CHILD = """
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import friezes, friezes.cli
from friezes.gf import parse_field_descriptor
specs = [parse_field_descriptor(d) for d in sys.argv[3:]]
setup = time.process_time() - t0
sys.path.insert(0, sys.argv[2])
import speed
print(setup, speed.Meter().factor())
"""


def measure_setup(descriptors: list[str]) -> tuple[list[float], list[float]]:
    """Raw CPU seconds of each set-up and the same scaled to reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), *descriptors],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup, factor = map(float, done.stdout.split())
        raw.append(setup)
        scaled.append(setup * factor)
    return raw, scaled


def load_library():
    sys.path.insert(0, str(SRC))
    importlib.import_module("friezes")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"friezes.{m}") for m in MODULES}
    )


def machine(seed: int, load_before) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "seed": seed,
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest-rank sample, out of n, has at
    least ten samples beyond it."""
    return 100 * (n - 10) // n


def tail_index(n: int, percentile: int) -> int:
    """Nearest-rank index (0-based) of the percentile in n sorted samples."""
    return max(0, math.ceil(percentile / 100 * n) - 1)


class Runner:
    """Runs and checks ops, keeping the failures."""

    def __init__(self, lib, specs, golden, tracer=None):
        self.lib, self.specs, self.golden, self.tracer = lib, specs, golden, tracer
        self.meter = speed.Meter()
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, op: cases.Op, op_id: int = 0) -> tuple[float, float, float]:
        """Run one op, check it, and return its seconds at reference speed,
        its CPU seconds and its wall seconds."""
        self.attempted += 1
        tracer = self.tracer
        error = out = None
        self.meter.sample()
        gc.collect()
        if tracer:
            tracer.current_op = op_id
            root = tracer.open("op")
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            out = cases.run(self.lib, self.specs, op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = f"raised {exc!r}"
        elapsed = time.process_time() - t0
        wall = time.perf_counter() - w0
        if tracer:
            tracer.close(root)
            tracer.current_op = None
            if op.kind == "cli" and out is not None:
                tracer.count("cli.stdout_bytes", len(out[1].encode()))
        if error is None:
            try:
                error = cases.check(self.lib, self.specs, op, out, self.golden)
            except Exception as exc:
                error = f"check raised {exc!r}"
        if error:
            self.failures.append(f"{op.key}: {error}")
        return elapsed * self.meter.factor(), elapsed, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=cases.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    started = time.perf_counter()
    os.environ.pop("FRIEZES_BUDGET", None)
    if not (SRC / "friezes" / "__init__.py").is_file():
        print(f"no library source under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    menu = cases.slots(args.workload, golden)
    descriptors = cases.fields(menu)
    setup_raw, setup_times = ([], []) if args.trace else measure_setup(descriptors)

    lib = load_library()
    specs = {d: lib.gf.parse_field_descriptor(d) for d in descriptors}
    runner = Runner(lib, specs, golden)
    gc.freeze()  # keep the benchmark's own objects out of the library's collections
    for op in cases.warmup(menu):
        runner(op)
    to_first_op = time.perf_counter() - started

    # Rounds run every op of the run once, each round in a fresh seeded
    # order, until the time is up and every op has MIN_ROUNDS samples.  An
    # op's latency is the median of its samples at reference speed.
    rng = random.Random(args.seed)
    ops = cases.draw_run(args.workload, menu, rng)
    samples: list[list[tuple[float, float, float]]] = [[] for _ in ops]
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_rounds = 1 if args.trace else MIN_ROUNDS
    rounds = 0
    loop_start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - loop_start < seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            samples[i].append(runner(ops[i]))
        rounds += 1

    # Per op, the median of its scaled, CPU and wall seconds.
    scaled, cpu, wall = (
        sorted(statistics.median(t[k] for t in s) for s in samples) for k in range(3)
    )
    percentile = tail_percentile(len(scaled))
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "ops_per_round": len(ops),
        "rounds": rounds,
        "latency_tail_percentile": percentile,
        "samples_beyond_tail": len(scaled) - 1 - tail_index(len(scaled), percentile),
        "start_to_first_timed_op_s": to_first_op,
        "cpu_latency_p50_ms": statistics.median(cpu) * 1e3,
        "wall_latency_p50_ms": statistics.median(wall) * 1e3,
        "kernel_ms_median": statistics.median(runner.meter.history) * 1e3,
        "reference_kernel_ms": speed.REFERENCE_S * 1e3,
    }
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, lib)
        tracer.current_op = spans.SETUP_OP
        for d in descriptors:
            lib.gf.parse_field_descriptor(d)
        tracer.current_op = None
        runner.tracer = tracer
        traced = sum(runner(ops[i], i)[0] for i in order)  # the last round's order
        untraced = statistics.median(  # per round
            sum(t[0] for t in round_) for round_ in zip(*samples)
        )
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
        info["missing_spans"] = sorted(tracer.missing)
        OUT.mkdir(exist_ok=True)
        keys = [op.key for op in ops]
        tracer.write(OUT / f"spans-{args.workload}.csv.gz", keys)
        with open(OUT / f"ops-{args.workload}.csv", "w") as fh:
            fh.write("op,key,seconds,other_s\n")
            for op_id, (dur, other) in sorted(spans.other_by_op(tracer).items()):
                fh.write(f"{op_id},{keys[op_id]},{dur:.9f},{other:.9f}\n")
    else:
        metrics = {
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "latency_tail_ms": {
                "value": scaled[tail_index(len(scaled), percentile)] * 1e3,
                "unit": "ms",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
        info["setup_s_samples"] = setup_times
        info["setup_cpu_s_samples"] = setup_raw

    failed = len(runner.failures)
    info["error_rate"] = failed / runner.attempted
    info["failures"] = runner.failures[:20]
    info["machine"] = machine(args.seed, load_before)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
