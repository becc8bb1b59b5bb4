"""Closed-loop runner: set-up repetitions, whole rounds of timed operations, result.

One operation runs at a time.  Each is timed alone with perf_counter and
its outputs are checked outside the timed region, in a forked child, so
the check's memory never counts in the run's peak RSS.  Rounds are whole,
so every run attempts the same operations in the same proportions whatever
its length; a new round starts only while the measured time plus one more
round fits in the run's seconds (at least one round always runs).
"""

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads
from tracer import Tracer

# set-up repeats at least this often and until this much time has passed;
# the reported setup_s is the median repetition
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def check_apart(check, outputs):
    """check(outputs) run in a forked child; returns its list of problems."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                problems = [str(p) for p in check(outputs)]
            except Exception:
                problems = [f"check raised:\n{traceback.format_exc()}"]
            with os.fdopen(write_fd, "w") as fh:
                json.dump(problems, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else ["check process ended without a verdict"]


class _Unit:
    """Attribute the spans recorded inside the block to one unit."""

    def __init__(self, tracer, unit):
        self.tracer, self.unit = tracer, unit

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.unit = self.unit

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.unit = None


def run_workload(name, seed, seconds, trace, io_dir, L=None):
    """Run one workload; returns (result, details).

    L overrides the workload's grid level (the tests use tiny grids).
    details holds the set-up and per-operation times and, for a
    traced run, the per-unit trace tables.
    """
    workload = workloads.WORKLOADS[name]
    L = workload.L if L is None else L
    tracer = Tracer().install(workloads.flaglp) if trace else None
    problems = []
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            state = None
            gc.collect()
            with _Unit(tracer, ("setup", len(setup_times))):
                start = time.perf_counter()
                state = workload.setup(seed, L, io_dir)
                setup_times.append(time.perf_counter() - start)
            if not state["blocks_identical"]:
                problems.append("block read-back differs from the generated corpus")

        ops = workload.round(state)
        times, labels = [], []
        attempted = failed = rounds = 0
        while True:
            for op in ops:
                gc.collect()
                with _Unit(tracer, ("op", attempted)):
                    attempted += 1
                    start = time.perf_counter()
                    try:
                        outputs = op.run()
                    except Exception:
                        failed += 1
                        print(f"{op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                        continue
                    finally:
                        elapsed = time.perf_counter() - start
                    if tracer is not None:
                        tracer.count("unit.wall_s", elapsed)
                times.append(elapsed)
                labels.append(op.label)
                problems += [f"{op.label}: {p}" for p in check_apart(op.check, outputs)]
                del outputs
            rounds += 1
            measured = sum(times)
            if not times or measured + measured / rounds > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        values = tracer.metrics(PER_LAYER_UNITS)
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "op_p50_s": statistics.median(times) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(values[key]), "unit": unit} for key, unit in units.items()},
    }
    details = {"setup_s": setup_times, "ops": list(zip(labels, times))}
    if trace:
        details["trace"] = [{"unit": list(unit), "metrics": table}
                            for unit, table in sorted(tracer.unit_tables().items())]
    return result, details
