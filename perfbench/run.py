#!/usr/bin/env python3
"""Run one benchmark workload against the orbitcompat sources of this tree.

    python3 perfbench/run.py --workload sl3-sweep --seed 1 --seconds 35 --trace 0

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits 1 and prints no result.

One process, one thread.  Set-up (import, input generation, any prebuilt
basis) is timed, and repeated between rounds; then whole rounds of the
workload's operations run until the next round would overrun ``--seconds``.
Each operation is timed alone and its output is checked against the oracles
afterwards.  Between operations ``calibration.Probe`` gauges how much other
tenants slow the machine; each time is divided by the slowdown around it,
and the end-to-end timings use each operation's mean over the rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds that record spans around every library entry
point, and prints the per-layer metrics of the traced rounds and the tracing
overhead; the spans go to ``.perfbench_out/trace-<workload>-<seed>.json``.
Every run also writes its report, with provenance, to ``.perfbench_out/``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S in
# all, so that a 35 ms import is repeated often enough for a steady median
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_library():
    """Import orbitcompat afresh from SRC and return it with its modules."""
    for name in [m for m in sys.modules if m.split(".")[0] == "orbitcompat"]:
        del sys.modules[name]
    pkg = importlib.import_module("orbitcompat")
    if Path(pkg.__file__).resolve().parent != SRC / "orbitcompat":
        sys.exit(f"perfbench: imported orbitcompat from {pkg.__file__}, not {SRC}")
    mods = {
        name: importlib.import_module(f"orbitcompat.{name}")
        for name in ("orbits", "groebner", "_kernel", "hilbert", "chern", "ioformats", "polyring")
    }
    lib = argparse.Namespace(**mods, MultiPoly=mods["polyring"].MultiPoly)
    return pkg, mods, lib


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(ops, seconds: float, probe, tracer=None, rounds: int | None = None, between=None):
    """Run whole rounds of ops; stop after ``rounds`` rounds, or when the
    next round would take the time spent in rounds past ``seconds``.
    ``between(progress)`` runs after each round, outside the time, with
    the share of ``seconds`` spent so far; ``probe`` gauges the machine's
    speed between operations.  Returns per-op times and start times,
    failures, wrong outputs and the number of rounds."""
    times: list[float] = []
    starts: list[float] = []
    failed = 0
    problems: list[str] = []
    done = 0
    spent = 0.0
    while True:
        round_start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op += 1
                span = tracer.begin(tracing.OP)
            t0 = time.perf_counter()
            try:
                out = op.run()
                ok = True
            except Exception:
                ok = False
                failed += 1
                print(f"perfbench: {op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end(span)
            times.append(dt)
            starts.append(t0)
            if ok:
                problems += [f"{op.label}: {p}" for p in op.check(out)]
            probe.maybe()
        if tracer is not None:
            tracer.drain_counts()
        done += 1
        round_s = time.perf_counter() - round_start
        spent += round_s
        if done == rounds or (rounds is None and spent + round_s > seconds):
            break
        if between is not None:
            between(spent / seconds)
    return times, starts, failed, problems, done


def mean_per_op(times: list[float], per_round: int) -> list[float]:
    """Each operation's mean time over the run's rounds."""
    return [statistics.fmean(times[i::per_round]) for i in range(per_round)]


def end_to_end(per_op: list[float], setup_s: float) -> dict:
    ms = [t * 1000 for t in per_op]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        # inclusive: a round of few operations interpolates between its two
        # slowest, never beyond the slowest
        "op_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "orbitcompat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no orbitcompat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    setup = WORKLOADS[args.workload]
    setup_times: list[float] = []
    setup_scaled: list[float] = []
    probe = calibration.Probe()

    def set_up():
        before = probe.take()
        t0 = time.perf_counter()
        pkg, mods, lib = import_library()
        ops, check_prebuilt = setup(lib, args.seed)
        setup_times.append(time.perf_counter() - t0)
        setup_scaled.append(setup_times[-1] / ((before + probe.take()) / 2))
        return pkg, mods, ops, check_prebuilt()

    # the first set-up provides the ops; the repeats only time set-up, spread
    # between rounds in step with the run's progress so that their median
    # spans the run
    pkg, mods, ops, problems = set_up()

    def repeats() -> int:
        # the fastest set-up so far, since the first may compile bytecode
        return max(SETUP_REPEATS, math.ceil(SETUP_MIN_S / min(setup_times)))

    def repeat_setup(progress: float = 1.0):
        while len(setup_times) < min(repeats(), 1 + math.ceil((repeats() - 1) * progress)):
            problems.extend(set_up()[3])

    n = len(ops)

    def scaled(times: list[float], starts: list[float]) -> list[float]:
        """Every time divided by the machine's slowdown around it."""
        return [t / probe.speed(s, s + t) for t, s in zip(times, starts)]

    report = {
        "provenance": {
            "kernel_backend": pkg.kernel_backend,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "setup_times_s": setup_times,
        "ops_per_round": n,
    }
    if args.trace:
        # untraced and traced rounds alternate, so that both see the same
        # spells of contention and their difference is the tracing cost
        tracer = tracing.Tracer(mods)
        times, traced, failed, rounds, spent = [], [], 0, 0, 0.0
        while True:
            t0 = time.perf_counter()
            plain_t, plain_s, plain_failed, plain_wrong, _ = measure(ops, args.seconds, probe, rounds=1)
            tracer.install()
            try:
                traced_t, traced_s, traced_failed, traced_wrong, _ = measure(ops, args.seconds, probe, tracer, rounds=1)
            finally:
                tracer.uninstall()
            times += scaled(plain_t, plain_s)
            traced += scaled(traced_t, traced_s)
            failed += plain_failed + traced_failed
            problems += plain_wrong + traced_wrong
            rounds += 1
            pair_s = time.perf_counter() - t0
            spent += pair_s
            if spent + pair_s > args.seconds:
                break
        attempted = len(times) + len(traced)
        metrics = tracing.layer_metrics(tracer, len(traced))
        overhead = sum(mean_per_op(traced, n)) / sum(mean_per_op(times, n)) - 1
        metrics["trace.overhead_pct"] = (overhead * 100, "%")
        report["rounds"] = rounds
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "provenance": report["provenance"],
                    "layers": tracing.layer_table(tracer, len(traced)),
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "attr"],
                    "spans": tracer.spans,
                }
            )
        )
    else:
        times, starts, failed, wrong, rounds = measure(ops, args.seconds, probe, between=repeat_setup)
        repeat_setup()
        problems += wrong
        attempted = len(times)
        metrics = end_to_end(mean_per_op(scaled(times, starts), n), statistics.median(setup_scaled))
        unscaled = end_to_end(mean_per_op(times, n), statistics.median(setup_times))
        report["rounds"] = rounds
        report["unscaled_metrics"] = {name: value for name, (value, _) in unscaled.items()}
        report["probes"] = probe.probes
        report["op_ms"] = [t * 1000 for t in times]
        report["op_start_s"] = starts
        report["setup_scaled_s"] = setup_scaled

    for p in problems[:20]:
        print(f"perfbench: wrong output: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(report)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
