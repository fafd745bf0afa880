#!/usr/bin/env python3
"""Compare two sets of untraced run reports, one workload at a time.

    python3 perfbench/compare.py --base .perfbench_out/A*.json --head .perfbench_out/B*.json

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles and the head's change against the base, and marks a change
worse than the metric's bound as a regression (exit 1).  Where the base's
own spread (quartile distance over median) exceeds the bound, a metric is
reported as unresolved, not as unchanged, unless every head run beats every
base run.

It refuses (exit 2) to compare reports from different workloads, different
kernel engines (pure and compiled), or traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    reports = [json.loads(Path(p).read_text()) for p in paths]
    if any(r["provenance"]["trace"] for r in reports):
        print("compare: traced runs carry no end-to-end metrics", file=sys.stderr)
        sys.exit(2)
    return reports


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True, help="report files of the parent")
    ap.add_argument("--head", nargs="+", required=True, help="report files of the change")
    args = ap.parse_args(argv)
    base, head = load(args.base), load(args.head)

    for key in ("kernel_backend", "workload", "seconds"):
        seen = {r["provenance"][key] for r in base + head}
        if len(seen) > 1:
            print(f"compare: refusing to mix runs with different {key}: {sorted(map(str, seen))}", file=sys.stderr)
            return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressions = 0
    print(f"workload {base[0]['provenance']['workload']}, engine {base[0]['provenance']['kernel_backend']}, "
          f"{len(base)} base and {len(head)} head runs")
    print(f"{'metric':<14} {'unit':<5} {'base q1/med/q3':>30} {'head q1/med/q3':>30} {'change':>8}  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        bv = [r["result"]["metrics"][name]["value"] for r in base]
        hv = [r["result"]["metrics"][name]["value"] for r in head]
        b, h = summary(bv), summary(hv)
        change = (h[1] - b[1]) / b[1]
        sign = 1 if m["better"] == "lower" else -1
        if sign * change > m["bound"]:
            verdict = "REGRESSION"
            regressions += 1
        elif (b[2] - b[0]) / b[1] > m["bound"]:
            # the base's own spread is wider than the bound: only a change
            # that beats every base run in every head run counts
            beats_all = all(sign * x < sign * y for x in hv for y in bv)
            verdict = "better" if beats_all else "unresolved"
        else:
            verdict = "ok"
        fmt = lambda s: "/".join(f"{x:.4g}" for x in s)  # noqa: E731
        print(f"{name:<14} {m['unit']:<5} {fmt(b):>30} {fmt(h):>30} {change:>+8.1%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
