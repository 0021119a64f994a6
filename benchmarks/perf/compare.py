"""Compare two ``results.json`` files of the perf benchmark.

    python3 benchmarks/perf/compare.py A/results.json B/results.json [--identical]

``A`` is the reference (the parent commit), ``B`` the candidate.  One row
per (workload, end-to-end metric) with both medians, quartiles and run
counts, and a verdict:

* ``REGRESSION`` — B's median is worse than A's by more than the
  metric's bound, and the runs are steady enough to say so;
* ``unresolved`` — the run-to-run spread of either side exceeds the
  bound, so the medians cannot be told apart (never reported as
  unchanged);
* ``better`` — every run of B beats every run of A;
* ``ok`` — within the bound.

Deterministic metrics (oracle error, counts) are compared for equality.
The exit code is 1 on any regression, and with ``--identical`` (two runs
of one commit, or a change that must not alter simulated statistics) also
when any deterministic value differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from benchlib import quartiles


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range over the median; unknown for a single run."""
    if len(values) < 2:
        return None
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def all_better(a: Sequence[float], b: Sequence[float], better: str) -> bool:
    if len(a) < 2 or len(b) < 2:
        return False
    return max(b) < min(a) if better == "lower" else min(b) > max(a)


def all_worse(a: Sequence[float], b: Sequence[float], better: str) -> bool:
    return all_better(b, a, better)


def verdict(entry_a: Dict, entry_b: Dict) -> str:
    a, b = entry_a["values"], entry_b["values"]
    better, bound = entry_a["better"], entry_a["bound"]
    if entry_a["exact"]:
        if a[0] == b[0]:
            return "same"
        worse_by = b[0] - a[0] if better == "lower" else a[0] - b[0]
        return "REGRESSION" if worse_by > bound else "changed"
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    worse = worsening(median_a, median_b, better)
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    noisy = bool(spreads) and max(spreads) > bound
    if worse > bound:
        if noisy and not all_worse(a, b, better):
            return "unresolved"
        return "REGRESSION"
    if all_better(a, b, better):
        return "better"
    return "unresolved" if noisy else "ok"


def _cell(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(a: Dict, b: Dict, identical: bool, out=sys.stdout) -> int:
    regressions: List[str] = []
    differing: List[str] = []
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            regressions.append(f"{workload}: missing from B")
            continue
        print(f"== {workload}", file=out)
        for name, entry_a in side_a["end_to_end"].items():
            entry_b = side_b["end_to_end"].get(name)
            if not entry_a["values"] or entry_b is None or not entry_b["values"]:
                print(f"  {name:<24} not measured on both sides", file=out)
                continue
            result = verdict(entry_a, entry_b)
            change = worsening(quartiles(entry_a["values"])[1],
                               quartiles(entry_b["values"])[1], entry_a["better"])
            print(f"  {name:<24} {entry_a['unit']:<9} A {_cell(entry_a['values']):<40} "
                  f"B {_cell(entry_b['values']):<40} worse by {change:+8.2%}  "
                  f"bound {entry_a['bound']:g}  {result}", file=out)
            if result == "REGRESSION":
                regressions.append(f"{workload} {name}")
            if entry_a["exact"] and result != "same":
                differing.append(f"{workload} {name}: {entry_a['values'][0]!r} "
                                 f"!= {entry_b['values'][0]!r}")
        for name, layer_a in side_a["per_layer"].items():
            layer_b = side_b["per_layer"].get(name)
            if layer_b is None or not (layer_a["value"] or layer_b["value"]):
                continue
            if layer_a["exact"]:
                if layer_a["value"] != layer_b["value"]:
                    differing.append(f"{workload} {name}: {layer_a['value']!r} "
                                     f"!= {layer_b['value']!r}")
                continue
            change = worsening(layer_a["value"], layer_b["value"], layer_a["better"])
            print(f"    {name:<36} {layer_a['unit']:<6} A {layer_a['value']:<12.5g} "
                  f"B {layer_b['value']:<12.5g} worse by {change:+8.2%}", file=out)
    exact_total = sum(
        1 for w in a["workloads"].values() for layer in w["per_layer"].values()
        if layer["exact"]
    )
    print(f"deterministic values that differ: {len(differing)} "
          f"(of {exact_total} per-layer counts and the exact end-to-end metrics)",
          file=out)
    for line in differing:
        print(f"  differs: {line}", file=out)
    for line in regressions:
        print(f"  REGRESSION: {line}", file=out)
    if a.get("quick") or b.get("quick"):
        print("note: --quick smoke numbers on at least one side", file=out)
    return 1 if (regressions or (identical and differing)) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="reference results.json")
    parser.add_argument("b", help="candidate results.json")
    parser.add_argument("--identical", action="store_true",
                        help="also fail when any deterministic value differs")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        a = json.load(handle)
    with open(args.b) as handle:
        b = json.load(handle)
    return compare(a, b, args.identical)


if __name__ == "__main__":
    sys.exit(main())
