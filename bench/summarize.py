"""Medians and spreads of benchmark runs recorded with ``run.py --results``.

Usage, from the root of a source checkout:

    python3 bench/summarize.py RESULTS.jsonl [OTHER.jsonl]

For each workload and metric it prints the sample count, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  An end-to-end spread above a
third of the metric's bound in BENCHMARK.json is flagged (``setup_s``
excepted, whose spread is not bounded).  Given a second file, it also prints
the change of each median against the first file and flags a worsening
beyond the bound.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """(workload, trace) -> metric -> values, plus the failure count."""
    values = defaultdict(lambda: defaultdict(list))
    failed = 0
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        failed += rec["result"]["failed"]
        for name, m in rec["result"]["metrics"].items():
            values[(rec["workload"], rec["trace"])][name].append(m["value"])
    return values, failed


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    first, failed = load(argv[0])
    second = load(argv[1])[0] if len(argv) > 1 else None
    print(f"{argv[0]}: {failed} failed invocations")
    for (workload, trace), metrics in sorted(first.items()):
        print(f"\n{workload} (trace {trace})")
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:32s} n={len(vals):2d} median={med:<12.6g} q1={q1:<12.6g} " \
                   f"q3={q3:<12.6g} spread={spread:.4f}"
            bound = bounds.get(name, {}).get("bound") if not trace else None
            if bound is not None and name != "setup_s" and spread > bound / 3:
                line += f"  SPREAD > bound/3 ({bound / 3:.4f})"
            if second is not None and second[(workload, trace)].get(name):
                med2 = statistics.median(second[(workload, trace)][name])
                change = (med2 - med) / med if med else 0.0
                line += f"  second={med2:.6g} ({change:+.4f})"
                if bound is not None:
                    worse = change if bounds[name]["better"] == "lower" else -change
                    if worse > bound:
                        line += "  WORSE > bound"
            print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
