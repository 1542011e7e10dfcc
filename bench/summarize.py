#!/usr/bin/env python3
"""Summarize benchmark runs: median, quartiles and spread per workload.

    python3 bench/summarize.py [--results FILE] [--baseline OUT]

Reads the records run.py appends to bench/results/results.jsonl.  For each
workload and end-to-end metric it prints the median over runs, the first
and third quartiles (statistics.quantiles, n=4), and the spread: the
distance between the quartiles as a share of the median, the number the
bound in BENCHMARK.json is compared with.  The unscaled times and the pace
of untraced runs are summarized the same way under "measured".  Traced runs
are summarized by the median of each per-layer metric.  --baseline writes the summary, with
the environment of the runs, as JSON.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))


def _stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def summarize(records):
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["trace"])].append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        metrics = defaultdict(list)
        measured = defaultdict(list)
        for rec in recs:
            for name, m in rec["result"]["metrics"].items():
                metrics[name].append(m["value"])
            for name, value in rec.get("measured", {}).items():
                measured[name].append(value)
        key = f"{workload}{' (traced)' if trace else ''}"
        out[key] = {
            "seeds": [rec["seed"] for rec in recs],
            "fail_frac": _stats([rec["fail_frac"] for rec in recs]),
            "all_correct": all(rec["result"]["correct"] for rec in recs),
            "metrics": {name: _stats(v) for name, v in metrics.items()},
            "measured": {name: _stats(v) for name, v in measured.items()},
            "env": recs[-1]["env"],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results",
                        default=os.path.join(BENCH, "results", "results.jsonl"))
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)
    with open(args.results) as f:
        records = [json.loads(line) for line in f if line.strip()]
    summary = summarize(records)
    for key, s in summary.items():
        print(f"{key}: {s['metrics'][next(iter(s['metrics']))]['runs']} runs,"
              f" correct={s['all_correct']},"
              f" fail_frac median {s['fail_frac']['median']:.4f}")
        for name, st in s["metrics"].items():
            print(f"  {name:34s} median {st['median']:<12.6g} "
                  f"q1 {st['q1']:<12.6g} q3 {st['q3']:<12.6g} "
                  f"spread {st['spread']:.4f}")
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
