"""Compare two sets of perfbench results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files, or directories of files, holding the standard
output of any number of ``run.py`` runs; the ``record`` lines are read and
grouped by workload and trace mode.  For every metric of every workload row
it prints the median and quartiles of both sides, the ratio NEW/BASE, and
one of three labels:

  within bound  NEW is not worse than BASE by more than the bound
  worse         NEW is worse than BASE by more than the bound
  unresolved    the run-to-run spread (interquartile range over median) of
                either side is wider than the bound, unless every NEW run
                is better than every BASE run

Bounds are those of BENCHMARK.json for its end-to-end metrics and
``DEFAULT_BOUND`` for every other metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values):
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def label(base, new, bound, better):
    """Classify NEW against BASE, each a list of one metric's values."""
    b_med, n_med = quartiles(base)[1], quartiles(new)[1]
    sign = 1.0 if better == "lower" else -1.0
    all_better = max(new) < min(base) if better == "lower" else min(new) > max(base)
    if max(_spread(base), _spread(new)) > bound and not all_better:
        return "unresolved"
    if b_med == 0:
        worse = sign * n_med > 0
    else:
        worse = sign * (n_med - b_med) / abs(b_med) > bound
    return "worse" if worse else "within bound"


def load(path):
    """{(workload, trace): {metric: {"values": [...], "unit", "better"}}}"""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    rows = {}
    for name in files:
        with open(name, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line).get("record")
                except json.JSONDecodeError:
                    continue
                if not record:
                    continue
                row = rows.setdefault((record["workload"], record["trace"]), {})
                for metric, m in record["metrics"].items():
                    entry = row.setdefault(metric, {"values": [], "unit": m["unit"],
                                                    "better": m["better"]})
                    entry["values"].append(m["value"])
    return rows


DEFAULT_BOUND = 0.1   # for the metrics that BENCHMARK.json does not bound


def _bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except OSError:
        return {}


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    bounds = _bounds()
    print(f"{'workload':15s} {'metric':32s} {'unit':8s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'ratio':>7s}  label")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        row = f"{workload}{' (traced)' if trace else ''}"
        for metric in base[key]:
            if metric not in new[key]:
                continue
            b, n = base[key][metric], new[key][metric]
            b_med, n_med = quartiles(b["values"])[1], quartiles(n["values"])[1]
            ratio = f"{n_med / b_med:.3f}" if b_med else "-"
            verdict = label(b["values"], n["values"], bounds.get(metric, DEFAULT_BOUND),
                            b["better"])
            print(f"{row:15s} {metric:32s} {b['unit']:8s} {_fmt(b['values']):34s} "
                  f"{_fmt(n['values']):34s} {ratio:>7s}  {verdict}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]} (trace {key[1]}): only in {'BASE' if key in base else 'NEW'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
