#!/usr/bin/env python3
"""Compare two sets of benchmark runs: the parent (A) and a change (B).

    python3 perfbench/compare.py A.jsonl B.jsonl [--claim WORKLOAD:METRIC ...]

``A.jsonl`` and ``B.jsonl`` are written by ``run.py --record``; run the
two commits alternately, with the same seeds, at least ten times each.

For every workload and end-to-end metric it prints both medians, their
quartiles and the metric's bound from ``BENCHMARK.json``, and a verdict:

* ``regressed``: B's median is worse than A's by more than the bound;
* ``unresolved``: the run-to-run spread of A or B, (Q3 - Q1) / median,
  is wider than the bound, and not every run of B beats every run of A;
* ``ok`` otherwise.

A claimed gain (``--claim stream:ops_per_s``) is met only when B wins at
least nine tenths of the runs paired in record order, ties counting for
neither, and the medians differ by more than A's own quartile distance.
Per-layer metrics of traced runs are listed side by side, without
verdicts.  Output digests of the same (workload, seed, trace) run must
match between A and B.  Exits 1 if anything regressed, is unresolved,
has differing outputs, or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def values(runs: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["result"]["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and r["trace"] == trace
        and metric in r["result"]["metrics"]
    ]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The no-regression rule for one workload and metric."""
    sign = 1.0 if better == "lower" else -1.0
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "regressed"
    spread = max((q3 - q1) / abs(med) for q1, med, q3 in (quartiles(a), quartiles(b)))
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound and not all_better:
        return "unresolved"
    return "ok"


def claim_met(a: list[float], b: list[float], better: str) -> tuple[bool, str]:
    """The gain rule: >= 9/10 pair wins and a median gap wider than A's IQR."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    q1, med_a, q3 = quartiles(a)
    _, med_b, _ = quartiles(b)
    met = bool(pairs) and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1
    return met, f"{wins}/{len(pairs)} pair wins, median gap {med_b - med_a:+.6g} vs A IQR {q3 - q1:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="runs of the parent (run.py --record)")
    parser.add_argument("change", help="runs of the change")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    runs_a, runs_b = load_runs(args.base), load_runs(args.change)
    bad = False

    print(f"{'workload':<14}{'metric':<16}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'bound':>7}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            a = values(runs_a, w, 0, m["name"])
            b = values(runs_b, w, 0, m["name"])
            if not a or not b:
                continue
            v = verdict(a, b, m["better"], m["bound"])
            bad |= v != "ok"
            cells = [f"{med:.5g} [{q1:.5g}, {q3:.5g}]" for q1, med, q3 in (quartiles(a), quartiles(b))]
            print(f"{w:<14}{m['name']:<16}{cells[0]:>34}{cells[1]:>34}{m['bound']:>7.2f}  {v}")

    print(f"\n{'workload':<14}{'per-layer metric':<32}{'A median':>14}{'B median':>14}")
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["per_layer"]:
            a = values(runs_a, w, 1, m["name"])
            b = values(runs_b, w, 1, m["name"])
            if a and b:
                print(f"{w:<14}{m['name']:<32}{statistics.median(a):>14.5g}"
                      f"{statistics.median(b):>14.5g}")

    digests_a = {(r["workload"], r["seed"], r["trace"]): r["digest"] for r in runs_a}
    for r in runs_b:
        key = (r["workload"], r["seed"], r["trace"])
        if key in digests_a and digests_a[key] != r["digest"]:
            print(f"outputs differ: workload {key[0]} seed {key[1]} trace {key[2]}")
            bad = True

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if metric not in better:
            parser.error(f"--claim {claim}: {metric!r} is not an end-to-end metric")
        met, detail = claim_met(
            values(runs_a, workload, 0, metric), values(runs_b, workload, 0, metric),
            better[metric],
        )
        print(f"claim {claim}: {'met' if met else 'NOT MET'} ({detail})")
        bad |= not met
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
