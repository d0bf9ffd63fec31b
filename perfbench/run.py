#!/usr/bin/env python3
"""One benchmark for the whole stack of the RUMR reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-paper --seed 2003 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 2003        # every workload, untraced then traced
    python3 perfbench/run.py ... --record perfbench/out/a.jsonl   # input for compare.py

One run of one workload

1. times set-up (untraced runs only): five fresh child processes, one
   after the other, each timing ``import repro``, the input build and
   one warm-up call; ``setup_s`` is their median;
2. runs the workload in a fresh single-threaded child process: a
   warm-up round, timed rounds until ``--seconds`` have passed, then the
   correctness checks.  Set-up and round times are scaled to a quiet
   host's speed by probes taken meanwhile (``hostspeed.py``).
   With ``--trace 1`` traced and untraced rounds
   alternate, spans go to ``perfbench/out/trace-<workload>.json`` and
   the per-layer metrics are reported instead;
3. prints every metric with its unit, the output digest, and as the last
   line one JSON object with the keys ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

Metric names and units come from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: Fresh children timed per set-up measurement.
SETUP_RUNS = 5
#: Every child of one workload run must finish within this budget.
RUN_BUDGET_S = 170.0
SINGLE_THREADED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Share of each workload's time that the host speed probe counts as
#: array work (``hostspeed.HostSpeed``).  The sweeps' stacked passes run
#: NumPy over arrays larger than the L2 cache; the other workloads run
#: the interpreter.  Half is the share under which the sweeps' scaled
#: times spread least across runs on a loaded host.
ARRAY_SHARE = {"sweep-paper": 0.5, "sweep-crash": 0.5, "single-run": 0.0, "stream": 0.0}


class BenchmarkError(RuntimeError):
    """A child failed, timed out, or reported other metrics than the spec."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_child(args: list[str], deadline: float) -> list[str]:
    """Run this script as a child process; its stdout lines."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), *args],
            cwd=ROOT,
            env={**os.environ, **SINGLE_THREADED},
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
        raise BenchmarkError(f"child {args} exceeded the run budget") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"child {args} exited with {proc.returncode}")
    return lines


def _format(name: str, metric: dict, unit: str) -> str:
    line = f"  {name:<32}{metric['value']:>16.6g} {unit}"
    if "q1" in metric:
        line += f"  (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n {metric['n']})"
    elif "n" in metric:
        line += f"  (n {metric['n']})"
    return line


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> tuple[dict, str]:
    """One run of one workload; the result object and the output digest."""
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    setup = [
        json.loads(_run_child(["--child", "setup", *common], deadline)[-1])["setup_s"]
        for _ in range(0 if trace else SETUP_RUNS)
    ]
    lines = _run_child(
        ["--child", "measure", *common, "--seconds", str(seconds),
         "--trace", str(int(trace))],
        deadline,
    )
    for line in lines[:-1]:
        print(line)
    child = json.loads(lines[-1])
    metrics = child["metrics"]
    if setup:
        q1, _, q3 = statistics.quantiles(setup, n=4, method="inclusive")
        metrics["setup_s"] = {
            "value": statistics.median(setup), "q1": q1, "q3": q3, "n": len(setup),
        }
    units = {
        m["name"]: m["unit"]
        for m in load_spec()["per_layer" if trace else "end_to_end"]
    }
    if set(metrics) != set(units):
        raise BenchmarkError(
            f"{name}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    print(f"[{name}] seed {seed}, trace {int(trace)}: attempted {child['attempted']}, "
          f"failed {child['failed']} ({child['checks']} checks), digest {child['digest']}")
    for metric in units:
        print(_format(metric, metrics[metric], units[metric]))
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m: {"value": metrics[m]["value"], "unit": u} for m, u in units.items()},
    }
    return result, child["digest"]


def _record(path: str | None, name: str, seed: int, trace: bool, digest: str,
            result: dict) -> None:
    if path is None:
        return
    entry = {"workload": name, "seed": seed, "trace": int(trace), "digest": digest,
             "result": result}
    with open(path, "a") as handle:
        handle.write(json.dumps(entry) + "\n")


def _make_workload(args):
    """Import ``repro`` from this checkout and build the workload's inputs."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src):
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {src}")
    import workloads

    return workloads.make_workload(args.workload, args.seed, args.quick, OUT_DIR)


def _child_main(args) -> int:
    """Inside a fresh child: set up or measure one workload."""
    array_share = ARRAY_SHARE[args.workload]
    if args.child == "setup":
        t0 = time.perf_counter()
        with hostspeed.HostSpeed(array_share) as speed:
            _make_workload(args).setup_call()
        t1 = time.perf_counter()
        print(json.dumps({"setup_s": (t1 - t0) * speed.scale(t0, t1)}))
        return 0
    workload = _make_workload(args)
    import measure

    workload.warm_up()
    if args.trace:
        trace_path = (OUT_DIR / f"trace-{args.workload}.json").relative_to(ROOT)
        report = measure.traced_measure(workload, args.seconds, trace_path)
    else:
        report = measure.measure(workload, args.seconds, array_share)
    print(json.dumps(report))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the harness self-test")
    parser.add_argument("--record", metavar="PATH",
                        help="append each run's result as a JSON line (compare.py input)")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    try:
        if args.child:
            return _child_main(args)
        OUT_DIR.mkdir(exist_ok=True)
        if args.workload:
            result, digest = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), args.quick
            )
            _record(args.record, args.workload, args.seed, bool(args.trace), digest, result)
            print(json.dumps(result))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "digests_match": {}}
        for name in names:
            digests = []
            for trace in (False, True):
                result, digest = run_workload(name, args.seed, args.seconds, trace, args.quick)
                _record(args.record, name, args.seed, trace, digest, result)
                digests.append(digest)
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                summary["correct"] &= result["correct"]
            match = digests[0] == digests[1]
            print(f"[{name}] traced digest {'matches' if match else 'DIFFERS FROM'} "
                  "the untraced one")
            summary["digests_match"][name] = match
            summary["correct"] &= match
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
