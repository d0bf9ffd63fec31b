#!/usr/bin/env python
"""Benchmark the sweep fast paths against the scalar path.

Times four slices of a preset grid through both engines
(``run_sweep(batch_static=True)`` vs ``batch_static=False``): the
static-algorithm portion (whole-grid vectorized plan replay), the
dynamic portion (lockstep engine for every non-static scheduler), the
full paper algorithm list, and the same full list on one
*fault* grid per fault kind — crash, pause, slowdown, link-spike — each
realized as a vectorized :class:`~repro.errors.faults.FaultPlane` inside
the batch engines, and writes the numbers to a JSON file (default
``BENCH_sweep.json`` in the repository root) so the perf trajectory is
tracked across PRs.

The equivalence contract is asserted while benchmarking: at ``error = 0``
both fast paths must agree with the scalar engine bit-for-bit for every
algorithm.  (At ``error > 0`` the batch engines are distributionally
identical but not bitwise — see ``repro.sim.batch`` and
``repro.sim.dynbatch``.)

The previous report (``--baseline``, default: the ``--out`` path before
it is overwritten) doubles as a perf baseline: the new full-sweep batched
wall time is compared against it and the ratio recorded as
``overhead_vs_baseline``.  ``--max-overhead 0.05`` turns that into a
gate — the guard for the ``repro.obs`` tracing hooks, which promise to be
zero-cost when disabled: a sweep never traces, so any wall-time growth
beyond noise means the hooks leaked into the hot paths.

Usage::

    PYTHONPATH=src python scripts/bench_sweep.py [--preset smoke]
        [--repeats 3] [--out BENCH_sweep.json] [--max-overhead 0.05]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.registry import is_static_algorithm  # noqa: E402
from repro.experiments.config import PAPER_ALGORITHMS, preset_grid  # noqa: E402
from repro.experiments.runner import run_sweep  # noqa: E402


def _load_baseline(path: str | pathlib.Path) -> dict | None:
    """The previous report at ``path``, or None if absent/unreadable."""
    path = pathlib.Path(path)
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return None


def _time_sweep(grid, algorithms, batch_static: bool, repeats: int):
    """Best-of-``repeats`` wall time and the (last) results."""
    best = float("inf")
    results = None
    for _ in range(repeats):
        start = time.perf_counter()
        results = run_sweep(grid, algorithms=algorithms, batch_static=batch_static)
        best = min(best, time.perf_counter() - start)
    return best, results


#: The fault scenario the ``fault_portion`` section benchmarks: every
#: worker may crash inside the measured window, so both engines realize
#: and replay per-repetition crash schedules.
FAULT_SPEC = "crash:p=0.5,tmax=100"

#: One scenario per fault kind for the ``fault_portions`` section, so a
#: regression in any single vectorized transform (crash loss rule, pause
#: stretch, slowdown stretch, per-dispatch link spikes) shows up as its
#: own speedup number instead of hiding in a crash-only aggregate.
FAULT_SPECS = {
    "crash": FAULT_SPEC,
    "pause": "pause:p=0.5,tmax=100,dur=30",
    "slowdown": "slow:p=0.5,tmax=100,factor=2",
    "link-spike": "spike:p=0.2,delay=5",
}


def bench(preset: str = "smoke", repeats: int = 3) -> dict:
    """Run the benchmark and return the report dict."""
    if repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {repeats}")
    grid = preset_grid(preset)
    static_algos = tuple(a for a in PAPER_ALGORITHMS if is_static_algorithm(a))
    dynamic_algos = tuple(a for a in PAPER_ALGORITHMS if not is_static_algorithm(a))

    # Warm the (lru-cached) plan solvers so both paths are measured on
    # solver-warm caches — the seed scalar path enjoyed the same caching.
    run_sweep(grid, algorithms=PAPER_ALGORITHMS)

    def _portion(algos, g=grid):
        runs = g.num_simulations(len(algos))
        scalar_wall, scalar_res = _time_sweep(g, algos, False, repeats)
        batch_wall, batch_res = _time_sweep(g, algos, True, repeats)
        equal_at_zero = all(
            np.array_equal(
                batch_res.makespans[a][:, 0, :], scalar_res.makespans[a][:, 0, :]
            )
            for a in algos
            if g.errors[0] == 0.0
        )
        return {
            "num_simulations": runs,
            "scalar_wall_s": round(scalar_wall, 6),
            "batched_wall_s": round(batch_wall, 6),
            "scalar_us_per_run": round(scalar_wall / runs * 1e6, 3),
            "batched_us_per_run": round(batch_wall / runs * 1e6, 3),
            "speedup": round(scalar_wall / batch_wall, 2),
            "equal_at_zero_error": bool(equal_at_zero),
        }

    static_portion = _portion(static_algos)
    dynamic_portion = _portion(dynamic_algos)
    full_sweep = _portion(PAPER_ALGORITHMS)
    fault_portions = {}
    for kind, spec in FAULT_SPECS.items():
        portion = _portion(PAPER_ALGORITHMS, grid.restrict(fault=spec))
        portion["fault"] = spec
        fault_portions[kind] = portion

    return {
        "preset": preset,
        "repeats": repeats,
        "static_algorithms": list(static_algos),
        "dynamic_algorithms": list(dynamic_algos),
        "static_portion": static_portion,
        "dynamic_portion": dynamic_portion,
        # Kept as the crash scenario for baseline continuity; the
        # per-kind breakdown lives in ``fault_portions``.
        "fault_portion": fault_portions["crash"],
        "fault_portions": fault_portions,
        "full_sweep": full_sweep,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="bench", help="grid preset (default: bench)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_sweep.json"),
        help="output JSON path (default: BENCH_sweep.json in the repo root)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the static- or dynamic-portion speedup "
        "falls below this",
    )
    parser.add_argument(
        "--min-fault-speedup",
        type=float,
        default=None,
        help="exit non-zero if any per-kind fault-portion speedup falls "
        "below this (fault schedules are realized and replayed as "
        "vectorized fault planes inside the batch engines)",
    )
    parser.add_argument(
        "--min-full-speedup",
        type=float,
        default=None,
        help="exit non-zero if the full-sweep speedup falls below this",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="previous report to compare against (default: the --out path "
        "before it is overwritten)",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=None,
        help="exit non-zero if the full-sweep batched wall time exceeds "
        "the baseline's by more than this fraction (tracing-disabled "
        "overhead guard; e.g. 0.05 for 5%%)",
    )
    args = parser.parse_args(argv)

    baseline = _load_baseline(args.baseline or args.out)
    report = bench(args.preset, args.repeats)
    overhead = None
    if baseline is not None and baseline.get("preset") == args.preset:
        base_wall = baseline.get("full_sweep", {}).get("batched_wall_s")
        if base_wall:
            overhead = report["full_sweep"]["batched_wall_s"] / base_wall - 1.0
            report["full_sweep"]["baseline_batched_wall_s"] = base_wall
            report["full_sweep"]["overhead_vs_baseline"] = round(overhead, 4)
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    sp = report["static_portion"]
    print(
        f"static portion ({len(report['static_algorithms'])} algos, "
        f"{sp['num_simulations']} runs): scalar {sp['scalar_wall_s']:.3f}s "
        f"({sp['scalar_us_per_run']:.0f} us/run) -> batched "
        f"{sp['batched_wall_s']:.3f}s ({sp['batched_us_per_run']:.0f} us/run), "
        f"{sp['speedup']:.1f}x"
    )
    dp = report["dynamic_portion"]
    print(
        f"dynamic portion ({len(report['dynamic_algorithms'])} algos, "
        f"{dp['num_simulations']} runs): scalar {dp['scalar_wall_s']:.3f}s "
        f"({dp['scalar_us_per_run']:.0f} us/run) -> batched "
        f"{dp['batched_wall_s']:.3f}s ({dp['batched_us_per_run']:.0f} us/run), "
        f"{dp['speedup']:.1f}x"
    )
    for kind, fp in report["fault_portions"].items():
        print(
            f"fault portion [{kind}] ({fp['fault']}, {len(PAPER_ALGORITHMS)} "
            f"algos, {fp['num_simulations']} runs): scalar "
            f"{fp['scalar_wall_s']:.3f}s -> batched {fp['batched_wall_s']:.3f}s, "
            f"{fp['speedup']:.1f}x"
        )
    fs = report["full_sweep"]
    print(
        f"full sweep ({len(PAPER_ALGORITHMS)} algos, {fs['num_simulations']} runs): "
        f"scalar {fs['scalar_wall_s']:.3f}s -> batched {fs['batched_wall_s']:.3f}s, "
        f"{fs['speedup']:.1f}x"
    )
    if overhead is not None:
        print(
            f"vs baseline: batched full sweep "
            f"{fs['baseline_batched_wall_s']:.3f}s -> {fs['batched_wall_s']:.3f}s "
            f"({overhead:+.1%})"
        )
    print(f"wrote {args.out}")

    failed = False
    if args.max_overhead is not None:
        if overhead is None:
            print(
                "NOTE: --max-overhead given but no baseline report for "
                f"preset '{args.preset}' found; overhead gate skipped",
                file=sys.stderr,
            )
        elif overhead > args.max_overhead:
            print(
                f"ERROR: full-sweep batched wall time regressed "
                f"{overhead:+.1%} vs baseline (allowed {args.max_overhead:.0%}) "
                "-- the disabled-tracing hooks must stay off the hot paths",
                file=sys.stderr,
            )
            failed = True
    portions = [("static", sp), ("dynamic", dp), ("full-sweep", fs)] + [
        (f"fault[{kind}]", fp) for kind, fp in report["fault_portions"].items()
    ]
    for label, portion in portions:
        if not portion["equal_at_zero_error"]:
            print(
                f"ERROR: batched {label} path diverges from scalar path at error=0",
                file=sys.stderr,
            )
            failed = True
    for label, portion in (("static", sp), ("dynamic", dp)):
        if args.min_speedup is not None and portion["speedup"] < args.min_speedup:
            print(
                f"ERROR: {label}-portion speedup {portion['speedup']}x < "
                f"required {args.min_speedup}x",
                file=sys.stderr,
            )
            failed = True
    if args.min_fault_speedup is not None:
        for kind, fp in report["fault_portions"].items():
            if fp["speedup"] < args.min_fault_speedup:
                print(
                    f"ERROR: fault-portion [{kind}] speedup {fp['speedup']}x < "
                    f"required {args.min_fault_speedup}x",
                    file=sys.stderr,
                )
                failed = True
    if args.min_full_speedup is not None and fs["speedup"] < args.min_full_speedup:
        print(
            f"ERROR: full-sweep speedup {fs['speedup']}x < "
            f"required {args.min_full_speedup}x",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
