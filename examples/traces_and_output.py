#!/usr/bin/env python
"""Trace-driven errors, result-return traffic, and trace export together.

Three extensions beyond the paper's evaluation, composed into one
realistic pipeline:

1. derive a *perturbation trace* from the ray-tracing workload's own
   data-dependent costs (so the error process has the scene's
   autocorrelation, not an iid abstraction);
2. simulate RUMR under that trace *with output traffic* — rendered tiles
   must return to the master over the same serialized link;
3. export the run as CSV and a Chrome trace-viewer file
   (chrome://tracing) for inspection.

Run:  python examples/traces_and_output.py
"""

import pathlib
import statistics

from repro import RUMR, UMR, homogeneous_platform
from repro.errors import trace_from_workload
from repro.sim import simulate
from repro.sim.export import chrome_trace, records_csv
from repro.sim.gantt import render_gantt
from repro.workloads import RayTracing


def main() -> None:
    scene = RayTracing(width=1920, height=1080, tile=32, sigma=0.7,
                       correlation=0.95, seed=5)
    hardware = homogeneous_platform(12, S=1.0, bandwidth_factor=1.6,
                                    cLat=0.2, nLat=0.05)
    platform = scene.calibrated_platform(hardware)
    total = scene.total_units

    # 1. The workload's own error trace (autocorrelated chunk costs).
    model = trace_from_workload(scene, chunk_units=total / 48, length=256, seed=9)
    print(f"scene: {scene.name}, {total:g} tiles")
    print(f"derived error trace: magnitude = {model.magnitude:.3f} "
          f"(this is what RUMR's phase split consumes)\n")

    # 2. Rendered tiles return to the master: compare schedulers with a
    # 20% output ratio (compressed tiles) over the trace-driven errors.
    print(f"{'scheduler':<8} {'makespan (mean of 10, output 20%)':>36}")
    for scheduler_factory in (lambda: RUMR(known_error=model.magnitude), UMR):
        spans = []
        for seed in range(10):
            model.reset()
            result = simulate(
                platform, total, scheduler_factory(), model,
                seed=seed, topology="star:out=0.2",
            )
            spans.append(result.makespan)
        name = scheduler_factory().name
        print(f"{name:<8} {statistics.mean(spans):>18.1f} s")

    # 3. Export one input-side run for inspection.
    model.reset()
    result = simulate(platform, total, RUMR(known_error=model.magnitude), model, seed=0)
    out_dir = pathlib.Path("artifacts")
    out_dir.mkdir(exist_ok=True)
    (out_dir / "raytracing_run.csv").write_text(records_csv(result))
    (out_dir / "raytracing_run.trace.json").write_text(chrome_trace(result))
    print(f"\nwrote {out_dir}/raytracing_run.csv and "
          f"{out_dir}/raytracing_run.trace.json (open in chrome://tracing)")
    print()
    print(render_gantt(result, width=80))


if __name__ == "__main__":
    main()
