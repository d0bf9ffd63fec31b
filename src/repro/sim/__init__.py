"""Master-worker divisible-load simulators.

Two engines implement the paper's §3.1 platform semantics:

* :func:`repro.sim.fastsim.simulate_fast` — a specialized O(#chunks·log)
  event loop used by the experiment harness;
* :func:`repro.sim.engine.simulate_des` — a reference implementation on the
  generic :mod:`repro.des` kernel, with full trace recording.

Both produce *identical* makespans and dispatch records for the same seed
(cross-validated by the test suite).  :func:`simulate` selects an engine.

Normative semantics (shared by both engines):

* the master owns one serialized link; sending chunk ``c`` to worker ``i``
  occupies it for ``X_comm·(nLat_i + c/B_i)`` and the data reaches the
  worker ``tLat_i`` later (the tail is overlappable);
* worker ``i`` computes delivered chunks FIFO, each for
  ``X_comp·(cLat_i + c/S_i)``, overlapping computation with reception;
* ``X_comm`` and ``X_comp`` are prediction-error perturbations drawn from
  independent streams in dispatch order (see :mod:`repro.errors`);
* the makespan is the completion time of the last chunk.

The star's two relaxations of that model, several master ports and
result returns (``star:ports=K,out=R``, see :mod:`repro.platform.topology`),
run on the DES engine only.

:mod:`repro.sim.multijob` layers a *stream* on top of the single-run
engines: jobs arriving over time contend for the star under a pluggable
inter-job policy (FCFS, partitioned, interleaved), each job still
scheduled by the single-run stack via :func:`simulate`.
"""

from repro.sim.analytic import analytic_makespan
from repro.sim.engine import simulate_des
from repro.sim.gantt import render_gantt, utilization_profile
from repro.sim.fastsim import simulate_fast
from repro.sim.multijob import (
    JobFailurePolicy,
    JobRecord,
    MultiJobResult,
    PlatformHealth,
    make_failure_policy,
    make_stream_policy,
    simulate_stream,
)
from repro.sim.result import SimResult, simulate, validate_schedule

__all__ = [
    "JobFailurePolicy",
    "JobRecord",
    "MultiJobResult",
    "PlatformHealth",
    "SimResult",
    "analytic_makespan",
    "make_failure_policy",
    "make_stream_policy",
    "render_gantt",
    "utilization_profile",
    "simulate",
    "simulate_des",
    "simulate_fast",
    "simulate_stream",
    "validate_schedule",
]
