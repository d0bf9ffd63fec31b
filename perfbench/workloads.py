"""The benchmark's workloads: inputs, one closed-loop round, checks.

Every workload is a closed loop with one caller: a researcher's script
that waits for each result before asking for the next.  A *round* is one
unit of that loop (one sweep, one pass over the single-run configs, one
policy comparison of streams); it is timed call by call, and its inputs
come only from the benchmark seed and the round index.

Every workload calls the program through module attributes
(``runner.run_sweep``, ``result.simulate``, ``multijob.simulate_stream``)
so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import shutil
import sys
import time
import traceback

import numpy as np

from repro.experiments import cache, queueing, runner
from repro.experiments.config import PAPER_ALGORITHMS, PlatformPoint, preset_grid
from repro.experiments.resilient import FailureLedger
from repro.core.registry import make_scheduler
from repro.errors.models import NormalErrorModel
from repro.sim import multijob, result
from repro.workloads.arrivals import make_arrival_process


@dataclasses.dataclass
class Round:
    """Outcome of one round: per-call wall times, work done, failures."""

    call_s: list[float]
    ops: int
    failed: int
    output: object
    #: Workload counters read outside the program (streams, jobs, ...).
    counters: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _report_exception(what: str) -> None:
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _round_seeds(seed: int, index: int, count: int) -> list[int]:
    """``count`` run seeds of round ``index``, derived from the benchmark seed."""
    rng = np.random.default_rng([seed, index + 1])
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


class SweepWorkload:
    """``run_sweep`` over a grid; round ``i`` uses grid seed ``seed + 1 + i``."""

    def __init__(self, grid, seed: int, out_dir: pathlib.Path):
        self.grid = grid
        self.seed = seed
        self.out_dir = out_dir
        self.sims = grid.num_simulations(len(PAPER_ALGORITHMS))

    def setup_call(self) -> None:
        """Cold plan solves and compiles, on a 1-repetition copy of the grid."""
        runner.run_sweep(self.grid.restrict(repetitions=1, seed=self.seed))

    def warm_up(self) -> None:
        runner.run_sweep(self.grid.restrict(seed=self.seed))

    def run_round(self, index: int, stats=None) -> Round:
        grid = self.grid.restrict(seed=self.seed + 1 + index)
        ledger = FailureLedger()
        t0 = time.perf_counter()
        try:
            out = runner.run_sweep(
                grid, PAPER_ALGORITHMS, n_jobs=1, failures=ledger, stats=stats
            )
        except Exception:  # noqa: BLE001 — counted as failed, loop continues
            _report_exception(f"run_sweep(seed={grid.seed})")
            return Round([time.perf_counter() - t0], self.sims, self.sims, None)
        dt = time.perf_counter() - t0
        bad = sum(
            int(np.count_nonzero(~(np.isfinite(t) & (t > 0))))
            for t in out.makespans.values()
        )
        failed = max(bad, len(ledger) * grid.repetitions)
        return Round([dt], self.sims, failed, out, {"quarantined": len(ledger)})

    def digest(self, output) -> str:
        h = hashlib.sha256()
        for algo in output.algorithms:
            h.update(algo.encode())
            h.update(np.ascontiguousarray(output.makespans[algo]).tobytes())
        return h.hexdigest()

    def check(self, first: Round) -> tuple[list[Check], dict]:
        """Error-0 cells bitwise equal to the scalar engine; cache round-trip."""
        out = first.output
        checks = [Check("no quarantined cells", first.counters.get("quarantined") == 0)]
        # Cell seeds depend only on (grid seed, platform, error index, rep),
        # so the first two repetitions of the error-0 column of a scalar
        # (simulate_fast) sweep must equal the batched tensors bit for bit.
        zero = out.grid.restrict(errors=(0.0,), repetitions=2)
        ref = runner.run_sweep(zero, PAPER_ALGORITHMS, batch_static=False)
        for algo in PAPER_ALGORITHMS:
            equal = np.array_equal(
                ref.makespans[algo][:, 0, :], out.makespans[algo][:, 0, :2]
            )
            checks.append(Check(f"error-0 cells of {algo} == simulate_fast", equal))

        directory = self.out_dir / f"cache-{time.time_ns()}"
        try:
            t0 = time.perf_counter()
            path = cache.save_sweep(out, directory)
            save_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            loaded = cache.load_sweep(path)
            load_s = time.perf_counter() - t0
            size = path.stat().st_size + path.with_suffix(".json").stat().st_size
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        same = all(
            np.array_equal(loaded.makespans[a], out.makespans[a]) for a in out.algorithms
        )
        checks.append(Check("cache round-trip returns equal tensors", same))
        mib = size / 2**20
        return checks, {
            "cache.kib": size / 1024,
            "cache.save_mib_per_s": mib / save_s,
            "cache.load_mib_per_s": mib / load_s,
        }


#: Single-run configurations: every bench platform × these schedulers.
SINGLE_ALGORITHMS = ("RUMR", "UMR", "Factoring", "MI-2")
SINGLE_ERROR = 0.3
SINGLE_WORK = 1000.0
#: Every 4th platform block runs on a store-and-forward chain.
CHAIN = "chain:relay=sf"
#: Every 5th platform block also runs on the DES engine: on the 16 bench
#: platforms, blocks 0, 5, 10 and 15, one of them a chain.  Fast calls
#: stay four fifths of all calls, so the median call is a fast one.
DES_EVERY = 5


class SingleRunWorkload:
    """A closed loop of ``simulate()`` calls on both scalar engines.

    A round calls every configuration on the fast engine, then the
    configurations of every :data:`DES_EVERY`-th platform block on the DES
    engine, with the same seed per configuration.
    """

    def __init__(self, points, seed: int):
        self.seed = seed
        self.configs = [
            (
                point.build(),
                make_scheduler(algo, SINGLE_ERROR),
                CHAIN if block % 4 == 3 else None,
            )
            for block, point in enumerate(points)
            for algo in SINGLE_ALGORITHMS
        ]
        des = [
            i for i in range(len(self.configs))
            if (i // len(SINGLE_ALGORITHMS)) % DES_EVERY == 0
        ]
        #: (configuration index, engine) of each call of a round.
        self.calls = [(i, "fast") for i in range(len(self.configs))]
        self.calls += [(i, "des") for i in des]

    def setup_call(self) -> None:
        self.run_round(-1)

    def warm_up(self) -> None:
        self.run_round(-1)

    def run_round(self, index: int, stats=None) -> Round:
        seeds = _round_seeds(self.seed, index, len(self.configs))
        times, outputs, failed = [], [], 0
        for i, engine in self.calls:
            platform, scheduler, topology = self.configs[i]
            t0 = time.perf_counter()
            try:
                res = result.simulate(
                    platform, SINGLE_WORK, scheduler, NormalErrorModel(SINGLE_ERROR),
                    seed=seeds[i], engine=engine, topology=topology,
                )
            except Exception:  # noqa: BLE001 — counted as failed, loop continues
                res = None
                failed += 1
                _report_exception(f"simulate(engine={engine}, seed={seeds[i]})")
            times.append(time.perf_counter() - t0)
            outputs.append(res)
        return Round(times, len(times), failed, outputs)

    def digest(self, output) -> str:
        spans = [res.makespan if res is not None else float("nan") for res in output]
        return hashlib.sha256(np.array(spans).tobytes()).hexdigest()

    def check(self, first: Round) -> tuple[list[Check], dict]:
        """validate_schedule on a sample; star runs equal across engines."""
        checks = []
        for k in range(0, len(self.calls), 8):
            res = first.output[k]
            if res is None:
                continue
            try:
                result.validate_schedule(res)
                checks.append(Check(f"validate_schedule call {k}", True))
            except AssertionError as exc:
                checks.append(Check(f"validate_schedule call {k}", False, str(exc)))
        fast = {i: res for (i, engine), res in zip(self.calls, first.output)
                if engine == "fast"}
        for (i, engine), res in zip(self.calls, first.output):
            # A call that raised is already a failed op.
            if engine == "des" and self.configs[i][2] is None and res and fast[i]:
                checks.append(Check(
                    f"config {i}: fast makespan == des",
                    res.makespan == fast[i].makespan,
                    f"{fast[i].makespan!r} vs {res.makespan!r}",
                ))
        return checks, {}


STREAM_POLICIES = ("fcfs", "partitioned:parts=4", "interleaved:slices=4")
STREAM_FAULT = "crash:p=0.3,tmax=4000"
STREAM_ERROR = 0.2
STREAM_POINT = PlatformPoint(N=20, bandwidth_factor=1.6, cLat=0.1, nLat=0.1)


class StreamWorkload:
    """A policy comparison: one stream per (policy, fault) pair per round.

    The caller waits for the whole comparison, so one round is one call;
    per-stream costs differ fourfold between policies, and a median over
    single streams would jump between them.
    """

    def __init__(self, jobs: int, seed: int):
        self.platform = STREAM_POINT.build()
        self.seed = seed
        self.arrivals = make_arrival_process(f"poisson:rate=0.05,jobs={jobs},work=200")
        self.jobs = jobs
        self.configs = [(p, f) for p in STREAM_POLICIES for f in (None, STREAM_FAULT)]

    def _call(self, jobs, seed: int, policy: str, fault):
        res = multijob.simulate_stream(
            self.platform, jobs, "RUMR", STREAM_ERROR, seed=seed,
            policy=policy, faults=fault, failure_policy="resubmit",
        )
        return res, queueing.metrics_to_json(queueing.queueing_metrics(res))

    def setup_call(self) -> None:
        seed = _round_seeds(self.seed, -1, 1)[0]
        self._call(self.arrivals.generate(seed), seed, *self.configs[0])

    def warm_up(self) -> None:
        self.run_round(-1)

    def run_round(self, index: int, stats=None) -> Round:
        stream_seed = _round_seeds(self.seed, index, 1)[0]
        jobs = self.arrivals.generate(stream_seed)
        times, outputs = [], []
        failed = 0
        counters = {"streams": 0, "jobs_failed": 0, "jobs_resubmitted": 0,
                    "workers_excluded": 0}
        for policy, fault in self.configs:
            t0 = time.perf_counter()
            try:
                res, text = self._call(jobs, stream_seed, policy, fault)
            except Exception:  # noqa: BLE001 — counted as failed, loop continues
                times.append(time.perf_counter() - t0)
                failed += self.jobs
                _report_exception(f"simulate_stream(policy={policy}, fault={fault})")
                continue
            times.append(time.perf_counter() - t0)
            outputs.append(text)
            counters["streams"] += 1
            counters["jobs_failed"] += res.jobs_failed
            counters["jobs_resubmitted"] += res.jobs_resubmitted
            counters["workers_excluded"] += len(res.workers_excluded)
            # Every job completes or fails (a failure is a modelled outcome),
            # and no work appears or vanishes between dispatch and delivery.
            settled = len(res.completed_jobs) + res.jobs_failed == self.jobs == len(res.jobs)
            balance = abs(res.delivered_work + res.work_lost - res.dispatched_work)
            if not settled or balance > 1e-9 * res.total_work:
                failed += self.jobs
                print(f"stream check failed: policy={policy} fault={fault} "
                      f"settled={settled} balance={balance}", file=sys.stderr)
        return Round([sum(times)], self.jobs * len(self.configs), failed, outputs, counters)

    def digest(self, output) -> str:
        return hashlib.sha256("\n".join(output).encode()).hexdigest()

    def check(self, first: Round) -> tuple[list[Check], dict]:
        """Nothing beyond the per-stream checks every round already makes."""
        return [], {}


def make_workload(name: str, seed: int, quick: bool, out_dir: pathlib.Path):
    """Build a workload's inputs (``quick``: tiny sizes for the self-test)."""
    bench = preset_grid("bench")
    if quick:
        bench = bench.restrict(
            Ns=(10,), bandwidth_factors=(1.4,), cLats=(0.0,), errors=(0.0, 0.3),
            repetitions=2,
        )
    if name == "sweep-paper":
        return SweepWorkload(bench, seed, out_dir)
    if name == "sweep-crash":
        return SweepWorkload(bench.restrict(fault="crash:p=0.5,tmax=100"), seed, out_dir)
    if name == "single-run":
        return SingleRunWorkload(bench.platforms(), seed)
    if name == "stream":
        return StreamWorkload(10 if quick else 200, seed)
    raise ValueError(f"unknown workload {name!r}")
