"""Command-line interface: regenerate the paper's tables and figures.

Examples
--------
::

    python -m repro table2 --preset smoke
    python -m repro fig4a --preset small --results results/
    python -m repro all --preset small --results results/ --out results/
    python -m repro sweep --preset smoke --results results/
    python -m repro sweep --preset small --resume --retries 5
    python -m repro gantt --scheduler RUMR --error 0.3
    python -m repro figfaults --preset smoke --faults crash:p=0.3,tmax=200
    python -m repro sweep --preset smoke --fault crash:p=0.2,tmax=400
    python -m repro multijob --arrivals poisson:rate=0.02,jobs=8,work=200
    python -m repro multijob --policy interleaved:slices=4 --fault crash:p=0.3,tmax=100
    python -m repro sweep --preset smoke --topology chain:relay=sf
    python -m repro figtopo --preset smoke --topologies tree:fanout=2
    python -m repro topo --topology chain:n=8,relay=sf --json topo.json
    python -m repro hetero
    python -m repro adaptive
    python -m repro list

Sweep tensors are cached under ``--results`` and reused across commands;
rendered artifacts (``.txt`` with an ASCII chart + CSV) go to ``--out``
when given, otherwise to stdout.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.core.registry import available_schedulers
from repro.experiments.cache import cached_sweep
from repro.experiments.config import PAPER_ALGORITHMS, preset_grid
from repro.experiments.figures import SWEEP_FIGURES, fig4a, fig4b
from repro.experiments.report import render_figure, render_table, table_csv
from repro.experiments.runner import eta_progress
from repro.experiments.tables import table2, table3

__all__ = ["main"]

FIGURE_COMMANDS = ("fig4a", "fig4b", "fig5", "fig6", "fig7")
TABLE_COMMANDS = ("table2", "table3")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rumr",
        description="Reproduce the evaluation of 'RUMR: Robust Scheduling for "
        "Divisible Workloads' (HPDC 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--preset",
            default="smoke",
            choices=("smoke", "small", "paper", "paper-sample"),
            help="experiment grid preset (default: smoke)",
        )
        p.add_argument(
            "--results",
            default="results",
            help="directory for cached sweep tensors (default: results/)",
        )
        p.add_argument("--out", default=None, help="write artifacts to this directory")
        p.add_argument(
            "--jobs", type=int, default=1,
            help="process-pool width (-1 = one worker per CPU)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the grid seed")
        p.add_argument(
            "--error-mode",
            default=None,
            choices=("multiply", "divide"),
            help="perturbation direction (see repro.errors.models)",
        )
        p.add_argument(
            "--fault",
            default=None,
            metavar="SPEC",
            help="worker fault scenario applied to every run "
            "(e.g. 'crash:p=0.2,tmax=400'; see repro.errors.make_fault_model)",
        )
        p.add_argument(
            "--topology",
            default=None,
            metavar="SPEC",
            help="interconnect shape applied to every run "
            "(e.g. 'chain:relay=sf', 'tree:fanout=2', 'sharedbw:cap=36', "
            "'star:ports=2,out=0.2'; "
            "see repro.platform.make_topology)",
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.add_argument(
            "--resume",
            action="store_true",
            help="resume an interrupted sweep from its checkpoint shards "
            "under <results>/partial/ (completed platforms are not re-run)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=None,
            metavar="N",
            help="attempts per engine rung before falling back / quarantining "
            "a cell (default: 3; 1 disables retries)",
        )
        p.add_argument(
            "--cell-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget per process-pool platform task; an "
            "overrunning task is abandoned and recomputed in-process "
            "(default: unlimited)",
        )
        p.add_argument(
            "--no-batch",
            action="store_true",
            help="force the scalar engine for every algorithm "
            "(disables both the static-plan and lockstep-dynamic "
            "vectorized sweep fast paths)",
        )

    for name in TABLE_COMMANDS + FIGURE_COMMANDS + ("all", "sweep"):
        p = sub.add_parser(name, help=f"regenerate {name}")
        add_common(p)

    sub.add_parser("list", help="list registered scheduling algorithms")

    def add_scenario(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheduler", default="RUMR", help="registered algorithm name")
        p.add_argument("--n", type=int, default=10, help="number of workers")
        p.add_argument("--bandwidth-factor", type=float, default=1.8)
        p.add_argument("--clat", type=float, default=0.3)
        p.add_argument("--nlat", type=float, default=0.1)
        p.add_argument("--work", type=float, default=1000.0)
        p.add_argument("--error", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)

    g = sub.add_parser("gantt", help="simulate one scenario and print its Gantt chart")
    add_scenario(g)
    g.add_argument("--width", type=int, default=96)

    t = sub.add_parser(
        "trace",
        help="simulate one scenario and export its typed event trace",
    )
    add_scenario(t)
    t.add_argument(
        "--fault",
        default=None,
        metavar="SPEC",
        help="worker fault scenario (e.g. 'crash:p=0.3,tmax=200')",
    )
    t.add_argument(
        "--engine", default="fast", choices=("fast", "des"),
        help="simulation engine emitting the stream (default: fast)",
    )
    t.add_argument(
        "--format",
        default="chrome",
        choices=("chrome", "jsonl", "both"),
        help="chrome: trace_event JSON for chrome://tracing / ui.perfetto.dev; "
        "jsonl: one canonical event per line (default: chrome)",
    )
    t.add_argument(
        "--out",
        default="trace",
        metavar="STEM",
        help="output path stem — writes STEM.trace.json and/or STEM.jsonl "
        "(default: trace)",
    )

    m = sub.add_parser(
        "multijob",
        help="simulate a stream of jobs contending for the star and print "
        "per-job queueing metrics",
    )
    add_scenario(m)
    m.add_argument(
        "--arrivals",
        default=None,
        metavar="SPEC",
        help="arrival process spec: 'poisson:rate=,jobs=,work=[,work_cv=]', "
        "'bursty:bursts=,size=,gap=,work=[,spread=,work_cv=]' or "
        "'trace:PATH' (default: poisson:rate=0.02,jobs=8,work=<--work>)",
    )
    m.add_argument(
        "--policy",
        default="fcfs",
        metavar="SPEC",
        help="inter-job policy: 'fcfs', 'partitioned[:parts=K]' or "
        "'interleaved[:slices=S]' (default: fcfs)",
    )
    m.add_argument(
        "--engine", default="fast", choices=("fast", "des"),
        help="per-job simulation engine (default: fast)",
    )
    m.add_argument(
        "--fault",
        default=None,
        metavar="SPEC",
        help="worker fault scenario for the stream "
        "(e.g. 'crash:p=0.3,tmax=100')",
    )
    m.add_argument(
        "--failure-policy",
        default="drop",
        metavar="SPEC",
        help="what to do with jobs that cannot finish: 'drop', "
        "'retry[:attempts=,backoff=,mult=,jitter=]' or "
        "'resubmit[:attempts=]' (default: drop)",
    )
    m.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the queueing-metrics JSON to PATH",
    )

    s = sub.add_parser(
        "stats",
        help="run (or load) the main sweep and print engine-routing, "
        "per-cell timing, and cache statistics",
    )
    add_common(s)

    h = sub.add_parser("hetero", help="run the heterogeneity extension study")
    h.add_argument("--error", type=float, default=0.3)
    h.add_argument("--n", type=int, default=16)
    h.add_argument("--repetitions", type=int, default=10)

    a = sub.add_parser("adaptive", help="compare AdaptiveRUMR against the oracle")
    a.add_argument("--n", type=int, default=20)
    a.add_argument("--repetitions", type=int, default=15)

    e = sub.add_parser(
        "extfigs",
        help="render the extension-study figures (hetero, adaptive, output, multiport)",
    )
    e.add_argument("--out", default=None, help="write artifacts to this directory")
    e.add_argument("--repetitions", type=int, default=8)

    f = sub.add_parser(
        "figfaults",
        help="fault study: makespan degradation per fault scenario",
    )
    add_common(f)
    f.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="SPEC",
        help="fault scenario to sweep (repeatable; 'none' is always included; "
        "default: a crash/pause/slowdown/spike quartet)",
    )
    f.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated algorithm names "
        "(default: RUMR,Factoring,WeightedFactoring)",
    )

    ft = sub.add_parser(
        "figtopo",
        help="topology study: error robustness per interconnect shape",
    )
    add_common(ft)
    ft.add_argument(
        "--topologies",
        action="append",
        default=None,
        metavar="SPEC",
        help="topology spec to sweep (repeatable; 'star' is always included; "
        "default: a chain/tree/sharedbw trio)",
    )
    ft.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated algorithm names (default: RUMR,Factoring)",
    )

    tp = sub.add_parser(
        "topo",
        help="parse a topology spec and print its effective per-worker view",
    )
    tp.add_argument(
        "--topology",
        default="chain:relay=sf",
        metavar="SPEC",
        help="topology spec to summarize (default: chain:relay=sf)",
    )
    tp.add_argument("--n", type=int, default=8, help="number of workers")
    tp.add_argument("--bandwidth-factor", type=float, default=1.8)
    tp.add_argument("--clat", type=float, default=0.3)
    tp.add_argument("--nlat", type=float, default=0.1)
    tp.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the summary as canonical (byte-deterministic) JSON",
    )
    return parser


def _retry_policy(args: argparse.Namespace):
    """A RetryPolicy from the CLI knobs, or None for the default."""
    if getattr(args, "retries", None) is None and (
        getattr(args, "cell_timeout", None) is None
    ):
        return None
    from repro.experiments.resilient import RetryPolicy

    kwargs = {}
    if args.retries is not None:
        kwargs["max_attempts"] = args.retries
    if args.cell_timeout is not None:
        kwargs["cell_timeout_s"] = args.cell_timeout
    return RetryPolicy(**kwargs)


def _grid(args: argparse.Namespace):
    grid = preset_grid(args.preset)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.error_mode is not None:
        updates["error_mode"] = args.error_mode
    if getattr(args, "fault", None) is not None:
        updates["fault"] = args.fault
    if getattr(args, "topology", None) is not None:
        updates["topology"] = args.topology
    if updates:
        grid = grid.restrict(**updates)
    return grid


def _emit(args: argparse.Namespace, name: str, content: str) -> None:
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{name}-{args.preset}.txt"
        path.write_text(content)
        print(f"wrote {path}")
    else:
        print(content)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro`` / ``repro-rumr``).

    Returns a process exit code; see the module docstring for commands.
    """
    args = _parser().parse_args(argv)

    if args.command == "list":
        for name in available_schedulers():
            print(name)
        return 0

    if args.command == "gantt":
        return _cmd_gantt(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "multijob":
        return _cmd_multijob(args)
    if args.command == "hetero":
        return _cmd_hetero(args)
    if args.command == "adaptive":
        return _cmd_adaptive(args)
    if args.command == "extfigs":
        return _cmd_extfigs(args)
    if args.command == "figfaults":
        return _cmd_figfaults(args)
    if args.command == "figtopo":
        return _cmd_figtopo(args)
    if args.command == "topo":
        return _cmd_topo(args)

    grid = _grid(args)
    progress = None if args.quiet else eta_progress()

    batch_static = not args.no_batch
    retry = _retry_policy(args)

    def main_sweep(sweep_grid=grid, algorithms=PAPER_ALGORITHMS, **extra):
        """The cached sweep every table and figure reads (``extra``:
        ``failures=`` / ``stats=`` collectors)."""
        return cached_sweep(
            sweep_grid, algorithms, args.results, n_jobs=args.jobs,
            progress=progress, batch_static=batch_static,
            retry=retry, resume=args.resume, **extra,
        )

    if args.command == "sweep":
        from repro.experiments.resilient import FailureLedger

        ledger = FailureLedger()
        results = main_sweep(failures=ledger)
        total = grid.num_simulations(len(results.algorithms))
        print(f"sweep complete: {total} simulations cached in {args.results}")
        if len(ledger):
            print(
                f"warning: {len(ledger)} cell(s) quarantined as NaN "
                f"(ledger in {args.results}); first: "
                f"{ledger.entries[0].algorithm} platform="
                f"{ledger.entries[0].platform_index} "
                f"[{ledger.entries[0].exc_type}]"
            )
        return 0

    if args.command == "stats":
        from repro.obs import SweepStats

        stats = SweepStats()
        main_sweep(stats=stats)
        print(stats.summary())
        return 0

    if args.command in ("table2", "all"):
        _emit(args, "table2", render_table(table2(main_sweep())))
        _emit(args, "table2-csv", table_csv(table2(main_sweep())))
    if args.command in ("table3", "all"):
        _emit(args, "table3", render_table(table3(main_sweep())))
        _emit(args, "table3-csv", table_csv(table3(main_sweep())))
    if args.command in ("fig4a", "all"):
        _emit(args, "fig4a", render_figure(fig4a(main_sweep())))
    if args.command in ("fig4b", "all"):
        _emit(args, "fig4b", render_figure(fig4b(main_sweep())))
    # Figs 5-7 normalize their own sweeps to RUMR, through the cache.
    for figure in SWEEP_FIGURES:
        if args.command in (figure.name, "all"):
            results = main_sweep(figure.grid(grid), figure.algorithms)
            _emit(args, figure.name, render_figure(figure.render(results)))
    return 0


#: Default scenarios for ``figfaults``: one of each fault kind, sized so
#: the smoke/small grids (W=1000, makespans of order 100–600s) see them.
DEFAULT_FAULT_SPECS = (
    "crash:p=0.3,tmax=200",
    "pause:p=0.5,tmax=200,dur=50",
    "slow:p=0.5,tmax=200,factor=3",
    "spike:p=0.2,delay=5",
)


def _cmd_figfaults(args: argparse.Namespace) -> int:
    from repro.experiments.figures import fault_figure, fig_faults_algorithms
    from repro.experiments.runner import run_fault_sweep

    grid = _grid(args)
    specs = tuple(args.faults) if args.faults else DEFAULT_FAULT_SPECS
    algorithms = (
        tuple(a.strip() for a in args.algorithms.split(","))
        if args.algorithms
        else fig_faults_algorithms
    )
    progress = None if args.quiet else eta_progress()
    results = run_fault_sweep(
        grid, specs, algorithms=algorithms, n_jobs=args.jobs,
        progress=progress, directory=args.results, resume=args.resume,
    )
    _emit(args, "figfaults", render_figure(fault_figure(results)))
    return 0


#: Default scenarios for ``figtopo``: one of each non-star shape.  The
#: sharedbw cap is sized against the presets' Table-1 bandwidths
#: (``B = factor × N``, so 36 matches the N=20, factor=1.8 point).
DEFAULT_TOPOLOGY_SPECS = (
    "chain:relay=sf",
    "tree:fanout=2",
    "sharedbw:cap=36",
)


def _cmd_figtopo(args: argparse.Namespace) -> int:
    from repro.experiments.topology import (
        fig_topologies_algorithms,
        run_topology_sweep,
        topology_figure,
    )

    grid = _grid(args)
    specs = tuple(args.topologies) if args.topologies else DEFAULT_TOPOLOGY_SPECS
    algorithms = (
        tuple(a.strip() for a in args.algorithms.split(","))
        if args.algorithms
        else fig_topologies_algorithms
    )
    progress = None if args.quiet else eta_progress()
    results = run_topology_sweep(
        grid, specs, algorithms=algorithms, n_jobs=args.jobs,
        progress=progress, directory=args.results, resume=args.resume,
    )
    _emit(args, "figtopo", render_figure(topology_figure(results)))
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    import json
    import math

    from repro.platform import homogeneous_platform, make_topology

    topo = make_topology(args.topology)
    platform = homogeneous_platform(
        args.n, S=1.0, bandwidth_factor=args.bandwidth_factor,
        cLat=args.clat, nLat=args.nlat,
    )
    bound = topo.bind(platform)
    effective = topo.effective_platform(platform)
    cap = None if math.isinf(bound.cap) else bound.cap
    print(f"topology: {topo}  (kind={topo.kind}, N={platform.N}, "
          f"relay links={bound.num_relay_links}"
          + (f", shared cap={cap:g})" if cap is not None else ")"))
    print(f"{'worker':>6} {'B':>10} {'B_eff':>10} {'nLat_eff':>9} "
          f"{'tLat_eff':>9} {'hops':>5}")
    for i in range(platform.N):
        w, e = platform[i], effective[i]
        b_eff = "inf" if math.isinf(e.B) else f"{e.B:.6g}"
        print(
            f"{i:>6} {w.B:>10.6g} {b_eff:>10} {e.nLat:>9.6g} "
            f"{e.tLat:>9.6g} {len(bound.paths[i].hops):>5}"
        )
    if args.json:
        payload = {
            "spec": str(topo),
            "kind": topo.kind,
            "N": platform.N,
            "relay_links": bound.num_relay_links,
            "cap": cap,
            "workers": [
                {
                    "worker": i,
                    "B": platform[i].B,
                    "B_eff": None if math.isinf(effective[i].B) else effective[i].B,
                    "nLat_eff": effective[i].nLat,
                    "tLat_eff": effective[i].tLat,
                    "hops": len(bound.paths[i].hops),
                }
                for i in range(platform.N)
            ],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        path = pathlib.Path(args.json)
        path.write_text(text)
        print(f"wrote {path}")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.core.registry import make_scheduler
    from repro.errors.models import make_error_model
    from repro.platform.spec import homogeneous_platform
    from repro.sim import simulate
    from repro.sim.gantt import render_gantt

    platform = homogeneous_platform(
        args.n, S=1.0, bandwidth_factor=args.bandwidth_factor,
        cLat=args.clat, nLat=args.nlat,
    )
    scheduler = make_scheduler(args.scheduler, args.error)
    model = make_error_model("normal", args.error)
    result = simulate(platform, args.work, scheduler, model, seed=args.seed)
    print(render_gantt(result, width=args.width))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.registry import make_scheduler
    from repro.errors.models import make_error_model
    from repro.obs import Tracer, events_to_jsonl, write_chrome_trace
    from repro.platform.spec import homogeneous_platform
    from repro.sim import simulate

    platform = homogeneous_platform(
        args.n, S=1.0, bandwidth_factor=args.bandwidth_factor,
        cLat=args.clat, nLat=args.nlat,
    )
    scheduler = make_scheduler(args.scheduler, args.error)
    model = make_error_model("normal", args.error)
    tracer = Tracer()
    result = simulate(
        platform, args.work, scheduler, model, seed=args.seed,
        engine=args.engine, faults=args.fault, tracer=tracer,
    )
    events = tracer.canonical()
    stem = pathlib.Path(args.out)
    if args.format in ("chrome", "both"):
        path = write_chrome_trace(events, stem.with_suffix(".trace.json"))
        print(f"wrote {path} (open at chrome://tracing or ui.perfetto.dev)")
    if args.format in ("jsonl", "both"):
        path = stem.with_suffix(".jsonl")
        path.write_text(events_to_jsonl(events))
        print(f"wrote {path}")
    kinds: dict[str, int] = {}
    for e in events:
        kinds[e.kind] = kinds.get(e.kind, 0) + 1
    breakdown = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    print(
        f"{scheduler.name}: {len(events)} events ({breakdown}); "
        f"makespan={result.makespan:.3f}s, work_lost={result.work_lost:g}"
    )
    return 0


def _cmd_multijob(args: argparse.Namespace) -> int:
    from repro.experiments.queueing import metrics_to_json, queueing_metrics
    from repro.platform.spec import homogeneous_platform
    from repro.sim.multijob import simulate_stream

    platform = homogeneous_platform(
        args.n, S=1.0, bandwidth_factor=args.bandwidth_factor,
        cLat=args.clat, nLat=args.nlat,
    )
    arrivals = args.arrivals or f"poisson:rate=0.02,jobs=8,work={args.work:g}"
    stream = simulate_stream(
        platform, arrivals, scheduler=args.scheduler, error=args.error,
        seed=args.seed, policy=args.policy, engine=args.engine,
        faults=args.fault,
        failure_policy=args.failure_policy,
    )
    print(f"{'job':>4} {'arrival':>10} {'start':>10} {'finish':>10} "
          f"{'wait':>8} {'response':>10} {'slowdown':>9} {'work':>9}")
    for rec in stream.jobs:
        status = f"  FAILED ({rec.failure})" if rec.failed else ""
        print(
            f"{rec.job.job_id:>4} {rec.job.time:>10.2f} {rec.start:>10.2f} "
            f"{rec.finish:>10.2f} {rec.wait:>8.2f} {rec.response:>10.2f} "
            f"{rec.slowdown:>9.3f} {rec.job.work:>9.1f}{status}"
        )
    metrics = queueing_metrics(stream)
    print(
        f"\n{stream.policy} · {stream.scheduler_name} · {stream.num_jobs} jobs: "
        f"horizon={metrics.horizon:.2f}s, mean response={metrics.mean_response:.2f}s, "
        f"mean slowdown={metrics.mean_slowdown:.3f}, "
        f"utilization={metrics.utilization:.3f}, "
        f"peak queue depth={metrics.max_queue_depth}"
    )
    if metrics.work_lost > 0:
        print(f"work lost to faults: {metrics.work_lost:g} units (re-dispatched)")
    if metrics.health is not None:
        h = metrics.health
        print(
            f"stream health [{stream.failure_policy}]: "
            f"{h.jobs_failed} job(s) failed, "
            f"{h.jobs_resubmitted} job(s) resubmitted, "
            f"{h.workers_excluded} worker(s) excluded; "
            f"goodput={h.goodput:.3f} work/s, "
            f"live utilization={h.live_utilization:.3f}"
        )
    if args.json:
        path = pathlib.Path(args.json)
        path.write_text(metrics_to_json(metrics) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_hetero(args: argparse.Namespace) -> int:
    from repro.core import RUMR, UMR, Factoring
    from repro.experiments.hetero import run_hetero_study

    error = args.error
    study = run_hetero_study(
        {
            "UMR": lambda: UMR(),
            "Factoring": lambda: Factoring(),
            "RUMR": lambda: RUMR(known_error=error),
            "RUMR-weighted": lambda: RUMR(known_error=error, phase2_weighted=True),
        },
        n=args.n,
        error=error,
        repetitions=args.repetitions,
    )
    print(f"{'level':>6} " + " ".join(f"{k:>14}" for k in study.means))
    for i, level in enumerate(study.levels):
        print(
            f"{level:>6.1f} "
            + " ".join(f"{study.means[k][i]:>14.2f}" for k in study.means)
        )
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    import statistics

    from repro.core import RUMR, UMR, AdaptiveRUMR
    from repro.errors.models import make_error_model
    from repro.platform.spec import homogeneous_platform
    from repro.sim.fastsim import simulate_fast

    platform = homogeneous_platform(
        args.n, S=1.0, bandwidth_factor=1.8, cLat=0.3, nLat=0.1
    )
    w = 1000.0
    print(f"{'error':>6} {'UMR':>10} {'RUMR(oracle)':>13} {'AdaptiveRUMR':>13}")
    for error in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        def mean(sched):
            return statistics.mean(
                simulate_fast(
                    platform, w, sched, make_error_model("normal", error), seed=s
                ).makespan
                for s in range(args.repetitions)
            )
        print(
            f"{error:>6.2f} {mean(UMR()):>10.2f} "
            f"{mean(RUMR(known_error=error)):>13.2f} {mean(AdaptiveRUMR()):>13.2f}"
        )
    return 0


def _cmd_extfigs(args: argparse.Namespace) -> int:
    from repro.experiments.extension_figures import (
        fig_adaptive,
        fig_hetero,
        fig_multiport,
        fig_output_ratio,
    )

    figures = {
        "ext-hetero": fig_hetero(repetitions=args.repetitions),
        "ext-adaptive": fig_adaptive(repetitions=args.repetitions),
        "ext-output": fig_output_ratio(repetitions=args.repetitions),
        "ext-multiport": fig_multiport(repetitions=args.repetitions),
    }
    for name, figure in figures.items():
        content = render_figure(figure)
        if args.out:
            out_dir = pathlib.Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{name}.txt"
            path.write_text(content)
            print(f"wrote {path}")
        else:
            print(content)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
