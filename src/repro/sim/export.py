"""Exporting simulation results to standard formats.

Downstream analysis (pandas, gnuplot, Chrome's trace viewer) wants flat
files, not Python objects:

* :func:`records_csv` — one row per dispatched chunk with the full
  timeline (the CSV twin of :class:`~repro.core.chunks.DispatchRecord`);
* :func:`result_json` — a self-describing JSON document with platform,
  provenance and records;
* :func:`chrome_trace` — the Chrome/Perfetto ``trace_event`` format
  (open ``chrome://tracing`` and drop the file): one row per worker plus
  one for the master's link, chunks as complete events, lowered by the
  same routine as the :mod:`repro.obs` trace sinks.
"""

from __future__ import annotations

import dataclasses
import json

from repro.obs.events import events_from_result
from repro.obs.sinks import _chrome_trace_events
from repro.sim.result import SimResult

__all__ = ["records_csv", "result_json", "chrome_trace"]

_CSV_FIELDS = (
    "index",
    "worker",
    "size",
    "send_start",
    "send_end",
    "arrival",
    "comp_start",
    "comp_end",
    "phase",
)


def records_csv(result: SimResult) -> str:
    """One CSV row per dispatched chunk, in dispatch order."""
    lines = [",".join(_CSV_FIELDS)]
    for r in result.records:
        row = [getattr(r, f) for f in _CSV_FIELDS]
        lines.append(
            ",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def result_json(result: SimResult, indent: int | None = None) -> str:
    """A self-describing JSON document for one run."""
    doc = {
        "scheduler": result.scheduler_name,
        "total_work": result.total_work,
        "seed": result.seed,
        "makespan": result.makespan,
        "num_chunks": result.num_chunks,
        "utilization": result.utilization(),
        "platform": [dataclasses.asdict(w) for w in result.platform],
        "records": [dataclasses.asdict(r) for r in result.records],
    }
    return json.dumps(doc, indent=indent)


def chrome_trace(result: SimResult) -> str:
    """Chrome ``trace_event`` JSON (load in chrome://tracing or Perfetto).

    The result's record-implied event stream
    (:func:`~repro.obs.events.events_from_result`) lowered exactly as the
    :mod:`repro.obs` sinks lower a traced run: timestamps in microseconds
    (simulated seconds × 1e6), transfers on the link's tid 0 and
    computations on worker ``i``'s tid ``i + 1`` as complete ("X")
    events, other kinds as instants.  Thread-name rows label the link
    and every worker.
    """
    names = ["master link"] + [f"worker {w}" for w in range(result.platform.N)]
    meta = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": name}}
        for tid, name in enumerate(names)
    ]
    events = _chrome_trace_events(events_from_result(result))
    return json.dumps({"traceEvents": meta + events, "displayTimeUnit": "ms"})
