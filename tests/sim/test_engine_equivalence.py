"""DES event-stream checks.

The fast-vs-DES trajectory-equality suite lives in
``tests/sim/test_differential.py`` (curated cases plus a seeded randomized
harness over schedulers, errors and fault scenarios).  What remains here
checks the DES engine's live :class:`~repro.obs.Tracer` stream against
its own records: the engine emits each event from the process that
realizes it, so the stream certifies the kernel's actual execution.
"""

from repro.core import UMR
from repro.errors import NoError
from repro.obs import Tracer
from repro.sim import simulate

W = 1000.0


def test_des_tracer_is_populated(paper_platform):
    tracer = Tracer()
    result = simulate(paper_platform, W, UMR(), NoError(), engine="des", tracer=tracer)
    kinds = {e.kind for e in tracer.events()}
    assert {"dispatch_start", "dispatch_end", "comp_start", "comp_end"} <= kinds
    sends = tracer.of_kind("dispatch_start")
    assert len(sends) == len(tracer.of_kind("comp_end")) == result.num_chunks


def test_des_trace_times_match_records(small_platform):
    tracer = Tracer()
    result = simulate(small_platform, W, UMR(), NoError(), engine="des", tracer=tracer)
    ends = {e.chunk: e.time for e in tracer.of_kind("comp_end")}
    assert ends == {r.index: r.comp_end for r in result.records}
    assert max(ends.values()) == result.makespan
