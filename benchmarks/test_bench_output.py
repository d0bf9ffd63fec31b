"""Extension benchmark: output-data return traffic.

The paper's model transfers input only (§3.1, citing [11, 12] for output).
This bench asks the question that exclusion leaves open: does RUMR's
advantage survive when every chunk's results must return over the same
serialized link?

Sweep: output ratio 0 … 1 (result bytes per input byte) at 30% error.
Expected shape (asserted): RUMR stays ahead of UMR across the sweep, but
the margin narrows as the link fills with return traffic (the link is a
shared bottleneck no dispatch policy controls); Factoring degrades fastest
because its request-driven dispatches now also queue behind returns.
"""

import statistics

from repro.core import RUMR, UMR, Factoring
from repro.errors import NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate

RATIOS = (0.0, 0.2, 0.5, 1.0)
ERROR = 0.3
SEEDS = range(10)


def regenerate():
    platform = homogeneous_platform(16, S=1.0, bandwidth_factor=1.8, cLat=0.3, nLat=0.1)
    w = 1000.0
    rows = {}
    for ratio in RATIOS:
        def mean(sched_factory):
            return statistics.mean(
                simulate(
                    platform, w, sched_factory(), NormalErrorModel(ERROR),
                    seed=s, topology=f"star:out={ratio!r}",
                ).makespan
                for s in SEEDS
            )

        rows[ratio] = {
            "UMR": mean(UMR),
            "RUMR": mean(lambda: RUMR(known_error=ERROR)),
            "Factoring": mean(Factoring),
        }
    return rows


def test_bench_output(benchmark):
    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print()
    header = list(next(iter(rows.values())))
    print(f"{'ratio':>6} " + " ".join(f"{h:>11}" for h in header))
    for ratio, row in rows.items():
        print(f"{ratio:>6.1f} " + " ".join(f"{row[h]:>11.2f}" for h in header))

    for ratio in RATIOS:
        assert rows[ratio]["RUMR"] < rows[ratio]["UMR"], ratio
    # Return traffic slows everyone down monotonically.
    rumr = [rows[r]["RUMR"] for r in RATIOS]
    assert rumr == sorted(rumr)
