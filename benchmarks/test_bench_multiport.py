"""Extension benchmark: simultaneous transfers (multi-port master).

§3.1 of the paper: "it could be beneficial to allow for simultaneous
transfers for better throughput in some cases (e.g. WANs).  We have
provided an initial investigation of this issue in [17] and leave a more
complete study for future work."  This bench is that study, in miniature:
makespan vs port count at a latency-heavy configuration, under error.

Expected shapes (asserted):

* more ports never hurt and help most at high nLat (per-transfer set-up
  is the quantity extra ports parallelize);
* diminishing returns: the jump from 1→2 ports dwarfs 4→8;
* the one-port UMR/RUMR *plans* stay usable (they are merely conservative
  on a multi-port master), so RUMR keeps beating UMR under error at every
  port count.
"""

import statistics

from repro.core import RUMR, UMR
from repro.errors import NormalErrorModel
from repro.platform import homogeneous_platform
from repro.sim import simulate

PORTS = (1, 2, 4, 8)
ERROR = 0.3
SEEDS = range(8)


def regenerate():
    platform = homogeneous_platform(16, S=1.0, bandwidth_factor=1.3, cLat=0.2, nLat=0.3)
    w = 1000.0
    rows = {}
    for ports in PORTS:
        def mean(sched_factory):
            return statistics.mean(
                simulate(
                    platform, w, sched_factory(), NormalErrorModel(ERROR),
                    seed=s, topology=f"star:ports={ports}",
                ).makespan
                for s in SEEDS
            )

        rows[ports] = {
            "UMR": mean(UMR),
            "RUMR": mean(lambda: RUMR(known_error=ERROR)),
        }
    return rows


def test_bench_multiport(benchmark):
    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print()
    print(f"{'ports':>6} {'UMR':>10} {'RUMR':>10}")
    for ports, row in rows.items():
        print(f"{ports:>6} {row['UMR']:>10.2f} {row['RUMR']:>10.2f}")

    umr = [rows[p]["UMR"] for p in PORTS]
    assert umr == sorted(umr, reverse=True), "extra ports must not hurt"
    gain_12 = umr[0] - umr[1]
    gain_48 = umr[2] - umr[3]
    assert gain_12 > gain_48, "diminishing returns in port count"
    for ports in PORTS:
        assert rows[ports]["RUMR"] < rows[ports]["UMR"], ports
