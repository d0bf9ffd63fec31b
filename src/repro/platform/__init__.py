"""Platform model for master-worker divisible-load computing.

Implements the paper's §3.1 model: ``N`` workers, each described by a
compute rate ``S`` (workload units per second), a transfer rate ``B``
(workload units per second on the master's serialized link), a computation
start-up latency ``cLat`` (seconds), a transfer start-up latency ``nLat``
(seconds), and an overlappable network pipeline tail ``tLat`` (seconds).

:mod:`repro.platform.topology` generalizes the interconnect beyond the
paper's star: linear daisy chains, two-level trees of sub-stars, and
shared-bandwidth stars, all behind one :class:`Topology` abstraction with
a spec grammar (``"chain:n=8,relay=sf"``) mirroring the fault grammar.
"""

from repro.platform.spec import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.platform.topology import (
    BoundTopology,
    ChainTopology,
    LinkPath,
    RelayHop,
    SharedBandwidthTopology,
    StarTopology,
    Topology,
    TopologyError,
    TreeTopology,
    bind_once,
    make_topology,
)
from repro.platform.validation import (
    PlatformError,
    full_utilization_fraction,
    satisfies_full_utilization,
    validate_platform,
)

__all__ = [
    "BoundTopology",
    "ChainTopology",
    "LinkPath",
    "PlatformError",
    "PlatformSpec",
    "RelayHop",
    "SharedBandwidthTopology",
    "StarTopology",
    "Topology",
    "TopologyError",
    "TreeTopology",
    "WorkerSpec",
    "bind_once",
    "full_utilization_fraction",
    "homogeneous_platform",
    "make_topology",
    "satisfies_full_utilization",
    "validate_platform",
]
