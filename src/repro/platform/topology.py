"""Interconnect topologies between the master and its workers.

The paper derives everything on a one-level *star*: the master owns one
serialized link and each worker hangs directly off it.  The strongest
related work lives on other shapes — divisible loads on linear daisy
chains (Gallet/Robert/Vivien) and on resource-sharing networks with
bandwidth contention (Wu/Cao/Robertazzi) — so this module makes the
interconnect a pluggable axis:

``star:ports=K,out=R``
    The degenerate case, and the default (``None`` and plain ``star``
    parse to ``ports=1,out=0``): every worker's path is its own link
    with no relay hops and no tail, so a chunk arrives ``tLat`` after its
    link release — the paper's model.  Two keys relax the paper's §3.1
    master, both future work there.  ``ports=K`` lets the master drive up
    to ``K`` transfers at once, each still at its worker's rate ``B_i``
    (ref [17]).  ``out=R`` makes every computed chunk of ``c`` units
    return ``R·c`` result units over the master's links (refs [11, 12]):
    the return holds one port for ``nLat_i + R·c/B_i`` and the master
    holds the results ``tLat_i`` later.  Dispatches and returns share the
    ``K`` ports FIFO, as return messages share the one-port links of
    Gallet/Robert/Vivien.  Either key makes the star DES-only
    (:attr:`Topology.closed_form` is False; see :mod:`repro.sim.engine`
    for the port rules).
``chain:n=8,relay=sf|ct``
    A linear daisy chain: the master feeds worker 0, worker 0 forwards
    to worker 1, and so on.  ``relay=sf`` (store-and-forward, the
    default) serializes each hop — a chunk fully occupies link ``j``
    (cost ``nLat_j + c/B_j``) before entering link ``j+1`` — while
    ``relay=ct`` (cut-through) models wormhole forwarding: only the
    first link is a contended resource and the rest of the chain is a
    contention-free latency/rate pipe.
``tree:fanout=R``
    A two-level tree of sub-stars: the workers are split into
    ``min(R, N)`` contiguous groups, the first worker of each group is
    its *relay root* (it computes **and** forwards), and the master
    reaches a non-root worker through its root's link followed by one
    serialized relay hop.  ``fanout=N`` makes every group a singleton —
    exactly the star.
``sharedbw:cap=C``
    A star whose outbound link is a shared medium: concurrent transfers
    split the total capacity ``C`` max-min fairly (each additionally
    capped by its worker's ``B_i``); the master pays only ``nLat_i``
    serially per dispatch.  Genuine fluid bandwidth sharing needs an
    event calendar, so this shape is DES-only (see
    :mod:`repro.sim.engine`); the fast engine declines it.

Two artifacts come out of a topology:

* :meth:`Topology.bind` compiles per-worker :class:`LinkPath` transport
  recipes (master-link occupancy + serialized relay hops + a
  contention-free tail) that *both* engines evaluate with the same float
  expressions — the basis of the cross-topology conformance suite;
* :attr:`Topology.closed_form` says whether the fast engine's
  closed-form recurrence models the shape — the one routing decision
  between the fast engine (and the sweep's batch engines) and the DES;
* :meth:`Topology.effective_platform` folds the end-to-end transport
  cost into a per-worker ``(rate, latency)`` view — an ordinary
  :class:`~repro.platform.spec.PlatformSpec` — so UMR/RUMR/Factoring
  plan against the topology without knowing it exists.  Workers whose
  path is relay-free keep their *original* :class:`WorkerSpec` object,
  which is what makes the degenerate cases bitwise exact.

Both depend only on ``(topology, platform)``, so the scalar engines bind
through :func:`bind_once`: one FIFO-bounded memo keyed by the topology's
value and the platform's identity.  Repeated runs on one platform object
(a chain oracle at many seeds, a stream's grants on one worker subset)
reuse one :class:`BoundTopology` with its effective platform and the
fast engine's per-worker :attr:`~BoundTopology.direct` flags, instead of
re-lowering O(N²) relay hops and a new platform on every call.

The spec grammar mirrors the fault/arrival grammars
(:func:`repro.errors.faults.make_fault_model`); ``str(topology)`` is the
canonical spelling and round-trips through :func:`make_topology`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

from repro.kvspec import parse_kv
from repro.platform.spec import PlatformSpec, WorkerSpec

__all__ = [
    "TopologyError",
    "RelayHop",
    "LinkPath",
    "BoundTopology",
    "Topology",
    "StarTopology",
    "ChainTopology",
    "TreeTopology",
    "SharedBandwidthTopology",
    "bind_once",
    "make_topology",
    "TOPOLOGY_KINDS",
]

#: The closed set of topology kinds this module parses.
TOPOLOGY_KINDS = ("star", "chain", "tree", "sharedbw")


class TopologyError(ValueError):
    """Raised for malformed topology specs or platform/topology mismatches."""


@dataclasses.dataclass(frozen=True, slots=True)
class RelayHop:
    """One serialized relay link on a chunk's path.

    ``resource`` indexes the bound topology's relay-link busy array —
    chunks crossing the same resource are FIFO-serialized, exactly like
    the master's own link.
    """

    resource: int
    nLat: float
    B: float

    def hop_time(self, chunk: float) -> float:
        """Occupancy of this relay link for ``chunk`` units.

        The same expression as :meth:`WorkerSpec.link_time`, so a hop
        over a worker's own link costs exactly what the star would have
        charged on the master link.
        """
        return self.nLat + (0.0 if math.isinf(self.B) else chunk / self.B)


@dataclasses.dataclass(frozen=True, slots=True)
class LinkPath:
    """The transport recipe from the master to one worker.

    A chunk's journey decomposes into three stages, each evaluated with
    identical float expressions by the fast engine (closed form) and the
    DES engine (process realization):

    * *occupancy* — the exclusive master-link hold,
      ``occ_nLat + c/occ_B`` (perturbed by the communication error
      model, like the star's link time);
    * *hops* — zero or more serialized :class:`RelayHop` crossings, each
      starting at ``max(chunk available, link free)``;
    * *tail* — a contention-free latency/rate pipe,
      ``tail_lat + c/tail_B`` (cut-through chains; ``tail_B = inf``
      means latency only, ``tail_lat = 0`` and ``tail_B = inf`` mean no
      tail at all).

    The worker's ``tLat`` is *not* part of the path — engines add it
    after the path ends, exactly as on the star.
    """

    occ_nLat: float
    occ_B: float
    hops: tuple[RelayHop, ...] = ()
    tail_lat: float = 0.0
    tail_B: float = math.inf

    def occupancy_time(self, chunk: float) -> float:
        """Exclusive master-link occupancy for ``chunk`` units.

        Bitwise identical to :meth:`WorkerSpec.link_time` when the path
        uses the worker's own link — the star-degeneracy anchor.
        """
        return self.occ_nLat + (0.0 if math.isinf(self.occ_B) else chunk / self.occ_B)

    @property
    def has_tail(self) -> bool:
        """Whether the contention-free tail stage is non-trivial."""
        return self.tail_lat > 0.0 or not math.isinf(self.tail_B)

    def tail_time(self, chunk: float) -> float:
        """Duration of the contention-free tail for ``chunk`` units."""
        return self.tail_lat + (0.0 if math.isinf(self.tail_B) else chunk / self.tail_B)

    def traverse(
        self,
        chunk: float,
        send_end: float,
        relay_busy: list[float],
        hop_ends: "list[tuple[int, float]] | None" = None,
    ) -> float:
        """Advance a chunk from link release to the end of its path.

        Mutates ``relay_busy`` (the per-resource busy chain) and returns
        the path-end time; ``arrival = traverse(...) + tLat``.  The DES
        engine's relay processes realize the exact same ``max``/``+``
        float operations, so this prediction is what the calendar lands
        on.  ``hop_ends`` (when given) collects ``(resource, end_time)``
        per hop for ``link_hop`` event emission.
        """
        t = send_end
        for hop in self.hops:
            busy = relay_busy[hop.resource]
            start = busy if busy > t else t
            t = start + hop.hop_time(chunk)
            relay_busy[hop.resource] = t
            if hop_ends is not None:
                hop_ends.append((hop.resource, t))
        if self.has_tail:
            t = t + self.tail_time(chunk)
        return t


@dataclasses.dataclass(frozen=True)
class BoundTopology:
    """A topology compiled against one concrete platform.

    ``paths[i]`` is worker ``i``'s :class:`LinkPath`; ``num_relay_links``
    sizes the per-resource busy arrays; ``cap`` is the shared-medium
    capacity (``inf`` for every kind except ``sharedbw``); ``ports`` and
    ``out`` are the star's master ports and result-return ratio (1 and 0
    for every other kind).  :attr:`direct` and :attr:`effective_platform`
    are derived on first use and kept, so a binding served by
    :func:`bind_once` derives them once for all its runs.
    """

    kind: str
    topology: "Topology"
    platform: PlatformSpec
    paths: tuple[LinkPath, ...]
    num_relay_links: int = 0
    cap: float = math.inf
    ports: int = 1
    out: float = 0.0

    @functools.cached_property
    def direct(self) -> tuple[bool, ...]:
        """Per worker: whether its path ends at its link release.

        True for paths with neither relay hops nor a tail (every star
        path), where :meth:`LinkPath.traverse` would return the link
        release time unchanged; the fast engine skips it for them.
        """
        return tuple([not path.hops and not path.has_tail for path in self.paths])

    @functools.cached_property
    def effective_platform(self) -> PlatformSpec:
        """:meth:`Topology.effective_platform` of the bound platform."""
        return self.topology.effective_platform(self.platform)


class Topology:
    """Base class of interconnect topologies (see the module docstring)."""

    kind: typing.ClassVar[str] = ""
    #: Expected worker count (``None`` = any); validated at bind time.
    n: int | None = None

    @property
    def closed_form(self) -> bool:
        """Whether the fast engine's closed-form recurrence models this shape.

        False shapes (``sharedbw``, and stars with ``ports > 1`` or
        ``out > 0``) need an event calendar: the fast engine rejects
        them, and :func:`repro.sim.result.simulate` and the sweep runner
        send them to the DES engine.
        """
        return True

    def bind(self, platform: PlatformSpec) -> BoundTopology:
        """Compile per-worker transport paths against ``platform``."""
        raise NotImplementedError

    def effective_platform(self, platform: PlatformSpec) -> PlatformSpec:
        """The per-worker (rate, latency) view schedulers plan against.

        A *heuristic* summary — relay contention is invisible to it; the
        simulation truth lives in the engines.  Relay-free workers keep
        their original :class:`WorkerSpec` so degenerate topologies plan
        bitwise identically to the star.
        """
        raise NotImplementedError

    def _check_n(self, platform: PlatformSpec) -> None:
        if self.n is not None and platform.N != self.n:
            raise TopologyError(
                f"{self} declares n={self.n} workers but the platform has "
                f"N={platform.N}"
            )


#: Memo of :func:`bind_once`: ``(topology, id(platform))`` → binding.
#: Each binding holds its platform, so no cached id is recycled while
#: its entry lives; FIFO-bounded like ``repro.sim.batch._COMPILE_CACHE``.
_BIND_CACHE: dict[tuple["Topology", int], BoundTopology] = {}
_BIND_CACHE_MAX = 256


def bind_once(topology: Topology, platform: PlatformSpec) -> BoundTopology:
    """``topology.bind(platform)``, compiled once per topology and platform.

    Both scalar engines bind through this memo, so repeated runs on one
    platform object reuse one :class:`BoundTopology` and, through it, one
    :attr:`~BoundTopology.effective_platform` object, which the lru-cached
    plan solvers hash once instead of once per run.
    Topologies are frozen and keyed by value (a spec string parses to a
    new but equal object on every call); platforms are keyed by identity,
    so a relay-free worker of the effective platform is always the
    caller's own :class:`WorkerSpec` object, never an equal one's.
    """
    key = (topology, id(platform))
    bound = _BIND_CACHE.get(key)
    if bound is not None and bound.platform is platform:
        return bound
    bound = topology.bind(platform)
    if len(_BIND_CACHE) >= _BIND_CACHE_MAX:
        _BIND_CACHE.pop(next(iter(_BIND_CACHE)))
    _BIND_CACHE[key] = bound
    return bound


def _num(value: float) -> str:
    """Canonical spec spelling of a number (round-trips through float)."""
    return repr(value) if value != int(value) else str(int(value))


@functools.lru_cache(maxsize=1024)
def _star_path(nLat: float, B: float) -> LinkPath:
    """The zero-hop path over a worker's own link, shared by every bind.

    Paths are frozen, so equal ``(nLat, B)`` pairs share one object.  (A
    ``-0.0`` latency may get the ``0.0`` path: ``occupancy_time`` adds a
    non-negative term to it, so both give the same float.)
    """
    return LinkPath(nLat, B)


def _harmonic_B(rates: typing.Iterable[float]) -> float:
    """End-to-end rate of serial links: ``1 / Σ 1/B_j`` (inf-safe)."""
    inv = sum(0.0 if math.isinf(b) else 1.0 / b for b in rates)
    return math.inf if inv <= 0.0 else 1.0 / inv


@dataclasses.dataclass(frozen=True)
class StarTopology(Topology):
    """The paper's one-level star — the degenerate topology.

    ``ports`` and ``out`` are the master's port count and result-return
    ratio (see the module docstring); the defaults are the paper's model.
    """

    kind: typing.ClassVar[str] = "star"
    n: int | None = None
    ports: int = 1
    out: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.ports, int) and self.ports >= 1):
            raise TopologyError(f"star ports must be an integer >= 1, got {self.ports!r}")
        if not (self.out >= 0 and math.isfinite(self.out)):
            raise TopologyError(f"star out must be finite and >= 0, got {self.out}")

    @property
    def closed_form(self) -> bool:
        return self.ports == 1 and self.out == 0

    def bind(self, platform: PlatformSpec) -> BoundTopology:
        self._check_n(platform)
        paths = tuple([_star_path(w.nLat, w.B) for w in platform.workers])
        return BoundTopology(
            "star", self, platform, paths, ports=self.ports, out=self.out
        )

    def effective_platform(self, platform: PlatformSpec) -> PlatformSpec:
        self._check_n(platform)
        # The very same object: schedulers (and their identity-keyed plan
        # caches) cannot tell a star topology from no topology at all.
        return platform

    def __str__(self) -> str:
        parts = [] if self.n is None else [f"n={self.n}"]
        if self.ports != 1:
            parts.append(f"ports={self.ports}")
        if self.out != 0:
            parts.append(f"out={_num(self.out)}")
        return "star:" + ",".join(parts) if parts else "star"


@dataclasses.dataclass(frozen=True)
class ChainTopology(Topology):
    """A linear daisy chain: master → w0 → w1 → … → w_{N-1}.

    The master's serialized link carries every chunk over the first hop
    (worker 0's ``nLat``/``B``); deeper workers are reached through
    their predecessors.  ``relay`` picks the forwarding discipline:
    ``"sf"`` (store-and-forward) serializes each intermediate link,
    ``"ct"`` (cut-through) treats the chain beyond the first link as a
    contention-free pipe running at the path's bottleneck rate.
    """

    kind: typing.ClassVar[str] = "chain"
    n: int | None = None
    relay: str = "sf"

    def __post_init__(self) -> None:
        if self.relay not in ("sf", "ct"):
            raise TopologyError(
                f"chain relay must be 'sf' or 'ct', got {self.relay!r}"
            )
        if self.n is not None and self.n < 1:
            raise TopologyError(f"chain n must be >= 1, got {self.n}")

    def bind(self, platform: PlatformSpec) -> BoundTopology:
        self._check_n(platform)
        w = platform.workers
        paths: list[LinkPath] = []
        for i in range(platform.N):
            if self.relay == "sf":
                hops = tuple(
                    RelayHop(resource=j - 1, nLat=w[j].nLat, B=w[j].B)
                    for j in range(1, i + 1)
                )
                paths.append(LinkPath(w[0].nLat, w[0].B, hops=hops))
            else:
                tail_lat = sum(w[j].nLat for j in range(1, i + 1))
                # The pipe adds the bottleneck's per-unit cost beyond what
                # the first link already charged: 1/B_eff = 1/minB - 1/B_0.
                min_b = min(w[j].B for j in range(i + 1))
                inv = (0.0 if math.isinf(min_b) else 1.0 / min_b) - (
                    0.0 if math.isinf(w[0].B) else 1.0 / w[0].B
                )
                tail_b = math.inf if inv <= 0.0 else 1.0 / inv
                paths.append(
                    LinkPath(w[0].nLat, w[0].B, tail_lat=tail_lat, tail_B=tail_b)
                )
        num_links = platform.N - 1 if self.relay == "sf" else 0
        return BoundTopology("chain", self, platform, tuple(paths), num_links)

    def effective_platform(self, platform: PlatformSpec) -> PlatformSpec:
        self._check_n(platform)
        w = platform.workers
        out: list[WorkerSpec] = [w[0]]  # relay-free: the original object
        for i in range(1, platform.N):
            if self.relay == "sf":
                b_eff = _harmonic_B(w[j].B for j in range(i + 1))
            else:
                b_eff = min(w[j].B for j in range(i + 1))
            t_lat = w[i].tLat + sum(w[j].nLat for j in range(1, i + 1))
            out.append(
                WorkerSpec(
                    S=w[i].S, B=b_eff, cLat=w[i].cLat, nLat=w[0].nLat, tLat=t_lat
                )
            )
        return PlatformSpec(out)

    def __str__(self) -> str:
        parts = [] if self.n is None else [f"n={self.n}"]
        parts.append(f"relay={self.relay}")
        return "chain:" + ",".join(parts)


@dataclasses.dataclass(frozen=True)
class TreeTopology(Topology):
    """A two-level tree of sub-stars.

    Workers are split into ``min(fanout, N)`` contiguous groups of
    near-equal size (earlier groups take the remainder).  The first
    worker of each group is the *relay root*: the master reaches any
    group member over the root's link, and non-root members cost one
    additional serialized hop over the root's outbound relay link (one
    relay resource per group).  Roots compute like ordinary workers —
    ``fanout >= N`` therefore degenerates to the exact star.
    """

    kind: typing.ClassVar[str] = "tree"
    fanout: int = 2
    n: int | None = None

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise TopologyError(f"tree fanout must be >= 1, got {self.fanout}")
        if self.n is not None and self.n < 1:
            raise TopologyError(f"tree n must be >= 1, got {self.n}")

    def groups(self, num_workers: int) -> tuple[tuple[int, ...], ...]:
        """The contiguous worker groups for an ``num_workers`` platform."""
        r = min(self.fanout, num_workers)
        base, extra = divmod(num_workers, r)
        out: list[tuple[int, ...]] = []
        start = 0
        for g in range(r):
            size = base + (1 if g < extra else 0)
            out.append(tuple(range(start, start + size)))
            start += size
        return tuple(out)

    def bind(self, platform: PlatformSpec) -> BoundTopology:
        self._check_n(platform)
        w = platform.workers
        groups = self.groups(platform.N)
        paths: list[LinkPath | None] = [None] * platform.N
        for g, members in enumerate(groups):
            root = members[0]
            paths[root] = LinkPath(w[root].nLat, w[root].B)
            for child in members[1:]:
                paths[child] = LinkPath(
                    w[root].nLat,
                    w[root].B,
                    hops=(RelayHop(resource=g, nLat=w[child].nLat, B=w[child].B),),
                )
        return BoundTopology(
            "tree", self, platform, tuple(paths), num_relay_links=len(groups)
        )

    def effective_platform(self, platform: PlatformSpec) -> PlatformSpec:
        self._check_n(platform)
        w = platform.workers
        out: list[WorkerSpec | None] = [None] * platform.N
        for members in self.groups(platform.N):
            root = members[0]
            out[root] = w[root]  # relay-free: the original object
            for child in members[1:]:
                out[child] = WorkerSpec(
                    S=w[child].S,
                    B=_harmonic_B((w[root].B, w[child].B)),
                    cLat=w[child].cLat,
                    nLat=w[root].nLat,
                    tLat=w[child].tLat + w[child].nLat,
                )
        return PlatformSpec(out)

    def __str__(self) -> str:
        parts = [f"fanout={self.fanout}"]
        if self.n is not None:
            parts.append(f"n={self.n}")
        return "tree:" + ",".join(parts)


@dataclasses.dataclass(frozen=True)
class SharedBandwidthTopology(Topology):
    """A star whose outbound link is a shared medium of capacity ``cap``.

    Concurrent transfers split ``cap`` max-min fairly (water-filling),
    each additionally limited by its worker's ``B_i``; the master pays
    only the per-transfer ``nLat_i`` serially, then the chunk's bytes
    flow under fair sharing.  Fluid rate reallocation on every
    join/leave needs an event calendar, so this shape is implemented by
    the DES engine only; :func:`repro.sim.fastsim.simulate_fast` raises
    and :func:`repro.sim.result.simulate` routes it to DES.  Fault
    injection is unsupported (loss classification needs a completion
    time predictable at dispatch, which bandwidth sharing forbids).
    """

    kind: typing.ClassVar[str] = "sharedbw"
    cap: float = 1.0
    n: int | None = None

    @property
    def closed_form(self) -> bool:
        return False

    def __post_init__(self) -> None:
        if not (self.cap > 0 and math.isfinite(self.cap)):
            raise TopologyError(
                f"sharedbw cap must be finite and > 0, got {self.cap}"
            )
        if self.n is not None and self.n < 1:
            raise TopologyError(f"sharedbw n must be >= 1, got {self.n}")

    def bind(self, platform: PlatformSpec) -> BoundTopology:
        self._check_n(platform)
        paths = tuple([_star_path(w.nLat, w.B) for w in platform.workers])
        return BoundTopology("sharedbw", self, platform, paths, cap=self.cap)

    def effective_platform(self, platform: PlatformSpec) -> PlatformSpec:
        self._check_n(platform)
        # Pessimistic equal-share view: every worker sees cap/N unless its
        # own link is slower still.
        share = self.cap / platform.N
        return PlatformSpec(
            WorkerSpec(
                S=w.S, B=min(w.B, share), cLat=w.cLat, nLat=w.nLat, tLat=w.tLat
            )
            for w in platform.workers
        )

    def __str__(self) -> str:
        parts = [f"cap={_num(self.cap)}"]
        if self.n is not None:
            parts.append(f"n={self.n}")
        return "sharedbw:" + ",".join(parts)


def _take_int(params: dict[str, str], kind: str, name: str) -> int | None:
    raw = params.pop(name, None)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise TopologyError(
            f"{kind} parameter {name}={raw!r} is not an integer"
        ) from None


def _take_float(params: dict[str, str], kind: str, name: str) -> float | None:
    raw = params.pop(name, None)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise TopologyError(f"{kind} parameter {name}={raw!r} is not a number") from None


def make_topology(spec: "str | Topology | None") -> Topology:
    """Parse a topology spec string (or pass a :class:`Topology` through).

    The grammar mirrors the fault grammar: ``kind:key=value,key=value``.
    ``None``, ``""`` and ``"star"`` all mean the plain star.  Examples::

        star                 chain:n=8,relay=sf     chain:relay=ct
        tree:fanout=4        sharedbw:cap=30        star:n=20
        star:ports=2         star:out=0.25          star:ports=4,out=0.5

    ``str(topology)`` round-trips: ``make_topology(str(t)) == t``.
    """
    if isinstance(spec, Topology):
        return spec
    if spec is None:
        return StarTopology()
    if not isinstance(spec, str):
        raise TopologyError(f"expected a topology spec string, got {spec!r}")
    text = spec.strip()
    if not text:
        return StarTopology()
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    params = parse_kv(body, kind, "topology", TopologyError)
    if kind == "star":
        ports = _take_int(params, kind, "ports")
        out = _take_float(params, kind, "out")
        topo: Topology = StarTopology(
            n=_take_int(params, kind, "n"),
            ports=1 if ports is None else ports,
            out=0.0 if out is None else out,
        )
    elif kind == "chain":
        n = _take_int(params, kind, "n")
        relay = params.pop("relay", "sf")
        topo = ChainTopology(n=n, relay=relay)
    elif kind == "tree":
        fanout = _take_int(params, kind, "fanout")
        if fanout is None:
            raise TopologyError("tree topology requires fanout=<int>")
        topo = TreeTopology(fanout=fanout, n=_take_int(params, kind, "n"))
    elif kind == "sharedbw":
        cap = _take_float(params, kind, "cap")
        if cap is None:
            raise TopologyError("sharedbw topology requires cap=<rate>")
        topo = SharedBandwidthTopology(cap=cap, n=_take_int(params, kind, "n"))
    else:
        raise TopologyError(
            f"unknown topology kind {kind!r}; known: {', '.join(TOPOLOGY_KINDS)}"
        )
    if params:
        raise TopologyError(
            f"unknown {kind} parameter(s): {', '.join(sorted(params))}"
        )
    return topo
