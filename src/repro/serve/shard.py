"""Shard/replica topology for the sharded serving tier.

The serving tier's availability substrate: the loaded graph is
partitioned over ``N`` *shard groups* (``multi/partition.py``'s 1D
partitioner promoted into the service layer), and each shard group is
replicated ``R`` ways across simulated devices.  A single-source query
is owned by the shard of its source vertex and served by one healthy
replica of that group; whole-graph queries (PageRank) fan out across
one replica of every live group.

The serving fiction (DESIGN §13): a replica of shard *s* is the
authoritative owner of *s*'s vertex range and additionally holds a
read-only snapshot of the full topology, the way a production serving
node holds its primary key-range plus a replicated index.  Execution on
a replica therefore runs the unmodified single-node operator code on
the replica's own simulated device, which is what makes replica-served
results *bitwise-equal* to single-node runs — the shard structure
governs routing, health, admission and repair, never numerics.

This module holds the tier's moving parts:

* :class:`Replica` — one device plus its health state machine, a
  consecutive-failure circuit breaker with half-open probing
  (closed → open after ``failure_threshold`` straight failures; open →
  half-open once ``cooldown_ms`` of simulated time has passed; a probe
  success closes the breaker, a probe failure re-opens it);
* :class:`ShardGroup` / :class:`ShardTier` — N×R replica pool with
  load-balanced healthy-replica choice;
* :class:`ShardMap` — per-graph vertex→shard ownership, rebuilt through
  :func:`repro.multi.partition.redistribute` when every replica of a
  shard has died (repair);
* :func:`parse_kill_schedule` — ``at_ms:shard:replica`` device-loss
  schedules for the CLI and CI;
* :func:`fanout_pagerank` — the whole-graph fan-out with
  partial-result degradation, accounted through a replica-aware
  :class:`~repro.multi.machine.MultiMachine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import Csr
from ..multi.machine import InterconnectSpec, MultiMachine
from ..multi.pagerank import residual_push
from ..multi.partition import PartitionedGraph, partition_1d, redistribute
from ..obs.spans import CAT_SHARD, instant as obs_instant
from ..simt.machine import GPUSpec, Machine

#: routing sentinel: the query fans out over every live shard group
FANOUT = -1

#: health states of a replica's circuit breaker
H_CLOSED, H_OPEN, H_HALF_OPEN = "closed", "open", "half_open"

#: re-shard traffic constants shared with :mod:`repro.multi.bfs`
RESHARD_BYTES_PER_VERTEX = 24.0
RESHARD_BYTES_PER_EDGE = 8.0


@dataclass(frozen=True)
class BreakerPolicy:
    """Consecutive-failure circuit breaker parameters."""

    failure_threshold: int = 3     # straight failures that open the breaker
    cooldown_ms: float = 25.0      # simulated open time before half-open

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_ms < 0:
            raise ValueError("cooldown_ms must be non-negative")


@dataclass
class Replica:
    """One replica of a shard group: a device plus its health record."""

    sid: int                      # shard group this replica belongs to
    index: int                    # position within the group (0..R-1)
    device_id: int                # globally unique device number
    machine: Machine
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    alive: bool = True            # False once killed — permanent
    busy_until_ms: float = 0.0
    state: str = H_CLOSED
    consecutive_failures: int = 0
    open_until_ms: float = 0.0
    # -- stats -------------------------------------------------------------
    served: int = 0
    faults: int = 0
    breaker_opens: int = 0

    @property
    def name(self) -> str:
        return f"s{self.sid}r{self.index}"

    def available_at(self, now: float) -> Optional[float]:
        """Earliest simulated time >= ``now`` this replica can start an
        execution, or None when it is permanently dead.

        An open breaker delays availability to its half-open time rather
        than hiding the replica: the cooldown is charged to the
        simulated clock, and the first post-cooldown execution is the
        probe.
        """
        if not self.alive:
            return None
        at = max(now, self.busy_until_ms)
        if self.state == H_OPEN:
            at = max(at, self.open_until_ms)
        return at

    def admits(self, now: float) -> bool:
        """True when an execution could start exactly at ``now``."""
        return self.available_at(now) == now

    def begin_dispatch(self, now: float) -> None:
        """Note a dispatch; an open breaker past cooldown turns half-open
        (the execution that follows is the probe)."""
        if self.state == H_OPEN and now >= self.open_until_ms:
            self.state = H_HALF_OPEN
            obs_instant("shard.breaker", CAT_SHARD, replica=self.name,
                        state=H_HALF_OPEN)

    def on_failure(self, now: float) -> None:
        """Record a failed execution; may trip the breaker open."""
        self.faults += 1
        self.consecutive_failures += 1
        tripped = (self.state == H_HALF_OPEN
                   or self.consecutive_failures >= self.breaker.failure_threshold)
        if tripped and self.state != H_OPEN:
            self.state = H_OPEN
            self.open_until_ms = now + self.breaker.cooldown_ms
            self.breaker_opens += 1
            obs_instant("shard.breaker", CAT_SHARD, replica=self.name,
                        state=H_OPEN)
        elif self.state == H_OPEN:
            # a failure charged while already open just extends the cooldown
            self.open_until_ms = now + self.breaker.cooldown_ms

    def on_success(self, now: float) -> None:
        """Record a completed execution; closes a half-open breaker."""
        self.served += 1
        self.consecutive_failures = 0
        if self.state != H_CLOSED:
            self.state = H_CLOSED
            obs_instant("shard.breaker", CAT_SHARD, replica=self.name,
                        state=H_CLOSED)

    def kill(self) -> None:
        self.alive = False


@dataclass
class ShardGroup:
    """R replicas serving one shard of the graph."""

    sid: int
    replicas: List[Replica]

    def live_replicas(self) -> List[Replica]:
        return [r for r in self.replicas if r.alive]

    @property
    def down(self) -> bool:
        """True when every replica has been permanently killed."""
        return not self.live_replicas()

    def pick(self, now: float,
             prefer_not: Optional[Replica] = None) -> Optional[Tuple[Replica, float]]:
        """Least-loaded live replica and its earliest start time.

        Ties break to the lowest replica index; ``prefer_not`` demotes
        one replica (failover and hedging want a *sibling*) without
        excluding it when it is the only one left.
        """
        best = None
        for r in self.replicas:
            at = r.available_at(now)
            if at is None:
                continue
            key = (at, r is prefer_not, r.index)
            if best is None or key < best[0]:
                best = (key, r, at)
        if best is None:
            return None
        return best[1], best[2]


class ShardTier:
    """The N×R replica pool plus tier-level death/repair bookkeeping."""

    def __init__(self, shards: int, replicas: int, *,
                 spec: Optional[GPUSpec] = None,
                 breaker: Optional[BreakerPolicy] = None,
                 interconnect: Optional[InterconnectSpec] = None):
        if shards < 1:
            raise ValueError("need at least one shard")
        if replicas < 1:
            raise ValueError("need at least one replica per shard")
        self.shards = shards
        self.replicas_per_shard = replicas
        self.spec = spec if spec is not None else GPUSpec()
        self.breaker = breaker if breaker is not None else BreakerPolicy()
        self.interconnect = interconnect if interconnect is not None \
            else InterconnectSpec()
        self.groups: List[ShardGroup] = []
        for sid in range(shards):
            reps = [Replica(sid, i, sid * replicas + i,
                            Machine(spec=self.spec,
                                    device_index=sid * replicas + i),
                            breaker=self.breaker)
                    for i in range(replicas)]
            self.groups.append(ShardGroup(sid, reps))
        #: shards whose last replica died, in order of death — replays the
        #: redistribute cascade deterministically when maps are rebuilt
        self.dead_order: List[int] = []
        #: sid → simulated completion time of an in-flight repair
        self.repairing: Dict[int, float] = {}

    def replica(self, sid: int, index: int) -> Replica:
        return self.groups[sid].replicas[index]

    def live_sids(self) -> List[int]:
        return [g.sid for g in self.groups if not g.down]

    def all_replicas(self) -> List[Replica]:
        return [r for g in self.groups for r in g.replicas]

    def fanout_pick(self, now: float) -> Optional[Dict[int, Replica]]:
        """One replica per live group, every one able to start at ``now``
        (a fan-out is a barrier: it runs at the pace of its slowest
        member, so it only dispatches when all members are free).
        Returns None when some live group has no replica free at ``now``
        or when no group is live at all."""
        live = self.live_sids()
        if not live:
            return None
        chosen: Dict[int, Replica] = {}
        for sid in live:
            got = self.groups[sid].pick(now)
            if got is None or got[1] > now:
                return None
            chosen[sid] = got[0]
        return chosen


# -- ownership maps ----------------------------------------------------------


@dataclass
class ShardMap:
    """Vertex→shard ownership for one versioned graph."""

    pg: PartitionedGraph
    #: monotonically bumped on every repair-driven rebuild
    epoch: int = 0

    @property
    def owner(self) -> np.ndarray:
        return self.pg.owner

    def shard_of(self, vertex: int) -> int:
        return int(self.pg.owner[vertex])


def build_shard_map(csr: Csr, shards: int, method: str,
                    dead_order: Sequence[int], epoch: int = 0) -> ShardMap:
    """Partition ``csr`` over ``shards`` groups, then replay the repair
    cascade: every fully-dead shard's vertices are redistributed over the
    shards that were still alive at its death (deterministic regardless
    of when the map is rebuilt)."""
    pg = partition_1d(csr, shards, method=method)
    dead_so_far: List[int] = []
    for sid in dead_order:
        dead_so_far.append(sid)
        survivors = [s for s in range(shards) if s not in dead_so_far]
        pg = redistribute(pg, sid, survivors)
    return ShardMap(pg, epoch=epoch)


def route_vertex(primitive: str, params: Dict) -> Optional[int]:
    """The vertex whose owner serves this query (None = fan-out)."""
    if primitive in ("bfs", "sssp"):
        return int(params["src"])
    if primitive == "ppr":
        return int(min(params["seeds"]))
    if primitive == "wtf":
        return int(params["user"])
    return None  # pagerank: whole-graph


def repair_bytes(pg: PartitionedGraph, sid: int) -> float:
    """Wire volume of moving a dead shard's partition to the survivors
    (same constants as the multi-GPU degradation path)."""
    part = pg.parts[sid]
    return (part.n_local * RESHARD_BYTES_PER_VERTEX
            + part.m_local * RESHARD_BYTES_PER_EDGE)


# -- kill schedules ----------------------------------------------------------


@dataclass(frozen=True)
class KillEvent:
    """One scheduled device loss: replica ``replica`` of shard ``shard``
    dies at ``at_ms`` (replica ``None`` = the whole group)."""

    at_ms: float
    shard: int
    replica: Optional[int]  # None = every replica of the shard


def parse_kill_schedule(text: str, shards: int,
                        replicas: int) -> List[KillEvent]:
    """Parse ``"at:shard:replica,..."`` (replica ``*`` = all replicas).

    Example: ``"5:0:1,12:2:*"`` kills replica 1 of shard 0 at t=5 ms and
    every replica of shard 2 at t=12 ms.
    """
    events: List[KillEvent] = []
    if not text:
        return events
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 3:
            raise ValueError(
                f"bad kill event {chunk!r}: want at_ms:shard:replica")
        at_ms = float(parts[0])
        sid = int(parts[1])
        if not 0 <= sid < shards:
            raise ValueError(f"kill event {chunk!r}: shard {sid} out of "
                             f"range for {shards} shards")
        if parts[2] == "*":
            rep: Optional[int] = None
        else:
            rep = int(parts[2])
            if not 0 <= rep < replicas:
                raise ValueError(f"kill event {chunk!r}: replica {rep} out "
                                 f"of range for {replicas} replicas")
        if at_ms < 0:
            raise ValueError(f"kill event {chunk!r}: negative time")
        events.append(KillEvent(at_ms, sid, rep))
    return sorted(events, key=lambda e: (e.at_ms, e.shard,
                                         -1 if e.replica is None else e.replica))


# -- whole-graph fan-out -----------------------------------------------------


@dataclass
class FanoutResult:
    """Outcome of one fan-out PageRank across the live shard groups."""

    rank: np.ndarray
    iterations: int
    elapsed_ms: float         # makespan: step maxima + exchange time
    partial: bool             # some shard group was down → degraded
    dead_vertices: int        # vertices reported NaN (owned by down shards)


def fanout_pagerank(graph: Csr, pg: PartitionedGraph,
                    machines: Dict[int, Machine], *,
                    damping: float = 0.85,
                    tolerance: Optional[float] = None,
                    max_iterations: int = 1000,
                    interconnect: Optional[InterconnectSpec] = None
                    ) -> FanoutResult:
    """Residual-push PageRank fanned out over the live shard groups.

    ``machines`` maps live shard id → the chosen replica's machine; any
    shard slot of ``pg`` without an entry is *down* and degrades the
    result: its vertices neither scatter nor commit, and their ranks are
    reported NaN (typed missing — never a stale or wrong byte), with
    ``partial=True``.  The loop is
    :func:`repro.multi.pagerank.residual_push`, the one
    :func:`~repro.multi.pagerank.multi_gpu_pagerank` runs — pending
    contributions reduce in global-edge order — so ranks are bitwise
    identical for every shard count and replica choice.

    Accounting runs through a replica-aware
    :class:`~repro.multi.machine.MultiMachine` wrapping the replicas'
    own machines: scatter/commit kernels land on each replica's clock,
    and the returned ``elapsed_ms`` is this call's makespan (per-step
    maxima plus exchange time).
    """
    devices = [machines.get(sid, Machine()) for sid in range(pg.k)]
    mm = MultiMachine(shared_devices=devices,
                      interconnect=interconnect if interconnect is not None
                      else InterconnectSpec())
    for sid in range(pg.k):
        if sid not in machines:
            mm.fail_device(sid)

    rank, iterations = residual_push(graph, pg, mm, damping=damping,
                                     tolerance=tolerance,
                                     max_iterations=max_iterations)
    dead_vertices = 0
    partial = False
    for d, part in enumerate(pg.parts):
        if not mm.is_alive(d) and part.n_local:
            partial = True
            dead_vertices += part.n_local
            rank[part.vertices] = np.nan
    return FanoutResult(rank=rank, iterations=iterations,
                        elapsed_ms=mm.elapsed_ms(), partial=partial,
                        dead_vertices=dead_vertices)
