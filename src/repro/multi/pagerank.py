"""Multi-GPU PageRank over a 1D partition (Section 7 future work).

Residual-push PageRank where each device scatters along its owned rows;
contributions to remote vertices accumulate in per-device send buffers
and are exchanged once per super-step (the classic "boundary
accumulation" pattern).  Results match the single-GPU primitive.

Fault tolerance mirrors :mod:`repro.multi.bfs`: each iteration scatters
into a scratch ``residual_next`` buffer and only commits into the global
``rank`` / ``residual`` arrays after every kernel launch of the
iteration has completed.  A ``device-loss`` fault therefore aborts to an
unmutated iteration; recovery redistributes the dead partition over the
survivors, re-buckets the active set, charges the re-shard traffic, and
replays the iteration on ``k-1`` devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..graph.csr import Csr
from ..resilience.faults import DeviceLost
from ..resilience.recovery import RetryPolicy
from ..simt import calib
from .bfs import _local_positions, _recover_device_loss
from .machine import MultiMachine
from .partition import PartitionedGraph, partition_1d

_BYTES_PER_CONTRIB = 16.0  # vertex id + float value


@dataclass
class MultiPagerankResult:
    rank: np.ndarray
    iterations: int
    elapsed_ms: float
    compute_ms: float
    comm_ms: float
    #: recovery statistics when the run executed with fault injection
    recovery: Optional[dict] = None


def multi_gpu_pagerank(graph: Csr, k: int = 2, *, damping: float = 0.85,
                       tolerance: Optional[float] = None,
                       method: str = "contiguous",
                       machine: Optional[MultiMachine] = None,
                       max_iterations: int = 1000,
                       faults=None,
                       retry: Optional[RetryPolicy] = None
                       ) -> MultiPagerankResult:
    """Residual-push PageRank across ``k`` simulated devices.

    ``faults`` / ``retry`` enable fault-tolerant execution
    (:mod:`repro.resilience`); ranks are identical to the fault-free run.
    """
    pg: PartitionedGraph = partition_1d(graph, k, method=method)
    mm = machine if machine is not None else MultiMachine(k=k)
    if mm.k != k:
        raise ValueError("machine.k must match k")
    if faults is not None or retry is not None:
        mm.attach(faults, retry)

    rank, iterations = residual_push(graph, pg, mm, damping=damping,
                                     tolerance=tolerance,
                                     max_iterations=max_iterations)
    return MultiPagerankResult(rank=rank, iterations=iterations,
                               elapsed_ms=mm.elapsed_ms(),
                               compute_ms=mm.compute_ms(), comm_ms=mm.comm_ms,
                               recovery=mm.recovery_summary())


def residual_push(graph: Csr, pg: PartitionedGraph, mm: MultiMachine, *,
                  damping: float, tolerance: Optional[float],
                  max_iterations: int) -> Tuple[np.ndarray, int]:
    """The residual-push loop over ``pg``'s devices; returns ``(rank,
    iterations)``.

    Shared by :func:`multi_gpu_pagerank` and the serving tier's fan-out
    (:func:`repro.serve.shard.fanout_pagerank`).  A device ``mm`` reports
    dead before the first step neither scatters nor commits, so its
    vertices keep the base rank; after a mid-run device loss the dead
    slot is empty (:func:`~repro.multi.partition.redistribute`), so the
    same guards are no-ops there.
    """
    n = max(1, graph.n)
    tol = (0.01 / n) if tolerance is None else tolerance
    base = (1.0 - damping) / n
    rank = np.full(graph.n, base)
    residual = np.full(graph.n, base)
    degrees = np.maximum(graph.out_degrees, 1).astype(np.float64)
    local_pos = _local_positions(pg, graph.n)

    empty = np.zeros(0, dtype=np.int64)
    active = [part.vertices[residual[part.vertices] > tol]
              if mm.is_alive(d) else empty
              for d, part in enumerate(pg.parts)]
    iterations = 0
    while any(len(a) for a in active) and iterations < max_iterations:
        iterations += 1
        try:
            residual_next = np.zeros(graph.n)
            remote_contribs = 0
            # per-device (global edge id, destination, contribution) triples;
            # the commit below reduces them in global-edge order so the
            # floating-point sum is identical for every partitioning (and
            # hence before/after a device-loss redistribution)
            pending = []
            mm.begin_step()
            for d, part in enumerate(pg.parts):
                f = active[d]
                if len(f) == 0:
                    continue
                rows = local_pos[f]
                degs = (part.indptr[rows + 1]
                        - part.indptr[rows]).astype(np.int64)
                total = int(degs.sum())
                dev = mm.devices[d]
                dev.launch("mgpu_pr_scatter",
                           body_cycles=total * calib.C_EDGE / dev.spec.num_sm
                           + total * calib.C_ATOMIC_THROUGHPUT,
                           items=total, iteration=iterations)
                dev.counters.record_edges(total)
                if total == 0:
                    continue
                offsets = np.concatenate([[0], np.cumsum(degs)])
                eids = np.repeat(part.indptr[rows] - offsets[:-1], degs) \
                    + np.arange(total)
                dsts = part.indices[eids]
                geids = np.repeat(graph.indptr[f] - offsets[:-1], degs) \
                    + np.arange(total)
                seg = np.repeat(np.arange(len(f)), degs)
                contrib = damping * residual[f][seg] / degrees[f][seg]
                pending.append((geids, dsts, contrib))
                # contributions to each remote vertex are combined on-device
                # before shipping (boundary aggregation), so the wire volume
                # is one entry per distinct remote destination
                remote = dsts[pg.owner[dsts] != d]
                remote_contribs += len(np.unique(remote))
            mm.end_step()
            if pending:
                geids = np.concatenate([p[0] for p in pending])
                dsts = np.concatenate([p[1] for p in pending])
                contrib = np.concatenate([p[2] for p in pending])
                order = np.argsort(geids, kind="stable")
                np.add.at(residual_next, dsts[order], contrib[order])

            mm.exchange(remote_contribs * _BYTES_PER_CONTRIB)

            # commit kernels all launch before any rank/residual write, so
            # a device loss here still aborts to an unmutated iteration
            mm.begin_step()
            for d, part in enumerate(pg.parts):
                if mm.is_alive(d) and part.n_local:
                    mm.devices[d].map_kernel("mgpu_pr_commit", part.n_local,
                                             calib.C_VERTEX,
                                             iteration=iterations)
            mm.end_step()
        except DeviceLost as fault:
            pg, local_pos, active = _recover_device_loss(
                mm, pg, fault, np.concatenate(active))
            iterations -= 1
            continue
        new_active = []
        for d, part in enumerate(pg.parts):
            if not mm.is_alive(d):
                new_active.append(empty)
                continue
            verts = part.vertices
            res = residual_next[verts]
            rank[verts] += res
            residual[verts] = res
            new_active.append(verts[res > tol])
        active = new_active
    return rank, iterations
