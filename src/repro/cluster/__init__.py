"""Sharded multi-cluster scheduling: router, shard pool, rebalancer.

One scheduler service scales only as far as one event loop and one LP
ladder per replan.  This package horizontally shards the service
(docs/SHARDING.md): :func:`slice_capacity` carves the cluster into N
disjoint slices, each owned by an independent shard (an in-process
:class:`~repro.service.core.SchedulerService`, or a :class:`RemoteShard`
over HTTP) with its own journal and solver stack; the
:class:`ShardRouter` hashes submissions to their home shard (spilling
ad-hoc jobs to the least loaded shard on backpressure) and aggregates
fleet status; the
:class:`Rebalancer` compares per-shard demand skylines and migrates
not-yet-started workflows from saturated to slack shards via a
journal-backed two-phase handoff that survives crashes on either side.
:class:`RouterRoutes` serves the whole fleet behind the same HTTP
dialect as a single ``repro serve`` (``repro serve --shards N``), and
:class:`RouterHTTPServer` binds it to the threaded transport.

Availability (docs/ROBUSTNESS.md): the :class:`FailureDetector` probes
the fleet on a heartbeat and caches a ``live → suspect → dead`` verdict
per shard; the :class:`Supervisor` restarts dead local shards and, once
a shard stays dead past its grace period, re-homes its committed
workflows from its journal into surviving shards (``repro serve
--shards N --failover``).
"""

from repro.cluster.failover import (
    DetectorConfig,
    FailureDetector,
    Supervisor,
    SupervisorConfig,
)
from repro.cluster.http import RouterHTTPServer, RouterRoutes
from repro.cluster.rebalance import RebalanceConfig, Rebalancer
from repro.cluster.router import ShardRouter
from repro.cluster.shards import RemoteShard
from repro.cluster.slicing import slice_capacity

__all__ = [
    "DetectorConfig",
    "FailureDetector",
    "RebalanceConfig",
    "Rebalancer",
    "RemoteShard",
    "RouterHTTPServer",
    "RouterRoutes",
    "ShardRouter",
    "Supervisor",
    "SupervisorConfig",
    "slice_capacity",
]
