"""Shard router: one submission frontend over N scheduler shards.

Routing is deterministic consistent hashing — ``crc32(route_key) % N``
over the *route key* of the entity id.  Ids of the form
``tenant/anything`` hash on the tenant prefix, so one tenant's workflows
co-locate on one shard (their admission decisions see each other);
everything else hashes on the full id.  A placement map (populated by
migrations) overrides the hash per workflow id, so a rebalanced workflow
keeps resolving to the shard that actually owns it.

Admission is *delegated*: the router never decides, it forwards to the
owning shard and stamps the answering shard's name onto the
:class:`~repro.service.api.SubmitResult`.  Deadline workflows have a
fixed home — if that shard rejects or is merely unreachable, that is the
answer (spilling a workflow would break the placement map's determinism
and double-hash its idempotency key).  The one exception is a home shard
the failure detector has declared **dead**: then the workflow is
*rerouted* to a deterministic fallback shard and its placement pinned
there, so new deadline work keeps landing while the supervisor re-homes
the dead shard's existing commitments (docs/ROBUSTNESS.md).  Ad-hoc jobs
are best-effort leftovers soakers, so they *spill*: on backpressure
(``queue_full``), drain (``draining``), or a dead shard, the router
retries the submission on the live shard with the shallowest ad-hoc
queue.

Liveness: when a :class:`~repro.cluster.failover.FailureDetector` is
attached, every liveness question the router asks — spill order, status,
reconcile — consults the detector's *cached* verdict instead of probing
the shard inline, so one hung remote cannot add a full client timeout to
every submission.  Shards the detector has not probed yet fall back to
the inline probe (cold-start behaves exactly like the detector-less
router).

The router also aggregates ``/status``, ``/metrics`` and ``/slo`` across
shards (sum counters, max slot, per-shard breakdown attached), and owns
:meth:`ShardRouter.reconcile` — the recovery step that settles orphaned
migration tombstones after a crash: if the destination owns the
workflow, confirm; otherwise restore it on the source.  Exactly one side
wins, so an interrupted migration never loses or duplicates a workflow
(see docs/SHARDING.md for the full argument).
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Optional, Sequence

from repro.cluster.periodic import PeriodicLoop
from repro.cluster.shards import _SHARD_ERRORS
from repro.model.job import Job
from repro.model.workflow import Workflow
from repro.obs import Observability, json_safe
from repro.service.api import SubmitResult

__all__ = ["ShardRouter"]

#: Ad-hoc rejection reasons worth retrying on a sibling shard.
_SPILLABLE_REASONS = {"queue_full", "draining", "unavailable"}


def _unavailable(kind: str, entity_id: str, shard: str) -> SubmitResult:
    return SubmitResult(
        accepted=False,
        kind=kind,
        id=entity_id,
        reason="unavailable",
        shard=shard,
    )


class ShardRouter:
    """Routes submissions to shard handles and aggregates their views."""

    def __init__(
        self,
        shards: Sequence,
        *,
        obs: Observability | None = None,
        detector=None,
    ):
        if not shards:
            raise ValueError("router needs at least one shard")
        names = [shard.name for shard in shards]
        if len(set(names)) != len(names):
            raise ValueError(f"shard names must be unique, got {names}")
        self._shards = list(shards)
        self._by_name = {shard.name: shard for shard in self._shards}
        #: workflow id -> owning shard name; written by migrations and
        #: reconcile so routing follows the workflow to its new home.
        self._placement: dict[str, str] = {}
        #: workflow id -> migration epoch of the placement write; a write
        #: with a lower epoch than the recorded one is stale and ignored
        #: (a zombie replaying an old handoff cannot move routing back).
        self._placement_epochs: dict[str, int] = {}
        self.obs = obs if obs is not None else Observability()
        self.detector = detector
        self._reconcile_loop = PeriodicLoop(
            "reconcile loop", self.reconcile, self.obs,
            "router.reconcile.loop_errors", "repro-reconcile",
        )

    def attach_detector(self, detector) -> None:
        """Use *detector*'s cached verdicts for every liveness question."""
        self.detector = detector

    # -- topology ----------------------------------------------------------------

    @property
    def shards(self) -> list:
        return list(self._shards)

    @property
    def shard_names(self) -> list[str]:
        return [shard.name for shard in self._shards]

    def shard(self, name: str):
        return self._by_name[name]

    @property
    def placement_overrides(self) -> dict[str, str]:
        return dict(self._placement)

    def record_placement(
        self, workflow_id: str, shard_name: str, *, epoch: int = 0
    ) -> None:
        """Pin *workflow_id*'s routing to *shard_name* (post-migration).

        ``epoch`` is the migration epoch of the write; a write older than
        the recorded epoch for this workflow is ignored, so replays of
        stale handoffs (zombie shards) cannot move routing backwards.
        Epoch 0 writes (legacy callers) always apply.
        """
        if shard_name not in self._by_name:
            raise ValueError(f"unknown shard {shard_name!r}")
        if epoch and epoch < self._placement_epochs.get(workflow_id, 0):
            self.obs.counter("router.placement.stale_writes").inc()
            return
        self._placement[workflow_id] = shard_name
        if epoch:
            self._placement_epochs[workflow_id] = epoch

    @staticmethod
    def route_key(entity_id: str) -> str:
        """The hashed portion of an id: tenant prefix before ``/``, else
        the full id — one tenant's submissions co-locate."""
        prefix, sep, _ = entity_id.partition("/")
        return prefix if sep else entity_id

    def home_shard(self, entity_id: str):
        """The hash-determined shard for an entity id."""
        digest = zlib.crc32(self.route_key(entity_id).encode("utf-8"))
        return self._shards[digest % len(self._shards)]

    def shard_for_workflow(self, workflow_id: str):
        """Where this workflow lives: placement override, else hash home."""
        name = self._placement.get(workflow_id)
        if name is not None and name in self._by_name:
            return self._by_name[name]
        return self.home_shard(workflow_id)

    def shard_alive(self, shard) -> bool:
        """Is this shard usable?  Cached detector verdict when available
        (``live``/``suspect`` count as usable), inline probe otherwise."""
        if self.detector is not None and self.detector.probed(shard.name):
            return self.detector.is_live(shard.name)
        return self._alive(shard)

    def _alive(self, shard) -> bool:
        try:
            return bool(shard.alive())
        except _SHARD_ERRORS:
            return False

    def _detector_dead(self, shard) -> bool:
        """Definitively dead per the detector (False without a verdict)."""
        return (
            self.detector is not None
            and self.detector.probed(shard.name)
            and not self.detector.is_live(shard.name)
        )

    # -- submission --------------------------------------------------------------

    def submit_workflow(
        self,
        workflow: Workflow,
        *,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> SubmitResult:
        shard = self.shard_for_workflow(workflow.workflow_id)
        self.obs.counter("router.submit.workflow").inc()
        if self._detector_dead(shard):
            # The home is *confirmed* dead (not merely unreachable once):
            # reroute to a deterministic live fallback and pin placement
            # there so retries and later queries resolve the same way.
            fallback = self._reroute_target(workflow.workflow_id, shard)
            if fallback is None:
                self.obs.counter("router.shard_unavailable").inc()
                return _unavailable(
                    "workflow", workflow.workflow_id, shard.name
                )
            shard = fallback
        try:
            result = shard.submit_workflow(
                workflow,
                idempotency_key=idempotency_key,
                request_id=request_id,
            )
        except _SHARD_ERRORS:
            self.obs.counter("router.shard_unavailable").inc()
            return _unavailable("workflow", workflow.workflow_id, shard.name)
        if result.accepted and shard is not self.shard_for_workflow(
            workflow.workflow_id
        ):
            self.record_placement(workflow.workflow_id, shard.name)
            self.obs.counter("router.failover.rerouted").inc()
        return replace(result, shard=shard.name)

    def _reroute_target(self, workflow_id: str, dead_home):
        """Deterministic live fallback for a workflow whose home is dead.

        Hash-rotated over the shard list so independent routers pick the
        same target; returns None when nothing is live.
        """
        candidates = [
            shard
            for shard in self._shards
            if shard is not dead_home and self.shard_alive(shard)
        ]
        if not candidates:
            return None
        digest = zlib.crc32(workflow_id.encode("utf-8"))
        return candidates[digest % len(candidates)]

    def submit_adhoc(
        self,
        job: Job,
        *,
        idempotency_key: str | None = None,
        request_id: str | None = None,
    ) -> SubmitResult:
        primary = self.home_shard(job.job_id)
        self.obs.counter("router.submit.adhoc").inc()
        result = self._try_adhoc(
            primary, job, idempotency_key=idempotency_key, request_id=request_id
        )
        if result is not None and (
            result.accepted or result.reason not in _SPILLABLE_REASONS
        ):
            return result
        # Spill: the home shard shed, drained, or is dead — ad-hoc work is
        # leftover-soaking by definition, so any shard's leftovers will do.
        # Least-loaded first (shallowest ad-hoc queue).
        spill_result = result
        for shard in self._spill_order(primary):
            attempt = self._try_adhoc(
                shard,
                job,
                idempotency_key=idempotency_key,
                request_id=request_id,
            )
            if attempt is None:
                continue
            if attempt.accepted:
                self.obs.counter("router.adhoc.spilled").inc()
                return attempt
            spill_result = attempt
            if attempt.reason not in _SPILLABLE_REASONS:
                break
        if spill_result is None:
            self.obs.counter("router.shard_unavailable").inc()
            spill_result = _unavailable("adhoc", job.job_id, primary.name)
        return spill_result

    def _try_adhoc(
        self, shard, job: Job, *, idempotency_key, request_id
    ) -> Optional[SubmitResult]:
        try:
            result = shard.submit_adhoc(
                job, idempotency_key=idempotency_key, request_id=request_id
            )
        except _SHARD_ERRORS:
            return None
        return replace(result, shard=shard.name)

    def _spill_order(self, primary) -> list:
        """Live non-primary shards, shallowest ad-hoc queue first.

        With a detector attached this is pure cache: state and last-known
        queue depth both come from the most recent background probe, so
        ranking the fleet costs zero wire calls per submission.  Without
        one, fall back to inline probes (the pre-detector behaviour).
        """
        ranked = []
        for shard in self._shards:
            if shard is primary:
                continue
            if self.detector is not None and self.detector.probed(shard.name):
                if not self.detector.is_live(shard.name):
                    continue
                hint = self.detector.queue_depth_hint(shard.name)
                ranked.append(
                    (hint if hint is not None else 0, shard.name, shard)
                )
                continue
            if not self._alive(shard):
                continue
            try:
                depth = shard.queue_depth()
            except _SHARD_ERRORS:
                continue
            ranked.append((depth, shard.name, shard))
        ranked.sort(key=lambda entry: entry[:2])
        return [shard for _, _, shard in ranked]

    # -- aggregated views --------------------------------------------------------

    def status(self) -> dict:
        """Fleet status: summed counters plus a per-shard breakdown."""
        per_shard: dict[str, dict] = {}
        totals = {
            "n_workflows": 0,
            "n_jobs": 0,
            "remaining_jobs": 0,
            "queue_depth": 0,
            "accepted_workflows": 0,
            "rejected_workflows": 0,
            "accepted_adhoc": 0,
            "shed_adhoc": 0,
            "replans": 0,
        }
        slot = 0
        running = 0
        for shard in self._shards:
            state = (
                self.detector.state(shard.name)
                if self.detector is not None
                and self.detector.probed(shard.name)
                else None
            )
            if state == "dead":
                # No point burning a timeout on a confirmed-dead shard.
                per_shard[shard.name] = {"alive": False, "state": state}
                continue
            try:
                snapshot = shard.status().to_dict()
            except _SHARD_ERRORS as error:
                per_shard[shard.name] = {"alive": False, "error": str(error)}
                if state is not None:
                    per_shard[shard.name]["state"] = state
                continue
            per_shard[shard.name] = {"alive": True, **snapshot}
            if state is not None:
                per_shard[shard.name]["state"] = state
            if snapshot.get("running"):
                running += 1
            slot = max(slot, int(snapshot.get("slot", 0)))
            for field in totals:
                totals[field] += int(snapshot.get(field, 0))
        return {
            "n_shards": len(self._shards),
            "running_shards": running,
            "slot": slot,
            "placement_overrides": len(self._placement),
            "aggregate": totals,
            "shards": per_shard,
        }

    def metrics(self) -> dict:
        """Fleet metrics: per-shard registry snapshots plus an aggregate
        that sums every counter-style entry present on any shard."""
        per_shard: dict[str, dict] = {}
        aggregate: dict[str, float] = {}
        for shard in self._shards:
            try:
                snapshot = shard.metrics()
            except _SHARD_ERRORS as error:
                per_shard[shard.name] = {"error": str(error)}
                continue
            per_shard[shard.name] = snapshot
            for name, entry in snapshot.items():
                value = (
                    entry.get("value") if isinstance(entry, dict) else None
                )
                if isinstance(value, (int, float)):
                    aggregate[name] = aggregate.get(name, 0) + value
        return {
            "aggregate": aggregate,
            "shards": per_shard,
            # The router's own registry: breaker/detector/reroute/spill
            # counters that exist fleet-side, not on any one shard.
            "router": json_safe(self.obs.registry.snapshot()),
        }

    def slo(self) -> dict:
        """Fleet SLO: healthy only when every answering shard is healthy."""
        per_shard: dict[str, dict] = {}
        known: list[bool] = []
        unreachable = 0
        for shard in self._shards:
            try:
                snapshot = shard.slo()
            except _SHARD_ERRORS as error:
                per_shard[shard.name] = {"error": str(error)}
                unreachable += 1
                continue
            per_shard[shard.name] = snapshot
            healthy = snapshot.get("healthy")
            if healthy is not None:
                known.append(bool(healthy))
        healthy = all(known) if known else None
        return {
            "aggregate": {"healthy": healthy, "unreachable_shards": unreachable},
            "shards": per_shard,
        }

    # -- migration bookkeeping ---------------------------------------------------

    def owned_by_shard(self) -> dict[str, list[str]]:
        """Workflow ids owned per shard (for the conservation check)."""
        owned: dict[str, list[str]] = {}
        for shard in self._shards:
            try:
                owned[shard.name] = sorted(shard.workflow_ids())
            except _SHARD_ERRORS:
                owned[shard.name] = []
        return owned

    def orphans_by_shard(self) -> dict[str, dict[str, dict]]:
        """Unsettled outbound handoffs per shard."""
        orphans: dict[str, dict[str, dict]] = {}
        for shard in self._shards:
            try:
                orphans[shard.name] = shard.orphans()
            except _SHARD_ERRORS:
                orphans[shard.name] = {}
        return orphans

    def reconcile(self) -> dict:
        """Settle orphaned migrations after a crash or failed handoff.

        For every unconfirmed ``migrate_out`` tombstone: ask the
        destination whether it owns the workflow.  Owned → confirm on the
        source (the move completed; only the ack was lost).  Not owned →
        restore on the source (the move never landed).  Either side being
        unreachable holds the orphan for the next pass — holding is safe,
        guessing is not.
        """
        confirmed = restored = held = 0
        for shard in self._shards:
            if not self.shard_alive(shard):
                continue
            try:
                orphans = shard.orphans()
            except _SHARD_ERRORS:
                continue
            for workflow_id, info in sorted(orphans.items()):
                dest = self._by_name.get(info.get("dest", ""))
                if dest is None:
                    owns = False  # destination left the fleet: restore
                elif not self.shard_alive(dest):
                    held += 1
                    continue
                else:
                    try:
                        owns = dest.owns(workflow_id)
                    except _SHARD_ERRORS:
                        held += 1
                        continue
                try:
                    if owns:
                        shard.confirm(
                            workflow_id, epoch=int(info.get("epoch", 0))
                        )
                        self.record_placement(
                            workflow_id,
                            dest.name,
                            epoch=int(info.get("epoch", 0)),
                        )
                        confirmed += 1
                        self.obs.counter("router.reconcile.confirmed").inc()
                    else:
                        shard.restore_orphan(workflow_id)
                        self.record_placement(workflow_id, shard.name)
                        restored += 1
                        self.obs.counter("router.reconcile.restored").inc()
                except (*_SHARD_ERRORS, ValueError):
                    held += 1
        return {"confirmed": confirmed, "restored": restored, "held": held}

    # -- periodic reconcile ------------------------------------------------------

    def start_reconcile_loop(self, interval_s: float) -> None:
        """Run :meth:`reconcile` every ``interval_s`` on a daemon thread,
        so held orphans (unreachable source or destination) settle as
        soon as the missing shard returns — no manual ``POST /reconcile``
        required."""
        self._reconcile_loop.start(interval_s)

    def stop_reconcile_loop(self) -> None:
        self._reconcile_loop.stop()
