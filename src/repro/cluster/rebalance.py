"""Skyline rebalancer: move slack work from saturated to idle shards.

Hash routing balances *submissions*, not *demand*: one tenant can pile
heavy workflows onto its home shard while a neighbour idles.  The
rebalancer periodically compares per-shard **demand skylines** — the
committed deadline load over the remaining horizon as a fraction of each
shard's capacity (:meth:`SchedulerService.skyline`) — and when
the spread between the most and least saturated shard exceeds a
threshold, migrates a bounded number of *not-yet-started* workflows from
the saturated shard to the slack one.

Each move runs the two-phase protocol (docs/SHARDING.md):

1. ``migrate_out`` on the source — journals a tombstone embedding the
   workflow and its idempotency key, withdraws it from the engine;
2. ``migrate_in`` on the destination — re-runs admission against the
   destination's slice (a move must never overload the receiver),
   journals on accept with the key pinned;
3. settle: accepted → ``confirm`` on the source; *definitively* rejected
   → ``restore`` on the source (accepted stays accepted, just not moved).

A transport failure in step 2 is the dangerous case: the handoff may or
may not have landed.  The rebalancer then does **nothing** — the
tombstone stays an orphan and the router's ``reconcile`` (run at the top
of every cycle) later asks the destination who owns it.  Restoring
blindly here is exactly how a workflow gets duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.periodic import PeriodicLoop
from repro.cluster.router import ShardRouter
from repro.cluster.shards import _SHARD_ERRORS
from repro.obs import Observability

__all__ = ["RebalanceConfig", "Rebalancer"]


@dataclass(frozen=True)
class RebalanceConfig:
    """Rebalancing policy knobs.

    Attributes:
        saturation_gap: minimum spread between the most and least
            saturated shard's skyline before any move is considered —
            below it the fleet counts as balanced.
        min_saturation: the source must be at least this saturated;
            an under-loaded fleet is left alone even if skewed.
        max_moves: migrations per cycle — rebalancing is a trickle, not
            a stampede (each move costs a re-admission on the receiver).
        candidate_factor: how many candidates to fetch per allowed move
            (some will fail re-admission or start running mid-flight).
    """

    saturation_gap: float = 0.25
    min_saturation: float = 0.5
    max_moves: int = 2
    candidate_factor: int = 2

    def __post_init__(self) -> None:
        if self.saturation_gap < 0:
            raise ValueError("saturation_gap must be >= 0")
        if self.max_moves < 1:
            raise ValueError("max_moves must be >= 1")
        if self.candidate_factor < 1:
            raise ValueError("candidate_factor must be >= 1")


class Rebalancer:
    """Drives migration cycles over a :class:`ShardRouter`'s fleet."""

    def __init__(
        self,
        router: ShardRouter,
        config: RebalanceConfig | None = None,
        *,
        obs: Observability | None = None,
    ):
        self.router = router
        self.config = config or RebalanceConfig()
        self.obs = obs if obs is not None else router.obs
        self._epoch = 0
        # A failed cycle must not kill the loop; the next one starts from
        # reconcile anyway.
        self._loop = PeriodicLoop(
            "rebalancer", self.cycle, self.obs,
            "rebalance.cycle_errors", "repro-rebalancer",
        )

    @property
    def epoch(self) -> int:
        """Monotonic migration epoch (stamps every handoff)."""
        return self._epoch

    # -- one cycle ---------------------------------------------------------------

    def cycle(self) -> dict:
        """Reconcile, measure skylines, and migrate at most
        ``max_moves`` workflows from the hottest to the coolest shard."""
        summary: dict = {
            "reconcile": self.router.reconcile(),
            "moved": 0,
            "attempted": 0,
            "moves": [],
        }
        skylines: list[tuple[float, str, object]] = []
        for shard in self.router.shards:
            if not self._alive(shard):
                continue
            try:
                skyline = shard.skyline()
            except _SHARD_ERRORS:
                continue
            skylines.append(
                (float(skyline.get("saturation", 0.0)), shard.name, shard)
            )
        if len(skylines) < 2:
            summary["skipped"] = "fewer than two reachable shards"
            return summary
        skylines.sort(key=lambda entry: entry[:2])
        low_sat, _, dest = skylines[0]
        high_sat, _, source = skylines[-1]
        summary["saturation"] = {"max": high_sat, "min": low_sat}
        if (
            high_sat - low_sat < self.config.saturation_gap
            or high_sat < self.config.min_saturation
        ):
            summary["skipped"] = "balanced"
            return summary
        try:
            candidates = source.candidates(
                self.config.max_moves * self.config.candidate_factor
            )
        except _SHARD_ERRORS:
            summary["skipped"] = "source unreachable"
            return summary
        for candidate in candidates:
            if summary["moved"] >= self.config.max_moves:
                break
            workflow_id = candidate["workflow_id"]
            summary["attempted"] += 1
            moved = self.migrate_workflow(workflow_id, source, dest)
            summary["moves"].append(
                {
                    "workflow_id": workflow_id,
                    "from": source.name,
                    "to": dest.name,
                    "moved": moved,
                }
            )
            if moved:
                summary["moved"] += 1
        return summary

    def migrate_workflow(self, workflow_id: str, source, dest) -> bool:
        """One two-phase handoff; True when the destination owns it."""
        self._epoch += 1
        epoch = self._epoch
        try:
            handoff = source.migrate_out(
                workflow_id, dest=dest.name, epoch=epoch
            )
        except (*_SHARD_ERRORS, ValueError):
            # Unknown, already started, or source gone: nothing moved.
            return False
        workflow, key = handoff["workflow"], handoff["key"]
        try:
            result = dest.migrate_in(workflow, key=key, epoch=epoch)
        except _SHARD_ERRORS:
            result = None
        if result is not None and result.accepted:
            self.router.record_placement(workflow_id, dest.name, epoch=epoch)
            self.obs.counter("rebalance.moved").inc()
            try:
                source.confirm(workflow_id, epoch=epoch)
            except _SHARD_ERRORS:
                pass  # tombstone stays; the next reconcile confirms it
            return True
        if result is not None:
            # Definitive rejection (e.g. infeasible on the destination's
            # slice): the workflow stays accepted on its source shard.
            self.obs.counter("rebalance.rejected").inc()
            try:
                source.restore(workflow, key=key)
                self.router.record_placement(workflow_id, source.name)
            except _SHARD_ERRORS:
                pass  # orphan; reconcile restores it
        else:
            # Transport failure: ownership unknown — do NOT restore (the
            # handoff may have landed).  Reconcile settles the orphan.
            self.obs.counter("rebalance.unsettled").inc()
        return False

    def _alive(self, shard) -> bool:
        # The router knows best: cached failure-detector verdict when one
        # is attached, inline probe otherwise.
        return self.router.shard_alive(shard)

    # -- background loop ---------------------------------------------------------

    def start(self, interval_s: float) -> "Rebalancer":
        """Run :meth:`cycle` every *interval_s* seconds on a daemon thread."""
        self._loop.start(interval_s)
        return self

    def stop(self) -> None:
        self._loop.stop()
