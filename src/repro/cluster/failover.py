"""Cluster supervision and failover: failure detector + shard supervisor.

The sharded fleet (docs/SHARDING.md) survives a *process restart* — each
shard replays its own journal — but until this module existed a shard
that stayed down simply stranded its committed deadline workflows.  Two
cooperating pieces close that gap (docs/ROBUSTNESS.md has the full
argument):

* :class:`FailureDetector` — a heartbeat prober with a
  ``live → suspect → dead`` state machine per shard.  One daemon thread
  probes every shard on a configurable interval; everyone else (router
  spill order, rebalancer, reconciler, ``/shards``) consults the
  *cached* verdict instead of re-probing inline, so one hung shard can
  no longer add a full client timeout to every submission.  A shard
  turns ``suspect`` after ``suspect_after`` consecutive failed probes
  and ``dead`` once the failure streak is older than ``dead_after_s``;
  any successful probe snaps it back to ``live``.  States are exported
  as ``cluster.shard.state.<name>`` gauges (0 live / 1 suspect /
  2 dead).

* :class:`Supervisor` — the repair daemon.  Dead in-process shards
  (:class:`~repro.service.core.SchedulerService`) are restarted on their
  own journal (ordinary crash recovery).  A shard that *stays* dead past
  ``failover_after_s`` has its committed workflows **re-homed**: the
  supervisor reads the dead shard's journal from disk, folds it with the
  function the shard's own recovery uses
  (:func:`repro.service.journal.fold`: confirmed migrations gone,
  unconfirmed tombstones included), and replays every still-owed workflow
  into surviving shards via the existing two-phase ``migrate_in`` —
  original idempotency keys pinned, admission re-run against the
  destination slice, placement map updated, all under a migration epoch
  greater than any the fleet has used.
  Should the dead shard later return (a *zombie* — its journal replay
  re-owns everything that was failed over), the supervisor fences it:
  each re-homed workflow the zombie still claims is withdrawn with a
  fresh ``migrate_out`` + ``confirm`` pair, so the zombie's journal
  durably records that ownership moved and the fleet never double-owns.

Both are deterministic and clock-injectable, so the state machine is
unit-testable without sleeping.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.periodic import PeriodicLoop
from repro.cluster.shards import _SHARD_ERRORS
from repro.obs import Observability
from repro.service.journal import SubmissionJournal, fold

__all__ = [
    "DetectorConfig",
    "FailureDetector",
    "LIVE",
    "SUSPECT",
    "DEAD",
    "Supervisor",
    "SupervisorConfig",
]

LIVE = "live"
SUSPECT = "suspect"
DEAD = "dead"

#: Gauge encoding of the detector states (``cluster.shard.state.*``).
STATE_VALUES = {LIVE: 0.0, SUSPECT: 1.0, DEAD: 2.0}


@dataclass(frozen=True)
class DetectorConfig:
    """Failure-detector policy knobs.

    Attributes:
        suspect_after: consecutive failed probes before ``live`` turns
            ``suspect`` (1 = suspect on the first miss).
        dead_after_s: once the current failure streak is at least this
            old, ``suspect`` (or ``live``, with sparse probes) turns
            ``dead`` — the point at which the fleet stops waiting.
    """

    probe_interval_s: float = field(default=1.0, metadata={
        "flag": "--probe-interval", "metavar": "SECONDS",
        "help": "failure-detector heartbeat period with --shards > 1",
    })
    suspect_after: int = 2
    dead_after_s: float = field(default=5.0, metadata={
        "flag": "--dead-after", "metavar": "SECONDS",
        "help": "how long a shard must fail probes before it is declared dead "
        "(and, with --failover, eligible for workflow re-homing)",
    })

    def __post_init__(self) -> None:
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be > 0")
        if self.suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if self.dead_after_s < 0:
            raise ValueError("dead_after_s must be >= 0")


class _Health:
    """Mutable probe record for one shard (guarded by the detector lock)."""

    __slots__ = (
        "state",
        "probed",
        "consecutive_failures",
        "first_failure_at",
        "dead_since",
        "last_probe_at",
        "queue_depth",
    )

    def __init__(self) -> None:
        self.state = LIVE
        self.probed = False
        self.consecutive_failures = 0
        self.first_failure_at: Optional[float] = None
        self.dead_since: Optional[float] = None
        self.last_probe_at: Optional[float] = None
        self.queue_depth: Optional[int] = None


class FailureDetector:
    """Caches a ``live``/``suspect``/``dead`` verdict per shard.

    The verdict is *advisory until the first probe*: callers should use
    :meth:`probed` (or the routers' built-in fallback) to distinguish
    "probed live" from "never looked".  ``clock`` is injectable so the
    grace-period arithmetic is unit-testable without sleeping.
    """

    def __init__(
        self,
        shards,
        config: DetectorConfig | None = None,
        *,
        obs: Observability | None = None,
        clock=time.monotonic,
    ):
        self.config = config or DetectorConfig()
        self.obs = obs if obs is not None else Observability()
        self._clock = clock
        self._shards = list(shards)
        self._health = {shard.name: _Health() for shard in self._shards}
        self._lock = threading.Lock()
        self._loop = PeriodicLoop(
            "detector", self.probe_all, self.obs,
            "cluster.detector.loop_errors", "repro-failure-detector",
        )

    # -- probing -----------------------------------------------------------------

    def probe_all(self) -> dict:
        """One probe pass over the fleet; returns ``{name: state}``."""
        states = {}
        for shard in self._shards:
            states[shard.name] = self.probe(shard)
        return states

    def probe(self, shard) -> str:
        """Probe one shard and fold the outcome into its state machine."""
        ok = False
        depth: Optional[int] = None
        try:
            ok = bool(shard.alive())
            if ok:
                # Last-known queue depth rides the same probe so the
                # router's spill order never has to ask inline.
                try:
                    depth = int(shard.queue_depth())
                except _SHARD_ERRORS:
                    depth = None
        except _SHARD_ERRORS:
            ok = False
        return self._record(shard.name, ok, depth)

    def _record(self, name: str, ok: bool, depth: Optional[int]) -> str:
        now = self._clock()
        with self._lock:
            health = self._health[name]
            health.probed = True
            health.last_probe_at = now
            previous = health.state
            if ok:
                health.state = LIVE
                health.consecutive_failures = 0
                health.first_failure_at = None
                health.dead_since = None
                if depth is not None:
                    health.queue_depth = depth
            else:
                health.consecutive_failures += 1
                if health.first_failure_at is None:
                    health.first_failure_at = now
                self.obs.counter("cluster.detector.probe_failures").inc()
                streak_age = now - health.first_failure_at
                if streak_age >= self.config.dead_after_s:
                    if health.state != DEAD:
                        health.state = DEAD
                        health.dead_since = now
                elif (
                    health.state == LIVE
                    and health.consecutive_failures
                    >= self.config.suspect_after
                ):
                    health.state = SUSPECT
            state = health.state
        if state != previous:
            self.obs.counter("cluster.detector.transitions").inc()
            self.obs.event(
                "shard_state_changed", shard=name, was=previous, now=state
            )
        self.obs.gauge(f"cluster.shard.state.{name}").set(STATE_VALUES[state])
        return state

    # -- cached verdicts ---------------------------------------------------------

    def state(self, name: str) -> str:
        with self._lock:
            return self._health[name].state

    def probed(self, name: str) -> bool:
        """True once at least one probe has run against *name*."""
        with self._lock:
            return self._health[name].probed

    def is_live(self, name: str) -> bool:
        """Usable for routing: ``live`` or ``suspect`` (not yet ``dead``)."""
        return self.state(name) != DEAD

    def dead_for(self, name: str) -> float:
        """Seconds since *name* was declared dead (0.0 while not dead)."""
        with self._lock:
            health = self._health[name]
            if health.state != DEAD or health.dead_since is None:
                return 0.0
            return max(self._clock() - health.dead_since, 0.0)

    def queue_depth_hint(self, name: str) -> Optional[int]:
        """Last-known ad-hoc queue depth (None before a successful probe)."""
        with self._lock:
            return self._health[name].queue_depth

    def force_state(self, name: str, state: str) -> None:
        """Operator/test override: pin a verdict without a probe."""
        if state not in STATE_VALUES:
            raise ValueError(f"unknown state {state!r}")
        now = self._clock()
        with self._lock:
            health = self._health[name]
            health.probed = True
            health.state = state
            health.dead_since = now if state == DEAD else None
            if state == LIVE:
                health.consecutive_failures = 0
                health.first_failure_at = None
        self.obs.gauge(f"cluster.shard.state.{name}").set(STATE_VALUES[state])

    def snapshot(self) -> dict[str, dict]:
        """JSON-friendly view of every shard's health record."""
        now = self._clock()
        with self._lock:
            return {
                name: {
                    "state": health.state,
                    "probed": health.probed,
                    "consecutive_failures": health.consecutive_failures,
                    "dead_for_s": (
                        round(now - health.dead_since, 3)
                        if health.dead_since is not None
                        else None
                    ),
                    "queue_depth": health.queue_depth,
                }
                for name, health in self._health.items()
            }

    # -- background loop ---------------------------------------------------------

    def start(self) -> "FailureDetector":
        """Probe once immediately, then every ``probe_interval_s``."""
        self._loop.start(self.config.probe_interval_s, immediately=True)
        return self

    def stop(self) -> None:
        self._loop.stop()


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision/repair policy knobs.

    Attributes:
        auto_restart: restart dead shards that expose ``restart()``
            (in-process services) as soon as the detector declares them
            dead; a restart fails while the service's loop is alive.
            Remote shards have external process supervisors; this daemon
            cannot fork them.
        failover_after_s: how long a shard must stay *dead* before its
            committed workflows are re-homed from its journal.  The
            grace period is what separates "blip, wait for restart"
            from "machine is gone, move the work".

    A shard the supervisor failed over that comes back live (a zombie) is
    always fenced: every re-homed workflow it still claims is withdrawn
    via ``migrate_out`` + ``confirm``, so its journal durably records the
    new owner.
    """

    auto_restart: bool = True
    failover_after_s: float = 5.0

    def __post_init__(self) -> None:
        if self.failover_after_s < 0:
            raise ValueError("failover_after_s must be >= 0")


class Supervisor:
    """Repairs the fleet: restart dead shards, re-home stranded work.

    One :meth:`cycle` is a full pass; :meth:`start` runs cycles on a
    daemon thread.  All decisions come from the detector's cached
    verdicts — the supervisor never probes inline.
    """

    def __init__(
        self,
        router,
        detector: FailureDetector,
        config: SupervisorConfig | None = None,
        *,
        rebalancer=None,
        obs: Observability | None = None,
    ):
        self.router = router
        self.detector = detector
        self.config = config or SupervisorConfig()
        self.rebalancer = rebalancer
        self.obs = obs if obs is not None else router.obs
        self._epoch = 0
        #: shard name -> {workflow id: failover epoch} — what we moved
        #: away from each dead shard; consumed by the fencing pass.
        self._failed_over: dict[str, dict[str, int]] = {}
        self._vetoed: set[str] = set()
        self._lock = threading.Lock()
        self._loop = PeriodicLoop(
            "supervisor", self.cycle, self.obs,
            "supervisor.cycle_errors", "repro-supervisor",
        )

    # -- epochs ------------------------------------------------------------------

    def _next_epoch(self) -> int:
        """Strictly greater than anything this fleet has stamped so far.

        Folding in the rebalancer's counter keeps supervisor handoffs
        epoch-monotonic with rebalance handoffs, so a zombie replaying a
        stale rebalance cannot outrank a failover (the shard-side
        ``stale_epoch`` guard compares these numbers).
        """
        floor = self.rebalancer.epoch if self.rebalancer is not None else 0
        with self._lock:
            self._epoch = max(self._epoch, floor) + 1
            return self._epoch

    # -- vetoes (operator runbook) -----------------------------------------------

    def veto(self, shard_name: str, vetoed: bool = True) -> None:
        """Exempt *shard_name* from automatic failover (operator: "it's
        coming back, don't move its work")."""
        with self._lock:
            if vetoed:
                self._vetoed.add(shard_name)
            else:
                self._vetoed.discard(shard_name)

    def vetoes(self) -> set[str]:
        with self._lock:
            return set(self._vetoed)

    # -- one pass ----------------------------------------------------------------

    def cycle(self) -> dict:
        """Restart / fail over / fence as the detector's verdicts demand."""
        summary: dict = {"restarted": [], "failed_over": {}, "fenced": {}}
        for shard in self.router.shards:
            name = shard.name
            state = self.detector.state(name)
            if state == DEAD:
                if name in self.vetoes():
                    continue
                if (
                    self.config.auto_restart
                    and hasattr(shard, "restart")
                    and self._restart(shard)
                ):
                    summary["restarted"].append(name)
                    continue
                if (
                    self.detector.dead_for(name)
                    >= self.config.failover_after_s
                ):
                    summary["failed_over"][name] = self.fail_over(shard)
            elif state == LIVE and name in self._failed_over:
                fenced = self.fence(shard)
                if fenced:
                    summary["fenced"][name] = fenced
        return summary

    def _restart(self, shard) -> bool:
        try:
            shard.restart()
        except Exception:
            self.obs.counter("supervisor.restart_failures").inc()
            return False
        self.obs.counter("supervisor.restarts").inc()
        # Re-probe immediately so the rest of this cycle (and the router)
        # sees the recovery without waiting a probe interval.
        self.detector.probe(shard)
        self.obs.event("shard_restarted", shard=shard.name)
        return True

    # -- failover ----------------------------------------------------------------

    def fail_over(self, shard, *, force: bool = False) -> dict:
        """Re-home the committed workflows of a dead shard from its journal.

        Safe to run repeatedly: workflows already owned by a live shard
        (a previous pass, a landed migration, or a rerouted resubmission)
        are only re-pinned in the placement map, never re-admitted — the
        original idempotency keys travel with every handoff, so even a
        concurrent duplicate delivery deduplicates at the destination.

        With ``force=True`` the detector verdict is not consulted (the
        operator's ``POST /failover`` path); the journal fold is the
        same either way.
        """
        out: dict = {
            "shard": shard.name,
            "rehomed": [],
            "already_owned": [],
            "unplaced": [],
        }
        if not force and self.detector.state(shard.name) != DEAD:
            out["skipped"] = "shard is not dead"
            return out
        journal_path = getattr(shard, "journal_path", None)
        if not journal_path:
            out["skipped"] = "no journal path known for shard"
            self.obs.counter("supervisor.failover.no_journal").inc()
            return out
        records, _ = SubmissionJournal.read(journal_path)
        # The same fold the shard's own recovery reads.  Unconfirmed
        # tombstones are owed too — the handoff may never have landed, and
        # if it did, the destination's idempotency key / owned check
        # dedupes.
        disposition = fold(records).owed_workflows
        if not disposition:
            return out
        survivors = [
            candidate
            for candidate in self.router.shards
            if candidate is not shard
            and self.detector.state(candidate.name) == LIVE
        ]
        if not survivors:
            out["skipped"] = "no live shards to fail over to"
            self.obs.counter("supervisor.failover.no_survivors").inc()
            return out
        self.obs.counter("supervisor.failover.runs").inc()
        for workflow_id, record in sorted(disposition.items()):
            owner = self._find_owner(workflow_id, survivors)
            if owner is not None:
                self.router.record_placement(workflow_id, owner.name)
                out["already_owned"].append(workflow_id)
                continue
            epoch = self._next_epoch()
            placed = self._place(
                workflow_id, record.entity, record.key, epoch, survivors
            )
            if placed is None:
                out["unplaced"].append(workflow_id)
                self.obs.counter("supervisor.failover.unplaced").inc()
                continue
            with self._lock:
                self._failed_over.setdefault(shard.name, {})[
                    workflow_id
                ] = epoch
            out["rehomed"].append(
                {"workflow_id": workflow_id, "to": placed.name, "epoch": epoch}
            )
            self.obs.counter("supervisor.failover.rehomed").inc()
        self.obs.event(
            "shard_failed_over",
            shard=shard.name,
            n_rehomed=len(out["rehomed"]),
            n_unplaced=len(out["unplaced"]),
        )
        return out

    def _find_owner(self, workflow_id: str, survivors):
        """The live shard that already owns *workflow_id*, if any."""
        # Placement map first (cheap, usually right), then every survivor
        # — failover is rare enough to afford the sweep, and guessing
        # wrong here is how duplicates happen.
        placed = self.router.placement_overrides.get(workflow_id)
        ordered = sorted(
            survivors, key=lambda shard: shard.name != placed
        )
        for candidate in ordered:
            try:
                if candidate.owns(workflow_id):
                    return candidate
            except _SHARD_ERRORS:
                continue
        return None

    def _place(self, workflow_id, workflow, key, epoch, survivors):
        """Admit *workflow* on some survivor; returns the shard or None.

        Candidate order is deterministic (hash-rotated over the live
        list) so repeated passes and independent supervisors converge on
        the same targets.
        """
        start = zlib.crc32(workflow_id.encode("utf-8")) % len(survivors)
        rotation = survivors[start:] + survivors[:start]
        for candidate in rotation:
            try:
                result = candidate.migrate_in(workflow, key=key, epoch=epoch)
            except _SHARD_ERRORS:
                continue
            if result.accepted:
                self.router.record_placement(
                    workflow_id, candidate.name, epoch=epoch
                )
                return candidate
        return None

    # -- zombie fencing ----------------------------------------------------------

    def fence(self, shard) -> list[str]:
        """Strip a returned zombie of workflows that were failed over.

        The zombie replayed its journal, so it honestly believes it owns
        everything the supervisor re-homed while it was dead.  For every
        such workflow the *new* owner still holds, the zombie gets a
        ``migrate_out`` (withdraw + tombstone) immediately settled by a
        ``confirm`` — its journal now durably records the handoff, so
        the next replay will not resurrect the claim.  If the new owner
        lost the workflow meanwhile, the zombie's copy is left alone:
        it is then the only owner, which is the safe outcome.
        """
        with self._lock:
            moved = dict(self._failed_over.get(shard.name, {}))
        fenced: list[str] = []
        for workflow_id in sorted(moved):
            owner_name = self.router.placement_overrides.get(workflow_id)
            if owner_name is None or owner_name == shard.name:
                fenced.append(workflow_id)  # nothing to strip
                continue
            try:
                owner = self.router.shard(owner_name)
                if not shard.owns(workflow_id):
                    fenced.append(workflow_id)
                    continue
                if not owner.owns(workflow_id):
                    continue  # new owner lost it: zombie keeps the work
                epoch = self._next_epoch()
                shard.migrate_out(workflow_id, dest=owner_name, epoch=epoch)
                shard.confirm(workflow_id, epoch=epoch)
                fenced.append(workflow_id)
                self.obs.counter("supervisor.fenced").inc()
            except (*_SHARD_ERRORS, ValueError, KeyError):
                continue  # retried on the next cycle
        if fenced:
            with self._lock:
                remaining = self._failed_over.get(shard.name)
                if remaining is not None:
                    for workflow_id in fenced:
                        remaining.pop(workflow_id, None)
                    if not remaining:
                        self._failed_over.pop(shard.name, None)
            self.obs.event(
                "shard_fenced", shard=shard.name, n_fenced=len(fenced)
            )
        return fenced

    # -- operator surface --------------------------------------------------------

    def force_failover(self, shard_name: str) -> dict:
        """Operator-forced failover regardless of the detector verdict."""
        return self.fail_over(self.router.shard(shard_name), force=True)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "vetoed": sorted(self._vetoed),
                "failed_over": {
                    name: sorted(moved)
                    for name, moved in self._failed_over.items()
                },
                "epoch": self._epoch,
            }

    # -- background loop ---------------------------------------------------------

    def start(self, interval_s: float) -> "Supervisor":
        self._loop.start(interval_s)
        return self

    def stop(self) -> None:
        self._loop.stop()
