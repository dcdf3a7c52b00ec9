"""Write-ahead submission journal: accepted work survives a crash.

The scheduler service is long-running; before this journal existed, a
process crash lost every accepted workflow and queued ad-hoc job.  The
journal is the durability layer:

* **Append-only JSONL.**  One JSON object per line, written the moment a
  submission is *accepted* (admitted workflow / queued ad-hoc job) and
  before the client sees the decision, then ``flush`` + ``os.fsync`` — a
  positive answer implies the submission is on disk (write-ahead
  semantics).  Rejected submissions are not journaled: they admitted
  nothing, so there is nothing to recover.
* **Public wire format.**  The ``entity`` payload of each record is exactly
  the trace wire format (:func:`repro.workloads.traces.workflow_to_dict` /
  :func:`~repro.workloads.traces.job_to_dict`) — the same bytes a client
  POSTs — so a journal can be inspected, replayed against another service,
  or even spliced into a trace file with standard tooling.
* **Idempotency keys.**  Each record carries the submission's idempotency
  key (when the client sent one); recovery restores the key set, so a
  client that never saw its pre-crash answer can retry the same key
  against the restarted service and get the original decision instead of
  a double admission.

Reading it back: :meth:`SubmissionJournal.read` parses the records
(submissions, plus the shard-migration kinds documented on
:class:`JournalRecord`), and :func:`fold` is the one place that says what
a sequence of them *means* — the shard's own recovery
(``ServiceState.recover``) and the supervisor's failover
(:mod:`repro.cluster.failover`) both read its result.  Execution progress
is not journaled: this is a submission log, not a state-machine
checkpoint.

Records are versioned (``"v": 1``); unknown versions and trailing
truncated lines (a crash mid-append) are skipped with a count, never a
crash.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Optional

from repro.model.job import Job
from repro.model.workflow import Workflow
from repro.workloads.traces import (
    job_from_dict,
    job_to_dict,
    workflow_from_dict,
    workflow_to_dict,
)

__all__ = [
    "JournalFold",
    "JournalRecord",
    "SubmissionJournal",
    "fold",
    "read_journal",
]

_VERSION = 1


@dataclass(frozen=True)
class JournalRecord:
    """One recovered journal entry.

    ``kind`` is one of:

    * ``workflow`` / ``adhoc`` — an accepted submission (``entity`` set);
    * ``migrate_out`` — this shard handed ``entity`` (a workflow) to shard
      ``dest`` under migration ``epoch``.  The full entity is embedded so
      an unconfirmed handoff can be restored after a crash without asking
      anyone;
    * ``migrate_confirm`` — the destination durably owns ``workflow_id``;
      the preceding ``migrate_out`` is settled.
    """

    kind: str  # "workflow" | "adhoc" | "migrate_out" | "migrate_confirm"
    key: Optional[str]  # idempotency key, if the client sent one
    entity: "Workflow | Job | None"
    ts: float
    dest: Optional[str] = None  # migrate_out: receiving shard name
    #: Migration epoch of a ``migrate_out`` / ``migrate_confirm``, and of a
    #: ``workflow`` record written for a handoff landing here (0 otherwise).
    epoch: int = 0
    workflow_id: Optional[str] = None  # migrate_confirm: settled workflow


class SubmissionJournal:
    """Append-only, fsync-on-accept JSONL journal of accepted submissions.

    Opened in append mode: restarting a service on an existing journal
    keeps the old records (they are what recovery replays) and appends new
    accepts after them.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: IO[str] = open(self.path, "a", encoding="utf-8")
        self.n_appended = 0

    # -- writing -----------------------------------------------------------------

    def append_workflow(
        self, workflow: Workflow, key: str | None = None, epoch: int = 0
    ) -> None:
        """An accepted workflow; *epoch* is set when it arrived by handoff,
        so the stale-epoch watermark it raised survives a restart."""
        extra = {"epoch": epoch} if epoch else {}
        self._append("workflow", workflow_to_dict(workflow), key, **extra)

    def append_adhoc(self, job: Job, key: str | None = None) -> None:
        self._append("adhoc", job_to_dict(job), key)

    def append_migrate_out(
        self,
        workflow: Workflow,
        *,
        dest: str,
        epoch: int,
        key: str | None = None,
    ) -> None:
        """Tombstone: *workflow* left this shard for *dest*.

        The full entity (and its idempotency key) is embedded, so an
        unconfirmed handoff survives a crash on this side: recovery holds
        it as an orphan until the coordinator either confirms the
        destination owns it or restores it here.
        """
        self._append(
            "migrate_out",
            workflow_to_dict(workflow),
            key,
            dest=dest,
            epoch=epoch,
        )

    def append_migrate_confirm(self, workflow_id: str, *, epoch: int) -> None:
        """Settle the matching ``migrate_out``: the destination owns it."""
        self._append(
            "migrate_confirm", None, None, workflow_id=workflow_id, epoch=epoch
        )

    def _append(
        self,
        kind: str,
        entity: dict | None,
        key: str | None,
        **extra,
    ) -> None:
        record = {
            "v": _VERSION,
            "type": kind,
            "key": key,
            "ts": time.time(),
            "entity": entity,
            **extra,
        }
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.n_appended += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "SubmissionJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -----------------------------------------------------------------

    @staticmethod
    def read(path: str | Path) -> tuple[list[JournalRecord], int]:
        """Parse a journal file into records.

        Returns ``(records, n_skipped)``: malformed lines (typically one
        truncated trailing line from a crash mid-append) and
        unknown-version records are skipped, not fatal — recovery must
        never be blocked by the tail of the very crash it recovers from.
        A missing file is simply an empty journal.
        """
        path = Path(path)
        if not path.exists():
            return [], 0
        records: list[JournalRecord] = []
        skipped = 0
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                    if raw.get("v") != _VERSION:
                        skipped += 1
                        continue
                    kind = raw["type"]
                    if kind in ("workflow", "migrate_out"):
                        entity = workflow_from_dict(raw["entity"])
                    elif kind == "adhoc":
                        entity = job_from_dict(raw["entity"])
                    elif kind == "migrate_confirm":
                        entity = None
                    else:
                        skipped += 1
                        continue
                    records.append(
                        JournalRecord(
                            kind=kind,
                            key=raw.get("key"),
                            entity=entity,
                            ts=float(raw.get("ts", 0.0)),
                            dest=raw.get("dest"),
                            epoch=int(raw.get("epoch", 0)),
                            workflow_id=raw.get("workflow_id"),
                        )
                    )
                except (KeyError, TypeError, ValueError):
                    skipped += 1
        return records, skipped


@dataclass(frozen=True)
class JournalFold:
    """What a journal means, with no engine attached (see :func:`fold`)."""

    #: Records to re-register, in order: every ad-hoc job's record, and per
    #: still-owned workflow its final ``workflow`` record, each placed
    #: where its id first appears.
    replay: list[JournalRecord]
    #: Unsettled handoffs: workflow id -> its unconfirmed ``migrate_out``.
    orphans: dict[str, JournalRecord]
    #: Every accepted idempotency key -> ``(kind, entity id)``, latest use
    #: last — also of workflows since handed off: the decision was made
    #: here, so a retry is answered here.
    keys: dict[str, tuple[str, str]]
    #: Highest migration epoch recorded per workflow id.
    epochs: dict[str, int]

    @property
    def owed_workflows(self) -> dict[str, JournalRecord]:
        """Workflow id -> record (entity + key) of everything the journal's
        shard still answers for: owned, or handed off but unconfirmed."""
        owned = {
            record.entity.workflow_id: record
            for record in self.replay
            if record.kind == "workflow"
        }
        return {**owned, **self.orphans}


def fold(records: Iterable[JournalRecord]) -> JournalFold:
    """Fold journal records, in order, into their final meaning.

    Per workflow the last ``workflow`` / ``migrate_out`` record decides: a
    ``workflow`` record owns it (a restore or a handoff back supersedes an
    earlier tombstone); a ``migrate_out`` leaves it an orphan — held for
    the router's reconcile, never re-admitted unilaterally, so a
    destination that did journal it cannot be duplicated; a
    ``migrate_confirm`` settles a pending tombstone (the workflow is
    gone) and, with none pending, nothing — as on the live shard.
    """
    # (kind, id) -> deciding record (None: confirmed away); dict order
    # keeps every entity at its first position.
    final: dict[tuple[str, str], Optional[JournalRecord]] = {}
    keys: dict[str, tuple[str, str]] = {}
    epochs: dict[str, int] = {}
    for record in records:
        if record.kind == "adhoc":
            ident = ("adhoc", record.entity.job_id)
            final.setdefault(ident, record)
        else:
            wid = record.workflow_id or record.entity.workflow_id
            ident = ("workflow", wid)
            pending = final.get(ident)
            if record.kind != "migrate_confirm":
                final[ident] = record
            elif pending is not None and pending.kind == "migrate_out":
                final[ident] = None
            if record.epoch > epochs.get(wid, 0):
                epochs[wid] = record.epoch
        if record.key is not None:
            keys.pop(record.key, None)
            keys[record.key] = ident
    decided = [record for record in final.values() if record is not None]
    return JournalFold(
        replay=[r for r in decided if r.kind != "migrate_out"],
        orphans={
            r.entity.workflow_id: r for r in decided if r.kind == "migrate_out"
        },
        keys=keys,
        epochs=epochs,
    )


def read_journal(path: str | Path) -> tuple[list[JournalRecord], int]:
    """Module-level alias for :meth:`SubmissionJournal.read`."""
    return SubmissionJournal.read(path)
