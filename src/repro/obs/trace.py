"""Structured trace emission: JSON-lines event sinks.

A trace is a flat stream of dict events — one JSON object per line when
written to disk — mirroring what the simulator and the algorithm layers
did: job arrivals, readiness transitions, task placements, preemptions,
completions, deadline misses, admission decisions, failure injections.

Every event carries at least ``ts`` (wall-clock seconds), ``seq`` (a
per-sink monotonic sequence number, so interleaved readers can re-order)
and ``type`` (one of :data:`EVENT_TYPES` for engine-emitted events; other
layers may add their own).  Everything else is event-specific payload.

Sinks are tiny and injectable:

* :class:`NullSink` — the default; ``enabled`` is False so emitting layers
  can skip building payload dicts entirely.
* :class:`MemorySink` — collects events in a list (tests, notebooks).
* :class:`JsonlSink` — appends JSON lines to a file.

``read_trace`` parses a JSONL file back into event dicts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Iterable

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "TraceSink",
    "read_trace",
]

#: Required payload fields per event type — the trace schema contract.
#: Every event type emitted anywhere in the stack MUST be declared here
#: with the fields a consumer may rely on (events may carry more, e.g. the
#: optional ``request_id`` correlation stamp and ``workflow_id`` on job
#: events).  tests/test_trace_schema.py enforces both directions: every
#: emission site uses a declared type, and every emitted event carries its
#: type's required fields — schema drift fails CI instead of silently
#: breaking downstream consumers.
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    # engine lifecycle
    "run_start": ("scheduler", "n_jobs", "n_workflows", "slot_seconds"),
    "run_end": ("n_slots", "finished"),
    # engine-emitted workload events
    "workflow_arrived": ("slot", "workflow_id"),
    "job_arrived": ("slot", "job_id"),
    "job_ready": ("slot", "job_id", "workflow_id"),
    "task_placement": ("slot", "job_id", "units"),
    "job_preempted": ("slot", "job_id"),
    "job_completed": ("slot", "job_id"),
    "job_setback": ("slot", "job_id", "lost_units"),
    "workflow_completed": ("slot", "workflow_id"),
    "workflow_withdrawn": ("slot", "workflow_id"),
    "workflow_deadline_miss": ("slot", "workflow_id", "deadline_slot"),
    # admission control
    "admission_accept": ("workflow_id", "slot", "utilisation", "route"),
    "admission_reject": (
        "workflow_id", "slot", "shortfall_units", "utilisation", "route"
    ),
    # planner degradation
    "plan_fallback": ("slot", "reason", "backend"),
    "plan_recovered": ("slot",),
    # service lifecycle
    "service_start": ("scheduler", "realtime"),
    "service_stop": ("slot", "killed"),
    "service_drain_start": ("slot",),
    "service_recovered": ("journal", "n_recovered", "n_skipped"),
    # cluster supervision (failure detector + supervisor)
    "shard_state_changed": ("shard", "was", "now"),
    "shard_restarted": ("shard",),
    "shard_failed_over": ("shard", "n_rehomed", "n_unplaced"),
    "shard_fenced": ("shard", "n_fenced"),
    # opt-in per-phase span records (Observability(trace_spans=True))
    "span": ("name", "seconds"),
}

#: Event types the instrumented stack emits (see docs/OBSERVABILITY.md for
#: each type's payload fields).  Other layers may emit additional types;
#: consumers should ignore types they do not know.
EVENT_TYPES: tuple[str, ...] = tuple(EVENT_SCHEMA)


class TraceSink:
    """Base sink: receives event dicts; subclasses decide where they go."""

    #: False only for :class:`NullSink`; emitters consult this to skip all
    #: trace work (payload construction included) on the disabled path.
    enabled: bool = True

    def __init__(self) -> None:
        self._seq = 0

    def emit(self, event: dict) -> None:
        """Stamp ``ts``/``seq`` (when absent) and hand off to ``write``."""
        event.setdefault("ts", time.time())
        event["seq"] = self._seq
        self._seq += 1
        self.write(event)

    def write(self, event: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def flush(self) -> None:
        """Force buffered events to their destination (default: no-op)."""

    @property
    def n_events(self) -> int:
        return self._seq

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(TraceSink):
    """The disabled sink: emitting is a no-op and ``enabled`` is False."""

    enabled = False

    def emit(self, event: dict) -> None:  # pragma: no cover - trivial
        pass

    def write(self, event: dict) -> None:  # pragma: no cover - trivial
        pass


class MemorySink(TraceSink):
    """Collects events in ``self.events`` (tests and interactive use)."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def of_type(self, event_type: str) -> list[dict]:
        return [e for e in self.events if e.get("type") == event_type]


class JsonlSink(TraceSink):
    """Appends one JSON object per line to *path* (created/truncated).

    With ``max_bytes`` set the file is size-capped: when the next line
    would push past the cap, the current file rotates to ``path.1`` (older
    generations shift to ``path.2`` ... ``path.<backups>``, the oldest is
    dropped) and writing restarts on a fresh file.  A long-running
    ``repro serve --trace-out ... --trace-rotate-mb N`` therefore occupies
    at most ``(backups + 1) * max_bytes`` on disk instead of filling it.
    Sequence numbers keep counting across rotations, so readers stitching
    generations back together can re-order and detect gaps.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        max_bytes: int | None = None,
        backups: int = 3,
    ):
        super().__init__()
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self.rotations = 0
        self._bytes = 0
        self._file: IO[str] | None = self.path.open("w")

    def write(self, event: dict) -> None:
        if self._file is None:
            raise ValueError(f"trace sink for {self.path} is closed")
        line = json.dumps(event, separators=(",", ":"), default=str) + "\n"
        if (
            self.max_bytes is not None
            and self._bytes > 0
            and self._bytes + len(line) > self.max_bytes
        ):
            self._rotate()
        self._file.write(line)
        self._bytes += len(line)

    def _rotate(self) -> None:
        """Shift path -> path.1 -> ... -> path.<backups>; reopen fresh."""
        assert self._file is not None
        self._file.close()
        if self.backups > 0:
            oldest = self.path.with_name(f"{self.path.name}.{self.backups}")
            oldest.unlink(missing_ok=True)
            for i in range(self.backups - 1, 0, -1):
                src = self.path.with_name(f"{self.path.name}.{i}")
                if src.exists():
                    src.rename(self.path.with_name(f"{self.path.name}.{i + 1}"))
            self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        self._file = self.path.open("w")
        self._bytes = 0
        self.rotations += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file back into a list of event dicts."""
    events = []
    with Path(path).open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_no}: malformed trace line: {error}"
                ) from None
    return events


def count_by_type(events: Iterable[dict]) -> dict[str, int]:
    """Event-type histogram of a parsed trace (reporting convenience)."""
    counts: dict[str, int] = {}
    for event in events:
        kind = event.get("type", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return counts
