"""Independent verification subsystem (docs/VERIFICATION.md).

Re-derives scheduler correctness from raw outputs with no code shared with
the planner: one checker whose invariants and metric recomputation are
written once over a :class:`TraceIndex`, with two fronts —
:meth:`ScheduleValidator.validate` over simulation results and
:func:`validate_trace` / :func:`recompute_trace_metrics` over JSONL event
streams — a brute-force differential oracle for tiny instances
(:mod:`repro.verify.oracle`), a seeded fuzz harness driving the batch,
degraded, and journal-replay paths (:mod:`repro.verify.fuzz`), the golden-trace corpus tooling
(:mod:`repro.verify.golden`), and the cross-shard conservation check for
sharded deployments (:mod:`repro.verify.cross_shard`).
"""

from repro.verify.cross_shard import check_cross_shard_conservation
from repro.verify.validator import (
    ScheduleValidator,
    TraceIndex,
    VerificationError,
    VerificationReport,
    Violation,
    recompute_trace_metrics,
    validate_trace,
)

__all__ = [
    "ScheduleValidator",
    "TraceIndex",
    "VerificationError",
    "VerificationReport",
    "Violation",
    "check_cross_shard_conservation",
    "recompute_trace_metrics",
    "validate_trace",
]
