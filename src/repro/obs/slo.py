"""SLO tracking: deadline-miss error budget and decide-latency objective.

A FlowTime deployment promises two things its operators can page on:

1. **Deadline SLO** — at least ``deadline_objective`` of admitted
   workflows finish by their deadline (the paper's headline guarantee:
   admission control exists precisely so this holds).  The complement,
   ``1 - objective``, is the *error budget*; the **burn rate** is how fast
   the last window is spending it (observed miss rate / allowed miss
   rate).  Burn rate 1.0 = spending exactly on budget; sustained > 1.0 =
   the SLO will be violated; SRE practice pages on high burn (e.g. > 10).
2. **Decide-latency SLO** — the per-slot scheduling decision p99 stays
   under ``decide_p99_s``.  A scheduler that can't decide inside a slot
   is a scheduler that falls behind real time.

:class:`SLOTracker` is a pure *reader*: the engine writes the windowed
metrics (``slo.workflows.total`` / ``slo.workflows.missed`` counters,
``slo.decide.seconds`` histogram) at the source, and the tracker computes
budget arithmetic at query time (``GET /slo``, ``repro top``,
``repro run --metrics``).  It holds no state of its own, so batch and service runs
get identical SLO math from the same registry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.windowed import WindowedCounter, WindowedHistogram

__all__ = [
    "DECIDE_LATENCY_METRIC",
    "SLOConfig",
    "SLOTracker",
    "WORKFLOWS_MISSED_METRIC",
    "WORKFLOWS_TOTAL_METRIC",
]

#: Registry names of the SLO feed metrics (written by the engine).
WORKFLOWS_TOTAL_METRIC = "slo.workflows.total"
WORKFLOWS_MISSED_METRIC = "slo.workflows.missed"
DECIDE_LATENCY_METRIC = "slo.decide.seconds"


@dataclass(frozen=True)
class SLOConfig:
    """The two service-level objectives and the evaluation window; each
    field's ``help`` says what it is."""

    deadline_objective: float = field(default=0.99, metadata={
        "flag": "--slo-objective", "metavar": "FRACTION",
        "help": "fraction of admitted workflows that must meet their deadline",
    })
    decide_p99_s: float = field(default=1.0, metadata={
        "flag": "--slo-decide-p99", "metavar": "SECONDS",
        "help": "per-slot decide-latency p99 ceiling",
    })
    window_s: float = field(default=300.0, metadata={
        "flag": "--slo-window", "metavar": "SECONDS",
        "help": "rolling SLO evaluation window (burn rate, rolling p99)",
    })

    def __post_init__(self) -> None:
        if not 0.0 < self.deadline_objective < 1.0:
            raise ValueError(
                f"deadline_objective must be in (0, 1), got "
                f"{self.deadline_objective}"
            )
        if self.decide_p99_s <= 0:
            raise ValueError(
                f"decide_p99_s must be > 0, got {self.decide_p99_s}"
            )
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")

    def to_dict(self) -> dict:
        return asdict(self)


class SLOTracker:
    """Compute SLO status from the windowed metrics the engine feeds.

    All reads are best-effort: before any workflow has completed, rates
    and burn are reported as ``None`` (unknown) rather than 0 (falsely
    healthy) or NaN (not JSON).
    """

    def __init__(self, registry: MetricsRegistry, config: SLOConfig | None = None):
        self.registry = registry
        self.config = config or SLOConfig()

    # -- metric access ------------------------------------------------------------

    def _windowed_counter(self, name: str) -> WindowedCounter | None:
        metric = self.registry.get(name)
        return metric if isinstance(metric, WindowedCounter) else None

    def _windowed_histogram(self, name: str) -> WindowedHistogram | None:
        metric = self.registry.get(name)
        return metric if isinstance(metric, WindowedHistogram) else None

    # -- deadline SLO --------------------------------------------------------------

    def deadline_status(self) -> dict:
        """Error-budget arithmetic for the deadline objective.

        Keys: ``objective``, all-time ``total``/``missed``/``compliance``/
        ``budget_remaining`` (fraction of the all-time budget left, may go
        negative), and windowed ``window_total``/``window_missed``/
        ``burn_rate`` over ``config.window_s``.
        """
        total_c = self._windowed_counter(WORKFLOWS_TOTAL_METRIC)
        missed_c = self._windowed_counter(WORKFLOWS_MISSED_METRIC)
        total = total_c.value if total_c is not None else 0.0
        missed = missed_c.value if missed_c is not None else 0.0
        budget = 1.0 - self.config.deadline_objective
        compliance = None
        budget_remaining = None
        if total > 0:
            compliance = 1.0 - missed / total
            budget_remaining = 1.0 - (missed / total) / budget
        window = self.config.window_s
        window_total = total_c.delta(window) if total_c is not None else 0.0
        window_missed = missed_c.delta(window) if missed_c is not None else 0.0
        burn_rate = None
        if window_total > 0:
            burn_rate = (window_missed / window_total) / budget
        return {
            "objective": self.config.deadline_objective,
            "total": total,
            "missed": missed,
            "compliance": compliance,
            "budget_remaining": budget_remaining,
            "window_s": window,
            "window_total": window_total,
            "window_missed": window_missed,
            "burn_rate": burn_rate,
        }

    # -- decide-latency SLO --------------------------------------------------------

    def decide_latency_status(self) -> dict:
        """Rolling decide-latency p99 against the configured ceiling."""
        hist = self._windowed_histogram(DECIDE_LATENCY_METRIC)
        p99 = None
        window_count = 0
        if hist is not None:
            window = min(self.config.window_s, hist.window_s)
            window_count = hist.window_count(window)
            value = hist.quantile(0.99, window)
            if not math.isnan(value):
                p99 = value
        return {
            "objective_p99_s": self.config.decide_p99_s,
            "p99_s": p99,
            "window_count": window_count,
            "ok": None if p99 is None else p99 <= self.config.decide_p99_s,
        }

    # -- combined ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The full SLO view served at ``GET /slo`` and shown by ``repro top``."""
        deadline = self.deadline_status()
        decide = self.decide_latency_status()
        deadline_ok = None
        if deadline["compliance"] is not None:
            deadline_ok = (
                deadline["compliance"] >= self.config.deadline_objective
            )
        healthy = None
        known = [ok for ok in (deadline_ok, decide["ok"]) if ok is not None]
        if known:
            healthy = all(known)
        return {
            "config": self.config.to_dict(),
            "deadline": {**deadline, "ok": deadline_ok},
            "decide_latency": decide,
            "healthy": healthy,
        }
