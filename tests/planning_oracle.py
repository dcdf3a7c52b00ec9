"""The cold ladder as a test-only oracle, and the planner's two ablations.

The product planner always memoises: a fingerprint-keyed plan cache and
the previous solve's skyline as a warm hint, with no switch.  What it is
held to lives here, applied from outside:

* :func:`cold_planning` — every ``FlowTimePlanner.plan`` answers each
  request on a fresh planner of the same config: no cache hit and no
  skyline hint, the cold ladder;
* :class:`MissOnlyCache` / :func:`hint_only` — a plan cache whose ``get``
  always misses: the skyline hint without the cache.

``benchmarks/bench_plan_latency.py`` builds its ``cold`` and ``no-cache``
modes from these too.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.core import flowtime
from repro.core.flowtime import FlowTimePlanner
from repro.core.replan import PlanCache


@contextmanager
def cold_planning():
    """Inside, each ``FlowTimePlanner.plan`` is answered by a fresh planner
    of the caller's config; the caller's cache and skyline are untouched."""
    plan = FlowTimePlanner.plan

    def cold(self, request):
        return plan(FlowTimePlanner(self.config), request)

    with mock.patch.object(FlowTimePlanner, "plan", cold):
        yield


class MissOnlyCache(PlanCache):
    """A plan cache whose ``get`` always misses: a planner holding one
    plans with the skyline warm hint but never reuses a plan."""

    def get(self, key):
        self.misses += 1
        return None


def hint_only():
    """Inside, every new planner holds a :class:`MissOnlyCache`."""
    return mock.patch.object(flowtime, "PlanCache", MissOnlyCache)
