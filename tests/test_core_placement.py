"""The placement kernel's window rule, pinned.

``entries_from_demands`` replaced two hand-written loops — the planner's
``_entry_for`` (repairing) and admission's ``_admission_entries`` (not) —
so the windows below are literal tables computed from those two functions
at the commit that deleted them.  The routes of ``max_placement`` are
tested against each other in ``tests/test_core_admission.py``.
"""

import numpy as np
import pytest

from repro.core.decomposition_types import JobWindow
from repro.core.lp_formulation import ScheduleEntry
from repro.core.placement import DemandTable, JobDemand, demand_row, entries_from_demands
from repro.model.job import TaskSpec
from repro.model.resources import ResourceVector

#: name: (release_slot, deadline_slot, units, max_parallel)
DEMANDS = {
    "roomy": (2, 20, 12, 4),
    "started": (0, 14, 6, 3),  # released before `now`
    "exact-fit": (5, 14, 12, 4),  # shaved by 6 it holds exactly its 3 slots
    "unshavable": (5, 13, 12, 4),  # one slot too short to shave
    "too-tight": (6, 8, 12, 4),  # smaller than its own work
    "overdue": (0, 3, 5, 5),  # due before `now`
    "due-now": (1, 4, 7, 2),  # due at `now`, four slots of work left
    "future": (30, 40, 8, 8),
}

#: (now_slot, slack, repair) -> (release, deadline) per demand, in order.
WINDOWS = {
    (4, 6, True): [(0, 10), (0, 4), (1, 4), (1, 9), (2, 5), (0, 1), (0, 4), (26, 30)],
    (4, 0, True): [(0, 16), (0, 10), (1, 10), (1, 9), (2, 5), (0, 1), (0, 4), (26, 36)],
    (0, 6, True): [(2, 14), (0, 8), (5, 8), (5, 13), (6, 9), (0, 3), (1, 5), (30, 34)],
    (4, 6, False): [(0, 10), (0, 4), (1, 4), (1, 3), (2, 4), (0, 1), (0, 1), (26, 30)],
    (4, 0, False): [(0, 16), (0, 10), (1, 10), (1, 9), (2, 4), (0, 1), (0, 1), (26, 36)],
    (0, 6, False): [(2, 14), (0, 8), (5, 8), (5, 7), (6, 8), (0, 3), (1, 4), (30, 34)],
}


def demands():
    demand = ResourceVector(cpu=1, mem=2)
    return [
        JobDemand(name, release, deadline, units, demand, parallel)
        for name, (release, deadline, units, parallel) in DEMANDS.items()
    ]


@pytest.mark.parametrize("now_slot, slack, repair", sorted(WINDOWS))
def test_windows_are_the_ones_both_callers_used(now_slot, slack, repair):
    entries = entries_from_demands(demands(), now_slot, slack, repair=repair)
    assert [e.job_id for e in entries] == list(DEMANDS)
    assert [(e.release, e.deadline) for e in entries] == WINDOWS[now_slot, slack, repair]
    for entry, demand in zip(entries, demands()):
        assert (entry.units, entry.unit_demand, entry.max_parallel) == (
            demand.units,
            demand.unit_demand,
            demand.max_parallel,
        )


@pytest.mark.parametrize("now_slot, slack, repair", sorted(WINDOWS))
def test_the_rule_is_written_on_the_columns(now_slot, slack, repair):
    """The same literal tables, read off the windowed table's arrays: the
    object form above is this, converted at the door and back."""
    table = DemandTable.of(demands())
    windowed = table.windowed(now_slot, slack, repair=repair)
    assert windowed.job_ids == tuple(DEMANDS)
    assert (
        list(zip(windowed.release.tolist(), windowed.deadline.tolist()))
        == WINDOWS[now_slot, slack, repair]
    )
    for column in ("units", "parallel", "vector"):
        assert np.array_equal(getattr(windowed, column), getattr(table, column))
    assert windowed.vectors == table.vectors == {ResourceVector(cpu=1, mem=2): 0}
    assert windowed.rows(ScheduleEntry) == entries_from_demands(
        demands(), now_slot, slack, repair=repair
    )
    assert table.rows(JobDemand) == demands()  # the door, there and back


def test_a_table_grows_by_rows_and_numbers_vectors_as_first_seen():
    small, big = ResourceVector(cpu=1, mem=2), ResourceVector(cpu=2, mem=8)
    table = DemandTable.of([JobDemand("a", 0, 9, 4, big, 2)])
    longer = table.extended(
        [
            demand_row(JobWindow("b", 3, 7), TaskSpec(3, 2, small), 6),
            ("c", 1, 5, 2, big, 1),
        ]
    )
    assert table.job_ids == ("a",) and table.vectors == {big: 0}  # never changed
    assert longer.job_ids == ("a", "b", "c")
    assert longer.vectors == {big: 0, small: 1}
    assert longer.vector.tolist() == [0, 1, 0]
    assert longer.units.tolist() == [4, 6, 2] and longer.parallel.tolist() == [2, 3, 1]
    assert longer.demand(("cpu", "mem", "gpu")).tolist() == [[2, 8, 0], [1, 2, 0], [2, 8, 0]]
    assert longer.extended([]) is longer
    assert DemandTable.of(longer) is longer


def test_repair_only_ever_widens_a_window():
    for (now_slot, slack, repair), windows in WINDOWS.items():
        if repair:
            bare = WINDOWS[now_slot, slack, False]
            assert all(r == b and d >= e for (r, d), (b, e) in zip(windows, bare))


def test_demand_in_window_takes_identity_and_window_from_the_window():
    tasks = TaskSpec(count=4, duration_slots=3, demand=ResourceVector(cpu=2, mem=3))
    demand = JobDemand.in_window(JobWindow("w-j1", 5, 11), tasks, 7)
    assert demand == JobDemand("w-j1", 5, 11, 7, ResourceVector(cpu=2, mem=3), 4)
    assert demand.min_slots_needed() == 2
