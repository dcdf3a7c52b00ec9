"""Tests for the admission-control extension."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import placement
from repro.core.admission import check_admission
from repro.core.decomposition import decompose_deadline
from repro.core.placement import (
    DemandTable,
    JobDemand,
    PlannerConfig,
    binding_resource,
    caps_array,
    entries_from_demands,
    max_placement,
)
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, TaskSpec
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow
from repro.workloads.dag_generators import chain_workflow, fork_join_workflow


@pytest.fixture
def cluster():
    return ClusterCapacity.uniform(cpu=16, mem=32)


def existing(job_id="busy", release=0, deadline=20, units=40, cores=2, mem=4, parallel=8):
    return JobDemand(
        job_id=job_id,
        release_slot=release,
        deadline_slot=deadline,
        units=units,
        unit_demand=ResourceVector({"cpu": cores, "mem": mem}),
        max_parallel=parallel,
    )


class TestAdmit:
    def test_empty_cluster_admits_loose_workflow(self, cluster):
        wf = chain_workflow("w", 2, 0, 100)
        decision = check_admission(wf, [], cluster, now_slot=0)
        assert decision.admit
        assert decision.total_shortfall == 0
        assert 0.0 < decision.utilisation <= 1.0

    def test_headroom_reported(self, cluster):
        wf = chain_workflow("w", 2, 0, 400)
        loose = check_admission(wf, [], cluster, now_slot=0)
        tight = check_admission(chain_workflow("w", 2, 0, 30), [], cluster, 0)
        assert loose.admit and tight.admit
        # Max-placement packs greedily in both cases; what differs is that
        # the looser workflow keeps feasibility with more commitments.
        assert loose.utilisation <= 1.0 and tight.utilisation <= 1.0

    def test_admits_alongside_light_commitments(self, cluster):
        wf = chain_workflow("w", 2, 0, 200)
        decision = check_admission(
            wf, [existing(units=10, deadline=100)], cluster, 0
        )
        assert decision.admit


class TestReject:
    def test_rejects_over_committed_cluster(self, cluster):
        # Existing work saturates the cluster through slot 20; the new
        # workflow wants everything done by slot 12.
        commitments = [
            existing(job_id=f"busy{i}", units=80, deadline=20, parallel=8)
            for i in range(2)
        ]
        wf = fork_join_workflow("w", 4, 0, 12)
        decision = check_admission(wf, commitments, cluster, 0)
        assert not decision.admit
        assert decision.total_shortfall > 0
        assert all(units > 0 for units in decision.shortfall_units.values())

    def test_impossible_window_rejected_alone(self, cluster):
        # 6 jobs of default spec in a 4-slot window cannot fit even alone.
        wf = fork_join_workflow("w", 8, 0, 4)
        decision = check_admission(wf, [], cluster, 0)
        assert not decision.admit

    def test_shortfall_names_real_jobs(self, cluster):
        commitments = [existing(units=120, deadline=15, parallel=8)]
        wf = fork_join_workflow("w", 6, 0, 10)
        decision = check_admission(wf, commitments, cluster, 0)
        if not decision.admit:
            known = {f"w-j{i}" for i in range(8)} | {"busy"}
            assert set(decision.shortfall_units) <= known


class TestConfig:
    def test_slack_makes_admission_stricter(self, cluster):
        wf = fork_join_workflow("w", 4, 0, 16)
        no_slack = check_admission(
            wf, [], cluster, 0, config=PlannerConfig(slack_slots=0)
        )
        big_slack = check_admission(
            wf, [], cluster, 0, config=PlannerConfig(slack_slots=6)
        )
        # Tightening every window by the slack can only reduce placements.
        assert big_slack.total_shortfall >= no_slack.total_shortfall


class TestPerJobInfeasibility:
    def test_single_job_window_too_small_is_rejected(self, cluster):
        """A job whose own window cannot hold its work (even alone on the
        cluster) must be rejected — admission never repairs windows."""
        job = Job(
            job_id="w-big",
            tasks=TaskSpec(
                count=2, duration_slots=10, demand=ResourceVector(cpu=2, mem=4)
            ),
            workflow_id="w",
        )
        # Serial length is 10 slots; window is 5.
        wf = Workflow.from_jobs("w", [job], [], 0, 5)
        decision = check_admission(
            wf, [], cluster, 0, config=PlannerConfig(slack_slots=0)
        )
        assert not decision.admit
        assert decision.shortfall_units.get("w-big", 0) > 0


class TestSlackShaveIsNotMonotone:
    """Known defect, pinned not fixed (ROADMAP item 4(a), docs/ROBUSTNESS.md).

    Admission shaves the slack off every window that stays non-empty, the
    planner only off windows that still hold their work, so on an empty
    cluster a longer deadline can turn an accept into a reject.  The fix is
    ``repair=False`` shaving like ``repair=True`` in ``entries_from_demands``;
    it moves frozen ``admit-fill`` numbers, so it lands with a re-baseline.
    """

    capacity = ClusterCapacity.uniform(cpu=500, mem=1024)

    def workflow(self, deadline_slot):
        job = Job(
            job_id="w-j",
            tasks=TaskSpec(
                count=10, duration_slots=3, demand=ResourceVector(cpu=1, mem=2)
            ),
            workflow_id="w",
        )
        return Workflow.from_jobs("w", [job], [], 0, deadline_slot)

    def admitted(self, deadline_slot):
        return check_admission(self.workflow(deadline_slot), [], self.capacity, 0).admit

    @pytest.mark.xfail(
        strict=True,
        reason="admission shaves slack from windows the shave makes too small; "
        "fixing it moves admit-fill's frozen accept_share, so fix + re-baseline "
        "land together",
    )
    def test_a_longer_deadline_never_turns_accept_into_reject(self):
        assert self.admitted(4)
        assert self.admitted(7) and self.admitted(8)

    def test_todays_windows_and_verdicts(self):
        slack = PlannerConfig().slack_slots
        for deadline_slot, window, admit in (
            (4, (0, 4), True),  # too short to shave: keeps its 4 slots
            (7, (0, 1), False),  # shaved to 1 slot, needs 3
            (8, (0, 2), False),
            (9, (0, 3), True),  # shaved to exactly its work
        ):
            workflow = self.workflow(deadline_slot)
            windows = decompose_deadline(workflow, self.capacity).windows
            (entry,) = entries_from_demands(
                _demands_of(workflow, windows), 0, slack, repair=False
            )
            assert (entry.release, entry.deadline) == window, deadline_slot
            assert self.admitted(deadline_slot) == admit, deadline_slot


# -- the two routes -----------------------------------------------------------------
#
# max_placement answers by integer max-flow when one resource binds and by
# the max-placement LP otherwise.  The LP route (taken by hiding the binding
# resource from the kernel) is the reference the flow is tested against; an
# independent (networkx, pure-Python network) max-flow prices the deficit the
# flow route reports.


def _demands_of(workflow, windows):
    """A workflow's demands exactly as check_admission derives them."""
    return [
        JobDemand.in_window(
            windows[job.job_id], job.tasks, job.tasks.total_task_slots
        )
        for job in workflow.jobs
    ]


def _lp_reference(entries, capacity, now_slot):
    """The shortfalls of :func:`max_placement` made to take the LP route
    whatever binds."""
    caps = caps_array(capacity, now_slot, max(e.deadline for e in entries))
    with mock.patch.object(placement, "binding_resource", return_value=None):
        shortfalls, _, route = max_placement(
            entries, caps, capacity.resources, tag="test"
        )
    assert route == "lp"
    return shortfalls


def _brute_force_binding(entries, capacity, now_slot):
    """The binding predicate, evaluated over every (job, resource, slot)."""
    horizon = max(entry.deadline for entry in entries)
    for star in capacity.resources:
        if all(
            entry.unit_demand[star] > 0
            and entry.unit_demand[r] * capacity.amount(t, star)
            <= entry.unit_demand[star] * capacity.amount(t, r)
            for entry in entries
            for r in capacity.resources
            for t in range(now_slot, now_slot + horizon)
        ):
            return star
    return None


def _max_flow_deficit(entries, capacity, now_slot, star):
    """Total supply minus the max-flow value on *star*'s transportation
    network, built arc by arc and solved by networkx."""
    graph = nx.DiGraph()
    supply = 0
    for entry in entries:
        d = entry.unit_demand[star]
        supply += entry.units * d
        graph.add_edge("source", entry.job_id, capacity=entry.units * d)
        for t in range(entry.release, entry.deadline):
            graph.add_edge(
                entry.job_id, t, capacity=min(entry.max_parallel, entry.units) * d
            )
            graph.add_edge(t, "sink", capacity=capacity.amount(now_slot + t, star))
    return supply - nx.maximum_flow_value(graph, "source", "sink")


class TestHalfSlotShortfall:
    """Three 4 GB tasks in one slot of a 10 GB cluster.  The LP places 2.5
    of them; rounding the missing 0.5 to zero used to admit the job."""

    capacity = ClusterCapacity.uniform(cpu=16, mem=10)
    workflow = Workflow.from_jobs(
        "w",
        [
            Job(
                job_id="w-j",
                tasks=TaskSpec(
                    count=3, duration_slots=1, demand=ResourceVector(cpu=1, mem=4)
                ),
                workflow_id="w",
            )
        ],
        [],
        0,
        1,
    )

    def test_flow_route_rejects(self):
        decision = check_admission(
            self.workflow, [], self.capacity, 0, config=PlannerConfig(slack_slots=0)
        )
        assert decision.route == "flow"
        assert not decision.admit
        assert decision.shortfall_units == {"w-j": 1}

    def test_lp_route_rejects(self):
        windows = decompose_deadline(self.workflow, self.capacity).windows
        entries = entries_from_demands(
            _demands_of(self.workflow, windows), 0, 0, repair=False
        )
        assert _lp_reference(entries, self.capacity, 0) == {"w-j": 1}


#: (cpu, mem) per task.  Memory binds the first mix on a ratio-2 cluster;
#: the second straddles it, so no resource does.
_MEM_BOUND_MIX = [(1, 2), (1, 3), (2, 4), (1, 4)]
_STRADDLING_MIX = [(2, 2), (1, 4), (4, 2), (1, 2)]
#: Per-slot overrides: closed, halved (same ratio), memory-rich (the CPU
#: binds there instead), memory-poor.
_OVERRIDE_CAPS = [(0, 0), (4, 8), (2, 16), (8, 6)]


@st.composite
def admission_instances(draw):
    """(workflow, existing demands, capacity, now_slot, slack_slots)."""
    names = draw(st.sampled_from([("cpu",), ("cpu", "mem")]))
    mix = draw(st.sampled_from([_MEM_BOUND_MIX, _STRADDLING_MIX]))

    def vector(amounts):
        return ResourceVector(dict(zip(names, amounts)))

    capacity = ClusterCapacity(
        base=vector((8, 16)),
        overrides=draw(
            st.dictionaries(
                st.integers(0, 30),
                st.sampled_from(_OVERRIDE_CAPS).map(vector),
                max_size=3,
            )
        ),
    )
    now_slot = draw(st.integers(0, 6))
    existing = []
    for index in range(draw(st.integers(0, 5))):
        # Released before now_slot: a partly-run commitment.
        release = draw(st.integers(0, 20))
        existing.append(
            JobDemand(
                job_id=f"busy{index}",
                release_slot=release,
                deadline_slot=release + draw(st.integers(1, 12)),
                units=draw(st.integers(1, 24)),
                unit_demand=vector(draw(st.sampled_from(mix))),
                max_parallel=draw(st.integers(1, 6)),
            )
        )

    def spec(_index):
        return TaskSpec(
            count=draw(st.integers(1, 6)),
            duration_slots=draw(st.integers(1, 3)),
            demand=vector(draw(st.sampled_from(mix))),
        )

    shape = draw(st.sampled_from([chain_workflow, fork_join_workflow]))
    start = now_slot + draw(st.integers(0, 4))
    # Windows from hopeless (a job's own window too small) to generous.
    workflow = shape(
        "w", draw(st.integers(1, 3)), start, start + draw(st.integers(2, 30)), spec
    )
    return workflow, existing, capacity, now_slot, draw(st.sampled_from([0, 6]))


class TestFlowAgainstLp:
    @given(admission_instances())
    @settings(deadline=None, max_examples=200)
    def test_route_and_verdict(self, instance):
        workflow, existing, capacity, now_slot, slack = instance
        decision = check_admission(
            workflow,
            existing,
            capacity,
            now_slot,
            config=PlannerConfig(slack_slots=slack),
        )
        demands = existing + _demands_of(workflow, decision.windows)
        entries = entries_from_demands(demands, now_slot, slack, repair=False)
        star = _brute_force_binding(entries, capacity, now_slot)
        assert decision.route == ("lp" if star is None else "flow")
        assert (decision.total_shortfall > 0) == (not decision.admit)
        assert set(decision.shortfall_units) <= {d.job_id for d in demands}
        if star is None:
            return

        lp_shortfalls = _lp_reference(entries, capacity, now_slot)
        assert decision.admit == (not lp_shortfalls)
        # The reported task-slots are the flow's deficit, rounded up per job.
        per_unit = {e.job_id: e.unit_demand[star] for e in entries}
        short = decision.shortfall_units
        deficit = _max_flow_deficit(entries, capacity, now_slot, star)
        assert decision.admit == (deficit == 0)
        if deficit:
            assert (
                sum(units * per_unit[job] for job, units in short.items())
                >= deficit
                > sum((units - 1) * per_unit[job] for job, units in short.items())
            )
        assert 0.0 <= decision.utilisation <= 1.0

    @given(admission_instances(), st.booleans())
    @settings(deadline=None, max_examples=200)
    def test_kernel_routes_agree_where_a_resource_binds(self, instance, repair):
        """``max_placement`` by flow and by LP, on admission's windows and on
        the planner's repaired ones.  They agree on whether everything fits.
        On an over-full set they maximise different totals (the binding
        resource's units vs task-slots), so they agree on placed work only
        as far as that allows: each route's whole placed units are feasible
        for the other, hence bounded by the other's optimum."""
        workflow, existing, capacity, now_slot, slack = instance
        windows = decompose_deadline(workflow, capacity).windows
        entries = entries_from_demands(
            existing + _demands_of(workflow, windows), now_slot, slack, repair=repair
        )
        caps = caps_array(capacity, now_slot, max(e.deadline for e in entries))
        star = binding_resource(entries, caps, capacity.resources)
        assume(star is not None)
        star = capacity.resources[star]

        flow, _, route = max_placement(entries, caps, capacity.resources, tag="test")
        lp = _lp_reference(entries, capacity, now_slot)
        assert route == "flow"
        assert (not flow) == (not lp)

        def placed(shortfalls, weight):
            return sum(
                (e.units - shortfalls.get(e.job_id, 0)) * weight(e) for e in entries
            )

        supply = sum(e.units * e.unit_demand[star] for e in entries)
        flow_optimum = supply - _max_flow_deficit(entries, capacity, now_slot, star)
        assert placed(lp, lambda e: e.unit_demand[star]) <= flow_optimum
        # The LP's optimum is its whole units plus under one unit per short job.
        assert placed(flow, lambda e: 1) <= placed(lp, lambda e: 1) + len(lp)
        if len({e.unit_demand[star] for e in entries}) == 1:
            # One demand size: the two totals are one total, so the LP's
            # whole units trail the flow optimum by under a unit per short job.
            per_unit = entries[0].unit_demand[star]
            assert flow_optimum - placed(lp, lambda e: per_unit) < per_unit * max(
                len(lp), 1
            )


class TestTableAndObjectsAreOneInput:
    """``check_admission`` takes the committed set as the kernel's table
    (what ``ServiceState`` keeps) or as ``JobDemand`` objects (converted at
    the door): one kernel behind both, so one answer."""

    @given(admission_instances())
    @settings(deadline=None, max_examples=250)
    def test_same_decision_on_both_routes(self, instance):
        workflow, existing, capacity, now_slot, slack = instance
        config = PlannerConfig(slack_slots=slack)
        from_objects, from_table = (
            check_admission(workflow, committed, capacity, now_slot, config=config)
            for committed in (existing, DemandTable.of(existing))
        )
        assert from_table == from_objects  # admit, shortfalls, utilisation, windows, route
        assert from_table.route in ("flow", "lp")

    def test_the_generator_reaches_both_routes(self):
        routes = set()

        @given(admission_instances())
        @settings(deadline=None, max_examples=60, database=None, derandomize=True)
        def collect(instance):
            workflow, existing, capacity, now_slot, slack = instance
            routes.add(
                check_admission(workflow, DemandTable.of(existing), capacity, now_slot).route
            )

        collect()
        assert routes == {"flow", "lp"}

    def test_admit_fill_decisions_are_the_parent_commits(self):
        """Every decision on the benchmark's ``admit-fill`` stream (seed 1),
        recorded at the commit before the table existed."""
        from bench.workloads import AdmitFill
        from repro.service import ServiceConfig, ServiceState
        from repro.service import state as state_module

        golden = Path(__file__).parent / "golden" / "admit_fill_decisions.json"
        decisions = []

        def recording(workflow, *args, **kwargs):
            decision = check_admission(workflow, *args, **kwargs)
            decisions.append(
                {
                    "workflow_id": workflow.workflow_id,
                    "admit": decision.admit,
                    "shortfall_units": dict(decision.shortfall_units),
                    "utilisation": decision.utilisation,
                    "route": decision.route,
                }
            )
            return decision

        with tempfile.TemporaryDirectory(prefix="fill-") as tmp:
            cluster, submissions = AdmitFill(1, Path(tmp)).generate()
        state = ServiceState(cluster, ServiceConfig())
        with mock.patch.object(state_module, "check_admission", recording):
            for submission in submissions:
                kind = "workflow" if isinstance(submission, Workflow) else "adhoc"
                state.submit(kind, submission)
        assert decisions == json.loads(golden.read_text(encoding="utf-8"))
        assert len(decisions) == 64 and sum(d["admit"] for d in decisions) == 50


# -- property: sequential admission never over-commits ------------------------------
#
# The online service admits workflows one at a time, folding each accepted
# workflow's decomposed demands into the "existing" set for the next check.
# The safety property of that bookkeeping: whatever subset the sequential
# process accepts must still be *jointly* feasible — identical to having
# admitted the accepted set as a single batch.  If the accounting dropped or
# double-counted demands, a later joint check would certify a shortfall.

#: Task spec per route on the property's cpu=8 / mem=16 cluster: the default
#: ratio-2 spec binds (flow); a cpu-heavy beside a mem-heavy job does not.
_ROUTE_SPECS = {
    "flow": None,
    "lp": lambda index: TaskSpec(
        count=8,
        duration_slots=3,
        demand=ResourceVector(cpu=3, mem=2) if index % 2 else ResourceVector(cpu=1, mem=4),
    ),
}


@st.composite
def workflow_batches(draw):
    """A route, and 2-4 small workflows with windows from hopeless to
    generous whose admission checks take it."""
    route = draw(st.sampled_from(sorted(_ROUTE_SPECS)))
    k = draw(st.integers(min_value=2, max_value=4))
    workflows = []
    for i in range(k):
        shape = draw(st.sampled_from(["chain", "fork"]))
        # A single job has a single demand vector, so some resource binds.
        size = draw(st.integers(min_value=1 if route == "flow" else 2, max_value=3))
        window = draw(st.integers(min_value=3, max_value=40))
        make = chain_workflow if shape == "chain" else fork_join_workflow
        workflows.append(make(f"w{i}", size, 0, window, _ROUTE_SPECS[route]))
    return route, workflows


class TestSequentialAdmissionProperty:
    @given(workflow_batches())
    @settings(deadline=None, max_examples=50)
    def test_one_at_a_time_never_over_commits(self, batch):
        route, workflows = batch
        capacity = ClusterCapacity.uniform(cpu=8, mem=16)
        config = PlannerConfig(slack_slots=0)
        committed: list[JobDemand] = []
        accepted = []
        for workflow in workflows:
            decision = check_admission(
                workflow, committed, capacity, now_slot=0, config=config
            )
            assert decision.route == route
            if decision.admit:
                accepted.append(workflow)
                committed.extend(_demands_of(workflow, decision.windows))
        if not accepted:
            return
        # Joint feasibility of the accepted set, checked as one batch: the
        # first accepted workflow against everything else that got in.  One
        # max-placement over the union either places all work or refutes
        # the sequential bookkeeping.
        head = accepted[0]
        others = committed[len(head.jobs):]
        joint = check_admission(head, others, capacity, now_slot=0, config=config)
        assert joint.admit, (
            f"sequential admission over-committed: accepted "
            f"{[w.workflow_id for w in accepted]} but the batch check "
            f"certifies shortfall {dict(joint.shortfall_units)}"
        )
