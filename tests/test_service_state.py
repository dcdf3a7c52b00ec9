"""``ServiceState`` driven directly: no thread, no ``start()``, no sleep.

The shell (``SchedulerService``) only serialises calls onto one thread and
paces the clock, so everything the service *decides* is testable here as
plain method calls at whatever slot the test puts the clock.  The headline
property: a state recovered from its journal equals the state that wrote
it — the ledger has one writer per journaled fact and one fold of the
journal, shared with the supervisor's failover.
"""

import ast
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.service.state as state_module
from repro.cluster import FailureDetector, ShardRouter, Supervisor
from repro.cluster.failover import LIVE
from repro.core import lp_formulation, placement
from repro.core.placement import DemandTable, JobDemand, caps_array
from repro.estimation import ErrorModel
from repro.model.cluster import ClusterCapacity
from repro.model.job import JobKind
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow
from repro.service import ServiceConfig, ServiceState, SubmitResult
from repro.service.journal import JournalRecord, fold, read_journal
from tests.conftest import adhoc_job, deadline_job
from tests.test_engine_live_index import reference_committed_demands

CLUSTER = ClusterCapacity.uniform(cpu=16, mem=32)


def chain(wid: str, n: int = 2, deadline: int = 30, count: int = 4) -> Workflow:
    jobs = [deadline_job(f"{wid}-j{i}", wid, count=count) for i in range(n)]
    edges = [(f"{wid}-j{i}", f"{wid}-j{i + 1}") for i in range(n - 1)]
    return Workflow.from_jobs(wid, jobs, edges, 0, deadline)


#: A pool small enough that streams collide on ids and keys.  w4 fills the
#: cluster for 8 of its 9 slots (admitted only into an empty enough shard);
#: w5 needs 8 slots and has 6, so admission always rejects it.
WORKFLOWS = [chain(f"w{i}") for i in range(4)] + [
    chain("w4", deadline=9, count=16),
    chain("w5", deadline=6, count=16),
]
ADHOC = [adhoc_job(f"a{i}", arrival=0) for i in range(4)]
KEYS = [None, "k0", "k1", "k2", "k3"]


def config_for(journal: Path, **overrides) -> ServiceConfig:
    # FIFO: the ledger does not care who plans, and stepping stays cheap.
    overrides.setdefault("scheduler", "FIFO")
    return ServiceConfig(
        journal_path=str(journal), journal_fsync=False, **overrides
    )


class _DeadShard:
    """What the supervisor needs of a shard that will never answer."""

    name = "dead"

    def __init__(self, journal_path: str):
        self.journal_path = journal_path


class _Survivor:
    name = "survivor"

    def owns(self, workflow_id: str) -> bool:
        return False

    def migrate_in(self, workflow, *, key=None, epoch=0) -> SubmitResult:
        return SubmitResult(
            accepted=True, kind="workflow", id=workflow.workflow_id,
            reason="admitted",
        )


def failed_over_ids(journal: Path) -> set[str]:
    """Ids the real ``Supervisor.fail_over`` re-homes from *journal*."""
    shards = [_DeadShard(str(journal)), _Survivor()]
    detector = FailureDetector(shards)
    detector.force_state("survivor", LIVE)
    supervisor = Supervisor(ShardRouter(shards), detector)
    out = supervisor.fail_over(shards[0], force=True)
    assert not out["unplaced"] and not out["already_owned"]
    return {move["workflow_id"] for move in out["rehomed"]}


def apply(state: ServiceState, op: tuple) -> None:
    """One transition; protocol errors (unknown id, already started, no
    such orphan) are answers, not failures — they must change nothing."""
    kind = op[0]
    try:
        if kind == "workflow":
            state.submit("workflow", WORKFLOWS[op[1]], KEYS[op[2]])
        elif kind == "adhoc":
            state.submit("adhoc", ADHOC[op[1]], KEYS[op[2]])
        elif kind == "out":
            state.migrate_out(WORKFLOWS[op[1]].workflow_id, "s1", op[2])
        elif kind == "confirm":
            state.confirm(WORKFLOWS[op[1]].workflow_id, op[2])
        elif kind == "restore_orphan":
            state.restore_orphan(WORKFLOWS[op[1]].workflow_id)
        elif kind == "in":
            state.migrate_in(WORKFLOWS[op[1]], KEYS[op[2]], op[3])
        elif kind == "step":
            state.step()
        elif kind == "advance":
            state.advance(state.core.slot + op[1])
        elif kind == "restore":
            state.restore(WORKFLOWS[op[1]], KEYS[op[2]])
    except ValueError:
        pass


workflow_index = st.integers(0, len(WORKFLOWS) - 1)
key_index = st.integers(0, len(KEYS) - 1)
#: Small range: fresh, equal and stale epochs all occur against one id.
epoch = st.integers(1, 6)
operations = st.one_of(
    st.tuples(st.just("workflow"), workflow_index, key_index),
    st.tuples(st.just("adhoc"), st.integers(0, len(ADHOC) - 1), key_index),
    st.tuples(st.just("out"), workflow_index, epoch),
    st.tuples(st.just("confirm"), workflow_index, epoch),
    st.tuples(st.just("restore_orphan"), workflow_index),
    st.tuples(st.just("in"), workflow_index, key_index, st.integers(0, 6)),
    st.tuples(st.just("step")),
)


class TestLiveEqualsReplay:
    @given(st.lists(operations, min_size=1, max_size=14))
    # A handoff lands under a key pinned to another workflow, which is then
    # handed off: its tombstone must not carry the re-pointed key.
    @example([("workflow", 2, 1), ("in", 0, 1, 0), ("out", 2, 1)])
    @settings(max_examples=250, deadline=None, print_blob=True)
    def test_recovered_ledger_equals_the_live_one(self, stream):
        with tempfile.TemporaryDirectory(prefix="state-") as tmp:
            journal = Path(tmp) / "j.jsonl"
            live = ServiceState(CLUSTER, config_for(journal))
            for op in stream:
                apply(live, op)
            live.close()
            recovered = ServiceState(CLUSTER, config_for(journal))
            recovered.close()
            assert recovered.ledger() == live.ledger()
            # Failover folds the journal exactly as recovery does.
            owed = set(recovered.core.workflows) | set(recovered.orphans)
            assert failed_over_ids(journal) == owed

    def test_restart_is_idempotent(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        state = ServiceState(CLUSTER, config_for(journal))
        for op in [
            ("workflow", 0, 1), ("workflow", 1, 2), ("adhoc", 0, 3),
            ("out", 0, 2), ("out", 1, 3), ("confirm", 1, 3),
        ]:
            apply(state, op)
        state.close()
        first = ServiceState(CLUSTER, config_for(journal))
        first.close()
        second = ServiceState(CLUSTER, config_for(journal))
        second.close()
        assert first.ledger() == second.ledger() == state.ledger()
        assert len(read_journal(journal)[0]) == 6  # recovery appends nothing


def rebuilt_table(state: ServiceState) -> DemandTable:
    """The committed table from nothing: one walk of the engine's
    incomplete runs, object by object."""
    return DemandTable.of(
        [
            JobDemand.in_window(
                state.windows[run.job.job_id], run.job.tasks, run.believed_remaining_units()
            )
            for run in state.core.incomplete_runs()
            if run.job.kind is JobKind.DEADLINE and run.job.job_id in state.windows
        ]
    )


def assert_table_is_the_engine(state: ServiceState) -> int:
    live, fresh = state.committed_table(), rebuilt_table(state)
    assert live.job_ids == fresh.job_ids
    for column in ("release", "deadline", "units", "parallel", "vector"):
        assert np.array_equal(getattr(live, column), getattr(fresh, column)), column
    assert list(live.vectors.items()) == list(fresh.vectors.items())
    assert state.committed_demands() == reference_committed_demands(state)
    return len(live.job_ids)


class TestTheTableIsTheEngine:
    """``ServiceState`` answers admissions from a cached table of its
    committed demands: a commit appends to it, a step or a withdrawal marks
    it stale.  The cache is safe iff, after *any* transition, it equals one
    rebuilt from the engine — checked here after every operation (the check
    itself reads the table, so the next transition always meets a warm
    cache).  Dropping the stale mark of ``step`` or ``migrate_out``, or the
    append of ``_commit_workflow``, fails this test."""

    table_operations = st.one_of(
        operations,
        st.tuples(st.just("step")),  # weight: work must execute
        st.tuples(st.just("advance"), st.integers(1, 4)),
        st.tuples(st.just("restore"), workflow_index, key_index),
        st.tuples(st.just("kill")),
    )

    @pytest.mark.parametrize("error_model", [None, ErrorModel(0.5, 1.8)], ids=["exact", "perturbed"])
    def test_after_every_operation(self, error_model):
        seen = {"rows": 0, "kills": 0, "partly_run": 0}

        @given(st.lists(self.table_operations, min_size=1, max_size=20))
        @example([("workflow", 0, 0), ("step",), ("step",), ("workflow", 1, 0), ("out", 1, 1)])
        @example([("workflow", 0, 1), ("out", 0, 1), ("kill",), ("restore_orphan", 0), ("step",)])
        @settings(max_examples=150, deadline=None, print_blob=True)
        def drive(stream):
            with tempfile.TemporaryDirectory(prefix="table-") as tmp:
                config = config_for(Path(tmp) / "j.jsonl", error_model=error_model)
                state = ServiceState(CLUSTER, config)
                for op in stream:
                    if op[0] == "kill":  # no close(): the process just dies
                        state.journal.close()
                        state = ServiceState(CLUSTER, config)
                        seen["kills"] += 1
                    else:
                        apply(state, op)
                    seen["rows"] += assert_table_is_the_engine(state)
                    seen["partly_run"] += any(
                        0 < run.executed_units for run in state.core.incomplete_runs()
                    )
                state.close()

        drive()
        assert all(seen.values()), seen


def old_skyline_loads(state: ServiceState) -> tuple[int, dict[str, float]]:
    """``committed_units`` and ``per_resource`` as ``skyline()`` derived
    them before the table: per-demand Python sums over fresh objects."""
    demands = reference_committed_demands(state)
    now = state.core.slot
    horizon = max(max((d.deadline_slot for d in demands), default=now + 1) - now, 1)
    caps = caps_array(state.cluster, now, horizon).sum(axis=0)
    per_resource = {}
    for resource, cap in zip(state.cluster.resources, caps.tolist()):
        load = float(sum(d.units * d.unit_demand[resource] for d in demands))
        per_resource[resource] = load / cap if cap else 0.0
    return int(sum(d.units for d in demands)), per_resource


def test_skyline_reads_the_table_and_prices_what_the_old_sums_did(tmp_path):
    config = config_for(tmp_path / "j.jsonl", admission=False)
    state = ServiceState(CLUSTER, config)

    def check(state):
        skyline = state.skyline()
        units, per_resource = old_skyline_loads(state)
        assert skyline["committed_units"] == units
        assert skyline["per_resource"] == per_resource
        assert skyline["saturation"] == max(per_resource.values(), default=0.0)
        return units

    assert check(state) == 0  # empty: no demand, no division by zero
    for index in range(8):
        wide = deadline_job(f"f{index}-j0", f"f{index}", count=3 + index, cores=1, mem=index % 3 + 1)
        tail = deadline_job(f"f{index}-j1", f"f{index}", count=2)
        edge = (wide.job_id, tail.job_id)
        workflow = Workflow.from_jobs(f"f{index}", [wide, tail], [edge], index % 3 * 4, 40 + index)
        assert state.submit("workflow", workflow).accepted
    filled = check(state)
    for _ in range(3):
        state.step()
    assert 0 < check(state) < filled  # after steps
    state.migrate_out("f2", "elsewhere", 1)  # starts at slot 8: not started
    after_handoff = check(state)
    state.close()
    recovered = ServiceState(CLUSTER, config)  # progress is not journaled
    assert check(recovered) > after_handoff
    recovered.close()


def test_migration_candidates_walk_live_workflows_not_history(monkeypatch):
    """200 workflows registered, 190 run to completion: a rebalancer poll
    touches the 10 that still have work, and lists what it always did."""
    cluster = ClusterCapacity.uniform(cpu=400, mem=800)
    state = ServiceState(cluster, ServiceConfig(scheduler="FIFO", admission=False))
    for index in range(190):
        assert state.submit("workflow", chain(f"done{index:03d}", n=1, count=1)).accepted
    while not state.core.finished:
        state.step()
    now = state.core.slot
    for index in range(10):
        jobs = [deadline_job(f"live{index}-j0", f"live{index}", count=40, duration=3)]
        start = now if index < 4 else now + 5  # four start executing, six wait
        workflow = Workflow.from_jobs(f"live{index}", jobs, [], start, now + 60 + index % 3)
        assert state.submit("workflow", workflow).accepted
    state.step()
    core = state.core
    assert len(core.workflows) == 200

    def full_scan():  # the walk as it was: every workflow ever registered
        rows = [
            {
                "workflow_id": wid,
                "units": sum(job.tasks.total_task_slots for job in workflow.jobs),
                "deadline_slot": workflow.deadline_slot,
            }
            for wid, workflow in core.workflows.items()
            if not core.workflow_started(wid)
        ]
        return sorted(rows, key=lambda c: (-c["deadline_slot"], c["workflow_id"]))

    expected = full_scan()
    assert [c["workflow_id"] for c in expected] == [
        "live5", "live8", "live4", "live7", "live6", "live9",
    ]
    touched = []
    started = core.workflow_started
    monkeypatch.setattr(
        core, "workflow_started", lambda wid: touched.append(wid) or started(wid)
    )
    assert state.migration_candidates(100) == expected
    assert sorted(touched) == [f"live{index}" for index in range(10)]
    assert state.migration_candidates(2) == expected[:2]


@pytest.mark.parametrize("committed", [5, 50])
def test_admissions_between_steps_cost_the_candidate_not_the_committed(committed, monkeypatch):
    """20 admissions between two steps: one pass over the engine's
    incomplete runs at most, and no demand or entry object built for the
    committed jobs — however many there are."""
    cluster = ClusterCapacity.uniform(cpu=4000, mem=8000)
    state = ServiceState(cluster, ServiceConfig(scheduler="FIFO"))
    for index in range(committed):
        assert state.submit("workflow", chain(f"c{index}", n=3, deadline=200)).accepted
    state.step()

    built = {"JobDemand": 0, "ScheduleEntry": 0}
    for cls in (placement.JobDemand, lp_formulation.ScheduleEntry):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    walks = []
    incomplete_runs = state.core.incomplete_runs
    monkeypatch.setattr(
        state.core, "incomplete_runs", lambda: walks.append(1) or incomplete_runs()
    )
    candidate_jobs = 0
    for index in range(20):
        candidate = chain(f"n{index}", n=2, deadline=150 + index)
        assert state.submit("workflow", candidate).accepted
        candidate_jobs += len(candidate.jobs)
    assert len(walks) <= 1
    assert sum(built.values()) <= candidate_jobs, built
    monkeypatch.undo()
    assert assert_table_is_the_engine(state) > candidate_jobs + committed
    state.step()
    assert_table_is_the_engine(state)


class TestKeysSurviveHandoffAndCrash:
    """ISSUE 20 defect (a), at the state level (the threaded twin is in
    test_service_robustness.py::TestCrashRecovery)."""

    def test_confirmed_handoff_key_is_answered_after_restart(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        state = ServiceState(CLUSTER, config_for(journal))
        first = state.submit("workflow", WORKFLOWS[0], "K", "req-1")
        assert first.accepted and first.request_id == "req-1"
        state.migrate_out("w0", "s1", 1)
        state.confirm("w0", 1)
        assert state.submit("workflow", WORKFLOWS[0], "K") is first  # live
        state.close()

        restarted = ServiceState(CLUSTER, config_for(journal))
        retry = restarted.submit("workflow", WORKFLOWS[0], "K")
        assert retry.accepted and retry.reason == "admitted"
        assert "w0" not in restarted.core.workflows
        assert restarted.accepted_workflows == 0
        restarted.close()
        kinds = [record.kind for record in read_journal(journal)[0]]
        assert kinds == ["workflow", "migrate_out", "migrate_confirm"]

    def test_fold_keeps_keys_of_handed_off_workflows(self):
        records = [
            JournalRecord("workflow", "K", WORKFLOWS[0], 0.0),
            JournalRecord("migrate_out", "K", WORKFLOWS[0], 0.0, "s1", 1),
            JournalRecord("migrate_confirm", None, None, 0.0, None, 1, "w0"),
        ]
        folded = fold(records)
        assert folded.keys == {"K": ("workflow", "w0")}
        assert folded.replay == [] and folded.orphans == {}
        assert folded.epochs == {"w0": 1}
        assert fold(records[:2]).orphans == {"w0": records[1]}


class TestOneMeaningPerRecord:
    def test_confirm_without_a_tombstone_settles_nothing(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        state = ServiceState(CLUSTER, config_for(journal))
        state.submit("workflow", WORKFLOWS[0])
        assert state.confirm("w0", 4)["was_orphan"] is False
        assert "w0" in state.core.workflows  # still owed here...
        state.close()
        recovered = ServiceState(CLUSTER, config_for(journal))
        recovered.close()
        assert "w0" in recovered.core.workflows  # ...and after a restart
        assert recovered.epochs == {"w0": 4}

    def test_landing_back_supersedes_the_tombstone(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        state = ServiceState(CLUSTER, config_for(journal))
        state.submit("workflow", WORKFLOWS[0], "k")
        state.migrate_out("w0", "s1", 1)
        assert state.migrate_in(WORKFLOWS[0], "k", 2).accepted
        assert state.orphans == {} and "w0" in state.core.workflows
        with pytest.raises(ValueError, match="no orphaned migration"):
            state.restore_orphan("w0")
        state.close()

    def test_handoff_epoch_survives_restart(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        state = ServiceState(CLUSTER, config_for(journal))
        assert state.migrate_in(WORKFLOWS[0], None, 9).accepted
        state.migrate_out("w0", "s2", 3)  # an older coordinator's epoch
        state.confirm("w0", 3)
        state.close()
        restarted = ServiceState(CLUSTER, config_for(journal))
        assert restarted.epochs == state.epochs == {"w0": 9}
        stale = restarted.migrate_in(WORKFLOWS[0], None, 5)
        assert not stale.accepted and stale.reason == "stale_epoch"
        restarted.close()

    def test_handoffs_do_not_move_the_status_counts(self, tmp_path):
        state = ServiceState(CLUSTER, config_for(tmp_path / "j.jsonl"))
        assert state.migrate_in(WORKFLOWS[0], "k", 1).accepted
        assert not state.migrate_in(WORKFLOWS[5], None, 1).accepted  # infeasible
        status = state.status(running=False)
        assert (status.accepted_workflows, status.rejected_workflows) == (0, 0)
        assert status.n_workflows == 1
        state.close()


class TestAdmissionWithoutAClock:
    def test_admission_sees_the_slot_the_test_chose(self):
        state = ServiceState(CLUSTER, ServiceConfig(scheduler="FIFO"))
        for _ in range(25):
            state.step()
        late = state.submit("workflow", chain("late", deadline=28))
        assert not late.accepted and late.reason == "infeasible"
        assert state.submit("workflow", chain("ok", deadline=80)).accepted
        assert state.status(running=False).rejected_workflows == 1

    def test_draining_state_rejects_and_runs_out(self):
        state = ServiceState(CLUSTER, ServiceConfig(scheduler="FIFO"))
        assert state.submit("workflow", WORKFLOWS[0]).accepted
        assert state.submit("adhoc", ADHOC[0]).accepted
        state.draining = True
        assert state.submit("adhoc", ADHOC[1]).reason == "draining"
        result = state.run_out()
        assert result.finished and result.workflows["w0"].met_deadline


def test_skyline_prices_load_against_the_capacity_actually_there():
    """Overrides halve the cluster over the whole committed horizon: the same
    commitments are twice as saturating, and the rebalancer must see that."""
    workflow = chain("w", deadline=20)
    horizon = range(workflow.deadline_slot)
    halved = ClusterCapacity(
        base=CLUSTER.base,
        overrides={slot: ResourceVector(cpu=8, mem=16) for slot in horizon},
    )
    skylines = []
    for cluster in (CLUSTER, halved):
        state = ServiceState(
            cluster, ServiceConfig(scheduler="FIFO", admission=False)
        )
        assert state.submit("workflow", workflow).accepted
        skylines.append(state.skyline())
    full, half = skylines
    assert full["horizon_slots"] == half["horizon_slots"] == len(horizon)
    assert full["saturation"] > 0
    assert half["per_resource"] == {
        name: pytest.approx(2 * share) for name, share in full["per_resource"].items()
    }
    assert half["saturation"] == pytest.approx(2 * full["saturation"])


def test_state_module_imports_no_thread_queue_or_clock():
    tree = ast.parse(Path(state_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert not imported & {"threading", "queue", "time", "concurrent"}
