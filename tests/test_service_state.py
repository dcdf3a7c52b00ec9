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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.service.state as state_module
from repro.cluster import FailureDetector, ShardRouter, Supervisor
from repro.cluster.failover import LIVE
from repro.model.cluster import ClusterCapacity
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow
from repro.service import ServiceConfig, ServiceState, SubmitResult
from repro.service.journal import JournalRecord, fold, read_journal
from tests.conftest import adhoc_job, deadline_job

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
