#!/usr/bin/env python3
"""Admission control: should the cluster accept another deadline workflow?

An extension beyond the paper (DESIGN.md, S-extensions): before admitting a
workflow, solve the max-placement LP over the already-committed deadline
work plus the candidate's decomposed windows.  If any work provably cannot
be placed before its deadline, reject — better than accepting a workload
that is doomed to miss.

Run:  python examples/admission_control.py
"""

from repro import ClusterCapacity, JobDemand, ResourceVector
from repro.core.admission import check_admission
from repro.core.placement import DemandTable
from repro.workloads.dag_generators import fork_join_workflow


def main() -> None:
    cluster = ClusterCapacity.uniform(cpu=32, mem=64)

    # The cluster already committed to one heavy job until slot 30.
    commitments = [
        JobDemand(
            job_id="nightly-etl",
            release_slot=0,
            deadline_slot=30,
            units=200,
            unit_demand=ResourceVector(cpu=2, mem=4),
            max_parallel=10,
        )
    ]

    # check_admission takes the commitments as objects, or as the placement
    # kernel's columnar table.  A caller that checks many candidates against
    # one committed set (the service does) converts once and keeps the table;
    # either form gives the same decision.
    table = DemandTable.of(commitments)

    print(f"cluster: 32 cores / 64 GB, existing commitment: 200 task-slots by slot 30\n")
    for window, label in ((120, "loose (deadline slot 120)"), (18, "tight (deadline slot 18)")):
        candidate = fork_join_workflow("candidate", 4, 0, window)
        decision = check_admission(candidate, table, cluster, now_slot=0)
        assert decision == check_admission(candidate, commitments, cluster, now_slot=0)
        verdict = "ADMIT" if decision.admit else "REJECT"
        print(f"candidate with {label}: {verdict}")
        print(f"  projected peak utilisation: {decision.utilisation:.0%}")
        if not decision.admit:
            for job_id, units in sorted(decision.shortfall_units.items()):
                print(f"  cannot place {units} task-slots of {job_id} in time")
        print()


if __name__ == "__main__":
    main()
