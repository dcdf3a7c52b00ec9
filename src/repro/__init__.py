"""repro: a full reproduction of FlowTime (Hu et al., ICDCS 2018).

FlowTime jointly schedules deadline-aware *workflows* (DAGs of recurring
data-analytics jobs) and best-effort *ad-hoc* jobs on one multi-resource
cluster: workflow deadlines are decomposed into per-job deadlines using the
DAG and per-job resource demands (Sec. IV), and a lexicographic-minimax LP
places the deadline work so that its resource skyline is as flat as possible
(Sec. V) — everything left over serves ad-hoc jobs immediately.

Quick start::

    from repro import (
        ClusterCapacity, FlowTimeScheduler, Simulation, generate_trace,
    )

    cluster = ClusterCapacity.uniform(cpu=500, mem=1024)
    trace = generate_trace(capacity=cluster, seed=7)
    sim = Simulation(
        cluster, FlowTimeScheduler(),
        workflows=trace.workflows, adhoc_jobs=trace.adhoc_jobs,
    )
    result = sim.run()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced figure.
"""

from repro.analysis import (
    ComparisonResult,
    canonical_windows,
    format_comparison_table,
    run_comparison,
    run_one,
)
from repro.analysis.gantt import render_gantt, render_utilization
from repro.core import (
    AllocationPlan,
    DecompositionResult,
    FlowTimePlanner,
    JobDemand,
    JobWindow,
    PlanCache,
    PlannerConfig,
    PlanRequest,
    critical_path_windows,
    decompose_deadline,
    grouped_topological_sets,
    lexmin_schedule,
)
from repro.estimation import ErrorModel, RunHistory, apply_estimation_errors
from repro.model import (
    CPU,
    MEM,
    ClusterCapacity,
    Job,
    JobKind,
    ResourceVector,
    TaskSpec,
    Workflow,
)
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    Observability,
    current_obs,
    read_trace,
    use_obs,
)
from repro.schedulers import (
    CoraScheduler,
    EdfScheduler,
    FairScheduler,
    FifoScheduler,
    FlowTimeScheduler,
    MorpheusScheduler,
    make_scheduler,
)
from repro.service import (
    SchedulerService,
    ServiceConfig,
    ServiceStatus,
    SubmitResult,
)
from repro.simulator import Simulation, SimulationConfig, SimulationResult
from repro.workloads import (
    SyntheticTrace,
    adhoc_stream,
    fork_join_workflow,
    generate_trace,
    make_scientific_workflow,
)
from repro.workloads.recurring import RecurringWorkflow, record_run

__version__ = "1.11.0"

__all__ = [
    "CPU",
    "MEM",
    "AllocationPlan",
    "ClusterCapacity",
    "ComparisonResult",
    "CoraScheduler",
    "DecompositionResult",
    "EdfScheduler",
    "ErrorModel",
    "FairScheduler",
    "FifoScheduler",
    "FlowTimePlanner",
    "FlowTimeScheduler",
    "Job",
    "JobDemand",
    "JobKind",
    "JobWindow",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "MorpheusScheduler",
    "Observability",
    "PlanCache",
    "PlanRequest",
    "PlannerConfig",
    "RecurringWorkflow",
    "ResourceVector",
    "RunHistory",
    "SchedulerService",
    "ServiceConfig",
    "ServiceStatus",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "SubmitResult",
    "SyntheticTrace",
    "TaskSpec",
    "Workflow",
    "adhoc_stream",
    "apply_estimation_errors",
    "canonical_windows",
    "critical_path_windows",
    "current_obs",
    "decompose_deadline",
    "fork_join_workflow",
    "format_comparison_table",
    "generate_trace",
    "grouped_topological_sets",
    "lexmin_schedule",
    "make_scheduler",
    "make_scientific_workflow",
    "read_trace",
    "record_run",
    "render_gantt",
    "render_utilization",
    "run_comparison",
    "run_one",
    "use_obs",
]
