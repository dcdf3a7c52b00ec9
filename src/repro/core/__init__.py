"""FlowTime's core algorithms.

Stage 1 (Sec. IV): decompose each workflow deadline into per-job windows —
:mod:`repro.core.toposort` (grouped Kahn), :mod:`repro.core.decomposition`
(resource-demand-based split), :mod:`repro.core.critical_path` (the classic
fallback used when the window is tighter than the sum of minimum runtimes).

Stage 2 (Sec. V): schedule deadline jobs by lexicographically minimising the
normalised per-slot resource usage — :mod:`repro.core.lp_formulation` builds
the LP, :mod:`repro.core.lexmin` runs the iterative minimax,
:mod:`repro.core.allocation` re-quantises to integers, and
:mod:`repro.core.flowtime` packages it all as a re-plannable planner.
:mod:`repro.core.placement` is the kernel under both the planner and
:mod:`repro.core.admission`: demand -> window -> capacity -> "does it fit?".
"""

from repro.core.admission import AdmissionDecision, check_admission
from repro.core.allocation import AllocationPlan, IntegralizationError
from repro.core.critical_path import critical_path_length, critical_path_windows
from repro.core.decomposition import (
    DecompositionResult,
    JobWindow,
    decompose_deadline,
)
from repro.core.flowtime import FlowTimePlanner
from repro.core.lexmin import LexminResult, LexminWarmHint, lexmin_schedule
from repro.core.lp_formulation import ScheduleProblem, build_schedule_problem
from repro.core.placement import JobDemand, PlannerConfig, caps_array
from repro.core.replan import CachedPlan, PlanCache, PlanRequest
from repro.core.toposort import grouped_topological_sets

__all__ = [
    "AdmissionDecision",
    "AllocationPlan",
    "CachedPlan",
    "DecompositionResult",
    "FlowTimePlanner",
    "IntegralizationError",
    "JobDemand",
    "JobWindow",
    "LexminResult",
    "LexminWarmHint",
    "PlanCache",
    "PlanRequest",
    "PlannerConfig",
    "ScheduleProblem",
    "caps_array",
    "build_schedule_problem",
    "check_admission",
    "critical_path_length",
    "critical_path_windows",
    "decompose_deadline",
    "grouped_topological_sets",
    "lexmin_schedule",
]
