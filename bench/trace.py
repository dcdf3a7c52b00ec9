"""Span tracing installed from outside the program under test.

The benchmark records a span around each call into a layer — name, start,
end, the op it belongs to — by wrapping the layer's *public callables* with
``unittest.mock.patch.object``; no file under ``src/`` knows about it.
Spans are kept in memory and dumped when the process ends.  A span's parent
is the innermost span open when it starts: with one request in flight that
is the call stack within a thread, and across threads and processes (HTTP
client -> handler thread -> service loop thread) it is the chain of callers
blocked on one another.  ``time.perf_counter`` is the system-wide
monotonic clock on Linux, so spans of the load generator and of the server
child share a time base.

A layer's *self time* is its span minus the spans directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import ExitStack
from typing import Callable, Iterable, NamedTuple
from unittest import mock

__all__ = [
    "DRAIN_OP",
    "Span",
    "SpanRecorder",
    "install",
    "nest",
    "self_times",
    "layer_floors",
]

#: ``op`` of spans recorded while the server drains: the load generator
#: knows the drain's op index, the server does not.
DRAIN_OP = -2


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: Index of the benchmark op the span belongs to (-1: none yet).
    op: int
    #: Layer-specific number: LP variables, cache hit, idle step.
    value: float | None = None
    #: Index of the parent span in the list (set by :func:`nest`).
    parent: int = -1


class SpanRecorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: The op in flight; set by the epoch loop, or by the server-side
        #: ``service.submit`` wrapper from the request id.
        self.op = -1

    def record(self, name, start, end, value=None, op=None) -> None:
        self.spans.append(
            Span(name, start, end, self.op if op is None else op, value)
        )

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([list(span[:5]) for span in self.spans], handle)

    @staticmethod
    def load(path) -> list[Span]:
        with open(path, encoding="utf-8") as handle:
            return [Span(*row) for row in json.load(handle)]


def _wrap(
    recorder: SpanRecorder,
    name: str,
    func: Callable,
    value_of: Callable | None = None,
    op_of: Callable | None = None,
) -> Callable:
    """*func* with a span around it.

    ``value_of(args, kwargs, result)`` gives the span's value.  A wrapper
    at a process boundary knows which op it serves: ``op_of(args, kwargs)``
    names it, the span keeps it, and it becomes the recorder's op in
    flight for the spans recorded below it.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        op = op_of(args, kwargs) if op_of is not None else None
        if op is not None:
            recorder.op = op
        start = time.perf_counter()
        value = None
        try:
            result = func(*args, **kwargs)
            if value_of is not None:
                value = value_of(args, kwargs, result)
            return result
        finally:
            recorder.record(name, start, time.perf_counter(), value, op)

    return wrapper


# -- what is wrapped --------------------------------------------------------------


def _op_of_request_id(request_id: str | None) -> int | None:
    """The load generator sends op *i* as request id ``op-<i>``."""
    if request_id and request_id.startswith("op-"):
        return int(request_id[3:])
    return None


def _op_from_kwarg(args, kwargs) -> int | None:
    return _op_of_request_id(kwargs.get("request_id"))


def _op_from_header(args, kwargs) -> int | None:
    return _op_of_request_id(args[0].headers.get("X-Request-Id"))


def _op_is_drain(args, kwargs) -> int:
    return DRAIN_OP


def _lp_variables(args, kwargs, result) -> float:
    problem = args[0] if args else kwargs["problem"]
    return float(problem.n_variables)


def _cache_hit(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


def _idle_step(args, kwargs, outcome) -> float:
    """A step that delivered no event and executed nothing: what an
    idle-jump would skip."""
    return 0.0 if outcome.events or outcome.executed else 1.0


#: (span name, module, class or None, callables, value_of, op_of)
_TARGETS = (
    ("service.client", "repro.service.client", "HttpServiceClient",
     ("submit_workflow", "submit_adhoc"), None, None),
    ("service.http", "repro.service.http", "_Handler",
     ("do_POST",), None, _op_from_header),
    ("service.http_shutdown", "repro.service.http", "ServiceHTTPServer",
     ("shutdown",), None, None),
    ("service.submit", "repro.service.core", "SchedulerService",
     ("submit_workflow", "submit_adhoc"), None, _op_from_kwarg),
    ("service.drain", "repro.service.core", "SchedulerService",
     ("drain",), None, _op_is_drain),
    ("service.journal", "repro.service.journal", "SubmissionJournal",
     ("append_workflow", "append_adhoc"), None, None),
    ("core.admission", "repro.core.admission", None,
     ("check_admission",), None, None),
    ("core.decompose", "repro.core.decomposition", None,
     ("decompose_deadline",), None, None),
    ("core.lp_build", "repro.core.lp_formulation", None,
     ("build_schedule_problem",), None, None),
    ("core.plan", "repro.core.flowtime", "FlowTimePlanner", ("plan",), None, None),
    ("core.plan_cache", "repro.core.replan", "PlanCache",
     ("get",), _cache_hit, None),
    ("core.lexmin", "repro.core.lexmin", None, ("lexmin_schedule",), None, None),
    ("lp.solve", "repro.lp.solver", None, ("solve_lp",), _lp_variables, None),
    ("schedulers.on_events", "repro.schedulers.flowtime_sched",
     "FlowTimeScheduler", ("on_events",), None, None),
    ("schedulers.assign", "repro.schedulers.flowtime_sched",
     "FlowTimeScheduler", ("assign",), None, None),
    ("simulator.step", "repro.simulator.runtime", "EngineCore",
     ("step",), _idle_step, None),
    ("simulator.add", "repro.simulator.runtime", "EngineCore",
     ("add_workflow", "add_adhoc"), None, None),
    ("verify.validate", "repro.verify.validator", "ScheduleValidator",
     ("validate",), None, None),
)


def _holders(attr: str, func: Callable) -> Iterable:
    """Every loaded ``repro`` module that holds *func* under *attr*.

    ``from repro.lp.solver import solve_lp`` binds the function into the
    importing module, so a module-level function has to be patched
    wherever it was imported to.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(module, attr, None) is func:
            yield module


def install(recorder: SpanRecorder) -> ExitStack:
    """Wrap every layer boundary; closing the returned stack undoes it.

    Imports the whole stack first so that every by-name import of a
    wrapped function already exists and is patched too.
    """
    for module_name in ("repro", "repro.service", "repro.simulator", "repro.verify"):
        importlib.import_module(module_name)
    stack = ExitStack()
    for name, module_name, owner_name, attrs, value_of, op_of in _TARGETS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            if owner_name is not None:
                owner = getattr(module, owner_name)
                wrapped = _wrap(
                    recorder, name, getattr(owner, attr), value_of, op_of
                )
                stack.enter_context(mock.patch.object(owner, attr, wrapped))
                continue
            func = getattr(module, attr)
            wrapped = _wrap(recorder, name, func, value_of, op_of)
            for holder in _holders(attr, func):
                stack.enter_context(mock.patch.object(holder, attr, wrapped))
    return stack


# -- analysis -----------------------------------------------------------------------


def nest(spans: Iterable[Span]) -> list[Span]:
    """Sort spans by start and set each one's ``parent``: the innermost
    span still open when it starts.

    A span is closed once any span *around* it has ended — a server-side
    handler span can outlive the client call it served by the few
    microseconds it takes to return, and must not adopt the next call.
    """
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    nested: list[Span] = []
    open_spans: list[int] = []  # indices into nested, outermost first
    for span in ordered:
        for depth, index in enumerate(open_spans):
            if nested[index].end <= span.start:
                del open_spans[depth:]
                break
        parent = open_spans[-1] if open_spans else -1
        nested.append(span._replace(parent=parent))
        open_spans.append(len(nested) - 1)
    return nested


def self_times(nested: list[Span]) -> list[float]:
    """Per span: its duration minus the part its direct children cover.

    A child that outlives its parent (see :func:`nest`) is clipped to the
    parent's end.
    """
    own = [span.end - span.start for span in nested]
    for span in nested:
        if span.parent >= 0:
            parent_end = nested[span.parent].end
            own[span.parent] -= max(min(span.end, parent_end) - span.start, 0.0)
    return own


def layer_floors(
    epochs: list[list[Span]],
) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per layer: summed self time, summed inclusive time and span count,
    each floored per ``(op, layer)`` across epochs of identical work.

    Mirrors the end-to-end floor: for every op and layer the minimum over
    epochs of that layer's time inside that op, then the sum over ops.
    Raises ``ValueError`` when two epochs recorded different span counts
    for a layer — the work was not deterministic.
    """
    self_floor: dict[tuple[int, str], float] = {}
    total_floor: dict[tuple[int, str], float] = {}
    counts: dict[str, int] = {}
    for index, spans in enumerate(epochs):
        nested = nest(spans)
        own = self_times(nested)
        self_sum: dict[tuple[int, str], float] = {}
        total_sum: dict[tuple[int, str], float] = {}
        epoch_counts: dict[str, int] = {}
        for span, own_s in zip(nested, own):
            key = (span.op, span.name)
            self_sum[key] = self_sum.get(key, 0.0) + own_s
            total_sum[key] = total_sum.get(key, 0.0) + (span.end - span.start)
            epoch_counts[span.name] = epoch_counts.get(span.name, 0) + 1
        if index == 0:
            self_floor, total_floor, counts = self_sum, total_sum, epoch_counts
            continue
        if epoch_counts != counts or self_sum.keys() != self_floor.keys():
            raise ValueError(
                f"traced epoch {index} recorded different spans than epoch 0: "
                "the work is not deterministic"
            )
        for key, value in self_sum.items():
            self_floor[key] = min(self_floor[key], value)
            total_floor[key] = min(total_floor[key], total_sum[key])
    layer_self: dict[str, float] = {}
    layer_total: dict[str, float] = {}
    for (_, name), value in self_floor.items():
        layer_self[name] = layer_self.get(name, 0.0) + value
    for (_, name), value in total_floor.items():
        layer_total[name] = layer_total.get(name, 0.0) + value
    return layer_self, layer_total, counts
