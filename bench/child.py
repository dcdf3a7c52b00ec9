"""The measuring process: one warm-up epoch, then identical timed epochs.

Spawned by :mod:`bench.run` with a pinned environment (``PYTHONHASHSEED=0``,
single-threaded BLAS).  It builds the workload from the seed,
runs one untimed epoch that both warms the process (lazy imports, HiGHS
set-up, allocator) and *verifies* the outputs, then runs timed epochs on
fresh state until ``--seconds`` have passed.  Every epoch must reproduce
the first one's work digest or the process aborts: a timing is only
compared with another timing of the same work.

``--mode trace`` spends half the budget on plain epochs and half on epochs
with the span wrappers of :mod:`bench.trace` installed, and reports the
per-layer metrics; end-to-end numbers always come from plain epochs.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench.calibrate import Calibrator
from bench.stats import WorkDigest, floor_per_op, timing_metrics
from bench.trace import (
    DRAIN_OP,
    Span,
    SpanRecorder,
    install,
    layer_floors,
    nest,
)
from bench.workloads import WORKLOADS, EpochSummary, Workload

#: Fewest timed epochs a floor is taken over, whatever ``--seconds`` says.
MIN_EPOCHS = 3
#: Fewest traced epochs (the plain half of a trace run keeps MIN_EPOCHS - 1).
MIN_TRACED_EPOCHS = 2
#: Seconds charged to an op that got no answer: the client's own timeout,
#: so a failed op never earns a latency better than a slow one.
FAILED_OP_S = 30.0


class WorkMismatch(RuntimeError):
    """Two epochs of one run did different work."""


@dataclass
class EpochRecord:
    """Everything measured in one epoch."""

    setup_s: float = 0.0
    generate_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    failed: int = 0
    cpu_s: float = 0.0
    digest: str = ""
    summary: EpochSummary | None = None
    spans: list[Span] = field(default_factory=list)


def _cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_epoch(
    workload: Workload,
    index: int,
    *,
    verify: bool = False,
    recorder: SpanRecorder | None = None,
) -> EpochRecord:
    """Set up fresh state, time each op, tear down."""
    record = EpochRecord()
    digest = WorkDigest()
    gc.collect()
    if recorder is not None:
        recorder.op = -1  # set-up spans belong to no op
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    epoch = workload.begin(
        verify=verify, traced=recorder is not None, index=index
    )
    record.setup_s = time.perf_counter() - start
    record.generate_s = epoch.generate_s
    try:
        for op_index, op in enumerate(epoch.ops()):
            if recorder is not None:
                recorder.op = op_index
            start = time.perf_counter()
            raw = op()
            end = time.perf_counter()
            if epoch.failed(raw):
                record.failed += 1
                record.op_s.append(FAILED_OP_S)
            else:
                record.op_s.append(end - start)
            if recorder is not None:
                recorder.record("bench.op", start, end)
            digest.add(op_index, epoch.outcome(raw))
        record.summary = epoch.finish()
    except BaseException:
        epoch.abort()
        raise
    record.cpu_s = _cpu_seconds() - cpu_start
    digest.add("work", record.summary.work)
    record.digest = digest.hexdigest()
    if recorder is not None:
        record.spans = recorder.take()
        if record.summary.span_file:
            n_ops = len(record.op_s)
            record.spans += [
                span._replace(op=n_ops - 1) if span.op == DRAIN_OP else span
                for span in SpanRecorder.load(record.summary.span_file)
                if span.op != -1
            ]
    return record


def _timed_epochs(
    workload: Workload,
    expected_digest: str,
    seconds: float,
    min_epochs: int,
    first_index: int,
    calibrator: Calibrator,
    recorder: SpanRecorder | None = None,
) -> list[EpochRecord]:
    records: list[EpochRecord] = []
    deadline = time.perf_counter() + seconds
    while len(records) < min_epochs or time.perf_counter() < deadline:
        calibrator.sample_if_due()
        record = run_epoch(
            workload, first_index + len(records), recorder=recorder
        )
        if record.digest != expected_digest:
            raise WorkMismatch(
                f"epoch {first_index + len(records)} did different work than "
                f"the warm-up epoch ({record.digest[:12]} != "
                f"{expected_digest[:12]}): timings are not comparable"
            )
        records.append(record)
    return records


def _peak_rss_mib(workload: Workload) -> float:
    who = (
        resource.RUSAGE_CHILDREN
        if workload.program_is_a_child
        else resource.RUSAGE_SELF
    )
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _end_to_end(workload, warmup, records, speed: float) -> tuple[dict, dict]:
    """(end-to-end metrics, diagnostics) of the plain timed epochs.

    Timings are reported at reference speed (``measured x speed``, see
    :mod:`bench.calibrate`); ``raw.*`` and ``cpu_ms_per_op`` are not.
    """
    timing = timing_metrics([r.op_s for r in records])
    n_epochs = len(records)
    n_ops = len(records[0].op_s)
    attempted = n_ops * n_epochs
    failed = sum(r.failed for r in records)
    quality = warmup.summary.quality
    setups = [warmup.setup_s] + [r.setup_s for r in records]
    metrics = {
        "epoch_setup_s": _metric(min(setups) * speed, "s", len(setups)),
        "ops_per_s": _metric(timing["ops_per_s"] / speed, "1/s", n_epochs),
        "op_ms_p50": _metric(timing["op_ms_p50"] * speed, "ms", n_ops),
        "op_ms_p90": _metric(timing["op_ms_p90"] * speed, "ms", n_ops),
        "op_ms_max": _metric(timing["op_ms_max"] * speed, "ms", n_epochs),
        "peak_rss_mb": _metric(_peak_rss_mib(workload), "MiB", 1),
        "deadline_met_share": _metric(quality["deadline_met_share"], "share", 1),
        "accept_share": _metric(quality["accept_share"], "share", 1),
        "adhoc_turnaround_slots": _metric(
            quality["adhoc_turnaround_slots"], "slots", 1
        ),
        "ok_share": _metric(1.0 - failed / attempted, "share", attempted),
    }
    diagnostics = {
        "raw.ops_per_s": _metric(timing["ops_per_s"], "1/s", n_epochs),
        "raw.op_ms_p50": _metric(timing["raw.op_ms_p50"], "ms", n_epochs),
        "raw.op_ms_p90": _metric(timing["raw.op_ms_p90"], "ms", n_epochs),
        "raw.epoch_s_iqr": _metric(timing["raw.epoch_s_iqr"], "share", n_epochs),
        "cpu_ms_per_op": _metric(
            statistics.median(r.cpu_s for r in records) / n_ops * 1e3,
            "ms", n_epochs,
        ),
        "workloads.generate_s": _metric(
            min([warmup.generate_s] + [r.generate_s for r in records]),
            "s", len(setups),
        ),
        "verify.validate_ms": _metric(warmup.summary.validate_s * 1e3, "ms", 1),
    }
    return metrics, diagnostics


def _inside(nested: list[Span], inner: str, outer: str) -> int:
    """How many *inner* spans of a nested span list have an *outer* span
    among their ancestors."""
    count = 0
    for span in nested:
        if span.name != inner:
            continue
        parent = span.parent
        while parent >= 0:
            if nested[parent].name == outer:
                count += 1
                break
            parent = nested[parent].parent
    return count


def _per_layer(plain, traced, speed: float) -> dict:
    """The per-layer waterfall of the traced epochs, at reference speed."""
    n_traced = len(traced)
    layer_self, layer_total, counts = layer_floors([r.spans for r in traced])
    layer_self = {name: s * speed for name, s in layer_self.items()}
    layer_total = {name: s * speed for name, s in layer_total.items()}
    traced_floor = sum(floor_per_op([r.op_s for r in traced])) * speed
    plain_floor = sum(floor_per_op([r.op_s for r in plain])) * speed
    nested = nest(traced[0].spans)

    def calls(name: str) -> int:
        return counts.get(name, 0)

    def self_s(name: str) -> float:
        return layer_self.get(name, 0.0)

    def total_s(name: str) -> float:
        return layer_total.get(name, 0.0)

    def ms_per(seconds: float, n: int) -> float:
        return seconds / n * 1e3 if n else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def values(name: str) -> list[float]:
        return [s.value for s in nested if s.name == name and s.value is not None]

    steps = calls("simulator.step")
    submits = calls("service.submit")
    solves = calls("lp.solve")
    cache_lookups = values("core.plan_cache")
    layered = sum(v for name, v in layer_self.items() if name != "bench.op")

    def m(value: float, unit: str, samples: int = n_traced) -> dict:
        return _metric(value, unit, samples)

    metrics = {
        "service.client_ms_per_op": m(
            ms_per(self_s("service.client"), calls("service.client")), "ms"),
        "service.http_ms_per_op": m(
            ms_per(self_s("service.http"), calls("service.http")), "ms"),
        "service.submit_calls": m(submits, "count"),
        "service.submit_self_ms_per_op": m(
            ms_per(self_s("service.submit"), submits), "ms"),
        "service.journal_appends": m(calls("service.journal"), "count"),
        "service.journal_ms_per_append": m(
            ms_per(total_s("service.journal"), calls("service.journal")), "ms"),
        "service.http_shutdown_s": m(total_s("service.http_shutdown"), "s"),
        "service.drain_s": m(total_s("service.drain"), "s"),
        "core.admission_self_share": m(
            share(self_s("core.admission"), total_s("core.admission")), "share"),
        "core.plan_cache_hit_share": m(
            share(sum(cache_lookups), len(cache_lookups)),
            "share", len(cache_lookups)),
        "core.lexmin_calls": m(calls("core.lexmin"), "count"),
        "core.lexmin_solves_per_call": m(
            share(_inside(nested, "lp.solve", "core.lexmin"),
                  calls("core.lexmin")), "count"),
        "lp.solve_vars_per_call": m(
            share(sum(values("lp.solve")), solves), "count", solves),
        "lp.solve_share": m(share(total_s("lp.solve"), traced_floor), "share"),
        "schedulers.on_events_ms_per_slot": m(
            ms_per(total_s("schedulers.on_events"), steps), "ms"),
        "schedulers.assign_self_ms_per_slot": m(
            ms_per(self_s("schedulers.assign"), steps), "ms"),
        "schedulers.replans": m(
            _inside(nested, "core.plan", "schedulers.assign"), "count"),
        "simulator.step_calls": m(steps, "count"),
        "simulator.step_self_ms_per_slot": m(
            ms_per(self_s("simulator.step"), steps), "ms"),
        "simulator.idle_step_share": m(
            share(sum(values("simulator.step")), steps), "share", steps),
        "trace.overhead_share": m(traced_floor / plain_floor - 1.0, "share"),
        "trace.coverage_share": m(share(layered, traced_floor), "share"),
    }
    # Calls and inclusive time per call, for the layers that are a function.
    for layer in (
        "core.admission", "core.decompose", "core.lp_build", "core.plan",
        "lp.solve",
    ):
        metrics[f"{layer}_calls"] = m(calls(layer), "count")
        metrics[f"{layer}_ms_per_call"] = m(
            ms_per(total_s(layer), calls(layer)), "ms"
        )
    return metrics


def run(args: argparse.Namespace) -> dict:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
    }
    calibrator = Calibrator()
    try:
        # Warm-up and verification in one untimed epoch.
        warmup = run_epoch(workload, 0, verify=True)
        if args.mode == "measure":
            plain = _timed_epochs(
                workload, warmup.digest, args.seconds, MIN_EPOCHS, 1,
                calibrator,
            )
            traced = []
        else:
            plain = _timed_epochs(
                workload, warmup.digest, args.seconds / 2, MIN_EPOCHS - 1, 1,
                calibrator,
            )
            recorder = SpanRecorder()
            with install(recorder):
                traced = _timed_epochs(
                    workload, warmup.digest, args.seconds / 2,
                    MIN_TRACED_EPOCHS, 1 + len(plain), calibrator, recorder,
                )
        calibrator.sample_if_due(gap_s=0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speed = calibrator.speed(len(plain))
    metrics, diagnostics = _end_to_end(workload, warmup, plain, speed)
    diagnostics["machine.speed"] = _metric(speed, "share", calibrator.samples)
    if traced:
        diagnostics.update(_per_layer(plain, traced, speed))
    digest = WorkDigest()
    digest.add(warmup.digest, warmup.summary.verified_work)
    failed = sum(r.failed for r in plain)
    out.update(
        epochs=len(plain),
        traced_epochs=len(traced),
        n_ops=len(plain[0].op_s),
        attempted=len(plain[0].op_s) * len(plain),
        failed=failed,
        violations=warmup.summary.violations,
        correct=not warmup.summary.violations and failed == 0,
        work_digest=digest.hexdigest(),
        machine_speed=speed,
        end_to_end=metrics,
        per_layer=diagnostics,
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["measure", "trace"], required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except WorkMismatch as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
