"""Command-line interface.

The subcommands cover the library's workflow end to end::

    python -m repro generate-trace --out trace.json --seed 15
    python -m repro decompose --trace trace.json --workflow wf0
    python -m repro run --trace trace.json --scheduler FlowTime --gantt
    python -m repro run --trace trace.json --trace-out run.jsonl --metrics
    python -m repro run --trace trace.json --verify
    python -m repro verify run.jsonl --workload trace.json
    python -m repro compare --trace trace.json
    python -m repro serve --port 8080 --batch-window 0.1
    python -m repro trace query run.jsonl --request 4f2a...
    python -m repro top --url http://127.0.0.1:8080

Cluster size is given with ``--cpu/--mem`` (every command defaults to the
64-core / 128-GB mixed-cluster setup the examples use).  Traces are the
replayable JSON files of :mod:`repro.workloads.traces`, so a comparison run
on another machine sees byte-identical workloads.

A flag backed by a config field is declared on the field (its metadata
names the flag, help and, for a None default, the type); :func:`_add_fields`
adds it to a parser and :func:`_fields` reads the value back.

Global flags (before the subcommand): ``--version``; ``-v/--verbose`` and
``-q/--quiet`` set the observability log level (repeat ``-v`` for debug);
``-v`` on a ``run`` also prints the per-phase timing table.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import logging
import sys
from typing import Sequence

from repro.analysis.experiments import run_comparison, run_one
from repro.analysis.gantt import render_gantt, render_utilization
from repro.analysis.reporting import (
    format_comparison_table,
    format_phase_table,
    format_slo,
    format_slowest_slot,
    turnaround_ratios,
)
from repro.chaos import ChaosConfig, chaos_solver
from repro.cluster.failover import DetectorConfig, SupervisorConfig
from repro.core.decomposition import decompose_deadline
from repro.core.placement import PlannerConfig
from repro.estimation.errors import ErrorModel
from repro.model.cluster import ClusterCapacity
from repro.obs import JsonlSink, Observability, SLOConfig, SLOTracker
from repro.schedulers.registry import available_schedulers
from repro.service.api import ServiceConfig
from repro.simulator.engine import SimulationConfig
from repro.simulator.failures import FailureModel
from repro.workloads.traces import generate_trace, load_trace, save_trace


def verbosity_to_level(quiet: bool, verbose: int) -> int:
    """Map -q/-v flags to a logging level (the obs layer's log level).

    Default is WARNING (instrumentation is silent unless asked); ``-v``
    surfaces run milestones (INFO), ``-vv`` the debug firehose; ``-q``
    keeps only errors.
    """
    if quiet:
        return logging.ERROR
    if verbose >= 2:
        return logging.DEBUG
    if verbose == 1:
        return logging.INFO
    return logging.WARNING


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cpu", type=int, default=64, help="cluster CPU cores")
    parser.add_argument("--mem", type=int, default=128, help="cluster memory (GB)")


def _add_fields(parser, cls, *names: str, **defaults) -> None:
    """Add a flag for each field of dataclass *cls* whose metadata names one
    (only the fields in *names*, when given); *defaults* override field
    defaults.  A bool flag stores the opposite of its default, so a True
    field is switched off by its ``--no-...`` flag.  The dest is
    ``Class.field`` (``seed`` is a field of two classes)."""
    for spec in dataclasses.fields(cls):
        meta = spec.metadata
        if "flag" not in meta or (names and spec.name not in names):
            continue
        default = defaults.get(spec.name, spec.default)
        options = {
            "dest": f"{cls.__name__}.{spec.name}",
            "default": default,
            "help": meta["help"],
        }
        if isinstance(default, bool):
            options["action"] = "store_false" if default else "store_true"
        else:
            options["type"] = meta["type"] if default is None else type(default)
            options["metavar"] = meta.get(
                "metavar", meta["flag"][2:].replace("-", "_").upper()
            )
        parser.add_argument(meta["flag"], **options)


def _fields(cls, args: argparse.Namespace) -> dict:
    """The values *args* holds for the flags :func:`_add_fields` added for
    *cls*, by field name."""
    prefix = f"{cls.__name__}."
    return {
        dest[len(prefix):]: value
        for dest, value in vars(args).items()
        if dest.startswith(prefix)
    }


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    """Failure/estimation-error injection flags shared by run and serve."""
    fault = parser.add_argument_group(
        "fault injection",
        "seeded robustness knobs (docs/ROBUSTNESS.md); all off by default",
    )
    _add_fields(fault, FailureModel)
    _add_fields(fault, ErrorModel)


def _planner_kwargs(args: argparse.Namespace) -> dict:
    """``make_scheduler`` kwargs carrying the planner flags set away from
    their defaults (none for schedulers without a planner)."""
    default = PlannerConfig()
    planner = {
        name: value
        for name, value in _fields(PlannerConfig, args).items()
        if value != getattr(default, name)
    }
    if planner and args.scheduler.startswith("FlowTime"):
        return {"planner": planner}
    return {}


def _fault_models(args: argparse.Namespace):
    """(FailureModel | None, ErrorModel | None, fault seed) from the fault
    flags."""
    failure = _fields(FailureModel, args)
    error_model = ErrorModel(**_fields(ErrorModel, args))
    return (
        FailureModel(**failure) if failure["setback_prob"] > 0.0 else None,
        None if error_model == ErrorModel() else error_model,
        failure["seed"],
    )


def _cluster(args: argparse.Namespace) -> ClusterCapacity:
    return ClusterCapacity.uniform(cpu=args.cpu, mem=args.mem)


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlowTime (ICDCS 2018) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v info + timing tables, -vv debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="log errors only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate-trace", help="generate a replayable workload trace (JSON)"
    )
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.add_argument("--workflows", type=int, default=4)
    gen.add_argument("--jobs", type=int, default=12, help="jobs per workflow")
    gen.add_argument("--adhoc", type=int, default=30, help="number of ad-hoc jobs")
    gen.add_argument(
        "--looseness",
        type=float,
        nargs=2,
        default=(4.0, 8.0),
        metavar=("MIN", "MAX"),
        help="deadline as a multiple of the critical path",
    )
    gen.add_argument("--rate", type=float, default=0.7, help="ad-hoc arrivals/slot")
    gen.add_argument("--spread", type=int, default=50, help="workflow start spread")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--scientific",
        action="store_true",
        help="use Bharathi scientific shapes instead of layered random DAGs",
    )
    _add_cluster_args(gen)

    dec = sub.add_parser(
        "decompose", help="show the decomposed per-job deadline windows"
    )
    dec.add_argument("--trace", required=True)
    dec.add_argument("--workflow", help="workflow id (default: all)")
    dec.add_argument(
        "--chart", action="store_true", help="render windows as ASCII bars"
    )
    _add_cluster_args(dec)

    run = sub.add_parser("run", help="simulate one scheduler over a trace")
    run.add_argument("--trace", required=True)
    run.add_argument(
        # Resolved from the live registry, so schedulers added via
        # register_scheduler() are immediately accepted with no CLI edits.
        "--scheduler", default="FlowTime", choices=sorted(available_schedulers())
    )
    _add_fields(run, SimulationConfig)
    _add_fields(run, PlannerConfig)
    run.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a JSONL event trace of the run (arrivals, placements, "
        "completions, deadline misses) to PATH",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="print the per-phase timing table (decompose, lp.build, "
        "lp.solve, sched.decide, sim.slot, ...) and the SLO status",
    )
    _add_cluster_args(run)
    _add_fault_args(run)

    ver = sub.add_parser(
        "verify",
        help="independently validate a JSONL run trace",
        description="Re-derive correctness from a run's JSONL event trace "
        "(written by `repro run --trace-out` or `repro serve --trace-out`): "
        "lifecycle ordering, unique completions, placement windows. Given "
        "the workload (--workload) the full set applies: per-slot capacity, "
        "DAG precedence, demand conservation, and recomputed headline "
        "metrics. Exits 1 on any violation.",
    )
    ver.add_argument("run_trace", metavar="RUN_JSONL", help="JSONL event trace")
    ver.add_argument(
        "--workload",
        metavar="TRACE_JSON",
        help="the workload trace the run executed (enables capacity, "
        "precedence, and conservation checks plus metric recomputation)",
    )
    ver.add_argument(
        "--slot-seconds",
        type=float,
        default=None,
        help="slot length for metric conversion (default: the run_start "
        "event's recorded value)",
    )
    _add_cluster_args(ver)

    cmp_parser = sub.add_parser(
        "compare", help="run several schedulers over the same trace"
    )
    cmp_parser.add_argument("--trace", required=True)
    cmp_parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["FlowTime", "CORA", "EDF", "Fair", "FIFO"],
        choices=sorted(available_schedulers()),
    )
    _add_cluster_args(cmp_parser)

    serve = sub.add_parser(
        "serve",
        help="run the online scheduler service behind a JSON/HTTP API",
        description="Start a long-running scheduler service. Submit "
        "workflows (POST /workflows) and ad-hoc jobs (POST /jobs) in the "
        "trace wire format; inspect GET /plan, /status, /metrics. SIGTERM "
        "or Ctrl-C drains gracefully: admission stops, in-flight work "
        "finishes, the trace flushes, and a run summary prints.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 binds an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--scheduler", default="FlowTime", choices=sorted(available_schedulers())
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="shard the cluster into N independent scheduler services "
        "behind a routing frontend (docs/SHARDING.md); each shard owns a "
        "1/N capacity slice, its own journal (--journal PATH.shardN) and "
        "solver stack. 1 (default) serves the classic single service",
    )
    serve.add_argument(
        "--rebalance-interval",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="skyline rebalancer cycle period with --shards > 1 "
        "(0 disables periodic rebalancing; POST /rebalance still works)",
    )
    serve.add_argument(
        "--reconcile-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="periodic migration-orphan reconcile period with --shards > 1 "
        "(0 disables the loop; POST /reconcile still works)",
    )
    serve.add_argument(
        "--failover",
        action="store_true",
        help="with --shards > 1: run the supervisor daemon — restart dead "
        "shards and, past the --dead-after grace, re-home their committed "
        "workflows from their journals (docs/ROBUSTNESS.md)",
    )
    _add_fields(serve, DetectorConfig)
    _add_fields(serve, ServiceConfig, batch_window_s=0.05)
    serve.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a JSONL event trace (flushed on drain) to PATH",
    )
    serve.add_argument(
        "--trace-rotate-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size-cap the --trace-out file: rotate to PATH.1..PATH.N when "
        "it would exceed MB megabytes, so a long-running server cannot "
        "fill the disk (default: unbounded)",
    )
    serve.add_argument(
        "--trace-rotate-backups",
        type=int,
        default=3,
        metavar="N",
        help="rotated generations to keep (with --trace-rotate-mb)",
    )
    slo = serve.add_argument_group("service-level objectives", "thresholds behind GET /slo")
    _add_fields(slo, SLOConfig)
    _add_fields(serve, PlannerConfig, "solve_budget_s")
    chaos = serve.add_argument_group(
        "chaos injection",
        "seeded solver-fault injection for robustness experiments "
        "(scripts/chaos_smoke.py drives these); the hook is process-wide, "
        "so with --shards it reaches every shard",
    )
    _add_fields(chaos, ChaosConfig)
    _add_cluster_args(serve)
    _add_fault_args(serve)

    trace_parser = sub.add_parser(
        "trace",
        help="query a JSONL run trace",
        description="Inspect a run's JSONL event trace (written by "
        "`repro run --trace-out` or `repro serve --trace-out`).",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_query = trace_sub.add_parser(
        "query",
        help="reconstruct one request's timeline by its request id",
        description="Join every event belonging to one submission — "
        "admission decision, arrivals, placements, completion, deadline "
        "outcome — out of the flat trace, by the X-Request-Id it was "
        "submitted under.",
    )
    trace_query.add_argument(
        "run_trace", metavar="RUN_JSONL", help="JSONL event trace"
    )
    trace_query.add_argument(
        "--request", required=True, metavar="ID", help="request id to join"
    )
    trace_query.add_argument(
        "--json",
        action="store_true",
        help="emit the timeline as JSON instead of text",
    )
    trace_query.add_argument(
        "--max-events",
        type=int,
        default=50,
        help="cap on listed events in text output",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running scheduler service",
        description="Poll /status, /metrics and /slo of a `repro serve` "
        "instance and render throughput, rolling latencies, queue depth, "
        "and the SLO error budget. Ctrl-C exits.",
    )
    top.add_argument(
        "--url", required=True, help="server root, e.g. http://127.0.0.1:8080"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (seconds)"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render this many frames, then exit (default: loop forever)",
    )
    top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    cluster = _cluster(args)
    trace = generate_trace(
        n_workflows=args.workflows,
        jobs_per_workflow=args.jobs,
        n_adhoc=args.adhoc,
        capacity=cluster,
        looseness=tuple(args.looseness),
        adhoc_rate_per_slot=args.rate,
        workflow_spread_slots=args.spread,
        scientific=args.scientific,
        seed=args.seed,
    )
    save_trace(trace, args.out)
    print(
        f"wrote {args.out}: {trace.n_deadline_jobs} deadline jobs in "
        f"{len(trace.workflows)} workflows + {len(trace.adhoc_jobs)} ad-hoc jobs"
    )
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    cluster = _cluster(args)
    trace = load_trace(args.trace)
    workflows = [
        wf
        for wf in trace.workflows
        if args.workflow is None or wf.workflow_id == args.workflow
    ]
    if not workflows:
        print(f"error: no workflow {args.workflow!r} in {args.trace}", file=sys.stderr)
        return 2
    for workflow in workflows:
        result = decompose_deadline(workflow, cluster)
        method = "critical-path fallback" if result.used_fallback else "resource-demand"
        print(
            f"{workflow.workflow_id}: window [{workflow.start_slot}, "
            f"{workflow.deadline_slot}), {method}, "
            f"{len(result.node_sets)} levels"
        )
        if args.chart:
            from repro.analysis.windows_chart import render_windows

            print(render_windows(workflow, result.windows))
        else:
            for job_id in sorted(result.windows):
                window = result.windows[job_id]
                print(
                    f"  {job_id:<24} [{window.release_slot:>5}, "
                    f"{window.deadline_slot:>5})"
                )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    cluster = _cluster(args)
    trace = load_trace(args.trace)
    failures, error_model, fault_seed = _fault_models(args)
    config = SimulationConfig(
        record_execution=args.gantt,
        failures=failures,
        **_fields(SimulationConfig, args),
    )
    if error_model is not None:
        # Estimates stay put; the true structure deviates per the model —
        # the scheduler plans against erroneous estimates while the engine
        # executes reality (EXT-1 style robustness runs).
        from repro.estimation.errors import (
            apply_estimation_errors,
            apply_workflow_estimation_errors,
        )

        trace = dc_replace(
            trace,
            workflows=tuple(
                apply_workflow_estimation_errors(
                    wf, error_model, seed=fault_seed + i
                )
                for i, wf in enumerate(trace.workflows)
            ),
            adhoc_jobs=tuple(
                apply_estimation_errors(
                    trace.adhoc_jobs, error_model, seed=fault_seed
                )
            ),
        )
    sink = JsonlSink(args.trace_out) if args.trace_out else None
    obs = Observability(
        sink=sink, level=verbosity_to_level(args.quiet, args.verbose)
    )
    from repro.verify import VerificationError

    try:
        with obs:
            outcome = run_one(
                args.scheduler,
                trace,
                cluster,
                config=config,
                scheduler_kwargs=_planner_kwargs(args),
                obs=obs,
            )
    except VerificationError as error:
        print(error.report.render(), file=sys.stderr)
        return 1
    result = outcome.result
    if config.verify:
        report = result.verification
        # The end-of-run validation passed; also check the windows and the
        # reported metrics against an independent recomputation.
        from repro.analysis.experiments import canonical_windows
        from repro.simulator.metrics import summarize
        from repro.verify import ScheduleValidator

        windows = canonical_windows(trace, cluster)
        validator = ScheduleValidator.of_trace(trace, cluster, windows)
        validator.check_windows(report)
        validator.check_reported(result, summarize(result, windows), report)
        if not report.ok:
            print(report.render(), file=sys.stderr)
            return 1
        print(report.summary())
    turnaround = outcome.adhoc_turnaround_s
    turnaround_text = (
        "n/a (no ad-hoc jobs)" if turnaround != turnaround else f"{turnaround:.1f} s"
    )
    print(f"scheduler:            {args.scheduler}")
    print(f"finished:             {result.finished} ({result.n_slots} slots)")
    print(f"jobs missed:          {outcome.n_missed_jobs}")
    print(f"workflows missed:     {outcome.n_missed_workflows}")
    print(f"ad-hoc turnaround:    {turnaround_text}")
    if sink is not None:
        print(f"trace:                wrote {sink.n_events} events to {args.trace_out}")
    print(render_utilization(result, cluster))
    if args.metrics or args.verbose:
        print()
        print(format_phase_table(result.metrics))
        slowest = format_slowest_slot(result.metrics)
        if slowest:
            print(slowest)
        # The engine feeds the slo.* metrics in a batch run too; read them
        # back the way the service's GET /slo does.
        print(format_slo(SLOTracker(obs.registry).snapshot()))
    if args.gantt:
        print()
        print(render_gantt(result))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.obs import read_trace
    from repro.verify import recompute_trace_metrics, validate_trace

    events = read_trace(args.run_trace)
    if not events:
        print(f"error: {args.run_trace} contains no events", file=sys.stderr)
        return 2
    trace = windows = capacity = None
    if args.workload:
        from repro.analysis.experiments import canonical_windows

        trace = load_trace(args.workload)
        capacity = _cluster(args)
        windows = canonical_windows(trace, capacity)
    report = validate_trace(
        events, trace=trace, capacity=capacity, windows=windows
    )
    print(report.render())
    try:
        metrics = recompute_trace_metrics(
            events, trace=trace, windows=windows, slot_seconds=args.slot_seconds
        )
    except ValueError as error:
        print(f"metrics: not recomputable ({error})")
    else:
        turnaround = metrics["adhoc_turnaround_s"]
        print("recomputed from the trace:")
        if windows:
            print(f"  jobs missed:        {int(metrics['jobs_missed'])}")
            print(f"  max delta:          {metrics['max_delta_s']:.1f} s")
        print(f"  workflows missed:   {int(metrics['workflows_missed'])}")
        print(
            "  ad-hoc turnaround:  "
            + ("n/a" if turnaround is None else f"{turnaround:.1f} s")
        )
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    # Only `trace query` exists today; argparse enforces the subcommand.
    import json as json_module

    from repro.obs import format_timeline, read_trace, request_timeline

    events = read_trace(args.run_trace)
    timeline = request_timeline(events, args.request)
    if args.json:
        print(json_module.dumps(timeline.to_dict(), indent=2))
    else:
        print(format_timeline(timeline, max_events=args.max_events))
    return 0 if timeline.found else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service import run_top

    iterations = 1 if args.once else args.iterations
    try:
        return run_top(
            args.url, interval_s=args.interval, iterations=iterations
        )
    except KeyboardInterrupt:
        return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cluster = _cluster(args)
    trace = load_trace(args.trace)
    comparison = run_comparison(trace, cluster, args.algorithms)
    print(format_comparison_table(comparison))
    if "FlowTime" in comparison.names:
        print("\nad-hoc turnaround relative to FlowTime:")
        for name, ratio in turnaround_ratios(comparison).items():
            print(f"  {name:<14} {ratio:5.2f}x")
    return 0


def _serve_until_signal(args: argparse.Namespace, routes, banner: list[str]) -> None:
    """Serve *routes* over HTTP until SIGTERM or Ctrl-C, then stop
    accepting requests; the caller drains its backend.  *banner* is
    printed first, ``{url}`` filled into its first line."""
    import signal
    import threading

    from repro.service import ServiceHTTPServer

    server = ServiceHTTPServer(routes, args.host, args.port).start()
    print(banner[0].format(url=server.url), flush=True)
    for line in banner[1:]:
        print(line, flush=True)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    stop.wait()

    print("draining...", file=sys.stderr, flush=True)
    server.shutdown()


def _serve_configs(args: argparse.Namespace):
    """``repro serve``'s configs from its flags: (service, chaos, failure
    detector, supervisor); ``--dead-after`` doubles as the failover grace."""
    failures, error_model, fault_seed = _fault_models(args)
    service = ServiceConfig(
        scheduler=args.scheduler,
        scheduler_kwargs=_planner_kwargs(args),
        failures=failures,
        error_model=error_model,
        fault_seed=fault_seed,
        slo=SLOConfig(**_fields(SLOConfig, args)),
        **_fields(ServiceConfig, args),
    )
    detector = DetectorConfig(**_fields(DetectorConfig, args))
    return (
        service,
        ChaosConfig(**_fields(ChaosConfig, args)),
        detector,
        SupervisorConfig(failover_after_s=detector.dead_after_s),
    )


def _trace_sink(args: argparse.Namespace, suffix: str = "") -> JsonlSink | None:
    """The ``--trace-out`` sink at PATH + *suffix*, size-capped by
    ``--trace-rotate-mb`` (None without ``--trace-out``)."""
    if not args.trace_out:
        return None
    mb = args.trace_rotate_mb
    return JsonlSink(
        args.trace_out + suffix,
        max_bytes=int(mb * 1024 * 1024) if mb else None,
        backups=args.trace_rotate_backups,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.service import SchedulerService, ServiceRoutes

    cluster = _cluster(args)
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    config, chaos, detector, supervisor = _serve_configs(args)
    with ExitStack() as stack:
        # The solver fault hook is process-wide: one context covers the
        # single service and every in-process shard alike.
        if chaos.solver_fault_prob > 0.0 or chaos.solver_slow_prob > 0.0:
            stack.enter_context(chaos_solver(chaos))
            print(
                f"chaos: fault_prob={chaos.solver_fault_prob} "
                f"slow_prob={chaos.solver_slow_prob} seed={chaos.seed}",
                flush=True,
            )
        # Only the import heap exists yet, and it lives as long as the process.
        # Frozen, no collection walks it, not even at exit; later objects are.
        gc.freeze()
        if args.shards > 1:
            return _serve_sharded(args, cluster, config, detector, supervisor)
        sink = _trace_sink(args)
        obs = Observability(
            sink=sink, level=verbosity_to_level(args.quiet, args.verbose)
        )
        service = SchedulerService(cluster, config, obs=obs).start()
        banner = [
            f"serving {args.scheduler} on {{url}}",
            "endpoints: POST /workflows  POST /jobs  GET /plan  GET /status  "
            "GET /metrics[?format=prometheus]  GET /slo  GET /healthz  "
            "GET /readyz",
        ]
        if config.journal_path:
            banner.append(f"journal:   {config.journal_path}")
        _serve_until_signal(args, ServiceRoutes(service), banner)
        # Graceful drain: in-flight work finishes, the trace flushes, then
        # the run is summarised.
        result = service.drain()
        status = service.status()
        missed = sum(not w.met_deadline for w in result.workflows.values())
        print(f"drained after {result.n_slots} slots (finished={result.finished})")
        print(
            f"workflows: {status.accepted_workflows} accepted, "
            f"{status.rejected_workflows} rejected, {missed} missed deadline"
        )
        print(
            f"ad-hoc:    {status.accepted_adhoc} accepted, "
            f"{status.shed_adhoc} shed"
        )
        plan_failures = getattr(service.scheduler, "plan_failures", 0)
        if plan_failures:
            print(f"degraded:  {plan_failures} plan failures survived")
        if sink is not None:
            rotated = (
                f" ({sink.rotations} rotations)" if sink.rotations else ""
            )
            print(
                f"trace:     wrote {sink.n_events} events to "
                f"{args.trace_out}{rotated}"
            )
    obs.close()
    return 0


def _serve_sharded(
    args: argparse.Namespace, cluster, config, detector_config, supervisor_config
) -> int:
    """``repro serve --shards N``: a router frontend over N local shards.

    Each shard owns a 1/N capacity slice, its own journal
    (``--journal PATH.shardN``), trace sink (``--trace-out
    PATH.shardN``, rotated like the single service's) and metrics
    registry; the router multiplexes the single-service HTTP dialect over
    the fleet and the skyline rebalancer runs on its own cadence
    (docs/SHARDING.md).
    """
    from dataclasses import replace as dc_replace

    from repro.cluster import (
        FailureDetector,
        Rebalancer,
        RouterRoutes,
        ShardRouter,
        Supervisor,
        slice_capacity,
    )
    from repro.service import SchedulerService
    from repro.verify import check_cross_shard_conservation

    try:
        slices = slice_capacity(cluster, args.shards)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    level = verbosity_to_level(args.quiet, args.verbose)
    shards = []
    journal = config.journal_path
    for i, capacity_slice in enumerate(slices):
        shard_config = dc_replace(
            config, journal_path=f"{journal}.shard{i}" if journal else None
        )
        obs = Observability(sink=_trace_sink(args, f".shard{i}"), level=level)
        shards.append(
            SchedulerService(
                capacity_slice, shard_config, obs=obs, name=f"shard{i}"
            ).start()
        )
    router = ShardRouter(shards)
    rebalancer = Rebalancer(router)
    if args.rebalance_interval > 0:
        rebalancer.start(args.rebalance_interval)
    if args.reconcile_interval > 0:
        router.start_reconcile_loop(args.reconcile_interval)
    detector = FailureDetector(shards, detector_config, obs=router.obs).start()
    router.attach_detector(detector)
    supervisor = None
    if args.failover:
        supervisor = Supervisor(
            router, detector, supervisor_config, rebalancer=rebalancer
        ).start(detector_config.probe_interval_s)
    banner = [
        f"serving {args.scheduler} x{args.shards} shards behind router on {{url}}",
        "endpoints: POST /workflows  POST /jobs  POST /rebalance  "
        "POST /reconcile  POST /failover  GET /status  GET /metrics  "
        "GET /slo  GET /shards  GET /healthz  GET /readyz",
    ]
    if supervisor is not None:
        banner.append(
            f"failover:  supervisor on (probe {detector_config.probe_interval_s}s, "
            f"dead after {detector_config.dead_after_s}s)"
        )
    if journal:
        banner.append(f"journals:  {journal}.shard0..shard{args.shards - 1}")
    routes = RouterRoutes(router, rebalancer=rebalancer, supervisor=supervisor)
    _serve_until_signal(args, routes, banner)
    if supervisor is not None:
        supervisor.stop()
    detector.stop()
    rebalancer.stop()
    router.stop_reconcile_loop()
    router.reconcile()
    missed = 0
    for shard in shards:
        result = shard.drain()
        shard.obs.close()
        missed += sum(
            not w.met_deadline for w in result.workflows.values()
        )
    status = router.status()
    aggregate = status["aggregate"]
    owned = router.owned_by_shard()
    orphans = {
        name: list(entries)
        for name, entries in router.orphans_by_shard().items()
    }
    report = check_cross_shard_conservation(
        [wid for ids in owned.values() for wid in ids], owned, orphans
    )
    print(
        f"workflows: {aggregate['accepted_workflows']} accepted, "
        f"{aggregate['rejected_workflows']} rejected, {missed} missed "
        "deadline"
    )
    print(
        f"ad-hoc:    {aggregate['accepted_adhoc']} accepted, "
        f"{aggregate['shed_adhoc']} shed"
    )
    for name in sorted(owned):
        shard_status = status["shards"].get(name, {})
        print(
            f"  {name}: {shard_status.get('accepted_workflows', 0)} "
            f"workflows, {shard_status.get('accepted_adhoc', 0)} ad-hoc, "
            f"{len(owned[name])} owned at drain"
        )
    print(f"conservation: {report.summary()}")
    return 0 if report.ok else 1


_COMMANDS = {
    "generate-trace": _cmd_generate,
    "decompose": _cmd_decompose,
    "run": _cmd_run,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "top": _cmd_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=verbosity_to_level(args.quiet, args.verbose),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    logging.getLogger("repro").setLevel(
        verbosity_to_level(args.quiet, args.verbose)
    )
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError) as error:
        # Bad paths, malformed trace files, workload validation failures:
        # report cleanly instead of tracebacking at the user.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
