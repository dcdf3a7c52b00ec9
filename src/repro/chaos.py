"""Chaos harness: seeded fault injection for robustness testing.

The fault-tolerance claims of this codebase (docs/ROBUSTNESS.md) are only
worth anything if they are *exercised*: a degraded-mode path nobody ever
enters is a degraded-mode path that does not work.  This module turns the
solver's fault-injection hook (:func:`repro.lp.solver.
install_fault_injector`) into a reproducible chaos experiment:

* **Seeded.**  Every roll comes from one ``random.Random(seed)`` — the
  same :class:`ChaosConfig` produces the same fault sequence, so a chaos
  failure found in CI replays locally from its config alone.
* **One roll, one solve.**  A solve is one attempt (no retry), so the
  injected fault rate is the *observed* solve-failure rate: every injected
  fault sends the planner to degraded mode.
* **Slow faults too.**  ``solver_slow_prob`` injects sleeps instead of
  exceptions, which trips the wall-time budget path
  (``SolverFailure(reason="budget")``) rather than the error path.

Typical use::

    with chaos_solver(ChaosConfig(solver_fault_prob=0.1, seed=7)) as chaos:
        result = run_simulation(...)      # or drive a SchedulerService
    assert chaos.n_faults > 0             # the experiment actually bit

The kill/restart half of a chaos experiment lives on the service:
:meth:`repro.service.core.SchedulerService.kill` plus a journal
(``journal_path``) simulate SIGKILL + recovery; ``scripts/chaos_smoke.py``
composes both into the CI chaos gate.

**Transport chaos** (:class:`ChaosTransport`) extends the same seeded
discipline to the cluster wire: wrap any shard handle (a
``SchedulerService``, a ``RemoteShard``, or anything duck-typed like
them) and every remote call rolls seeded drop / delay / duplicate
faults, plus an explicit :meth:`~ChaosTransport.partition` switch for
network splits.  Drops and partitions surface as :class:`OSError` —
the same error class a real dead socket raises — so the router, failure
detector, and supervisor exercise their production paths, not a
test-only one.  The ``fault_log`` records every injected fault in
order, making an experiment byte-reproducible from its seed.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.lp.problem import LinearProgram
from repro.lp.solver import install_fault_injector

__all__ = [
    "ChaosConfig",
    "ChaosInjector",
    "ChaosTransport",
    "ChaosTransportConfig",
    "InjectedSolverError",
    "chaos_solver",
]


class InjectedSolverError(RuntimeError):
    """A chaos-injected solver fault (distinguishable from real bugs)."""


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos experiment's fault plan (each field's ``help`` says what
    it sets).  A fault raises :class:`InjectedSolverError` and a slow solve
    sleeps, both before the solver runs; the same config gives the same
    fault sequence."""

    solver_fault_prob: float = field(default=0.0, metadata={
        "flag": "--chaos-fault-prob", "metavar": "P",
        "help": "per-solve-attempt probability of an injected solver fault",
    })
    solver_slow_prob: float = field(default=0.0, metadata={
        "flag": "--chaos-slow-prob", "metavar": "P",
        "help": "per-attempt probability of an injected slow solve",
    })
    solver_slow_s: float = field(default=0.05, metadata={
        "flag": "--chaos-slow-s", "metavar": "SECONDS",
        "help": "duration of an injected slow solve",
    })
    seed: int = field(default=0, metadata={
        "flag": "--chaos-seed", "help": "chaos fault-plan seed",
    })

    def __post_init__(self) -> None:
        for name in ("solver_fault_prob", "solver_slow_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.solver_slow_s < 0:
            raise ValueError("solver_slow_s must be >= 0")


class ChaosInjector:
    """The callable installed into the solver; counts what it did.

    Attributes:
        n_calls: solves seen.
        n_faults: solves failed with :class:`InjectedSolverError`.
        n_slow: solves delayed by ``solver_slow_s``.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self.n_calls = 0
        self.n_faults = 0
        self.n_slow = 0

    def __call__(self, problem: LinearProgram) -> None:
        self.n_calls += 1
        if self._rng.random() < self.config.solver_slow_prob:
            self.n_slow += 1
            time.sleep(self.config.solver_slow_s)
        if self._rng.random() < self.config.solver_fault_prob:
            self.n_faults += 1
            raise InjectedSolverError("injected solver fault")


@dataclass(frozen=True)
class ChaosTransportConfig:
    """One transport-chaos experiment's fault plan.

    Attributes:
        drop_prob: per-call probability the request is "lost" — an
            :class:`OSError` is raised and the underlying shard is never
            invoked (the caller cannot tell a dropped request from a
            dropped response; idempotency keys are what make retrying
            safe either way).
        delay_prob: per-call probability of sleeping ``delay_s`` before
            delivery (trips client timeouts / detector suspicion).
        delay_s: the injected delay in seconds.
        duplicate_prob: per-call probability the request is delivered
            *twice* — the caller receives the second answer, modelling a
            retransmission whose original also landed.  Exactly-once
            admission then rests entirely on idempotency-key dedupe.
        seed: RNG seed; same config + same call sequence, same faults.
    """

    drop_prob: float = 0.0
    delay_prob: float = 0.0
    delay_s: float = 0.01
    duplicate_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "delay_prob", "duplicate_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


class ChaosTransport:
    """Seeded faulty wire around a shard handle.

    Duck-types as the shard it wraps: every public method call first
    rolls the configured faults, then (unless dropped) delegates.
    Lifecycle methods (``start``/``kill``/``restart``/``drain``) pass
    through unfaulted — chaos models the *network*, and you can
    always walk to the machine.  ``name`` and ``journal_path`` are
    plain attributes for the same reason.

    Faults are recorded in order in ``fault_log`` as
    ``(kind, method)`` tuples; with a fixed seed and call sequence the
    log (and hence the experiment) is exactly reproducible.
    """

    _PASSTHROUGH = frozenset({"start", "kill", "restart", "drain"})

    def __init__(self, shard, config: ChaosTransportConfig):
        self._shard = shard
        self.config = config
        self._rng = random.Random(config.seed)
        self._partitioned = False
        self.fault_log: list[tuple[str, str]] = []
        self.n_calls = 0

    # -- identity passthrough ----------------------------------------------------

    @property
    def name(self) -> str:
        return self._shard.name

    @property
    def journal_path(self):
        return getattr(self._shard, "journal_path", None)

    @property
    def wrapped(self):
        """The underlying shard handle (for tests / teardown)."""
        return self._shard

    # -- the partition switch ----------------------------------------------------

    def partition(self) -> None:
        """Cut the wire: every call fails until :meth:`heal`."""
        self._partitioned = True

    def heal(self) -> None:
        self._partitioned = False

    @property
    def partitioned(self) -> bool:
        return self._partitioned

    # -- faulty delegation -------------------------------------------------------

    def __getattr__(self, attr):
        if attr.startswith("_"):
            raise AttributeError(attr)
        target = getattr(self._shard, attr)
        if not callable(target) or attr in self._PASSTHROUGH:
            return target

        def faulty(*args, **kwargs):
            return self._call(attr, target, args, kwargs)

        faulty.__name__ = attr
        return faulty

    def _call(self, method: str, target, args, kwargs):
        self.n_calls += 1
        if self._partitioned:
            self.fault_log.append(("partition", method))
            raise OSError(
                f"chaos: partitioned from shard {self.name!r} ({method})"
            )
        # Fixed roll order (drop, delay, duplicate) keeps the RNG stream —
        # and therefore the whole fault sequence — a pure function of the
        # seed and the call sequence.
        drop = self._rng.random() < self.config.drop_prob
        delay = self._rng.random() < self.config.delay_prob
        duplicate = self._rng.random() < self.config.duplicate_prob
        if drop:
            self.fault_log.append(("drop", method))
            raise OSError(
                f"chaos: dropped request to shard {self.name!r} ({method})"
            )
        if delay:
            self.fault_log.append(("delay", method))
            time.sleep(self.config.delay_s)
        if duplicate:
            self.fault_log.append(("duplicate", method))
            target(*args, **kwargs)  # the original delivery...
            return target(*args, **kwargs)  # ...and the retransmission
        return target(*args, **kwargs)


@contextmanager
def chaos_solver(config: ChaosConfig) -> Iterator[ChaosInjector]:
    """Install a seeded solver-fault injector for the duration of the block.

    The injector is process-global (it rides the module-level solver
    hook), so do not nest or run chaos experiments concurrently; the hook
    is removed on exit either way.
    """
    injector = ChaosInjector(config)
    install_fault_injector(injector)
    try:
        yield injector
    finally:
        install_fault_injector(None)
