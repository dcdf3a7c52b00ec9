"""The one background loop the cluster daemons share.

The failure detector, the supervisor, the rebalancer and the router's
reconcile step each run a pass of theirs every so often on a daemon
thread; a pass that raises is counted and the loop carries on — the next
pass starts from fresh observations anyway.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.obs import Observability

__all__ = ["PeriodicLoop"]


class PeriodicLoop:
    """Calls *fn* every ``interval_s`` on a daemon thread *thread_name*
    until :meth:`stop`; a failed pass is counted in *obs* under
    *error_counter*.  *what* names the owner in "already started"."""

    def __init__(
        self,
        what: str,
        fn: Callable[[], object],
        obs: Observability,
        error_counter: str,
        thread_name: str,
    ):
        self._what = what
        self._fn = fn
        self._obs = obs
        self._error_counter = error_counter
        self._thread_name = thread_name
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self, interval_s: float, *, immediately: bool = False) -> None:
        """Start the thread; with *immediately*, run one pass first, on
        the caller's thread (its exception is the caller's)."""
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if self._thread is not None:
            raise RuntimeError(f"{self._what} already started")
        self._stop.clear()
        if immediately:
            self._fn()

        def loop() -> None:
            while not self._stop.wait(interval_s):
                try:
                    self._fn()
                except Exception:
                    self._obs.counter(self._error_counter).inc()

        self._thread = threading.Thread(
            target=loop, name=self._thread_name, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
