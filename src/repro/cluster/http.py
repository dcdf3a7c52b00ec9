"""HTTP route table for the shard router: one URL over the whole fleet.

:class:`RouterRoutes` binds the submission dialect of
:mod:`repro.service.routes` — ``POST /workflows`` and ``POST /jobs`` in
the trace wire format, :class:`~repro.service.api.SubmitResult` answers,
the same request-id, idempotency and ``Retry-After`` rules — to a
:class:`ShardRouter`, so every existing client (``HttpServiceClient``,
``scripts/loadgen.py``, curl) points at the router unchanged.  Each
answer carries the deciding shard's name in the ``shard`` field.
:class:`RouterHTTPServer` binds it to the threaded transport.

Fleet views replace the single-service ones: ``GET /status``,
``/metrics`` and ``/slo`` return ``{"aggregate": ..., "shards": {...}}``
(summed counters plus the per-shard breakdown), ``GET /shards`` lists
the fleet with liveness — detector state, time-dead, and per-shard
circuit-breaker state included when available — and ``POST /rebalance``
triggers one rebalancer cycle on demand (the periodic loop still runs if
configured).  ``POST /reconcile`` settles migration orphans; ``POST
/failover`` is the operator's lever on the supervisor: ``{"shard": S}``
forces an immediate journal-driven failover of shard S, ``{"shard": S,
"veto": true}`` exempts S from automatic failover (and ``false`` lifts
the veto).  ``/healthz`` answers while the router process lives;
``/readyz`` is ready while at least one shard is.

Prometheus exposition: ``GET /metrics?format=prometheus`` renders the
*router's own* registry (detector states, breaker opens, reroute/spill
counters, and the frontend's ``http.requests`` / ``http.request.seconds``)
in text exposition 0.0.4 — per-shard engine metrics are still scraped
from each shard's own ``/metrics`` endpoint.
"""

from __future__ import annotations

from repro.cluster.rebalance import Rebalancer
from repro.cluster.router import ShardRouter
from repro.cluster.shards import _SHARD_ERRORS
from repro.service.http import ServiceHTTPServer
from repro.service.routes import Request, Response, Routes, json_body, reply

__all__ = ["RouterHTTPServer", "RouterRoutes"]


class RouterRoutes(Routes):
    """The route table over a :class:`ShardRouter` and, when configured,
    its rebalancer and supervisor."""

    def __init__(
        self,
        router: ShardRouter,
        *,
        rebalancer: Rebalancer | None = None,
        supervisor=None,
    ):
        self.router = router
        self.rebalancer = rebalancer
        self.supervisor = supervisor
        table = {
            ("GET", "/status"): lambda _: reply(200, router.status()),
            ("GET", "/slo"): lambda _: reply(200, router.slo()),
            ("GET", "/shards"): lambda _: reply(200, self._shards()),
            ("GET", "/healthz"): lambda _: reply(200, {"ok": True, "role": "router"}),
            ("GET", "/readyz"): self._readyz,
            ("POST", "/rebalance"): self._rebalance,
            ("POST", "/reconcile"): lambda _: reply(200, router.reconcile()),
            ("POST", "/failover"): self._failover,
        }
        super().__init__(
            router.obs, router.submit_workflow, router.submit_adhoc, table
        )

    def metrics_snapshot(self) -> dict:
        return self.router.metrics()

    def _readyz(self, request: Request) -> Response:
        alive = self.router.status()["running_shards"]
        return reply(
            200 if alive else 503, {"ready": alive > 0, "running_shards": alive}
        )

    def _rebalance(self, request: Request) -> Response:
        if self.rebalancer is None:
            return reply(409, {"error": "no rebalancer configured"})
        return reply(200, self.rebalancer.cycle())

    def _failover(self, request: Request) -> Response:
        """Operator lever: force a failover, or set/lift a veto."""
        if self.supervisor is None:
            return reply(409, {"error": "no supervisor configured"})
        body = json_body(request)
        if isinstance(body, Response):
            return body
        name = body.get("shard")
        if not name or name not in self.router.shard_names:
            return reply(400, {"error": f"unknown shard {name!r}"})
        if "veto" in body:
            self.supervisor.veto(name, bool(body["veto"]))
            return reply(
                200, {"shard": name, "vetoed": sorted(self.supervisor.vetoes())}
            )
        return reply(200, self.supervisor.force_failover(name))

    def _shards(self) -> dict:
        detector = getattr(self.router, "detector", None)
        shards = []
        for shard in self.router.shards:
            entry: dict = {"name": shard.name}
            if detector is not None and detector.probed(shard.name):
                state = detector.state(shard.name)
                entry["state"] = state
                entry["alive"] = state != "dead"
                dead_for = detector.dead_for(shard.name)
                if dead_for:
                    entry["dead_for_s"] = round(dead_for, 3)
            else:
                try:
                    entry["alive"] = bool(shard.alive())
                except _SHARD_ERRORS:
                    entry["alive"] = False
            breaker = getattr(
                getattr(shard, "client", None), "breaker", None
            )
            if breaker is not None:
                entry["breaker"] = breaker.snapshot()
            url = getattr(shard, "url", None)
            if url:
                entry["url"] = url
            shards.append(entry)
        out = {
            "shards": shards,
            "placement_overrides": len(self.router.placement_overrides),
        }
        if self.supervisor is not None:
            out["supervisor"] = self.supervisor.snapshot()
        return out


class RouterHTTPServer(ServiceHTTPServer):
    """The threaded transport bound to one :class:`ShardRouter`."""

    def __init__(
        self,
        router: ShardRouter,
        *,
        rebalancer: Rebalancer | None = None,
        supervisor=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        routes = RouterRoutes(router, rebalancer=rebalancer, supervisor=supervisor)
        super().__init__(routes, host, port)
