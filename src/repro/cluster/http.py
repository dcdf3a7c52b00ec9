"""HTTP frontend for the shard router: one URL over the whole fleet.

Speaks the same submission dialect as a single ``repro serve`` process —
``POST /workflows`` and ``POST /jobs`` in the trace wire format, answers
are :class:`~repro.service.api.SubmitResult` bodies — so every existing
client (``HttpServiceClient``, ``scripts/loadgen.py``, curl) points at
the router unchanged.  Each answer carries the deciding shard's name in
the ``shard`` field.

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
counters) in text exposition 0.0.4 — per-shard engine metrics are still
scraped from each shard's own ``/metrics`` endpoint.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.cluster.rebalance import Rebalancer
from repro.cluster.router import ShardRouter
from repro.obs import PROMETHEUS_CONTENT_TYPE, new_request_id, render_prometheus
from repro.service.api import SubmitResult
from repro.service.http import (
    _MAX_BODY_BYTES,
    _REJECT_STATUS,
    _REQUEST_ID_OK,
    _RETRYABLE_REASONS,
    _retry_after,
)
from repro.workloads.traces import job_from_dict, workflow_from_dict

__all__ = ["RouterHTTPServer", "serve_router_http"]


class _RouterHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-shard-router"

    @property
    def router(self) -> ShardRouter:
        return self.server.router  # type: ignore[attr-defined]

    @property
    def rebalancer(self) -> Rebalancer | None:
        return self.server.rebalancer  # type: ignore[attr-defined]

    @property
    def supervisor(self):
        return self.server.supervisor  # type: ignore[attr-defined]

    # -- routing -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        if path == "/status":
            self._reply(200, self.router.status())
        elif path == "/metrics":
            fmt = parse_qs(split.query).get("format", [""])[0]
            if fmt == "prometheus":
                self._reply_text(
                    200, render_prometheus(self.router.obs.registry)
                )
                return
            self._reply(200, self.router.metrics())
        elif path == "/slo":
            self._reply(200, self.router.slo())
        elif path == "/shards":
            self._reply(200, self._shards())
        elif path == "/healthz":
            self._reply(200, {"ok": True, "role": "router"})
        elif path == "/readyz":
            alive = self.router.status()["running_shards"]
            self._reply(
                200 if alive else 503,
                {"ready": alive > 0, "running_shards": alive},
            )
        else:
            self._reply(404, {"error": f"no such resource: {path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/workflows":
            self._submit(workflow_from_dict, self.router.submit_workflow)
        elif path == "/jobs":
            self._submit(job_from_dict, self.router.submit_adhoc)
        elif path == "/rebalance":
            if self.rebalancer is None:
                self._reply(409, {"error": "no rebalancer configured"})
            else:
                self._reply(200, self.rebalancer.cycle())
        elif path == "/reconcile":
            self._reply(200, self.router.reconcile())
        elif path == "/failover":
            self._failover()
        else:
            self._reply(404, {"error": f"no such resource: {path}"})

    def _failover(self) -> None:
        """Operator lever: force a failover, or set/lift a veto."""
        if self.supervisor is None:
            self._reply(409, {"error": "no supervisor configured"})
            return
        body = self._read_body()
        if body is None:
            return
        name = body.get("shard")
        if not name or name not in self.router.shard_names:
            self._reply(400, {"error": f"unknown shard {name!r}"})
            return
        if "veto" in body:
            self.supervisor.veto(name, bool(body["veto"]))
            self._reply(
                200, {"shard": name, "vetoed": sorted(self.supervisor.vetoes())}
            )
            return
        self._reply(200, self.supervisor.force_failover(name))

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
                except (RuntimeError, TimeoutError, OSError):
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

    def _submit(self, parse, submit) -> None:
        supplied = (self.headers.get("X-Request-Id") or "").strip()
        request_id = (
            supplied
            if supplied and _REQUEST_ID_OK.match(supplied)
            else new_request_id()
        )
        id_header = {"X-Request-Id": request_id}
        body = self._read_body(id_header)
        if body is None:
            return
        try:
            entity = parse(body)
        except (KeyError, TypeError, ValueError) as error:
            self._reply(
                400,
                {"error": f"malformed submission: {error}"},
                headers=id_header,
            )
            return
        key = self.headers.get("Idempotency-Key") or None
        try:
            result: SubmitResult = submit(
                entity, idempotency_key=key, request_id=request_id
            )
        except TimeoutError:
            self._reply(
                504,
                {"error": "shard did not answer in time"},
                headers=id_header,
            )
            return
        status = 200 if result.accepted else _REJECT_STATUS.get(result.reason, 400)
        headers = {"X-Request-Id": result.request_id or request_id}
        if not result.accepted and result.reason in _RETRYABLE_REASONS:
            headers["Retry-After"] = _retry_after(1.0)
        self._reply(status, result.to_dict(), headers=headers)

    # -- plumbing -----------------------------------------------------------------

    def _read_body(self, extra_headers: dict | None = None) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if length <= 0 or length > _MAX_BODY_BYTES:
            self._reply(
                400,
                {"error": "missing or oversized request body"},
                headers=extra_headers,
            )
            return None
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._reply(
                400,
                {"error": "request body is not valid JSON"},
                headers=extra_headers,
            )
            return None
        if not isinstance(body, dict):
            self._reply(
                400,
                {"error": "request body must be a JSON object"},
                headers=extra_headers,
            )
            return None
        return body

    def _reply(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _reply_text(self, status: int, text: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        import logging

        self.router.obs.log(
            logging.DEBUG,
            "router http %s " + format,
            self.client_address[0],
            *args,
        )


class RouterHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`ShardRouter`.

    ``port=0`` binds an ephemeral port; read it back from :attr:`url`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        router: ShardRouter,
        *,
        rebalancer: Rebalancer | None = None,
        supervisor=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.router = router
        self.rebalancer = rebalancer
        self.supervisor = supervisor
        super().__init__((host, port), _RouterHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


def serve_router_http(
    router: ShardRouter,
    *,
    rebalancer: Rebalancer | None = None,
    supervisor=None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> RouterHTTPServer:
    """Start the router frontend on a daemon thread; returns the server."""
    server = RouterHTTPServer(
        router, rebalancer=rebalancer, supervisor=supervisor, host=host, port=port
    )
    thread = threading.Thread(
        target=server.serve_forever, name="repro-router-http", daemon=True
    )
    thread.start()
    return server
