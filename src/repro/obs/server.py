"""Stdlib HTTP endpoint serving metrics, health, SLO status and spans.

:class:`ObsServer` is the last mile of the observability stack: a
``ThreadingHTTPServer`` (no third-party dependencies) that a
:class:`FloorServingService` (any shard count) or a
:class:`ContinuousLearningPipeline` plugs into, exposing:

* ``GET /metrics`` — Prometheus text exposition of the service telemetry,
  with the per-shard registries merged into one fleet view.
* ``GET /healthz`` — the :class:`~repro.obs.health.HealthMonitor` report:
  aggregate status plus per-building and per-shard scorecards with
  machine-readable reasons.  Responds ``200`` while the fleet is healthy
  or degraded and ``503`` when unhealthy, so plain HTTP probes work.
* ``GET /slo`` — the :class:`~repro.obs.slo.SLOMonitor` payload: each
  objective's verdict, burn rates and the latched alert set.
* ``GET /spans`` — the most recent finished spans as JSON lines
  (``?limit=N`` caps the count), read from the runtime's active tracer.

The server binds an ephemeral port by default (``port=0``) so tests and
demos never collide; ``server.port`` reports the bound port after
:meth:`~ObsServer.start`.  Everything here reads the watched objects
through their public duck surface — this module must not import
:mod:`repro.serving` or :mod:`repro.stream` (they import :mod:`repro.obs`).
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from . import runtime
from .health import HealthMonitor
from .log import log_event
from .slo import SLOMonitor, default_serving_objectives

__all__ = ["ObsServer"]

#: Content type mandated by the Prometheus text exposition format.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_DEFAULT_SPAN_LIMIT = 256


class _ObsRequestHandler(BaseHTTPRequestHandler):
    server_version = "ReproObs/1.0"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        obs: "ObsServer" = self.server.obs  # type: ignore[attr-defined]
        parsed = urlsplit(self.path)
        try:
            if parsed.path == "/metrics":
                self._send(200, _PROMETHEUS_CONTENT_TYPE,
                           obs.render_metrics().encode("utf-8"))
            elif parsed.path == "/healthz":
                report = obs.health.report()
                status = 503 if report["status"] == "unhealthy" else 200
                self._send_json(status, report)
            elif parsed.path == "/slo":
                self._send_json(200, obs.slo.check())
            elif parsed.path == "/spans":
                query = parse_qs(parsed.query)
                limit = int(query.get("limit", [_DEFAULT_SPAN_LIMIT])[0])
                self._send(200, "application/jsonl; charset=utf-8",
                           obs.render_spans(limit).encode("utf-8"))
            else:
                self._send_json(404, {"error": "not found",
                                      "path": parsed.path,
                                      "endpoints": ["/metrics", "/healthz",
                                                    "/slo", "/spans"]})
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": type(exc).__name__,
                                  "detail": str(exc)})

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, "application/json; charset=utf-8",
                   json.dumps(payload, sort_keys=False).encode("utf-8"))

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # A scrape every few seconds would spam stderr; the structured
        # lifecycle events on the ``repro.obs`` logger replace access logs.
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # Re-binding the same observability port across rapid service restarts
    # must not trip TIME_WAIT.
    allow_reuse_address = True


class ObsServer:
    """Serves ``/metrics``, ``/healthz``, ``/slo`` and ``/spans`` over HTTP.

    Parameters
    ----------
    service:
        The serving façade to expose (anything with ``telemetry`` and
        ``building_ids``; a ``shards`` attribute adds the merged fleet
        view).  Defaults to ``pipeline.service``.
    pipeline:
        Optional :class:`ContinuousLearningPipeline`; enriches the health
        report with drift/retrain state.
    health / slo:
        Pre-built monitors; by default a :class:`HealthMonitor` over the
        watched objects and an :class:`SLOMonitor` with
        :func:`default_serving_objectives` are created on the shared
        ``clock``.
    tracer:
        Span source for ``/spans``.  Defaults to whatever tracer the
        :mod:`repro.obs.runtime` switch currently exposes — resolved per
        request, so enabling observability after the server started works.
    host / port:
        Bind address; ``port=0`` (default) picks an ephemeral port,
        reported by :attr:`port` after :meth:`start`.

    Use as a context manager or call :meth:`start`/:meth:`close`; the
    accept loop runs on a daemon thread and each request is handled on its
    own thread, so a scrape can never block the serving hot path.
    """

    def __init__(self, service=None, pipeline=None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 health: HealthMonitor | None = None,
                 slo: SLOMonitor | None = None,
                 tracer=None, prefix: str = "repro",
                 clock: Callable[[], float] = time.monotonic) -> None:
        if service is None:
            if pipeline is None:
                raise ValueError("provide a service, a pipeline, or both")
            service = pipeline.service
        self.service = service
        self.pipeline = pipeline
        self.prefix = prefix
        self._tracer = tracer
        self.health = health or HealthMonitor(service=service,
                                              pipeline=pipeline, clock=clock)
        self.slo = slo or SLOMonitor(self._merged_snapshot,
                                     default_serving_objectives(),
                                     clock=clock)
        self._host = host
        self._requested_port = port
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------- renderers
    def _shard_registries(self):
        return [shard.telemetry
                for shard in getattr(self.service, "shards", ()) or ()]

    def _merged_snapshot(self) -> dict[str, object]:
        return self.service.telemetry.merged_snapshot(self._shard_registries())

    def render_metrics(self) -> str:
        """The Prometheus payload ``/metrics`` serves (shards merged in).

        The process-global runtime registry (sampler-cache and
        ``delta_sampler_*`` counters, overlay totals — everything the core
        layers record through :func:`repro.obs.runtime.metric_increment`)
        is merged in when observability is enabled, so one scrape covers
        both the serving telemetry and the core counters.
        """
        others = list(self._shard_registries())
        runtime_metrics = runtime.get_metrics()
        if (runtime_metrics is not None
                and runtime_metrics is not self.service.telemetry
                and all(runtime_metrics is not other for other in others)):
            others.append(runtime_metrics)
        return self.service.telemetry.to_prometheus_text(
            self.prefix, others=others)

    def render_spans(self, limit: int = _DEFAULT_SPAN_LIMIT) -> str:
        """The most recent finished spans as JSON lines, newest last."""
        tracer = self._tracer or runtime.active_tracer()
        if tracer is None or limit <= 0:
            return ""
        spans = tracer.spans()[-limit:]
        return "".join(json.dumps(span.to_dict(), sort_keys=False) + "\n"
                       for span in spans)

    # -------------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when constructed with 0)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "ObsServer":
        """Bind and start serving on a daemon thread; idempotent."""
        if self._httpd is not None:
            return self
        httpd = _Server((self._host, self._requested_port),
                        _ObsRequestHandler)
        httpd.obs = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(target=httpd.serve_forever,
                                        name="obs-server", daemon=True)
        self._thread.start()
        log_event("obs_server_started", url=self.url)
        return self

    def close(self) -> None:
        """Stop the accept loop and release the port; idempotent."""
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        log_event("obs_server_stopped")

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
