"""Stdlib-only REST surface over the job queue and result store.

:class:`BenchmarkService` wires a :class:`~repro.service.jobs.JobQueue` and
an optional :class:`~repro.store.ResultStore` behind a
:class:`http.server.ThreadingHTTPServer`.  The endpoint surface:

========  ==========================  ==========================================
Method    Path                        Behaviour
========  ==========================  ==========================================
GET       ``/healthz``                Liveness probe (``{"status": "ok"}``).
GET       ``/stats``                  Queue + store + schema counters.
POST      ``/scenarios``              Submit a scenario; ``202 {"job_id"}``.
GET       ``/jobs``                   Snapshots of every job.
GET       ``/jobs/<id>``              One job's status snapshot.
DELETE    ``/jobs/<id>``              Cancel a queued/running job.
GET       ``/jobs/<id>/outcomes``     NDJSON stream of the job's outcomes,
                                      live while it runs.
GET       ``/jobs/<id>/trace``        NDJSON spans of the job's trace (the
                                      finished spans recorded so far).
GET       ``/results``                Stored rows, filterable by
                                      ``family/device/mitigation/scenario/
                                      kind/limit``.
GET       ``/metrics``                Prometheus text exposition of the
                                      process metrics registry.
========  ==========================  ==========================================

``POST /scenarios`` accepts either a named scenario::

    {"scenario": "figure2", "options": {"small": true},
     "knobs": {"shots": 100, "seed": 7, "devices": ["IonQ-11Q"]}}

(names: ``figure2``, ``mitigated``) or a full declarative definition under
``"definition"`` (the :meth:`Scenario.as_dict` shape).  ``knobs`` go to
:func:`~repro.suite.runner.run_scenario` after :func:`validate_knobs` has
checked them: only ``shots``, ``repetitions``, ``seed``, ``trajectories``,
``devices``, ``executor``, ``processes`` and ``max_workers`` are accepted, so
a request can neither name a server-side path nor start more worker
processes than the host has CPUs.  :func:`validate_names` then rejects an
unknown or ambiguous device and an unknown technique, which would fail every
attempt of the job the same way.  Every rejection is a 400 before anything
is queued; a body longer than :data:`MAX_BODY_BYTES` is a 413 and is never
read, and a body that stops arriving for :data:`READ_TIMEOUT_SECONDS` before
its ``Content-Length`` is a 408.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..devices import get_device
from ..exceptions import DeviceError, MitigationError, ReproError, ServiceError
from ..mitigation import resolve_mitigator
from ..suite.scenarios import figure2_scenario, mitigated_scenario
from ..suite.sweep import Scenario
from ..telemetry import get_metrics, get_tracer
from ..telemetry.export import spans_to_ndjson, to_prometheus
from .jobs import JobQueue

__all__ = ["BenchmarkService", "resolve_scenario", "validate_knobs", "validate_names"]

#: ``GET /stats`` payload schema version — bump on breaking shape changes.
STATS_SCHEMA = 2

#: Largest request body the service reads (a scenario definition is a few KiB).
MAX_BODY_BYTES = 1 << 20

#: Seconds a handler thread waits on a silent client socket before it gives
#: the connection up (a body cut short of its Content-Length is a 408).
READ_TIMEOUT_SECONDS = 10.0

#: Named scenario factories the POST body may reference by string.
_NAMED_SCENARIOS = {
    "figure2": figure2_scenario,
    "mitigated": mitigated_scenario,
    "mitigated_scores": mitigated_scenario,
}

_REQUESTS = get_metrics().counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, route template and status code.",
    ("method", "route", "status"),
)
_REQUEST_SECONDS = get_metrics().histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency by method and route template.",
    ("method", "route"),
)


def _count(value: Any, limit: Optional[int] = None) -> bool:
    """An int (a bool is not one) in ``1..limit``."""
    return type(value) is int and value >= 1 and (limit is None or value <= limit)


def _cpus(value: Any) -> bool:
    return _count(value, os.cpu_count() or 1)


#: The ``run_scenario`` knobs a ``POST /scenarios`` body may set, each with
#: its check and the description a rejection quotes.
_KNOBS: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "shots": (_count, "a positive integer"),
    "repetitions": (_count, "a positive integer"),
    "seed": (
        lambda value: value is None or (type(value) is int and value >= 0),
        "a non-negative integer or null",
    ),
    "trajectories": (lambda value: value is None or _count(value), "a positive integer or null"),
    "devices": (
        lambda value: isinstance(value, list) and all(isinstance(d, str) for d in value),
        "a list of device names",
    ),
    "executor": (lambda value: value in ("thread", "process"), '"thread" or "process"'),
    "processes": (_cpus, "an integer from 1 to the server's CPU count"),
    "max_workers": (_cpus, "an integer from 1 to the server's CPU count"),
}


def validate_knobs(knobs: Any) -> Dict[str, Any]:
    """Check the ``knobs`` of a ``POST /scenarios`` body before it is queued.

    Raises:
        ServiceError: on a knob name outside the allowed set (the message
            lists the allowed names) or a value of the wrong type or range.
    """
    if not isinstance(knobs, dict):
        raise ServiceError("'knobs' must be an object")
    unknown = sorted(set(knobs) - set(_KNOBS))
    if unknown:
        raise ServiceError(
            f"unknown knobs: {', '.join(unknown)}; allowed: {', '.join(_KNOBS)}"
        )
    for name, value in knobs.items():
        check, description = _KNOBS[name]
        if not check(value):
            raise ServiceError(f"knob {name!r} must be {description}, got {value!r}")
    return knobs


def validate_names(scenario: Scenario, knobs: Dict[str, Any]) -> None:
    """Reject device and technique names that no attempt could run.

    The devices checked are the ``devices`` knob's when it is given, else
    the scenario's; :func:`~repro.devices.get_device` accepts a unique
    prefix, so an ambiguous one fails like an unknown name.

    Raises:
        ServiceError: naming the unknown or ambiguous device or the unknown
            technique.
    """
    try:
        for device in knobs["devices"] if "devices" in knobs else scenario.devices:
            get_device(device)
        for technique in scenario.mitigations:
            resolve_mitigator(technique)
    except (DeviceError, MitigationError) as error:
        raise ServiceError(str(error)) from error


class _BodyTooLarge(ServiceError):
    """A request body above :data:`MAX_BODY_BYTES` (answered with 413)."""

    status = 413


class _BodyTimeout(ServiceError):
    """A request body that stopped arriving before its length (answered with 408)."""

    status = 408


def _route_label(path: str) -> str:
    """Collapse job ids so the request metrics stay low-cardinality."""
    if path.startswith("/jobs/"):
        if path.endswith("/outcomes"):
            return "/jobs/<id>/outcomes"
        if path.endswith("/trace"):
            return "/jobs/<id>/trace"
        return "/jobs/<id>"
    return path


def resolve_scenario(body: Dict[str, Any]) -> Scenario:
    """Build the scenario a ``POST /scenarios`` body describes.

    Raises:
        ServiceError: on missing/unknown scenario references or malformed
            definitions.
    """
    if "definition" in body:
        try:
            return Scenario.from_dict(body["definition"])
        except (KeyError, TypeError, ReproError) as error:
            raise ServiceError(f"malformed scenario definition: {error}") from error
    name = body.get("scenario")
    if not name:
        raise ServiceError("request body needs a 'scenario' name or a 'definition'")
    factory = _NAMED_SCENARIOS.get(name)
    if factory is None:
        known = ", ".join(sorted(set(_NAMED_SCENARIOS)))
        raise ServiceError(f"unknown scenario {name!r}; known names: {known}")
    options = body.get("options", {})
    if not isinstance(options, dict):
        raise ServiceError("'options' must be an object")
    try:
        return factory(**options)
    except (TypeError, ReproError) as error:
        raise ServiceError(f"bad options for scenario {name!r}: {error}") from error


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the service instance hangs off the server object."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # Applied to the connection socket by StreamRequestHandler.setup().
    timeout = READ_TIMEOUT_SECONDS

    # Silence per-request stderr logging (tests and long-running serves).
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def service(self) -> "BenchmarkService":
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_json(self, payload: Any, status: int = 200) -> None:
        self._status = status
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, content_type: str) -> None:
        self._status = 200
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, message: str, status: int) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so this connection cannot carry another request.
            self.close_connection = True
            if length < 0:
                raise ServiceError(f"Content-Length must be a non-negative integer, got {header!r}")
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError as error:
            self.close_connection = True
            raise _BodyTimeout(
                f"request body not received within {self.timeout:g} s"
            ) from error
        if not raw:
            raise ServiceError("empty request body")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(f"request body is not valid JSON: {error}") from error
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        return body

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _handle(self, method: str, inner: Callable[[str, Dict[str, str]], None]) -> None:
        """Run one request through the telemetry wrapper (span + metrics)."""
        path, query = self._route()
        route = _route_label(path)
        self._status = 200
        started = time.perf_counter()
        try:
            with get_tracer().span("http.request", method=method, route=route) as span:
                inner(path, query)
                span.set_attribute("status", self._status)
        finally:
            elapsed = time.perf_counter() - started
            _REQUEST_SECONDS.observe(elapsed, method=method, route=route)
            _REQUESTS.inc(method=method, route=route, status=str(self._status))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET", self._get)

    def _get(self, path: str, query: Dict[str, str]) -> None:
        try:
            if path == "/healthz":
                self._send_json({"status": "ok"})
            elif path == "/stats":
                self._send_json(self.service.stats())
            elif path == "/metrics":
                self._send_text(
                    to_prometheus(get_metrics().snapshot()),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/jobs":
                self._send_json({"jobs": self.service.queue.jobs()})
            elif path.startswith("/jobs/") and path.endswith("/outcomes"):
                self._stream_outcomes(path.split("/")[2])
            elif path.startswith("/jobs/") and path.endswith("/trace"):
                self._send_trace(path.split("/")[2])
            elif path.startswith("/jobs/"):
                self._send_json(self.service.queue.status(path.split("/")[2]))
            elif path == "/results":
                self._send_json({"results": self.service.query_results(query)})
            else:
                self._send_error_json(f"no such endpoint: GET {path}", 404)
        except ServiceError as error:
            self._send_error_json(str(error), 404 if "unknown job" in str(error) else 400)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST", self._post)

    def _post(self, path: str, query: Dict[str, str]) -> None:
        try:
            if path == "/scenarios":
                body = self._read_body()
                scenario = resolve_scenario(body)
                knobs = validate_knobs(body.get("knobs", {}))
                validate_names(scenario, knobs)
                job_id = self.service.queue.submit(scenario, **knobs)
                self._send_json({"job_id": job_id, "scenario": scenario.name}, status=202)
            else:
                self._send_error_json(f"no such endpoint: POST {path}", 404)
        except ServiceError as error:
            self._send_error_json(str(error), getattr(error, "status", 400))

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._handle("DELETE", self._delete)

    def _delete(self, path: str, query: Dict[str, str]) -> None:
        try:
            if path.startswith("/jobs/"):
                cancelled = self.service.queue.cancel(path.split("/")[2])
                self._send_json({"cancelled": cancelled})
            else:
                self._send_error_json(f"no such endpoint: DELETE {path}", 404)
        except ServiceError as error:
            self._send_error_json(str(error), 404 if "unknown job" in str(error) else 400)

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def _stream_outcomes(self, job_id: str) -> None:
        """NDJSON stream: one outcome object per line, live until the job
        finishes or ``stream_timeout`` passes, terminated by a
        ``{"event": "end", ...}`` line (``"status": "timeout"`` for the latter:
        the headers are sent, so no error response can follow)."""
        outcomes = self.service.queue.iter_outcomes(
            job_id, timeout=self.service.stream_timeout, end=True
        )  # 404 before headers on unknown ids
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # Chunked would need manual framing under HTTP/1.1; close-delimited
        # bodies keep the stdlib client side (urllib) trivially correct.
        self.send_header("Connection", "close")
        self.end_headers()
        for payload in outcomes:
            self.wfile.write((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
            self.wfile.flush()
        self.close_connection = True

    def _send_trace(self, job_id: str) -> None:
        """NDJSON dump of the job's finished spans recorded so far.

        A snapshot, not a live stream: the tracer's buffer is filtered by
        the job's ``trace_id`` (empty body while the job is still queued or
        when tracing is disabled).
        """
        status = self.service.queue.status(job_id)  # 404 on unknown ids
        trace_id = status.get("trace_id", "")
        spans = get_tracer().finished(trace_id) if trace_id else []
        self._send_text(spans_to_ndjson(spans), "application/x-ndjson")


class BenchmarkService:
    """The HTTP benchmark service: job queue + store behind a REST surface.

    Args:
        store: Optional :class:`~repro.store.ResultStore` shared by every
            job (read-through + write-back) and served by ``GET /results``.
        host / port: Bind address; port 0 picks a free port (tests).
        workers: Job-queue worker threads.
        queue: Pre-built queue (injectable for tests); overrides
            ``store``/``workers`` wiring when given.
        stream_timeout: Safety cap (seconds) on one NDJSON stream.
    """

    def __init__(
        self,
        store=None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue: Optional[JobQueue] = None,
        stream_timeout: float = 600.0,
    ) -> None:
        self.store = store
        self.queue = queue if queue is not None else JobQueue(store=store, workers=workers)
        self.stream_timeout = float(stream_timeout)
        self._started = time.time()
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (the resolved port when 0 was asked)."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stats(self) -> Dict[str, Any]:
        """Combined service counters served by ``GET /stats``.

        Honestly heterogeneous: flat-int queue counters under ``"queue"``,
        nested per-engine float/int maps under ``"engines"`` — plus payload
        metadata (``schema`` version of this shape, package ``version``,
        ``uptime_seconds`` since service construction).
        """
        from .. import __version__  # deferred: repro/__init__ imports this module

        data: Dict[str, Any] = {
            "schema": STATS_SCHEMA,
            "version": __version__,
            "uptime_seconds": round(time.time() - self._started, 3),
            "queue": self.queue.stats(),
        }
        engines = self.queue.engine_stats()
        if engines:
            data["engines"] = engines
        if self.store is not None:
            data["store"] = self.store.stats()
        return data

    def query_results(self, query: Dict[str, str]) -> list:
        """Row payloads for ``GET /results`` (400 on unknown filters)."""
        if self.store is None:
            raise ServiceError("no result store attached; start with --store")
        allowed = {"scenario", "family", "device", "mitigation", "kind", "limit"}
        unknown = set(query) - allowed
        if unknown:
            raise ServiceError(
                f"unknown query parameters: {', '.join(sorted(unknown))}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        filters: Dict[str, Any] = {k: v for k, v in query.items() if k != "limit"}
        if "limit" in query:
            try:
                filters["limit"] = int(query["limit"])
            except ValueError as error:
                raise ServiceError(f"limit must be an integer: {error}") from error
        filters.setdefault("kind", "outcome")
        return self.store.query(**filters)

    # ------------------------------------------------------------------
    def start(self) -> "BenchmarkService":
        """Serve on a background thread (returns immediately)."""
        if self._thread is not None:
            raise ServiceError("service is already running")
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` entry point)."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop the server and the job queue (idempotent)."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.queue.close()

    def __enter__(self) -> "BenchmarkService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        host, port = self.address
        return f"BenchmarkService(url=http://{host}:{port}, queue={self.queue!r})"
