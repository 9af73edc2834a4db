"""HTTP serving front-end: network transport with production semantics.

This module puts a real transport in front of the serving layer so a
second host can request synthetic traffic.  Three pieces:

* :class:`ServingPool` -- N executor workers sharing **one resident copy**
  of each served model.  Every artifact is loaded once in the parent and
  installed into the execution plane via ``Executor.install`` (a
  ``DirectStateRef`` for serial/thread pools, one shared-memory segment
  for process pools -- see ``repro/runtime/state.py``), so worker count
  scales without re-loading or re-pickling models.  Requests are
  dispatched through ``Executor.map_tasks`` riding the existing
  :class:`~repro.runtime.TaskPolicy` deadline/retry machinery.
* :class:`SamplingHTTPServer` -- a stdlib ``ThreadingHTTPServer`` exposing

  - ``POST /sample``   ``{"artifact", "n", "conditions", "seed"}`` -> rows
  - ``GET  /health``   status, queue depth, counters
  - ``GET  /artifacts``  manifests of every served artifact

  with a **bounded admission queue** (full -> ``429`` + ``Retry-After``),
  **per-artifact concurrency limits**, per-request **deadlines**, and
  **graceful drain** on shutdown (``stop(drain=True)`` stops admitting,
  serves everything already queued, then exits).
* :func:`request_samples` / :func:`fetch_json` -- a tiny stdlib client.

Determinism contract, unchanged from the in-process service: the rows of a
response depend only on ``(artifact, n, conditions, seed)``.  A client on
localhost receives samples **bit-identical** to ``model.sample(n, seed)``
in-process -- ``orjson`` writes each continuous value in the shortest
decimal that round-trips (exact for float64 in any correct JSON parser),
categorical values are JSON-native strings/ints/arrays -- enforced by
``tests/serve/test_server.py``.  Every response body, and every request
body the module parses, goes through ``orjson``.

Operator documentation (knobs, capacity planning, runbook) lives in
``docs/serving.md``.
"""

from __future__ import annotations

import queue
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import orjson

from repro.engine import sampling_rng
from repro.obs import MetricsRegistry, default_registry
from repro.runtime import Executor, TaskPolicy, resolve_executor
from repro.serve.artifact import ArtifactError, ModelArtifact, load_model
from repro.tabular.schema import TableSchema, as_hashable
from repro.tabular.table import Table

__all__ = [
    "ServingPool",
    "SamplingHTTPServer",
    "ServerStats",
    "request_samples",
    "fetch_json",
    "table_to_wire",
    "table_from_wire",
]


# --------------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------------- #
def _dumps(document: dict) -> bytes:
    """Compact JSON bytes for ``document``, from ``orjson``'s C encoder."""
    return orjson.dumps(document, option=orjson.OPT_SERIALIZE_NUMPY)


def table_to_wire(table: Table) -> dict:
    """JSON-serialisable ``{"schema", "columns"}`` document for a table.

    Exact in any encoder that writes the shortest round-tripping decimal
    (the server's ``orjson`` and stdlib ``json`` both do): continuous
    columns are lists of float64 values, categorical values are native
    JSON strings, ints or arrays (tuples), and the schema rides its own
    ``to_dict`` form.  JSON has no NaN or infinity: ``orjson`` writes a
    non-finite value as ``null``.
    """
    return {
        "schema": table.schema.to_dict(),
        "columns": {name: table.column(name).tolist() for name in table.schema.names},
    }


def table_from_wire(document: dict) -> Table:
    """Rebuild a :class:`~repro.tabular.table.Table` from its parsed wire document.

    Each column is built straight in its storage dtype: float64 for
    continuous columns (a JSON ``null`` reads back as NaN), object for
    categorical ones.  JSON arrays in a column with tuple categories come
    back as tuples.
    """
    schema = TableSchema.from_dict(document["schema"])
    columns = {}
    for spec in schema:
        values = document["columns"][spec.name]
        if spec.is_continuous:
            columns[spec.name] = np.array(values, dtype=np.float64)
        elif any(isinstance(category, tuple) for category in spec.categories):
            columns[spec.name] = np.fromiter(
                map(as_hashable, values), dtype=object, count=len(values)
            )
        else:
            columns[spec.name] = np.array(values, dtype=object)
    return Table(schema, columns)


# --------------------------------------------------------------------------- #
# The serving pool
# --------------------------------------------------------------------------- #
def _unbind_step_workspaces(model: object) -> None:
    """Detach single-stream step workspaces from every network in ``model``.

    A fitted model's networks carry a bound
    :class:`~repro.neural.workspace.Workspace` -- recycled scratch buffers
    that make the *training* hot loop allocation-free but are only safe for
    one forward pass at a time.  A resident serving model is sampled by
    several worker threads concurrently, so the pool walks the model's
    object graph and unbinds each ``Sequential`` before installing it
    (see :meth:`repro.neural.network.Sequential.unbind_workspace`); the
    allocating forward paths it falls back to are bit-identical.
    """
    from repro.neural.network import Sequential

    seen: set[int] = set()
    stack = [model]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Sequential):
            node.unbind_workspace()
            continue
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
        else:
            state = getattr(node, "__dict__", None)
            if isinstance(state, dict):
                stack.extend(state.values())


def _pool_sample_task(payload: tuple):
    """Executor work unit: sample from a resident model.

    ``payload`` is ``(state_ref, n, conditions, seed, default_seed)``.  The
    model rides as a :class:`~repro.runtime.StateRef` -- resolved (and
    cached) worker-side, so steady-state tasks ship only the ref and the
    request parameters, never the model.
    """
    state_ref, n, conditions, seed, default_seed = payload
    model = state_ref.resolve()
    rng = sampling_rng(seed if seed is not None else default_seed)
    return model.sample(n, conditions=conditions, rng=rng)


class ServingPool:
    """N workers serving sampling requests from shared resident models.

    Each artifact directory is loaded **once** in the parent and installed
    into the execution plane via ``Executor.install``: thread pools share
    the parent's object directly, process pools share one pickled copy in
    ``multiprocessing.shared_memory`` that every worker resolves and
    caches.  ``sample_batch`` dispatches requests through
    ``Executor.map_tasks`` under a :class:`~repro.runtime.TaskPolicy`, so
    deadlines, retries and structured failures behave exactly as in the
    rest of the runtime.

    Artifacts are addressed by the path string they were registered under;
    unambiguous directory basenames work as aliases (``kinetgan`` for
    ``artifacts/kinetgan``).
    """

    def __init__(
        self,
        artifacts: dict[str, str | Path] | list[str | Path],
        executor: Executor | str | int | None = None,
        *,
        task_retries: int = 0,
    ) -> None:
        if not artifacts:
            raise ValueError("ServingPool needs at least one artifact")
        if isinstance(artifacts, dict):
            items = [(str(name), Path(path)) for name, path in artifacts.items()]
        else:
            items = [(str(path), Path(path)) for path in artifacts]
        self._owns_executor = not isinstance(executor, Executor)
        self.executor = resolve_executor(executor)
        self.task_retries = task_retries
        self.manifests: OrderedDict[str, dict] = OrderedDict()
        self._refs: dict[str, object] = {}
        self._default_seeds: dict[str, int] = {}
        self._aliases: dict[str, str] = {}
        try:
            for name, path in items:
                artifact = ModelArtifact.open(path)
                model = load_model(path)
                _unbind_step_workspaces(model)
                self.manifests[name] = dict(artifact.manifest)
                self._refs[name] = self.executor.install(model)
                config = getattr(model, "config", None)
                self._default_seeds[name] = (
                    config.seed if config is not None else getattr(model, "seed", 0)
                )
            # Aliases: the artifact's directory path (as given and resolved)
            # plus its basename when unambiguous, so clients can address a
            # model by name or by path interchangeably.
            candidates: dict[str, list[str]] = {}
            for name, path in items:
                for alias in {str(path), str(path.resolve()), path.name}:
                    candidates.setdefault(alias, []).append(name)
            self._aliases = {
                alias: names[0]
                for alias, names in candidates.items()
                if len(set(names)) == 1 and alias not in self._refs
            }
        except BaseException:
            if self._owns_executor:
                self.executor.close()
            raise
        self._closed = False

    @property
    def artifact_names(self) -> list[str]:
        """Registered artifact keys, in registration order."""
        return list(self.manifests)

    def resolve_name(self, artifact: str) -> str | None:
        """Canonical key for ``artifact`` (exact or basename alias), or None."""
        if artifact in self._refs:
            return artifact
        return self._aliases.get(artifact)

    def sample_batch(
        self,
        requests: list[tuple[str, int, dict | None, int | None]],
        timeout: float | None = None,
    ) -> list:
        """Dispatch ``(artifact, n, conditions, seed)`` requests to the pool.

        Returns the runtime's structured :class:`~repro.runtime.TaskResult`
        list in request order: ``result.value`` is the sampled table,
        ``result.failure`` a :class:`~repro.runtime.TaskFailure` whose
        ``cause`` distinguishes deadline overruns (``timeout``) from model
        errors (``error``) and worker crashes (``crash``).
        """
        if self._closed:
            raise RuntimeError("ServingPool is closed")
        payloads = []
        for artifact, n, conditions, seed in requests:
            key = self.resolve_name(artifact)
            if key is None:
                raise KeyError(artifact)
            payloads.append(
                (self._refs[key], n, conditions, seed, self._default_seeds[key])
            )
        policy = TaskPolicy(timeout=timeout, retries=self.task_retries)
        return self.executor.map_tasks(_pool_sample_task, payloads, policy)

    def close(self) -> None:
        """Evict resident models and release the executor (if owned)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_executor:
            self.executor.close()
        else:
            for ref in self._refs.values():
                self.executor.evict(ref)

    def __enter__(self) -> "ServingPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# The HTTP server
# --------------------------------------------------------------------------- #
class ServerStats:
    """Monotonic request counters (thread-safe), surfaced by ``/health``.

    Each bump is mirrored into the ``repro_http_requests_total`` counter
    family of ``registry`` (the process-wide default unless one is given),
    so ``GET /metrics`` exposes the same outcomes Prometheus-style.  The
    instance's own fields stay authoritative for ``/health``: they count
    this server only, while the registry family accumulates process-wide.
    """

    _FIELDS = ("admitted", "served", "rejected", "timeouts", "errors", "invalid")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)
        registry = registry if registry is not None else default_registry()
        self._counters = {
            name: registry.counter(
                "repro_http_requests_total",
                help="HTTP requests by outcome (admitted/served/rejected/...).",
                labels={"outcome": name},
            )
            for name in self._FIELDS
        }

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)
        self._counters[name].inc(by)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}


class _Admitted:
    """One admitted request riding the queue to the dispatcher."""

    __slots__ = ("artifact", "n", "conditions", "seed", "future", "enqueued")

    def __init__(self, artifact: str, n: int, conditions, seed) -> None:
        self.artifact = artifact
        self.n = n
        self.conditions = conditions
        self.seed = seed
        self.future: Future = Future()
        self.enqueued = time.monotonic()


class _HTTPError(Exception):
    """An HTTP error response (status + JSON body + extra headers)."""

    def __init__(self, status: int, message: str, headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class _Handler(BaseHTTPRequestHandler):
    """Request handler; all state lives on ``self.server`` (the outer class)."""

    protocol_version = "HTTP/1.1"
    # ``_respond`` writes the headers and the body as two sends; with Nagle
    # on, a keep-alive connection's body waits for the client's delayed ACK
    # (about 40 ms a response).
    disable_nagle_algorithm = True
    server: "SamplingHTTPServer"

    # -- plumbing ------------------------------------------------------- #
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _respond(self, status: int, document: dict, headers: dict | None = None) -> int:
        body = _dumps(document)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        return status

    def _fail(self, error: _HTTPError) -> int:
        return self._respond(error.status, {"error": str(error)}, error.headers)

    def _respond_metrics(self, query: str) -> int:
        if query == "format=json":
            return self._respond(200, self.server.metrics_snapshot())
        body = self.server.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return 200

    # -- routes --------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802
        start = time.perf_counter()
        path, _, query = self.path.partition("?")
        status = 500
        try:
            if path == "/health":
                status = self._respond(200, self.server.health())
            elif path == "/artifacts":
                status = self._respond(200, {"artifacts": self.server.pool.manifests})
            elif path == "/metrics":
                status = self._respond_metrics(query)
            else:
                status = self._fail(_HTTPError(404, f"no route {self.path!r}"))
        finally:
            self.server.observe_request(path, status, time.perf_counter() - start)

    def do_POST(self) -> None:  # noqa: N802
        start = time.perf_counter()
        status = 500
        try:
            if self.path != "/sample":
                status = self._fail(_HTTPError(404, f"no route {self.path!r}"))
                return
            try:
                admitted = self.server.admit(self._parse_sample_body())
                status = self._respond(200, self.server.await_result(admitted))
            except _HTTPError as error:
                status = self._fail(error)
        finally:
            self.server.observe_request(self.path, status, time.perf_counter() - start)

    def _parse_sample_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise _HTTPError(400, "missing or invalid Content-Length")
        if length <= 0:
            raise _HTTPError(400, "empty request body")
        raw = self.rfile.read(length)
        try:
            body = orjson.loads(raw)
        except orjson.JSONDecodeError as error:
            raise _HTTPError(400, f"malformed JSON body: {error}")
        if not isinstance(body, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return body


class SamplingHTTPServer:
    """HTTP front door over a :class:`ServingPool`, with production semantics.

    * **Bounded admission**: at most ``queue_depth`` requests wait at once;
      requests arriving while the queue is full are rejected immediately
      with ``429`` and a ``Retry-After: <retry_after>`` header, so clients
      get backpressure instead of unbounded latency.
    * **Per-artifact concurrency**: per dispatch burst at most
      ``artifact_concurrency`` requests of the same artifact run on the
      pool together; excess requests stay queued (fair to other artifacts,
      bounds any one model's worker share).
    * **Deadlines**: ``request_deadline`` bounds both queue wait and
      execution (via :class:`~repro.runtime.TaskPolicy`); an overrun
      answers ``504``.
    * **Graceful drain**: ``stop(drain=True)`` stops admitting (``503``),
      serves every request already admitted, then shuts the listener down.

    Use as a context manager or call :meth:`start` / :meth:`stop`.  The
    operator runbook (knob tuning, capacity planning) is
    ``docs/serving.md``.
    """

    def __init__(
        self,
        pool: ServingPool,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_depth: int = 64,
        artifact_concurrency: int = 8,
        request_deadline: float | None = None,
        max_rows: int = 1_000_000,
        retry_after: float = 1.0,
        verbose: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if artifact_concurrency < 1:
            raise ValueError("artifact_concurrency must be positive")
        if request_deadline is not None and request_deadline <= 0:
            raise ValueError("request_deadline must be positive (or None)")
        if max_rows < 1:
            raise ValueError("max_rows must be positive")
        self.pool = pool
        self.queue_depth = queue_depth
        self.artifact_concurrency = artifact_concurrency
        self.request_deadline = request_deadline
        self.max_rows = max_rows
        self.retry_after = retry_after
        self.verbose = verbose
        # The registry behind GET /metrics.  The process-wide default also
        # receives the runtime's task/pool counters and any engine metrics
        # published in this process, so one scrape covers all three layers;
        # pass a private registry to isolate a server (tests do).
        self.registry = registry if registry is not None else default_registry()
        self.stats = ServerStats(self.registry)
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._listener: threading.Thread | None = None
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        # The handler reaches the front-end through its server object.
        self._httpd.pool = pool  # type: ignore[attr-defined]
        self._httpd.admit = self.admit  # type: ignore[attr-defined]
        self._httpd.await_result = self.await_result  # type: ignore[attr-defined]
        self._httpd.health = self.health  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.metrics_text = self.metrics_text  # type: ignore[attr-defined]
        self._httpd.metrics_snapshot = self.metrics_snapshot  # type: ignore[attr-defined]
        self._httpd.observe_request = self._observe_request  # type: ignore[attr-defined]

    # -- lifecycle ------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port resolved when ``port=0``)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "SamplingHTTPServer":
        """Start the listener and dispatcher threads (idempotent)."""
        if self._listener is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="serving-dispatcher", daemon=True
            )
            self._dispatcher.start()
            self._listener = threading.Thread(
                target=self._httpd.serve_forever, name="serving-listener", daemon=True
            )
            self._listener.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down; with ``drain`` serve everything already admitted first.

        New requests are answered ``503`` the moment drain begins.  Without
        ``drain``, queued requests fail with ``503`` instead of running.
        """
        self._draining.set()
        if not drain:
            self._flush_queue("server stopped before serving this request")
        deadline = time.monotonic() + timeout
        while drain and not self._queue.empty() and time.monotonic() < deadline:
            time.sleep(0.01)
        self._stopped.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=max(0.0, deadline - time.monotonic()))
            self._dispatcher = None
        self._httpd.shutdown()
        if self._listener is not None:
            self._listener.join(timeout=5.0)
            self._listener = None
        self._httpd.server_close()

    def __enter__(self) -> "SamplingHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- admission ------------------------------------------------------ #
    def admit(self, body: dict) -> _Admitted:
        """Validate a parsed ``/sample`` body and enqueue it, or raise.

        Raises :class:`_HTTPError` 503 while draining, 400 for invalid
        fields, 404 for unknown artifacts and 429 (with ``Retry-After``)
        when the admission queue is full.
        """
        if self._draining.is_set():
            raise _HTTPError(503, "server is draining; not admitting new requests")
        artifact = body.get("artifact")
        if not isinstance(artifact, str) or not artifact:
            self.stats.bump("invalid")
            raise _HTTPError(400, "body needs an 'artifact' string")
        key = self.pool.resolve_name(artifact)
        if key is None:
            self.stats.bump("invalid")
            raise _HTTPError(
                404, f"unknown artifact {artifact!r}; serving {self.pool.artifact_names}"
            )
        n = body.get("n")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            self.stats.bump("invalid")
            raise _HTTPError(400, "body needs a positive integer 'n'")
        if n > self.max_rows:
            self.stats.bump("invalid")
            raise _HTTPError(400, f"n={n} exceeds the server's max_rows={self.max_rows}")
        conditions = body.get("conditions")
        if conditions is not None and not isinstance(conditions, dict):
            self.stats.bump("invalid")
            raise _HTTPError(400, "'conditions' must be an object or null")
        seed = body.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            self.stats.bump("invalid")
            raise _HTTPError(400, "'seed' must be an integer or null")
        admitted = _Admitted(key, n, conditions, seed)
        try:
            self._queue.put_nowait(admitted)
        except queue.Full:
            self.stats.bump("rejected")
            raise _HTTPError(
                429,
                f"admission queue full ({self.queue_depth} pending); retry later",
                headers={"Retry-After": f"{self.retry_after:g}"},
            )
        self.stats.bump("admitted")
        self._queue_gauge().set(self._queue.qsize())
        return admitted

    def await_result(self, admitted: _Admitted) -> dict:
        """Block until the dispatcher resolves the request; map to a document."""
        try:
            table = admitted.future.result()
        except _HTTPError:
            raise
        except Exception as error:  # pragma: no cover - defensive
            raise _HTTPError(500, f"internal serving error: {error}")
        return {
            "artifact": admitted.artifact,
            "n": admitted.n,
            "seed": admitted.seed,
            **table_to_wire(table),
        }

    def health(self) -> dict:
        """The ``/health`` document."""
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.queue_depth,
            "artifacts": self.pool.artifact_names,
            "workers": getattr(self.pool.executor, "workers", 1),
            "request_deadline": self.request_deadline,
            "stats": self.stats.snapshot(),
            "runtime": self._runtime_health(),
        }

    def _runtime_health(self) -> dict:
        """Runtime-internal counters for ``/health``: respawns, task tallies.

        Task counters live in the process-wide default registry (that is
        where ``Executor.map_tasks`` records), labelled by executor kind;
        they accumulate across every pool of that kind in the process, so
        treat them as monotonic process totals, not per-server counts.
        """
        executor = self.pool.executor
        registry = default_registry()
        labels = {"executor": executor.name}

        def count(metric: str, extra: dict | None = None) -> int:
            value = registry.value(metric, {**labels, **(extra or {})})
            return int(value) if value else 0

        return {
            "executor": executor.name,
            "respawns": getattr(executor, "respawns", 0),
            "tasks": {
                "dispatched": count("repro_tasks_dispatched_total"),
                "completed": count("repro_tasks_completed_total"),
                "retries": count("repro_task_retries_total"),
                "timeouts": count("repro_tasks_failed_total", {"cause": "timeout"}),
                "crashes": count("repro_tasks_failed_total", {"cause": "crash"}),
                "errors": count("repro_tasks_failed_total", {"cause": "error"}),
            },
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition."""
        return self.registry.prometheus_text()

    def metrics_snapshot(self) -> dict:
        """The ``GET /metrics?format=json`` document."""
        return self.registry.snapshot()

    def _observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one HTTP request into the per-endpoint latency histogram."""
        self.registry.histogram(
            "repro_http_request_seconds",
            help="End-to-end HTTP request latency by endpoint and status.",
            labels={"endpoint": endpoint, "status": str(status)},
        ).observe(seconds)

    def _queue_gauge(self):
        return self.registry.gauge(
            "repro_http_queue_depth",
            help="Requests waiting in the admission queue.",
        )

    def _inflight_gauge(self):
        return self.registry.gauge(
            "repro_http_inflight",
            help="Requests currently executing on the serving pool.",
        )

    # -- dispatch ------------------------------------------------------- #
    def _dispatch_loop(self) -> None:
        """Single dispatcher: drain bursts, cap per artifact, run the pool.

        Dispatch runs on exactly one thread because ``Executor.map_tasks``
        is not safe to call concurrently; the burst shape (one
        ``map_tasks`` per drain) is also what makes the per-artifact cap
        a real concurrency bound on the workers.
        """
        deferred: list[_Admitted] = []
        while True:
            batch = deferred
            deferred = []
            if not batch:
                try:
                    batch.append(self._queue.get(timeout=0.05))
                except queue.Empty:
                    if self._stopped.is_set():
                        return
                    continue
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            dispatch: list[_Admitted] = []
            counts: dict[str, int] = {}
            for item in batch:
                if counts.get(item.artifact, 0) < self.artifact_concurrency:
                    counts[item.artifact] = counts.get(item.artifact, 0) + 1
                    dispatch.append(item)
                else:
                    deferred.append(item)
            self._run_batch(dispatch)
            if self._stopped.is_set() and not deferred and self._queue.empty():
                return

    def _run_batch(self, batch: list[_Admitted]) -> None:
        live: list[_Admitted] = []
        now = time.monotonic()
        for item in batch:
            if not item.future.set_running_or_notify_cancel():
                continue
            waited = now - item.enqueued
            if self.request_deadline is not None and waited > self.request_deadline:
                self.stats.bump("timeouts")
                item.future.set_exception(
                    _HTTPError(
                        504,
                        f"request queued {waited:.3f}s, past its "
                        f"{self.request_deadline}s deadline",
                    )
                )
                continue
            live.append(item)
        if not live:
            return
        requests = [(item.artifact, item.n, item.conditions, item.seed) for item in live]
        self._queue_gauge().set(self._queue.qsize())
        self._inflight_gauge().inc(len(live))
        try:
            results = self.pool.sample_batch(requests, timeout=self.request_deadline)
        except Exception as error:
            for item in live:
                item.future.set_exception(_HTTPError(500, f"dispatch failed: {error}"))
            return
        finally:
            self._inflight_gauge().dec(len(live))
        for item, result in zip(live, results):
            if result.failure is None:
                self.stats.bump("served")
                item.future.set_result(result.value)
                continue
            failure = result.failure
            if failure.cause == "timeout":
                self.stats.bump("timeouts")
                item.future.set_exception(
                    _HTTPError(504, f"sampling overran its deadline: {failure.message}")
                )
            elif failure.cause == "error":
                self.stats.bump("errors")
                item.future.set_exception(
                    _HTTPError(400, f"sampling failed: {failure.message}")
                )
            else:
                self.stats.bump("errors")
                item.future.set_exception(
                    _HTTPError(500, f"worker failure ({failure.cause}): {failure.message}")
                )

    def _flush_queue(self, message: str) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(_HTTPError(503, message))


# --------------------------------------------------------------------------- #
# Client helpers
# --------------------------------------------------------------------------- #
def fetch_json(url: str, path: str, timeout: float = 30.0) -> dict:
    """GET ``url + path`` and parse the JSON document (e.g. ``/health``)."""
    with urllib.request.urlopen(url.rstrip("/") + path, timeout=timeout) as response:
        return orjson.loads(response.read())


def request_samples(
    url: str,
    artifact: str,
    n: int,
    conditions: dict | None = None,
    seed: int | None = None,
    timeout: float = 60.0,
) -> Table:
    """POST a ``/sample`` request and rebuild the returned table.

    Raises :class:`urllib.error.HTTPError` on non-200 responses (status
    429 carries a ``Retry-After`` header; inspect ``error.headers``).
    The returned table is bit-identical to the in-process
    ``model.sample(n, conditions, sampling_rng(seed))``.
    """
    body = _dumps({"artifact": artifact, "n": n, "conditions": conditions, "seed": seed})
    request = urllib.request.Request(
        url.rstrip("/") + "/sample",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return table_from_wire(orjson.loads(response.read()))
