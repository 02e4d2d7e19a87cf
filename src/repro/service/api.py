"""Stdlib ``http.server`` front end for the synthesis service.

Routes (all JSON in/out):

- ``GET  /health``                 liveness probe
- ``GET  /models``                 registered model versions + metadata
- ``POST /jobs``                   submit a synthesis job (``"shards": N``
  fans S2 out across the worker pool; see :mod:`repro.core.sharding`)
- ``GET  /jobs``                   list job records
- ``GET  /jobs/<id>``              one job record (status, result, error)
- ``GET  /jobs/<id>/dataset``      the finished synthetic dataset as JSON,
  streamed with chunked transfer-encoding (server memory stays O(chunk))
- ``POST /models/<name>/label``    batch-label entity pairs (S3 posterior)
- ``POST /models/<name>/score``    batch similarity vectors + posteriors
- ``GET  /models/<name>/privacy``  the sealed publish-time privacy report
  (``?version=vN`` selects a version; default latest)
- ``GET  /stats``                  queue depth, latencies, batch sizes, restarts

The ``label``/``score`` endpoints are the hot path.  Per request they
pay one registry lookup, which reads and verifies a single ``meta.json``
whatever the number of published versions; one
:class:`~repro.schema.entity.Entity` per record, whose q-gram sets come
from the process-wide memo in :func:`repro.schema.entity.qgrams`, so a
string seen before is not tokenized again; and one batch through
:meth:`~repro.similarity.vector.SimilarityModel.vectors` (the kernel
layer's profile build plus sparse matmul from ``KERNEL_MIN_VECTORS`` pairs
up, the scalar loop below) with
:meth:`~repro.distributions.mixture.PairDistribution.posterior_match` on
the result.  Loaded models are cached per ``(name, version)`` and
scoring is serialized per model (the kernel vocabulary mutates on first
sight of new grams), while different models score concurrently under the
threading server.

Decode counters of loaded models' transformer text backends appear under
``generation`` in ``GET /stats``.

Overload behavior (see :mod:`repro.service.admission`): every route except
``/health`` passes through admission control — cheap ``GET`` traffic and
expensive ``POST`` traffic are budgeted separately, and exhausted budgets
answer with a structured 429 + ``Retry-After`` instead of queueing.  All
error responses share one JSON shape
(``{"error": {"code", "message", "retryable"}}``); retried submissions
carrying an idempotency key are answered from the original job record.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.privacy.attacks import attack_counters, count_attack_event
from repro.runtime import faults, integrity, resources
from repro.runtime.integrity import CorruptArtifactError
from repro.runtime.resources import ResourceExhausted
from repro.runtime.io import read_json
from repro.schema.entity import Entity
from repro.service.admission import (
    READ,
    WRITE,
    AdmissionController,
    Deadline,
    Overloaded,
)
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue, PENDING
from repro.service.registry import ModelRegistry

_MAX_BODY_BYTES = 64 * 1024 * 1024

# Sentinel payload: the route already wrote its (streamed) response body.
_STREAMED = object()

_MAX_SHARDS = 64  # sanity cap on the submit-time fan-out

# Default per-request deadlines by admission class; a client may lower
# (never raise) its own via the X-Request-Deadline header.
_DEADLINE_SECONDS = {READ: 10.0, WRITE: 120.0}

_STATUS_CODES = {
    400: "bad_request",
    404: "not_found",
    409: "conflict",
    413: "payload_too_large",
    429: "overloaded",
    500: "internal",
    503: "unavailable",
}


class ApiError(Exception):
    """An error with an HTTP status, rendered as a structured JSON body.

    Every error response has the same shape::

        {"error": {"code": "...", "message": "...", "retryable": bool}}

    ``retryable`` tells clients whether backing off and retrying can
    succeed (shed load, lapsed deadlines, transient storage trouble) or is
    pointless (validation failures, unknown routes).  ``retry_after``,
    when set, is surfaced as a ``Retry-After`` header.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        code: str | None = None,
        retryable: bool | None = None,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code or _STATUS_CODES.get(status, f"http_{status}")
        self.retryable = (
            retryable if retryable is not None else status in (429, 503)
        )
        self.retry_after = retry_after

    def body(self) -> dict:
        return {
            "error": {
                "code": self.code,
                "message": str(self),
                "retryable": self.retryable,
            }
        }


class LoadedModel:
    """A registry model held in memory for the scoring endpoints."""

    def __init__(self, synthesizer, entry):
        self.synthesizer = synthesizer
        self.entry = entry
        self.lock = threading.Lock()

    def score_pairs(self, pairs_payload: list) -> dict:
        """Batch-score raw record pairs; returns vectors + posteriors."""
        model = self.synthesizer.similarity_model
        schema = model.schema
        entities_a, entities_b = [], []
        for index, item in enumerate(pairs_payload):
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ApiError(
                    400, f"pairs[{index}] must be a [record_a, record_b] pair"
                )
            entities_a.append(_entity_from_record(schema, item[0], f"qa{index}"))
            entities_b.append(_entity_from_record(schema, item[1], f"qb{index}"))
        with self.lock:
            vectors = model.vectors(list(zip(entities_a, entities_b)))
            posterior = self.synthesizer.o_labeling.posterior_match(vectors)
        return {
            "vectors": [[float(v) for v in row] for row in vectors],
            "match_probability": [float(p) for p in posterior],
            "labels": [bool(p >= 0.5) for p in posterior],
        }


def _entity_from_record(schema, record, entity_id: str) -> Entity:
    """Build an Entity from a JSON record (dict by column, or value list)."""
    if isinstance(record, dict):
        unknown = [k for k in record if k not in schema.names]
        if unknown:
            raise ApiError(
                400,
                f"unknown column(s) {unknown}; schema has {list(schema.names)}",
            )
        values = [record.get(name) for name in schema.names]
    elif isinstance(record, (list, tuple)):
        if len(record) != len(schema):
            raise ApiError(
                400,
                f"record has {len(record)} values but the schema has "
                f"{len(schema)} columns ({list(schema.names)})",
            )
        values = list(record)
    else:
        raise ApiError(400, "each record must be an object or a value array")
    return Entity(entity_id, schema, values)


class ServiceContext:
    """Shared state behind the handler: registry, queue, caches, metrics."""

    def __init__(
        self,
        registry: ModelRegistry,
        queue: JobQueue,
        metrics: ServiceMetrics | None = None,
        *,
        worker_pool=None,
        admission: AdmissionController | None = None,
        deadline_seconds: dict[str, float] | None = None,
    ):
        self.registry = registry
        self.queue = queue
        self.metrics = metrics or ServiceMetrics()
        self.worker_pool = worker_pool
        self.admission = admission or AdmissionController()
        self.deadline_seconds = dict(_DEADLINE_SECONDS, **(deadline_seconds or {}))
        self._models: dict[tuple[str, str], LoadedModel] = {}
        self._models_lock = threading.Lock()

    def model(self, name: str, version: str | None) -> LoadedModel:
        try:
            entry = self.registry.get(name, version)
        except KeyError as error:
            raise ApiError(404, str(error)) from None
        key = (name, entry.version)
        with self._models_lock:
            loaded = self._models.get(key)
        if loaded is not None:
            return loaded
        synthesizer, entry = self.registry.load(name, entry.version)
        loaded = LoadedModel(synthesizer, entry)
        with self._models_lock:
            return self._models.setdefault(key, loaded)

    def stats(self) -> dict:
        snapshot = self.metrics.snapshot()
        for name, source in (
            ("integrity", self._integrity_snapshot),
            ("privacy_audit", attack_counters),
            ("resources", self._resources_snapshot),
        ):
            try:
                snapshot[name] = source()
            except Exception:  # noqa: BLE001 - /stats must never 500
                snapshot[name] = None
        snapshot["queue"] = self.queue.depth()
        snapshot["admission"] = self.admission.snapshot()
        snapshot["models_loaded"] = len(self._models)
        if self.worker_pool is not None:
            snapshot["workers"] = {
                "alive": self.worker_pool.alive(),
                "restarts": self.worker_pool.restarts,
            }
        latencies = [
            job.finished_unix - job.submitted_unix
            for job in self.queue.jobs()
            if job.status == "done" and job.finished_unix
        ]
        if latencies:
            snapshot["job_latency_seconds"] = ServiceMetrics._summarize(latencies)
        snapshot["generation"] = self._generation_snapshot()
        return snapshot

    def _integrity_snapshot(self) -> dict:
        """Integrity counters for ``/stats``.

        The in-process counters only see corruption this process caught;
        shard requeues happen inside *worker* processes, so that count is
        derived from the queue's audit log (``requeued_corrupt`` events),
        which every process appends to.
        """
        snapshot = integrity.counters()
        requeued = sum(
            1 for e in self.queue.events() if e.get("event") == "requeued_corrupt"
        )
        snapshot["shards_requeued_corrupt"] = max(
            snapshot.get("shards_requeued_corrupt", 0), requeued
        )
        return snapshot

    def _resources_snapshot(self) -> dict:
        """Resource-governor state for ``/stats``.

        With a governor armed this is the full picture (budgets, peaks,
        counters, disk watermarks at the queue and registry roots); without
        one it still reports RSS and free disk so operators can decide
        what budgets to configure.
        """
        roots = {"queue": self.queue.root, "registry": self.registry.root}
        governor = resources.installed()
        if governor is not None:
            return governor.snapshot(roots=roots)
        snapshot: dict = {
            "rss_mb": round(resources.current_rss_kb() / 1024.0, 3),
            "counters": resources.counters(),
            "disk": {},
        }
        for name, root in roots.items():
            free = resources.disk_free_mb(root)
            snapshot["disk"][name] = (
                {"free_mb": round(free, 3)} if free is not None else None
            )
        return snapshot

    def disk_low(self) -> dict | None:
        """The first governed root below its low-water mark, or ``None``."""
        governor = resources.installed()
        if governor is None:
            return None
        for name, root in (
            ("queue", self.queue.root), ("registry", self.registry.root)
        ):
            status = governor.disk_status(root)
            if status is not None and status["low"]:
                return {"root": name, **status}
        return None

    def _generation_snapshot(self) -> dict:
        """Decode counters summed over the text backends of every loaded
        model that keep them (rule backends do not)."""
        totals = {"generate_calls": 0, "cached_tokens": 0, "backends": 0}
        with self._models_lock:
            loaded = list(self._models.values())
        for model in loaded:
            for backend in model.synthesizer._text_backends.values():
                stats_fn = getattr(backend, "generation_stats", None)
                if stats_fn is None:
                    continue
                stats = stats_fn()
                totals["backends"] += 1
                for key in ("generate_calls", "cached_tokens"):
                    totals[key] += int(stats.get(key, 0))
        return totals


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes requests against the :class:`ServiceContext` on the server."""

    server_version = "repro-serd-service"
    protocol_version = "HTTP/1.1"

    @property
    def context(self) -> ServiceContext:
        return self.server.context  # type: ignore[attr-defined]

    def log_message(self, *_args) -> None:  # quiet by default
        pass

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send_json(
        self, status: int, payload, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise ApiError(413, f"request body over {_MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as error:
            raise ApiError(400, f"request body is not valid JSON: {error.msg}")
        if not isinstance(payload, dict):
            raise ApiError(400, "request body must be a JSON object")
        return payload

    def _classify(self, method: str, parts: list[str]) -> str | None:
        """Admission class for a route; ``None`` exempts it (liveness)."""
        if parts == ["health"]:
            return None
        return READ if method == "GET" else WRITE

    def _client_telemetry(self) -> None:
        """Count retry/circuit telemetry the client piggybacks on requests."""
        metrics = self.context.metrics
        try:
            if int(self.headers.get("X-Retry-Attempt") or 0) > 0:
                metrics.count("http.retried_requests")
            opened = int(self.headers.get("X-Circuit-Opened") or 0)
            if opened > 0:
                metrics.count("client.circuit_opened", opened)
        except ValueError:  # garbage headers are not worth a 400
            pass

    def _deadline(self, request_class: str) -> Deadline:
        seconds = self.context.deadline_seconds[request_class]
        try:
            requested = float(self.headers.get("X-Request-Deadline") or seconds)
        except ValueError:
            requested = seconds
        return Deadline(max(0.0, min(seconds, requested)))

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        headers: dict[str, str] = {}
        self.deadline: Deadline | None = None
        try:
            self._client_telemetry()
            request_class = self._classify(method, parts)
            if request_class is None:
                status, payload = self._route(method, parts)
            else:
                with self.context.admission.admit(request_class):
                    self.deadline = self._deadline(request_class)
                    status, payload = self._route(method, parts)
        except Overloaded as error:
            # Load shed: constant-time 429 with a structured body and a
            # retry hint — never a hang, never a 500.
            status = 429
            shed = ApiError(
                429, str(error), code=error.code, retryable=True,
                retry_after=error.retry_after,
            )
            payload = shed.body()
            headers["Retry-After"] = f"{error.retry_after:g}"
            self.context.metrics.count(f"admission.shed.{error.code}")
        except ApiError as error:
            status, payload = error.status, error.body()
            if error.retry_after is not None:
                headers["Retry-After"] = f"{error.retry_after:g}"
        except (BrokenPipeError, ConnectionResetError):  # client went away
            return
        except CorruptArtifactError as error:
            # A durable artifact failed verification mid-request; it has
            # been quarantined, so a retry reads healthy fallback state
            # (previous model version, requeued shard) instead of garbage.
            status = 503
            payload = ApiError(
                503, str(error), code="corrupt_artifact", retryable=True,
            ).body()
            self.context.metrics.count("http.corrupt_artifacts")
        except ResourceExhausted as error:
            # The governor refused the work *before* any bytes moved (disk
            # below the low-water mark, or a memory budget shrinking could
            # not absorb).  Distinct from storage_error: nothing failed —
            # the service is shedding load it predicts it cannot hold.
            status = 503
            payload = ApiError(
                503, str(error), code="resource_exhausted", retryable=True,
                retry_after=5.0,
            ).body()
            headers["Retry-After"] = "5"
            self.context.metrics.count("http.resource_exhausted")
        except OSError as error:
            # Disk trouble (ENOSPC and friends).  The write was atomic —
            # nothing partial is on disk — so the operation is safely
            # retryable once space/IO recovers.
            status = 503
            payload = ApiError(
                503, f"storage error: {error}", code="storage_error",
                retryable=True,
            ).body()
            self.context.metrics.count("http.storage_errors")
        except Exception as error:  # noqa: BLE001 - never kill the server
            status = 500
            payload = ApiError(
                500, f"{type(error).__name__}: {error}", retryable=False
            ).body()
        self.context.metrics.count(f"http.{method}.{parts[0] if parts else 'root'}")
        self.context.metrics.observe(
            "request_seconds", time.perf_counter() - started
        )
        if payload is _STREAMED:
            return  # the route already wrote its chunked response
        try:
            self._send_json(status, payload, headers)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _route(self, method: str, parts: list[str]) -> tuple[int, object]:
        context = self.context
        if method == "GET" and parts == ["health"]:
            low = context.disk_low()
            if low is not None:
                # 503 with the watermark readings: health probes (and
                # load balancers) should stop routing work at a node that
                # will refuse every durable commit anyway.
                return 503, {"status": "disk_low", "disk": low}
            return 200, {"status": "ok"}
        if method == "GET" and parts == ["stats"]:
            return 200, context.stats()
        if method == "GET" and parts == ["models"]:
            return 200, {"models": context.registry.list_models()}
        if method == "POST" and parts == ["jobs"]:
            return self._submit_job()
        if method == "GET" and parts == ["jobs"]:
            return 200, {"jobs": [j.to_dict() for j in context.queue.jobs()]}
        if method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            return 200, self._job_record(parts[1]).to_dict()
        if (
            method == "GET"
            and len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "dataset"
        ):
            return self._job_dataset(parts[1])
        if (
            method == "GET"
            and len(parts) == 3
            and parts[0] == "models"
            and parts[2] == "privacy"
        ):
            return self._model_privacy(parts[1])
        if (
            method == "POST"
            and len(parts) == 3
            and parts[0] == "models"
            and parts[2] in ("label", "score")
        ):
            return self._score(parts[1], mode=parts[2])
        raise ApiError(404, f"no route {method} /{'/'.join(parts)}")

    def _model_privacy(self, name: str) -> tuple[int, dict]:
        """The sealed publish-time privacy report of one model version.

        ``_dispatch`` strips the query string before routing, so the
        optional ``?version=vN`` selector is re-parsed from the raw path.
        """
        query = parse_qs(urlsplit(self.path).query)
        version = (query.get("version") or [None])[0]
        try:
            entry = self.context.registry.get(name, version)
        except KeyError as error:
            raise ApiError(404, str(error)) from None
        report_path = (
            self.context.registry.version_dir(name, entry.version)
            / "privacy_report.json"
        )
        if not report_path.exists():
            raise ApiError(
                404,
                f"model {name!r} version {entry.version} has no privacy "
                "report (registered with audit disabled)",
                code="no_privacy_report",
            )
        report = read_json(
            report_path, what=f"privacy report for {name}/{entry.version}"
        )
        count_attack_event("privacy_reports_served")
        return 200, {"model": name, "version": entry.version, "report": report}

    def _job_record(self, job_id: str):
        try:
            return self.context.queue.get(job_id)
        except KeyError as error:
            raise ApiError(404, str(error)) from None

    def _submit_job(self) -> tuple[int, dict]:
        payload = self._read_body()
        model = payload.get("model")
        if not model:
            raise ApiError(400, "'model' is required")
        try:
            entry = self.context.registry.get(model, payload.get("version"))
        except KeyError as error:
            raise ApiError(404, str(error)) from None
        for size_key in ("n_a", "n_b"):
            value = payload.get(size_key)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ApiError(400, f"{size_key!r} must be a positive integer")
        shards = payload.get("shards", 1)
        if not isinstance(shards, int) or not 1 <= shards <= _MAX_SHARDS:
            raise ApiError(
                400, f"'shards' must be an integer in [1, {_MAX_SHARDS}]"
            )
        idempotency_key = (
            payload.get("idempotency_key")
            or self.headers.get("Idempotency-Key")
            or None
        )
        if idempotency_key is not None and not isinstance(idempotency_key, str):
            raise ApiError(400, "'idempotency_key' must be a string")
        # Backpressure before the write: a deep pending backlog means the
        # workers are behind, and accepting more only hides the problem.
        depth = self.context.queue.depth()
        self.context.admission.check_queue_budget(depth.get(PENDING, 0))
        job = self.context.queue.submit(
            model,
            version=entry.version,
            n_a=payload.get("n_a"),
            n_b=payload.get("n_b"),
            seed=payload.get("seed"),
            idempotency_key=idempotency_key,
            shards=shards,
        )
        if getattr(job, "duplicate", False):
            # A retried submission: the original record answers it.
            self.context.metrics.count("jobs.deduplicated")
            return 200, job.to_dict()
        self.context.metrics.count("jobs.submitted")
        return 201, job.to_dict()

    def _job_dataset(self, job_id: str) -> tuple[int, object]:
        """Stream the finished dataset as one chunked JSON document.

        The export CSVs are read row-wise (``iter_saved_dataset_json``) and
        framed straight onto the socket with chunked transfer-encoding, so
        serving an n-entity dataset holds O(chunk) rows in memory — the
        server's peak RSS no longer scales with the dataset it serves.
        The document is byte-compatible with the old buffered response.
        """
        job = self._job_record(job_id)
        if job.status != "done":
            raise ApiError(
                409, f"job {job_id} is {job.status}; dataset exists once done"
            )
        from repro.schema.io import iter_saved_dataset_json

        self._check_deadline()
        fragments = iter_saved_dataset_json(job.result["dataset_dir"])
        try:
            # Pull the first fragment before committing to a 200: a missing
            # or corrupt export surfaces as a structured error, not a
            # half-written stream.
            first = next(fragments)
        except (OSError, ValueError, KeyError) as error:
            raise ApiError(
                503, f"dataset export unreadable: {error}",
                code="storage_error", retryable=True,
            ) from None
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            truncated = False
            for fragment in self._chain_first(first, fragments):
                if faults.fire("net.stream.server_truncate"):
                    # Simulated upstream death mid-stream: drop the
                    # connection without the terminating chunk, so the
                    # client sees a truncated chunked body.
                    truncated = True
                    break
                # server_garble produces a byte-for-byte *valid* chunked
                # body whose content is wrong — only the trailing checksum
                # record catches it on the client.
                self._write_chunk(
                    faults.transform("net.stream.server_garble", fragment)
                )
            if truncated:
                self.close_connection = True
            else:
                self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream
        except OSError:
            # Storage died mid-stream; the truncated chunked body tells the
            # client the response is incomplete (no terminating chunk).
            pass
        return 200, _STREAMED

    @staticmethod
    def _chain_first(first, rest):
        yield first
        yield from rest

    def _write_chunk(self, fragment: str) -> None:
        data = fragment.encode("utf-8")
        if not data:
            return
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")

    def _check_deadline(self) -> None:
        if self.deadline is not None and self.deadline.expired:
            raise ApiError(
                503,
                f"request deadline of {self.deadline.seconds:.1f}s lapsed "
                "before the work could start",
                code="deadline_exceeded",
                retryable=True,
                retry_after=1.0,
            )

    def _score(self, model_name: str, *, mode: str) -> tuple[int, dict]:
        payload = self._read_body()
        pairs = payload.get("pairs")
        if not isinstance(pairs, list) or not pairs:
            raise ApiError(400, "'pairs' must be a non-empty array of pairs")
        loaded = self.context.model(model_name, payload.get("version"))
        # The batch matmul is the expensive part; give up before it rather
        # than burn compute on an answer the client stopped waiting for.
        self._check_deadline()
        started = time.perf_counter()
        scored = loaded.score_pairs(pairs)
        seconds = time.perf_counter() - started
        metrics = self.context.metrics
        metrics.count(f"{mode}.requests")
        metrics.count(f"{mode}.pairs", len(pairs))
        metrics.observe(f"{mode}.batch_size", len(pairs))
        metrics.observe(f"{mode}.seconds", seconds)
        response = {
            "model": loaded.entry.name,
            "version": loaded.entry.version,
            "n_pairs": len(pairs),
            "seconds": seconds,
            "labels": scored["labels"],
            "match_probability": scored["match_probability"],
        }
        if mode == "score":
            response["vectors"] = scored["vectors"]
        return 200, response


def make_server(
    context: ServiceContext, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve threading HTTP server bound to ``context``."""
    server = ThreadingHTTPServer((host, port), ServiceRequestHandler)
    server.context = context  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server
