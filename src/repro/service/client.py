"""Resilient ``urllib`` client for the synthesis service HTTP API.

Used by the ``repro submit`` / ``repro status`` CLI commands, the service
smoke tests and the label-throughput benchmark; kept dependency-free so any
process with the standard library can talk to a running service.

The transport layer owns the overload story from the client side:

- **Retries with full jitter** — retryable failures (connection errors,
  timeouts, 429/503) back off exponentially with full-jitter sleeps
  (``uniform(0, min(cap, base·2^attempt))``), honoring the server's
  ``Retry-After`` hint as a floor, under both an attempt budget and a
  wall-clock budget (:class:`RetryPolicy`).
- **Idempotent submission** — :meth:`ServiceClient.submit` attaches an
  idempotency key (generated when the caller gives none), so a retried
  ``POST /jobs`` whose first attempt actually landed is answered from the
  original job record instead of double-enqueueing the work.
- **Circuit breaker** — after ``failure_threshold`` consecutive transport
  failures the circuit opens and calls fail fast with
  :class:`CircuitOpenError` for ``cooldown_seconds`` (monotonic clock);
  the first call after the cooldown is the half-open probe.
- **Typed errors** — every non-2xx response raises :class:`ServiceError`
  carrying the structured ``code`` / ``retryable`` fields the API returns.
- **End-to-end dataset integrity** — :meth:`ServiceClient.dataset_stream`
  consumes the chunked dataset export incrementally (client memory stays
  O(chunk), matching the server's guarantee) while hashing every byte; the
  document's trailing checksum record is verified at EOF, so a truncated
  or garbled stream raises a *retryable* :class:`ServiceError`
  (``stream_truncated`` / ``stream_corrupt``) instead of silently handing
  back a short dataset.  :meth:`ServiceClient.dataset` wraps the stream
  with the standard retry policy.

All deadline math uses ``time.monotonic``: a wall-clock jump (NTP step,
suspend/resume) can neither spuriously expire a wait nor extend one.

Transport faults (``net.*`` sites, :mod:`repro.runtime.faults`) are
compiled into the request and stream paths so the chaos suite can inject
connection resets, garbled bodies and mid-stream drops deterministically.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import re
import threading
import time
import urllib.error
import urllib.request
import uuid
from dataclasses import dataclass

from repro.runtime import faults

# The dataset stream's trailing checksum record, byte-for-byte as emitted
# by repro.schema.io.iter_saved_dataset_json.  Mirrored here (rather than
# imported) so the client keeps no dependency on the schema/numpy stack;
# a unit test asserts the two stay in sync.
_STREAM_TRAILER_PREFIX = ', "integrity": {"algo": "sha256", "digest": "'
_STREAM_TRAILER_SUFFIX = '"}}'
_STREAM_TRAILER_LEN = (
    len(_STREAM_TRAILER_PREFIX) + 64 + len(_STREAM_TRAILER_SUFFIX)
)
_STREAM_TRAILER_RE = re.compile(
    re.escape(_STREAM_TRAILER_PREFIX)
    + r"([0-9a-f]{64})"
    + re.escape(_STREAM_TRAILER_SUFFIX)
)


class ServiceError(RuntimeError):
    """An error response from the service, with its structured fields.

    ``status`` is the HTTP status (0 for transport-level failures that
    never got a response), ``code`` the machine-readable error code,
    ``retryable`` whether the server judged a retry worthwhile and
    ``retry_after`` its backoff hint in seconds, when given.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        code: str = "",
        retryable: bool | None = None,
        retry_after: float | None = None,
    ):
        super().__init__(f"HTTP {status}: {message}" if status else message)
        self.status = status
        self.code = code
        self.retryable = (
            retryable if retryable is not None else status in (429, 502, 503, 504)
        )
        self.retry_after = retry_after


class CircuitOpenError(ServiceError):
    """Failing fast: the circuit is open after consecutive failures."""

    def __init__(self, remaining: float):
        super().__init__(
            0,
            f"circuit open for another {remaining:.1f}s after consecutive "
            "failures; failing fast",
            code="circuit_open",
            retryable=True,
            retry_after=remaining,
        )


@dataclass
class RetryPolicy:
    """Exponential backoff with full jitter plus attempt/time budgets."""

    max_attempts: int = 5
    base_delay: float = 0.2
    max_delay: float = 10.0
    budget_seconds: float = 120.0

    def delay(self, attempt: int, retry_after: float | None, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (0-based).

        Full jitter — ``uniform(0, cap)`` — decorrelates a thundering herd
        of retrying clients; a server ``Retry-After`` hint acts as a floor
        so shed requests respect the pacing the server asked for.
        """
        cap = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        jittered = rng.uniform(0.0, cap)
        if retry_after:
            jittered = max(jittered, float(retry_after))
        return jittered


class CircuitBreaker:
    """Consecutive-failure circuit with a monotonic cooldown."""

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown_seconds: float = 30.0,
        clock=time.monotonic,
    ):
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self.opens = 0
        self.unreported_opens = 0  # piggybacked to the server, see _request

    def before_request(self) -> None:
        """Raise :class:`CircuitOpenError` while the cooldown holds.

        After the cooldown one call is let through as the half-open probe;
        its outcome (via :meth:`record`) closes or re-arms the circuit.
        """
        with self._lock:
            if self._opened_at is None:
                return
            elapsed = self._clock() - self._opened_at
            if elapsed < self.cooldown_seconds:
                raise CircuitOpenError(self.cooldown_seconds - elapsed)

    def record(self, success: bool) -> None:
        with self._lock:
            if success:
                self._consecutive_failures = 0
                self._opened_at = None
                return
            self._consecutive_failures += 1
            if self._opened_at is not None:
                self._opened_at = self._clock()  # failed probe re-arms
            elif self._consecutive_failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self.opens += 1
                self.unreported_opens += 1

    @property
    def is_open(self) -> bool:
        with self._lock:
            return (
                self._opened_at is not None
                and self._clock() - self._opened_at < self.cooldown_seconds
            )


class ServiceClient:
    """Talks to one service instance at ``base_url``."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        retry_policy: RetryPolicy | None = None,
        circuit: CircuitBreaker | None = None,
        rng: random.Random | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self.circuit = circuit or CircuitBreaker()
        self.rng = rng or random.Random()
        self.metrics = {"retries": 0, "transport_errors": 0, "shed_responses": 0}

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request_once(
        self, method: str, path: str, payload: dict | None, attempt: int
    ) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if attempt > 0:
            headers["X-Retry-Attempt"] = str(attempt)
        if self.circuit.unreported_opens > 0:
            headers["X-Circuit-Opened"] = str(self.circuit.unreported_opens)
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, method=method, headers=headers
        )
        faults.maybe_net_fault("net.request")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                if "X-Circuit-Opened" in headers:
                    self.circuit.unreported_opens = 0
                data = response.read()
        except urllib.error.HTTPError as error:
            raise self._decode_error(error) from None
        data = faults.transform("net.response.body", data)
        try:
            return json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            # A 200 whose body does not parse is a transport-level
            # corruption (proxy truncation, bit flips): retryable, and it
            # must not escape as a raw JSONDecodeError.
            raise ServiceError(
                0,
                f"malformed response body from {method} {path}: {error}",
                code="transport_corrupt",
                retryable=True,
            ) from None

    @staticmethod
    def _decode_error(error: urllib.error.HTTPError) -> ServiceError:
        """Build the typed error from a structured (or legacy) body."""
        code, message, retryable = "", error.reason, None
        try:
            payload = json.loads(error.read().decode("utf-8")).get("error", "")
            if isinstance(payload, dict):  # structured {"error": {...}}
                code = payload.get("code", "")
                message = payload.get("message", message)
                retryable = payload.get("retryable")
            elif payload:  # legacy plain-string body
                message = payload
        except (ValueError, AttributeError):
            pass
        retry_after = None
        header = error.headers.get("Retry-After") if error.headers else None
        if header:
            try:
                retry_after = float(header)
            except ValueError:
                pass
        return ServiceError(
            error.code, message, code=code, retryable=retryable,
            retry_after=retry_after,
        )

    def _with_retries(self, perform):
        """Run ``perform(attempt)`` under the retry policy + circuit.

        ``perform`` may raise :class:`ServiceError` (HTTP errors, or
        synthesized transport/stream errors with ``status == 0``) or raw
        transport exceptions; retryable failures back off with full jitter
        under the attempt and wall-clock budgets.  Both plain requests and
        the verified dataset fetch run through here, so a truncated stream
        retries exactly like a shed 429.
        """
        policy = self.retry_policy
        started = time.monotonic()
        attempt = 0
        while True:
            self.circuit.before_request()
            try:
                result = perform(attempt)
            except ServiceError as error:
                # Only 5xx (and transport-level status-0) failures count
                # against the circuit: a shed 429 is the server *working as
                # designed* under load (Retry-After is the pacing mechanism
                # there), and 4xx is the caller's problem — neither says
                # the server is unhealthy.
                self.circuit.record(success=0 < error.status < 500)
                if error.status == 429:
                    self.metrics["shed_responses"] += 1
                if error.status == 0:
                    self.metrics["transport_errors"] += 1
                if not error.retryable:
                    raise
                last_error: ServiceError = error
            except (
                urllib.error.URLError,
                TimeoutError,
                http.client.HTTPException,
                OSError,
            ) as error:
                # HTTPException covers e.g. IncompleteRead from a truncated
                # chunked body — a transport failure, not a crash.
                self.circuit.record(success=False)
                self.metrics["transport_errors"] += 1
                reason = getattr(error, "reason", None) or error
                last_error = ServiceError(
                    0, f"transport error: {reason}", code="transport",
                    retryable=True,
                )
            else:
                self.circuit.record(success=True)
                return result
            delay = policy.delay(attempt, last_error.retry_after, self.rng)
            attempt += 1
            if attempt >= policy.max_attempts:
                raise last_error
            if time.monotonic() - started + delay > policy.budget_seconds:
                raise last_error
            self.metrics["retries"] += 1
            time.sleep(delay)

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        return self._with_retries(
            lambda attempt: self._request_once(method, path, payload, attempt)
        )

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health")

    def models(self) -> list[dict]:
        return self._request("GET", "/models")["models"]

    def model_privacy(self, name: str, version: str | None = None) -> dict:
        """The sealed publish-time privacy report of a model version."""
        path = f"/models/{name}/privacy"
        if version:
            path += f"?version={version}"
        return self._request("GET", path)

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def submit(
        self,
        model: str,
        *,
        version: str | None = None,
        n_a: int | None = None,
        n_b: int | None = None,
        seed: int | None = None,
        shards: int | None = None,
        idempotency_key: str | None = None,
    ) -> dict:
        """Submit a job, exactly once even across retries.

        Every submission carries an idempotency key (a fresh UUID when the
        caller supplies none), so a retry after an ambiguous failure — the
        request may or may not have landed — can only ever observe the
        first enqueue, never create a second one.

        ``shards`` > 1 asks the service to fan the S2 loop out across its
        worker pool (one sub-job per shard).
        """
        payload = {
            "model": model,
            "idempotency_key": idempotency_key or uuid.uuid4().hex,
        }
        if version is not None:
            payload["version"] = version
        if n_a is not None:
            payload["n_a"] = n_a
        if n_b is not None:
            payload["n_b"] = n_b
        if seed is not None:
            payload["seed"] = seed
        if shards is not None:
            payload["shards"] = shards
        return self._request("POST", "/jobs", payload)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def dataset_stream(
        self, job_id: str, *, verify: bool = True,
        chunk_bytes: int = 65536,
    ):
        """Stream the dataset export, verifying its trailing checksum.

        Yields decoded text fragments whose concatenation is the full JSON
        document, reading at most ``chunk_bytes`` off the socket at a time
        — client memory stays O(chunk), matching the server's streaming
        guarantee, instead of buffering the whole body.

        The last :data:`_STREAM_TRAILER_LEN` bytes are held back until EOF
        and matched against the checksum record the server appends; every
        earlier byte is hashed as it is yielded.  A missing trailer
        (truncated stream) or a digest mismatch (garbled stream) raises a
        *retryable* :class:`ServiceError` with code ``stream_truncated`` /
        ``stream_corrupt``.  ``verify=False`` downgrades a missing trailer
        to acceptance — for talking to servers that predate the
        checksum — but a trailer that *is* present is always verified.

        This is the raw single-attempt stream: it does not retry or touch
        the circuit breaker (a generator held across sleeps would pin the
        breaker state); :meth:`dataset` wraps it with the retry policy.
        """
        request = urllib.request.Request(
            f"{self.base_url}/jobs/{job_id}/dataset", method="GET"
        )
        hasher = hashlib.sha256()
        tail = b""
        try:
            faults.maybe_net_fault("net.request")
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                while True:
                    faults.maybe_net_fault("net.stream.read")
                    chunk = response.read(chunk_bytes)
                    if not chunk:
                        break
                    chunk = faults.transform("net.stream.chunk", chunk)
                    tail += chunk
                    if len(tail) > _STREAM_TRAILER_LEN:
                        emit, tail = (
                            tail[:-_STREAM_TRAILER_LEN],
                            tail[-_STREAM_TRAILER_LEN:],
                        )
                        hasher.update(emit)
                        try:
                            yield emit.decode("utf-8")
                        except UnicodeDecodeError as error:
                            raise ServiceError(
                                0,
                                f"dataset stream for job {job_id} is not "
                                f"valid UTF-8: {error}",
                                code="stream_corrupt", retryable=True,
                            ) from None
        except urllib.error.HTTPError as error:
            raise self._decode_error(error) from None
        except (
            urllib.error.URLError,
            TimeoutError,
            http.client.HTTPException,
            OSError,
        ) as error:
            reason = getattr(error, "reason", None) or error
            raise ServiceError(
                0,
                f"dataset stream for job {job_id} broke mid-transfer: "
                f"{reason}",
                code="transport", retryable=True,
            ) from None
        try:
            text_tail = tail.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ServiceError(
                0,
                f"dataset stream for job {job_id} is not valid UTF-8: "
                f"{error}",
                code="stream_corrupt", retryable=True,
            ) from None
        match = _STREAM_TRAILER_RE.fullmatch(text_tail)
        if match is None:
            if not verify:
                hasher.update(tail)
                yield text_tail
                return
            raise ServiceError(
                0,
                f"dataset stream for job {job_id} ended without its "
                "checksum trailer (truncated or pre-integrity server)",
                code="stream_truncated", retryable=True,
            )
        if match.group(1) != hasher.hexdigest():
            raise ServiceError(
                0,
                f"dataset stream for job {job_id} failed checksum "
                f"verification: digest {match.group(1)[:12]}… does not "
                f"match streamed bytes {hasher.hexdigest()[:12]}…",
                code="stream_corrupt", retryable=True,
            )
        yield text_tail  # the trailer record itself closes the document

    def dataset(self, job_id: str) -> dict:
        """Fetch, verify and parse the dataset export, with retries.

        A truncated or garbled stream surfaces as a retryable error from
        :meth:`dataset_stream`, so the standard policy re-fetches it; the
        checksum record is stripped from the returned document.
        """
        def perform(attempt: int) -> dict:
            text = "".join(self.dataset_stream(job_id))
            try:
                payload = json.loads(text)
            except ValueError as error:
                raise ServiceError(
                    0,
                    f"dataset for job {job_id} did not parse as JSON: "
                    f"{error}",
                    code="transport_corrupt", retryable=True,
                ) from None
            payload.pop("integrity", None)
            return payload

        return self._with_retries(perform)

    def label(
        self, model: str, pairs: list, *, version: str | None = None
    ) -> dict:
        payload = {"pairs": pairs}
        if version is not None:
            payload["version"] = version
        return self._request("POST", f"/models/{model}/label", payload)

    def score(
        self, model: str, pairs: list, *, version: str | None = None
    ) -> dict:
        payload = {"pairs": pairs}
        if version is not None:
            payload["version"] = version
        return self._request("POST", f"/models/{model}/score", payload)

    def wait(
        self, job_id: str, *, timeout: float = 600.0, poll_seconds: float = 0.5
    ) -> dict:
        """Poll until the job reaches a terminal state (done/failed).

        Monotonic deadline: a wall-clock step (NTP correction, VM
        suspend/resume) can neither expire the wait early nor stretch it.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["status"] in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['status']!r} after {timeout}s"
                )
            time.sleep(poll_seconds)
