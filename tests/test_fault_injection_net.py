"""Network fault injection against the live service (net.* sites).

Each test arms a deterministic plan at one of the transport's
failure-prone points — connection reset before the request, a garbled
buffered body, a mid-stream drop, a server that truncates or corrupts
the chunked dataset export — and asserts the client's documented
behavior: typed retryable errors, end-to-end checksum detection, and a
retry that succeeds once the fault stops firing.
"""

import functools
import threading
import warnings
from unittest import mock

import pytest

from repro.runtime.faults import FaultPlan, FaultSpec, NetFault, inject_faults
from repro.schema import io as schema_io
from repro.service import JobQueue, Worker
from repro.service.api import ServiceContext, make_server
from repro.service.client import RetryPolicy, ServiceClient, ServiceError

pytestmark = pytest.mark.fault_injection


def _legacy_server():
    """Serve dataset streams without the checksum trailer, as servers that
    predate it did."""
    return mock.patch.object(
        schema_io, "iter_saved_dataset_json",
        functools.partial(schema_io.iter_saved_dataset_json, integrity=False),
    )


@pytest.fixture
def served(service_registry, tmp_path):
    """A live API server (no worker pool) + fast-retrying client."""
    queue = JobQueue(tmp_path / "queue")
    context = ServiceContext(service_registry, queue)
    server = make_server(context, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}",
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05),
    )
    try:
        yield client, queue, context
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def done_job(served, service_registry):
    """A completed 10x10 synthesis job on the served queue."""
    client, queue, _ = served
    job = client.submit("restaurant", n_a=10, n_b=10, seed=13)
    worker = Worker(queue, service_registry, lease_seconds=30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert worker.run_once()
    client.wait(job["id"], timeout=30)
    return job["id"]


class TestRequestFaults:
    def test_connection_reset_retried(self, served):
        client, _, _ = served
        plan = FaultPlan(FaultSpec("net.request", at_calls=(1,)))
        with inject_faults(plan):
            assert client.health() == {"status": "ok"}
        assert plan.fired("net.request") == 1
        assert client.metrics["transport_errors"] == 1
        assert client.metrics["retries"] == 1

    def test_persistent_reset_exhausts_budget(self, served):
        client, _, _ = served
        plan = FaultPlan(FaultSpec("net.request"))  # every call fires
        with inject_faults(plan):
            with pytest.raises(ServiceError) as excinfo:
                client.health()
        assert excinfo.value.status == 0
        assert excinfo.value.code == "transport"
        assert plan.fired("net.request") == client.retry_policy.max_attempts

    def test_timeout_payload_retried(self, served):
        client, _, _ = served
        plan = FaultPlan(
            FaultSpec("net.request", at_calls=(1,), payload=TimeoutError)
        )
        with inject_faults(plan):
            assert client.health() == {"status": "ok"}
        assert client.metrics["retries"] == 1

    def test_garbled_body_retried_not_crash(self, served):
        """A 200 whose body rotted in flight must never escape as a raw
        JSONDecodeError — it is a retryable transport_corrupt error."""
        client, _, _ = served
        plan = FaultPlan(
            FaultSpec(
                "net.response.body", at_calls=(1,),
                payload=lambda data: data[: len(data) // 2] + b"\xff\xfe",
            )
        )
        with inject_faults(plan):
            assert client.health() == {"status": "ok"}
        assert client.metrics["transport_errors"] == 1
        assert client.metrics["retries"] == 1

    def test_garbled_body_exhaustion_is_typed(self, served):
        client, _, _ = served
        plan = FaultPlan(
            FaultSpec("net.response.body", payload=lambda data: b"not json")
        )
        with inject_faults(plan):
            with pytest.raises(ServiceError) as excinfo:
                client.health()
        assert excinfo.value.code == "transport_corrupt"


class TestStreamClientFaults:
    def test_mid_stream_reset_retried(self, served, done_job):
        client, _, _ = served
        plan = FaultPlan(FaultSpec("net.stream.read", at_calls=(2,)))
        with inject_faults(plan):
            dataset = client.dataset(done_job)
        assert plan.fired("net.stream.read") == 1
        assert len(dataset["table_a"]) == 10
        assert "integrity" not in dataset

    def test_mid_stream_timeout_retried(self, served, done_job):
        client, _, _ = served
        plan = FaultPlan(
            FaultSpec("net.stream.read", at_calls=(1,), payload=TimeoutError)
        )
        with inject_faults(plan):
            dataset = client.dataset(done_job)
        assert len(dataset["table_b"]) == 10

    def test_garbled_chunk_caught_by_checksum(self, served, done_job):
        """Client-side chunk corruption: the transport framing is intact,
        only the end-to-end digest can notice."""
        client, _, _ = served

        def flip(chunk: bytes) -> bytes:
            return b"X" + chunk[1:]  # same length, wrong content

        plan = FaultPlan(
            FaultSpec("net.stream.chunk", at_calls=(1,), payload=flip)
        )
        with inject_faults(plan):
            dataset = client.dataset(done_job)
        assert plan.fired("net.stream.chunk") == 1
        assert len(dataset["table_a"]) == 10

    def test_stream_errors_are_typed_on_exhaustion(self, served, done_job):
        client, _, _ = served
        plan = FaultPlan(
            FaultSpec("net.stream.chunk", payload=lambda c: b"X" + c[1:])
        )
        with inject_faults(plan):
            with pytest.raises(ServiceError) as excinfo:
                client.dataset(done_job)
        assert excinfo.value.code in (
            "stream_corrupt", "stream_truncated", "transport_corrupt"
        )
        assert excinfo.value.retryable


class TestStreamServerFaults:
    def test_server_truncation_detected_and_retried(self, served, done_job):
        """The ISSUE's acceptance scenario: the server drops the
        connection mid-export; the client detects the missing checksum
        trailer (or torn framing), and the retry succeeds."""
        client, _, _ = served
        plan = FaultPlan(FaultSpec("net.stream.server_truncate", at_calls=(3,)))
        with inject_faults(plan):
            dataset = client.dataset(done_job)
        assert plan.fired("net.stream.server_truncate") == 1
        assert len(dataset["table_a"]) == 10
        assert client.metrics["retries"] >= 1

    def test_server_truncation_exhaustion_is_typed(self, served, done_job):
        client, _, _ = served
        plan = FaultPlan(FaultSpec("net.stream.server_truncate", at_calls=(1, 2, 3, 4)))
        with inject_faults(plan):
            with pytest.raises(ServiceError) as excinfo:
                client.dataset(done_job)
        assert excinfo.value.status == 0
        assert excinfo.value.retryable
        assert excinfo.value.code in ("stream_truncated", "transport")

    def test_server_garble_caught_only_by_checksum(self, served, done_job):
        """Server-side corruption that keeps the chunked framing perfectly
        valid: without the trailer the client would hand back a wrong
        dataset with no error at all."""
        client, _, _ = served

        plan = FaultPlan(
            FaultSpec(
                "net.stream.server_garble", at_calls=(2,),
                payload=lambda fragment: "X" + fragment[1:],
            )
        )
        with inject_faults(plan):
            dataset = client.dataset(done_job)
        assert plan.fired("net.stream.server_garble") == 1
        assert len(dataset["table_a"]) == 10

    def test_dataset_stream_yields_incrementally(self, served, done_job):
        client, _, _ = served
        fragments = list(client.dataset_stream(done_job))
        assert len(fragments) > 1
        document = "".join(fragments)
        assert document.endswith('"}}')
        import json

        payload = json.loads(document)
        assert "integrity" in payload  # raw stream keeps the trailer
        assert len(payload["table_a"]) == 10

    def test_unverified_stream_accepts_legacy_server(
        self, served, service_registry, tmp_path
    ):
        """A server that emits no trailer; a client told not to verify
        still reads the document."""
        client, queue, _ = served
        job = client.submit("restaurant", n_a=8, n_b=8, seed=5)
        worker = Worker(queue, service_registry, lease_seconds=30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert worker.run_once()
        client.wait(job["id"], timeout=30)
        with _legacy_server():
            document = "".join(client.dataset_stream(job["id"], verify=False))
        import json

        payload = json.loads(document)
        assert "integrity" not in payload
        assert len(payload["table_a"]) == 8

    def test_verify_rejects_missing_trailer(self, served, service_registry):
        client, queue, _ = served
        job = client.submit("restaurant", n_a=8, n_b=8, seed=7)
        worker = Worker(queue, service_registry, lease_seconds=30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert worker.run_once()
        client.wait(job["id"], timeout=30)
        with _legacy_server():
            with pytest.raises(ServiceError) as excinfo:
                list(client.dataset_stream(job["id"], verify=True))
        assert excinfo.value.code == "stream_truncated"


class TestNetFaultType:
    def test_netfault_is_oserror(self):
        assert issubclass(NetFault, OSError)
        fault = NetFault("net.request")
        assert fault.site == "net.request"
