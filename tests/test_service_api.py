"""Tests for the HTTP API + client (repro.service.api / client)."""

import json
import shutil
import threading
import urllib.request

import numpy as np
import pytest

from repro.core import SERDConfig
from repro.runtime import integrity
from repro.service import JobQueue, ModelRegistry, Worker
from repro.service.api import ServiceContext, make_server
from repro.service.client import ServiceClient, ServiceError


@pytest.fixture
def served(service_registry, tmp_path):
    """A live API server (no worker pool) + client over a fresh queue."""
    queue = JobQueue(tmp_path / "queue")
    context = ServiceContext(service_registry, queue)
    server = make_server(context, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client, queue, context
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _record_pairs(real, count=6):
    """[record_a, record_b] value-list pairs: the first `count` matches."""
    pairs = []
    for a_id, b_id in real.matches[:count]:
        pairs.append(
            [list(real.table_a[a_id].values), list(real.table_b[b_id].values)]
        )
    return pairs


class TestBasicRoutes:
    def test_health(self, served):
        client, _, _ = served
        assert client.health() == {"status": "ok"}

    def test_models(self, served):
        client, _, _ = served
        models = client.models()
        assert [(m["name"], m["version"]) for m in models] == [("restaurant", "v1")]
        assert "config_hash" in models[0]

    def test_unknown_route_404(self, served):
        client, _, _ = served
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404


class TestJobRoutes:
    def test_submit_validates_model(self, served):
        client, _, _ = served
        with pytest.raises(ServiceError) as excinfo:
            client.submit("not-a-model")
        assert excinfo.value.status == 404

    def test_submit_validates_sizes(self, served):
        client, _, _ = served
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", {"model": "restaurant", "n_a": -3})
        assert excinfo.value.status == 400

    def test_submit_pins_model_version(self, served):
        client, queue, _ = served
        job = client.submit("restaurant")
        assert job["status"] == "pending"
        assert job["version"] == "v1"  # resolved at submission time
        assert queue.get(job["id"]).model == "restaurant"

    def test_dataset_before_done_409(self, served):
        client, _, _ = served
        job = client.submit("restaurant")
        with pytest.raises(ServiceError) as excinfo:
            client.dataset(job["id"])
        assert excinfo.value.status == 409

    def test_submit_run_poll_fetch(self, served, service_registry):
        client, queue, _ = served
        job = client.submit("restaurant", n_a=12, n_b=12, seed=3)
        worker = Worker(queue, service_registry, lease_seconds=30)
        assert worker.run_once()
        record = client.wait(job["id"], timeout=30)
        assert record["status"] == "done"
        assert record["result"]["n_a"] == 12
        dataset = client.dataset(job["id"])
        assert len(dataset["table_a"]) == 12
        assert len(dataset["table_b"]) == 12
        assert dataset["schema"][0]["name"] == "name"

    def test_job_listing(self, served):
        client, _, _ = served
        client.submit("restaurant")
        client.submit("restaurant")
        assert len(client.jobs()) == 2


class TestScoringRoutes:
    def test_label_matches_kernel_path(self, served, service_registry, service_real):
        """The endpoint must reproduce the in-process batch scoring exactly."""
        client, _, _ = served
        pairs = _record_pairs(service_real)
        response = client.label("restaurant", pairs)
        assert response["n_pairs"] == len(pairs)
        assert len(response["labels"]) == len(pairs)

        synthesizer, _ = service_registry.load("restaurant")
        entity_pairs = [
            (service_real.table_a[a], service_real.table_b[b])
            for a, b in service_real.matches[: len(pairs)]
        ]
        vectors = synthesizer.similarity_model.vectors(entity_pairs)
        expected = synthesizer.o_labeling.posterior_match(vectors)
        np.testing.assert_allclose(
            response["match_probability"], expected, rtol=0, atol=1e-12
        )
        assert response["labels"] == [bool(p >= 0.5) for p in expected]

    def test_score_returns_vectors(self, served, service_real):
        client, _, _ = served
        pairs = _record_pairs(service_real, count=3)
        response = client.score("restaurant", pairs)
        assert len(response["vectors"]) == 3
        assert len(response["vectors"][0]) == len(service_real.schema)
        assert all(0.0 <= v <= 1.0 for row in response["vectors"] for v in row)

    def test_dict_records_equivalent_to_lists(self, served, service_real):
        client, _, _ = served
        a_id, b_id = service_real.matches[0]
        entity_a = service_real.table_a[a_id]
        entity_b = service_real.table_b[b_id]
        names = service_real.schema.names
        as_lists = client.score(
            "restaurant", [[list(entity_a.values), list(entity_b.values)]]
        )
        as_dicts = client.score(
            "restaurant",
            [[dict(zip(names, entity_a.values)), dict(zip(names, entity_b.values))]],
        )
        assert as_lists["vectors"] == as_dicts["vectors"]

    def test_bad_pairs_400(self, served):
        client, _, _ = served
        for payload in (
            {"pairs": []},
            {"pairs": ["not-a-pair"]},
            {"pairs": [[["only one record"]]]},
            {},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/models/restaurant/label", payload)
            assert excinfo.value.status == 400

    def test_wrong_arity_record_400(self, served):
        client, _, _ = served
        with pytest.raises(ServiceError) as excinfo:
            client.label("restaurant", [[["too", "few"], ["too", "few"]]])
        assert excinfo.value.status == 400

    def test_unknown_model_404(self, served, service_real):
        client, _, _ = served
        with pytest.raises(ServiceError) as excinfo:
            client.label("ghost", _record_pairs(service_real, count=1))
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("version", ["v2", "1", 1, "../restaurant/v1"])
    def test_unknown_or_ill_formed_version_404(self, served, service_real, version):
        client, _, _ = served
        with pytest.raises(ServiceError) as excinfo:
            client.label(
                "restaurant", _record_pairs(service_real, count=1), version=version
            )
        assert excinfo.value.status == 404


class TestVersionPinnedLabel:
    @pytest.fixture
    def service_registry(self, service_registry, tmp_path):
        """A private copy of the session registry that tests may publish to."""
        root = tmp_path / "registry"
        shutil.copytree(service_registry.root, root)
        return ModelRegistry(root)

    def test_v1_labels_unchanged_by_later_versions(
        self, served, service_registry, service_real
    ):
        """Publishing v2-v5 changes neither what a v1 request answers nor
        what its version lookup reads: one meta, not one per version."""
        client, _, _ = served
        pairs = _record_pairs(service_real)
        before = client.label("restaurant", pairs, version="v1")
        config = SERDConfig.from_dict(
            service_registry.get("restaurant", "v1").meta["config"]
        )
        for _ in range(4):
            service_registry.register(
                "restaurant", service_real, config, train_gan=False, audit=False
            )
        assert service_registry.latest("restaurant").version == "v5"

        verified = integrity.counters()["artifacts_verified"]
        after = client.label("restaurant", pairs, version="v1")
        assert integrity.counters()["artifacts_verified"] - verified == 1
        assert after["version"] == "v1"
        assert after["labels"] == before["labels"]
        assert after["match_probability"] == before["match_probability"]


class TestStats:
    def test_stats_reflect_traffic(self, served, service_real, service_registry):
        client, queue, _ = served
        pairs = _record_pairs(service_real, count=4)
        client.label("restaurant", pairs)
        client.label("restaurant", pairs)
        job = client.submit("restaurant", n_a=10, n_b=10, seed=2)
        Worker(queue, service_registry).run_once()
        client.wait(job["id"], timeout=30)

        stats = client.stats()
        assert stats["counters"]["label.requests"] == 2
        assert stats["counters"]["label.pairs"] == 8
        assert stats["counters"]["jobs.submitted"] == 1
        assert stats["observations"]["label.batch_size"]["mean"] == 4.0
        assert stats["queue"]["done"] == 1
        assert stats["job_latency_seconds"]["count"] == 1
        assert stats["models_loaded"] == 1

    def test_stats_expose_integrity_counters(self, served):
        client, _, _ = served
        block = client.stats()["integrity"]
        for key in (
            "artifacts_verified",
            "corrupt_artifacts_quarantined",
            "shards_requeued_corrupt",
        ):
            assert block[key] >= 0

    def test_raising_source_reads_none(self, served, monkeypatch):
        client, _, context = served

        def broken():
            raise OSError("counter source unavailable")

        monkeypatch.setattr(context, "_resources_snapshot", broken)
        with urllib.request.urlopen(f"{client.base_url}/stats") as response:
            assert response.status == 200
            stats = json.loads(response.read())
        assert stats["resources"] is None
        assert stats["integrity"]["artifacts_verified"] >= 0


class TestGenerationCacheSwitch:
    def test_label_accepts_cache_switch(self, served, service_real):
        """The retired ``generation_cache`` field is ignored like any other
        unknown key: every value answers 200 with the plain request's
        labels and leaves the loaded model and the counters untouched."""
        client, _, context = served
        pairs = _record_pairs(service_real, count=2)
        plain = client._request(
            "POST", "/models/restaurant/label", {"pairs": pairs}
        )
        loaded = context.model("restaurant", None)
        attributes = sorted(vars(loaded.synthesizer))
        backends = dict(loaded.synthesizer._text_backends)
        generation = context.stats()["generation"]
        for flag in (False, True, "yes"):
            response = client._request(
                "POST",
                "/models/restaurant/label",
                {"pairs": pairs, "generation_cache": flag},
            )
            assert response["labels"] == plain["labels"]
            assert response["match_probability"] == plain["match_probability"]
        assert sorted(vars(loaded.synthesizer)) == attributes
        assert loaded.synthesizer._text_backends == backends
        stats = context.stats()
        assert stats["generation"] == generation
        assert not any("generation_cache" in key for key in stats["counters"])

    def test_stats_expose_generation_block(self, served, service_real):
        client, _, _ = served
        client.label("restaurant", _record_pairs(service_real, count=1))
        generation = client.stats()["generation"]
        assert set(generation) == {"generate_calls", "cached_tokens", "backends"}
        for value in generation.values():
            assert value == 0  # rule backend: nothing to count

    def test_switch_reaches_transformer_backends(self, served):
        """``/stats`` sums the decode counters of every loaded text backend
        that keeps them, and neither the model nor the backend keeps a
        decode switch."""
        from types import SimpleNamespace

        from repro.service.api import LoadedModel
        from repro.textgen.transformer_backend import TransformerTextSynthesizer

        client, _, context = served
        backend = TransformerTextSynthesizer()
        stub = SimpleNamespace(
            generation_stats=lambda: {"generate_calls": 3, "cached_tokens": 40}
        )
        synthesizer = SimpleNamespace(
            _text_backends={"name": backend, "addr": stub, "city": SimpleNamespace()}
        )
        loaded = LoadedModel(synthesizer, entry=None)
        context._models[("stub", "v1")] = loaded
        assert client.stats()["generation"] == {
            "generate_calls": 3, "cached_tokens": 40, "backends": 2
        }
        assert not hasattr(loaded, "set_generation_cache")
        assert not hasattr(backend, "set_generation_cache")
        assert not hasattr(backend.config, "generation_cache")


class TestShardedSubmission:
    def test_shards_round_trip(self, served):
        client, queue, _ = served
        job = client.submit("restaurant", n_a=12, n_b=12, shards=2)
        assert job["shards"] == 2
        assert queue.get(job["id"]).shards == 2

    def test_shards_default_one(self, served):
        client, queue, _ = served
        job = client.submit("restaurant")
        assert queue.get(job["id"]).shards == 1

    @pytest.mark.parametrize("bad", [0, -2, 65, "three", 1.5])
    def test_invalid_shards_rejected(self, served, bad):
        client, _, _ = served
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/jobs", {"model": "restaurant", "shards": bad}
            )
        assert excinfo.value.status == 400


class TestStreamingDataset:
    def test_dataset_served_chunked(self, served, service_registry):
        """The export endpoint streams: chunked framing, same document."""
        import http.client
        import json

        client, queue, _ = served
        job = client.submit("restaurant", n_a=10, n_b=10, seed=13)
        worker = Worker(queue, service_registry, lease_seconds=30)
        assert worker.run_once()
        client.wait(job["id"], timeout=30)

        host = client.base_url.split("//", 1)[1]
        conn = http.client.HTTPConnection(host, timeout=30)
        try:
            conn.request("GET", f"/jobs/{job['id']}/dataset")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.getheader("Content-Length") is None
            body = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        # The raw document carries the trailing checksum record ...
        assert body["integrity"]["algo"] == "sha256"
        assert len(body["integrity"]["digest"]) == 64
        # ... which the high-level client verifies and strips.
        body.pop("integrity")
        assert client.dataset(job["id"]) == body
        assert len(body["table_a"]) == 10

    def test_missing_export_is_503_not_truncated_200(
        self, served, service_registry
    ):
        """If the export vanished, the client must get a clean error —
        never a 200 with a half-written body."""
        import shutil

        client, queue, _ = served
        job = client.submit("restaurant", n_a=8, n_b=8, seed=5)
        worker = Worker(queue, service_registry, lease_seconds=30)
        assert worker.run_once()
        client.wait(job["id"], timeout=30)
        shutil.rmtree(queue.get(job["id"]).result["dataset_dir"])
        with pytest.raises(ServiceError) as excinfo:
            client.dataset(job["id"])
        assert excinfo.value.status == 503
