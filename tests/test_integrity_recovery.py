"""Corruption-recovery proofs, one per durable artifact class.

Every test follows the same shape: write the artifact through the
production path, flip bits in it on disk, then drive the production
*consumer* and assert the documented recovery policy — detection, a
quarantine file on disk, and forward progress (fallback, skip, or
re-run).  Garbage must never crash a consumer and never be silently
accepted as truth.

Artifact classes covered: checkpoint stage payloads, the checkpoint
manifest (+ its backup), queue job records, shard results (through the
coordinator), registry version metadata, and the streamed dataset export (in test_fault_injection_net.py, where the
transport faults live).
"""

import json
import shutil
import warnings

import pytest

from repro.core import SERDConfig, SERDSynthesizer
from repro.datasets import load_dataset
from repro.gan import TabularGANConfig
from repro.runtime import integrity
from repro.runtime.checkpoint import StageCheckpointer
from repro.runtime.integrity import QUARANTINE_MARK, CorruptArtifactError
from repro.runtime.io import atomic_write_json, read_json
from repro.schema.io import load_saved_dataset
from repro.service import JobQueue, ModelRegistry, Worker

pytestmark = pytest.mark.fault_injection


def _garble(path):
    """Flip one byte of a JSON artifact without tearing its syntax."""
    text = path.read_text()
    for a, b in (("1", "2"), ("a", "e"), ("e", "a"), ("0", "9")):
        if a in text:
            garbled = text.replace(a, b, 1)
            break
    else:  # pragma: no cover - every artifact here has one of those bytes
        raise AssertionError(f"nothing to garble in {path}")
    path.write_text(garbled)


def _quarantine_files(directory):
    return sorted(
        p for p in directory.rglob("*") if QUARANTINE_MARK in p.name
    )


@pytest.fixture(autouse=True)
def _fresh_counters():
    integrity.reset_counters()
    yield
    integrity.reset_counters()


class TestCheckpointStagePayload:
    def test_corrupt_stage_quarantined_and_rerun(self, tmp_path):
        ckpt = StageCheckpointer(tmp_path)
        ckpt.commit("s1", {"weights": [1, 2, 3]})
        _garble(tmp_path / "stage_s1.json")
        with pytest.warns(RuntimeWarning, match="will re-run"):
            assert ckpt.load_or_none("s1") is None
        assert not (tmp_path / "stage_s1.json").exists()
        assert _quarantine_files(tmp_path)
        # The stage is gone from the manifest: a fresh checkpointer agrees.
        assert not StageCheckpointer(tmp_path).has("s1")
        # Recovery is just re-running the stage: commit again, load fine.
        ckpt.commit("s1", {"weights": [1, 2, 3]})
        assert ckpt.load_or_none("s1") == {"weights": [1, 2, 3]}

    def test_fit_retrains_corrupted_stage(self, tmp_path):
        """End to end: a rotten s1 checkpoint makes fit() retrain S1
        instead of crashing or trusting garbage."""
        real = load_dataset("restaurant", scale=0.08, seed=5)
        config = SERDConfig(
            seed=5, gan=TabularGANConfig(iterations=15), checkpoint_every=5
        )
        SERDSynthesizer(config).fit(real, checkpoint_dir=tmp_path)
        _garble(tmp_path / "stage_s1.json")
        with pytest.warns(RuntimeWarning, match="re-run"):
            resumed = SERDSynthesizer(config).fit(real, checkpoint_dir=tmp_path)
        assert resumed.o_labeling is not None
        assert _quarantine_files(tmp_path)
        # The retrained stage recommitted: a third fit loads it silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            SERDSynthesizer(config).fit(real, checkpoint_dir=tmp_path)


class TestCheckpointManifest:
    def test_corrupt_primary_falls_back_to_backup(self, tmp_path):
        ckpt = StageCheckpointer(tmp_path)
        ckpt.commit("s1", {"x": 1})
        _garble(tmp_path / "manifest.json")
        with pytest.warns(RuntimeWarning, match="manifest.json.bak"):
            reopened = StageCheckpointer(tmp_path)
        assert reopened.has("s1")
        assert reopened.load("s1") == {"x": 1}
        assert _quarantine_files(tmp_path)
        # The next commit rewrites both copies: reopening is clean again.
        reopened.commit("s2", {"y": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert StageCheckpointer(tmp_path).completed_stages() == ["s1", "s2"]

    def test_both_copies_corrupt_starts_fresh(self, tmp_path):
        ckpt = StageCheckpointer(tmp_path)
        ckpt.commit("s1", {"x": 1})
        _garble(tmp_path / "manifest.json")
        _garble(tmp_path / "manifest.json.bak")
        with pytest.warns(RuntimeWarning, match="starting this checkpoint"):
            reopened = StageCheckpointer(tmp_path)
        assert reopened.completed_stages() == []  # stages re-run; no crash
        assert len(_quarantine_files(tmp_path)) == 2

    def test_version_mismatch_names_remediation(self, tmp_path):
        StageCheckpointer(tmp_path).set_meta("dataset", "x")
        manifest = read_json(tmp_path / "manifest.json")
        manifest["version"] = 99
        atomic_write_json(tmp_path / "manifest.json", manifest)
        atomic_write_json(tmp_path / "manifest.json.bak", manifest)
        with pytest.raises(ValueError) as excinfo:
            StageCheckpointer(tmp_path)
        message = str(excinfo.value)
        assert "re-run with the runtime that wrote it" in message
        assert "verify-artifacts" in message


class TestQueueRecords:
    def test_corrupt_record_skipped_and_quarantined(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        keep = queue.submit("restaurant", n_a=4, n_b=4)
        rot = queue.submit("restaurant", n_a=6, n_b=6)
        _garble(queue.jobs_dir / f"{rot.id}.json")

        listed = queue.jobs()
        assert [job.id for job in listed] == [keep.id]
        assert _quarantine_files(queue.jobs_dir)
        assert integrity.counters()["corrupt_artifacts_quarantined"] == 1
        # The scan self-heals: the second pass sees no corrupt file at all.
        assert [job.id for job in queue.jobs()] == [keep.id]
        assert integrity.counters()["corrupt_artifacts_quarantined"] == 1

    def test_get_raises_typed_error(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        job = queue.submit("restaurant")
        _garble(queue.jobs_dir / f"{job.id}.json")
        with pytest.raises(CorruptArtifactError):
            queue.get(job.id)


class TestShardResultRecovery:
    def test_corrupt_shard_result_requeued_and_rerun(
        self, tmp_path, service_registry
    ):
        """The tentpole scenario: a shard child's result rots after the
        child finished; the coordinator quarantines it, requeues the
        child, re-runs it inline, and the merged dataset is bit-identical
        to an undisturbed run."""
        queue = JobQueue(tmp_path / "queue")
        job = queue.submit("restaurant", n_a=12, n_b=12, seed=37, shards=2)
        worker = Worker(queue, service_registry, worker_id="w0", lease_seconds=30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert worker.run_once()
        record = queue.get(job.id)
        assert record.status == "done"
        expected = load_saved_dataset(record.result["dataset_dir"])

        # Rot one child's result, then force the coordinator to re-merge
        # (as if its own completion record had been lost before commit).
        child = queue.children(job.id)[0]
        result_path = queue.result_dir(child.id) / "shard_result.json"
        _garble(result_path)
        parent = queue.get(job.id)
        parent.status = "pending"
        parent.worker = None
        parent.result = {}
        parent.finished_unix = None
        queue._write(parent)
        queue._release_claim(job.id)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert worker.run_once()
        record = queue.get(job.id)
        assert record.status == "done"

        assert _quarantine_files(queue.result_dir(child.id))
        assert integrity.counters()["shards_requeued_corrupt"] == 1
        assert any(
            e["event"] == "requeued_corrupt" and e["job"] == child.id
            for e in queue.events()
        )
        # The re-run child rewrote a verifiable result ...
        rewritten = read_json(result_path, what="shard result")
        assert rewritten["spec"]["index"] in (0, 1)
        # ... and the merged dataset matches the undisturbed run exactly.
        actual = load_saved_dataset(record.result["dataset_dir"])
        assert [e.values for e in actual.table_a] == [
            e.values for e in expected.table_a
        ]
        assert actual.matches == expected.matches

    def test_rot_past_attempt_budget_dead_letters(self, tmp_path):
        """A shard whose result rots on every attempt must not requeue
        forever: reset_for_rerun dead-letters once the budget is burned."""
        queue = JobQueue(tmp_path / "queue")
        child = queue.submit(
            "restaurant", n_a=4, n_b=4, kind="shard", shard_index=0,
            shards=2, parent="p0", max_attempts=2,
        )
        record = queue.get(child.id)
        record.attempts = 2
        queue._write(record)
        job = queue.reset_for_rerun(child.id, reason="sha256 mismatch")
        assert job.status == "failed"
        assert "corrupt" in job.error
        assert queue.dead_letters()[0].id == child.id


class TestRegistryMeta:
    def test_corrupt_version_meta_skipped(self, tmp_path, service_registry):
        clone_root = tmp_path / "registry"
        shutil.copytree(service_registry.root, clone_root)
        registry = ModelRegistry(clone_root)
        assert [v.version for v in registry.versions("restaurant")] == ["v1"]

        _garble(clone_root / "restaurant" / "v1" / "meta.json")
        with pytest.warns(RuntimeWarning, match="quarantined and skipped"):
            assert registry.versions("restaurant") == []
        assert _quarantine_files(clone_root)

    def test_corrupt_newest_version_keeps_its_number(self, tmp_path, service_real):
        """New versions are numbered from the ``v<N>`` directories, so a
        quarantined newest version does not block the next registration."""
        registry = ModelRegistry(tmp_path / "registry")
        config = SERDConfig(seed=5)
        for _ in range(2):
            registry.register("m", service_real, config, train_gan=False, audit=False)
        _garble(tmp_path / "registry" / "m" / "v2" / "meta.json")
        with pytest.warns(RuntimeWarning, match="quarantined and skipped"):
            assert [v.version for v in registry.versions("m")] == ["v1"]

        entry = registry.register(
            "m", service_real, config, train_gan=False, audit=False
        )
        assert entry.version == "v3"
        assert [v.version for v in registry.versions("m")] == ["v1", "v3"]


class TestDLQForensics:
    def test_corrupt_forensics_degrade_to_stub(self, tmp_path):
        from repro.service.dlq import DeadLetterQueue

        queue = JobQueue(tmp_path / "queue")
        job = queue.submit("restaurant", max_attempts=1)
        claimed = queue.claim_job(job, "w0")
        assert claimed is not None
        queue.fail(job.id, "w0", "boom")
        dlq = DeadLetterQueue(queue)
        assert dlq.list()[0].id == job.id

        _garble(queue.dlq_dir / job.id / "forensics.json")
        bundle = dlq.inspect(job.id)
        assert bundle["reason"] == "forensics_corrupt"
        assert bundle["error"] == "boom"
        assert "corrupt" in bundle["forensics_error"]
        assert _quarantine_files(queue.dlq_dir)

    def test_scrub_covers_dlq_tree(self, tmp_path):
        from repro.service.dlq import DeadLetterQueue

        queue = JobQueue(tmp_path / "queue")
        job = queue.submit("restaurant", max_attempts=1)
        assert queue.claim_job(job, "w0") is not None
        queue.fail(job.id, "w0", "boom")
        dlq = DeadLetterQueue(queue)
        report = dlq.scrub()
        assert report["corrupt"] == []
        assert report["checked"] >= 1
