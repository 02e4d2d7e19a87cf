"""Resource governor tests: budgets, watermarks, ladders, API surfaces.

The ``resource.rss_kb`` / ``resource.disk_free_mb`` fault sites substitute
the governor's readings, so every pressure scenario here is deterministic
— no test actually allocates gigabytes or fills a filesystem.
"""

import threading
import warnings

import numpy as np
import pytest

from repro.runtime import resources
from repro.runtime.faults import FaultPlan, FaultSpec, inject_faults
from repro.runtime.io import atomic_write_json
from repro.runtime.resources import (
    MIN_LABEL_BATCH,
    ResourceBudget,
    ResourceExhausted,
    ResourceGovernor,
)

pytestmark = pytest.mark.fault_injection


@pytest.fixture(autouse=True)
def _fresh_governor():
    """No governor or counter state may leak between tests (or into the
    rest of the suite — the install is process-global by design)."""
    resources.uninstall()
    resources.reset_counters()
    yield
    resources.uninstall()
    resources.reset_counters()


class TestBudget:
    def test_memory_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="memory_budget_mb"):
            ResourceBudget(memory_budget_mb=0)
        with pytest.raises(ValueError, match="memory_budget_mb"):
            ResourceBudget(memory_budget_mb=-5)

    def test_disk_low_water_must_be_non_negative(self):
        with pytest.raises(ValueError, match="disk_low_water_mb"):
            ResourceBudget(disk_low_water_mb=-1)

    def test_soft_fraction_bounds(self):
        with pytest.raises(ValueError, match="memory_soft_fraction"):
            ResourceBudget(memory_budget_mb=10, memory_soft_fraction=0.0)
        with pytest.raises(ValueError, match="memory_soft_fraction"):
            ResourceBudget(memory_budget_mb=10, memory_soft_fraction=1.5)

    def test_high_water_defaults_to_double_low(self):
        budget = ResourceBudget(disk_low_water_mb=50)
        assert budget.disk_high_water_mb == 100.0
        explicit = ResourceBudget(disk_low_water_mb=50, disk_high_water_mb=75)
        assert explicit.disk_high_water_mb == 75.0

    def test_soft_memory_property(self):
        assert ResourceBudget(memory_budget_mb=100).soft_memory_mb == 80.0
        assert ResourceBudget().soft_memory_mb is None

    def test_entity_estimate_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENTITY_EST_KB", "64")
        assert ResourceBudget().entity_est_kb == 64.0
        monkeypatch.setenv("REPRO_ENTITY_EST_KB", "not-a-number")
        assert ResourceBudget().entity_est_kb == 2.0
        assert ResourceBudget(entity_est_kb=8).entity_est_kb == 8.0


class TestMemorySampling:
    def _governor(self, **kwargs):
        kwargs.setdefault("memory_budget_mb", 100)
        kwargs.setdefault("entity_est_kb", 1024)
        return ResourceGovernor(ResourceBudget(**kwargs))

    def test_rss_classification(self):
        governor = self._governor()
        # at_calls=() fires on every call; the payload replaces the RSS
        # reading (KB), so: 50 MB ok, 90 MB soft (> 80), 150 MB hard.
        for rss_mb, expected in ((50, "ok"), (90, "soft"), (150, "hard")):
            plan = FaultPlan(
                FaultSpec("resource.rss_kb", payload=rss_mb * 1024)
            )
            with inject_faults(plan):
                assert governor.sample_memory() == expected
        counters = resources.counters()
        assert counters["memory_soft_trips"] == 1
        assert counters["memory_hard_trips"] == 1
        assert governor.peak_rss_kb() == 150 * 1024

    def test_entity_estimate_dominates_small_rss(self):
        governor = self._governor()  # 1 MB per entity
        plan = FaultPlan(FaultSpec("resource.rss_kb", payload=10 * 1024))
        with inject_faults(plan):
            assert governor.sample_memory(entities=40) == "ok"
            assert governor.sample_memory(entities=90) == "soft"
            assert governor.sample_memory(entities=120) == "hard"
        assert governor.peak_observed_mb() == 120.0

    def test_no_budget_is_always_ok(self):
        governor = ResourceGovernor(ResourceBudget())
        plan = FaultPlan(FaultSpec("resource.rss_kb", payload=10**9))
        with inject_faults(plan):
            assert governor.sample_memory(entities=10**6) == "ok"

    def test_max_shard_entities(self):
        # Half the 80 MB soft watermark over 1 MB/entity = 40 entities.
        assert self._governor().max_shard_entities() == 40
        assert ResourceGovernor(ResourceBudget()).max_shard_entities() is None


class TestDiskPreflight:
    def _governor(self):
        return ResourceGovernor(
            ResourceBudget(disk_low_water_mb=100, disk_high_water_mb=200)
        )

    def test_below_low_water_refuses(self, tmp_path):
        governor = self._governor()
        plan = FaultPlan(FaultSpec("resource.disk_free_mb", payload=40.0))
        with inject_faults(plan):
            with pytest.raises(ResourceExhausted) as excinfo:
                governor.preflight_disk(tmp_path, what="test write")
        assert excinfo.value.kind == "disk"
        assert excinfo.value.budget_mb == 100
        assert excinfo.value.observed_mb == 40.0
        assert "test write" in str(excinfo.value)
        assert resources.counters()["disk_preflight_rejections"] == 1

    def test_between_watermarks_warns_only(self, tmp_path):
        governor = self._governor()
        plan = FaultPlan(FaultSpec("resource.disk_free_mb", payload=150.0))
        with inject_faults(plan):
            governor.preflight_disk(tmp_path)
        counters = resources.counters()
        assert counters["disk_high_water_warnings"] == 1
        assert counters["disk_preflight_rejections"] == 0

    def test_disk_status_reports_low_flag(self, tmp_path):
        governor = self._governor()
        plan = FaultPlan(FaultSpec("resource.disk_free_mb", payload=40.0))
        with inject_faults(plan):
            status = governor.disk_status(tmp_path)
        assert status == {
            "free_mb": 40.0, "low_water_mb": 100.0,
            "high_water_mb": 200.0, "low": True,
        }
        unconfigured = ResourceGovernor(ResourceBudget())
        assert unconfigured.disk_status(tmp_path) is None

    def test_module_hook_is_noop_when_disarmed(self, tmp_path):
        plan = FaultPlan(FaultSpec("resource.disk_free_mb", payload=0.0))
        with inject_faults(plan):
            resources.preflight(tmp_path)  # no governor installed

    def test_atomic_write_refused_under_low_disk(self, tmp_path):
        """The io-layer preflight: a durable commit below the low-water
        mark raises *before* any bytes move — the target never appears."""
        resources.install(self._governor())
        target = tmp_path / "artifact.json"
        plan = FaultPlan(FaultSpec("resource.disk_free_mb", payload=1.0))
        with inject_faults(plan):
            with pytest.raises(ResourceExhausted):
                atomic_write_json(target, {"x": 1})
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp"))
        # Pressure receded: the same write goes through.
        atomic_write_json(target, {"x": 1})
        assert target.exists()


class TestLabelBatch:
    def test_ungoverned_returns_base(self):
        assert resources.effective_label_batch(2048) == 2048

    def test_soft_halves_and_hard_quarters(self):
        resources.install(
            ResourceGovernor(ResourceBudget(memory_budget_mb=100))
        )
        plan = FaultPlan(FaultSpec("resource.rss_kb", payload=90 * 1024))
        with inject_faults(plan):
            assert resources.effective_label_batch(2048) == 1024
        plan = FaultPlan(FaultSpec("resource.rss_kb", payload=150 * 1024))
        with inject_faults(plan):
            assert resources.effective_label_batch(2048) == 512
        assert resources.counters()["chunk_downshifts"] == 2

    def test_floor_at_min_label_batch(self):
        resources.install(
            ResourceGovernor(ResourceBudget(memory_budget_mb=100))
        )
        plan = FaultPlan(FaultSpec("resource.rss_kb", payload=150 * 1024))
        with inject_faults(plan):
            assert resources.effective_label_batch(100) == MIN_LABEL_BATCH


class TestDownshift:
    """The S2 ladder rung on its own: soft +1, hard +2, capped, and hard
    pressure at the cap raises."""

    @staticmethod
    def _at(rss_mb, fn):
        plan = FaultPlan(FaultSpec("resource.rss_kb", payload=rss_mb * 1024))
        with inject_faults(plan):
            return fn()

    def test_soft_one_hard_two_capped(self):
        governor = ResourceGovernor(
            ResourceBudget(memory_budget_mb=100, max_downshifts=3)
        )
        assert self._at(10, lambda: governor.downshift(0, entities=0)) == 0
        assert self._at(90, lambda: governor.downshift(0, entities=0)) == 1
        assert self._at(150, lambda: governor.downshift(1, entities=0)) == 3
        assert self._at(90, lambda: governor.downshift(3, entities=0)) == 3
        assert resources.counters()["chunk_downshifts"] == 2

    def test_hard_at_cap_raises(self):
        governor = ResourceGovernor(
            ResourceBudget(memory_budget_mb=100, max_downshifts=2)
        )
        with pytest.raises(ResourceExhausted, match="after 2 downshift"):
            self._at(150, lambda: governor.downshift(2, entities=0))


class TestInstall:
    def test_install_uninstall_roundtrip(self):
        governor = ResourceGovernor(ResourceBudget())
        assert resources.installed() is None
        assert resources.install(governor) is governor
        assert resources.installed() is governor
        resources.uninstall()
        assert resources.installed() is None

    def test_governor_from_flags(self):
        assert resources.governor_from_flags(None, None) is None
        governor = resources.governor_from_flags(512.0, None)
        assert governor.budget.memory_budget_mb == 512.0
        assert governor.budget.disk_low_water_mb is None
        governor = resources.governor_from_flags(None, 64.0)
        assert governor.budget.disk_low_water_mb == 64.0

    def test_counters_thread_safe_and_resettable(self):
        def bump():
            for _ in range(200):
                resources.count_event("chunk_downshifts")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert resources.counters()["chunk_downshifts"] == 800
        resources.reset_counters()
        assert resources.counters()["chunk_downshifts"] == 0


# ----------------------------------------------------------------------
# The degradation ladder against a real worker (the ISSUE 9 tentpole
# behavior: shrink, then checkpoint-and-release — never dead-letter).
# ----------------------------------------------------------------------
def _baseline_dataset(registry, seed, n_a, n_b):
    synthesizer, _ = registry.load("restaurant")
    synthesizer.rng = np.random.default_rng(seed)
    with pytest.warns(RuntimeWarning):  # tiny scale livelocks; expected
        return synthesizer.synthesize(n_a, n_b).dataset


def _assert_same_dataset(actual, expected):
    assert [e.values for e in actual.table_a] == [e.values for e in expected.table_a]
    assert [e.values for e in actual.table_b] == [e.values for e in expected.table_b]
    assert actual.matches == expected.matches
    assert actual.non_matches == expected.non_matches


class TestDegradationLadder:
    def test_overbudget_job_downshifts_and_stays_bit_identical(
        self, tmp_path, service_registry
    ):
        """Crossing the soft watermark mid-run shrinks the checkpoint
        chunk (visible in the result's resource delta) without changing a
        single output byte — checkpoint cadence never consumes RNG."""
        from repro.runtime.io import read_json
        from repro.service import JobQueue, Worker

        expected = _baseline_dataset(service_registry, seed=7, n_a=20, n_b=20)

        # The allocation estimate crosses the (deliberately low) soft
        # watermark a few entities in, but 40 entities stay well under the
        # hard budget — every checkpoint boundary downshifts, none aborts.
        resources.install(
            ResourceGovernor(
                ResourceBudget(
                    memory_budget_mb=100000.0,
                    memory_soft_fraction=0.1,
                    entity_est_kb=2_252_800,
                )
            )
        )
        queue = JobQueue(tmp_path / "queue")
        job = queue.submit("restaurant", n_a=20, n_b=20, seed=7)
        with pytest.warns(RuntimeWarning):
            assert Worker(queue, service_registry).run_once()

        record = queue.get(job.id)
        assert record.status == "done"
        delta = record.result["resource"]
        assert delta["chunk_downshifts"] >= 1
        assert delta["memory_soft_trips"] >= 1
        assert delta["memory_hard_trips"] == 0
        from repro.schema.io import load_saved_dataset

        _assert_same_dataset(
            load_saved_dataset(record.result["dataset_dir"]), expected
        )
        # The health report carries the governor snapshot for operators.
        health = read_json(queue.result_dir(job.id) / "health.json")
        assert health["resources"]["memory_budget_mb"] == 100000.0
        assert health["resources"]["counters"]["chunk_downshifts"] >= 1

    def test_hard_breach_releases_resumable_not_dlq(
        self, tmp_path, service_registry
    ):
        """When shrinking is exhausted the job is released *pending* with
        its checkpoint (no attempt burned), and a later unpressured worker
        finishes it bit-identical — the DLQ never sees it."""
        from repro.service import JobQueue, Worker

        expected = _baseline_dataset(service_registry, seed=9, n_a=18, n_b=18)

        queue = JobQueue(tmp_path / "queue")
        job = queue.submit("restaurant", n_a=18, n_b=18, seed=9)
        # An absurd per-entity estimate blows the hard budget at the first
        # checkpoint boundary; max_downshifts=0 leaves the ladder no rungs.
        resources.install(
            ResourceGovernor(
                ResourceBudget(
                    memory_budget_mb=100.0,
                    entity_est_kb=10 * 1024 * 1024,
                    max_downshifts=0,
                )
            )
        )
        pressured = Worker(queue, service_registry, worker_id="pressured")
        assert pressured.run_once()
        record = queue.get(job.id)
        assert record.status == "pending"
        assert record.attempts == 0  # checkpoint-and-release burns no attempt
        assert "released" in [e["event"] for e in queue.events()]
        assert resources.counters()["jobs_released_on_exhaustion"] >= 1

        resources.uninstall()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert Worker(
                queue, service_registry, worker_id="relaxed"
            ).run_once()
        record = queue.get(job.id)
        assert record.status == "done"
        from repro.schema.io import load_saved_dataset

        _assert_same_dataset(
            load_saved_dataset(record.result["dataset_dir"]), expected
        )

    def test_oversized_coordinator_splits_instead_of_oom(
        self, tmp_path, service_registry
    ):
        """A sharded job whose per-shard slice exceeds the memory cap is
        fanned out over more shards, counted, and still completes."""
        from repro.service import JobQueue, Worker

        # cap = 0.5 * soft * 1024 / est = 10 entities; 16+16 needs 4 shards.
        resources.install(
            ResourceGovernor(
                ResourceBudget(
                    memory_budget_mb=100000.0, entity_est_kb=4_000_000
                )
            )
        )
        queue = JobQueue(tmp_path / "queue")
        job = queue.submit("restaurant", n_a=16, n_b=16, seed=3, shards=2)
        worker = Worker(queue, service_registry, lease_seconds=30)
        for _ in range(8):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                worker.run_once()
            if queue.get(job.id).status == "done":
                break
        record = queue.get(job.id)
        assert record.status == "done"
        assert len(queue.children(job.id)) == 4
        assert record.result["resource"]["shards_split_oversized"] >= 1


# ----------------------------------------------------------------------
# API surfaces: /stats resources block, /health disk_low, 503 shedding
# ----------------------------------------------------------------------
class TestResourceApi:
    @pytest.fixture
    def served(self, service_registry, tmp_path):
        import threading as _threading

        from repro.service import JobQueue
        from repro.service.api import ServiceContext, make_server
        from repro.service.client import RetryPolicy, ServiceClient

        queue = JobQueue(tmp_path / "queue")
        context = ServiceContext(service_registry, queue)
        server = make_server(context, "127.0.0.1", 0)
        thread = _threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            retry_policy=RetryPolicy(max_attempts=1),
        )
        try:
            yield client, queue
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_stats_resources_block(self, served):
        client, _ = served
        resources.install(
            ResourceGovernor(ResourceBudget(memory_budget_mb=512))
        )
        block = client.stats()["resources"]
        assert block["memory_budget_mb"] == 512.0
        assert block["memory_soft_mb"] == pytest.approx(409.6)
        assert block["rss_mb"] > 0
        assert "chunk_downshifts" in block["counters"]
        assert "queue" in block["disk"]

    def test_stats_resources_without_governor(self, served):
        client, _ = served
        block = client.stats()["resources"]
        assert block["rss_mb"] > 0
        assert "memory_budget_mb" not in block

    def test_health_degrades_to_503_below_low_water(self, served):
        from repro.service.client import ServiceError

        client, _ = served
        assert client.health() == {"status": "ok"}
        # A low-water mark far above any real filesystem's free space.
        resources.install(
            ResourceGovernor(ResourceBudget(disk_low_water_mb=10**9))
        )
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 503

    def test_submit_sheds_503_resource_exhausted(self, served):
        from repro.service.client import ServiceError

        client, queue = served
        resources.install(
            ResourceGovernor(ResourceBudget(disk_low_water_mb=10**9))
        )
        with pytest.raises(ServiceError) as excinfo:
            client.submit("restaurant", n_a=4, n_b=4)
        assert excinfo.value.status == 503
        assert excinfo.value.code == "resource_exhausted"
        assert excinfo.value.retryable
        assert excinfo.value.retry_after == 5.0
        assert queue.jobs() == []  # admission refused before the record
        # Pressure gone: the identical submission lands.
        resources.uninstall()
        job = client.submit("restaurant", n_a=4, n_b=4)
        assert queue.get(job["id"]).status == "pending"
