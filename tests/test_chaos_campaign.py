"""Chaos campaign engine: schedule determinism, invariants, fingerprints.

These are the pure parts of :mod:`repro.runtime.chaos` — the schedule (a
function of the seed), the invariant checkers (queue inspection), and the
replay fingerprint.  The full campaign against a live service runs as
``repro chaos run --replay-check`` in the CI ``resource-chaos`` job.
"""

import pytest

from repro.runtime.chaos import (
    FAMILIES,
    ChaosCampaign,
    ChaosEvent,
    RoundPlan,
    check_dlq_accounting,
    check_exactly_one_completion,
    check_no_lost_or_duplicated,
    dataset_sha256,
    replay_fingerprint,
)
from repro.service import JobQueue


class TestSchedule:
    def test_same_seed_same_schedule(self):
        first = ChaosCampaign(11, 4).to_dict()
        second = ChaosCampaign(11, 4).to_dict()
        assert first == second

    def test_schedule_is_pure(self):
        campaign = ChaosCampaign(5, 3)
        assert [p.to_dict() for p in campaign.schedule()] == [
            p.to_dict() for p in campaign.schedule()
        ]

    def test_different_seeds_differ(self):
        assert ChaosCampaign(1, 6).to_dict() != ChaosCampaign(2, 6).to_dict()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos families"):
            ChaosCampaign(1, 1, families=("disk", "gremlins"))

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="at least one round"):
            ChaosCampaign(1, 0)

    def test_round_shapes(self):
        plans = ChaosCampaign(
            23, 40, base_entities=7, resource_entities=20
        ).schedule()
        assert [p.index for p in plans] == list(range(40))
        for plan in plans:
            assert 1 <= len(plan.events) <= 3
            assert set(plan.families) <= set(FAMILIES)
            # Picks are without replacement: no family twice in a round.
            assert len(set(plan.families)) == len(plan.families)
            expected_n = 20 if "resource" in plan.families else 7
            assert plan.n_entities == expected_n
        # Over 40 rounds at full family breadth, both job sizes occur.
        assert {p.n_entities for p in plans} == {7, 20}

    def test_event_payload_contracts(self):
        plans = ChaosCampaign(31, 60).schedule()
        events = [e for p in plans for e in p.events]
        by_family = {}
        for event in events:
            by_family.setdefault(event.family, []).append(event)
        assert set(by_family) == set(FAMILIES)  # 60 rounds covers them all
        for event in by_family["disk"]:
            assert (event.site, event.at_calls) == ("queue.submit.write", (1,))
        for event in by_family["net"]:
            assert event.site in (
                "net.request", "net.stream.server_truncate"
            )
            assert event.at_calls == (1,)
        for event in by_family["clock"]:
            assert event.site == "clock.skew"
            assert 1.0 <= event.payload < 6.0  # bounded below the lease
        for event in by_family["kill"]:
            assert 0 <= event.payload < 1 << 16
        for event in by_family["corruption"]:
            assert 1 <= event.payload < 256  # a flip mask of 0 flips nothing
        for event in by_family["resource"]:
            assert event.site == "resource.overbudget"

    def test_restricted_families_are_respected(self):
        plans = ChaosCampaign(3, 10, families=("disk", "clock")).schedule()
        assert set(f for p in plans for f in p.families) <= {"disk", "clock"}

    def test_round_trip_to_dict(self):
        plan = RoundPlan(
            2, 99, 7, (ChaosEvent("disk", "queue.submit.write", (1,)),)
        )
        assert plan.to_dict() == {
            "index": 2,
            "job_seed": 99,
            "n_entities": 7,
            "events": [
                {
                    "family": "disk",
                    "site": "queue.submit.write",
                    "at_calls": [1],
                    "payload": None,
                }
            ],
        }


class TestInvariantCheckers:
    @pytest.fixture
    def queue(self, tmp_path):
        return JobQueue(tmp_path / "queue")

    def test_exactly_one_completion(self, queue):
        job = queue.submit("m", n_a=1, n_b=1)
        assert check_exactly_one_completion(queue, job.id) is not None
        claimed = queue.claim("w0", lease_seconds=30)
        queue.complete(claimed.id, "w0", {"ok": True})
        assert check_exactly_one_completion(queue, job.id) is None

    def test_idempotent_resubmission_stays_single(self, queue):
        first = queue.submit("m", n_a=1, n_b=1, idempotency_key="k1")
        retry = queue.submit("m", n_a=1, n_b=1, idempotency_key="k1")
        assert retry.id == first.id and retry.duplicate
        assert check_no_lost_or_duplicated(queue, "k1") is None
        assert check_no_lost_or_duplicated(queue, "never-submitted") is not None

    def test_dlq_accounting_balances_then_detects_drift(self, queue):
        assert check_dlq_accounting(queue) == []
        job = queue.submit("m", n_a=1, n_b=1, max_attempts=1)
        claimed = queue.claim("w0", lease_seconds=30)
        queue.fail(claimed.id, "w0", "boom")
        assert queue.get(job.id).status == "failed"
        assert check_dlq_accounting(queue) == []
        # A failed record whose forensics bundle vanished must be reported.
        (queue.dlq_dir / job.id / "forensics.json").unlink()
        problems = check_dlq_accounting(queue)
        assert any("no forensics bundle" in p for p in problems)

    def test_orphan_forensics_bundle_is_reported(self, queue):
        orphan = queue.dlq_dir / "jghost" / "forensics.json"
        orphan.parent.mkdir(parents=True)
        orphan.write_text("{}")
        problems = check_dlq_accounting(queue)
        assert any("no failed job record" in p for p in problems)


class TestFingerprints:
    DOC = {
        "table_a": [["a", 1]],
        "table_b": [["b", 2]],
        "matches": [["a0", "b0"]],
        "non_matches": [],
    }

    def test_dataset_sha256_ignores_key_order_and_extras(self):
        reordered = dict(reversed(list(self.DOC.items())))
        reordered["job_id"] = "jxyz"  # transport metadata must not count
        assert dataset_sha256(self.DOC) == dataset_sha256(reordered)

    def test_dataset_sha256_sees_value_changes(self):
        tweaked = dict(self.DOC, matches=[["a0", "b1"]])
        assert dataset_sha256(self.DOC) != dataset_sha256(tweaked)

    def test_replay_fingerprint_normalizes_fired_sites(self):
        report = {
            "schedule": {"seed": 7},
            "rounds": [
                {
                    "index": 0,
                    # clock.skew fires per wall-clock read — the *count* is
                    # polling-dependent; only the set is replay-comparable.
                    "fired_sites": ["clock.skew", "net.request", "clock.skew"],
                    "dataset_sha256": "abc",
                },
                {"index": 1, "failures": ["job ended failed"]},
            ],
        }
        assert replay_fingerprint(report) == {
            "schedule": {"seed": 7},
            "rounds": [
                {
                    "index": 0,
                    "fired_sites": ["clock.skew", "net.request"],
                    "dataset_sha256": "abc",
                },
                {"index": 1, "fired_sites": [], "dataset_sha256": None},
            ],
        }
