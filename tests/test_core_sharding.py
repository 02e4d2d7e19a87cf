"""Tests for sharded S2 synthesis (repro.core.sharding + SERDSynthesizer).

The load-bearing invariants from the sharding design:

- ``plan_shards(n_a, n_b, 1)`` is the equivalence oracle: ``n_shards=1``
  must be bit-identical to the unsharded loop.
- In-process multi-shard runs are deterministic functions of
  (model, seed, n_shards), and each shard's result depends only on the
  model and its spec, not on the order the shards run in.
- Interrupting a sharded run mid-S2 and resuming from its checkpoints
  yields the same merged dataset as an uninterrupted run.
- ``merged_o_syn`` of a single tracker state reproduces that tracker's
  ``current()`` distribution exactly.
"""

import warnings

import numpy as np
import pytest

from repro.core import SERDConfig, SERDSynthesizer
from repro.core.rejection import DistributionTracker
from repro.core.sharding import (
    ShardRun,
    ShardSpec,
    merged_o_syn,
    plan_shards,
    shard_rng,
)
from repro.datasets import load_dataset
from repro.distributions.gaussian import GaussianComponent
from repro.distributions.gmm import GaussianMixture
from repro.distributions.mixture import PairDistribution
from repro.runtime.cancellation import SynthesisInterrupted
from repro.runtime.checkpoint import StageCheckpointer
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedInterrupt, inject_faults
from repro.schema import make_schema


@pytest.fixture(scope="module")
def eq10_model():
    """A model on which Eq. 10 decides candidates at small sizes; the
    session's service model rejects every candidate by discriminator."""
    synthesizer = SERDSynthesizer(SERDConfig(seed=7))
    synthesizer.fit(load_dataset("restaurant", scale=0.1, seed=7))
    return synthesizer


def _run_key(run):
    """A shard run's payload without its timings and stage record."""
    payload = run.to_payload()
    for key in ("elapsed_seconds", "peak_rss_kb", "health"):
        del payload[key]
    return payload


class TestPlanShards:
    def test_single_shard_covers_everything(self):
        (spec,) = plan_shards(10, 7, 1, seed=3)
        assert (spec.n_a, spec.n_b) == (10, 7)
        assert spec.id_prefix == "s"  # sequential loop's namespace

    def test_even_split_with_remainder_to_earlier_shards(self):
        specs = plan_shards(10, 7, 3, seed=3)
        assert [s.n_a for s in specs] == [4, 3, 3]
        assert [s.n_b for s in specs] == [3, 2, 2]
        assert sum(s.n_a for s in specs) == 10
        assert sum(s.n_b for s in specs) == 7

    def test_shard_count_capped_at_smaller_side(self):
        specs = plan_shards(100, 3, 8, seed=0)
        assert len(specs) == 3
        assert all(s.n_a >= 1 and s.n_b >= 1 for s in specs)

    def test_multi_shard_id_namespaces_disjoint(self):
        specs = plan_shards(8, 8, 4, seed=0)
        prefixes = {s.id_prefix for s in specs}
        assert prefixes == {"s0_", "s1_", "s2_", "s3_"}

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(0, 5, 1, seed=0)
        with pytest.raises(ValueError):
            plan_shards(5, 5, 0, seed=0)
        with pytest.raises(ValueError):
            ShardSpec(3, 2, 1, 1, seed=0)  # index out of range
        with pytest.raises(ValueError):
            ShardSpec(0, 1, 0, 1, seed=0)  # empty side

    def test_shard_rng_streams_distinct(self):
        specs = plan_shards(9, 9, 3, seed=42)
        draws = [shard_rng(s).random(4).tolist() for s in specs]
        assert len({tuple(d) for d in draws}) == 3
        # ... and reproducible: same spec, same stream.
        again = shard_rng(specs[1]).random(4).tolist()
        assert again == draws[1]

    def test_shard_rng_refuses_single_shard(self):
        (spec,) = plan_shards(5, 5, 1, seed=0)
        with pytest.raises(ValueError):
            shard_rng(spec)


class TestShardRunRoundTrip:
    def test_payload_round_trip(self):
        schema = make_schema({"name": "text", "city": "text"})
        from repro.schema import Entity

        spec = plan_shards(4, 4, 2, seed=9)[1]
        run = ShardRun(
            spec=spec,
            a_entities=[Entity("s1_a0", schema, ("ann", "rome"))],
            b_entities=[Entity("s1_b0", schema, ("bob", "oslo"))],
            sampled_matches=[("s1_a0", "s1_b0")],
            sampled_non_matches=[],
            rejection_stats={"accepted": 2, "discriminator": 1},
            tracker_state={"pos": None, "neg": None, "n_pos": 0, "n_neg": 0,
                           "buffer_pos": [], "buffer_neg": []},
            elapsed_seconds=1.5,
            peak_rss_kb=1024,
            health={"name": "s2_synthesis", "status": "completed",
                    "seconds": 1.5, "counters": {"accepted": 2}, "notes": []},
        )
        restored = ShardRun.from_payload(run.to_payload(), schema)
        assert restored.health == run.health
        assert restored.spec == spec
        assert restored.a_entities == run.a_entities
        assert restored.b_entities == run.b_entities
        assert restored.sampled_matches == run.sampled_matches
        assert restored.rejection_stats == run.rejection_stats
        assert restored.elapsed_seconds == 1.5
        assert restored.peak_rss_kb == 1024

    def test_result_with_retired_extras_key_loads(self):
        """A ``shard_result.json`` written while ``ShardRun`` still had an
        ``extras`` field, and before it had ``health``, loads; it re-dumps
        without ``extras`` and with an empty ``health``."""
        schema = make_schema({"name": "text"})
        spec = plan_shards(2, 2, 2, seed=4)[0]
        payload = {
            "spec": spec.to_dict(),
            "a_entities": [["s0_a0", ["ann"]]],
            "b_entities": [["s0_b0", ["bob"]]],
            "sampled_matches": [["s0_a0", "s0_b0"]],
            "sampled_non_matches": [],
            "rejection_stats": {"accepted": 1},
            "tracker": {"pos": None, "neg": None, "n_pos": 1, "n_neg": 0,
                        "buffer_pos": [[0.9]], "buffer_neg": []},
            "elapsed_seconds": 0.5,
            "peak_rss_kb": 10,
            "extras": {},
        }
        run = ShardRun.from_payload(payload, schema)
        assert run.spec == spec
        assert [e.entity_id for e in run.a_entities] == ["s0_a0"]
        assert run.sampled_matches == [("s0_a0", "s0_b0")]
        assert run.health is None
        expected = dict(payload)
        del expected["extras"]
        expected["health"] = None
        assert run.to_payload() == expected

    def test_progress_with_retired_peer_keys_resumes(self, eq10_model, tmp_path):
        """An ``s2_progress`` payload written while shards still steered
        each other carries ``peer_jsd``/``peer_pairs``.  It resumes, the
        keys are ignored, and the shard finishes as an uninterrupted run."""
        spec = plan_shards(30, 30, 2, seed=7)[1]
        expected = _quiet_synthesize(eq10_model.synthesize_shard, spec)

        polls = []
        with pytest.raises(SynthesisInterrupted):
            _quiet_synthesize(
                eq10_model.synthesize_shard, spec, checkpoint_dir=tmp_path,
                stop=lambda: polls.append(None) or len(polls) > 20,
            )
        checkpointer = StageCheckpointer(tmp_path)
        payload = checkpointer.load_or_none("s2_progress")
        assert len(payload["a_entities"]) + len(payload["b_entities"]) == 21
        checkpointer.commit(
            "s2_progress", {**payload, "peer_jsd": 0.0, "peer_pairs": 10**6}
        )

        resumed = _quiet_synthesize(
            eq10_model.synthesize_shard, spec, checkpoint_dir=tmp_path
        )
        assert resumed.health["counters"]["resumed_entities"] >= 21
        assert _run_key(resumed) == _run_key(expected)


def _toy_o_real(dim=2):
    def gmm(mean):
        component = GaussianComponent(
            np.full(dim, mean), np.eye(dim) * 0.01
        )
        return GaussianMixture(np.array([1.0]), (component,))

    return PairDistribution(0.4, gmm(0.8), gmm(0.2))


def _bootstrapped_tracker(seed=0, n=80):
    rng = np.random.default_rng(seed)
    tracker = DistributionTracker(_toy_o_real(), rng)
    pos = rng.normal(0.8, 0.05, size=(n // 2, 2)).clip(0, 1)
    neg = rng.normal(0.2, 0.05, size=(n // 2, 2)).clip(0, 1)
    tracker.add_vectors(np.vstack([pos, neg]))
    assert tracker.bootstrapped
    return tracker


class TestMergedOSyn:
    def test_no_bootstrapped_shards_yields_none(self):
        empty = {"pos": None, "neg": None, "n_pos": 0, "n_neg": 0,
                 "buffer_pos": [], "buffer_neg": []}
        assert merged_o_syn([]) is None
        assert merged_o_syn([empty, empty]) is None

    def test_single_state_reproduces_tracker_current(self):
        tracker = _bootstrapped_tracker()
        merged = merged_o_syn([tracker.to_dict()])
        current = tracker.current()
        assert merged.match_probability == pytest.approx(
            current.match_probability
        )
        x = np.random.default_rng(1).uniform(0, 1, size=(32, 2))
        np.testing.assert_allclose(
            merged.match_distribution.log_pdf(x),
            current.match_distribution.log_pdf(x),
        )
        np.testing.assert_allclose(
            merged.non_match_distribution.log_pdf(x),
            current.non_match_distribution.log_pdf(x),
        )

    def test_two_states_pool_pair_counts(self):
        t1 = _bootstrapped_tracker(seed=0, n=80)
        t2 = _bootstrapped_tracker(seed=1, n=40)
        merged = merged_o_syn([t1.to_dict(), t2.to_dict()])
        expected_pi = (t1.n_pos + t2.n_pos) / (
            t1.n_pos + t2.n_pos + t1.n_neg + t2.n_neg
        )
        assert merged.match_probability == pytest.approx(expected_pi)
        # Component weights on each side stay a valid simplex.
        assert merged.match_distribution.weights.sum() == pytest.approx(1.0)
        assert merged.non_match_distribution.weights.sum() == pytest.approx(1.0)

    def test_not_yet_bootstrapped_shards_skipped(self):
        tracker = _bootstrapped_tracker()
        empty = {"pos": None, "neg": None, "n_pos": 0, "n_neg": 0,
                 "buffer_pos": [], "buffer_neg": []}
        merged = merged_o_syn([tracker.to_dict(), empty])
        current = tracker.current()
        assert merged.match_probability == pytest.approx(
            current.match_probability
        )


# ----------------------------------------------------------------------
# Integration: sharded synthesis against the session's fitted model.
# ----------------------------------------------------------------------
def _synthesizer(registry, seed):
    synthesizer, _ = registry.load("restaurant")
    synthesizer.rng = np.random.default_rng(seed)
    return synthesizer


def _quiet_synthesize(fn, *args, **kwargs):
    """Run synthesis ignoring the tiny-fixture livelock RuntimeWarnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kwargs)


def _assert_same_dataset(actual, expected):
    assert [(e.entity_id, e.values) for e in actual.table_a] == [
        (e.entity_id, e.values) for e in expected.table_a
    ]
    assert [(e.entity_id, e.values) for e in actual.table_b] == [
        (e.entity_id, e.values) for e in expected.table_b
    ]
    assert actual.matches == expected.matches
    assert actual.non_matches == expected.non_matches


class TestShardedSynthesis:
    def test_single_shard_bit_identical_to_sequential(self, service_registry):
        sequential = _quiet_synthesize(
            _synthesizer(service_registry, 7).synthesize, 18, 18
        )
        sharded = _quiet_synthesize(
            _synthesizer(service_registry, 7).synthesize,
            18, 18, n_shards=1,
        )
        _assert_same_dataset(sharded.dataset, sequential.dataset)
        assert sharded.rejection_stats == sequential.rejection_stats
        assert "shards" not in sharded.extras

    def test_multi_shard_deterministic(self, service_registry):
        first = _quiet_synthesize(
            _synthesizer(service_registry, 11).synthesize,
            20, 20, n_shards=3,
        )
        second = _quiet_synthesize(
            _synthesizer(service_registry, 11).synthesize,
            20, 20, n_shards=3,
        )
        _assert_same_dataset(second.dataset, first.dataset)
        shards = first.extras["shards"]
        assert [s["index"] for s in shards] == [0, 1, 2]
        assert sum(s["n_a"] for s in shards) == 20

    def test_multi_shard_ids_namespaced_and_unique(self, service_registry):
        output = _quiet_synthesize(
            _synthesizer(service_registry, 13).synthesize,
            12, 12, n_shards=2,
        )
        ids = [e.entity_id for e in output.dataset.table_a] + [
            e.entity_id for e in output.dataset.table_b
        ]
        assert len(set(ids)) == len(ids)
        assert all(eid.startswith(("s0_", "s1_")) for eid in ids)

    def test_shard_result_independent_of_run_order(self, eq10_model, tmp_path):
        """Shard 1 run on its own, before shard 0, gives the result the
        in-process plan commits for it, and merging the two standalone runs
        gives the in-process dataset."""
        spec0, spec1 = plan_shards(30, 30, 2, seed=7)
        run1 = _quiet_synthesize(eq10_model.synthesize_shard, spec1)
        run0 = _quiet_synthesize(eq10_model.synthesize_shard, spec0)
        # Eq. 10 does decide candidates here, so a peer-dependent baseline
        # would change the shard's output.
        assert run1.rejection_stats["distribution"] > 0

        expected = _quiet_synthesize(
            eq10_model.synthesize, 30, 30, n_shards=2, checkpoint_dir=tmp_path
        )
        committed = ShardRun.from_payload(
            StageCheckpointer(tmp_path).load_or_none("s2_shard1_result"),
            eq10_model._real.schema,
        )
        assert _run_key(run1) == _run_key(committed)
        merged = eq10_model.assemble_shard_runs([run0, run1], 30, 30)
        _assert_same_dataset(merged.dataset, expected.dataset)

    def test_interrupt_resume_bit_identical(self, service_registry, tmp_path):
        """Satellite: kill a sharded run mid-S2, resume, same dataset."""
        expected = _quiet_synthesize(
            _synthesizer(service_registry, 17).synthesize,
            16, 16, n_shards=2,
        )

        checkpoint = tmp_path / "ckpt"
        plan = FaultPlan(FaultSpec("synthesize.step", at_calls=(9,)))
        with inject_faults(plan):
            with pytest.raises(InjectedInterrupt):
                _quiet_synthesize(
                    _synthesizer(service_registry, 17).synthesize,
                    16, 16, n_shards=2, checkpoint_dir=checkpoint,
                )
        assert plan.fired("synthesize.step") == 1

        resumed = _quiet_synthesize(
            _synthesizer(service_registry, 17).synthesize,
            16, 16, n_shards=2, checkpoint_dir=checkpoint,
        )
        _assert_same_dataset(resumed.dataset, expected.dataset)
        # A shard loaded from its committed result keeps its stage record.
        stages = [s["name"] for s in resumed.health["stages"]]
        assert "s2_synthesis_shard0" in stages
        assert "s2_synthesis_shard1" in stages
