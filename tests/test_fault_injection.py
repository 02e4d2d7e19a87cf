"""Fault-injection tests for the resilient pipeline runtime.

Each test arms a deterministic :class:`FaultPlan` against a seeded run and
asserts the documented recovery behavior: rollback-and-retry on NaN,
graceful degradation on persistent divergence, and bit-identical
checkpoint/resume after a mid-run kill.
"""

import numpy as np
import pytest

from repro.core import SERDConfig, SERDSynthesizer
from repro.datasets import load_dataset
from repro.distributions.gmm import fit_gmm
from repro.gan import TabularGANConfig
from repro.runtime import FaultPlan, FaultSpec, InjectedInterrupt, inject_faults
from repro.runtime.guards import DivergenceError
from repro.textgen.rules import RuleTextSynthesizer
from repro.textgen.transformer_backend import TransformerTextSynthesizerConfig

from tests.test_core_config import parent_format

pytestmark = pytest.mark.fault_injection


def _config(**overrides):
    defaults = dict(
        seed=5, gan=TabularGANConfig(iterations=15), checkpoint_every=5
    )
    defaults.update(overrides)
    return SERDConfig(**defaults)


def _assert_same_dataset(d1, d2):
    assert [e.values for e in d1.table_a] == [e.values for e in d2.table_a]
    assert [e.values for e in d1.table_b] == [e.values for e in d2.table_b]
    assert d1.matches == d2.matches
    assert d1.non_matches == d2.non_matches


@pytest.fixture(scope="module")
def real():
    return load_dataset("restaurant", scale=0.08, seed=5)


@pytest.fixture(scope="module")
def baseline_dataset(real):
    """The uninterrupted, unfaulted run every resume test must reproduce."""
    synthesizer = SERDSynthesizer(_config())
    synthesizer.fit(real)
    with pytest.warns(RuntimeWarning):  # tiny scale livelocks; expected
        return synthesizer.synthesize().dataset


class TestEMCollapse:
    def test_duplicate_points_fit_cleanly(self, rng):
        points = np.tile([[0.5, 0.5]], (40, 1))  # zero variance everywhere
        mixture = fit_gmm(points, n_components=2, rng=rng)
        assert np.isfinite(mixture.log_likelihood_)
        assert mixture.em_reseeds_ >= 0  # reseeds counted, never crash

    def test_injected_nan_triggers_restart(self, rng):
        points = rng.random((60, 2))
        with inject_faults(FaultPlan(FaultSpec("em.nan", at_calls=(1,)))) as plan:
            mixture = fit_gmm(points, n_components=2, rng=rng)
        assert plan.fired("em.nan") == 1
        assert np.isfinite(mixture.log_likelihood_)

    def test_persistent_nan_raises(self, rng):
        points = rng.random((60, 2))
        with inject_faults(FaultPlan(FaultSpec("em.nan"))):  # every call
            with pytest.raises(ValueError, match="EM diverged"):
                fit_gmm(points, n_components=2, rng=rng)


class TestGANGuard:
    def test_nan_gradient_rolls_back(self, real):
        synthesizer = SERDSynthesizer(_config())
        plan = FaultPlan(FaultSpec("gan.nan_grad", at_calls=(3, 7)))
        with inject_faults(plan):
            synthesizer.fit(real)
        record = synthesizer.health.stage("gan")
        assert record.counters["rollbacks"] == 2
        assert record.counters["nan_events"] == 2
        assert record.status == "completed"
        # The rolled-back GAN is healthy: finite weights, usable sampling.
        assert all(
            np.isfinite(p.data).all()
            for p in synthesizer.gan.generator.parameters()
        )
        assert len(synthesizer.gan.history) == _config().gan.iterations

    def test_persistent_divergence_degrades_to_no_gan(self, real):
        synthesizer = SERDSynthesizer(_config())
        with inject_faults(FaultPlan(FaultSpec("gan.nan_grad"))):
            synthesizer.fit(real)
        record = synthesizer.health.stage("gan")
        assert record.status == "degraded"
        assert synthesizer.gan is None
        assert any("diverged" in note for note in record.notes)
        # The degraded pipeline still synthesizes end to end (19 slots is
        # below FALLBACK_WARN_MIN, so no livelock warning is expected here).
        output = synthesizer.synthesize(n_a=10, n_b=10)
        assert len(output.dataset.table_a) == 10
        assert output.health["stages"][2]["status"] == "degraded"

    def test_strict_mode_raises(self, real):
        synthesizer = SERDSynthesizer(
            _config(degrade_gan_on_divergence=False)
        )
        with inject_faults(FaultPlan(FaultSpec("gan.nan_grad"))):
            with pytest.raises(DivergenceError, match="gan"):
                synthesizer.fit(real)


class TestTransformerGuard:
    @pytest.fixture()
    def transformer_config(self):
        return _config(
            text_backend="transformer",
            transformer=TransformerTextSynthesizerConfig(
                n_buckets=2, training_iterations=4, d_model=16
            ),
        )

    def test_repeated_divergence_falls_back_to_rules(
        self, real, transformer_config
    ):
        synthesizer = SERDSynthesizer(transformer_config)
        with inject_faults(FaultPlan(FaultSpec("transformer.nan_loss"))):
            synthesizer.fit(real, train_gan=False)
        record = synthesizer.health.stage("text")
        assert record.status == "degraded"
        assert record.counters["degradations"] == len(synthesizer._text_backends)
        assert all(
            isinstance(b, RuleTextSynthesizer)
            for b in synthesizer._text_backends.values()
        )
        assert any("RuleTextSynthesizer" in note for note in record.notes)

    def test_single_nan_is_retried_not_degraded(self, real, transformer_config):
        synthesizer = SERDSynthesizer(transformer_config)
        plan = FaultPlan(FaultSpec("transformer.nan_loss", at_calls=(2,)))
        with inject_faults(plan):
            synthesizer.fit(real, train_gan=False)
        record = synthesizer.health.stage("text")
        assert record.status == "completed"
        assert record.counters["rollbacks"] == 1

    def test_strict_mode_raises(self, real, transformer_config):
        import dataclasses

        config = dataclasses.replace(
            transformer_config, degrade_text_on_divergence=False
        )
        synthesizer = SERDSynthesizer(config)
        with inject_faults(FaultPlan(FaultSpec("transformer.nan_loss"))):
            with pytest.raises(DivergenceError):
                synthesizer.fit(real, train_gan=False)


class TestInterruptResume:
    def test_kill_after_text_resumes_without_retraining(
        self, real, baseline_dataset, tmp_path
    ):
        """The ISSUE acceptance scenario: kill mid-fit after text training,
        resume, and get seed-identical output without retraining."""
        crashed = SERDSynthesizer(_config())
        with inject_faults(FaultPlan(FaultSpec("fit.after_text", at_calls=(1,)))):
            with pytest.raises(InjectedInterrupt):
                crashed.fit(real, checkpoint_dir=tmp_path)

        resumed = SERDSynthesizer.resume(tmp_path, real)
        statuses = {s.name: s.status for s in resumed.health}
        assert statuses["s1"] == "resumed"
        assert statuses["text"] == "resumed"  # not retrained
        assert statuses["gan"] == "completed"  # never committed; ran fresh
        with pytest.warns(RuntimeWarning):
            output = resumed.synthesize()
        _assert_same_dataset(output.dataset, baseline_dataset)

    def test_kill_after_gan_resumes_everything(
        self, real, baseline_dataset, tmp_path
    ):
        crashed = SERDSynthesizer(_config())
        with inject_faults(FaultPlan(FaultSpec("fit.after_gan", at_calls=(1,)))):
            with pytest.raises(InjectedInterrupt):
                crashed.fit(real, checkpoint_dir=tmp_path)

        resumed = SERDSynthesizer.resume(tmp_path, real)
        assert {s.name: s.status for s in resumed.health} == {
            "s1": "resumed", "text": "resumed", "gan": "resumed",
        }
        with pytest.warns(RuntimeWarning):
            output = resumed.synthesize()
        _assert_same_dataset(output.dataset, baseline_dataset)

    def test_parent_format_manifest_resumes_trained_buckets(self, real, tmp_path):
        """A manifest written while ``n_similarity_buckets`` and
        ``n_text_candidates`` overrode the transformer section resumes with
        the bucket models that were trained, not the section's values."""
        config = _config(
            text_backend="transformer",
            transformer=TransformerTextSynthesizerConfig(
                n_buckets=2, n_candidates=2, training_iterations=2, d_model=16
            ),
        )
        uninterrupted = SERDSynthesizer(config)
        uninterrupted.fit(real, train_gan=False)
        expected = uninterrupted.synthesize(n_a=8, n_b=8).dataset

        crashed = SERDSynthesizer(config)
        with inject_faults(FaultPlan(FaultSpec("fit.after_text", at_calls=(1,)))):
            with pytest.raises(InjectedInterrupt):
                crashed.fit(real, train_gan=False, checkpoint_dir=tmp_path)
        from repro.runtime import StageCheckpointer

        checkpointer = StageCheckpointer(tmp_path)
        payload = parent_format(checkpointer.get_meta("config"), True)
        payload["transformer"].update(n_buckets=5, n_candidates=4)
        checkpointer.set_meta("config", payload)

        resumed = SERDSynthesizer.resume(tmp_path, real)
        assert resumed.config == config
        assert resumed.health.stage("text").status == "resumed"
        output = resumed.synthesize(n_a=8, n_b=8)
        _assert_same_dataset(output.dataset, expected)

    def test_kill_mid_synthesis_resumes_bit_identical(
        self, real, baseline_dataset, tmp_path
    ):
        synthesizer = SERDSynthesizer(_config())
        synthesizer.fit(real, checkpoint_dir=tmp_path)
        with inject_faults(FaultPlan(FaultSpec("synthesize.step", at_calls=(20,)))):
            with pytest.raises(InjectedInterrupt):
                synthesizer.synthesize(checkpoint_dir=tmp_path)

        resumed = SERDSynthesizer.resume(tmp_path, real)
        with pytest.warns(RuntimeWarning):
            output = resumed.synthesize(checkpoint_dir=tmp_path)
        _assert_same_dataset(output.dataset, baseline_dataset)
        s2 = next(
            s for s in output.health["stages"] if s["name"] == "s2_synthesis"
        )
        assert s2["counters"]["resumed_entities"] > 0
        # The consumed progress checkpoint is gone; a fresh synthesize works.
        from repro.runtime import StageCheckpointer

        assert not StageCheckpointer(tmp_path).has("s2_progress")

    def test_resume_rejects_wrong_dataset(self, real, tmp_path):
        synthesizer = SERDSynthesizer(_config())
        synthesizer.fit(real, checkpoint_dir=tmp_path)
        other = load_dataset("dblp_acm", scale=0.03, seed=5)
        with pytest.raises(ValueError, match="belongs to dataset"):
            SERDSynthesizer.resume(tmp_path, other)

    def test_resume_requires_checkpointed_config(self, real, tmp_path):
        with pytest.raises(ValueError, match="no recorded config"):
            SERDSynthesizer.resume(tmp_path / "empty", real)


class TestDegenerateInputs:
    def test_empty_table_rejected(self, real):
        from repro.schema import ERDataset, Relation

        empty = ERDataset(
            Relation("a", real.schema, []),
            real.table_b,
            [],
            name="empty",
        )
        with pytest.raises(ValueError, match="empty tables"):
            SERDSynthesizer(_config()).fit(empty)

    def test_no_matches_rejected(self, real):
        from repro.schema import ERDataset

        unmatched = ERDataset(
            real.table_a, real.table_b, [], name="unmatched"
        )
        with pytest.raises(ValueError, match="without labeled matches"):
            SERDSynthesizer(_config()).fit(unmatched)


class TestLivelockTelemetry:
    def test_fallback_rate_warns_once(self, real):
        # Impossible acceptance bar: every slot exhausts its retries.  23
        # slots cross the FALLBACK_WARN_MIN floor of 20.
        config = _config(
            alpha=1e-9,
            max_rejection_retries=1,
            min_pairs_for_rejection=1,
        )
        synthesizer = SERDSynthesizer(config)
        synthesizer.fit(real, train_gan=False)
        with pytest.warns(RuntimeWarning, match="rejection livelock") as caught:
            output = synthesizer.synthesize(n_a=12, n_b=12)
        livelock = [
            w for w in caught if "rejection livelock" in str(w.message)
        ]
        assert len(livelock) == 1  # once per run, not once per slot
        assert output.rejection_stats["fallback_accepted"] > 0
