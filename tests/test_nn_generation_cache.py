"""Equivalence tests: KV-cached decoding against the uncached oracle.

``generate`` feeds one token per step and replays append-only K/V; the
oracle (:mod:`tests.reference.decode`) re-runs the full decoder over the
whole prefix.  Both must emit byte-identical token sequences under a shared
RNG — greedy, sampled, fanned-out (``samples_per_source``) decoding, one
model decoding different sources back to back, and the fitted transformer
text backend end to end.  Multi-token prefill steps match a full-prefix
decoder pass.
"""

import numpy as np
import pytest

from repro.nn.transformer import (
    Seq2SeqTransformer,
    TransformerConfig,
    _sample_next_tokens,
)
from repro.textgen.transformer_backend import (
    TransformerTextSynthesizer,
    TransformerTextSynthesizerConfig,
)

from tests.reference import decode as reference


@pytest.fixture
def config():
    return TransformerConfig(
        vocab_size=22, d_model=16, n_heads=2, n_encoder_layers=2,
        n_decoder_layers=2, d_feedforward=32, dropout=0.0, max_length=24,
    )


@pytest.fixture
def model(config, rng):
    return Seq2SeqTransformer(config, rng)


class TestGenerateEquivalence:
    def test_greedy_byte_identical(self, model, rng):
        src = rng.integers(4, 22, size=(5, 8))
        cached = model.generate(src, greedy=True)
        uncached = reference.generate(model, src, greedy=True)
        assert cached == uncached

    def test_sampled_byte_identical(self, model, rng):
        src = rng.integers(4, 22, size=(6, 7))
        for seed in (0, 7, 99):
            first = model.generate(
                src, temperature=0.9, rng=np.random.default_rng(seed),
            )
            second = reference.generate(
                model, src, temperature=0.9, rng=np.random.default_rng(seed),
            )
            assert first == second

    def test_sampled_equivalence_survives_finished_rows(self, model, rng):
        """Long decode with staggered EOS: rows that finish early keep
        consuming RNG alongside live rows, identically in both paths."""
        src = rng.integers(4, 22, size=(8, 5))
        first = model.generate(
            src, temperature=1.3, rng=np.random.default_rng(1),
            max_new_tokens=20,
        )
        second = reference.generate(
            model, src, temperature=1.3, rng=np.random.default_rng(1),
            max_new_tokens=20,
        )
        assert first == second

    def test_samples_per_source_byte_identical(self, model, rng):
        src = rng.integers(4, 22, size=(2, 6))
        first = model.generate(
            src, temperature=0.8, rng=np.random.default_rng(5),
            samples_per_source=4,
        )
        second = reference.generate(
            model, src, temperature=0.8, rng=np.random.default_rng(5),
            samples_per_source=4,
        )
        assert len(first) == 8
        assert first == second

    def test_samples_per_source_matches_repeated_rows(self, model, rng):
        """Fanning one source out equals feeding k identical source rows
        (the pre-batching behavior of the textgen backend)."""
        src = rng.integers(4, 22, size=(1, 6))
        fanned = model.generate(
            src, temperature=0.8, rng=np.random.default_rng(3),
            samples_per_source=5,
        )
        repeated = model.generate(
            np.repeat(src, 5, axis=0), temperature=0.8,
            rng=np.random.default_rng(3),
        )
        assert fanned == repeated

    def test_min_new_tokens_blocks_eos(self, model, rng):
        src = rng.integers(4, 22, size=(4, 6))
        outputs = model.generate(
            src, greedy=True, max_new_tokens=12, min_new_tokens=10,
        )
        assert all(len(tokens) >= 10 for tokens in outputs)

    @pytest.mark.parametrize("samples_per_source", [1, 3])
    def test_sources_back_to_back_byte_identical(
        self, model, rng, samples_per_source
    ):
        """One model decodes different sources in turn — same shape with new
        content, then a padded source (new memory mask and length); no state
        from an earlier call leaks into a later one."""
        src_a = rng.integers(4, 22, size=(4, 6))
        src_b = rng.integers(4, 22, size=(4, 6))
        src_c = np.pad(src_b, ((0, 0), (0, 2)))
        for seed, source in enumerate((src_a, src_b, src_c, src_a)):
            kwargs = dict(temperature=0.9, samples_per_source=samples_per_source)
            cached = model.generate(
                source, rng=np.random.default_rng(seed), **kwargs
            )
            uncached = reference.generate(
                model, source, rng=np.random.default_rng(seed), **kwargs
            )
            assert len(cached) == 4 * samples_per_source
            assert cached == uncached

    def test_decode_stats_accumulate(self, config, rng):
        fresh = Seq2SeqTransformer(config, rng)
        src = rng.integers(4, 22, size=(3, 5))
        fresh.generate(src, greedy=True, max_new_tokens=4)
        once = fresh.decode_stats["cached_tokens"]
        fresh.generate(src, greedy=True, max_new_tokens=4)
        stats = fresh.decode_stats
        assert stats["generate_calls"] == 2
        assert 0 < once < stats["cached_tokens"]


class TestSynthesizeEquivalence:
    def test_text_backend_byte_identical_uncached(self):
        """``TransformerTextSynthesizer.synthesize`` draws its candidates
        through ``generate``; the full-prefix oracle must give the same
        texts under the same rng."""
        corpus = [
            "golden gate grill san francisco",
            "cafe du monde new orleans",
            "union square bistro",
            "river north tavern chicago",
            "harbor light diner seattle",
            "palm court brasserie",
        ]
        synthesizer = TransformerTextSynthesizer(
            TransformerTextSynthesizerConfig(
                n_buckets=3, n_candidates=4, pairs_per_bucket=12,
                training_iterations=4, batch_size=4, max_length=16,
                d_model=16, n_heads=2, d_feedforward=32, dropout=0.0,
            )
        )
        synthesizer.fit(corpus, np.random.default_rng(21))
        requests = [(text, 0.2 + 0.15 * i) for i, text in enumerate(corpus)]

        def run():
            rng = np.random.default_rng(31)
            return [synthesizer.synthesize(t, s, rng).text for t, s in requests]

        cached = run()
        cached_tokens = synthesizer.generation_stats()["cached_tokens"]
        assert cached_tokens > 0
        with reference.uncached():
            uncached = run()
        # The oracle decoded everything: no cached token was added.
        assert synthesizer.generation_stats()["cached_tokens"] == cached_tokens
        assert cached == uncached


class TestDecodeStep:
    def test_prefill_matches_stepwise(self, model, rng):
        """Feeding a 4-token block equals feeding the tokens one at a time."""
        src = rng.integers(4, 22, size=(2, 6))
        prefix = rng.integers(4, 22, size=(2, 4))
        prefix[:, 0] = model.BOS
        memory, memory_mask = model.encode(src)

        block_cache = model.start_decode_cache(memory, memory_mask)
        block_logits = model.decode_step(prefix, block_cache)

        step_cache = model.start_decode_cache(memory, memory_mask)
        for position in range(prefix.shape[1]):
            step_logits = model.decode_step(
                prefix[:, position : position + 1], step_cache
            )
        np.testing.assert_allclose(block_logits, step_logits, atol=1e-10)

    def test_matches_full_decode(self, model, rng):
        src = rng.integers(4, 22, size=(2, 6))
        prefix = rng.integers(4, 22, size=(2, 5))
        prefix[:, 0] = model.BOS
        memory, memory_mask = model.encode(src)
        full = model.decode(prefix, memory, memory_mask).data[:, -1, :]
        cache = model.start_decode_cache(memory, memory_mask)
        stepped = model.decode_step(prefix, cache)
        np.testing.assert_allclose(stepped, full, atol=1e-10)

    @pytest.mark.parametrize("n_new", [2, 3, 6])
    def test_prefill_then_steps_match_full_decode(self, model, rng, n_new):
        """Prefill ``n_new`` tokens in one step, then feed the rest one at a
        time; after every step the logits match a full-prefix decode."""
        src = rng.integers(4, 22, size=(3, 6))
        prefix = rng.integers(4, 22, size=(3, 8))
        prefix[:, 0] = model.BOS
        memory, memory_mask = model.encode(src)
        cache = model.start_decode_cache(memory, memory_mask)
        logits = model.decode_step(prefix[:, :n_new], cache)
        for end in range(n_new, prefix.shape[1] + 1):
            if end > n_new:
                logits = model.decode_step(prefix[:, end - 1 : end], cache)
            expected = model.decode(
                prefix[:, :end], memory, memory_mask
            ).data[:, -1, :]
            np.testing.assert_allclose(logits, expected, atol=1e-10)
            np.testing.assert_array_equal(
                logits.argmax(axis=-1), expected.argmax(axis=-1)
            )
        assert cache.length == prefix.shape[1]

    def test_length_guard(self, model, rng):
        src = rng.integers(4, 22, size=(1, 4))
        memory, memory_mask = model.encode(src)
        cache = model.start_decode_cache(memory, memory_mask)
        too_long = np.ones((1, model.config.max_length + 1), dtype=np.int64)
        with pytest.raises(ValueError, match="max_length"):
            model.decode_step(too_long, cache)


class TestVectorizedSampler:
    def test_greedy_is_argmax(self, rng):
        logits = rng.normal(size=(5, 11))
        picked = _sample_next_tokens(
            logits, temperature=1.0, rng=rng, greedy=True
        )
        np.testing.assert_array_equal(picked, logits.argmax(axis=-1))

    def test_never_picks_forbidden(self, rng):
        logits = rng.normal(size=(64, 9))
        logits[:, 0] = -np.inf
        logits[:, 1] = -np.inf
        for _ in range(20):
            picked = _sample_next_tokens(
                logits, temperature=1.0, rng=rng, greedy=False
            )
            assert not np.isin(picked, (0, 1)).any()

    def test_fixed_rng_consumption(self):
        """One uniform per row per step, independent of the distributions."""
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        peaked = np.full((4, 8), -50.0)
        peaked[:, 3] = 50.0
        flat = np.zeros((4, 8))
        _sample_next_tokens(peaked, temperature=1.0, rng=rng_a, greedy=False)
        _sample_next_tokens(flat, temperature=1.0, rng=rng_b, greedy=False)
        # Both consumed exactly 4 draws: the streams are still in lockstep.
        assert rng_a.random() == rng_b.random()

    def test_matches_distribution(self):
        rng = np.random.default_rng(42)
        logits = np.log(np.asarray([[0.1, 0.2, 0.7]]))
        counts = np.zeros(3)
        for _ in range(3000):
            counts[_sample_next_tokens(
                logits, temperature=1.0, rng=rng, greedy=False
            )[0]] += 1
        np.testing.assert_allclose(counts / 3000, [0.1, 0.2, 0.7], atol=0.04)
