"""The paper-faithful transformer text-synthesis backend (Section VI).

Training (Fig. 4, top): background strings are paired, bucketed by
similarity, and one character-level seq2seq transformer is trained per bucket
— differentially privately via Algorithm 1 when a :class:`DPSGDConfig` is
supplied, otherwise with Adam.

Inference (Fig. 4, bottom): given ``(s, sim)``, the model of the bucket
containing ``sim`` samples several candidate outputs; the one whose actual
similarity to ``s`` is closest to ``sim`` is returned.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import cross_entropy, cross_entropy_per_example
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.nn.transformer import Seq2SeqTransformer, TransformerConfig
from repro.privacy.accountant import RDPAccountant
from repro.privacy.dpsgd import DPSGDConfig, dp_sgd_step_vectorized
from repro.runtime import faults
from repro.runtime.guards import TrainingGuard
from repro.similarity.ngram import jaccard, qgram_jaccard, qgrams
from repro.textgen.backend import SynthesisResult
from repro.textgen.buckets import SimilarityBuckets, build_bucket_training_pairs
from repro.textgen.vocab import CharVocab


@dataclass(frozen=True)
class TransformerTextSynthesizerConfig:
    """Hyper-parameters for the bucket-of-transformers backend.

    Paper defaults: 10 buckets, 10 candidate strings, hidden 256, 3+3 layers,
    8 heads, dropout 0.1.  Our defaults shrink the models so CPU-numpy DP-SGD
    stays tractable (DESIGN.md substitution table); the structure is the same.
    """

    n_buckets: int = 10
    n_candidates: int = 10
    pairs_per_bucket: int = 96
    training_iterations: int = 40
    batch_size: int = 8
    max_length: int = 48
    d_model: int = 32
    n_heads: int = 2
    n_layers: int = 1
    d_feedforward: int = 64
    dropout: float = 0.1
    learning_rate: float = 3e-3
    dp: DPSGDConfig | None = None
    temperature: float = 0.8
    # Numeric-guard knobs: non-finite training steps are rolled back with
    # the learning rate decayed; after guard_max_retries rollbacks the
    # bucket raises DivergenceError (SERD then degrades to the rule backend).
    guard_max_retries: int = 3
    guard_lr_decay: float = 0.5


@dataclass
class _BucketModel:
    model: Seq2SeqTransformer
    vocab: CharVocab
    trained: bool = False
    losses: list[float] = field(default_factory=list)


class TransformerTextSynthesizer:
    """k transformer models, one per similarity bucket."""

    def __init__(
        self,
        config: TransformerTextSynthesizerConfig | None = None,
        similarity: Callable[[str, str], float] | None = None,
    ):
        self.config = config or TransformerTextSynthesizerConfig()
        self.similarity = similarity or qgram_jaccard
        self.buckets = SimilarityBuckets(self.config.n_buckets)
        self._models: list[_BucketModel | None] = [None] * self.config.n_buckets
        self._vocab: CharVocab | None = None
        self.accountant = RDPAccountant() if self.config.dp is not None else None
        self._background: list[str] = []
        self.health: dict[str, int] = {"nan_events": 0, "rollbacks": 0}

    def generation_stats(self) -> dict:
        """Aggregate decode telemetry across bucket models (for /stats)."""
        totals = {"generate_calls": 0, "cached_tokens": 0}
        for record in self._models:
            if record is None:
                continue
            for key in totals:
                totals[key] += record.model.decode_stats.get(key, 0)
        return totals

    @property
    def is_fitted(self) -> bool:
        return any(m is not None and m.trained for m in self._models)

    def epsilon(self, delta: float = 1e-5) -> float | None:
        """Spent privacy budget when trained with DP, else ``None``."""
        if self.accountant is None:
            return None
        return self.accountant.epsilon(delta)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _variant_scorer(self, text: str) -> Callable[[str], float]:
        """similarity(text, ·) with the fixed-source work hoisted out.

        For the default q-gram Jaccard, the source's q-gram set is profiled
        ONCE instead of on every perturbation iteration; either way, variant
        scores are memoized (the perturb walk revisits the same strings as
        deletions and re-insertions cancel out).
        """
        memo: dict[str, float] = {}
        if self.similarity is qgram_jaccard:
            source_grams = qgrams(text)

            def score(variant: str) -> float:
                found = memo.get(variant)
                if found is None:
                    found = memo[variant] = jaccard(source_grams, qgrams(variant))
                return found
        else:

            def score(variant: str) -> float:
                found = memo.get(variant)
                if found is None:
                    found = memo[variant] = self.similarity(text, variant)
                return found

        return score

    def _perturb_toward_bucket(
        self, text: str, bucket_index: int, rng: np.random.Generator
    ) -> tuple[str, str] | None:
        """Manufacture a pair (text, variant) whose similarity lands in the
        bucket, by repeated word/char deletions and substitutions.

        Random background pairs almost never land in mid/high buckets, so the
        trainer augments sparse buckets with perturbed variants — these are
        still background-only strings, preserving the privacy argument.
        """
        low, high = self.buckets.interval(bucket_index)
        words = text.split()
        if not words:
            return None
        scorer = self._variant_scorer(text)
        variant = list(words)
        for _ in range(24):
            score = scorer(" ".join(variant))
            if low <= score < high or (bucket_index == self.buckets.k - 1 and score >= low):
                return text, " ".join(variant)
            if score >= high:
                # Too similar: remove or corrupt a word.
                if len(variant) > 1 and rng.random() < 0.6:
                    del variant[int(rng.integers(len(variant)))]
                elif variant:
                    position = int(rng.integers(len(variant)))
                    word = variant[position]
                    variant[position] = word[: max(1, len(word) // 2)]
            else:
                # Too different: restore a source word.
                variant.insert(
                    int(rng.integers(len(variant) + 1)),
                    words[int(rng.integers(len(words)))],
                )
        return None

    def fit(self, background: Sequence[str], rng: np.random.Generator) -> None:
        """Train one model per bucket on background string pairs.

        With ``config.dp`` set, each model trains under Algorithm 1 and the
        shared :class:`RDPAccountant` accumulates the privacy cost (the
        models jointly release information about the background corpus, so
        their budgets compose).
        """
        cleaned = [t for t in background if t and t.strip()]
        if len(cleaned) < 2:
            raise ValueError("need at least two background strings to train")
        self._background = cleaned
        self._vocab = CharVocab.from_corpus(cleaned)
        pairs = build_bucket_training_pairs(
            cleaned,
            self.similarity,
            self.buckets,
            rng,
            pairs_per_bucket=self.config.pairs_per_bucket,
        )
        # Augment sparse buckets with perturbed background variants.
        minimum = max(8, self.config.pairs_per_bucket // 4)
        for index, bucket_pairs in enumerate(pairs):
            attempts = 0
            while len(bucket_pairs) < minimum and attempts < 40 * minimum:
                attempts += 1
                text = cleaned[int(rng.integers(len(cleaned)))]
                made = self._perturb_toward_bucket(text, index, rng)
                if made is not None:
                    bucket_pairs.append(made)
        for index, bucket_pairs in enumerate(pairs):
            if len(bucket_pairs) >= 2:
                self._models[index] = self._train_bucket(index, bucket_pairs, rng)

    def _build_model(self, rng: np.random.Generator) -> Seq2SeqTransformer:
        assert self._vocab is not None
        cfg = TransformerConfig(
            vocab_size=len(self._vocab),
            d_model=self.config.d_model,
            n_heads=self.config.n_heads,
            n_encoder_layers=self.config.n_layers,
            n_decoder_layers=self.config.n_layers,
            d_feedforward=self.config.d_feedforward,
            dropout=self.config.dropout,
            max_length=self.config.max_length + 2,
        )
        return Seq2SeqTransformer(cfg, rng)

    def _encode_pair(self, pair: tuple[str, str]) -> tuple[list[int], list[int], list[int]]:
        assert self._vocab is not None
        limit = self.config.max_length
        source, target = pair
        src = self._vocab.encode(source[:limit], add_eos=True)
        tgt_full = self._vocab.encode(target[:limit], add_bos=True, add_eos=True)
        return src, tgt_full[:-1], tgt_full[1:]

    def _train_bucket(
        self,
        bucket_index: int,
        bucket_pairs: list[tuple[str, str]],
        rng: np.random.Generator,
    ) -> _BucketModel:
        assert self._vocab is not None
        model = self._build_model(rng)
        record = _BucketModel(model=model, vocab=self._vocab)
        encoded = [self._encode_pair(p) for p in bucket_pairs]
        label = f"transformer bucket {bucket_index}"

        if self.config.dp is not None:
            vocab = self._vocab

            # ONE batched forward/backward per step (vectorized per-sample
            # gradients); tests/test_privacy_grad_sample.py pins its update
            # to the per-example loop of dp_sgd_step.
            def batch_loss(module, batch):
                sources = vocab.pad_batch([b[0] for b in batch])
                targets_in = vocab.pad_batch([b[1] for b in batch])
                targets_out = vocab.pad_batch([b[2] for b in batch])
                logits = module(sources, targets_in)
                return cross_entropy_per_example(
                    logits, targets_out, ignore_index=0
                )

            def dp_step(batch):
                return dp_sgd_step_vectorized(
                    model, batch, batch_loss, self.config.dp, rng
                )

            guard = TrainingGuard(
                (model,), (),
                max_retries=self.config.guard_max_retries,
                lr_decay=self.config.guard_lr_decay,
                label=label,
            )
            completed = 0
            try:
                while completed < self.config.training_iterations:
                    size = min(self.config.batch_size, len(encoded))
                    picks = rng.choice(len(encoded), size=size, replace=False)
                    batch = [encoded[i] for i in picks]
                    loss = dp_step(batch)
                    loss = faults.corrupt("transformer.nan_loss", loss)
                    # Account every attempt: the per-example gradients were
                    # computed on real background data whether or not the
                    # resulting step survives the guard.
                    if self.accountant is not None:
                        self.accountant.step(
                            size / len(encoded), self.config.dp.noise_scale, 1
                        )
                    if guard.step_ok(loss):
                        guard.snapshot()
                        record.losses.append(loss)
                        completed += 1
                    else:
                        guard.rollback()
            finally:
                self._absorb_guard(guard)
        else:
            optimizer = Adam(model.parameters(), self.config.learning_rate)
            guard = TrainingGuard(
                (model,), (optimizer,),
                max_retries=self.config.guard_max_retries,
                lr_decay=self.config.guard_lr_decay,
                label=label,
            )
            completed = 0
            try:
                while completed < self.config.training_iterations:
                    size = min(self.config.batch_size, len(encoded))
                    picks = rng.choice(len(encoded), size=size, replace=False)
                    srcs = self._vocab.pad_batch([encoded[i][0] for i in picks])
                    tgt_ins = self._vocab.pad_batch([encoded[i][1] for i in picks])
                    tgt_outs = self._vocab.pad_batch([encoded[i][2] for i in picks])
                    logits = model(srcs, tgt_ins)
                    loss = cross_entropy(logits, tgt_outs, ignore_index=0)
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
                    loss_value = faults.corrupt("transformer.nan_loss", loss.item())
                    if guard.step_ok(loss_value):
                        guard.snapshot()
                        record.losses.append(loss_value)
                        completed += 1
                    else:
                        guard.rollback()
            finally:
                self._absorb_guard(guard)
        record.trained = True
        return record

    def _absorb_guard(self, guard: TrainingGuard) -> None:
        """Fold one bucket guard's counters into the backend health."""
        for key, value in guard.counters().items():
            self.health[key] = self.health.get(key, 0) + value

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _model_for(self, similarity: float) -> _BucketModel:
        if not self.is_fitted:
            raise RuntimeError("synthesizer is not fitted; call fit() first")
        wanted = self.buckets.index_of(float(np.clip(similarity, 0.0, 1.0)))
        # Nearest trained bucket when the exact one had no training data.
        order = sorted(range(self.buckets.k), key=lambda i: abs(i - wanted))
        for index in order:
            record = self._models[index]
            if record is not None and record.trained:
                return record
        raise RuntimeError("no trained bucket models")  # pragma: no cover

    def synthesize(
        self, source: str, target_similarity: float, rng: np.random.Generator
    ) -> SynthesisResult:
        """Sample candidates from the right bucket model; keep the closest.

        Paper Section VI (Inference): "we can get several different candidate
        output strings due to the sampling process ... return the string
        whose similarity with s is the closest to sim".
        """
        record = self._model_for(target_similarity)
        assert self._vocab is not None
        src_ids = self._vocab.encode(source[: self.config.max_length], add_eos=True)
        # One generate call draws all k candidates: the encoder runs ONCE on
        # the single source row and the KV-cached decoder fans the memory
        # out across the candidate samples.
        generated = record.model.generate(
            np.asarray([src_ids], dtype=np.int64),
            temperature=self.config.temperature,
            rng=rng,
            max_new_tokens=self.config.max_length,
            samples_per_source=self.config.n_candidates,
        )
        scorer = self._variant_scorer(source)
        best_text, best_gap, best_sim = None, np.inf, 0.0
        for token_ids in generated:
            text = self._vocab.decode(token_ids)
            if not text.strip():
                continue
            score = scorer(text)
            gap = abs(score - target_similarity)
            if gap < best_gap:
                best_text, best_gap, best_sim = text, gap, score
        if best_text is None:
            # Degenerate decode; fall back to a background string.
            best_text = self._background[int(rng.integers(len(self._background)))]
            best_sim = self.similarity(source, best_text)
        return SynthesisResult(best_text, best_sim)

    # ------------------------------------------------------------------
    # Persistence (offline training is the expensive phase — Table IV)
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Persist vocab, background, the DP accountant (if any) and all
        bucket models to a directory."""
        import json
        import pathlib

        if not self.is_fitted:
            raise RuntimeError("cannot save an unfitted synthesizer")
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "characters": [
                c for c in self._vocab._id_to_char[len(CharVocab._SPECIALS):]
            ],
            "background": self._background,
            "trained_buckets": [
                i for i, m in enumerate(self._models) if m is not None and m.trained
            ],
        }
        if self.accountant is not None:
            meta["accountant"] = self.accountant.to_dict()
        (directory / "meta.json").write_text(json.dumps(meta))
        for index in meta["trained_buckets"]:
            self._models[index].model.save(str(directory / f"bucket_{index}.npz"))

    def load(self, directory) -> "TransformerTextSynthesizer":
        """Restore a synthesizer saved with :meth:`save`.

        The config must match the one used at training time (model shapes
        are rebuilt from it before loading weights).
        """
        import json
        import pathlib

        directory = pathlib.Path(directory)
        meta = json.loads((directory / "meta.json").read_text())
        self._vocab = CharVocab(meta["characters"])
        self._background = list(meta["background"])
        # A save that predates accountant persistence keeps the fresh one.
        if self.accountant is not None and "accountant" in meta:
            self.accountant = RDPAccountant.from_dict(meta["accountant"])
        rng = np.random.default_rng(0)
        self._models = [None] * self.config.n_buckets
        for index in meta["trained_buckets"]:
            model = self._build_model(rng)
            model.load(str(directory / f"bucket_{index}.npz"))
            self._models[index] = _BucketModel(
                model=model, vocab=self._vocab, trained=True
            )
        return self
