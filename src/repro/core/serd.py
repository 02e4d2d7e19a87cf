"""The SERD synthesizer (paper Algorithm SERD, Sections III-VI).

Usage::

    synthesizer = SERDSynthesizer(SERDConfig(seed=7))
    synthesizer.fit(real_dataset)            # S1 + model training (offline)
    output = synthesizer.synthesize()        # S2 + S3 (online)
    output.dataset                           # the synthetic ERDataset

The offline phase runs as named, checkpointable stages (``s1`` →
``text`` → ``gan``) under the resilient runtime (:mod:`repro.runtime`):
pass ``checkpoint_dir`` to :meth:`SERDSynthesizer.fit` /
:meth:`SERDSynthesizer.synthesize` and an interrupted run can be resumed
with :meth:`SERDSynthesizer.resume`, skipping every stage that already
committed.  Checkpoints capture the master RNG stream position, so a
resumed run is bit-identical to an uninterrupted one with the same seed.
"""

from __future__ import annotations

import os
import resource
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.cold_start import cold_start_entity
from repro.core.config import SERDConfig
from repro.core.labeling import label_all_pairs
from repro.core.rejection import DistributionTracker, RejectionPolicy
from repro.core.sharding import (
    ShardRun,
    ShardSpec,
    ShardStatsBus,
    merged_o_syn,
    plan_shards,
    shard_rng,
)
from repro.core.synthesis import EntityFactory
from repro.distributions.divergence import pair_distribution_jsd
from repro.distributions.mixture import PairDistribution
from repro.gan.encoding import EntityEncoder
from repro.gan.training import TabularGAN
from repro.runtime import faults, resources
from repro.runtime.cancellation import SynthesisInterrupted
from repro.runtime.checkpoint import StageCheckpointer, restore_rng, rng_state
from repro.runtime.guards import DivergenceError
from repro.runtime.health import (
    COMPLETED,
    DEGRADED,
    RESUMED,
    RUNNING,
    HealthReport,
    StageHealth,
)
from repro.runtime.integrity import CorruptArtifactError
from repro.runtime.io import atomic_write_json, read_json
from repro.schema.dataset import ERDataset, Pair
from repro.schema.entity import Entity, Relation
from repro.schema.types import AttributeType
from repro.similarity.vector import SimilarityModel
from repro.textgen.backend import TextSynthesizer
from repro.textgen.rules import RuleTextSynthesizer
from repro.textgen.transformer_backend import TransformerTextSynthesizer


@dataclass
class SynthesisOutput:
    """The synthetic dataset plus run diagnostics."""

    dataset: ERDataset
    o_real: PairDistribution
    rejection_stats: dict[str, int]
    n_sampled_matches: int
    n_sampled_non_matches: int
    n_posterior_labeled: int
    jsd_final: float | None
    offline_seconds: float
    online_seconds: float
    epsilon: float | None = None
    extras: dict = field(default_factory=dict)
    # Per-stage health report (repro.runtime.health.HealthReport.to_dict()):
    # retries, NaN rollbacks, EM reseeds, rejection fallbacks, degradations.
    health: dict = field(default_factory=dict)


_EXPORT_KEYS = (
    "o_real",
    "o_labeling_match_probability",
    "match_edge_rate",
    "plausibility_floor",
    "ranges",
    "schema",
)


def load_exported_distributions(path: "str | os.PathLike") -> dict:
    """Read a distribution artifact written by ``export_distributions``.

    Returns a dict with ``o_real`` (a :class:`PairDistribution`),
    ``o_labeling_match_probability``, ``match_edge_rate``,
    ``plausibility_floor``, ``ranges`` and ``schema``.

    Raises a descriptive :class:`ValueError` (naming the offending key or
    the decode position) for truncated, malformed or incomplete artifacts.
    """
    payload = read_json(path, what="distribution artifact")
    missing = [key for key in _EXPORT_KEYS if key not in payload]
    if missing:
        raise ValueError(
            f"distribution artifact at {path} is missing key(s) "
            f"{missing}; the file is truncated or was not written by "
            "export_distributions"
        )
    try:
        payload["o_real"] = PairDistribution.from_dict(payload["o_real"])
    except KeyError as error:
        raise ValueError(
            f"distribution artifact at {path} has a malformed 'o_real' "
            f"section: missing key {error.args[0]!r}"
        ) from None
    payload["ranges"] = {k: tuple(v) for k, v in payload["ranges"].items()}
    return payload


class SERDSynthesizer:
    """End-to-end SERD pipeline."""

    def __init__(self, config: SERDConfig | None = None):
        self.config = config or SERDConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.similarity_model: SimilarityModel | None = None
        self.o_real: PairDistribution | None = None
        self.o_labeling: PairDistribution | None = None
        self.factory: EntityFactory | None = None
        self.gan: TabularGAN | None = None
        self._background: dict[str, list[str]] = {}
        self._categorical_values: dict[str, list] = {}
        self._real: ERDataset | None = None
        self._text_backends: dict[str, TextSynthesizer] = {}
        self.match_edge_rate = 0.0
        self.plausibility_floor: float | None = None
        self.offline_seconds = 0.0
        self.health = HealthReport()

    # ------------------------------------------------------------------
    # S1 + model training (offline phase)
    # ------------------------------------------------------------------
    def fit(
        self,
        real: ERDataset,
        background: dict[str, list[str]] | None = None,
        *,
        train_gan: bool = True,
        checkpoint_dir: str | os.PathLike | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> "SERDSynthesizer":
        """Learn the O-distribution and train the synthesis models.

        Parameters
        ----------
        real:
            The real ER dataset ``E_real``.
        background:
            ``{text column: background strings}``.  When omitted, the dataset
            registry is consulted by ``real.name`` (the bundled benchmarks all
            ship background corpora).  Background data must be in-domain but
            outside the active domain — it is the only string data the text
            models ever see (paper Fig. 2).
        train_gan:
            Train the tabular GAN for cold start and rejection Case 1.
            Without it, cold start falls back to per-column sampling and
            discriminator rejection is skipped.
        checkpoint_dir:
            When given, each stage (``s1``, ``text``, ``gan``) commits a
            durable checkpoint as it completes, and stages already committed
            there are *loaded instead of recomputed* — including the master
            RNG stream position, so the resumed run continues exactly where
            the interrupted one stopped.
        stop:
            Cooperative cancellation predicate (e.g. a
            :class:`~repro.runtime.cancellation.CancellationToken`).  Checked
            at stage boundaries — each completed stage has already committed
            its checkpoint, so a stop here raises
            :class:`~repro.runtime.cancellation.SynthesisInterrupted` with
            all finished work durable and resumable.
        """
        started = time.perf_counter()
        self.health = HealthReport()
        self._validate_fit_inputs(real)
        self._real = real
        checkpointer = (
            StageCheckpointer(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if checkpointer is not None:
            recorded = checkpointer.get_meta("dataset")
            if recorded is not None and recorded != real.name:
                raise ValueError(
                    f"checkpoint directory belongs to dataset {recorded!r}, "
                    f"refusing to resume it with {real.name!r}"
                )
            checkpointer.set_meta("config", self.config.to_dict())
            checkpointer.set_meta("train_gan", bool(train_gan))
            checkpointer.set_meta("dataset", real.name)

        # Deterministic, RNG-free setup — always recomputed (cheap relative
        # to training; checkpoints hold only the expensive learned state).
        self.similarity_model = SimilarityModel.from_relations(
            real.table_a, real.table_b
        )
        self._background = self._resolve_background(real, background)
        self._categorical_values = self._collect_categorical_values(real)

        self._fit_stage_s1(real, checkpointer)
        faults.maybe_interrupt("fit.after_s1")
        self._check_stop(stop, "fit.after_s1", checkpointer)
        self._fit_stage_text(real, checkpointer)
        faults.maybe_interrupt("fit.after_text")
        self._check_stop(stop, "fit.after_text", checkpointer)
        self.factory = EntityFactory(
            self.similarity_model, self._categorical_values, self._text_backends
        )
        self._fit_stage_gan(real, checkpointer, train_gan)
        faults.maybe_interrupt("fit.after_gan")
        self.offline_seconds = time.perf_counter() - started
        return self

    @classmethod
    def resume(
        cls,
        checkpoint_dir: str | os.PathLike,
        real: ERDataset,
        background: dict[str, list[str]] | None = None,
    ) -> "SERDSynthesizer":
        """Rebuild a synthesizer from an interrupted run's checkpoints.

        Reads the config recorded in the checkpoint manifest, re-runs
        :meth:`fit` against the same ``real`` dataset, and skips every stage
        that already committed — a run killed after text-backend training
        resumes without retraining a single text model, and its final
        :meth:`synthesize` output matches the uninterrupted run seed-for-seed.
        """
        checkpointer = StageCheckpointer(checkpoint_dir)
        config_payload = checkpointer.get_meta("config")
        if config_payload is None:
            raise ValueError(
                f"{checkpoint_dir} holds no recorded config; it is not a "
                "SERD checkpoint directory (fit() writes one when given "
                "checkpoint_dir)"
            )
        synthesizer = cls(SERDConfig.from_dict(config_payload))
        synthesizer.fit(
            real,
            background,
            train_gan=bool(checkpointer.get_meta("train_gan", True)),
            checkpoint_dir=checkpoint_dir,
        )
        return synthesizer

    # ------------------------------------------------------------------
    # Fit stages
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_fit_inputs(real: ERDataset) -> None:
        """Reject degenerate inputs before they reach numpy with an opaque
        error (empty ``x_match`` used to die inside ``np.vstack``)."""
        if len(real.table_a) == 0 or len(real.table_b) == 0:
            raise ValueError(
                "cannot fit SERD on empty tables: "
                f"table_a has {len(real.table_a)} entities, "
                f"table_b has {len(real.table_b)}"
            )
        if not real.matches:
            raise ValueError(
                "cannot fit SERD without labeled matches: real.matches is "
                "empty, so the M-distribution has no training vectors (S1 "
                "needs at least one matching pair)"
            )

    @staticmethod
    def _check_stop(
        stop: Callable[[], bool] | None,
        stage: str,
        checkpointer: StageCheckpointer | None,
    ) -> None:
        """Honor a cooperative stop request at a durable boundary."""
        if stop is not None and stop():
            raise SynthesisInterrupted(stage, checkpointed=checkpointer is not None)

    def _restore_stage_record(self, record: StageHealth, payload: dict) -> None:
        """Adopt counters/notes a committed stage recorded when it ran."""
        saved = payload.get("health")
        if not saved:
            return
        restored = StageHealth.from_dict(saved)
        record.counters = restored.counters
        record.notes = restored.notes
        if restored.status == DEGRADED:
            record.note("stage originally completed degraded (see notes)")

    def _commit_stage(
        self,
        checkpointer: StageCheckpointer | None,
        name: str,
        payload: dict,
        record: StageHealth,
    ) -> None:
        if checkpointer is None:
            return
        payload = dict(payload)
        payload["rng_state"] = rng_state(self.rng)
        payload["health"] = record.to_dict()
        checkpointer.commit(name, payload)

    def _fit_stage_s1(
        self, real: ERDataset, checkpointer: StageCheckpointer | None
    ) -> None:
        """S1: learn the M- and N-distributions from labeled real pairs."""
        record = self.health.stage("s1")
        stage_started = time.perf_counter()
        # load_or_none quarantines a corrupt payload and drops the stage
        # from the manifest, so corruption degrades to re-running S1.
        payload = (
            checkpointer.load_or_none("s1") if checkpointer is not None else None
        )
        if payload is not None:
            self.o_real = PairDistribution.from_dict(payload["o_real"])
            self.o_labeling = PairDistribution(
                payload["o_labeling_match_probability"],
                self.o_real.match_distribution,
                self.o_real.non_match_distribution,
            )
            self.match_edge_rate = float(payload["match_edge_rate"])
            self.plausibility_floor = float(payload["plausibility_floor"])
            self._restore_stage_record(record, payload)
            restore_rng(self.rng, payload["rng_state"])
            self.health.mark("s1", RESUMED, time.perf_counter() - stage_started)
            return
        record.status = RUNNING

        # The kernel layer profiles each relation once (cached on the
        # relation), so labeled-pair extraction is a batched row gather.
        x_match = self.similarity_model.pairs_for_ids(
            real.table_a, real.table_b, real.matches
        )
        wanted_neg = int(round(self.config.negative_ratio * max(1, len(real.matches))))
        from repro.similarity.blocking import mixed_non_matches

        negatives = mixed_non_matches(
            real, self.similarity_model,
            min(wanted_neg, 20 * max(1, len(real.matches))), self.rng,
            hard_fraction=self.config.hard_negative_fraction,
        )
        if not negatives:
            raise ValueError(
                "cannot fit SERD: no non-matching pairs could be sampled "
                f"from {real.name!r} (every cross pair is labeled matching); "
                "the N-distribution has no training vectors"
            )
        x_non_match = self.similarity_model.pairs_for_ids(
            real.table_a, real.table_b, negatives
        )
        self.o_real = PairDistribution.fit(
            x_match, x_non_match, self.rng,
            max_components=self.config.max_gmm_components,
        )
        record.increment(
            "em_reseeds",
            self.o_real.match_distribution.em_reseeds_
            + self.o_real.non_match_distribution.em_reseeds_,
        )
        # The O-distribution's pi is the match fraction of the *labeled* pair
        # sample (the paper's |X+| / (|X+| + |X-|)) and drives S2 sampling.
        # S3, however, scores every one of the n_a * n_b cross pairs, whose
        # true match prior is |M| / (|A| * |B|) — orders of magnitude smaller.
        # Using the labeled-set prior there would label a large fraction of
        # all pairs as matches and destroy the synthetic dataset's sparsity,
        # so labeling uses the same GMMs with the all-pairs prior.
        pi_all = len(real.matches) / max(1, len(real.table_a) * len(real.table_b))
        self.o_labeling = PairDistribution(
            float(np.clip(pi_all, 1e-9, 1 - 1e-9)),
            self.o_real.match_distribution,
            self.o_real.non_match_distribution,
        )
        # S2 creates one labeled edge per synthesized entity, so the fraction
        # of *match* edges controls the synthetic dataset's match density.
        # |M_real| matches spread over n_a + n_b - 1 synthesis steps is the
        # rate that reproduces the real density (each sampled match edge,
        # plus transitive cluster closures found in S3, contributes to
        # M_syn).  Capped below 0.6 so match chains cannot blow up clusters.
        self.match_edge_rate = float(
            np.clip(
                len(real.matches) / max(1, len(real.table_a) + len(real.table_b) - 1),
                1e-6,
                0.6,
            )
        )
        # Plausibility floor for rejection: real labeled vectors define what
        # "follows the O-distribution" means; anything far less likely than
        # the least likely real vectors is rejected (see SERDConfig).
        real_vectors = np.vstack([x_match, x_non_match])
        plausibility = self.o_real.plausibility(real_vectors)
        self.plausibility_floor = float(
            np.quantile(plausibility, self.config.plausibility_quantile)
            - self.config.plausibility_margin
        )
        self.health.mark("s1", COMPLETED, time.perf_counter() - stage_started)
        self._commit_stage(
            checkpointer,
            "s1",
            {
                "o_real": self.o_real.to_dict(),
                "o_labeling_match_probability": self.o_labeling.match_probability,
                "match_edge_rate": self.match_edge_rate,
                "plausibility_floor": self.plausibility_floor,
            },
            record,
        )

    def _fit_stage_text(
        self, real: ERDataset, checkpointer: StageCheckpointer | None
    ) -> None:
        """Text backends, one per text column (Section VI), with graceful
        degradation transformer → rules on repeated training divergence."""
        record = self.health.stage("text")
        stage_started = time.perf_counter()
        text_columns = [a.name for a in real.schema.text_attributes]
        payload = (
            checkpointer.load_or_none("text") if checkpointer is not None else None
        )
        if payload is not None:
            try:
                self._text_backends = {}
                for column in text_columns:
                    kind = payload["backends"][column]
                    if kind == "transformer":
                        backend = TransformerTextSynthesizer(
                            self._transformer_config()
                        )
                        backend.load(
                            checkpointer.stage_dir("text") / f"column_{column}"
                        )
                    else:
                        backend = self._rule_backend(column)
                    self._text_backends[column] = backend
                self._restore_stage_record(record, payload)
                restore_rng(self.rng, payload["rng_state"])
                self.health.mark(
                    "text", RESUMED, time.perf_counter() - stage_started
                )
                return
            except CorruptArtifactError as error:
                # A backend blob under stage_text/ failed verification (the
                # file is already quarantined): drop the stage and retrain.
                warnings.warn(
                    f"text-stage checkpoint blob corrupt ({error.reason}); "
                    "re-training the text backends",
                    RuntimeWarning,
                    stacklevel=2,
                )
                checkpointer.clear("text")
                self._text_backends = {}
        record.status = RUNNING

        self._text_backends = {}
        kinds: dict[str, str] = {}
        degraded = False
        for column in text_columns:
            if self.config.text_backend == "transformer":
                backend = self._train_transformer_backend(column, record)
            else:
                backend = self._rule_backend(column)
            if isinstance(backend, TransformerTextSynthesizer):
                kinds[column] = "transformer"
                if checkpointer is not None:
                    backend.save(checkpointer.stage_dir("text") / f"column_{column}")
            else:
                kinds[column] = "rule"
                degraded = degraded or self.config.text_backend == "transformer"
            self._text_backends[column] = backend
        status = DEGRADED if degraded else COMPLETED
        self.health.mark("text", status, time.perf_counter() - stage_started)
        self._commit_stage(checkpointer, "text", {"backends": kinds}, record)

    def _rule_backend(self, column: str) -> RuleTextSynthesizer:
        return RuleTextSynthesizer(
            self._background[column],
            tolerance=self.config.rule_tolerance,
            max_steps=self.config.rule_max_steps,
        )

    def _train_transformer_backend(
        self, column: str, record: StageHealth
    ) -> TextSynthesizer:
        """Train the DP transformer for ``column``; degrade to the rule
        backend when training diverges past the numeric guard's budget."""
        corpus = self._background[column]
        backend = TransformerTextSynthesizer(self._transformer_config())
        try:
            backend.fit(corpus, self.rng)
        except DivergenceError as error:
            if not self.config.degrade_text_on_divergence:
                raise
            for key, value in backend.health.items():
                record.increment(key, value)
            record.increment("degradations")
            record.note(
                f"column {column!r}: transformer training diverged "
                f"({error}); degraded to RuleTextSynthesizer"
            )
            return self._rule_backend(column)
        for key, value in backend.health.items():
            record.increment(key, value)
        return backend

    def _fit_stage_gan(
        self,
        real: ERDataset,
        checkpointer: StageCheckpointer | None,
        train_gan: bool,
    ) -> None:
        """GAN for cold start + rejection Case 1 (Section IV-B2 / V), with
        graceful degradation GAN-on → GAN-off on repeated divergence."""
        record = self.health.stage("gan")
        stage_started = time.perf_counter()
        payload = (
            checkpointer.load_or_none("gan") if checkpointer is not None else None
        )
        if payload is not None:
            try:
                if payload["trained"]:
                    # The encoder must be fitted before TabularGAN sizes its
                    # networks; fitting is deterministic and cheap, and load()
                    # then swaps in the exact encoder state that was saved.
                    encoder = EntityEncoder(real.schema).fit(
                        [real.table_a, real.table_b], text_pools=self._background
                    )
                    self.gan = TabularGAN(
                        encoder, self.config.gan, seed=self.config.seed + 1
                    )
                    self.gan.load(checkpointer.stage_dir("gan"))
                else:
                    self.gan = None
                self._restore_stage_record(record, payload)
                restore_rng(self.rng, payload["rng_state"])
                self.health.mark(
                    "gan", RESUMED, time.perf_counter() - stage_started
                )
                return
            except CorruptArtifactError as error:
                warnings.warn(
                    f"gan-stage checkpoint blob corrupt ({error.reason}); "
                    "re-training the GAN",
                    RuntimeWarning,
                    stacklevel=2,
                )
                checkpointer.clear("gan")
                self.gan = None
        record.status = RUNNING

        self.gan = None
        status = COMPLETED
        if train_gan:
            encoder = EntityEncoder(real.schema).fit(
                [real.table_a, real.table_b], text_pools=self._background
            )
            gan = TabularGAN(encoder, self.config.gan, seed=self.config.seed + 1)
            try:
                gan.fit(list(real.table_a) + list(real.table_b))
                self.gan = gan
            except DivergenceError as error:
                if not self.config.degrade_gan_on_divergence:
                    raise
                record.increment("degradations")
                record.note(
                    f"GAN training diverged ({error}); continuing without a "
                    "GAN — per-column cold start, discriminator rejection off"
                )
                status = DEGRADED
            for key, value in gan.health.items():
                record.increment(key, value)
            if self.gan is not None and checkpointer is not None:
                self.gan.save(checkpointer.stage_dir("gan"))
        self.health.mark("gan", status, time.perf_counter() - stage_started)
        self._commit_stage(
            checkpointer, "gan", {"trained": self.gan is not None}, record
        )

    def _transformer_config(self):
        import dataclasses

        return dataclasses.replace(
            self.config.transformer,
            n_buckets=self.config.n_similarity_buckets,
            n_candidates=self.config.n_text_candidates,
            dp=self.config.dp,
        )

    def _resolve_background(
        self, real: ERDataset, background: dict[str, list[str]] | None
    ) -> dict[str, list[str]]:
        text_columns = [a.name for a in real.schema.text_attributes]
        if not text_columns:
            return {}
        if background is None:
            from repro.datasets.loaders import load_background

            try:
                background = load_background(
                    real.name, size=self.config.background_size,
                    seed=self.config.seed + 17,
                )
            except KeyError:
                raise ValueError(
                    f"dataset {real.name!r} is not in the registry; pass "
                    "background={column: strings} for its text columns"
                ) from None
        missing = [c for c in text_columns if not background.get(c)]
        if missing:
            raise ValueError(f"background data missing for text columns: {missing}")
        return {c: list(background[c]) for c in text_columns}

    @staticmethod
    def _collect_categorical_values(real: ERDataset) -> dict[str, dict[str, list]]:
        """Per-side categorical pools (see :class:`EntityFactory`)."""
        values: dict[str, dict[str, list]] = {"a": {}, "b": {}}
        for attr in real.schema:
            if attr.attr_type != AttributeType.CATEGORICAL:
                continue
            for side, table in (("a", real.table_a), ("b", real.table_b)):
                values[side][attr.name] = table.distinct_values(attr.name)
        return values

    # ------------------------------------------------------------------
    # The shareable artifact (paper Fig. 2, input 1)
    # ------------------------------------------------------------------
    def export_distributions(self, path: str | os.PathLike) -> None:
        """Write the learned similarity-vector distributions to JSON.

        This is exactly the artifact the paper's privacy argument allows a
        data owner to share (Fig. 2): the M/N GMMs, the priors and the
        numeric ranges — but no entities.  ``load_exported_distributions``
        reads it back.  The write is atomic (tmp file + ``os.replace``), so
        a crash mid-export never leaves a truncated artifact behind.
        """
        if self.o_real is None:
            raise RuntimeError("synthesizer is not fitted; call fit() first")
        payload = {
            "o_real": self.o_real.to_dict(),
            "o_labeling_match_probability": self.o_labeling.match_probability,
            "match_edge_rate": self.match_edge_rate,
            "plausibility_floor": self.plausibility_floor,
            "ranges": {k: list(v) for k, v in self.similarity_model.ranges.items()},
            "schema": [
                {"name": a.name, "type": a.attr_type.value}
                for a in self.similarity_model.schema
            ],
        }
        atomic_write_json(path, payload, indent=2)

    # ------------------------------------------------------------------
    # S2 + S3 (online phase)
    # ------------------------------------------------------------------
    def synthesize(
        self,
        n_a: int | None = None,
        n_b: int | None = None,
        *,
        checkpoint_dir: str | os.PathLike | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> SynthesisOutput:
        """Run the iterative synthesis loop and label all pairs.

        Default sizes are the real tables' sizes (problem statement,
        Section II-D).  With ``checkpoint_dir``, the S2 loop commits a
        progress checkpoint (partial entity pools, sampled edges, the live
        O_syn tracker and the RNG position) every
        ``config.checkpoint_every`` accepted entities; an interrupted
        synthesis resumes from the last checkpoint and produces the same
        dataset an uninterrupted run would have.

        ``stop`` is a cooperative cancellation predicate polled once per
        synthesis slot.  When it trips, the loop commits a progress
        checkpoint *first* (if a checkpoint directory is in use) and then
        raises :class:`~repro.runtime.cancellation.SynthesisInterrupted` —
        the graceful-shutdown path used by the CLI's SIGTERM handler and
        the service workers' drain.
        """
        if self.o_real is None or self.factory is None or self._real is None:
            raise RuntimeError("synthesizer is not fitted; call fit() first")
        started = time.perf_counter()
        real = self._real
        n_a = n_a if n_a is not None else len(real.table_a)
        n_b = n_b if n_b is not None else len(real.table_b)
        if n_a < 1 or n_b < 1:
            raise ValueError("both synthetic tables need at least one entity")
        checkpointer = (
            StageCheckpointer(checkpoint_dir) if checkpoint_dir is not None else None
        )
        spec = plan_shards(n_a, n_b, 1, self.config.seed)[0]
        run = self._run_s2_shard(
            spec, rng=self.rng, checkpointer=checkpointer, stop=stop
        )
        return self._assemble(
            [run], n_a, n_b, checkpointer=checkpointer, started=started
        )

    def synthesize_sharded(
        self,
        n_a: int | None = None,
        n_b: int | None = None,
        *,
        n_shards: int = 1,
        checkpoint_dir: str | os.PathLike | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> SynthesisOutput:
        """Run S2 as a sequence of shards, then merge and label.

        The in-process coordinator: the target sizes are split by
        :func:`~repro.core.sharding.plan_shards`, each shard runs the S2
        loop on its own RNG stream, completed shards feed their merged
        O_syn drift forward to later shards (the same steering signal the
        distributed coordinator broadcasts), and the merged pools go
        through one S3 labeling pass.  Shards execute sequentially here —
        the run is fully deterministic and resumable — while the service
        path (``repro submit --shards N``) fans the same shard jobs out
        across the worker pool.

        With ``n_shards=1`` this *is* :meth:`synthesize` — same RNG
        stream, same entity ids, bit-identical output.

        With ``checkpoint_dir``, each completed shard commits a
        ``s2_shard<k>_result`` stage and an in-flight shard checkpoints
        progress as ``s2_progress_shard<k>``; resuming skips completed
        shards entirely and continues the interrupted one mid-loop.
        """
        if self.o_real is None or self.factory is None or self._real is None:
            raise RuntimeError("synthesizer is not fitted; call fit() first")
        started = time.perf_counter()
        real = self._real
        n_a = n_a if n_a is not None else len(real.table_a)
        n_b = n_b if n_b is not None else len(real.table_b)
        if n_a < 1 or n_b < 1:
            raise ValueError("both synthetic tables need at least one entity")
        plan = plan_shards(n_a, n_b, n_shards, self.config.seed)
        checkpointer = (
            StageCheckpointer(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if len(plan) == 1:
            run = self._run_s2_shard(
                plan[0], rng=self.rng, checkpointer=checkpointer, stop=stop
            )
            return self._assemble(
                [run], n_a, n_b, checkpointer=checkpointer, started=started
            )
        runs: list[ShardRun] = []
        for spec in plan:
            result_stage = f"s2_shard{spec.index}_result"
            # A corrupt shard-result checkpoint quarantines and falls
            # through to re-running the shard (load_or_none policy).
            if checkpointer is not None:
                payload = checkpointer.load_or_none(result_stage)
                if payload is not None:
                    runs.append(ShardRun.from_payload(payload, real.schema))
                    continue
            run = self._run_s2_shard(
                spec,
                rng=shard_rng(spec),
                checkpointer=checkpointer,
                stage=f"s2_progress_shard{spec.index}",
                stop=stop,
                peer_feedback=self._peer_feedback(runs),
                record_name=f"s2_synthesis_shard{spec.index}",
            )
            if checkpointer is not None:
                checkpointer.commit(result_stage, run.to_payload())
            runs.append(run)
        return self._assemble(
            runs, n_a, n_b, checkpointer=checkpointer, started=started
        )

    def synthesize_shard(
        self,
        spec: ShardSpec,
        *,
        checkpoint_dir: str | os.PathLike | None = None,
        stop: Callable[[], bool] | None = None,
        bus: ShardStatsBus | None = None,
        peer_feedback: tuple[float, int] | None = None,
    ) -> ShardRun:
        """Run the S2 loop for one shard only (no S3, no dataset assembly).

        This is the unit of work a shard *worker* executes: the shard's RNG
        stream is derived from its spec (single-shard specs reuse the master
        RNG, preserving sequential bit-identity), progress checkpoints go to
        ``checkpoint_dir`` under the standard ``s2_progress`` stage, and
        ``bus`` — when given — carries the periodic O_syn publish/steer
        exchange with the coordinator.
        """
        if self.o_real is None or self.factory is None or self._real is None:
            raise RuntimeError("synthesizer is not fitted; call fit() first")
        rng = self.rng if spec.n_shards == 1 else shard_rng(spec)
        checkpointer = (
            StageCheckpointer(checkpoint_dir) if checkpoint_dir is not None else None
        )
        return self._run_s2_shard(
            spec,
            rng=rng,
            checkpointer=checkpointer,
            stop=stop,
            bus=bus,
            peer_feedback=peer_feedback,
        )

    def assemble_shard_runs(
        self,
        runs: list[ShardRun],
        n_a: int,
        n_b: int,
        *,
        checkpoint_dir: str | os.PathLike | None = None,
    ) -> SynthesisOutput:
        """Merge completed shard runs into the final labeled dataset (S3).

        The coordinator's second half: concatenates the shard entity pools
        (shard order, so the merge is deterministic), runs the streaming S3
        labeling pass over the merged tables, and computes the final JSD
        from the *merged* O_syn.  ``online_seconds`` covers only assembly;
        per-shard loop timings live in each run.
        """
        if self.o_real is None or self._real is None:
            raise RuntimeError("synthesizer is not fitted; call fit() first")
        checkpointer = (
            StageCheckpointer(checkpoint_dir) if checkpoint_dir is not None else None
        )
        return self._assemble(
            runs, n_a, n_b, checkpointer=checkpointer, started=time.perf_counter()
        )

    def _peer_feedback(self, runs: list[ShardRun]) -> tuple[float, int] | None:
        """Steering signal for the next shard: merged drift of finished ones."""
        if not runs:
            return None
        states = [run.tracker_state for run in runs]
        merged = merged_o_syn(states)
        if merged is None:
            return None
        jsd = pair_distribution_jsd(
            merged, self.o_labeling,
            seed=self.config.seed + 23, n_samples=self.config.jsd_samples,
        )
        n_pairs = sum(int(s["n_pos"]) + int(s["n_neg"]) for s in states)
        return jsd, n_pairs

    def _run_s2_shard(
        self,
        spec: ShardSpec,
        *,
        rng: np.random.Generator,
        checkpointer: StageCheckpointer | None = None,
        stage: str = "s2_progress",
        stop: Callable[[], bool] | None = None,
        bus: ShardStatsBus | None = None,
        peer_feedback: tuple[float, int] | None = None,
        record_name: str = "s2_synthesis",
    ) -> ShardRun:
        """The S2 loop over one shard's slice of the target sizes.

        This is the sequential loop, verbatim, parameterized by the shard's
        RNG stream, id namespace, checkpoint stage and steering inputs — a
        single-shard spec with the master RNG reproduces the pre-shard loop
        bit for bit.  Peer feedback is applied only at loop start and at
        checkpoint boundaries, and the active value is recorded in every
        progress payload, so a killed shard resumes with exactly the
        steering signal it was using — that is what keeps crash/resume
        bit-identical even though the signal itself evolves.
        """
        started = time.perf_counter()
        real = self._real
        n_a, n_b = spec.n_a, spec.n_b
        prefix = spec.id_prefix
        record = self.health.stage(record_name)
        record.status = RUNNING

        # Rejection and S3 labeling both score *cross* pairs, so they use the
        # all-pairs prior (see fit()); S2 sampling keeps the labeled-set pi.
        tracker = DistributionTracker(self.o_labeling, self.config, rng)
        policy = RejectionPolicy(
            self.config, tracker,
            self.gan if self.config.reject_entities else None,
            jsd_seed=self.config.seed + 23,
            plausibility_floor=self.plausibility_floor,
        )
        if peer_feedback is not None:
            policy.set_peer_feedback(peer_feedback[0], peer_feedback[1])

        a_entities: list[Entity] = []
        b_entities: list[Entity] = []
        sampled_matches: list[Pair] = []
        sampled_non_matches: list[Pair] = []
        counter_a, counter_b = 1, 0
        matched_ids: set[str] = set()

        progress = None
        if checkpointer is not None:
            # Corrupt S2 progress quarantines and restarts the shard from
            # entity zero — slower, never wrong.
            progress = checkpointer.load_or_none(stage)
        if progress is not None:
            if progress["n_a"] != n_a or progress["n_b"] != n_b:
                raise ValueError(
                    "s2 progress checkpoint was taken for sizes "
                    f"({progress['n_a']}, {progress['n_b']}); refusing to "
                    f"resume with ({n_a}, {n_b})"
                )
        if progress is not None:
            a_entities = self._entities_from_payload(progress["a_entities"], real)
            b_entities = self._entities_from_payload(progress["b_entities"], real)
            sampled_matches = [tuple(p) for p in progress["sampled_matches"]]
            sampled_non_matches = [tuple(p) for p in progress["sampled_non_matches"]]
            counter_a = int(progress["counter_a"])
            counter_b = int(progress["counter_b"])
            matched_ids = set(progress["matched_ids"])
            tracker.restore(progress["tracker"])
            policy.stats.update(
                {k: int(v) for k, v in progress["rejection_stats"].items()}
            )
            if progress.get("peer_jsd") is not None:
                policy.set_peer_feedback(
                    progress["peer_jsd"], int(progress.get("peer_pairs", 0))
                )
            restore_rng(rng, progress["rng_state"])
            record.increment("resumed_entities", len(a_entities) + len(b_entities))
        else:
            # Cold start: the first A-entity.
            a_entities.append(
                cold_start_entity(
                    real.schema,
                    self.similarity_model.ranges,
                    self._categorical_values["a"],
                    self._background,
                    rng,
                    entity_id=f"{prefix}a0",
                    gan=self.gan,
                )
            )

        warned_fallback = False
        accepted_since_checkpoint = 0
        # Memory degradation ladder (see repro.runtime.resources): the
        # governor classifies pressure at checkpoint boundaries; the shift
        # is deliberately *per-run* local state, so one pathological job
        # cannot permanently shrink the chunk size for every later job in
        # this worker process.  Checkpoint cadence never consumes RNG, so
        # downshifting keeps the output bit-identical.
        governor = resources.installed()
        chunk_shift = 0
        while len(a_entities) < n_a or len(b_entities) < n_b:
            if stop is not None and stop():
                if checkpointer is not None:
                    checkpointer.commit(
                        stage,
                        self._s2_progress_payload(
                            n_a, n_b, a_entities, b_entities,
                            sampled_matches, sampled_non_matches,
                            counter_a, counter_b, matched_ids, tracker, policy,
                            rng,
                        ),
                    )
                raise SynthesisInterrupted(
                    record_name, checkpointed=checkpointer is not None
                )
            checkpoint_every = max(
                resources.MIN_CHUNK, self.config.checkpoint_every >> chunk_shift
            )
            if (
                accepted_since_checkpoint >= checkpoint_every
                and (checkpointer is not None or bus is not None)
            ):
                if bus is not None:
                    self._sync_shard_bus(bus, spec, tracker, policy, done=False)
                if checkpointer is not None:
                    checkpointer.commit(
                        stage,
                        self._s2_progress_payload(
                            n_a, n_b, a_entities, b_entities,
                            sampled_matches, sampled_non_matches,
                            counter_a, counter_b, matched_ids, tracker, policy,
                            rng,
                        ),
                    )
                accepted_since_checkpoint = 0
                if governor is not None:
                    level = governor.sample_memory(
                        entities=len(a_entities) + len(b_entities)
                    )
                    if level != "ok":
                        step = 1 if level == "soft" else 2
                        if (
                            level == "hard"
                            and chunk_shift >= governor.budget.max_downshifts
                        ):
                            # Shrinking can't absorb it.  The checkpoint just
                            # committed, so checkpoint-and-release (the
                            # worker's mapping for this error) resumes the
                            # job elsewhere without losing progress.
                            raise resources.ResourceExhausted(
                                "memory",
                                "memory budget breached after "
                                f"{chunk_shift} downshift(s): observed "
                                f"{governor.peak_observed_mb():.0f} MB vs "
                                f"budget {governor.budget.memory_budget_mb} MB",
                                budget_mb=governor.budget.memory_budget_mb,
                                observed_mb=governor.peak_observed_mb(),
                            )
                        new_shift = min(
                            chunk_shift + step, governor.budget.max_downshifts
                        )
                        if new_shift > chunk_shift:
                            chunk_shift = new_shift
                            resources.count_event("chunk_downshifts")
            faults.maybe_interrupt("synthesize.step")
            faults.maybe_stall("synthesize.stall")

            # S2-2 (label part): decide match vs non-match at the match-edge
            # rate (see fit()).
            is_match = bool(rng.random() < self.match_edge_rate)

            # S2-1: sample e from the union, restricted to sides whose
            # opposite table still needs entities (Section III, Remark 1).
            # For a match edge, prefer anchors with no match yet so the
            # synthetic matching stays (near) one-to-one like real data.
            sources: list[tuple[str, list[Entity]]] = []
            if len(b_entities) < n_b and a_entities:
                sources.append(("a", a_entities))
            if len(a_entities) < n_a and b_entities:
                sources.append(("b", b_entities))
            if not sources:  # pragma: no cover - loop condition guards this
                break
            if is_match and self.config.one_to_one_matches:
                filtered = [
                    (side, [e for e in pool if e.entity_id not in matched_ids])
                    for side, pool in sources
                ]
                filtered = [(side, pool) for side, pool in filtered if pool]
                if filtered:
                    sources = filtered
                else:
                    is_match = False
            weights = np.array([len(pool) for _, pool in sources], dtype=float)
            side, pool = sources[
                int(rng.choice(len(sources), p=weights / weights.sum()))
            ]
            anchor = pool[int(rng.integers(len(pool)))]

            # S2-2 (vector part): sample the similarity vector from O_real.
            source = (
                self.o_real.match_distribution
                if is_match
                else self.o_real.non_match_distribution
            )
            vector = np.clip(source.sample(1, rng)[0], 0.0, 1.0)

            # S2-3 with rejection (Section V): retry until accepted.
            if side == "a":
                new_id, new_side = f"{prefix}b{counter_b}", "b"
            else:
                new_id, new_side = f"{prefix}a{counter_a}", "a"
            accepted_entity, delta, is_fallback = self._synthesize_with_rejection(
                anchor, vector, new_id, new_side, pool, policy, is_match, rng
            )
            if is_fallback:
                policy.record_fallback()
                if (
                    not warned_fallback
                    and policy.stats["accepted"] + policy.stats["fallback_accepted"]
                    >= self.config.fallback_warn_min
                    and policy.fallback_rate > self.config.fallback_warn_threshold
                ):
                    warned_fallback = True
                    warnings.warn(
                        f"rejection livelock: {policy.stats['fallback_accepted']} "
                        f"of {policy.stats['accepted'] + policy.stats['fallback_accepted']} "
                        "synthesis slots exhausted their retries and accepted "
                        "the least-drifting candidate anyway "
                        f"(rate {policy.fallback_rate:.2f} > "
                        f"{self.config.fallback_warn_threshold}); the synthetic "
                        "entities may be drifting from O_real — consider "
                        "relaxing alpha/beta or raising max_rejection_retries",
                        RuntimeWarning,
                        stacklevel=2,
                    )

            # S2-4: add to the right table and record the sampled label.
            if side == "a":
                b_entities.append(accepted_entity)
                counter_b += 1
                pair = (anchor.entity_id, accepted_entity.entity_id)
            else:
                a_entities.append(accepted_entity)
                counter_a += 1
                pair = (accepted_entity.entity_id, anchor.entity_id)
            if is_match:
                sampled_matches.append(pair)
                matched_ids.add(anchor.entity_id)
                matched_ids.add(accepted_entity.entity_id)
            else:
                sampled_non_matches.append(pair)
            policy.commit(delta)
            accepted_since_checkpoint += 1

        if checkpointer is not None:
            # The loop finished; the progress checkpoint is consumed.
            checkpointer.clear(stage)
        if bus is not None:
            self._sync_shard_bus(bus, spec, tracker, policy, done=True)

        for key, value in policy.stats.items():
            record.increment(key, value)
        elapsed = time.perf_counter() - started
        self.health.mark(record_name, COMPLETED, elapsed)
        return ShardRun(
            spec=spec,
            a_entities=a_entities,
            b_entities=b_entities,
            sampled_matches=sampled_matches,
            sampled_non_matches=sampled_non_matches,
            rejection_stats=dict(policy.stats),
            tracker_state=tracker.to_dict(),
            elapsed_seconds=elapsed,
            peak_rss_kb=int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        )

    def _sync_shard_bus(
        self,
        bus: ShardStatsBus,
        spec: ShardSpec,
        tracker: DistributionTracker,
        policy: RejectionPolicy,
        *,
        done: bool,
    ) -> None:
        """One publish/steer exchange with the coordinator's stats bus.

        Reads the coordinator's latest per-shard feedback (the merged drift
        of this shard's *peers*) and publishes this shard's live O_syn
        statistics.  Called only at checkpoint boundaries so the applied
        feedback is always the one recorded in the next progress payload.
        """
        feedback = bus.read_global()
        if feedback is not None:
            entry = feedback.get("shard_feedback", {}).get(str(spec.index))
            if entry is not None and entry.get("jsd") is not None:
                policy.set_peer_feedback(
                    float(entry["jsd"]), int(entry.get("n_pairs", 0))
                )
        bus.publish_shard(
            spec.index,
            {
                "tracker": tracker.to_dict(),
                "n_pos": tracker.n_pos,
                "n_neg": tracker.n_neg,
                "done": done,
            },
        )

    def _assemble(
        self,
        runs: list[ShardRun],
        n_a: int,
        n_b: int,
        *,
        checkpointer: StageCheckpointer | None,
        started: float,
    ) -> SynthesisOutput:
        """Merge shard runs, run S3 over the merged tables, build the output."""
        real = self._real
        a_entities = [e for run in runs for e in run.a_entities]
        b_entities = [e for run in runs for e in run.b_entities]
        sampled_matches = [p for run in runs for p in run.sampled_matches]
        sampled_non_matches = [p for run in runs for p in run.sampled_non_matches]
        rejection_stats: dict[str, int] = {}
        for run in runs:
            for key, value in run.rejection_stats.items():
                rejection_stats[key] = rejection_stats.get(key, 0) + int(value)

        table_a = Relation(f"{real.name}_syn_a", real.schema, a_entities)
        table_b = Relation(f"{real.name}_syn_b", real.schema, b_entities)

        # S3: label all remaining pairs by posterior (Section IV-C).
        labeling_started = time.perf_counter()
        labeling_record = self.health.stage("s3_labeling")
        labeling_record.status = RUNNING
        matches = list(sampled_matches)
        n_labeled = 0
        if self.config.label_all_pairs:
            known = set(sampled_matches) | set(sampled_non_matches)
            # Budget extra matches so the synthetic match density tracks the
            # real one: pi_all * n_a * n_b total, minus the sampled edges.
            expected_total = int(
                round(self.o_labeling.match_probability * n_a * n_b)
            )
            budget = max(0, expected_total - len(sampled_matches))
            blocker = None
            if self.config.use_blocking_for_labeling and any(
                attr.attr_type.is_string_like for attr in real.schema
            ):
                from repro.similarity.candidates import TokenBlocker

                blocker = TokenBlocker(real.schema)
            extra_matches, n_labeled = label_all_pairs(
                table_a, table_b, known, self.o_labeling, self.similarity_model,
                batch_size=resources.effective_label_batch(
                    self.config.labeling_chunk_size
                ),
                max_matches=budget, blocker=blocker,
            )
            matches.extend(extra_matches)
        labeling_record.increment("posterior_labeled", n_labeled)
        self.health.mark(
            "s3_labeling", COMPLETED, time.perf_counter() - labeling_started
        )

        dataset = ERDataset(
            table_a, table_b, matches,
            non_matches=sampled_non_matches,
            name=f"{real.name}_syn",
        )
        jsd_final = None
        merged = merged_o_syn([run.tracker_state for run in runs])
        if merged is not None:
            jsd_final = pair_distribution_jsd(
                merged, self.o_labeling,
                seed=self.config.seed + 23, n_samples=self.config.jsd_samples,
            )
        epsilon = None
        if self.config.text_backend == "transformer" and self.config.dp is not None:
            epsilons = [
                backend.epsilon()
                for backend in self._text_backends.values()
                if isinstance(backend, TransformerTextSynthesizer)
            ]
            epsilons = [e for e in epsilons if e is not None]
            if epsilons:
                epsilon = float(sum(epsilons))  # sequential composition
        health_payload = self.health.to_dict()
        governor = resources.installed()
        if governor is not None:
            health_payload["resources"] = {
                **governor.snapshot(),
                "counters": resources.counters(),
            }
        if checkpointer is not None:
            atomic_write_json(
                checkpointer.directory / "health.json", health_payload, indent=2
            )
        extras = {}
        if len(runs) > 1:
            extras["shards"] = [
                {
                    "index": run.spec.index,
                    "n_a": run.spec.n_a,
                    "n_b": run.spec.n_b,
                    "elapsed_seconds": run.elapsed_seconds,
                    "peak_rss_kb": run.peak_rss_kb,
                }
                for run in runs
            ]
        return SynthesisOutput(
            dataset=dataset,
            o_real=self.o_real,
            rejection_stats=rejection_stats,
            n_sampled_matches=len(sampled_matches),
            n_sampled_non_matches=len(sampled_non_matches),
            n_posterior_labeled=n_labeled,
            jsd_final=jsd_final,
            offline_seconds=self.offline_seconds,
            online_seconds=time.perf_counter() - started,
            epsilon=epsilon,
            extras=extras,
            health=health_payload,
        )

    # ------------------------------------------------------------------
    # S2 progress serialization
    # ------------------------------------------------------------------
    @staticmethod
    def _entities_to_payload(entities: list[Entity]) -> list:
        return [[e.entity_id, list(e.values)] for e in entities]

    @staticmethod
    def _entities_from_payload(payload: list, real: ERDataset) -> list[Entity]:
        return [
            Entity(entity_id, real.schema, values) for entity_id, values in payload
        ]

    def _s2_progress_payload(
        self,
        n_a: int,
        n_b: int,
        a_entities: list[Entity],
        b_entities: list[Entity],
        sampled_matches: list[Pair],
        sampled_non_matches: list[Pair],
        counter_a: int,
        counter_b: int,
        matched_ids: set[str],
        tracker: DistributionTracker,
        policy: RejectionPolicy,
        rng: np.random.Generator,
    ) -> dict:
        return {
            "n_a": n_a,
            "n_b": n_b,
            "a_entities": self._entities_to_payload(a_entities),
            "b_entities": self._entities_to_payload(b_entities),
            "sampled_matches": [list(p) for p in sampled_matches],
            "sampled_non_matches": [list(p) for p in sampled_non_matches],
            "counter_a": counter_a,
            "counter_b": counter_b,
            "matched_ids": sorted(matched_ids),
            "tracker": tracker.to_dict(),
            "rejection_stats": dict(policy.stats),
            # The steering signal in force when this checkpoint was cut: a
            # resumed shard re-applies it so the resumed loop replays the
            # same Eq. 10 decisions the killed one would have made.
            "peer_jsd": policy.peer_jsd,
            "peer_pairs": policy.peer_pairs,
            "rng_state": rng_state(rng),
        }

    def _synthesize_with_rejection(
        self,
        anchor: Entity,
        vector: np.ndarray,
        new_id: str,
        new_side: str,
        anchor_table: list[Entity],
        policy: RejectionPolicy,
        is_match: bool,
        rng: np.random.Generator,
    ) -> tuple[Entity, np.ndarray, bool]:
        """S2-3 + Section V: synthesize, evaluate, retry; returns the entity,
        its committed ``Delta X_syn`` vectors, and whether the slot fell back
        to its least-bad candidate because every retry was rejected."""
        best: tuple[Entity, np.ndarray] | None = None
        best_key: tuple[float, float] = (np.inf, np.inf)
        for _ in range(self.config.max_rejection_retries):
            candidate = self.factory.synthesize_entity(
                anchor, vector, new_id, rng, side=new_side
            )
            delta = self._delta_vectors(candidate, anchor, anchor_table, rng)
            decision = policy.evaluate(
                candidate, delta, expected_match=is_match, target_vector=vector
            )
            if decision.accepted:
                return candidate, delta, False
            # Rank rejected candidates: lowest distribution drift first,
            # then highest discriminator score.
            key = (
                decision.jsd_candidate if decision.jsd_candidate is not None else np.inf,
                -(decision.discriminator_score or 0.0),
            )
            if best is None or key < best_key:
                best, best_key = (candidate, delta), key
        # Retries exhausted: accept the least-drifting candidate seen (the
        # paper notes rejection can always be relaxed via alpha/beta; the
        # cap keeps synthesis from livelocking).  The caller counts these
        # fallbacks and warns when their rate crosses the configured
        # threshold — silently absorbing them hides distribution drift.
        assert best is not None
        return best[0], best[1], True

    def _delta_vectors(
        self,
        candidate: Entity,
        anchor: Entity,
        anchor_table: list[Entity],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``Delta X_syn``: candidate vs (a sample of) the anchor's table.

        Always includes the anchor pair itself; other entities are sampled up
        to ``delta_sample_size`` (Section V, Remark 1).
        """
        others = [e for e in anchor_table if e.entity_id != anchor.entity_id]
        budget = max(0, self.config.delta_sample_size - 1)
        if len(others) > budget:
            picks = rng.choice(len(others), size=budget, replace=False)
            others = [others[int(i)] for i in picks]
        partners = [anchor] + others
        return self.similarity_model.one_vs_many(candidate, partners)
