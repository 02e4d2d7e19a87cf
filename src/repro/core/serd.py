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
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.cold_start import cold_start_entity
from repro.core.config import SERDConfig
from repro.core.labeling import LABEL_BATCH, label_all_pairs
from repro.core.rejection import (
    MAX_GMM_COMPONENTS,
    DistributionTracker,
    RejectionPolicy,
)
from repro.core.sharding import (
    JSD_STREAM,
    ShardPools,
    ShardRun,
    ShardSpec,
    merged_o_syn,
    o_syn_drift,
    plan_shards,
    shard_rng,
)
from repro.core.synthesis import EntityFactory
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
from repro.schema.dataset import ERDataset
from repro.schema.entity import Entity, Relation
from repro.schema.types import AttributeType
from repro.similarity.vector import SimilarityModel
from repro.textgen.backend import TextSynthesizer
from repro.textgen.rules import RuleTextSynthesizer
from repro.textgen.transformer_backend import (
    TransformerTextSynthesizer,
    TransformerTextSynthesizerConfig,
)


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
    # The merged synthetic O-distribution that jsd_final scores; None when
    # no shard bootstrapped its O_syn.
    o_syn: PairDistribution | None = None
    extras: dict = field(default_factory=dict)
    # Per-stage health report (repro.runtime.health.HealthReport.to_dict()):
    # retries, NaN rollbacks, EM reseeds, rejection fallbacks, degradations.
    health: dict = field(default_factory=dict)


# Rejection-livelock telemetry: once at least FALLBACK_WARN_MIN slots of a
# run have completed and more than FALLBACK_WARN_THRESHOLD of them were
# retry-exhausted fallbacks (every retry rejected, the least-drifting
# candidate accepted anyway), the run emits one RuntimeWarning — the sign
# that alpha/beta are too strict for the data.
FALLBACK_WARN_THRESHOLD = 0.5
FALLBACK_WARN_MIN = 20

# Plausibility floor of distribution rejection: a candidate is rejected
# when any of its new pair vectors scores below the PLAUSIBILITY_QUANTILE
# quantile of the real labeled vectors' ``max(log p_m, log p_n)`` minus
# PLAUSIBILITY_MARGIN nats.  Eq. 10 guards aggregate drift; this guards
# individual pairs that follow neither distribution.
PLAUSIBILITY_QUANTILE = 0.02
PLAUSIBILITY_MARGIN = 2.0
# Non-matching pairs sampled per matching pair when S1 estimates the
# N-distribution from the real dataset.
NEGATIVE_RATIO = 3.0
# Acceptance band and search budget of the rule text backend.  Like the
# paper's transformer it is an *imperfect* solver of ``f(s, s') = sim``:
# entity rejection (Section V) exists to catch candidates whose achieved
# vectors drift from the sampled ones, and the SERD-vs-SERD- contrast
# hinges on that imperfection.
RULE_TOLERANCE = 0.05
RULE_MAX_STEPS = 12


def _checkpointer(directory: str | os.PathLike | None) -> StageCheckpointer | None:
    return StageCheckpointer(directory) if directory is not None else None


@dataclass(kw_only=True)
class _S2State(ShardPools):
    """One S2 loop's state between slots.

    ``to_payload``/``restore`` are the progress-checkpoint format; the
    cadence fields after ``matched_ids`` are per-run and restart at zero on
    resume (the cadence never consumes RNG, so that keeps resume exact).
    """

    spec: ShardSpec
    rng: np.random.Generator
    tracker: DistributionTracker
    policy: RejectionPolicy
    counter_a: int = 1
    counter_b: int = 0
    matched_ids: set[str] = field(default_factory=set)
    since_checkpoint: int = 0
    chunk_shift: int = 0
    warned_fallback: bool = False

    @property
    def unfinished(self) -> bool:
        return (
            len(self.a_entities) < self.spec.n_a
            or len(self.b_entities) < self.spec.n_b
        )

    def slot_for(self, anchor_side: str) -> tuple[str, str]:
        """``(entity id, side)`` of the entity an anchor on ``anchor_side`` gets."""
        if anchor_side == "a":
            return f"{self.spec.id_prefix}b{self.counter_b}", "b"
        return f"{self.spec.id_prefix}a{self.counter_a}", "a"

    def commit(
        self,
        anchor_side: str,
        anchor: Entity,
        entity: Entity,
        is_match: bool,
        delta: np.ndarray,
    ) -> None:
        """S2-4: add the entity to its table, record the sampled label and
        fold its ``Delta X_syn`` into O_syn."""
        if anchor_side == "a":
            self.b_entities.append(entity)
            self.counter_b += 1
            pair = (anchor.entity_id, entity.entity_id)
        else:
            self.a_entities.append(entity)
            self.counter_a += 1
            pair = (entity.entity_id, anchor.entity_id)
        if is_match:
            self.sampled_matches.append(pair)
            self.matched_ids.add(anchor.entity_id)
            self.matched_ids.add(entity.entity_id)
        else:
            self.sampled_non_matches.append(pair)
        self.policy.commit(delta)
        self.since_checkpoint += 1

    def to_payload(self) -> dict:
        return {
            "n_a": self.spec.n_a,
            "n_b": self.spec.n_b,
            **self.pools_payload(),
            "counter_a": self.counter_a,
            "counter_b": self.counter_b,
            "matched_ids": sorted(self.matched_ids),
            "tracker": self.tracker.to_dict(),
            "rejection_stats": dict(self.policy.stats),
            "rng_state": rng_state(self.rng),
        }

    def restore(self, payload: dict, schema) -> None:
        # Older payloads' peer_jsd/peer_pairs keys (no longer read) are ignored.
        if payload["n_a"] != self.spec.n_a or payload["n_b"] != self.spec.n_b:
            raise ValueError(
                "s2 progress checkpoint was taken for sizes "
                f"({payload['n_a']}, {payload['n_b']}); refusing to "
                f"resume with ({self.spec.n_a}, {self.spec.n_b})"
            )
        for key, value in self.pools_from_payload(payload, schema).items():
            setattr(self, key, value)
        self.counter_a = int(payload["counter_a"])
        self.counter_b = int(payload["counter_b"])
        self.matched_ids = set(payload["matched_ids"])
        self.tracker.restore(payload["tracker"])
        self.policy.stats.update(
            {k: int(v) for k, v in payload["rejection_stats"].items()}
        )
        restore_rng(self.rng, payload["rng_state"])


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
        checkpointer = _checkpointer(checkpoint_dir)
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
        wanted_neg = int(round(NEGATIVE_RATIO * max(1, len(real.matches))))
        from repro.similarity.blocking import mixed_non_matches

        negatives = mixed_non_matches(
            real, self.similarity_model,
            min(wanted_neg, 20 * max(1, len(real.matches))), self.rng,
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
            max_components=MAX_GMM_COMPONENTS,
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
        # the least likely real vectors is rejected (see PLAUSIBILITY_*).
        real_vectors = np.vstack([x_match, x_non_match])
        plausibility = self.o_real.plausibility(real_vectors)
        self.plausibility_floor = float(
            np.quantile(plausibility, PLAUSIBILITY_QUANTILE) - PLAUSIBILITY_MARGIN
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
            tolerance=RULE_TOLERANCE,
            max_steps=RULE_MAX_STEPS,
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

    def _transformer_config(self) -> TransformerTextSynthesizerConfig:
        return replace(self.config.transformer, dp=self.config.dp)

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
    def target_sizes(self, n_a: int | None, n_b: int | None) -> tuple[int, int]:
        """The guard every online entry point shares: the synthesizer is
        fitted, omitted sizes default to the real tables' sizes (problem
        statement, Section II-D), and both sizes are at least one."""
        if self.o_real is None or self.factory is None or self._real is None:
            raise RuntimeError("synthesizer is not fitted; call fit() first")
        n_a = n_a if n_a is not None else len(self._real.table_a)
        n_b = n_b if n_b is not None else len(self._real.table_b)
        if n_a < 1 or n_b < 1:
            raise ValueError("both synthetic tables need at least one entity")
        return n_a, n_b

    def synthesize(
        self,
        n_a: int | None = None,
        n_b: int | None = None,
        *,
        n_shards: int = 1,
        checkpoint_dir: str | os.PathLike | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> SynthesisOutput:
        """Run the iterative synthesis loop (S2) and label all pairs (S3).

        ``n_shards`` splits the target sizes with
        :func:`~repro.core.sharding.plan_shards`; the shards run one after
        another, each on its own RNG stream and against its own O_syn, so
        each shard's result is the one a service worker computes for the
        same spec.  The merged pools go through one S3 pass.  A plan of one
        shard is the unsharded loop on the master RNG.

        With ``checkpoint_dir``, the S2 loop commits a progress checkpoint
        (partial entity pools, sampled edges, the live O_syn tracker and
        the RNG position) every ``config.checkpoint_every`` accepted
        entities, and each finished shard of a multi-shard plan commits an
        ``s2_shard<k>_result`` stage.  An interrupted synthesis resumes from
        the last checkpoint and produces the same dataset an uninterrupted
        run would have.

        ``stop`` is a cooperative cancellation predicate polled once per
        synthesis slot.  When it trips, the loop commits a progress
        checkpoint *first* (if a checkpoint directory is in use) and then
        raises :class:`~repro.runtime.cancellation.SynthesisInterrupted` —
        the graceful-shutdown path used by the CLI's SIGTERM handler and
        the service workers' drain.
        """
        n_a, n_b = self.target_sizes(n_a, n_b)
        started = time.perf_counter()
        checkpointer = _checkpointer(checkpoint_dir)
        plan = plan_shards(n_a, n_b, n_shards, self.config.seed)
        runs: list[ShardRun] = []
        for spec in plan:
            # Shards of one plan share the checkpoint directory, so their
            # stages are suffixed; a lone shard keeps the plain names.
            suffix = f"_shard{spec.index}" if len(plan) > 1 else ""
            result_stage = f"s2{suffix}_result"
            keep_result = bool(suffix) and checkpointer is not None
            # A corrupt shard-result checkpoint quarantines and falls
            # through to re-running the shard (load_or_none policy).
            payload = checkpointer.load_or_none(result_stage) if keep_result else None
            if payload is not None:
                runs.append(ShardRun.from_payload(payload, self._real.schema))
                continue
            run = self._run_s2_shard(
                spec,
                checkpointer=checkpointer,
                stage=f"s2_progress{suffix}",
                stop=stop,
                record_name=f"s2_synthesis{suffix}",
            )
            if keep_result:
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
    ) -> ShardRun:
        """Run the S2 loop for one shard only (no S3, no dataset assembly).

        This is the unit of work a shard *worker* executes: the shard's RNG
        stream is derived from its spec (single-shard specs reuse the master
        RNG), and progress checkpoints go to ``checkpoint_dir`` under the
        standard ``s2_progress`` stage.  The result depends only on the
        model and ``spec``, not on which other shards ran first.
        """
        self.target_sizes(spec.n_a, spec.n_b)
        return self._run_s2_shard(
            spec, checkpointer=_checkpointer(checkpoint_dir), stop=stop
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
        n_a, n_b = self.target_sizes(n_a, n_b)
        return self._assemble(
            runs, n_a, n_b,
            checkpointer=_checkpointer(checkpoint_dir),
            started=time.perf_counter(),
        )

    def _run_s2_shard(
        self,
        spec: ShardSpec,
        *,
        checkpointer: StageCheckpointer | None = None,
        stage: str = "s2_progress",
        stop: Callable[[], bool] | None = None,
        record_name: str = "s2_synthesis",
    ) -> ShardRun:
        """The S2 loop over one shard's slice of the target sizes.

        One loop, parameterized by the shard's RNG stream, id namespace and
        checkpoint stage, in stages: open (resume or cold start), then per
        slot a checkpoint step, picking an anchor and a vector, synthesis
        under rejection, and the commit.
        """
        started = time.perf_counter()
        record = self.health.stage(record_name)
        record.status = RUNNING
        state = self._s2_open(spec, checkpointer, stage, record)
        while state.unfinished:
            self._s2_checkpoint(state, checkpointer, stage, stop, record_name)
            faults.maybe_interrupt("synthesize.step")
            faults.maybe_stall("synthesize.stall")
            is_match, side, pool, anchor, vector = self._s2_pick(state)
            new_id, new_side = state.slot_for(side)
            entity, delta, is_fallback = self._synthesize_with_rejection(
                anchor, vector, new_id, new_side, pool, state.policy, is_match,
                state.rng,
            )
            if is_fallback:
                self._s2_fallback(state)
            state.commit(side, anchor, entity, is_match, delta)

        if checkpointer is not None:
            # The loop finished; the progress checkpoint is consumed.
            checkpointer.clear(stage)
        for key, value in state.policy.stats.items():
            record.increment(key, value)
        elapsed = time.perf_counter() - started
        self.health.mark(record_name, COMPLETED, elapsed)
        return ShardRun(
            spec=spec,
            a_entities=state.a_entities,
            b_entities=state.b_entities,
            sampled_matches=state.sampled_matches,
            sampled_non_matches=state.sampled_non_matches,
            rejection_stats=dict(state.policy.stats),
            tracker_state=state.tracker.to_dict(),
            elapsed_seconds=elapsed,
            peak_rss_kb=int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
            health=record.to_dict(),
        )

    def _s2_open(
        self,
        spec: ShardSpec,
        checkpointer: StageCheckpointer | None,
        stage: str,
        record: StageHealth,
    ) -> "_S2State":
        """The loop's starting state: resumed from the stage's progress
        checkpoint when one is committed, else cold-started with the first
        A-entity.  A one-shard spec runs on the master RNG."""
        rng = self.rng if spec.n_shards == 1 else shard_rng(spec)
        # Rejection and S3 labeling both score *cross* pairs, so they use the
        # all-pairs prior (see fit()); S2 sampling keeps the labeled-set pi.
        tracker = DistributionTracker(self.o_labeling, rng)
        policy = RejectionPolicy(
            self.config, tracker,
            self.gan if self.config.reject_entities else None,
            jsd_seed=self.config.seed + JSD_STREAM,
            plausibility_floor=self.plausibility_floor,
        )
        state = _S2State(spec=spec, rng=rng, tracker=tracker, policy=policy)
        # Corrupt S2 progress quarantines and restarts the shard from
        # entity zero — slower, never wrong.
        progress = (
            checkpointer.load_or_none(stage) if checkpointer is not None else None
        )
        if progress is not None:
            state.restore(progress, self._real.schema)
            record.increment(
                "resumed_entities", len(state.a_entities) + len(state.b_entities)
            )
        else:
            state.a_entities.append(
                cold_start_entity(
                    self._real.schema,
                    self.similarity_model.ranges,
                    self._categorical_values["a"],
                    self._background,
                    rng,
                    entity_id=f"{spec.id_prefix}a0",
                    gan=self.gan,
                )
            )
        return state

    def _s2_checkpoint(
        self,
        state: "_S2State",
        checkpointer: StageCheckpointer | None,
        stage: str,
        stop: Callable[[], bool] | None,
        record_name: str,
    ) -> None:
        """The loop's one durable step, taken before every slot.

        A stop request commits progress and raises
        :class:`SynthesisInterrupted`.  Otherwise, every
        ``checkpoint_every >> chunk_shift`` accepted entities, the shard
        commits progress and takes one rung of the memory ladder
        (:meth:`ResourceGovernor.downshift`, which raises
        :class:`ResourceExhausted` only after this commit).  The cadence
        never consumes RNG, so downshifting keeps the output bit-identical.
        """
        stopping = stop is not None and stop()
        every = max(
            resources.MIN_CHUNK, self.config.checkpoint_every >> state.chunk_shift
        )
        due = state.since_checkpoint >= every and checkpointer is not None
        if not (stopping or due):
            return
        if checkpointer is not None:
            checkpointer.commit(stage, state.to_payload())
        if stopping:
            raise SynthesisInterrupted(
                record_name, checkpointed=checkpointer is not None
            )
        state.since_checkpoint = 0
        governor = resources.installed()
        if governor is not None:
            state.chunk_shift = governor.downshift(
                state.chunk_shift,
                entities=len(state.a_entities) + len(state.b_entities),
            )

    def _s2_pick(
        self, state: "_S2State"
    ) -> tuple[bool, str, list[Entity], Entity, np.ndarray]:
        """S2-1/S2-2: the edge label, the anchor's side, pool and entity,
        and the similarity vector the new entity must realize."""
        rng = state.rng
        # S2-2 (label part): decide match vs non-match at the match-edge
        # rate (see fit()).
        is_match = bool(rng.random() < self.match_edge_rate)

        # S2-1: sample e from the union, restricted to sides whose
        # opposite table still needs entities (Section III, Remark 1).
        # For a match edge, prefer anchors with no match yet so the
        # synthetic matching stays (near) one-to-one like real data;
        # otherwise match edges chain into transitive clusters whose cross
        # products inflate M_syn far beyond the real match density.
        sources: list[tuple[str, list[Entity]]] = []
        if len(state.b_entities) < state.spec.n_b and state.a_entities:
            sources.append(("a", state.a_entities))
        if len(state.a_entities) < state.spec.n_a and state.b_entities:
            sources.append(("b", state.b_entities))
        if is_match:
            filtered = [
                (side, [e for e in pool if e.entity_id not in state.matched_ids])
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
        return is_match, side, pool, anchor, vector

    @staticmethod
    def _s2_fallback(state: "_S2State") -> None:
        """Count a retry-exhausted slot; warn once per run when their rate
        crosses ``FALLBACK_WARN_THRESHOLD`` (rejection livelock)."""
        policy = state.policy
        policy.record_fallback()
        slots = policy.stats["accepted"] + policy.stats["fallback_accepted"]
        if (
            state.warned_fallback
            or slots < FALLBACK_WARN_MIN
            or policy.fallback_rate <= FALLBACK_WARN_THRESHOLD
        ):
            return
        state.warned_fallback = True
        warnings.warn(
            f"rejection livelock: {policy.stats['fallback_accepted']} "
            f"of {slots} synthesis slots exhausted their retries and accepted "
            "the least-drifting candidate anyway "
            f"(rate {policy.fallback_rate:.2f} > {FALLBACK_WARN_THRESHOLD}); "
            "the synthetic entities may be drifting from O_real — consider "
            "relaxing alpha/beta or raising max_rejection_retries",
            RuntimeWarning,
            stacklevel=3,
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

        if len(runs) > 1:
            # Each shard's S2 stage record, also for shards that ran in
            # another process or were loaded from a committed result.
            for run in runs:
                if run.health is not None:
                    self.health.merge_stage(StageHealth.from_dict(
                        {**run.health, "name": f"s2_synthesis_shard{run.spec.index}"}
                    ))

        table_a = Relation(f"{real.name}_syn_a", real.schema, a_entities)
        table_b = Relation(f"{real.name}_syn_b", real.schema, b_entities)

        # S3: label all remaining pairs by posterior (Section IV-C).
        labeling_started = time.perf_counter()
        labeling_record = self.health.stage("s3_labeling")
        labeling_record.status = RUNNING
        known = set(sampled_matches) | set(sampled_non_matches)
        # Budget extra matches so the synthetic match density tracks the
        # real one: pi_all * n_a * n_b total, minus the sampled edges.
        expected_total = int(round(self.o_labeling.match_probability * n_a * n_b))
        budget = max(0, expected_total - len(sampled_matches))
        extra_matches, n_labeled = label_all_pairs(
            table_a, table_b, known, self.o_labeling, self.similarity_model,
            batch_size=resources.effective_label_batch(LABEL_BATCH),
            max_matches=budget,
        )
        matches = list(sampled_matches) + extra_matches
        labeling_record.increment("posterior_labeled", n_labeled)
        self.health.mark(
            "s3_labeling", COMPLETED, time.perf_counter() - labeling_started
        )

        dataset = ERDataset(
            table_a, table_b, matches,
            non_matches=sampled_non_matches,
            name=f"{real.name}_syn",
        )
        o_syn = merged_o_syn([run.tracker_state for run in runs])
        jsd_final = o_syn_drift(o_syn, self.o_labeling, self.config)
        # Sequential composition over the DP-trained text backends.
        epsilons = [
            backend.epsilon()
            for backend in self._text_backends.values()
            if isinstance(backend, TransformerTextSynthesizer)
        ]
        epsilons = [e for e in epsilons if e is not None]
        epsilon = float(sum(epsilons)) if epsilons else None
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
            o_syn=o_syn,
            offline_seconds=self.offline_seconds,
            online_seconds=time.perf_counter() - started,
            epsilon=epsilon,
            extras=extras,
            health=health_payload,
        )

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
