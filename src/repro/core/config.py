"""Configuration for the SERD synthesizer."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gan.training import TabularGANConfig
from repro.privacy.dpsgd import DPSGDConfig
from repro.textgen.transformer_backend import TransformerTextSynthesizerConfig

# Removed options: switches that only chose between two implementations of
# one computation, the lossy blocked S3 fork, and the livelock-warning
# knobs (now constants in ``repro.core.serd``).  Checkpoint manifests and
# registry metadata written while they existed still carry them, so
# ``from_dict`` drops them.
RETIRED_KEYS = (
    "use_similarity_kernels",
    "transformer.dp_vectorized",
    "transformer.generation_cache",
    "use_blocking_for_labeling",
    "fallback_warn_threshold",
    "fallback_warn_min",
)


@dataclass
class SERDConfig:
    """All SERD knobs, with the paper's experimental defaults.

    Attributes
    ----------
    seed:
        Master seed; all randomness derives from it.
    alpha:
        Distribution-rejection strictness (Eq. 10); paper default 1.0.
        ``float("inf")`` disables Case 2 (everything passes).
    beta:
        Discriminator-rejection threshold; paper default 0.6.  0.0 disables
        Case 1.
    reject_entities:
        Master switch — False gives SERD- (no rejection at all).
    max_rejection_retries:
        Bound on re-synthesis attempts per slot; after this many rejections
        the best-scoring candidate is accepted (the paper notes rejection can
        always be relaxed by tuning alpha/beta; the cap bounds runtime).
    text_backend:
        ``"rule"`` (fast, default for experiments) or ``"transformer"``
        (paper-faithful DP transformer buckets).
    n_text_candidates:
        Candidate strings per text synthesis (paper: 10; used by the
        transformer backend).
    n_similarity_buckets:
        Similarity intervals k (paper: 10).
    rule_max_steps, rule_tolerance:
        Search budget / acceptance band of the rule text backend.  Like the
        paper's transformer, the backend is an *imperfect* solver of
        ``f(s, s') = sim`` — entity rejection (Section V) exists to catch
        candidates whose achieved vectors drift from the sampled ones, and
        the SERD-vs-SERD- contrast hinges on that imperfection.  Larger
        budgets make single-shot synthesis more precise.
    delta_sample_size:
        ``t`` — entities sampled from the opposite table when computing
        ``Delta X_syn`` for rejection (paper Section V, Remark 1).
    min_pairs_for_rejection:
        Distribution rejection only activates once this many synthetic pair
        vectors exist (the early O_syn estimate is meaningless below that).
    jsd_samples:
        Monte-Carlo samples per JSD estimate (Eq. 10).
    jsd_slack:
        Absolute tolerance added to the Eq. 10 threshold.  The JSD estimator
        is Monte-Carlo; without slack, a well-converged O_syn (tiny baseline
        JSD) rejects every candidate on estimator noise alone.
    plausibility_quantile, plausibility_margin:
        The second half of distribution rejection: a candidate is rejected
        when any of its new pair vectors scores below a plausibility floor —
        the ``plausibility_quantile`` quantile of the real labeled vectors'
        ``max(log p_m, log p_n)`` minus ``plausibility_margin`` nats.  The
        JSD check (Eq. 10) guards aggregate drift; this guards individual
        pairs that follow neither distribution.
    reject_unintended_matches:
        Reject candidates whose ``Delta X_syn`` contains pairs that S3 would
        label matching even though no match was sampled for them.  Such
        pairs inflate the synthetic match prior — the clearest way an entity
        "destroys the distribution" (Section V).
    max_gmm_components:
        AIC model-selection upper bound for the M/N GMMs.
    negative_ratio:
        Non-matching pairs sampled per matching pair when estimating the
        N-distribution from the real dataset.
    hard_negative_fraction:
        Fraction of those negatives drawn blocking-style (most similar
        non-matching partner among random probes) instead of uniformly —
        matching how real benchmarks label candidate pairs.
    label_all_pairs:
        Run S3 posterior labeling over all unlabeled cross pairs.
    one_to_one_matches:
        Prefer match-free anchors when sampling a matching similarity
        vector.  Real ER benchmarks are (near) one-to-one; without this,
        match edges chain into transitive clusters whose cross products
        inflate M_syn far beyond the real match density.
    degrade_text_on_divergence:
        When transformer text training diverges past its numeric guard's
        retry budget, fall back to :class:`RuleTextSynthesizer` for that
        column (recorded in the stage health report) instead of failing the
        whole offline phase.  ``False`` re-raises.
    degrade_gan_on_divergence:
        Same ladder for the GAN stage: on repeated divergence run without a
        GAN (cold start falls back to per-column sampling, rejection Case 1
        is skipped) instead of failing.  ``False`` re-raises.
    checkpoint_every:
        Accepted entities between S2 progress checkpoints when
        ``synthesize`` is given a checkpoint directory.
    labeling_chunk_size:
        Cross pairs scored per batch during S3 labeling and rows buffered
        per chunk during dataset export — the streaming memory bound; peak
        RSS of both stages grows with this, not with ``n_a * n_b``.
    dp:
        DP-SGD settings for transformer training; ``None`` trains the
        transformer non-privately (the rule backend is unaffected — it never
        sees real data).
    gan:
        Tabular GAN settings (cold start + rejection Case 1).
    transformer:
        Transformer text-backend settings (used when
        ``text_backend="transformer"``).
    background_size:
        Strings per text column drawn from the background corpus.
    """

    seed: int = 0
    alpha: float = 1.0
    beta: float = 0.6
    reject_entities: bool = True
    max_rejection_retries: int = 5
    text_backend: str = "rule"
    n_text_candidates: int = 10
    n_similarity_buckets: int = 10
    rule_max_steps: int = 12
    rule_tolerance: float = 0.05
    delta_sample_size: int = 10
    min_pairs_for_rejection: int = 30
    jsd_samples: int = 256
    jsd_slack: float = 0.01
    plausibility_quantile: float = 0.02
    plausibility_margin: float = 2.0
    reject_unintended_matches: bool = True
    max_gmm_components: int = 3
    negative_ratio: float = 3.0
    hard_negative_fraction: float = 0.5
    label_all_pairs: bool = True
    one_to_one_matches: bool = True
    degrade_text_on_divergence: bool = True
    degrade_gan_on_divergence: bool = True
    checkpoint_every: int = 50
    labeling_chunk_size: int = 4096
    dp: DPSGDConfig | None = None
    gan: TabularGANConfig = field(default_factory=TabularGANConfig)
    transformer: TransformerTextSynthesizerConfig = field(
        default_factory=TransformerTextSynthesizerConfig
    )
    background_size: int = 200

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.text_backend not in ("rule", "transformer"):
            raise ValueError(
                f"text_backend must be 'rule' or 'transformer', got {self.text_backend!r}"
            )
        if self.max_rejection_retries < 1:
            raise ValueError("max_rejection_retries must be >= 1")
        if self.delta_sample_size < 1:
            raise ValueError("delta_sample_size must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.labeling_chunk_size < 1:
            raise ValueError("labeling_chunk_size must be >= 1")

    def without_rejection(self) -> "SERDConfig":
        """The SERD- ablation: same settings, rejection disabled."""
        import dataclasses

        return dataclasses.replace(self, reject_entities=False)

    # ------------------------------------------------------------------
    # Serialization (checkpoint manifests embed the config so ``resume``
    # can rebuild the exact synthesizer that started the run)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        import dataclasses

        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SERDConfig":
        payload = dict(payload)
        transformer = dict(payload["transformer"])
        for key in RETIRED_KEYS:
            section, _, name = key.rpartition(".")
            (transformer if section else payload).pop(name, None)
        if payload.get("dp") is not None:
            payload["dp"] = DPSGDConfig(**payload["dp"])
        payload["gan"] = TabularGANConfig(**payload["gan"])
        if transformer.get("dp") is not None:
            transformer["dp"] = DPSGDConfig(**transformer["dp"])
        payload["transformer"] = TransformerTextSynthesizerConfig(**transformer)
        return cls(**payload)
