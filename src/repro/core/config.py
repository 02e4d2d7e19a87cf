"""Configuration for the SERD synthesizer."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gan.training import TabularGANConfig
from repro.privacy.dpsgd import DPSGDConfig
from repro.textgen.transformer_backend import TransformerTextSynthesizerConfig

# Removed options: switches that only chose between two implementations of
# one computation, the lossy blocked S3 fork, the livelock-warning knobs,
# and the settings no caller ever changed (now module constants: see the
# SERDConfig docstring).  Checkpoint manifests and registry metadata
# written while they existed still carry them, so ``from_dict`` drops them.
RETIRED_KEYS = (
    "use_similarity_kernels",
    "transformer.dp_vectorized",
    "transformer.generation_cache",
    "use_blocking_for_labeling",
    "fallback_warn_threshold",
    "fallback_warn_min",
    "n_text_candidates",
    "n_similarity_buckets",
    "rule_max_steps",
    "rule_tolerance",
    "jsd_samples",
    "jsd_slack",
    "plausibility_quantile",
    "plausibility_margin",
    "reject_unintended_matches",
    "max_gmm_components",
    "negative_ratio",
    "hard_negative_fraction",
    "label_all_pairs",
    "one_to_one_matches",
    "labeling_chunk_size",
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
    delta_sample_size:
        ``t`` — entities sampled from the opposite table when computing
        ``Delta X_syn`` for rejection (paper Section V, Remark 1).
    min_pairs_for_rejection:
        Distribution rejection only activates once this many synthetic pair
        vectors exist (the early O_syn estimate is meaningless below that).
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
    dp:
        DP-SGD settings for transformer training, the pipeline's one DP
        setting; ``None`` trains the transformer non-privately (the rule
        backend is unaffected — it never sees real data).
        ``transformer.dp`` may repeat it but not contradict it.
    gan:
        Tabular GAN settings (cold start + rejection Case 1).
    transformer:
        Transformer text-backend settings (used when
        ``text_backend="transformer"``), the only copy of the bucket count
        k (paper: 10) and the candidates per synthesis (paper: 10).
    background_size:
        Strings per text column drawn from the background corpus.

    Fixed settings live beside the code that uses them:

    - :mod:`repro.core.rejection`: ``JSD_SAMPLES`` (Monte-Carlo samples
      per Eq. 10 estimate, also the final drift's), ``JSD_SLACK``
      (absolute Eq. 10 tolerance for estimator noise) and
      ``MAX_GMM_COMPONENTS`` (AIC bound of the real and synthetic M/N
      GMMs).  Unintended-match rejection is always on.
    - :mod:`repro.core.serd`: ``PLAUSIBILITY_QUANTILE`` and
      ``PLAUSIBILITY_MARGIN`` (the rejection plausibility floor),
      ``NEGATIVE_RATIO`` (non-matching pairs sampled per match in S1),
      ``RULE_TOLERANCE`` and ``RULE_MAX_STEPS`` (the rule text backend's
      acceptance band and search budget).  S2 always prefers match-free
      anchors for match edges, and S3 always labels every cross pair.
    - :func:`repro.core.labeling.label_all_pairs`: the S3 batch size.
    - :func:`repro.similarity.blocking.mixed_non_matches`: the share of
      blocking-style hard negatives.
    """

    seed: int = 0
    alpha: float = 1.0
    beta: float = 0.6
    reject_entities: bool = True
    max_rejection_retries: int = 5
    text_backend: str = "rule"
    delta_sample_size: int = 10
    min_pairs_for_rejection: int = 30
    degrade_text_on_divergence: bool = True
    degrade_gan_on_divergence: bool = True
    checkpoint_every: int = 50
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
        if self.transformer.dp is not None and self.transformer.dp != self.dp:
            raise ValueError(
                "transformer.dp differs from dp; set DP-SGD once, as "
                "SERDConfig.dp"
            )

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
        if "n_similarity_buckets" in payload:
            # Written while the shadow knobs existed: they, and the
            # top-level dp, overrode the transformer's own settings.
            transformer["n_buckets"] = payload["n_similarity_buckets"]
            transformer["n_candidates"] = payload["n_text_candidates"]
            transformer["dp"] = payload.get("dp")
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
