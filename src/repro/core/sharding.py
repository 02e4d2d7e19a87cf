"""Shard planning and merging for S2 synthesis.

The S2 loop synthesizes ``n_a + n_b`` entities one at a time.  To scale past
one core, the target sizes are partitioned into :class:`ShardSpec` slices;
each shard runs the *same* loop over its slice with its own RNG stream,
entity-id namespace and progress checkpoint, and the per-shard results are
merged back into one dataset before S3 labeling.  There is one entry point,
``SERDSynthesizer.synthesize(n_a, n_b, n_shards=k)``; the service runs the
same shards as queue jobs (``repro submit --shards k``).

Single-shard plans are the equivalence oracle: ``plan_shards(n_a, n_b, 1)``
produces a spec whose id prefix and RNG are exactly the unsharded loop's,
so ``n_shards=1`` output does not depend on sharding at all.

Each shard applies Eq. 10 to its own O_syn only, so a shard's output is a
function of the model and its :class:`ShardSpec` alone: it does not depend
on which worker runs it, in which order, or whether it was resumed.  The
merged O_syn is the pair-weighted mixture of the shards' O_syns
(:func:`merged_o_syn`), and JSD is jointly convex, so the merged drift is
at most the pair-weighted mean of the shards' drifts that Eq. 10 bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.rejection import JSD_SAMPLES
from repro.distributions.divergence import pair_distribution_jsd
from repro.distributions.gaussian import GaussianComponent
from repro.distributions.gmm import GaussianMixture
from repro.distributions.mixture import PairDistribution
from repro.schema.entity import Entity

# Salt for per-shard RNG streams: keeps shard streams disjoint from every
# other derived stream in the pipeline (GAN seed+1, background seed+17,
# JSD_STREAM) without colliding for any (seed, index) pair.
_SHARD_STREAM = 0x5E4D

#: Salt of the JSD estimator's sample stream (``seed + JSD_STREAM``): Eq. 10
#: inside the loop and the reported ``jsd_final`` both draw their
#: Monte-Carlo points from it.
JSD_STREAM = 23


@dataclass(frozen=True)
class ShardSpec:
    """One slice of a sharded synthesis target.

    ``seed`` is the *parent* run's seed; the shard's own RNG stream is
    derived from ``(seed, index)`` by :func:`shard_rng`.  A single-shard
    spec is special-cased everywhere to reuse the master RNG and the
    sequential loop's ``sa``/``sb`` id namespace — that is what makes
    one-shard mode bit-identical to the sequential loop.
    """

    index: int
    n_shards: int
    n_a: int
    n_b: int
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.n_shards:
            raise ValueError(
                f"shard index {self.index} out of range for {self.n_shards} shards"
            )
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError(
                f"shard {self.index} needs at least one entity per side, "
                f"got ({self.n_a}, {self.n_b})"
            )

    @property
    def id_prefix(self) -> str:
        """Entity-id namespace: ``sa0``... for one shard, ``s2_a0``... else."""
        return "s" if self.n_shards == 1 else f"s{self.index}_"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "n_shards": self.n_shards,
            "n_a": self.n_a,
            "n_b": self.n_b,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardSpec":
        return cls(
            int(payload["index"]),
            int(payload["n_shards"]),
            int(payload["n_a"]),
            int(payload["n_b"]),
            int(payload["seed"]),
        )


def plan_shards(n_a: int, n_b: int, n_shards: int, seed: int) -> list[ShardSpec]:
    """Split target sizes ``(n_a, n_b)`` into at most ``n_shards`` slices.

    Sizes are divided as evenly as possible (earlier shards take the
    remainder).  Every shard must synthesize at least one entity per side —
    the S2 loop needs both pools non-empty to sample anchors — so the shard
    count is capped at ``min(n_a, n_b)``.
    """
    if n_a < 1 or n_b < 1:
        raise ValueError("both synthetic tables need at least one entity")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_a, n_b)
    specs = []
    for index in range(n_shards):
        share_a = n_a // n_shards + (1 if index < n_a % n_shards else 0)
        share_b = n_b // n_shards + (1 if index < n_b % n_shards else 0)
        specs.append(ShardSpec(index, n_shards, share_a, share_b, int(seed)))
    return specs


def shard_rng(spec: ShardSpec) -> np.random.Generator:
    """The shard's dedicated RNG stream (multi-shard plans only).

    Single-shard specs must use the master RNG instead — callers
    special-case them — so this refuses the ambiguity.
    """
    if spec.n_shards == 1:
        raise ValueError("single-shard specs use the master RNG, not a derived stream")
    return np.random.default_rng([spec.seed, _SHARD_STREAM, spec.index])


@dataclass
class ShardPools:
    """Entity pools and sampled edges: the part of every S2 payload that
    holds entities (progress checkpoints and shard results alike)."""

    a_entities: list[Entity] = field(default_factory=list)
    b_entities: list[Entity] = field(default_factory=list)
    sampled_matches: list[tuple[str, str]] = field(default_factory=list)
    sampled_non_matches: list[tuple[str, str]] = field(default_factory=list)

    def pools_payload(self) -> dict:
        return {
            "a_entities": [[e.entity_id, list(e.values)] for e in self.a_entities],
            "b_entities": [[e.entity_id, list(e.values)] for e in self.b_entities],
            "sampled_matches": [list(p) for p in self.sampled_matches],
            "sampled_non_matches": [list(p) for p in self.sampled_non_matches],
        }

    @staticmethod
    def pools_from_payload(payload: dict, schema) -> dict:
        """Constructor keywords for the pools of a ``pools_payload`` dump."""
        return {
            "a_entities": [
                Entity(eid, schema, values) for eid, values in payload["a_entities"]
            ],
            "b_entities": [
                Entity(eid, schema, values) for eid, values in payload["b_entities"]
            ],
            "sampled_matches": [tuple(p) for p in payload["sampled_matches"]],
            "sampled_non_matches": [tuple(p) for p in payload["sampled_non_matches"]],
        }


@dataclass(kw_only=True)
class ShardRun(ShardPools):
    """The S2 loop's output for one shard (entities, edges, O_syn state,
    and the shard's ``s2_synthesis`` stage record as ``health``)."""

    spec: ShardSpec
    rejection_stats: dict[str, int]
    tracker_state: dict
    elapsed_seconds: float = 0.0
    peak_rss_kb: int = 0
    health: dict | None = None

    def to_payload(self) -> dict:
        """JSON-serializable dump (shard result files, checkpoint stages)."""
        return {
            "spec": self.spec.to_dict(),
            **self.pools_payload(),
            "rejection_stats": dict(self.rejection_stats),
            "tracker": self.tracker_state,
            "elapsed_seconds": self.elapsed_seconds,
            "peak_rss_kb": self.peak_rss_kb,
            "health": self.health,
        }

    @classmethod
    def from_payload(cls, payload: dict, schema) -> "ShardRun":
        # Results written before ``extras`` was dropped still carry the
        # (always empty) key; it is ignored like any other unknown key.
        # Results written before ``health`` was added load without one.
        return cls(
            spec=ShardSpec.from_dict(payload["spec"]),
            **cls.pools_from_payload(payload, schema),
            rejection_stats={
                k: int(v) for k, v in payload["rejection_stats"].items()
            },
            tracker_state=payload["tracker"],
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            peak_rss_kb=int(payload.get("peak_rss_kb", 0)),
            health=payload.get("health"),
        )


def merged_o_syn(tracker_states: list[dict]) -> PairDistribution | None:
    """Merge per-shard O_syn tracker dumps into one global distribution.

    Each bootstrapped shard contributes its M- and N-side GMMs; the merged
    side is the pair-count-weighted mixture of mixtures (component ``k`` of
    shard ``s`` keeps its parameters with weight ``w_k * n_s / n_total``),
    and the merged ``pi`` is the global positive fraction.  Shards still
    buffering (not bootstrapped) are skipped; returns ``None`` when no shard
    has bootstrapped yet.

    For a single state this reproduces ``DistributionTracker.current()``
    exactly, which is what keeps single-shard diagnostics identical to the
    sequential loop's.
    """
    ready = [
        s for s in tracker_states
        if s.get("pos") is not None and s.get("neg") is not None
    ]
    if not ready:
        return None
    total_pos = sum(int(s["n_pos"]) for s in ready)
    total_neg = sum(int(s["n_neg"]) for s in ready)
    sides = {}
    for side, count_key, total in (
        ("pos", "n_pos", total_pos),
        ("neg", "n_neg", total_neg),
    ):
        weights: list[float] = []
        components: list[GaussianComponent] = []
        for state in ready:
            mixture = state[side]["mixture"]
            share = int(state[count_key]) / max(1, total)
            for w, mean, cov in zip(
                mixture["weights"], mixture["means"], mixture["covariances"]
            ):
                weights.append(float(w) * share)
                components.append(GaussianComponent(np.array(mean), np.array(cov)))
        total_weight = sum(weights)
        if total_weight <= 0:
            # Degenerate side (e.g. every shard has n_pos == 0): fall back
            # to uniform component weights rather than dividing by zero.
            weights = [1.0 / len(weights)] * len(weights)
        else:
            weights = [w / total_weight for w in weights]
        sides[side] = GaussianMixture(np.array(weights), tuple(components))
    pi = float(np.clip(total_pos / max(1, total_pos + total_neg), 1e-6, 1 - 1e-6))
    return PairDistribution(pi, sides["pos"], sides["neg"])


def o_syn_drift(
    o_syn: PairDistribution | None, o_labeling: PairDistribution, config
) -> float | None:
    """``JSD(o_syn, O_labeling)`` on the loop's JSD stream; ``None`` for
    an O_syn that has not bootstrapped."""
    if o_syn is None:
        return None
    return pair_distribution_jsd(
        o_syn, o_labeling,
        seed=config.seed + JSD_STREAM, n_samples=JSD_SAMPLES,
    )
