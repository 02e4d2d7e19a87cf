"""Shared matcher-experiment protocol for Exp-2 and Exp-3.

The paper's setup: split ``E_real`` into train/test; ``M_real`` trains on the
real training pairs, ``M_syn`` trains on pairs sampled from ``E_syn`` (full
matching set + 3x negatives); both are evaluated on the *same* real test set
``T`` (Exp-2), or ``M_real`` is evaluated on ``T_real`` vs ``T_syn``
(Exp-3).
"""

from __future__ import annotations

import numpy as np

from repro.matchers.base import Matcher
from repro.matchers.deep import DeepMatcher, DeepMatcherConfig
from repro.matchers.evaluation import MatcherScores, evaluate_matcher
from repro.matchers.features import PairFeaturizer
from repro.matchers.forest import MagellanMatcher
from repro.schema.dataset import ERDataset, MatchSplit, Pair
from repro.similarity.blocking import mixed_non_matches
from repro.similarity.vector import SimilarityModel

MATCHER_NAMES = ("magellan", "deepmatcher")


def make_matcher(name: str, seed: int = 0) -> Matcher:
    """Instantiate a matcher by experiment name."""
    if name == "magellan":
        return MagellanMatcher(n_trees=15, max_depth=8, seed=seed)
    if name == "deepmatcher":
        return DeepMatcher(DeepMatcherConfig(epochs=40, seed=seed))
    raise KeyError(f"unknown matcher {name!r}; known: {MATCHER_NAMES}")


def labeled_pairs_from_dataset(
    dataset: ERDataset,
    rng: np.random.Generator,
    *,
    similarity_model: SimilarityModel | None = None,
    max_matches: int | None = None,
    negative_ratio: float = 3.0,
    hard_fraction: float = 0.5,
) -> list[tuple[Pair, bool]]:
    """All (or capped) matches plus sampled negatives from a dataset.

    With a ``similarity_model``, ``hard_fraction`` of the negatives are
    blocking-style hard negatives (the labeled sets of real benchmarks are
    candidate pairs, not uniform pairs).
    """
    matches = list(dataset.matches)
    if max_matches is not None and len(matches) > max_matches:
        picks = rng.choice(len(matches), size=max_matches, replace=False)
        matches = [matches[int(i)] for i in picks]
    wanted = int(round(negative_ratio * max(1, len(matches))))
    capacity = len(dataset.table_a) * len(dataset.table_b) - len(dataset.matches)
    wanted = min(wanted, max(0, capacity))
    if similarity_model is not None:
        negatives = mixed_non_matches(
            dataset, similarity_model, wanted, rng, hard_fraction=hard_fraction
        )
    else:
        negatives = dataset.sample_non_matches(wanted, rng)
    return [(p, True) for p in matches] + [(p, False) for p in negatives]


def make_matcher_split(
    dataset: ERDataset,
    similarity_model: SimilarityModel,
    rng: np.random.Generator,
    *,
    test_fraction: float = 0.25,
    negative_ratio: float = 3.0,
    hard_fraction: float = 0.5,
) -> MatchSplit:
    """Train/test split whose negatives mix uniform and hard pairs."""
    matches = list(dataset.matches)
    rng.shuffle(matches)
    wanted = int(round(negative_ratio * max(1, len(matches))))
    capacity = len(dataset.table_a) * len(dataset.table_b) - len(dataset.matches)
    negatives = mixed_non_matches(
        dataset, similarity_model, min(wanted, max(0, capacity)), rng,
        hard_fraction=hard_fraction,
    )

    def _cut(pairs):
        n_test = max(1, int(round(test_fraction * len(pairs)))) if pairs else 0
        return list(pairs[n_test:]), list(pairs[:n_test])

    train_m, test_m = _cut(matches)
    train_n, test_n = _cut(negatives)
    return MatchSplit(train_m, train_n, test_m, test_n)


def train_on_dataset(
    matcher: Matcher,
    dataset: ERDataset,
    featurizer: PairFeaturizer,
    rng: np.random.Generator,
    *,
    max_matches: int | None = 400,
) -> Matcher:
    """Fit a matcher on pairs sampled from ``dataset``.

    The featurizer (and therefore the similarity model, including numeric
    ranges) is shared with the real dataset so features are commensurable.
    """
    pairs = labeled_pairs_from_dataset(
        dataset, rng,
        similarity_model=featurizer.similarity_model,
        max_matches=max_matches,
    )
    features, labels = featurizer.dataset_features(dataset, pairs)
    matcher.fit(features, labels)
    return matcher


def evaluate_on_pairs(
    matcher: Matcher,
    dataset: ERDataset,
    featurizer: PairFeaturizer,
    labeled_pairs: list[tuple[Pair, bool]],
) -> MatcherScores:
    """Score a fitted matcher on explicit labeled pairs of ``dataset``."""
    features, labels = featurizer.dataset_features(dataset, labeled_pairs)
    return evaluate_matcher(matcher, features, labels)


def shared_featurizer(similarity_model: SimilarityModel) -> PairFeaturizer:
    """The featurizer used across real and synthetic datasets."""
    return PairFeaturizer(similarity_model, extended=True)
