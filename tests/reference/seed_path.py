"""Run the sequential S2 loop on the reference implementations.

The synthesis-scale benchmark times the production loop against this
baseline: per-component scipy densities, a JSD that re-derives both sides
on every call, tokenize-per-call q-grams and full profile rebuilds.  The
patches are scoped to the ``with`` block and restored on exit.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.core.rejection import RejectionPolicy
from repro.distributions import gmm
from repro.distributions.divergence import jensen_shannon_divergence
from repro.distributions.gaussian import GaussianComponent
from repro.distributions.mixture import PairDistribution
from repro.similarity import ngram
from repro.similarity.vector import SimilarityModel

from . import densities, similarity


def jsd_eval(policy: RejectionPolicy, dist_p, rebase: bool = False) -> float:
    """``RejectionPolicy._jsd_eval`` with both sides resampled per call.

    No estimator is built and ``rebase`` has nothing to do: every call
    draws its own points.
    """
    dist_q = policy.tracker.o_real
    rng = np.random.default_rng(policy.jsd_seed)
    return jensen_shannon_divergence(
        dist_p.log_pdf,
        dist_q.log_pdf,
        lambda n, r: dist_p.sample(n, r)[0],
        lambda n, r: dist_q.sample(n, r)[0],
        rng,
        n_samples=policy.config.jsd_samples,
    )


@contextlib.contextmanager
def seed_path():
    """Patch every optimized S2 operation over with its reference."""
    with contextlib.ExitStack() as stack:
        for target, name, replacement in (
            (GaussianComponent, "log_pdf", densities.gaussian_log_pdf),
            (gmm.GaussianMixture, "component_log_pdf", densities.component_log_pdf),
            (gmm, "logsumexp_rows", densities.logsumexp_rows),
            (PairDistribution, "log_pdf", densities.pair_log_pdf),
            (RejectionPolicy, "_jsd_eval", jsd_eval),
            (ngram, "_GRAM_CACHE", similarity.NoMemo()),
            (SimilarityModel, "profile", similarity.profile),
        ):
            stack.enter_context(mock.patch.object(target, name, replacement))
        yield
