"""The O-distribution: mixture of M- and N-distributions.

Paper Section II-B: with matching probability ``pi = |X+| / (|X+| + |X-|)``,
the overall density is ``p(x) = pi * p_m(x) + (1 - pi) * p_n(x)``.
:class:`PairDistribution` bundles the two GMMs with ``pi`` and provides the
operations SERD needs: sampling similarity vectors (S2-2), posterior match
probability for labeling (S3, Section IV-C), and density evaluation for JSD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.gmm import (
    GaussianMixture,
    logsumexp_rows,
    select_gmm_by_aic,
)


@dataclass
class PairDistribution:
    """``O = pi * M + (1 - pi) * N`` over similarity vectors in [0, 1]^d."""

    match_probability: float
    match_distribution: GaussianMixture
    non_match_distribution: GaussianMixture

    def __post_init__(self) -> None:
        if not 0.0 < self.match_probability < 1.0:
            raise ValueError(
                f"match probability must be in (0, 1), got {self.match_probability}"
            )
        if self.match_distribution.dim != self.non_match_distribution.dim:
            raise ValueError("M- and N-distributions disagree on dimension")

    @property
    def dim(self) -> int:
        return self.match_distribution.dim

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        x_match: np.ndarray,
        x_non_match: np.ndarray,
        rng: np.random.Generator,
        *,
        max_components: int = 4,
        **fit_kwargs,
    ) -> "PairDistribution":
        """Learn the O-distribution from labeled similarity vectors (S1).

        ``pi`` is the empirical matching fraction; each side is a GMM whose
        component count minimizes AIC (Section IV-A).
        """
        x_match = np.atleast_2d(np.asarray(x_match, dtype=np.float64))
        x_non_match = np.atleast_2d(np.asarray(x_non_match, dtype=np.float64))
        if len(x_match) == 0 or len(x_non_match) == 0:
            raise ValueError("need at least one matching and one non-matching vector")
        pi = len(x_match) / (len(x_match) + len(x_non_match))
        pi = float(np.clip(pi, 1e-6, 1.0 - 1e-6))
        m_dist = select_gmm_by_aic(x_match, rng, max_components=max_components, **fit_kwargs)
        n_dist = select_gmm_by_aic(
            x_non_match, rng, max_components=max_components, **fit_kwargs
        )
        return cls(pi, m_dist, n_dist)

    # ------------------------------------------------------------------
    # Densities and posteriors
    # ------------------------------------------------------------------
    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Mixture log density ``log p(x)`` at each row of ``points``.

        One log-sum-exp over the union of both GMMs' components — p(x) is
        itself a mixture of g_m + g_n Gaussians.
        """
        joint = np.hstack(
            [
                np.log(self.match_probability)
                + self.match_distribution.component_log_pdf(points),
                np.log1p(-self.match_probability)
                + self.non_match_distribution.component_log_pdf(points),
            ]
        )
        return logsumexp_rows(joint)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        return np.exp(self.log_pdf(points))

    def posterior_match(self, points: np.ndarray) -> np.ndarray:
        """``P_m(x) = pi p_m(x) / (pi p_m(x) + (1-pi) p_n(x))`` (Section IV-C)."""
        log_m = np.log(self.match_probability) + self.match_distribution.log_pdf(points)
        log_n = np.log1p(-self.match_probability) + self.non_match_distribution.log_pdf(
            points
        )
        return np.exp(log_m - np.logaddexp(log_m, log_n))

    def classify(self, points: np.ndarray) -> np.ndarray:
        """Boolean labels: True where ``P_m(x) >= P_n(x)``."""
        return self.posterior_match(points) >= 0.5

    def plausibility(self, points: np.ndarray) -> np.ndarray:
        """``max(log p_m(x), log p_n(x))`` — prior-free plausibility.

        A similarity vector is plausible when it is likely under *either*
        the matching or the non-matching distribution; vectors in the
        density gap between them (e.g. a "match" whose synthesis missed its
        target) score low under both.  Used by SERD's rejection to catch
        pairs that follow neither distribution, independent of the mixture
        prior.
        """
        log_m = self.match_distribution.log_pdf(points)
        log_n = self.non_match_distribution.log_pdf(points)
        return np.maximum(log_m, log_n)

    # ------------------------------------------------------------------
    # Sampling (S2-2)
    # ------------------------------------------------------------------
    def sample(
        self, count: int, rng: np.random.Generator, *, clip: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw similarity vectors with their source labels.

        Returns ``(vectors, is_match)``.  With probability ``pi`` a vector
        comes from the M-distribution (label True), else from N.  Similarity
        vectors live in ``[0, 1]^d``, so Gaussian samples are clipped there
        unless ``clip=False``.
        """
        labels = rng.random(count) < self.match_probability
        n_match = int(labels.sum())
        vectors = np.empty((count, self.dim))
        if n_match:
            vectors[labels] = self.match_distribution.sample(n_match, rng)
        if count - n_match:
            vectors[~labels] = self.non_match_distribution.sample(count - n_match, rng)
        if clip:
            np.clip(vectors, 0.0, 1.0, out=vectors)
        return vectors, labels

    def sample_one(
        self, rng: np.random.Generator, *, clip: bool = True
    ) -> tuple[np.ndarray, bool]:
        """Sample a single similarity vector; convenience for the S2 loop."""
        vectors, labels = self.sample(1, rng, clip=clip)
        return vectors[0], bool(labels[0])

    def to_dict(self) -> dict:
        return {
            "match_probability": self.match_probability,
            "match_distribution": self.match_distribution.to_dict(),
            "non_match_distribution": self.non_match_distribution.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PairDistribution":
        return cls(
            payload["match_probability"],
            GaussianMixture.from_dict(payload["match_distribution"]),
            GaussianMixture.from_dict(payload["non_match_distribution"]),
        )
