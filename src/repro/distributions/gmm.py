"""Gaussian mixture models fit with EM, component count chosen by AIC.

Paper Section IV-A: the M- and N-distributions are multivariate GMMs; the
number of components ``g`` minimizes the Akaike information criterion, and
parameters are estimated by Expectation-Maximization (Eqs. 4-6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.gaussian import (
    _LOG_2PI,
    GaussianComponent,
    regularize_covariance,
)
from repro.runtime import faults


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a), axis=1))`` with the usual max-subtraction guard.

    Matches :func:`scipy.special.logsumexp` over finite rows to float
    precision while avoiding scipy's array-API dispatch overhead, which
    profiling showed dominating the rejection loop (~80k calls per run).
    Rows that are all ``-inf`` return ``-inf`` without warnings.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = np.max(a, axis=1, keepdims=True)
    a_max_safe = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - a_max_safe).sum(axis=1)) + a_max_safe[:, 0]


@dataclass
class GaussianMixture:
    """A fitted mixture ``sum_k pi_k N(mu_k, Sigma_k)``."""

    weights: np.ndarray
    components: tuple[GaussianComponent, ...]
    log_likelihood_: float = float("nan")
    n_observations_: int = 0
    # How many times EM had to re-seed a collapsed component or restart from
    # a non-finite state while fitting this mixture (health telemetry).
    em_reseeds_: int = 0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size != len(self.components):
            raise ValueError("weights must align with components")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        total = float(self.weights.sum())
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"weights must sum to 1, got {total}")
        self.weights = self.weights / total
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise ValueError(f"components disagree on dimension: {dims}")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def means(self) -> np.ndarray:
        return np.vstack([c.mean for c in self.components])

    # ------------------------------------------------------------------
    # Densities
    # ------------------------------------------------------------------
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked whitening parameters for the batched density kernel.

        The Mahalanobis term of component ``k`` is ``||(x - mu_k) L_k^-T||^2
        = ||x L_k^-T - mu_k L_k^-T||^2``, so concatenating every component's
        ``L_k^-T`` into one ``(d, g*d)`` matrix turns the whole mixture's
        whitening into a single BLAS matmul.  Returns ``(basis (d, g*d),
        shift (g*d,), offsets (g,))`` where ``offsets`` folds each
        component's log weight and Gaussian normalizer.  Built lazily and
        cached — mixtures are immutable after construction (EM builds a
        fresh mixture per iteration).
        """
        cached = self.__dict__.get("_stack_cache")
        if cached is None:
            basis = np.hstack([c.chol_inverse.T for c in self.components])
            shift = np.hstack(
                [c.mean @ c.chol_inverse.T for c in self.components]
            )
            offsets = np.array(
                [
                    np.log(max(w, 1e-300)) - 0.5 * (c.dim * _LOG_2PI + c.log_det)
                    for w, c in zip(self.weights, self.components)
                ]
            )
            cached = (basis, shift, offsets)
            self.__dict__["_stack_cache"] = cached
        return cached

    def component_log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Per-component weighted log densities, shape ``(n, g)``."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        basis, shift, offsets = self._stacked()
        z = points @ basis
        z -= shift
        z *= z
        mahalanobis = z.reshape(len(points), len(offsets), -1).sum(axis=2)
        mahalanobis *= -0.5
        mahalanobis += offsets
        return mahalanobis

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Mixture log density at each row of ``points``."""
        return logsumexp_rows(self.component_log_pdf(points))

    def pdf(self, points: np.ndarray) -> np.ndarray:
        return np.exp(self.log_pdf(points))

    def responsibilities(self, points: np.ndarray) -> np.ndarray:
        """E-step posteriors ``gamma_{i,k}`` (Eq. 5), shape ``(n, g)``."""
        log_joint = self.component_log_pdf(points)
        return np.exp(log_joint - logsumexp_rows(log_joint)[:, None])

    # ------------------------------------------------------------------
    # Sampling & information criteria
    # ------------------------------------------------------------------
    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` points from the mixture, shape ``(count, d)``."""
        if count == 0:
            return np.empty((0, self.dim))
        choices = rng.choice(self.n_components, size=count, p=self.weights)
        out = np.empty((count, self.dim))
        for k, comp in enumerate(self.components):
            mask = choices == k
            n_k = int(mask.sum())
            if n_k:
                out[mask] = comp.sample(n_k, rng)
        return out

    def n_parameters(self) -> int:
        """Free parameters: weights (g-1) + means (g d) + covariances (g d(d+1)/2)."""
        g, d = self.n_components, self.dim
        return (g - 1) + g * d + g * d * (d + 1) // 2

    def aic(self, points: np.ndarray | None = None) -> float:
        """Akaike information criterion; lower is better."""
        if points is not None:
            ll = float(self.log_pdf(points).sum())
        else:
            ll = self.log_likelihood_
        return 2.0 * self.n_parameters() - 2.0 * ll

    def bic(self, points: np.ndarray) -> float:
        """Bayesian information criterion; lower is better."""
        ll = float(self.log_pdf(points).sum())
        return self.n_parameters() * float(np.log(len(points))) - 2.0 * ll

    def to_dict(self) -> dict:
        """JSON-serializable parameter dump."""
        return {
            "weights": self.weights.tolist(),
            "means": [c.mean.tolist() for c in self.components],
            "covariances": [c.covariance.tolist() for c in self.components],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GaussianMixture":
        components = tuple(
            GaussianComponent(np.array(m), np.array(c))
            for m, c in zip(payload["means"], payload["covariances"])
        )
        return cls(np.array(payload["weights"]), components)


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial means across the data."""
    n = len(points)
    centers = [points[rng.integers(n)]]
    for _ in range(1, k):
        dist_sq = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = dist_sq.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        centers.append(points[rng.choice(n, p=dist_sq / total)])
    return np.vstack(centers)


def fit_gmm(
    points: np.ndarray,
    n_components: int,
    rng: np.random.Generator,
    *,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    ridge: float = 1e-6,
) -> GaussianMixture:
    """Fit one GMM with EM (paper Eqs. 4-6).

    Initialization is k-means++ on the data; covariances start from the global
    covariance.  Components that collapse (take responsibility for < 1 point)
    are re-seeded at a random data point.

    Parameters
    ----------
    points:
        Data matrix, shape ``(n, d)``.
    n_components:
        ``g``, the number of Gaussians.
    rng:
        Randomness for initialization and re-seeding.
    max_iterations, tolerance:
        EM stops when the per-point log-likelihood improves by less than
        ``tolerance`` or after ``max_iterations`` iterations.
    ridge:
        Diagonal regularization added to every covariance.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = points.shape
    if n == 0:
        raise ValueError("cannot fit a GMM to zero points")
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    n_components = min(n_components, n)

    # EM keeps an explicit variance floor (the ridge) so components
    # cannot collapse; regularize_covariance alone is idempotent.
    global_cov = regularize_covariance(
        np.cov(points.T, bias=True).reshape(d, d) + ridge * np.eye(d), ridge
    )
    means = _kmeans_plus_plus(points, n_components, rng)
    covariances = [global_cov.copy() for _ in range(n_components)]
    weights = np.full(n_components, 1.0 / n_components)

    previous_ll = -np.inf
    mixture = GaussianMixture(
        weights,
        tuple(GaussianComponent(m, c) for m, c in zip(means, covariances)),
    )
    reseeds = 0
    nan_restarts = 0
    max_nan_restarts = 3
    for _ in range(max_iterations):
        # E-step (Eq. 5)
        log_joint = mixture.component_log_pdf(points)
        log_norm = logsumexp_rows(log_joint)[:, None]
        gamma = np.exp(log_joint - log_norm)
        ll = float(log_norm.sum())
        if faults.fire("em.nan"):
            ll = float("nan")

        restart = not np.isfinite(ll) or not bool(np.isfinite(gamma).all())
        new_mixture = None
        if not restart:
            # M-step (Eq. 6)
            n_k = gamma.sum(axis=0)
            new_means = np.empty_like(means)
            new_covs = []
            for k in range(n_components):
                if n_k[k] < 1e-8:
                    # Collapsed component: re-seed on a random point.
                    new_means[k] = points[rng.integers(n)]
                    new_covs.append(global_cov.copy())
                    n_k[k] = 1.0
                    reseeds += 1
                    continue
                new_means[k] = gamma[:, k] @ points / n_k[k]
                centered = points - new_means[k]
                cov = (gamma[:, k] * centered.T) @ centered / n_k[k]
                new_covs.append(regularize_covariance(cov + ridge * np.eye(d), ridge))
            weights = n_k / n_k.sum()
            means = new_means
            try:
                new_mixture = GaussianMixture(
                    weights,
                    tuple(GaussianComponent(m, c) for m, c in zip(means, new_covs)),
                )
            except (ValueError, np.linalg.LinAlgError):
                # Singular/non-finite covariance survived the ridge (a
                # degenerate responsibility pattern): treat as a numeric
                # failure and restart below.
                restart = True

        if restart:
            # Non-finite state (e.g. a singular covariance driving the
            # likelihood to NaN): restart EM from a fresh k-means++ seed
            # with the global covariance, a bounded number of times.
            nan_restarts += 1
            reseeds += 1
            if nan_restarts > max_nan_restarts:
                raise ValueError(
                    "EM diverged: non-finite log-likelihood persisted after "
                    f"{max_nan_restarts} re-initializations"
                )
            means = _kmeans_plus_plus(points, n_components, rng)
            weights = np.full(n_components, 1.0 / n_components)
            mixture = GaussianMixture(
                weights,
                tuple(
                    GaussianComponent(m, global_cov.copy()) for m in means
                ),
            )
            previous_ll = -np.inf
            continue

        mixture = new_mixture
        if abs(ll - previous_ll) < tolerance * max(1.0, abs(ll)):
            previous_ll = ll
            break
        previous_ll = ll

    mixture.log_likelihood_ = float(mixture.log_pdf(points).sum())
    mixture.n_observations_ = n
    mixture.em_reseeds_ = reseeds
    return mixture


def select_gmm_by_aic(
    points: np.ndarray,
    rng: np.random.Generator,
    *,
    max_components: int = 4,
    restarts: int = 2,
    **fit_kwargs,
) -> GaussianMixture:
    """Fit GMMs for ``g in [1, max_components]`` and keep the lowest AIC.

    This is the model selection the paper applies to ``X+`` and ``X-``
    (Section IV-A).  Each candidate ``g`` is fit ``restarts`` times with
    different initializations and the best likelihood kept before AIC
    comparison.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    best: GaussianMixture | None = None
    best_aic = np.inf
    upper = max(1, min(max_components, len(points)))
    total_reseeds = 0
    for g in range(1, upper + 1):
        candidate: GaussianMixture | None = None
        for _ in range(max(1, restarts)):
            fitted = fit_gmm(points, g, rng, **fit_kwargs)
            total_reseeds += fitted.em_reseeds_
            if candidate is None or fitted.log_likelihood_ > candidate.log_likelihood_:
                candidate = fitted
        assert candidate is not None
        aic = candidate.aic(points)
        if aic < best_aic:
            best, best_aic = candidate, aic
    assert best is not None
    # Surface the EM effort of the whole selection on the winner, so health
    # reporting sees reseeds even when the final model converged cleanly.
    best.em_reseeds_ = total_reseeds
    return best
