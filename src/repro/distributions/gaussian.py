"""Multivariate Gaussian density with stable Cholesky evaluation.

Similarity vectors are low-dimensional (one dimension per schema column, 4-8
in the paper's datasets) but frequently nearly degenerate — e.g. every
matching pair may have year-similarity exactly 1.0 — so every covariance is
ridge-regularized before factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

_LOG_2PI = float(np.log(2.0 * np.pi))


def regularize_covariance(cov: np.ndarray, ridge: float = 1e-6) -> np.ndarray:
    """Symmetrize ``cov`` and ridge the diagonal until positive definite.

    Idempotent: an already-PD matrix is returned unchanged (so serializing
    and reloading a component does not silently inflate tiny variances).
    Otherwise the ridge escalates x10 until Cholesky succeeds; similarity
    data routinely produces zero-variance dimensions.
    """
    cov = 0.5 * (cov + cov.T)
    dim = cov.shape[0]
    eye = np.eye(dim)
    attempt = 0.0
    for _ in range(13):
        try:
            np.linalg.cholesky(cov + attempt * eye)
            return cov + attempt * eye if attempt else cov
        except np.linalg.LinAlgError:
            attempt = ridge if attempt == 0.0 else attempt * 10.0
    raise np.linalg.LinAlgError("covariance could not be regularized to PD")


@dataclass
class GaussianComponent:
    """One mixture component ``N(mu, Sigma)`` with a cached Cholesky factor."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = regularize_covariance(
            np.asarray(self.covariance, dtype=np.float64)
        )
        if self.mean.ndim != 1:
            raise ValueError(f"mean must be 1-D, got shape {self.mean.shape}")
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise ValueError(
                f"covariance shape {self.covariance.shape} does not match "
                f"mean of dimension {self.mean.size}"
            )
        self._chol = np.linalg.cholesky(self.covariance)
        self._log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        self._chol_inv: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def log_det(self) -> float:
        """``log |Sigma|`` (cached from the Cholesky factor)."""
        return self._log_det

    @property
    def chol_inverse(self) -> np.ndarray:
        """``L^{-1}`` with ``Sigma = L L^T``, solved once and cached.

        Turns every later Mahalanobis evaluation into a single matmul
        (triangular solves carry per-call LAPACK wrapper overhead that
        dwarfs the arithmetic at d = 4-8).
        """
        if self._chol_inv is None:
            self._chol_inv = solve_triangular(
                self._chol, np.eye(self.dim), lower=True
            )
        return self._chol_inv

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Log density at each row of ``points`` (shape ``(n, d)`` or ``(d,)``)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        z = (points - self.mean) @ self.chol_inverse.T
        mahalanobis = np.einsum("nd,nd->n", z, z)
        return -0.5 * (self.dim * _LOG_2PI + self._log_det + mahalanobis)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` samples, shape ``(count, d)``."""
        noise = rng.standard_normal((count, self.dim))
        return self.mean + noise @ self._chol.T


def log_gaussian_pdf(points: np.ndarray, mean: np.ndarray, covariance: np.ndarray) -> np.ndarray:
    """Functional form of :meth:`GaussianComponent.log_pdf`."""
    return GaussianComponent(mean, covariance).log_pdf(points)
