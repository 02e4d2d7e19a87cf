"""Per-component scipy densities: the oracle for the stacked kernels.

Production evaluates a whole mixture as one whitening matmul plus a
hand-rolled row log-sum-exp (:mod:`repro.distributions.gmm`).  These
functions compose the same quantities one component at a time through
scipy's triangular solve and ``logsumexp``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from repro.distributions.gaussian import _LOG_2PI


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise :func:`scipy.special.logsumexp`."""
    return logsumexp(np.asarray(a, dtype=np.float64), axis=1)


def gaussian_log_pdf(component, points: np.ndarray) -> np.ndarray:
    """``GaussianComponent.log_pdf`` with a per-call triangular solve."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centered = points - component.mean
    # Solve L z = centered^T; then the Mahalanobis term is ||z||^2.
    z = solve_triangular(component._chol, centered.T, lower=True)
    mahalanobis = np.sum(z * z, axis=0)
    return -0.5 * (component.dim * _LOG_2PI + component.log_det + mahalanobis)


def component_log_pdf(mixture, points: np.ndarray) -> np.ndarray:
    """``GaussianMixture.component_log_pdf`` as a per-component loop."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    columns = [
        np.log(max(w, 1e-300)) + gaussian_log_pdf(comp, points)
        for w, comp in zip(mixture.weights, mixture.components)
    ]
    return np.column_stack(columns)


def mixture_log_pdf(mixture, points: np.ndarray) -> np.ndarray:
    """``GaussianMixture.log_pdf``."""
    return logsumexp_rows(component_log_pdf(mixture, points))


def pair_log_pdf(dist, points: np.ndarray) -> np.ndarray:
    """``PairDistribution.log_pdf`` as a two-term mixture of mixtures."""
    log_m = np.log(dist.match_probability) + mixture_log_pdf(
        dist.match_distribution, points
    )
    log_n = np.log1p(-dist.match_probability) + mixture_log_pdf(
        dist.non_match_distribution, points
    )
    return logsumexp(np.column_stack([log_m, log_n]), axis=1)


def posterior_match(dist, points: np.ndarray) -> np.ndarray:
    """``PairDistribution.posterior_match`` (paper Section IV-C)."""
    log_m = np.log(dist.match_probability) + mixture_log_pdf(
        dist.match_distribution, points
    )
    log_n = np.log1p(-dist.match_probability) + mixture_log_pdf(
        dist.non_match_distribution, points
    )
    return np.exp(log_m - np.logaddexp(log_m, log_n))
