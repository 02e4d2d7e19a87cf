"""Distribution substrate: multivariate GMMs and divergences.

Paper Sections II-B and IV-A: the matching (M) and non-matching (N)
similarity-vector distributions are modeled as multivariate Gaussian mixture
models fit with EM, the number of components selected by AIC, and the overall
O-distribution is the two-component mixture ``p = pi * p_m + (1 - pi) * p_n``.
Section V updates the synthetic O-distribution incrementally (Eqs. 8-9) and
compares distributions with Jensen-Shannon divergence (Eq. 3).
"""

from repro.distributions.divergence import (
    evaluation_jsd,
    pair_distribution_jsd,
)
from repro.distributions.gaussian import GaussianComponent, log_gaussian_pdf
from repro.distributions.gmm import GaussianMixture, fit_gmm, select_gmm_by_aic
from repro.distributions.incremental import IncrementalGMM
from repro.distributions.mixture import PairDistribution

__all__ = [
    "GaussianComponent",
    "GaussianMixture",
    "IncrementalGMM",
    "PairDistribution",
    "evaluation_jsd",
    "fit_gmm",
    "log_gaussian_pdf",
    "pair_distribution_jsd",
    "select_gmm_by_aic",
]
