"""Property tests: stacked density kernels equal the per-component oracle.

``GaussianMixture`` evaluates every component in one whitening matmul and a
hand-rolled row log-sum-exp; :mod:`tests.reference.densities` composes the
same densities one component at a time through scipy.  Seeded
(derandomized) hypothesis tests over random mixtures require agreement
within 1e-10.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributions.gaussian import GaussianComponent
from repro.distributions.gmm import GaussianMixture, logsumexp_rows
from repro.distributions.mixture import PairDistribution

from tests.reference import densities as reference

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
TOLERANCE = dict(rtol=1e-10, atol=1e-10)


def _mixture(rng: np.random.Generator, dim: int, n_components: int) -> GaussianMixture:
    components = []
    for _ in range(n_components):
        factor = rng.normal(scale=0.3, size=(dim, dim))
        covariance = factor @ factor.T + rng.uniform(1e-3, 0.1) * np.eye(dim)
        components.append(GaussianComponent(rng.uniform(-0.5, 1.5, dim), covariance))
    weights = rng.dirichlet(np.ones(n_components))
    return GaussianMixture(weights, tuple(components))


def _points(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    # Mostly near the unit cube, plus far-away rows whose densities are
    # many orders of magnitude below the mode.
    points = rng.uniform(-0.5, 1.5, size=(count, dim))
    points[::4] *= 20.0
    return points


_CASES = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),  # seed
    st.integers(min_value=1, max_value=6),  # dim
    st.integers(min_value=1, max_value=4),  # components
    st.integers(min_value=1, max_value=40),  # points
)


class TestGaussianMixture:
    @SETTINGS
    @given(_CASES)
    def test_component_log_pdf(self, case):
        seed, dim, g, n = case
        rng = np.random.default_rng(seed)
        mixture = _mixture(rng, dim, g)
        points = _points(rng, dim, n)
        np.testing.assert_allclose(
            mixture.component_log_pdf(points),
            reference.component_log_pdf(mixture, points),
            **TOLERANCE,
        )

    @SETTINGS
    @given(_CASES)
    def test_log_pdf(self, case):
        seed, dim, g, n = case
        rng = np.random.default_rng(seed)
        mixture = _mixture(rng, dim, g)
        points = _points(rng, dim, n)
        np.testing.assert_allclose(
            mixture.log_pdf(points),
            reference.mixture_log_pdf(mixture, points),
            **TOLERANCE,
        )
        for component in mixture.components:
            np.testing.assert_allclose(
                component.log_pdf(points),
                reference.gaussian_log_pdf(component, points),
                **TOLERANCE,
            )


class TestPairDistribution:
    @SETTINGS
    @given(_CASES, st.floats(min_value=0.01, max_value=0.99))
    def test_log_pdf_and_posterior(self, case, pi):
        seed, dim, g, n = case
        rng = np.random.default_rng(seed)
        dist = PairDistribution(pi, _mixture(rng, dim, g), _mixture(rng, dim, g))
        points = _points(rng, dim, n)
        np.testing.assert_allclose(
            dist.log_pdf(points), reference.pair_log_pdf(dist, points), **TOLERANCE
        )
        np.testing.assert_allclose(
            dist.posterior_match(points),
            reference.posterior_match(dist, points),
            **TOLERANCE,
        )


_ENTRIES = st.one_of(
    st.just(-np.inf),
    st.floats(min_value=-800.0, max_value=800.0, allow_nan=False),
)


class TestLogSumExpRows:
    @SETTINGS
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 6)),
            elements=_ENTRIES,
        ),
        st.integers(min_value=0, max_value=7),
    )
    def test_matches_scipy_including_all_neg_inf_rows(self, a, blank_row):
        a = a.copy()
        a[blank_row % len(a)] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = reference.logsumexp_rows(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the kernel must stay silent
            got = logsumexp_rows(a)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], **TOLERANCE)
