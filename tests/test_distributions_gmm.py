"""Tests for the GMM/EM substrate and Gaussian components."""

import numpy as np
import pytest

from repro.distributions import (
    GaussianComponent,
    GaussianMixture,
    fit_gmm,
    log_gaussian_pdf,
    select_gmm_by_aic,
)
from repro.distributions.gaussian import regularize_covariance


class TestGaussianComponent:
    def test_log_pdf_matches_scipy(self, rng):
        from scipy.stats import multivariate_normal

        mean = np.array([0.5, -1.0])
        cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        component = GaussianComponent(mean, cov)
        points = rng.normal(size=(20, 2))
        expected = multivariate_normal(mean, component.covariance).logpdf(points)
        np.testing.assert_allclose(component.log_pdf(points), expected, rtol=1e-8)

    def test_degenerate_covariance_regularized(self):
        component = GaussianComponent(np.zeros(2), np.zeros((2, 2)))
        assert np.isfinite(component.log_pdf(np.zeros((1, 2)))[0])

    def test_sample_statistics(self, rng):
        component = GaussianComponent(np.array([2.0, -3.0]), np.eye(2) * 0.25)
        samples = component.sample(4000, rng)
        np.testing.assert_allclose(samples.mean(axis=0), [2.0, -3.0], atol=0.05)
        np.testing.assert_allclose(samples.std(axis=0), [0.5, 0.5], atol=0.05)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GaussianComponent(np.zeros(2), np.eye(3))

    def test_chol_inverse_equals_solve_triangular(self, rng):
        """The direct LAPACK call returns exactly what the scipy wrapper
        returned, so seeded outputs stay byte-identical."""
        from scipy.linalg import solve_triangular

        for _ in range(800):
            d = int(rng.integers(4, 9))
            a = rng.normal(size=(d, d + 3))
            cov = a @ a.T / d + np.eye(d) * rng.uniform(1e-6, 1.0)
            component = GaussianComponent(np.zeros(d), cov)
            expected = solve_triangular(
                np.linalg.cholesky(component.covariance), np.eye(d), lower=True
            )
            assert np.array_equal(component.chol_inverse, expected)

    def test_functional_form(self):
        value = log_gaussian_pdf(np.zeros((1, 1)), np.zeros(1), np.eye(1))
        assert value[0] == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-5)


class TestRegularize:
    def test_already_pd_barely_changed(self):
        cov = np.eye(3)
        out = regularize_covariance(cov, ridge=1e-6)
        np.testing.assert_allclose(out, cov, atol=1e-5)

    def test_asymmetric_input_symmetrized(self):
        cov = np.array([[1.0, 0.2], [0.0, 1.0]])
        out = regularize_covariance(cov)
        np.testing.assert_allclose(out, out.T)


class TestGaussianMixture:
    def _mixture(self):
        return GaussianMixture(
            np.array([0.3, 0.7]),
            (
                GaussianComponent(np.array([0.0]), np.eye(1)),
                GaussianComponent(np.array([5.0]), np.eye(1)),
            ),
        )

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture(
                np.array([0.5, 0.9]),
                (
                    GaussianComponent(np.zeros(1), np.eye(1)),
                    GaussianComponent(np.ones(1), np.eye(1)),
                ),
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture(
                np.array([0.5, 0.5]),
                (
                    GaussianComponent(np.zeros(1), np.eye(1)),
                    GaussianComponent(np.zeros(2), np.eye(2)),
                ),
            )

    def test_pdf_integrates_via_sampling(self, rng):
        mixture = self._mixture()
        samples = mixture.sample(5000, rng)
        # Around 30% of mass near 0, 70% near 5.
        near_zero = np.mean(np.abs(samples) < 2.0)
        assert near_zero == pytest.approx(0.3, abs=0.05)

    def test_responsibilities_sum_to_one(self, rng):
        mixture = self._mixture()
        points = rng.normal(size=(50, 1)) * 3
        gamma = mixture.responsibilities(points)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)

    def test_n_parameters(self):
        mixture = self._mixture()
        # g=2, d=1: (g-1) + g*d + g*1 = 1 + 2 + 2
        assert mixture.n_parameters() == 5

    def test_serialization_roundtrip(self, rng):
        mixture = self._mixture()
        clone = GaussianMixture.from_dict(mixture.to_dict())
        points = rng.normal(size=(10, 1))
        # from_dict re-applies the covariance ridge, so allow ~1e-6 slack.
        np.testing.assert_allclose(
            clone.log_pdf(points), mixture.log_pdf(points), rtol=1e-5
        )

    def test_sample_zero(self, rng):
        assert self._mixture().sample(0, rng).shape == (0, 1)


class TestEMFitting:
    def test_recovers_two_clusters(self, rng):
        points = np.vstack([
            rng.normal([0, 0], 0.2, size=(150, 2)),
            rng.normal([4, 4], 0.3, size=(250, 2)),
        ])
        mixture = fit_gmm(points, 2, rng)
        means = sorted(mixture.means[:, 0])
        assert means[0] == pytest.approx(0.0, abs=0.15)
        assert means[1] == pytest.approx(4.0, abs=0.15)
        weights = sorted(mixture.weights)
        assert weights[0] == pytest.approx(0.375, abs=0.05)

    def test_log_likelihood_improves_with_components(self, rng):
        points = np.vstack([
            rng.normal([0, 0], 0.2, size=(100, 2)),
            rng.normal([5, 5], 0.2, size=(100, 2)),
        ])
        one = fit_gmm(points, 1, rng)
        two = fit_gmm(points, 2, rng)
        assert two.log_likelihood_ > one.log_likelihood_

    def test_more_components_than_points_clamped(self, rng):
        points = rng.normal(size=(3, 2))
        mixture = fit_gmm(points, 10, rng)
        assert mixture.n_components <= 3

    def test_zero_points_rejected(self, rng):
        with pytest.raises(ValueError):
            fit_gmm(np.empty((0, 2)), 1, rng)

    def test_invalid_component_count(self, rng):
        with pytest.raises(ValueError):
            fit_gmm(np.zeros((5, 2)), 0, rng)

    def test_constant_data_handled(self, rng):
        points = np.ones((30, 3))
        mixture = fit_gmm(points, 2, rng)
        assert np.isfinite(mixture.log_pdf(points)).all()


class TestAICSelection:
    def test_selects_two_for_bimodal(self, rng):
        points = np.vstack([
            rng.normal([0.0], 0.1, size=(200, 1)),
            rng.normal([3.0], 0.1, size=(200, 1)),
        ])
        mixture = select_gmm_by_aic(points, rng, max_components=4)
        assert mixture.n_components >= 2

    def test_selects_one_for_unimodal(self, rng):
        points = rng.normal(0.0, 1.0, size=(300, 1))
        mixture = select_gmm_by_aic(points, rng, max_components=3)
        assert mixture.n_components == 1

    def test_aic_lower_for_better_model(self, rng):
        points = np.vstack([
            rng.normal([0.0], 0.1, size=(150, 1)),
            rng.normal([5.0], 0.1, size=(150, 1)),
        ])
        one = fit_gmm(points, 1, rng)
        two = fit_gmm(points, 2, rng)
        assert two.aic(points) < one.aic(points)
        assert two.bic(points) < one.bic(points)
