"""Monte-Carlo Jensen-Shannon divergence between pair distributions.

Paper Eq. 3 measures how far the synthetic O-distribution has drifted from
the real one with ``JSD(p || q)``.  GMM mixtures admit no closed-form KL, so
we estimate it with Monte-Carlo samples from each side.  In the rejection
loop, :class:`PairJsdEstimator` draws the p-side points once per commit from
the committed O_syn and scores each candidate ``O'_syn`` by importance
weights on those same points, so both sides of Eq. 10 see the same sample
noise and a candidate costs one density evaluation.  :func:`evaluation_jsd`
is the large-sample figure fidelity checks use, seeded apart from the loop.
"""

from __future__ import annotations

import numpy as np

_LOG_HALF = float(np.log(0.5))


class PairJsdEstimator:
    """``JSD(p', q)`` of many candidate distributions against one reference.

    The rejection loop compares thousands of candidates ``O'_syn`` with the
    same ``O_real`` (Eq. 10), and each candidate differs from the committed
    O_syn by a single entity's ``Delta X_syn``.  So the estimator fixes its
    Monte-Carlo points and reweights them instead of resampling:

    - the q-side points are drawn once from ``dist_q`` (substream
      ``[seed, 2]``) and ``log q`` is cached there;
    - :meth:`rebase` draws the p-side points from a *base* distribution
      ``p`` (substream ``[seed, 1]``, once per commit in the rejection
      loop) and caches ``log p`` at both point sets and ``log q`` at the
      p-side points;
    - a call scores ``p'`` with one ``log_pdf`` over both point sets.
      ``KL(p' || m')`` is the mean over the p-side points under the
      self-normalised importance weights ``p'(x) / p(x)``; ``KL(q || m')``
      is the plain mean over the q-side points.

    With ``p' = p`` the weights are uniform and the estimate is the plain
    two-sample formula, so ``JSD(O_syn, O_real)`` and every candidate's
    ``JSD(O'_syn, O_real)`` share their sample noise.  Every value is a
    pure function of ``(base, dist_p, dist_q, seed, n_samples)``.
    """

    def __init__(self, dist_q, *, seed: int = 0, n_samples: int = 2048):
        self.dist_q = dist_q
        self.seed = int(seed)
        self.half = max(1, n_samples // 2)
        self._x_q = dist_q.sample(
            self.half, np.random.default_rng([self.seed, 2])
        )[0]
        self._log_q_xq = dist_q.log_pdf(self._x_q)
        self.base = None

    def rebase(self, dist_p) -> None:
        """Draw the p-side points from ``dist_p`` and cache its densities."""
        x_p = dist_p.sample(self.half, np.random.default_rng([self.seed, 1]))[0]
        self._points = np.vstack([x_p, self._x_q])
        self._log_base = dist_p.log_pdf(self._points)
        self._log_q_xp = self.dist_q.log_pdf(x_p)
        self.base = dist_p

    def __call__(self, dist_p) -> float:
        """``JSD(dist_p, dist_q)`` on the current base's points, in nats."""
        if self.base is None:
            raise RuntimeError("PairJsdEstimator has no base; call rebase() first")
        log_p = (
            self._log_base if dist_p is self.base else dist_p.log_pdf(self._points)
        )
        log_p_xp, log_p_xq = log_p[: self.half], log_p[self.half:]
        log_w = log_p_xp - self._log_base[: self.half]
        weights = np.exp(log_w - log_w.max())
        log_m_xp = np.logaddexp(_LOG_HALF + log_p_xp, _LOG_HALF + self._log_q_xp)
        kl_pm = max(0.0, float(np.average(log_p_xp - log_m_xp, weights=weights)))
        log_m_xq = np.logaddexp(_LOG_HALF + log_p_xq, _LOG_HALF + self._log_q_xq)
        kl_qm = max(0.0, float(np.mean(self._log_q_xq - log_m_xq)))
        return float(np.clip(0.5 * kl_pm + 0.5 * kl_qm, 0.0, np.log(2.0)))


def pair_distribution_jsd(
    dist_p,
    dist_q,
    *,
    seed: int = 0,
    n_samples: int = 2048,
) -> float:
    """JSD between two :class:`~repro.distributions.PairDistribution` objects.

    One-shot use of :class:`PairJsdEstimator` with ``dist_p`` as its own
    base: generators are built from ``seed``, so repeated evaluations of the
    same pair see the same sample noise.  Loops scoring many candidates
    against one reference should hold an estimator instead, which caches
    the reference side and reuses the base's points across candidates.
    """
    estimator = PairJsdEstimator(dist_q, seed=seed, n_samples=n_samples)
    estimator.rebase(dist_p)
    return estimator(dist_p)


#: Sample size and seed of :func:`evaluation_jsd`.  Both are fixed and kept
#: apart from the rejection estimator's (``repro.core.rejection.JSD_SAMPLES``
#: and the ``seed + JSD_STREAM`` stream), so a fidelity figure never moves
#: with the rejection loop's own noise.
EVALUATION_JSD_SAMPLES = 8192
EVALUATION_JSD_SEED = 0xE7A1


def evaluation_jsd(dist_p, dist_q) -> float:
    """``JSD(dist_p, dist_q)`` for evaluation: fidelity checks and reports.

    A large fixed sample with its own seed, so its Monte-Carlo error is
    small next to the run-to-run spread it is meant to measure.
    """
    return pair_distribution_jsd(
        dist_p, dist_q, seed=EVALUATION_JSD_SEED, n_samples=EVALUATION_JSD_SAMPLES
    )
