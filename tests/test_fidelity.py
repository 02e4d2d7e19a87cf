"""Fidelity guard: seeded outputs may change, the synthetic distribution's
distance to the real one and the rejection fallback rate may not grow.

Each run fits one restaurant model (scale 0.1, seed 7), then synthesizes
full-size tables per job seed and shard count, reading
``evaluation_jsd(O_syn, O_labeling)`` (8,192 points on a seed of its own)
and the fallback rate ``fallback_accepted / (accepted +
fallback_accepted)``.  The tolerances are pinned from the spread of the
per-candidate resampling estimator over job seeds 1-10 at the same scale:

=========  ====  =====================  =====================
shards     runs  evaluation JSD         fallback rate
                 mean / sd (nats)       mean / sd
=========  ====  =====================  =====================
1          10    0.1448 / 0.0632        0.6123 / 0.0530
2          10    0.1514 / 0.0724        0.6018 / 0.0573
1 and 2    20    0.1481 / 0.0662        0.6070 / 0.0540
4          10    0.1221 / 0.0639 (9)    0.5250 / 0.0374
=========  ====  =====================  =====================

(In brackets: runs whose O_syn bootstrapped, where not all did.)  One
shards=2 run reads exactly 0.0: its O_syn has near-singular components,
and the Monte-Carlo log ratios clip both KL terms to zero; the pinned
figures include it as the estimator reports it.  A check allows the pinned
mean plus three standard errors of a mean over its own run count.  At this
scale SERD- reads about the same JSD, so the guard bounds drift from
estimator or loop changes; it cannot stand in for a rejection-ablation
check.

The fast variant (3 seeds x shards 1, 2) runs in tier-1; the full one
(10 seeds x shards 1, 2, 4) only with ``-m fidelity``.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from repro import SERDConfig, SERDSynthesizer, load_dataset
from repro.distributions import evaluation_jsd

# shards -> (JSD mean, JSD sd, fallback mean, fallback sd) of the pinned runs.
PINNED = {
    (1,): (0.1448, 0.0632, 0.6123, 0.0530),
    (2,): (0.1514, 0.0724, 0.6018, 0.0573),
    (1, 2): (0.1481, 0.0662, 0.6070, 0.0540),
    (4,): (0.1221, 0.0639, 0.5250, 0.0374),
}


@pytest.fixture(scope="module")
def fitted():
    synth = SERDSynthesizer(SERDConfig(seed=7))
    synth.fit(load_dataset("restaurant", scale=0.1, seed=7))
    return synth


def _runs(synth, seeds, shards):
    base = synth.config
    jsds, fallbacks = [], []
    try:
        for seed in seeds:
            for n_shards in shards:
                # A job seed drives the loop RNG, the shard streams and the
                # rejection estimator, as a service job's seed does.
                synth.config = dataclasses.replace(base, seed=seed)
                synth.rng = np.random.default_rng(seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    out = synth.synthesize(n_shards=n_shards)
                if out.o_syn is not None:
                    jsds.append(evaluation_jsd(out.o_syn, synth.o_labeling))
                stats = out.rejection_stats
                slots = stats["accepted"] + stats["fallback_accepted"]
                fallbacks.append(stats["fallback_accepted"] / slots)
    finally:
        synth.config = base
    return jsds, fallbacks


def _check(jsds, fallbacks, pinned, n_runs):
    jsd_mean, jsd_sd, fallback_mean, fallback_sd = pinned
    # O_syn must bootstrap on nearly every run (the pinned runs missed one
    # in ten at most).
    assert len(jsds) >= n_runs - max(1, n_runs // 10)
    assert np.mean(jsds) <= jsd_mean + 3 * jsd_sd / math.sqrt(len(jsds))
    assert np.mean(fallbacks) <= fallback_mean + 3 * fallback_sd / math.sqrt(n_runs)


@pytest.mark.fidelity
def test_fidelity_fast(fitted):
    jsds, fallbacks = _runs(fitted, seeds=(1, 2, 3), shards=(1, 2))
    _check(jsds, fallbacks, PINNED[(1, 2)], n_runs=6)


@pytest.mark.fidelity(full=True)
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_fidelity_full(fitted, shards):
    jsds, fallbacks = _runs(fitted, seeds=range(1, 11), shards=(shards,))
    _check(jsds, fallbacks, PINNED[(shards,)], n_runs=10)
