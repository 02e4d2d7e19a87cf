"""Perf trajectory — NN engine: KV-cached decoding and vectorized DP-SGD.

Times the engine's optimizations against their reference oracles and writes
``BENCH_nn_engine.json`` at the repo root:

- **decode**: tokens/sec of KV-cached incremental decoding
  (``generate``) vs the full-prefix re-decode (:mod:`tests.reference.decode`)
  at several pinned decode lengths;
- **dp_sgd**: examples/sec of ``dp_sgd_step_vectorized`` (one batched
  forward/backward with per-sample gradients) vs the per-example
  ``dp_sgd_step`` loop;
- **synthesize**: end-to-end S2 candidate throughput of
  ``TransformerTextSynthesizer.synthesize`` with cached vs full-prefix
  decoding.

Every timed pair is also checked for equivalence (byte-identical sequences;
parameter deltas to 1e-10 between loop and vectorized DP-SGD) so the
benchmark doubles as an oracle run.

Usage::

    PYTHONPATH=src python benchmarks/bench_nn_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_nn_engine.py --smoke --out FILE

``--smoke`` shrinks every scale so the run finishes in well under a minute
and exits nonzero if the cached path is not faster than uncached at the
largest smoke length (a perf regression gate, not a statistical benchmark).
A smoke run needs an explicit ``--out`` so it never replaces the full-mode
``BENCH_nn_engine.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_nn_engine.json"
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # tests.reference


def _timed(func) -> tuple[float, object]:
    started = time.perf_counter()
    result = func()
    return time.perf_counter() - started, result


def _best_timed(func, reps: int) -> tuple[float, object]:
    """Best-of-``reps`` wall time (first call result kept for equivalence)."""
    best, result = _timed(func)
    for _ in range(reps - 1):
        elapsed, _ = _timed(func)
        best = min(best, elapsed)
    return best, result


# ----------------------------------------------------------------------
# 1. KV-cached decoding: cached vs uncached
# ----------------------------------------------------------------------
def bench_decode(smoke: bool) -> dict:
    from repro.nn.transformer import Seq2SeqTransformer, TransformerConfig
    from tests.reference import decode as reference

    if smoke:
        lengths, batch, reps = [8, 24], 4, 3
        config = TransformerConfig(
            vocab_size=28, d_model=32, n_heads=2, n_encoder_layers=1,
            n_decoder_layers=1, d_feedforward=64, dropout=0.0, max_length=32,
        )
    else:
        lengths, batch, reps = [32, 64, 128], 8, 3
        config = TransformerConfig(
            vocab_size=40, d_model=64, n_heads=4, n_encoder_layers=2,
            n_decoder_layers=2, d_feedforward=128, dropout=0.0, max_length=144,
        )
    model = Seq2SeqTransformer(config, np.random.default_rng(3))
    src = np.random.default_rng(4).integers(4, config.vocab_size, size=(batch, 12))

    results = {}
    for length in lengths:
        # min_new_tokens == max_new_tokens pins every row to exactly
        # ``length`` decode steps, so both paths emit batch*length tokens.
        def decode(cached: bool):
            kwargs = dict(
                temperature=0.9, rng=np.random.default_rng(length),
                max_new_tokens=length, min_new_tokens=length,
            )
            if cached:
                return model.generate(src, **kwargs)
            return reference.generate(model, src, **kwargs)

        decode(True)  # warm-up
        cached_s, cached_out = _best_timed(lambda: decode(True), reps)
        uncached_s, uncached_out = _timed(lambda: decode(False))

        assert cached_out == uncached_out, f"decode mismatch at length {length}"
        tokens = batch * length
        results[f"decode_len_{length}"] = {
            "shape": f"{batch} rows x {length} pinned steps",
            "cached_tokens_per_s": round(tokens / cached_s, 1),
            "uncached_tokens_per_s": round(tokens / uncached_s, 1),
            "speedup": round(uncached_s / cached_s, 2),
        }
    return results


# ----------------------------------------------------------------------
# 2. Vectorized per-sample gradients vs per-example DP-SGD loop
# ----------------------------------------------------------------------
def bench_dp_sgd(smoke: bool) -> dict:
    from repro.nn.losses import cross_entropy, cross_entropy_per_example
    from repro.nn.transformer import Seq2SeqTransformer, TransformerConfig
    from repro.privacy.dpsgd import (
        DPSGDConfig,
        dp_sgd_step,
        dp_sgd_step_vectorized,
    )

    batch, min_len, max_len, steps = (8, 5, 10, 2) if smoke else (32, 8, 14, 4)
    config = TransformerConfig(
        vocab_size=30, d_model=32, n_heads=2, n_encoder_layers=1,
        n_decoder_layers=1, d_feedforward=64, dropout=0.0, max_length=24,
    )
    data_rng = np.random.default_rng(7)
    examples = []
    for _ in range(batch):
        src = list(data_rng.integers(4, 30, size=int(data_rng.integers(min_len, max_len)))) + [2]
        tgt = [1] + list(data_rng.integers(4, 30, size=int(data_rng.integers(min_len, max_len)))) + [2]
        examples.append((src, tgt[:-1], tgt[1:]))

    def pad(seqs):
        width = max(len(s) for s in seqs)
        out = np.zeros((len(seqs), width), dtype=np.int64)
        for row, seq in enumerate(seqs):
            out[row, : len(seq)] = seq
        return out

    def per_example_loss(module, example):
        src, tgt_in, tgt_out = example
        logits = module(np.asarray([src]), np.asarray([tgt_in]))
        return cross_entropy(logits, np.asarray([tgt_out]), ignore_index=0)

    def batch_loss(module, group):
        logits = module(pad([b[0] for b in group]), pad([b[1] for b in group]))
        return cross_entropy_per_example(
            logits, pad([b[2] for b in group]), ignore_index=0
        )

    dp = DPSGDConfig(noise_scale=1.0, clip_norm=0.5, learning_rate=0.05)
    loop_model = Seq2SeqTransformer(config, np.random.default_rng(11))
    fast_model = Seq2SeqTransformer(config, np.random.default_rng(11))

    def run_loop():
        rng = np.random.default_rng(13)
        for _ in range(steps):
            dp_sgd_step(loop_model, examples, per_example_loss, dp, rng)

    def run_fast(module):
        rng = np.random.default_rng(13)
        for _ in range(steps):
            dp_sgd_step_vectorized(module, examples, batch_loss, dp, rng)

    run_fast(Seq2SeqTransformer(config, np.random.default_rng(11)))  # warm-up

    loop_s, _ = _timed(run_loop)
    fast_s, _ = _timed(lambda: run_fast(fast_model))
    drift = max(
        float(np.abs(a.data - b.data).max())
        for a, b in zip(loop_model.parameters(), fast_model.parameters())
    )
    assert drift < 1e-10, f"DP-SGD paths diverged: {drift}"
    processed = batch * steps
    return {
        "shape": f"{steps} steps x {batch} ragged seq2seq examples",
        "loop_examples_per_s": round(processed / loop_s, 1),
        "vectorized_examples_per_s": round(processed / fast_s, 1),
        "speedup": round(loop_s / fast_s, 2),
        "max_param_drift": drift,
    }


# ----------------------------------------------------------------------
# 3. End-to-end S2 candidate synthesis, cache on vs off
# ----------------------------------------------------------------------
def bench_synthesize(smoke: bool) -> dict:
    from repro.textgen.transformer_backend import (
        TransformerTextSynthesizer,
        TransformerTextSynthesizerConfig,
    )
    from tests.reference import decode as reference

    calls = 4 if smoke else 12
    config = TransformerTextSynthesizerConfig(
        n_buckets=4, n_candidates=6, pairs_per_bucket=24,
        training_iterations=4 if smoke else 10, max_length=16 if smoke else 32,
        dropout=0.0,
    )
    corpus = [
        "golden gate grill san francisco",
        "cafe du monde new orleans",
        "union square bistro",
        "river north tavern chicago",
        "harbor light diner seattle",
        "palm court brasserie",
        "blue bayou kitchen",
        "midtown noodle house",
    ]
    synthesizer = TransformerTextSynthesizer(config)
    synthesizer.fit(corpus, np.random.default_rng(21))
    requests = [
        (corpus[i % len(corpus)], 0.2 + 0.6 * (i / max(1, calls - 1)))
        for i in range(calls)
    ]

    def run():
        rng = np.random.default_rng(31)
        return [
            synthesizer.synthesize(text, sim, rng).text
            for text, sim in requests
        ]

    run()  # warm-up
    cached_s, cached_out = _timed(run)
    with reference.uncached():
        uncached_s, uncached_out = _timed(run)
    assert cached_out == uncached_out, "synthesize outputs diverged"
    candidates = calls * config.n_candidates
    return {
        "shape": f"{calls} synthesize calls x {config.n_candidates} candidates",
        "cached_candidates_per_s": round(candidates / cached_s, 1),
        "uncached_candidates_per_s": round(candidates / uncached_s, 1),
        "speedup": round(uncached_s / cached_s, 2),
        "decode_stats": synthesizer.generation_stats(),
    }


def run(smoke: bool = False) -> dict:
    report = {
        "benchmark": "nn_engine",
        "mode": "smoke" if smoke else "full",
        "results": {
            "decode": bench_decode(smoke),
            "dp_sgd": bench_dp_sgd(smoke),
            "synthesize": bench_synthesize(smoke),
        },
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny scales for CI; fail if cached decode is not faster "
        "than the full-prefix oracle",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=OUTPUT_PATH,
        help=f"output JSON path (default {OUTPUT_PATH})",
    )
    args = parser.parse_args(argv)
    if args.smoke and args.out.resolve() == OUTPUT_PATH:
        parser.error(f"--smoke needs --out: {OUTPUT_PATH.name} holds the full run")
    report = run(smoke=args.smoke)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    print(f"wrote {args.out}")
    if args.smoke:
        decode = report["results"]["decode"]
        largest = decode[max(decode, key=lambda k: int(k.rsplit("_", 1)[1]))]
        if largest["speedup"] <= 1.0:
            print(
                "SMOKE FAIL: cached decode not faster at largest prefix "
                f"(speedup {largest['speedup']}x)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
