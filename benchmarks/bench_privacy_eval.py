"""Perf trajectory — the privacy audit battery at scale.

Two questions this benchmark answers:

1. **DCR throughput**: the nearest-record battery streams the synthetic ×
   real cross product through the PR 1 similarity kernels
   (:func:`repro.similarity.kernels.iter_cross_blocks`).  At audit scale
   (restaurant × 5: thousands of real records per side) the kernel path
   must beat the naive all-pairs scalar loop by a wide margin — that gap
   is what makes a publish-time audit affordable.  The scalar loop is
   measured on a row subset and extrapolated to pairs/second (its cost is
   linear in rows), the kernel path on the full cross product.  The scalar
   loop is :mod:`tests.reference.similarity`; both are bit-identical
   (asserted here on the shared subset, and in
   tests/test_privacy_attacks.py).
2. **Attack wall-clock**: how long one membership-inference battery and
   one full :func:`~repro.privacy.report.build_privacy_report` publish
   audit take at the default audit knobs.

Writes ``BENCH_privacy_eval.json`` at the repo root.  Runnable standalone
(``python benchmarks/bench_privacy_eval.py [--smoke]``) or through
pytest.  ``--smoke`` is the CI mode: small tables, equivalence asserted,
no throughput floor (CI machines are noisy; the floor applies at scale).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # tests.reference
OUTPUT_PATH = REPO_ROOT / "BENCH_privacy_eval.json"

FULL = {
    "scale": 5.0,  # the paper's scalability regime (restaurant x5)
    "n_synthetic": 256,
    "scalar_rows": 24,  # scalar loop rows measured, then extrapolated
    "seed": 11,
    "kernel_speedup_floor": 5.0,
}
SMOKE = {
    "scale": 0.2,
    "n_synthetic": 24,
    "scalar_rows": 12,
    "seed": 11,
    "kernel_speedup_floor": None,
}


def _dcr_throughput(params: dict) -> dict:
    from repro.datasets import load_dataset
    from repro.privacy.attacks import nearest_record_battery
    from repro.similarity.vector import SimilarityModel
    from tests.reference import similarity as reference

    real = load_dataset("restaurant", scale=params["scale"], seed=params["seed"])
    model = SimilarityModel.from_relations(real.table_a, real.table_b)
    real_rows = list(real.table_a)
    # Stand-in synthetic sample: perturbed real rows are irrelevant to
    # throughput; reuse table_b rows so the benchmark needs no fit.
    synthetic = list(real.table_b)[: params["n_synthetic"]]

    started = time.perf_counter()
    kernel_audit = nearest_record_battery(model, synthetic, real_rows)
    kernel_seconds = time.perf_counter() - started
    kernel_pairs = kernel_audit.pairs_scored

    subset = synthetic[: params["scalar_rows"]]
    started = time.perf_counter()
    scalar_audit = reference.nearest_record_battery(model, subset, real_rows)
    scalar_seconds = time.perf_counter() - started
    scalar_pairs = scalar_audit.pairs_scored

    # Same subset through the kernels must agree bit-for-bit.
    kernel_subset = nearest_record_battery(model, subset, real_rows)
    identical = kernel_subset == scalar_audit

    kernel_rate = kernel_pairs / kernel_seconds
    scalar_rate = scalar_pairs / scalar_seconds
    return {
        "n_real": len(real_rows),
        "n_synthetic": len(synthetic),
        "kernel": {
            "pairs": kernel_pairs,
            "seconds": round(kernel_seconds, 4),
            "pairs_per_second": round(kernel_rate, 1),
        },
        "scalar": {
            "pairs": scalar_pairs,
            "seconds": round(scalar_seconds, 4),
            "pairs_per_second": round(scalar_rate, 1),
        },
        "kernel_speedup": round(kernel_rate / scalar_rate, 2),
        "subset_bit_identical": identical,
    }


def _attack_wall_clock(params: dict) -> dict:
    from repro.core import SERDConfig, SERDSynthesizer
    from repro.datasets import load_dataset
    from repro.datasets.loaders import load_background
    from repro.privacy.attacks import run_membership_inference
    from repro.privacy.report import build_privacy_report
    from repro.textgen.transformer_backend import TransformerTextSynthesizerConfig

    fit_scale = min(params["scale"], 0.1)  # audit cost, not fit cost
    real = load_dataset("restaurant", scale=fit_scale, seed=params["seed"])
    synthesizer = SERDSynthesizer(SERDConfig(seed=params["seed"]))
    synthesizer.fit(real, train_gan=False)

    started = time.perf_counter()
    report = build_privacy_report(synthesizer, real, seed=params["seed"])
    report_seconds = time.perf_counter() - started

    pools = load_background("restaurant", size=80, seed=params["seed"])
    corpus = pools[sorted(pools)[0]][:64]
    mia_config = TransformerTextSynthesizerConfig(
        n_buckets=2, n_candidates=2, pairs_per_bucket=32,
        training_iterations=8, d_model=16, max_length=24,
    )
    started = time.perf_counter()
    mia = run_membership_inference(corpus, mia_config, seed=params["seed"])
    mia_seconds = time.perf_counter() - started
    return {
        "publish_audit_seconds": round(report_seconds, 3),
        "publish_audit_pairs": sum(
            side["pairs_scored"] for side in report["nearest_record"].values()
        ),
        "mia_seconds": round(mia_seconds, 3),
        "mia_auc": mia.auc,
    }


def run(*, smoke: bool = False) -> dict:
    params = SMOKE if smoke else FULL
    return {
        "mode": "smoke" if smoke else "full",
        "params": {k: v for k, v in params.items()},
        "dcr": _dcr_throughput(params),
        "attacks": _attack_wall_clock(params),
    }


def report(payload: dict) -> str:
    dcr = payload["dcr"]
    attacks = payload["attacks"]
    lines = [
        f"privacy audit benchmark ({payload['mode']}): "
        f"{dcr['n_synthetic']} synthetic x {dcr['n_real']} real",
        f"  kernel DCR: {dcr['kernel']['pairs_per_second']:>12.1f} pairs/s "
        f"({dcr['kernel']['pairs']} pairs in {dcr['kernel']['seconds']}s)",
        f"  scalar DCR: {dcr['scalar']['pairs_per_second']:>12.1f} pairs/s "
        f"({dcr['scalar']['pairs']} pairs in {dcr['scalar']['seconds']}s)",
        f"  kernel speedup: {dcr['kernel_speedup']}x "
        f"(subset bit-identical: {dcr['subset_bit_identical']})",
        f"  publish audit: {attacks['publish_audit_seconds']}s "
        f"({attacks['publish_audit_pairs']} pairs)",
        f"  membership inference: {attacks['mia_seconds']}s "
        f"(AUC {attacks['mia_auc']:.3f})",
    ]
    return "\n".join(lines)


def main(*, smoke: bool = False) -> dict:
    payload = run(smoke=smoke)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    print(f"[written to {OUTPUT_PATH}]")
    if payload["dcr"]["subset_bit_identical"] is not True:
        raise SystemExit("kernel and scalar DCR paths diverged")
    floor = payload["params"]["kernel_speedup_floor"]
    if floor is not None and payload["dcr"]["kernel_speedup"] < floor:
        raise SystemExit(
            f"kernel DCR speedup {payload['dcr']['kernel_speedup']}x below "
            f"the {floor}x floor"
        )
    return payload


def test_privacy_eval_bench(reports):
    payload = main(smoke=True)
    reports.save("privacy_eval", report(payload))
    assert payload["dcr"]["subset_bit_identical"] is True


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])
