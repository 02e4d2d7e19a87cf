"""Perf trajectory — scalar vs kernel similarity computation.

Times the three kernel shapes against the scalar reference path
(:mod:`tests.reference.similarity`) on the restaurant benchmark and writes ``BENCH_similarity_kernels.json`` at the repo
root:

- **cross_block**: S3 labeling (``label_all_pairs``);
- **one_vs_many**: the S2 ``Delta X_syn`` shape.

Runnable standalone (``python benchmarks/bench_similarity_kernels.py``) or
through pytest (``pytest benchmarks/bench_similarity_kernels.py``).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # tests.reference
OUTPUT_PATH = REPO_ROOT / "BENCH_similarity_kernels.json"


def _timed(func) -> tuple[float, object]:
    started = time.perf_counter()
    result = func()
    return time.perf_counter() - started, result


def run(scale: float = 1.0, seed: int = 11) -> dict:
    from repro.core.labeling import label_all_pairs
    from repro.datasets import load_dataset
    from repro.distributions.mixture import PairDistribution
    from repro.similarity.vector import SimilarityModel
    from tests.reference import similarity as reference

    dataset = load_dataset("restaurant", scale=scale, seed=seed)
    rng = np.random.default_rng(seed)
    model = SimilarityModel.from_relations(dataset.table_a, dataset.table_b)
    x_pos = model.pairs_for_ids(dataset.table_a, dataset.table_b, dataset.matches)
    negatives = dataset.sample_non_matches(3 * len(dataset.matches), rng)
    x_neg = model.pairs_for_ids(dataset.table_a, dataset.table_b, negatives)
    o_real = PairDistribution.fit(x_pos, x_neg, rng, max_components=2)

    results: dict[str, dict] = {}

    def record(name: str, shape: str, scalar_fn, kernel_fn) -> None:
        scalar_s, scalar_result = _timed(scalar_fn)
        kernel_s, kernel_result = _timed(kernel_fn)
        assert _comparable(scalar_result) == _comparable(kernel_result), name
        results[name] = {
            "shape": shape,
            "scalar_seconds": round(scalar_s, 4),
            "kernel_seconds": round(kernel_s, 4),
            "speedup": round(scalar_s / kernel_s, 2) if kernel_s else None,
        }

    n_a, n_b = len(dataset.table_a), len(dataset.table_b)
    record(
        "label_all_pairs_dense",
        f"{n_a}x{n_b} cross pairs",
        lambda: reference.label_all_pairs(
            dataset.table_a, dataset.table_b, set(), o_real, model,
        ),
        lambda: label_all_pairs(
            dataset.table_a, dataset.table_b, set(), o_real, model,
        ),
    )

    anchors = list(dataset.table_a)[:40]
    partners = list(dataset.table_b)
    record(
        "one_vs_many",
        f"{len(anchors)} anchors x {len(partners)} partners",
        lambda: [
            model.vectors_scalar((anchor, p) for p in partners)
            for anchor in anchors
        ],
        lambda: [model.one_vs_many(anchor, partners) for anchor in anchors],
    )

    payload = {
        "benchmark": "similarity_kernels",
        "dataset": "restaurant",
        "scale": scale,
        "seed": seed,
        "sizes": {"n_a": n_a, "n_b": n_b, "n_matches": len(dataset.matches)},
        "results": results,
    }
    return payload


def _comparable(result):
    """Normalize a benchmark result for equality checking."""
    if isinstance(result, list):  # list of ndarrays (one_vs_many shape)
        return [np.asarray(r).tolist() for r in result]
    return result


def report(payload: dict) -> str:
    lines = [
        "Similarity kernels: scalar vs vectorized "
        f"(restaurant, scale={payload['scale']})",
        f"{'scenario':28s} {'shape':32s} {'scalar':>9s} {'kernel':>9s} {'speedup':>8s}",
    ]
    for name, row in payload["results"].items():
        lines.append(
            f"{name:28s} {row['shape']:32s} {row['scalar_seconds']:8.2f}s "
            f"{row['kernel_seconds']:8.2f}s {row['speedup']:7.1f}x"
        )
    return "\n".join(lines)


def main(scale: float = 1.0) -> dict:
    payload = run(scale=scale)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    print(f"[written to {OUTPUT_PATH}]")
    return payload


def test_similarity_kernels_bench(reports):
    payload = main(scale=1.0)
    reports.save("similarity_kernels", report(payload))
    dense = payload["results"]["label_all_pairs_dense"]
    assert dense["speedup"] >= 5.0, dense


if __name__ == "__main__":
    main()
