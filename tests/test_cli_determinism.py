"""Cross-process determinism: two fresh ``repro synthesize`` invocations
with the same seed/config must write byte-identical exports WITHOUT
``PYTHONHASHSEED`` pinning.

The two historical leaks it was written for:

- background corpora seeded from builtin ``hash(column)`` (now the stable
  ``column_stream`` digest in ``repro.datasets.builder``),
- a token blocker iterating a ``set[str]`` of blocking keys (fixed by
  sorting; the blockers have since been deleted).

The test forces *different* hash randomization in the two children, so any
regression to ``hash()``-dependent ordering diverges the exports.
"""

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _synthesize(tmp_path, tag: str, hash_seed: str) -> pathlib.Path:
    out_dir = tmp_path / f"export_{tag}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed  # deliberately different per run
    subprocess.run(
        [
            sys.executable, "-m", "repro", "synthesize",
            "--dataset", "restaurant",
            "--scale", "0.04",
            "--seed", "7",
            "--out", str(out_dir),
        ],
        check=True,
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        timeout=280,
    )
    return out_dir


def test_synthesize_is_cross_process_deterministic(tmp_path):
    first = _synthesize(tmp_path, "a", hash_seed="11")
    second = _synthesize(tmp_path, "b", hash_seed="99")

    names_first = sorted(p.name for p in first.iterdir())
    names_second = sorted(p.name for p in second.iterdir())
    assert names_first == names_second and names_first

    for name in names_first:
        bytes_first = (first / name).read_bytes()
        bytes_second = (second / name).read_bytes()
        assert bytes_first == bytes_second, (
            f"export file {name!r} differs between two synthesize runs "
            "with different PYTHONHASHSEED — a hash()/set-ordering "
            "dependence crept back in"
        )
