"""Self-tests of the benchmark, at the smallest workload sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_benchmark.py

Each workload runs in its own process through ``run.py --tiny``, exactly
as the benchmark command runs it, only smaller.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> tuple[dict, list[dict]]:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[-1], lines[:-1]


def _check_metrics(result: dict, spec_metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    printed = {name: body["unit"] for name, body in result["metrics"].items()}
    assert printed == expected
    for body in result["metrics"].values():
        assert isinstance(body["value"], (int, float))


def test_spec_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER_UNITS


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_prints_every_end_to_end_metric(name):
    result, records = _result(_run(["--workload", name, "--seed", "1",
                                    "--seconds", "1", "--trace", "0", "--tiny"]))
    _check_metrics(result, SPEC["end_to_end"])
    jobs = [r for r in records if "job" in r]
    assert jobs and all(len(r["sha256"]) == 64 and not r["problems"] for r in jobs)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_every_layer_metric_and_a_sound_span_tree(name):
    result, _ = _result(_run(["--workload", name, "--seed", "1",
                              "--seconds", "1", "--trace", "1", "--tiny"]))
    _check_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    with open(os.path.join(HERE, "out", f"trace-{name}-1.json"), encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    assert spans
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["self"] >= -1e-9
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["thread"] == span["thread"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


@pytest.mark.parametrize("name", NAMES)
def test_second_seed_runs_clean(name):
    result, _ = _result(_run(["--workload", name, "--seed", "2",
                              "--seconds", "1", "--trace", "0", "--tiny"]))
    _check_metrics(result, SPEC["end_to_end"])


def _targets():
    """(owner, attribute, object) for every traced callable, as loaded now."""
    import importlib

    out = []
    for target in layers.TARGETS:
        module_name, _, class_name = target.where.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        out.append((owner, target.attr, owner.__dict__[target.attr]
                    if class_name else getattr(owner, target.attr)))
    return out


def test_untraced_run_leaves_the_wrapped_functions_as_the_originals(tmp_path):
    before = _targets()
    runner = workloads.Runner(workloads.WORKLOADS["restaurant-dp-transformer"], 1, 1.0, True,
                              None, str(tmp_path), 0.0, lambda _record: None)
    assert runner.run()["correct"]
    for owner, attr, original in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} was left patched"


def test_uninstall_restores_every_reference_including_late_imports():
    from repro.core import serd
    from repro.runtime import io

    before = _targets()
    original_write, original_label = io.atomic_write_json, serd.label_all_pairs
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    assert serd.label_all_pairs is not original_label
    assert io.atomic_write_json is not original_write
    tracer.uninstall()
    assert serd.label_all_pairs is original_label
    assert io.atomic_write_json is original_write
    for owner, attr, original in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.call("outer", tracer.call, ("inner", lambda: None, (), {}), {})
    outer = next(s for s in tracer.spans if s["name"] == "outer")
    inner = next(s for s in tracer.spans if s["name"] == "inner")
    assert inner["parent"] == outer["id"]
    self_times = tracer.self_times()
    duration = outer["end"] - outer["start"]
    assert self_times[outer["id"]] == pytest.approx(
        duration - (inner["end"] - inner["start"]))
    assert tracer.busy("outer") == (pytest.approx(duration), 1, 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
