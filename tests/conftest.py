"""Shared fixtures: small deterministic datasets and generators."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.schema import Entity, Relation, make_schema

# Per-test wall-clock budget for fault-injection tests.  A livelocked
# resume loop or a guard that never gives up would otherwise hang CI; the
# container has no pytest-timeout, so a SIGALRM does the job (main thread,
# POSIX only — exactly the CI environment the fault_injection job runs in).
FAULT_TEST_TIMEOUT_SECONDS = 300


def pytest_collection_modifyitems(config, items):
    """Keep tier-1 (`pytest -x -q`) fast: privacy_audit-marked tests and
    the full fidelity suite (``fidelity(full=True)``) only run when
    explicitly selected with ``-m privacy_audit`` / ``-m fidelity`` (the
    CI jobs do; the default run skips them).  The fast fidelity variant,
    plain ``fidelity``, always runs."""
    selected = config.getoption("-m") or ""
    for item in items:
        if "privacy_audit" not in selected and item.get_closest_marker(
            "privacy_audit"
        ):
            item.add_marker(pytest.mark.skip(reason="needs -m privacy_audit"))
        fidelity = item.get_closest_marker("fidelity")
        if "fidelity" not in selected and fidelity and fidelity.kwargs.get("full"):
            item.add_marker(pytest.mark.skip(reason="needs -m fidelity"))


@pytest.fixture(autouse=True)
def _fault_test_timeout(request):
    if request.node.get_closest_marker("fault_injection") is None:
        yield
        return
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"fault-injection test exceeded {FAULT_TEST_TIMEOUT_SECONDS}s "
            "(livelocked resume loop or non-terminating retry?)"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(FAULT_TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def paper_schema():
    """The DBLP-ACM schema of paper Fig. 1."""
    return make_schema(
        {
            "title": "text",
            "authors": "text",
            "venue": "categorical",
            "year": "numeric",
        }
    )


@pytest.fixture
def paper_tables(paper_schema):
    """The Fig. 1 example tables (3 DBLP rows, 3 ACM rows)."""
    table_a = Relation(
        "dblp",
        paper_schema,
        [
            Entity("a1", paper_schema, [
                "Adaptable Query Optimization and Evaluation in Temporal Middleware",
                "Christian S. Jensen, Richard T. Snodgrass, Giedrius Slivinskas",
                "SIGMOD Conference", 2001,
            ]),
            Entity("a2", paper_schema, [
                "Generalised Hash Teams for Join and Group-by",
                "Donald Kossmann, Alfons Kemper, Christian Wiesner",
                "VLDB", 1999,
            ]),
            Entity("a3", paper_schema, [
                "A simple algorithm for finding frequent elements in streams and bags",
                "Richard M. Karp, Scott Shenker",
                "ACM Trans. Database Syst.", 2003,
            ]),
        ],
    )
    table_b = Relation(
        "acm",
        paper_schema,
        [
            Entity("b1", paper_schema, [
                "Adaptable query optimization and evaluation in temporal middleware",
                "Giedrius Slivinskas, Christian S. Jensen, Richard Thomas Snodgrass",
                "International Conference on Management of Data", 2001,
            ]),
            Entity("b2", paper_schema, [
                "Generalised Hash Teams for Join and Group-by",
                "Alfons Kemper, Donald Kossmann, Christian Wiesner",
                "Very Large Data Bases", 1999,
            ]),
            Entity("b3", paper_schema, [
                "Parameterized complexity for the database theorist",
                "Martin Grohe",
                "ACM SIGMOD Record", 2002,
            ]),
        ],
    )
    return table_a, table_b


@pytest.fixture
def tiny_restaurant():
    """A small but non-trivial generated restaurant dataset."""
    return load_dataset("restaurant", scale=0.08, seed=11)


@pytest.fixture
def tiny_dblp():
    return load_dataset("dblp_acm", scale=0.03, seed=11)


# ----------------------------------------------------------------------
# Service fixtures (shared by the test_service_* modules).  Fitting a
# model is the expensive part, so one registry is built per session and
# every service test reads from it; jobs get their own queues.
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def service_real():
    """The real dataset the session's registered model was fitted on."""
    return load_dataset("restaurant", scale=0.08, seed=5)


@pytest.fixture(scope="session")
def service_registry(tmp_path_factory, service_real):
    """A model registry holding one fitted restaurant model ('restaurant'/v1)."""
    from repro.core import SERDConfig
    from repro.gan import TabularGANConfig
    from repro.service import ModelRegistry

    registry = ModelRegistry(tmp_path_factory.mktemp("service_registry"))
    config = SERDConfig(
        seed=5, gan=TabularGANConfig(iterations=15), checkpoint_every=5
    )
    registry.register("restaurant", service_real, config)
    return registry
