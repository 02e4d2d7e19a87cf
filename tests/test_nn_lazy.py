"""Lazy op-graph engine tests: equivalence oracle, cache, faults, guards.

Eager mode is the bit-level equivalence oracle: every test here compares
the lazy engine's output against the same computation run under
``lazy.disabled()`` and requires *bit* equality — ``np.array_equal(..., equal_nan=True)``, never ``allclose`` — including
NaN/Inf propagation and ``-0.0`` sign bits, so :class:`TrainingGuard`'s
finiteness checks and rollback behavior cannot diverge between modes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import importlib
from functools import partial

from repro.nn import lazy
from repro.nn.lazy import graph as lgraph

# The package __init__ re-exports the realize *function*; the module object
# (whose SCHEDULE_CACHE global the tests swap) needs an explicit import.
realize_mod = importlib.import_module("repro.nn.lazy.realize")
from repro.nn.lazy.cache import ScheduleCache
from repro.nn.tensor import Tensor, concatenate

from tests.reference import decode as reference


def _eq(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))


def _both_modes(build):
    """Run ``build()`` (fresh inputs each call) lazy and eager; bit-compare."""
    with np.errstate(all="ignore"):
        lazy_out = build().data
        with lazy.disabled():
            eager_out = build().data
    assert _eq(lazy_out, eager_out)
    return lazy_out


EDGE = np.array([[0.0, -0.0, 1.5, -2.5], [np.nan, np.inf, -np.inf, 1e-300]])


class TestPrimitiveEquivalence:
    """Each recorded op, bit-compared against the eager oracle — on smooth
    values and on the NaN/Inf/-0.0 edge block."""

    @pytest.mark.parametrize("payload", [EDGE, None], ids=["edge", "smooth"])
    @pytest.mark.parametrize(
        "op",
        [
            lambda x, y: x + y,
            lambda x, y: x * y,
            lambda x, y: x / y,
            lambda x, y: -x,
            lambda x, y: x**3.0,
            lambda x, y: x**0.5,
            lambda x, y: x.exp(),
            lambda x, y: x.log(),
            lambda x, y: x.tanh(),
            lambda x, y: x.relu(),
            lambda x, y: x.sigmoid(),
            lambda x, y: x.sum(),
            lambda x, y: x.sum(axis=-1, keepdims=True),
            lambda x, y: x.max(axis=1),
            lambda x, y: x.reshape(-1),
            lambda x, y: x.transpose(1, 0),
            lambda x, y: x.softmax(axis=-1),
            lambda x, y: x.log_softmax(axis=-1),
            lambda x, y: x.masked_fill(np.array([[True, False, False, True],
                                                 [False, True, False, False]]),
                                       -1e9),
            lambda x, y: (x + y) * x.exp() - y.tanh(),
        ],
        ids=["add", "mul", "div", "neg", "pow3", "sqrt", "exp", "log", "tanh",
             "relu", "sigmoid", "sum", "sum_keep", "max_ax", "reshape",
             "transpose", "softmax", "log_softmax", "masked_fill", "fused_mix"],
    )
    def test_op_bit_identical(self, op, payload, rng):
        base = payload if payload is not None else rng.normal(size=(2, 4))

        def build():
            x = Tensor(np.array(base, dtype=np.float64))
            y = Tensor(np.linspace(-2.0, 2.0, 8).reshape(2, 4))
            return op(x, y)

        _both_modes(build)

    def test_matmul_and_take_rows(self, rng):
        a = rng.normal(size=(3, 5))
        b = rng.normal(size=(5, 4))
        table = rng.normal(size=(9, 6))
        ids = np.array([[0, 8, 3], [2, 2, 7]])
        _both_modes(lambda: Tensor(a) @ Tensor(b))
        _both_modes(lambda: Tensor(table).take_rows(ids))
        _both_modes(lambda: concatenate([Tensor(a), Tensor(a * 2)], axis=1))

    def test_negative_zero_sign_bits_match_eager_relu(self):
        """relu must fuse as ``x * (x > 0)``, not ``maximum(x, 0)``: the
        multiply carries x's sign onto the zeroed lanes (-1.0 -> -0.0),
        maximum would not.  ``array_equal`` can't see the difference, so
        compare sign bits explicitly."""
        x = np.array([-0.0, 0.0, -1.0, 2.0])
        out = Tensor(x).relu().data
        with lazy.disabled():
            oracle = Tensor(x).relu().data
        assert _eq(out, oracle)
        assert np.array_equal(np.signbit(out), np.signbit(oracle))
        assert np.signbit(out).tolist() == [True, False, True, False]

    def test_shared_subgraph_publishes_once(self, rng):
        """A subexpression consumed by two later realizes is computed once
        and published — the second realize sees it as a leaf."""
        x = Tensor(rng.normal(size=(4, 4)))
        shared = (x * 2.0).exp()
        one = shared + 1.0
        three = shared * 3.0  # second consumer exists before any realize
        first = one.data
        node = shared._lazy
        assert node is not None and node.value is not None  # published
        assert node.srcs == ()  # upstream freed
        second = three.data
        with lazy.disabled():
            y = Tensor(x.data)
            s = (y * 2.0).exp()
            assert _eq(first, (s + 1.0).data)
            assert _eq(second, (s * 3.0).data)

    def test_pending_tensor_shape_without_realize(self, rng):
        x = Tensor(rng.normal(size=(3, 7)))
        pending = (x + 1.0).transpose(1, 0)
        assert pending.shape == (7, 3)
        assert pending._data is None  # shape inference did not realize


# ----------------------------------------------------------------------
# Property suite: random op chains, bit-identical lazy vs eager.
# ----------------------------------------------------------------------
_CHAIN_OPS = {
    "neg": lambda t, b: -t,
    "exp": lambda t, b: t.exp(),
    "tanh": lambda t, b: t.tanh(),
    "relu": lambda t, b: t.relu(),
    "sigmoid": lambda t, b: t.sigmoid(),
    "add_b": lambda t, b: t + b,
    "mul_b": lambda t, b: t * b,
    "div_b": lambda t, b: t / b,
    "sub_self": lambda t, b: t + (-t),
    "sum_keep": lambda t, b: t.sum(axis=-1, keepdims=True),
    "max_keep": lambda t, b: t.max(axis=-1, keepdims=True),
    "softmax": lambda t, b: t.softmax(axis=-1),
    "log_softmax": lambda t, b: t.log_softmax(axis=-1),
}

_finite_or_not = st.floats(
    allow_nan=True, allow_infinity=True, min_value=None, max_value=None,
    width=64,
)


class TestRandomGraphEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.lists(_finite_or_not, min_size=12, max_size=12),
        broadcast=st.lists(_finite_or_not, min_size=4, max_size=4),
        program=st.lists(
            st.sampled_from(sorted(_CHAIN_OPS)), min_size=1, max_size=8
        ),
    )
    def test_chain_bit_identical(self, base, broadcast, program):
        """Arbitrary chains over arbitrary float64 payloads (NaN and Inf
        included) realize bit-identically to the eager oracle, so the
        TrainingGuard finiteness verdict is mode-independent."""
        x0 = np.array(base).reshape(3, 4)
        b0 = np.array(broadcast)

        def build():
            t, b = Tensor(x0.copy()), Tensor(b0.copy())
            for name in program:
                t = _CHAIN_OPS[name](t, b)
            return t

        out = _both_modes(build)
        from repro.runtime.guards import all_finite
        with lazy.disabled(), np.errstate(all="ignore"):
            assert all_finite(out) == all_finite(build().data)


# ----------------------------------------------------------------------
# Schedule cache: counters, replay, bounded LRU.
# ----------------------------------------------------------------------
class TestScheduleCache:
    def test_replay_hits_after_first_compile(self, rng):
        lazy.clear_cache()
        shape = (6, 3)

        def run():
            x = Tensor(rng.normal(size=shape))
            return ((x * 2.0).exp() + 1.0).tanh().data

        first = run()
        before = lazy.cache_stats()
        for _ in range(5):
            run()
        after = lazy.cache_stats()
        assert first.shape == shape
        assert after["misses"] == before["misses"]  # no recompiles
        assert after["hits"] == before["hits"] + 5
        assert after["hit_rate"] > 0.5
        entries = lazy.plan_entries()
        assert any(e["replays"] >= 5 for e in entries)
        assert all(len(e["digest"]) == 16 for e in entries)

    def test_distinct_shapes_are_distinct_plans(self, rng):
        lazy.clear_cache()
        for n in (2, 3, 4):
            (Tensor(rng.normal(size=(n, n))) * 2.0).exp().data
        assert lazy.cache_stats()["misses"] == 3
        assert lazy.cache_stats()["entries"] == 3

    def test_env_capacity_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_NN_PLAN_CACHE", "7")
        assert ScheduleCache().capacity == 7
        monkeypatch.setenv("REPRO_NN_PLAN_CACHE", "0")
        assert ScheduleCache().capacity == 1  # floor
        monkeypatch.setenv("REPRO_NN_PLAN_CACHE", "junk")
        assert ScheduleCache().capacity == 256

    def test_bounded_lru_memory_flat_over_10k_distinct_shapes(self, monkeypatch):
        """10,000 realizations with 10,000 distinct shapes — adversarial
        churn where every realize is a compile — must hold the cache at
        its capacity bound with eviction making up the difference, and the
        plan table must not retain memory beyond the bounded window."""
        import tracemalloc

        small = ScheduleCache(capacity=32)
        monkeypatch.setattr(realize_mod, "SCHEDULE_CACHE", small)

        def realize_shape(n: int) -> None:
            leaf = lgraph.leaf(np.zeros(n + 1))
            root = lgraph.ewise("mul", lgraph.unary("exp", leaf), leaf)
            lazy.realize(root)
            assert len(small) <= 32

        for n in range(200):  # warm the allocator before measuring
            realize_shape(n)
        tracemalloc.start()
        baseline = tracemalloc.take_snapshot()
        for n in range(200, 10_000):
            realize_shape(n)
        growth = sum(
            s.size_diff
            for s in tracemalloc.take_snapshot().compare_to(baseline, "filename")
        )
        tracemalloc.stop()
        stats = small.stats()
        assert stats["entries"] == 32
        assert stats["misses"] == 10_000
        assert stats["evictions"] == 10_000 - 32
        # Evicted plans release their scratch with them: net growth over
        # 9,800 compile+evict cycles stays near zero (bound is generous to
        # absorb allocator noise; unbounded retention would be >100MB).
        assert growth < 8 * 1024 * 1024


# ----------------------------------------------------------------------
# Decode equivalence: lazy x generation-cache, four ways byte-identical.
# ----------------------------------------------------------------------
class TestDecodeEquivalence:
    @pytest.fixture
    def model(self, rng):
        from repro.nn.transformer import Seq2SeqTransformer, TransformerConfig

        config = TransformerConfig(
            vocab_size=22, d_model=16, n_heads=2, n_encoder_layers=2,
            n_decoder_layers=2, d_feedforward=32, dropout=0.0, max_length=20,
        )
        return Seq2SeqTransformer(config, rng)

    def test_lazy_times_kv_cache_grid(self, model, rng):
        src = rng.integers(4, 22, size=(4, 6))

        def decode(cached, seed):
            generate = model.generate if cached else partial(
                reference.generate, model
            )
            return generate(
                src, temperature=0.9, rng=np.random.default_rng(seed)
            )

        for seed in (0, 11):
            lazy_cached = decode(True, seed)
            lazy_uncached = decode(False, seed)
            with lazy.disabled():
                eager_cached = decode(True, seed)
                eager_uncached = decode(False, seed)
            assert lazy_cached == eager_cached
            assert lazy_uncached == eager_uncached
            assert lazy_cached == lazy_uncached

    def test_decode_cache_hit_rate_steady_state(self, model, rng):
        """After the first source batch compiles the step plans, later
        decodes replay them — steady-state hit rate exceeds 90% on both
        the realize-path schedule cache (encoder graphs) and the JIT
        trace cache (decode steps)."""
        src = rng.integers(4, 22, size=(4, 6))
        model.generate(src, greedy=True)  # compile pass
        before = lazy.cache_stats()
        traces_before = model._step_traces.stats()
        for _ in range(3):
            model.generate(src, greedy=True)
        after = lazy.cache_stats()
        traces_after = model._step_traces.stats()
        replays = after["hits"] - before["hits"]
        compiles = after["misses"] - before["misses"]
        assert replays / (replays + compiles) > 0.9
        # Every decode step of the later calls replays a captured trace:
        # zero new captures, strictly positive replays.
        assert traces_after["misses"] == traces_before["misses"]
        assert traces_after["hits"] > traces_before["hits"]

    def test_trace_replay_across_sources(self, model, rng):
        """A trace captured on one source batch replays bit-identically on
        a different batch with the same shapes (fresh token ids, KV
        prefixes, and memory-mask *content* rebind into the cached plan),
        and different source lengths key separate traces."""
        src_a = rng.integers(4, 22, size=(4, 6))
        src_b = rng.integers(4, 22, size=(4, 6))  # same shape, new content
        src_c = np.pad(src_b, ((0, 0), (0, 2)))  # PADs: new mask + length

        def decode(source, seed):
            return model.generate(
                source, temperature=0.9, rng=np.random.default_rng(seed),
            )

        decode(src_a, 0)  # capture traces on the first batch
        before = model._step_traces.stats()
        lazy_b = decode(src_b, 5)
        assert model._step_traces.stats()["misses"] == before["misses"]
        lazy_c = decode(src_c, 7)
        with lazy.disabled():
            assert lazy_b == decode(src_b, 5)
            assert lazy_c == decode(src_c, 7)


# ----------------------------------------------------------------------
# DP-SGD: bit-identical updates, identical privacy accounting.
# ----------------------------------------------------------------------
class TestDPSGDUnderLazy:
    def _run(self, steps=3):
        from repro.nn.layers import Linear, Module, ReLU, Sequential
        from repro.nn.losses import cross_entropy_per_example
        from repro.privacy.accountant import RDPAccountant
        from repro.privacy.dpsgd import DPSGDConfig, dp_sgd_step_vectorized

        class Tiny(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(7)
                self.net = Sequential(Linear(6, 12, rng), ReLU(), Linear(12, 4, rng))

            def forward(self, x):
                return self.net(Tensor(x))

        def batch_loss(model, examples):
            xs = np.stack([e[0] for e in examples])
            ys = np.array([e[1] for e in examples])
            return cross_entropy_per_example(model(xs), ys)

        data_rng = np.random.default_rng(3)
        examples = [
            (data_rng.normal(size=6), int(data_rng.integers(0, 4)))
            for _ in range(10)
        ]
        config = DPSGDConfig(noise_scale=0.8, clip_norm=0.5, learning_rate=0.05)
        model = Tiny()
        accountant = RDPAccountant()
        losses = []
        for step in range(steps):
            noise_rng = np.random.default_rng(999 + step)
            losses.append(
                dp_sgd_step_vectorized(model, examples, batch_loss, config, noise_rng)
            )
            accountant.step(sampling_rate=0.1, noise_scale=config.noise_scale)
        params = [p.data.copy() for p in model.parameters()]
        return losses, params, accountant.epsilon(delta=1e-5)

    def test_bit_identical_updates_and_accounting(self):
        lazy_losses, lazy_params, lazy_eps = self._run()
        with lazy.disabled():
            eager_losses, eager_params, eager_eps = self._run()
        assert lazy_losses == eager_losses
        for a, b in zip(lazy_params, eager_params):
            assert _eq(a, b)
        assert lazy_eps == eager_eps


# ----------------------------------------------------------------------
# TrainingGuard: NaN verdicts and rollback are mode-independent.
# ----------------------------------------------------------------------
class TestTrainingGuardUnderLazy:
    def _poisoned_training(self, rng_seed=11):
        from repro.nn.layers import Linear
        from repro.nn.optim import Adam
        from repro.runtime.guards import TrainingGuard

        rng = np.random.default_rng(rng_seed)
        layer = Linear(4, 3, rng)
        optimizer = Adam(layer.parameters(), learning_rate=1e-2)
        guard = TrainingGuard([layer], [optimizer], label="lazy-test")
        inputs = rng.normal(size=(5, 4))
        for step in range(4):
            layer.zero_grad()
            out = layer(Tensor(inputs))
            loss = (out * out).sum()
            loss.backward()
            if step == 2:  # poison one step
                layer.weight.grad[0, 0] = np.nan
            if guard.step_ok(loss.item()):
                optimizer.step()
                guard.snapshot()
            else:
                guard.rollback()
        return (
            [p.data.copy() for p in layer.parameters()],
            guard.counters(),
            optimizer.learning_rate,
        )

    def test_rollback_unchanged_under_lazy(self):
        lazy_params, lazy_counters, lazy_lr = self._poisoned_training()
        with lazy.disabled():
            eager_params, eager_counters, eager_lr = self._poisoned_training()
        assert lazy_counters == eager_counters == {"nan_events": 1, "rollbacks": 1}
        assert lazy_lr == eager_lr
        for a, b in zip(lazy_params, eager_params):
            assert _eq(a, b)


# ----------------------------------------------------------------------
# Fault rail: the nn.realize site.
# ----------------------------------------------------------------------
class TestRealizeFaultSite:
    def test_injected_kernel_fault_raises_and_recovers(self, rng):
        from repro.runtime import FaultPlan, FaultSpec, inject_faults

        x = rng.normal(size=(3, 3))
        with inject_faults(
            FaultPlan(FaultSpec("nn.realize", at_calls=(2,)))
        ) as plan:
            first = (Tensor(x) + 1.0).data  # call 1: clean
            with pytest.raises(lazy.KernelFault, match="nn.realize"):
                (Tensor(x) * 2.0).data  # call 2: injected
            assert plan.fired("nn.realize") == 1
            retried = (Tensor(x) * 2.0).data  # call 3: clean again
        with lazy.disabled():
            assert _eq(first, (Tensor(x) + 1.0).data)
            assert _eq(retried, (Tensor(x) * 2.0).data)

    def test_site_is_inert_without_active_plan(self, rng):
        # No FaultPlan armed: realize must not even consult the fault
        # machinery's counters (the hot-loop guard is `_ACTIVE is not None`).
        out = (Tensor(rng.normal(size=(2, 2))) + 1.0).data
        assert out.shape == (2, 2)


# ----------------------------------------------------------------------
# Resource degradation: checkpoint-and-downshift stays bit-identical
# when the worker runs on the lazy engine.
# ----------------------------------------------------------------------
@pytest.mark.fault_injection
class TestDegradationUnderLazy:
    def test_downshifted_run_matches_eager_oracle(
        self, tmp_path, service_registry
    ):
        """The eager-mode synthesis is the oracle; a lazy-mode worker under
        memory pressure (soft-watermark downshifts at every checkpoint
        boundary) must reproduce it byte-for-byte — checkpoint cadence and
        kernel engine both stay out of the RNG stream."""
        from repro.runtime import resources
        from repro.runtime.resources import ResourceBudget, ResourceGovernor
        from repro.schema.io import load_saved_dataset
        from repro.service import JobQueue, Worker

        with lazy.disabled():
            synthesizer, _ = service_registry.load("restaurant")
            synthesizer.rng = np.random.default_rng(21)
            with pytest.warns(RuntimeWarning):  # tiny scale livelocks; expected
                expected = synthesizer.synthesize(16, 16).dataset

        resources.install(
            ResourceGovernor(
                ResourceBudget(
                    memory_budget_mb=100000.0,
                    memory_soft_fraction=0.1,
                    entity_est_kb=2_252_800,
                )
            )
        )
        try:
            queue = JobQueue(tmp_path / "queue")
            job = queue.submit("restaurant", n_a=16, n_b=16, seed=21)
            with pytest.warns(RuntimeWarning):
                assert Worker(queue, service_registry).run_once()
            record = queue.get(job.id)
            assert record.status == "done"
            assert record.result["resource"]["chunk_downshifts"] >= 1
            actual = load_saved_dataset(record.result["dataset_dir"])
        finally:
            resources.uninstall()
            resources.reset_counters()

        assert [e.values for e in actual.table_a] == [
            e.values for e in expected.table_a
        ]
        assert [e.values for e in actual.table_b] == [
            e.values for e in expected.table_b
        ]
        assert actual.matches == expected.matches
        assert actual.non_matches == expected.non_matches
