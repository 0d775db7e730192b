"""Batch-size independence wall: one graph per model serves every n.

A :class:`CompiledModule` keys its graph on the per-sample shape and
dtype, plans it at a batch *capacity*, and runs any ``n <= capacity``
on leading-axis prefixes of one arena.  The contract this wall pins, on
random stacks from :mod:`.stacks`: at every ``n`` the compiled outputs
equal the eager forward at ``n`` bit for bit, in values *and* memory
layout — from a single compile.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.compile import compile_module
from repro.obs.metrics import default_registry

from .stacks import DTYPES, assert_same_array, build, eager_forward, named_stack, stacks


@settings(max_examples=300, deadline=None)
@given(
    stack=stacks(),
    capacity=st.integers(1, 64),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_every_batch_size_matches_eager(stack, capacity, dtype, seed):
    layers, sample_shape = stack
    with nn.default_dtype(dtype):
        rng = np.random.default_rng(seed)
        model = build(layers, sample_shape, rng)
        xs = rng.normal(size=(capacity,) + sample_shape).astype(dtype)
        compiled = compile_module(model)
        assert compiled.reserve(xs, capacity)
        for n in range(1, capacity + 1):
            x = xs[capacity - n:]  # a different slice of the data per n
            (got,) = compiled.try_run(x)
            assert_same_array(got, eager_forward(model, x))
        (graph,) = compiled.graphs.values()
        assert graph.capacity == capacity


def test_reserve_compiles_once_and_runs_hit():
    model, shape = named_stack("conv_relu_maxpool")
    registry = default_registry()
    misses = registry.counter("compile.cache_misses").value
    graphs = registry.counter("compile.graphs").value
    x = np.zeros((16,) + tuple(shape[1:]), dtype=np.float32)
    compiled = compile_module(model)
    assert compiled.reserve(x[:1], 16)
    for n in (1, 5, 16, 3):
        assert compiled.try_run(x[:n]) is not None
    assert registry.counter("compile.cache_misses").value == misses + 1
    assert registry.counter("compile.graphs").value == graphs + 1


def test_larger_batch_grows_capacity_and_releases_outgrown_arena():
    model, shape = named_stack("dense_relu_head")
    rng = np.random.default_rng(8)
    gauge = default_registry().gauge("compile.arena_bytes")
    before = gauge.value
    compiled = compile_module(model)
    for n, capacity in ((3, 3), (2, 3), (4, 6), (5, 6), (20, 20)):
        x = rng.normal(size=(n,) + tuple(shape[1:])).astype(np.float32)
        (out,) = compiled.try_run(x)
        assert_same_array(out, eager_forward(model, x))
        (graph,) = compiled.graphs.values()
        assert graph.capacity == capacity
    # Outgrown arenas were released: only the live graph's is counted.
    assert gauge.value == before + graph.arena_nbytes
    assert compiled.release() == graph.arena_nbytes
    assert gauge.value == before


def test_empty_batch_falls_back():
    model, shape = named_stack("dense_relu_head")
    compiled = compile_module(model)
    assert compiled.try_run(np.zeros((0,) + tuple(shape[1:]), dtype=np.float32)) is None
    assert not compiled.graphs


def test_concurrent_runs_of_every_size_share_one_arena_safely():
    """Every batch size runs on one arena, so concurrent callers of one
    graph must never interleave inside it."""
    model, shape = named_stack("conv_relu_maxpool")
    xs = np.random.default_rng(12).normal(size=(16,) + tuple(shape[1:])).astype(np.float32)
    expected = {n: eager_forward(model, xs[:n]) for n in (1, 3, 8, 16)}
    compiled = compile_module(model)
    assert compiled.reserve(xs, 16)
    errors = []

    def worker(n):
        try:
            for _ in range(30):
                (got,) = compiled.try_run(xs[:n])
                np.testing.assert_array_equal(got, expected[n])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
