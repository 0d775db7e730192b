"""ThreadedBackend wall: bit-identity, determinism, partition safety.

The threaded backend's contract is the numpy backend's contract plus
parallelism: same numbers, bit for bit, at every pool size.  This wall
pins that from four sides —

* parity: threaded outputs == numpy-backend outputs for float32 and
  float64 on the named and random stacks of :mod:`.stacks` (batches
  are scaled up so kernels genuinely split into multiple tiles);
* determinism: a 1-thread and a 4-thread run of the same compiled
  module are *byte*-identical;
* partition safety: hypothesis drives :func:`partition_rows` and
  checks every row is covered exactly once with no overlapping ranges;
* policy: backend selection (env var, process default, explicit arg)
  and the per-backend ``compiled_for`` cache never serve one backend's
  plan for the other.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.cnn import BackboneConfig, WaferCNN
from repro.nn.compile import (
    BACKEND_ENV_VAR,
    backend_names,
    compile_module,
    compiled_for,
    configure_threads,
    get_backend,
    resolve_backend_name,
    set_default_backend,
    thread_count,
)
from repro.nn.compile import threaded as threaded_mod
from repro.nn.compile.fuse import fuse_graph
from repro.nn.compile.plan import (
    MAX_TILES,
    partition_rows,
    plan_partitions,
)
from repro.nn.compile.threaded import clamped_threads
from repro.nn.compile.trace import trace_module
from repro.obs.metrics import default_registry

from .stacks import DTYPE_IDS, DTYPES, NAMED, assert_same_array, build, named_stack, stacks

#: Batch multiplier pushing the parity stacks over MIN_TILE_WORK, so
#: the wall exercises genuinely tiled kernels, not the serial fallback.
BATCH_SCALE = 8


@pytest.fixture(autouse=True)
def _restore_compile_policy():
    """Tests mutate process-global backend/pool state; undo all of it."""
    previous_backend = set_default_backend(None)
    set_default_backend(previous_backend)
    previous_threads = thread_count()
    yield
    set_default_backend(previous_backend)
    configure_threads(previous_threads)


def _scaled_stack(name, dtype):
    with nn.default_dtype(dtype):
        model, shape = named_stack(name, batch_scale=BATCH_SCALE)
    x = np.random.default_rng(4).normal(size=shape).astype(dtype)
    return model, x


def _outputs(model, x, backend):
    compiled = compile_module(model, backend=backend)
    outputs = compiled.try_run(x)
    assert outputs is not None, "stack was expected to compile"
    return outputs


# ----------------------------------------------------------------------
# Registration + parity wall
# ----------------------------------------------------------------------
def test_threaded_backend_is_registered():
    assert "threaded" in backend_names()
    assert get_backend("threaded").name == "threaded"


def _check_threaded(model, x, dtype):
    configure_threads(4)
    with nn.default_dtype(dtype):
        expected = _outputs(model, x, "numpy")
        actual = _outputs(model, x, "threaded")
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert_same_array(got, want)


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("stack", sorted(NAMED), ids=sorted(NAMED))
def test_threaded_matches_numpy_backend(stack, dtype):
    model, x = _scaled_stack(stack, dtype)
    _check_threaded(model, x, dtype)


@settings(max_examples=200, deadline=None)
@given(
    stack=stacks(),
    batch=st.integers(16, 96),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
# The GEMM probe once certified row slices of this conv with a
# C-contiguous weight operand while the conv passes a transposed one;
# OpenBLAS then sliced the real GEMM differently.
@example(
    stack=((("conv", 6, 1, 1, 0), ("relu",), ("conv", 6, 5, 2, 0), ("relu",)), (1, 6, 11)),
    batch=73, dtype=np.float32, seed=0,
)
def test_threaded_matches_numpy_backend_on_random_stacks(stack, batch, dtype, seed):
    layers, sample_shape = stack
    with nn.default_dtype(dtype):
        rng = np.random.default_rng(seed)
        model = build(layers, sample_shape, rng)
    x = rng.normal(size=(batch,) + sample_shape).astype(dtype)
    _check_threaded(model, x, dtype)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_wafer_cnn_parity_at_every_pool_size(threads):
    configure_threads(threads)
    config = BackboneConfig(
        input_size=32, conv_channels=(8, 8), conv_kernels=(3, 3),
        fc_units=32, seed=7,
    )
    model = WaferCNN(4, config=config)
    model.eval()
    x = np.random.default_rng(0).normal(size=(32, 1, 32, 32)).astype(np.float32)
    expected = _outputs(model, x, "numpy")
    actual = _outputs(model, x, "threaded")
    for got, want in zip(actual, expected):
        assert_same_array(got, want)


def test_one_and_four_thread_runs_byte_identical():
    """Pool size must never change the numbers — not even the bytes."""
    config = BackboneConfig(
        input_size=32, conv_channels=(8, 8), conv_kernels=(3, 3),
        fc_units=32, seed=11,
    )
    model = WaferCNN(4, config=config)
    model.eval()
    x = np.random.default_rng(1).normal(size=(32, 1, 32, 32)).astype(np.float32)
    compiled = compile_module(model, backend="threaded")
    configure_threads(1)
    serial = [np.ascontiguousarray(o).tobytes() for o in compiled.try_run(x)]
    configure_threads(4)
    pooled = [np.ascontiguousarray(o).tobytes() for o in compiled.try_run(x)]
    assert serial == pooled


def test_threaded_runs_actually_tile():
    """The scaled CNN must exercise the parallel path, not fall back."""
    configure_threads(4)
    config = BackboneConfig(
        input_size=32, conv_channels=(8, 8), conv_kernels=(3, 3),
        fc_units=32, seed=7,
    )
    model = WaferCNN(4, config=config)
    model.eval()
    x = np.random.default_rng(2).normal(size=(32, 1, 32, 32)).astype(np.float32)
    before = default_registry().snapshot()["counters"]
    assert compile_module(model, backend="threaded").try_run(x) is not None
    after = default_registry().snapshot()["counters"]

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert delta("compile.threads.kernels_parallel") >= 1
    assert delta("compile.threads.tiles") > delta("compile.threads.kernels_parallel")


def test_probe_refusal_falls_back_to_serial(monkeypatch):
    """A BLAS whose row-sliced GEMMs drift must not be tiled — and the
    serial fallback must still match the numpy backend exactly."""
    monkeypatch.setattr(
        threaded_mod, "gemm_slicing_bit_identical", lambda *a, **k: False
    )
    configure_threads(4)
    model, x = _scaled_stack("conv_relu_maxpool", np.float32)
    before = default_registry().snapshot()["counters"]
    expected = _outputs(model, x, "numpy")
    actual = _outputs(model, x, "threaded")
    after = default_registry().snapshot()["counters"]
    for got, want in zip(actual, expected):
        assert_same_array(got, want)
    assert after.get("compile.threads.kernels_serial", 0) > before.get(
        "compile.threads.kernels_serial", 0
    )


# ----------------------------------------------------------------------
# Partition plan properties
# ----------------------------------------------------------------------
@given(
    axis=st.integers(1, 5000),
    work=st.integers(1, 1 << 22),
    min_work=st.integers(1, 1 << 20),
    max_tiles=st.integers(1, 64),
)
@settings(max_examples=200, deadline=None)
def test_partition_covers_every_row_exactly_once(axis, work, min_work, max_tiles):
    partition = partition_rows(
        axis, work, min_tile_work=min_work, max_tiles=max_tiles
    )
    assert partition.bounds[0] == 0
    assert partition.bounds[-1] == axis
    # Strictly increasing bounds == disjoint, non-empty, ordered tiles.
    assert all(b1 > b0 for b0, b1 in partition.ranges)
    covered = np.zeros(axis, dtype=np.int64)
    for start, stop in partition.ranges:
        covered[start:stop] += 1
    assert (covered == 1).all()
    assert 1 <= partition.num_tiles <= min(max_tiles, axis)


@given(axis=st.integers(1, 512), work=st.integers(1, 1 << 20))
@settings(max_examples=100, deadline=None)
def test_partition_is_deterministic(axis, work):
    assert partition_rows(axis, work) == partition_rows(axis, work)


def test_scaled_partition_preserves_cover():
    partition = partition_rows(37, 1 << 15)
    scaled = partition.scaled(64)
    assert scaled.axis_size == 37 * 64
    assert scaled.bounds == tuple(b * 64 for b in partition.bounds)
    assert scaled.bounds[-1] == scaled.axis_size


def test_plan_partitions_match_kernel_axes():
    model, shape = named_stack("conv_relu_maxpool", batch_scale=BATCH_SCALE)
    graph = trace_module(model, shape, np.dtype(np.float32))
    program = fuse_graph(graph)
    partitions = plan_partitions(program)
    assert partitions, "scaled conv stack should yield partitioned kernels"
    for index, partition in partitions.items():
        root = program.kernels[index].ops[0]
        assert partition.axis_size == root.shape[0]
        assert partition.bounds[-1] == partition.axis_size
        assert partition.num_tiles <= MAX_TILES


# ----------------------------------------------------------------------
# Selection policy + per-backend cache
# ----------------------------------------------------------------------
def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "threaded")
    assert resolve_backend_name() == "threaded"
    model, _ = named_stack("dense_log_softmax")
    assert compile_module(model).backend_name == "threaded"


def test_unknown_backend_fails_loud(monkeypatch):
    with pytest.raises(KeyError):
        resolve_backend_name("no-such-backend")
    monkeypatch.setenv(BACKEND_ENV_VAR, "no-such-backend")
    with pytest.raises(KeyError):
        resolve_backend_name()


def test_explicit_arg_beats_default_and_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "threaded")
    assert resolve_backend_name("numpy") == "numpy"
    set_default_backend("numpy")
    assert resolve_backend_name() == "numpy"  # override beats env
    assert resolve_backend_name("threaded") == "threaded"


def test_compiled_for_cache_is_per_backend():
    """Switching backends mid-process must never serve the other
    backend's plan (regression for the per-backend cache key)."""
    model, _ = named_stack("dense_log_softmax")
    numpy_compiled = compiled_for(model, backend="numpy")
    threaded_compiled = compiled_for(model, backend="threaded")
    assert numpy_compiled is not threaded_compiled
    assert numpy_compiled.backend_name == "numpy"
    assert threaded_compiled.backend_name == "threaded"
    # Cached per backend: asking again returns the same instances.
    assert compiled_for(model, backend="numpy") is numpy_compiled
    assert compiled_for(model, backend="threaded") is threaded_compiled
    # The default-resolved entry tracks the active policy.
    set_default_backend("threaded")
    assert compiled_for(model) is threaded_compiled
    set_default_backend("numpy")
    assert compiled_for(model) is numpy_compiled


# ----------------------------------------------------------------------
# Thread topology
# ----------------------------------------------------------------------
def test_configure_threads_roundtrip():
    assert configure_threads(3) == 3
    assert thread_count() == 3
    assert configure_threads(None) >= 1


def test_clamped_threads_guards_oversubscription(monkeypatch):
    monkeypatch.setattr(threaded_mod.os, "cpu_count", lambda: 8)
    assert clamped_threads(4, lanes=2) == 4
    assert clamped_threads(16, lanes=2) == 4  # 16×2 would oversubscribe
    assert clamped_threads(3, lanes=3) == 2
    assert clamped_threads(None, lanes=8) == 1
    assert clamped_threads(5, lanes=1) == 5
    monkeypatch.setattr(threaded_mod.os, "cpu_count", lambda: 1)
    assert clamped_threads(4, lanes=1) == 1  # never above the machine


def test_machine_info_records_compile_backend():
    from repro.obs.export import machine_info

    set_default_backend("threaded")
    over = (os.cpu_count() or 1) + 1
    configure_threads(over)
    info = machine_info()
    assert info["compile"] == {"backend": "threaded", "threads": over}
    assert any("compile thread count" in w for w in info["warnings"])
    set_default_backend("numpy")
    configure_threads(1)
    info = machine_info()
    assert info["compile"] == {"backend": "numpy", "threads": 1}
    assert not any("compile thread count" in w for w in info["warnings"])
