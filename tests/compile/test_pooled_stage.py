"""Wall for the pooled conv stage: conv → tiling max-pool → elementwise.

The paper's stages pool before their activation.  The compiler folds
the whole stage into the conv's kernel: the pool reduces the GEMM rows
and the elementwise chain after it runs in place on the pooled rows.
Here, over random stages (channel counts, kernels with ``same`` or no
padding, 2x2 or 3x3 tiling pools, one or two activations), float32 and
float64, and several batch sizes, the stage compiles to one kernel
whose output equals the eager forward bit for bit, as the tape's does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.compile import compile_module

from .stacks import (
    ACTIVATIONS,
    DTYPES,
    assert_same_array,
    assert_tape_matches_eager,
    build,
    eager_forward,
    tape_forward,
)


@st.composite
def pooled_stages(draw):
    """``(layers, sample_shape)`` of one conv → pool → activation stage."""
    pool = draw(st.sampled_from([2, 3]))
    kernel = draw(st.sampled_from([1, 3, 5]))
    padding = draw(st.sampled_from(["same", 0]))
    # The conv output must tile by the pool: H_out = H - k + 1 unpadded.
    out_hw = tuple(pool * draw(st.integers(1, 4)) for _ in range(2))
    grow = 0 if padding == "same" else kernel - 1
    sample_shape = (draw(st.integers(1, 5)),) + tuple(s + grow for s in out_hw)
    chain = tuple(draw(st.lists(st.sampled_from(ACTIVATIONS), min_size=1, max_size=2)))
    conv = ("conv", draw(st.integers(1, 6)), kernel, 1, padding)
    return (conv, ("maxpool", pool, pool)) + chain, sample_shape


@settings(max_examples=150, deadline=None)
@given(
    stage=pooled_stages(),
    batch=st.integers(1, 6),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_pooled_stage_is_one_bit_identical_kernel(stage, batch, dtype, seed):
    layers, sample_shape = stage
    with nn.default_dtype(dtype):
        rng = np.random.default_rng(seed)
        model = build(layers, sample_shape, rng)
        x = rng.normal(size=(batch,) + sample_shape).astype(dtype)
        expected = eager_forward(model, x)
        compiled = compile_module(model)
        outputs = compiled.try_run(x)
        assert outputs is not None, "stage was expected to compile"
        assert_same_array(outputs[0], expected)
        assert_tape_matches_eager(tape_forward(model, x), expected)

    (graph,) = compiled.graphs.values()
    assert graph.kernel_count == 1
    # Bias, pool and every activation ride on the conv.
    assert graph.ops_fused == len(layers)
