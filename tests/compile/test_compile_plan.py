"""Planner property tests: no two live intervals ever share arena bytes.

The buffer planner's single safety property is liveness-disjointness:
two planned byte ranges may overlap only if their live intervals do
not.  Hypothesis drives random layer stacks through trace→fuse→plan and
checks every pair (value slots and kernel scratch alike) — and, since
the stacks are real models, also that the planned program still runs
bit-identically to eager.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.compile import NumpyBackend, eager_only
from repro.nn.compile.executor import CompiledGraph
from repro.nn.compile.fuse import fuse_graph
from repro.nn.compile.plan import ALIGN, plan_buffers
from repro.nn.compile.trace import trace_module

BACKEND = NumpyBackend()


@st.composite
def cnn_stacks(draw):
    """A random eval-mode Sequential in the Table-I family."""
    batch = draw(st.integers(1, 3))
    size = draw(st.sampled_from([8, 12]))
    channels = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    layers = []
    c, h = channels, size
    for _ in range(draw(st.integers(1, 3))):
        out_c = draw(st.sampled_from([2, 4]))
        layers.append(nn.Conv2D(c, out_c, 3, padding="same", rng=rng))
        activation = draw(st.sampled_from([None, nn.ReLU, nn.Sigmoid]))
        if activation is not None:
            layers.append(activation())
        if draw(st.booleans()) and h % 2 == 0 and h >= 4:
            layers.append(nn.MaxPool2D(2))
            h //= 2
        c = out_c
    if draw(st.booleans()):
        layers.append(nn.Flatten())
        width = draw(st.sampled_from([4, 8]))
        layers.append(nn.Dense(c * h * h, width, rng=rng))
        if draw(st.booleans()):
            layers.append(nn.ReLU())
        layers.append(nn.Dense(width, 3, rng=rng))
    model = nn.Sequential(*layers)
    model.eval()
    return model, (batch, channels, size, size)


def _assert_disjoint_liveness(plan):
    """No two simultaneously-live byte ranges may intersect."""
    entries = []
    for root, slot in plan.slots.items():
        birth, death = plan.intervals[root]
        entries.append((birth, death, slot, f"%{root}"))
    for (index, tag), slot in plan.scratch.items():
        entries.append((index, index, slot, f"scratch[{index}:{tag}]"))
    for i, (b1, d1, s1, l1) in enumerate(entries):
        assert s1.offset % ALIGN == 0, l1
        assert s1.end <= plan.total_bytes, l1
        for b2, d2, s2, l2 in entries[i + 1:]:
            if b1 <= d2 and b2 <= d1:
                assert s1.end <= s2.offset or s2.end <= s1.offset, (
                    f"{l1} and {l2} are live together but share bytes"
                )


@settings(max_examples=30, deadline=None)
@given(cnn_stacks())
def test_plan_liveness_disjoint_and_runs_bit_identical(stack):
    model, shape = stack
    graph = trace_module(model, shape, np.dtype(np.float32))
    program = fuse_graph(graph)
    plan = plan_buffers(program, BACKEND)

    _assert_disjoint_liveness(plan)

    compiled = CompiledGraph(program, plan, BACKEND)
    x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    (result,) = compiled.run(x)
    with eager_only(), nn.inference_mode():
        expected = model(nn.Tensor(x)).data
    np.testing.assert_array_equal(result, expected)


def test_planner_reuses_bytes_across_kernels():
    """Sequential conv scratch must share bytes, not accumulate."""
    rng = np.random.default_rng(1)
    model = nn.Sequential(
        nn.Conv2D(1, 4, 3, padding="same", rng=rng), nn.ReLU(), nn.MaxPool2D(2),
        nn.Conv2D(4, 4, 3, padding="same", rng=rng), nn.ReLU(), nn.MaxPool2D(2),
    )
    model.eval()
    graph = trace_module(model, (4, 1, 16, 16), np.dtype(np.float32))
    program = fuse_graph(graph)
    plan = plan_buffers(program, BACKEND)
    assert plan.total_bytes < plan.peak_naive_bytes


def test_plan_intervals_cover_all_slots():
    rng = np.random.default_rng(2)
    model = nn.Sequential(
        nn.Conv2D(1, 2, 3, padding="same", rng=rng), nn.ReLU(), nn.MaxPool2D(2),
        nn.Flatten(), nn.Dense(2 * 4 * 4, 3, rng=rng), nn.ReLU(),
        nn.Dense(3, 3, rng=rng),
    )
    model.eval()
    graph = trace_module(model, (2, 1, 8, 8), np.dtype(np.float32))
    program = fuse_graph(graph)
    plan = plan_buffers(program, BACKEND)
    assert plan.slots
    assert set(plan.intervals) == set(plan.slots)
    for birth, death in plan.intervals.values():
        assert 0 <= birth <= death < len(program.kernels)
