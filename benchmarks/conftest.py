"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper artifact at the ``bench`` preset
(a scaled-down workload that preserves the paper's class-imbalance
ratios) and asserts the *shape* of the paper's result — who wins, which
direction the trade-off slopes — rather than absolute numbers.  Run

    pytest benchmarks/ --benchmark-only

to regenerate everything; per-artifact reports are printed into the
benchmark output (use ``-s`` to see them live).

Passing ``--profile`` additionally installs a per-layer
:class:`repro.obs.LayerProfiler` on every model trained during the
session and prints the forward/backward time table after each fit
(add ``-s`` so the tables are visible) — this is how the ``im2col``
Conv2D hot spots are located before optimising them.
"""

import numpy as np
import pytest

from repro.core.trainer import Trainer
from repro.experiments.config import get_preset
from repro.obs.profile import LayerProfiler


def pytest_addoption(parser):
    parser.addoption(
        "--profile",
        action="store_true",
        default=False,
        help="print a per-layer forward/backward profile for every trained model",
    )


@pytest.fixture(scope="session", autouse=True)
def layer_profiling(request):
    """Opt-in per-layer profiling of every ``Trainer.fit`` in the session.

    Does nothing unless ``--profile`` was passed: the unpatched trainer
    runs with no hooks installed and therefore no timing calls on the
    hot path.
    """
    if not request.config.getoption("--profile"):
        yield
        return

    original_fit = Trainer.fit

    def profiled_fit(self, train, validation=None, resume=None):
        profiler = LayerProfiler()
        with profiler.attach(self.model):
            history = original_fit(self, train, validation=validation, resume=resume)
        print(f"\n--- per-layer profile ({type(self.model).__name__}) ---")
        print(profiler.format_table())
        return history

    Trainer.fit = profiled_fit
    try:
        yield
    finally:
        Trainer.fit = original_fit


@pytest.fixture(scope="session")
def bench_config():
    """The shared bench-scale experiment configuration."""
    return get_preset("bench")


@pytest.fixture(scope="session")
def bench_data(bench_config):
    """One dataset shared by all benchmarks (train/validation/test)."""
    return bench_config.make_data()


def once(benchmark, fn):
    """Run an expensive experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
