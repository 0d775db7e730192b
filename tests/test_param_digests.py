"""Self-test of ``scripts/param_digests.py``, the training-bytes digest.

A two-step baseline fit, built the way the script builds the
benchmark's serving baselines, must give the same digest on every call,
and a digest must see a change to any parameter byte.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "param_digests.py")

_spec = importlib.util.spec_from_file_location("param_digests", SCRIPT)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

#: A ``workloads.json``-shaped serving workload whose baseline fit is
#: two steps: 32 maps in batches of 16, one epoch.
TINY = {
    "map_size": 16,
    "arch": {"conv_channels": [4, 4], "conv_kernels": [3, 3], "fc_units": 8},
    "model_seed": 3,
    "baseline": {"maps": 32, "validation_maps": 16, "epochs": 1,
                 "batch_size": 16, "target_coverage": 0.5},
}


def test_digest_is_stable_across_fits_and_sees_every_byte():
    first = digests.baseline_fit(TINY)
    assert len(first.history.epochs) == 1
    digest = digests.parameter_digest(first.model)
    assert len(digest) == 16 and int(digest, 16) >= 0
    assert digests.parameter_digest(digests.baseline_fit(TINY).model) == digest

    last = list(first.model.parameters())[-1].data
    last.reshape(-1)[-1] = -last.reshape(-1)[-1]
    assert digests.parameter_digest(first.model) != digest


def test_one_fit_per_benchmark_workload():
    with open(digests.WORKLOADS) as handle:
        workloads = json.load(handle)["workloads"]
    assert set(digests.FITS) == set(workloads)
