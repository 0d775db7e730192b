"""Self-tests of the benchmark harness (not of the program under test).

Run with ``python3 -m pytest fabbench/tests -q`` from the repository root.
"""

import asyncio
import json
import os
import struct
import threading

import numpy as np
import pytest

from fabbench import harness, layers, openloop, spans
from fabbench.stats import INF, Outcome, latency_summary, quantile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# Open-loop timing
# ----------------------------------------------------------------------
class EchoGateway:
    """A TCP peer that answers every request frame at once."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._serve, "127.0.0.1", 0), self.loop).result(10)
        self.port = self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer) -> None:
        try:
            while True:
                (length,) = struct.unpack(">I", await reader.readexactly(4))
                request = json.loads(await reader.readexactly(length))
                body = json.dumps({"v": 1, "id": request["id"], "ok": True}).encode()
                writer.write(struct.pack(">I", len(body)) + body)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            writer.close()

    def close(self) -> None:
        async def stop():
            self.server.close()
            await self.server.wait_closed()

        asyncio.run_coroutine_threadsafe(stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive()
        self.loop.close()


@pytest.fixture
def echo():
    peer = EchoGateway()
    yield peer
    peer.close()


def test_latency_counts_from_due_time_under_injected_stall(echo):
    # 40 requests every 10 ms; the generator stalls 200 ms before #5.
    schedule = [openloop.Scheduled(0.01 * i, 0, "t", i) for i in range(40)]
    frames = [openloop.frame(i, "t", b"[[0]]") for i in range(40)]
    stall_s = 0.2

    def stall(index):
        if index == 5:
            import time
            time.sleep(stall_s)

    result = openloop.run("127.0.0.1", echo.port, schedule, frames, 1, 5.0,
                          before_send=stall)
    assert all(r is not None for r in result.responses)
    lateness = result.lateness_s(schedule)
    from_due = [d - item.due_s for d, item in zip(result.done_at, schedule)]
    from_send = [d - s for d, s in zip(result.done_at, result.sent_at)]
    # Request 6 was due 10 ms after #5 but left after the stall: its
    # latency from due time carries ~190 ms the send-time clock hides.
    assert from_due[6] >= stall_s - 0.01 - 0.005
    assert from_send[6] < 0.05
    assert quantile(lateness, 0.99) >= stall_s - 0.02
    # Requests due after the stall ended are on time again.
    assert lateness[-1] < 0.05


def test_frames_are_protocol_requests():
    from repro.serve.protocol import HEADER_BYTES, decode_payload, parse_request

    grid = np.arange(16, dtype=np.uint8).reshape(4, 4) % 3
    frame = openloop.frame(7, "fab", openloop.encode_grid(grid))
    (length,) = struct.unpack(">I", frame[:HEADER_BYTES])
    assert length == len(frame) - HEADER_BYTES
    req_id, tenant, parsed = parse_request(decode_payload(frame[HEADER_BYTES:]))
    assert (req_id, tenant) == ("7", "fab")
    np.testing.assert_array_equal(parsed, grid)


def test_poisson_schedule_is_seeded():
    a = openloop.poisson_times(np.random.default_rng(3), 100.0, 0.0, 2.0)
    b = openloop.poisson_times(np.random.default_rng(3), 100.0, 0.0, 2.0)
    assert a == b and all(0.0 <= t < 2.0 for t in a)
    on_off = openloop.on_off_times(np.random.default_rng(3), 500.0, 0.1, 0.4, 0.0, 2.0)
    assert all((t % 0.5) < 0.1 for t in on_off)


# ----------------------------------------------------------------------
# Latency statistics and generations
# ----------------------------------------------------------------------
def test_failed_requests_count_as_infinitely_late():
    outcomes = [Outcome("t", 0.001 * i, 0.01, True) for i in range(985)]
    outcomes += [Outcome("t", 0.985 + 0.001 * i, INF, False) for i in range(15)]
    summary = latency_summary(outcomes)
    assert summary["latency_p50_ms"] == pytest.approx(10.0)
    assert summary["latency_p99_ms"] == INF
    assert summary["samples_beyond_p99"] == 10


def test_candidate_generations_cover_swaps_in_flight():
    transitions = [{"start": 10.0, "end": 10.5, "gens": [2]},
                   {"start": 20.0, "end": 20.2, "gens": [3, 4]}]
    assert harness.candidate_generations(1.0, 2.0, transitions) == [1]
    assert harness.candidate_generations(9.9, 10.1, transitions) == [1, 2]
    assert harness.candidate_generations(11.0, 12.0, transitions) == [2]
    assert harness.candidate_generations(19.0, 20.1, transitions) == [2, 3, 4]
    assert harness.candidate_generations(21.0, 22.0, transitions) == [4]


# ----------------------------------------------------------------------
# Trace wrappers
# ----------------------------------------------------------------------
def test_self_time_excludes_children_per_asyncio_task():
    recorder = spans.Recorder()
    ticks = iter(range(1000))
    recorder.clock = lambda: float(next(ticks))

    def leaf():
        return None

    leaf_wrapped = recorder.wrap(leaf, "leaf")

    async def handler():
        leaf_wrapped()
        await asyncio.sleep(0)
        leaf_wrapped()

    handler_wrapped = recorder.wrap(handler, "handler")

    async def main():
        await asyncio.gather(handler_wrapped(), handler_wrapped())

    asyncio.run(main())
    summary = spans.summarize(recorder.spans)
    assert summary["leaf"]["count"] == 4
    assert summary["handler"]["count"] == 2
    # Every leaf is a child of the handler span in its own task.
    for span in recorder.spans:
        if span[spans.NAME] == "leaf":
            assert span[spans.PARENT][spans.NAME] == "handler"
    handler_spans = [s for s in recorder.spans if s[spans.NAME] == "handler"]
    for span in handler_spans:
        assert span[spans.CHILD] == 2.0  # two leaves of one tick each


def _targets():
    import repro.core.augmentation as augmentation
    import repro.core.pipeline as pipeline
    import repro.core.trainer as trainer
    import repro.serve.gateway as gateway
    from repro.core.selective import SelectiveNet
    from repro.data.dataset import BatchIterator
    from repro.nn.compile.api import CompiledModule
    from repro.nn.optim import Adam, Optimizer
    from repro.nn.tensor import Tensor
    from repro.serve.engine import ServeEngine

    owners = [gateway, gateway.Gateway, trainer, trainer.Trainer, pipeline, augmentation,
              SelectiveNet, BatchIterator, CompiledModule, Adam, Optimizer, Tensor, ServeEngine,
              pipeline.SelectiveWaferClassifier]
    return {(owner, name): owner.__dict__.get(name, "<inherited>")
            for owner in owners for name in list(vars(owner))
            if callable(owner.__dict__.get(name))} | {
        (SelectiveNet, "__call__"): SelectiveNet.__dict__.get("__call__", "<inherited>")}


def test_probe_restores_every_original():
    before = _targets()
    probe = layers.Probe()
    probe.install()
    try:
        assert probe.patcher.active > 20
        from repro.core.selective import SelectiveNet
        import repro.serve.gateway as gateway

        assert "__call__" in SelectiveNet.__dict__
        assert gateway.decode_payload is not before[(gateway, "decode_payload")]
    finally:
        probe.restore()
    after = _targets()
    assert probe.patcher.active == 0
    assert after == before
    from repro.core.selective import SelectiveNet

    assert "__call__" not in SelectiveNet.__dict__


def test_untraced_server_installs_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(layers.Probe, "install", lambda self: calls.append(self))
    from fabbench import server

    class Stop(Exception):
        pass

    def host(*args):
        raise Stop

    monkeypatch.setitem(server.HOSTS, "train", host)
    monkeypatch.setattr(server.os, "dup2", lambda *a: None)
    with pytest.raises(Stop):
        server.main(["--workload", "train_pipeline", "--seed", "1", "--trace", "0",
                     "--workdir", "unused"])
    assert calls == []


# ----------------------------------------------------------------------
# Shape of BENCHMARK.json and the core budget
# ----------------------------------------------------------------------
def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [m["name"] for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert all(m["unit"] == layers.PER_LAYER[m["name"]] for m in bench["per_layer"])
    from fabbench.server import load_config

    config = load_config()
    assert [w["name"] for w in bench["workloads"]] == list(config["workloads"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_core_budget_counts_the_threads_that_really_ran(echo, monkeypatch):
    schedule = [openloop.Scheduled(0.001 * i, 0, "t", i) for i in range(5)]
    frames = [openloop.frame(i, "t", b"[[0]]") for i in range(5)]
    before = threading.active_count()
    result = openloop.run("127.0.0.1", echo.port, schedule, frames, 1, 5.0)
    # Driving starts no thread of its own; the echo peer's thread counts.
    assert result.threads == before >= 2
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(before)))
    harness.core_budget(result.threads, 1)
    with pytest.raises(harness.RunInvalid):
        harness.core_budget(result.threads + 1, 1)
    with pytest.raises(harness.RunInvalid):
        harness.core_budget(result.threads, before + 1)


# ----------------------------------------------------------------------
# Traffic plans
# ----------------------------------------------------------------------
def test_priming_makes_repeats_start_at_the_first_request():
    cfg = {"tenants": {"steady": {"conn": 0}, "bursty": {"conn": 1}},
           "traffic": {"kind": "mix", "steady_wps": 240, "burst_wps": 500, "on_s": 0.3,
                       "off_s": 0.9, "repeat_share": 0.5, "working_set": 400,
                       "prime": {"tenant": "steady", "rate_wps": 500}}}
    rng = np.random.default_rng(5)
    priming = harness.plan_priming(cfg, rng)
    assert [item.map_index for item in priming] == list(range(400))
    assert {item.tenant for item in priming} == {"steady"}
    schedule = harness.plan_traffic(cfg, 12.0, rng, primed=len(priming))
    seen = set(range(400))
    repeats = []
    for item in schedule:
        repeats.append(item.map_index in seen)
        seen.add(item.map_index)
    # The share holds in both halves: the timed phase is one regime.
    half = len(schedule) // 2
    for part in (repeats[:half], repeats[half:]):
        assert abs(sum(part) / len(part) - 0.5) < 0.06
    # Unprimed, the first working_set requests are all fresh.
    cold = harness.plan_traffic(cfg, 12.0, np.random.default_rng(5))
    assert [item.map_index for item in cold[:400]] == list(range(400))
