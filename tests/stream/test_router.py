"""Router accounting: accept/abstain split, queueing, typed sheds."""

import numpy as np
import pytest

from repro.core.cnn import BackboneConfig
from repro.core.selective import SelectiveNet
from repro.obs.metrics import MetricsRegistry
from repro.serve.batcher import SHED_LABEL_QUEUE_FULL
from repro.serve.engine import ServeConfig, ServeEngine
from repro.stream.queue import HumanLabelQueue, OracleLabeler
from repro.stream.router import AbstentionRouter
from repro.stream.simulator import EpisodeSpec, StreamConfig, WaferStream

SIZE = 12

#: Selection scores are sigmoid outputs in (0, 1): a threshold above 1
#: abstains on everything, below 0 accepts everything.
ABSTAIN_ALL = 2.0
ACCEPT_ALL = -1.0


def make_model():
    return SelectiveNet(
        num_classes=3,
        config=BackboneConfig(
            input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=0,
        ),
    )


def make_batch(step=0, wafers=6):
    stream = WaferStream(
        StreamConfig(size=SIZE, wafers_per_step=wafers, seed=0),
        [EpisodeSpec("clean", steps=4)],
    )
    return stream.batch(step)


@pytest.fixture
def engine_factory():
    engines = []

    def build(threshold):
        engine = ServeEngine(make_model(), ServeConfig(
            max_batch_size=8, cache_bytes=0, threshold=threshold,
        ), registry=MetricsRegistry())
        engines.append(engine)
        return engine

    yield build
    for engine in engines:
        engine.close()


def make_router(engine, capacity=64):
    queue = HumanLabelQueue(
        OracleLabeler(num_classes=3, latency_steps=0),
        capacity=capacity, budget_per_window=64, window_steps=10,
        registry=MetricsRegistry(),
    )
    return AbstentionRouter(engine, queue)


class TestRouting:
    def test_accept_all_routes_nothing_to_humans(self, engine_factory):
        router = make_router(engine_factory(ACCEPT_ALL))
        outcome = router.route(make_batch())
        assert outcome.accepted == 6
        assert outcome.abstained == 0
        assert outcome.queued == 0
        assert outcome.coverage == 1.0
        assert router.queue.depth == 0

    def test_abstain_all_queues_everything(self, engine_factory):
        router = make_router(engine_factory(ABSTAIN_ALL))
        outcome = router.route(make_batch())
        assert outcome.accepted == 0
        assert outcome.abstained == 6
        assert outcome.queued == 6
        assert outcome.coverage == 0.0
        assert router.queue.depth == 6

    def test_queue_overflow_becomes_typed_shed(self, engine_factory):
        router = make_router(engine_factory(ABSTAIN_ALL), capacity=2)
        outcome = router.route(make_batch())
        assert outcome.queued == 2
        assert outcome.shed == {SHED_LABEL_QUEUE_FULL: 4}
        assert router.stats()["total_shed"] == {SHED_LABEL_QUEUE_FULL: 4}

    def test_wafer_ids_are_unique_across_steps(self, engine_factory):
        router = make_router(engine_factory(ABSTAIN_ALL))
        router.route(make_batch(step=0))
        router.route(make_batch(step=1))
        labeled = router.queue.poll(1)
        ids = [w.wafer_id for w in labeled]
        assert len(ids) == len(set(ids)) == 12

    def test_queued_labels_echo_ground_truth(self, engine_factory):
        router = make_router(engine_factory(ABSTAIN_ALL))
        batch = make_batch()
        router.route(batch)
        labeled = router.queue.poll(batch.step)
        assert [w.true_label for w in labeled] == [
            int(label) for label in batch.labels
        ]

    def test_totals_accumulate(self, engine_factory):
        router = make_router(engine_factory(ACCEPT_ALL))
        for step in range(3):
            router.route(make_batch(step=step))
        stats = router.stats()
        assert stats["total_accepted"] == 18
        assert stats["total_abstained"] == 0


class TestAccuracy:
    def test_accuracy_none_when_nothing_accepted(self, engine_factory):
        router = make_router(engine_factory(ABSTAIN_ALL))
        batch = make_batch()
        outcome = router.route(batch)
        assert outcome.accuracy_on_accepted(batch.labels) is None

    def test_accuracy_counts_matches_on_accepted(self, engine_factory):
        router = make_router(engine_factory(ACCEPT_ALL))
        batch = make_batch()
        outcome = router.route(batch)
        matches = sum(
            1 for result, label in zip(outcome.results, batch.labels)
            if result.label == int(label)
        )
        assert outcome.accuracy_on_accepted(batch.labels) == matches / 6
