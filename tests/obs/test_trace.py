"""Tests for distributed tracing: spans, context propagation, arming."""

import pickle

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.trace import (
    Span,
    TraceContext,
    Tracer,
    arm_tracing,
    current_tracer,
    disarm_tracing,
    format_span_tree,
    remote_span,
    span_tree,
    traced,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _always_disarmed():
    """Tests must never leak an armed global tracer."""
    disarm_tracing()
    yield
    disarm_tracing()


class TestTraceContext:
    def test_is_a_plain_picklable_tuple(self):
        ctx = TraceContext("t1", "s1")
        assert tuple(ctx) == ("t1", "s1")
        assert ctx.trace_id == "t1" and ctx.span_id == "s1"
        clone = pickle.loads(pickle.dumps(ctx))
        assert tuple(clone) == ("t1", "s1")

    def test_survives_downcast_to_tuple(self):
        # Task envelopes ship plain tuples; the receiver rebuilds.
        wire = tuple(TraceContext("t1", "s1"))
        rebuilt = TraceContext(wire[0], wire[1])
        assert rebuilt.trace_id == "t1"


class TestSpan:
    def test_root_span_opens_fresh_trace(self):
        span = Span.start("work")
        assert span.parent_id is None
        assert span.trace_id and span.span_id

    def test_child_inherits_trace_and_parent(self):
        root = Span.start("root")
        child = Span.start("child", parent=root.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_finish_freezes_duration_and_is_idempotent(self):
        span = Span.start("work")
        record = span.finish()
        assert record["duration_s"] >= 0.0
        assert span.finish()["duration_s"] == record["duration_s"]

    def test_backdated_span_requires_explicit_duration(self):
        span = Span.start("queue", start_unix=123.0)
        assert span.start_unix == 123.0
        assert span.finish(duration_s=0.5)["duration_s"] == 0.5

    def test_attrs_and_events_land_in_record(self):
        span = Span.start("work", lane=3)
        span.set("cache", "hit").event("retry", attempt=2)
        record = span.finish()
        assert record["attrs"] == {"lane": 3, "cache": "hit"}
        assert record["events"][0]["name"] == "retry"

    def test_record_carries_schema_and_pid(self):
        record = Span.start("work").finish()
        assert record["schema"] == 1
        assert isinstance(record["pid"], int)


class TestRemoteSpan:
    def test_yields_none_without_context(self):
        with remote_span("replica.forward", None) as span:
            assert span is None

    def test_builds_child_from_wire_tuple(self):
        root = Span.start("root")
        with remote_span("replica.forward", tuple(root.context), rank=1) as span:
            pass
        record = span.to_record()
        assert record["trace_id"] == root.trace_id
        assert record["parent_id"] == root.span_id
        assert record["attrs"]["rank"] == 1
        assert record["status"] == "ok"

    def test_marks_error_and_reraises(self):
        root = Span.start("root")
        with pytest.raises(RuntimeError):
            with remote_span("replica.forward", tuple(root.context)) as span:
                raise RuntimeError("boom")
        assert span.to_record()["status"] == "error"


class TestTracer:
    def test_end_ingests_into_ring(self):
        tracer = Tracer()
        span = tracer.start_span("work")
        tracer.end(span)
        assert [r["name"] for r in tracer.spans()] == ["work"]

    def test_span_context_manager_records_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("no")
        assert tracer.spans()[0]["status"] == "error"

    def test_ring_capacity_drops_oldest(self):
        tracer = Tracer(capacity=2)
        for i in range(3):
            tracer.end(tracer.start_span(f"s{i}"))
        assert [r["name"] for r in tracer.spans()] == ["s1", "s2"]

    def test_spans_filters_by_trace_and_trace_ids_ordered(self):
        tracer = Tracer()
        a = tracer.start_span("a")
        tracer.end(a)
        b = tracer.start_span("b")
        tracer.end(b)
        assert tracer.trace_ids() == [a.trace_id, b.trace_id]
        assert [r["name"] for r in tracer.spans(b.trace_id)] == ["b"]

    def test_ingest_accepts_worker_records(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        with remote_span("shard", tuple(root.context)) as span:
            pass
        tracer.ingest(span.to_record())
        tracer.end(root)
        assert {r["name"] for r in tracer.spans(root.trace_id)} == {"root", "shard"}

    def test_recorder_receives_span_records(self):
        recorder = FlightRecorder(capacity=8)
        tracer = Tracer(recorder=recorder)
        tracer.end(tracer.start_span("work"))
        entries = recorder.snapshot()
        assert [entry["kind"] for entry in entries] == ["span"]
        assert entries[0]["data"]["name"] == "work"

    def test_run_logger_receives_trace_span_records(self, tmp_path):
        from repro.obs.events import RunLogger, load_run

        with RunLogger(str(tmp_path / "r")) as run_logger:
            tracer = Tracer(run_logger=run_logger)
            tracer.end(tracer.start_span("work"))
        records = [
            r for r in load_run(str(tmp_path / "r")) if r["type"] == "trace_span"
        ]
        assert len(records) == 1
        assert records[0]["data"]["name"] == "work"


class TestArming:
    def test_disarmed_by_default(self):
        assert current_tracer() is None
        assert not tracing_enabled()

    def test_arm_and_disarm(self):
        tracer = arm_tracing(recorder=False)
        assert current_tracer() is tracer
        disarm_tracing()
        assert current_tracer() is None

    def test_traced_scopes_the_global(self):
        with traced(recorder=False) as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_arm_defaults_to_flight_recorder(self):
        from repro.obs.flight import default_flight_recorder

        tracer = arm_tracing()
        tracer.end(tracer.start_span("work"))
        kinds = [e["kind"] for e in default_flight_recorder().snapshot()]
        assert "span" in kinds


class TestSpanTree:
    def _chain(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root.context)
        grand = tracer.start_span("grand", parent=child.context)
        for span in (grand, child, root):
            tracer.end(span)
        return tracer, root

    def test_tree_structure(self):
        tracer, root = self._chain()
        roots = span_tree(tracer.spans(root.trace_id))
        assert len(roots) == 1
        assert roots[0]["name"] == "root"
        assert roots[0]["children"][0]["name"] == "child"
        assert roots[0]["children"][0]["children"][0]["name"] == "grand"

    def test_orphans_promoted_to_roots(self):
        tracer, root = self._chain()
        records = [
            r for r in tracer.spans(root.trace_id) if r["name"] != "child"
        ]
        names = {node["name"] for node in span_tree(records)}
        assert names == {"root", "grand"}

    def test_format_indents_by_depth(self):
        tracer, root = self._chain()
        text = format_span_tree(tracer.spans(root.trace_id))
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert lines[2].startswith("    grand")
