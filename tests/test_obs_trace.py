"""Unit tests for the repro.obs tracer, sinks, and cost attribution.

Every test builds its own :class:`Tracer` so the suite behaves the same
whether or not the global tracer is enabled (a process started with
``REPRO_TRACE=1``, or a traced example of the model test).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import costs
from repro.obs.trace import (
    NULL_SPAN,
    JSONLFileSink,
    RingBufferSink,
    SpanContext,
    Tracer,
)


def make_tracer(**kwargs) -> tuple[Tracer, RingBufferSink]:
    sink = RingBufferSink(1024)
    tracer = Tracer()
    tracer.configure(enabled=True, sinks=[sink], **kwargs)
    return tracer, sink


# -- span basics -------------------------------------------------------------


def test_disabled_tracer_returns_null_span():
    tracer = Tracer()
    span = tracer.span("anything")
    assert span is NULL_SPAN
    # The null span absorbs the whole surface without side effects.
    with span:
        span.set_attribute("k", "v")
        span.incr("n")
    assert tracer.current() is None
    assert tracer.inject() == b""


def test_span_nesting_sets_parent_and_trace_id():
    tracer, sink = make_tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
            assert tracer.current() is inner
        assert tracer.current() is outer
    assert tracer.current() is None
    names = [span.name for span in sink.spans()]
    assert names == ["inner", "outer"]  # children end first


def test_span_attributes_and_incr():
    tracer, sink = make_tracer()
    with tracer.span("op", attributes={"key": "value"}) as span:
        span.set_attribute("n", 3)
        span.incr("hits")
        span.incr("hits", 2)
    recorded = sink.spans()[0]
    assert recorded.attributes == {"key": "value", "n": 3, "hits": 3}
    assert recorded.duration_s >= 0


def test_explicit_parent_context():
    tracer, sink = make_tracer()
    with tracer.span("client") as client_span:
        parent_ctx = client_span.context
    with tracer.span("server", parent=parent_ctx):
        pass
    server = [span for span in sink.spans() if span.name == "server"][0]
    assert server.parent_id == parent_ctx.span_id
    assert server.trace_id == parent_ctx.trace_id


def test_traces_grouping():
    tracer, sink = make_tracer()
    with tracer.span("a"):
        with tracer.span("a.child"):
            pass
    with tracer.span("b"):
        pass
    groups = sink.traces()
    assert len(groups) == 2
    sizes = sorted(len(spans) for spans in groups.values())
    assert sizes == [1, 2]


# -- sampling ----------------------------------------------------------------


def test_sampled_out_trace_writes_nothing():
    tracer, sink = make_tracer(sample_rate=0.0)
    with tracer.span("root") as root:
        assert not root.sampled
        with tracer.span("child") as child:
            assert not child.sampled
    assert len(sink) == 0


def test_sampling_decision_inherited_by_children():
    tracer, sink = make_tracer(sample_rate=0.0)
    with tracer.span("root") as root:
        ctx = root.context
    assert ctx.sampled is False
    # A remote side extracting this context must also stay silent.
    remote, remote_sink = make_tracer()
    with remote.span("server", parent=ctx):
        pass
    assert len(remote_sink) == 0


# -- wire context ------------------------------------------------------------


def test_span_context_roundtrip():
    ctx = SpanContext(trace_id="00" * 8, span_id="ff" * 8, sampled=True)
    blob = ctx.to_bytes()
    assert len(blob) == SpanContext.WIRE_SIZE
    back = SpanContext.from_bytes(blob)
    assert back.trace_id == ctx.trace_id
    assert back.span_id == ctx.span_id
    assert back.sampled is True
    assert SpanContext.from_bytes(b"short") is None


def test_inject_extract_roundtrip():
    tracer, __ = make_tracer()
    with tracer.span("client") as span:
        blob = tracer.inject()
        assert len(blob) == SpanContext.WIRE_SIZE
        ctx = tracer.extract(blob)
        assert ctx.trace_id == span.trace_id
        assert ctx.span_id == span.span_id
        assert ctx.sampled is True
    assert tracer.extract(b"") is None
    assert tracer.extract(b"garbage") is None


# -- sinks -------------------------------------------------------------------


def test_ring_buffer_sink_bounded():
    tracer, sink = make_tracer()
    small = RingBufferSink(4)
    tracer.configure(sinks=[small])
    for index in range(10):
        with tracer.span(f"span-{index}"):
            pass
    assert len(small) == 4
    assert [span.name for span in small.spans()] == [
        "span-6", "span-7", "span-8", "span-9"
    ]
    small.clear()
    assert len(small) == 0


def test_jsonl_file_sink(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JSONLFileSink(str(path))
    tracer = Tracer()
    tracer.configure(enabled=True, sinks=[sink])
    with tracer.span("alpha", attributes={"n": 1}):
        with tracer.span("beta"):
            pass
    sink.close()
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    rows = [json.loads(line) for line in lines]
    by_name = {row["name"]: row for row in rows}
    assert by_name["beta"]["parent_id"] == by_name["alpha"]["span_id"]
    assert by_name["beta"]["trace_id"] == by_name["alpha"]["trace_id"]
    assert by_name["alpha"]["attributes"] == {"n": 1}
    assert sink.emitted == 2


def test_sink_exception_does_not_break_tracing():
    class BrokenSink:
        def emit(self, span):
            raise RuntimeError("sink down")

    sink = RingBufferSink(16)
    tracer = Tracer()
    tracer.configure(enabled=True, sinks=[BrokenSink(), sink])
    with tracer.span("survives"):
        pass
    assert [span.name for span in sink.spans()] == ["survives"]


# -- threading ---------------------------------------------------------------


def test_thread_local_span_stacks_are_isolated():
    tracer, sink = make_tracer()
    seen = {}

    def worker(tag: str):
        with tracer.span(f"root-{tag}"):
            seen[tag] = tracer.current().name

    with tracer.span("main-root"):
        threads = [
            threading.Thread(target=worker, args=(str(i),)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert tracer.current().name == "main-root"
    # Worker roots must not have parented under the main thread's span.
    for span in sink.spans():
        if span.name.startswith("root-"):
            assert span.parent_id is None


# -- cost attribution --------------------------------------------------------


def test_costs_charge_noop_without_collector():
    assert not costs.active()
    costs.charge("encrypt", 1.0, 100)  # must not raise or leak anywhere


def test_costs_collect_and_op_class():
    with costs.collect() as breakdown:
        assert costs.active()
        costs.charge("encrypt", 0.5, 1000)
        with costs.op_class("read"):
            costs.charge("kds", 0.25)
            costs.charge("io", 0.125, 4096)
        costs.charge("io", 0.0625)
    assert not costs.active()
    data = breakdown.as_dict()
    assert data["all"]["encrypt_seconds"] == 0.5
    assert data["all"]["encrypt_bytes"] == 1000
    assert data["all"]["io_seconds"] == 0.0625
    assert data["read"]["kds_seconds"] == 0.25
    assert data["read"]["io_seconds"] == 0.125
    assert data["read"]["io_bytes"] == 4096
    # Core categories are zero-filled for stable JSON shapes.
    assert data["read"]["encrypt_seconds"] == 0.0
    assert breakdown.total("io") == pytest.approx(0.1875)


def test_costs_op_class_noop_when_not_collecting():
    with costs.op_class("read"):
        costs.charge("encrypt", 1.0)
    # Nothing was collecting, so nothing to observe -- just no crash.
    assert not costs.active()
