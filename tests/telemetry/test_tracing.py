"""Unit tests for the tracing half of the telemetry subsystem."""

import threading

import pytest

from repro.telemetry import NULL_SPAN, Span, Tracer, configure_tracing, get_tracer


class TestSpanNesting:
    def test_parent_child_links(self):
        tracer = Tracer(seed=1)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id == outer.span_id
        names = [span.name for span in tracer.finished()]
        assert names == ["inner", "outer"]  # completion order

    def test_sibling_spans_share_parent(self):
        tracer = Tracer(seed=1)
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        spans = {span.name: span for span in tracer.finished()}
        assert spans["a"].parent_id == root.span_id
        assert spans["b"].parent_id == root.span_id

    def test_emit_parents_under_current_span(self):
        tracer = Tracer(seed=1)
        with tracer.span("root") as root:
            emitted = tracer.emit("timed", 0.25, detail="x")
        assert emitted.parent_id == root.span_id
        assert emitted.duration == 0.25
        assert emitted.attributes["detail"] == "x"

    def test_exception_marks_error_status(self):
        tracer = Tracer(seed=1)
        with pytest.raises(RuntimeError):
            with tracer.span("explodes"):
                raise RuntimeError("boom")
        (span,) = tracer.finished()
        assert span.status == "error"
        assert span.attributes["error"] == "RuntimeError"

    def test_threads_have_independent_stacks(self):
        tracer = Tracer(seed=1)
        seen = {}

        def worker():
            with tracer.span("thread-root") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["parent"] is None  # no cross-thread inheritance

    def test_resumed_span_parents_work_on_another_thread(self):
        tracer = Tracer(seed=1)
        seen = {}

        def worker(parent):
            with tracer.resume(parent):
                with tracer.span("pool-task") as span:
                    seen["task"] = span
            seen["after"] = tracer.current_span()

        with tracer.span("submitter") as submitter:
            thread = threading.Thread(target=worker, args=(tracer.current_span(),))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen["task"].parent_id == submitter.span_id
        assert seen["task"].trace_id == submitter.trace_id
        assert seen["after"] is None  # the worker's stack is unwound
        # resuming records nothing: the submitter is in the buffer once
        names = [span.name for span in tracer.finished()]
        assert names == ["pool-task", "submitter"]

    def test_resume_of_nothing_is_a_noop(self):
        tracer = Tracer(seed=1)
        with tracer.resume(None):
            with tracer.span("root") as span:
                assert span.parent_id is None
        disabled = Tracer(enabled=False)
        assert disabled.resume(Span("x", "1", None, "1")) is NULL_SPAN


class TestDeterminism:
    def _run(self, tracer):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
            tracer.emit("leaf", 0.1)
        return [(span.name, span.span_id, span.parent_id) for span in tracer.finished()]

    def test_fixed_seed_yields_identical_ids(self):
        first = self._run(Tracer(seed=42))
        second = self._run(Tracer(seed=42))
        assert first == second

    def test_reseed_restarts_the_counter(self):
        tracer = Tracer(seed=1)
        first = self._run(tracer)
        tracer.reseed(1)
        assert self._run(tracer) == first

    def test_id_prefix_is_applied(self):
        tracer = Tracer(seed=1, id_prefix="w9-")
        with tracer.span("x") as span:
            assert span.span_id == "w9-1"


class TestDisabledMode:
    def test_disabled_span_is_the_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        with tracer.span("anything") as span:
            span.set_attribute("k", "v")  # no-op, no error
        assert tracer.finished() == []

    def test_disabled_emit_returns_none(self):
        tracer = Tracer(enabled=False)
        assert tracer.emit("x", 0.1) is None


class TestRetention:
    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(seed=1, max_spans=3)
        for index in range(5):
            tracer.emit(f"s{index}", 0.0)
        names = [span.name for span in tracer.finished()]
        assert names == ["s2", "s3", "s4"]
        assert tracer.dropped == 2

    def test_adopt_overflow_drops_oldest_and_counts(self):
        tracer = Tracer(seed=1, max_spans=3)
        tracer.emit("local", 0.0)
        shipped = [
            {"name": f"w{index}", "span_id": f"w-{index}", "parent_id": None,
             "trace_id": f"w-{index}"}
            for index in range(4)
        ]
        tracer.adopt(shipped)
        assert [span.name for span in tracer.finished()] == ["w1", "w2", "w3"]
        assert tracer.dropped == 2
        tracer.emit("after", 0.0)
        assert [span.name for span in tracer.finished()] == ["w2", "w3", "after"]
        assert tracer.dropped == 3

    def test_max_spans_shrink_keeps_newest(self):
        tracer = get_tracer()
        previous = (tracer.enabled, tracer.max_spans)
        tracer.clear()
        try:
            configure_tracing(enabled=True)
            for index in range(5):
                tracer.emit(f"s{index}", 0.0)
            configure_tracing(max_spans=2)
            assert tracer.max_spans == 2
            assert [span.name for span in tracer.finished()] == ["s3", "s4"]
            assert tracer.dropped == 3
            tracer.emit("s5", 0.0)
            assert [span.name for span in tracer.finished()] == ["s4", "s5"]
            assert tracer.dropped == 4
            configure_tracing(max_spans=10)  # growing keeps everything
            assert [span.name for span in tracer.finished()] == ["s4", "s5"]
            assert tracer.dropped == 4
        finally:
            tracer.clear()
            configure_tracing(enabled=previous[0], max_spans=previous[1])

    def test_drain_empties_the_buffer(self):
        tracer = Tracer(seed=1)
        tracer.emit("a", 0.0)
        drained = tracer.drain()
        assert [span.name for span in drained] == ["a"]
        assert tracer.finished() == []

    def test_finished_filters_by_trace_id(self):
        tracer = Tracer(seed=1)
        with tracer.span("t1"):
            pass
        with tracer.span("t2"):
            pass
        spans = tracer.finished()
        only = tracer.finished(spans[0].trace_id)
        assert [span.name for span in only] == ["t1"]


class TestAdopt:
    def test_adopt_reparents_roots_and_rewrites_trace(self):
        worker = Tracer(seed=1, id_prefix="w1-")
        with worker.span("worker.lease"):
            with worker.span("child"):
                pass
        shipped = [span.as_dict() for span in worker.drain()]

        parent = Tracer(seed=1)
        with parent.span("scheduler") as anchor:
            adopted = parent.adopt(shipped, parent=anchor)
        by_name = {span.name: span for span in adopted}
        assert by_name["worker.lease"].parent_id == anchor.span_id
        # intra-batch parent links survive verbatim
        assert by_name["child"].parent_id == by_name["worker.lease"].span_id
        assert all(span.trace_id == anchor.trace_id for span in adopted)

    def test_adopt_on_disabled_tracer_is_a_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.adopt([{"name": "x", "span_id": "1", "parent_id": None,
                              "trace_id": "1"}]) == []

    def test_reset_context_clears_inherited_stack(self):
        tracer = Tracer(seed=1)
        context = tracer.span("stale")
        context.__enter__()  # simulate a fork child inheriting an open span
        tracer.reset_context()
        with tracer.span("fresh") as span:
            assert span.parent_id is None
