"""Exporter tests: Prometheus text grammar, NDJSON, Chrome trace JSON."""

import json
import re

from repro.telemetry import Tracer
from repro.telemetry.export import (
    spans_to_chrome_trace,
    spans_to_ndjson,
    to_json,
    to_prometheus,
)
from repro.telemetry.metrics import MetricsRegistry

#: One sample line: metric name + optional {labels} + space + number.
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$"
)


def _registry():
    registry = MetricsRegistry()
    registry.counter("repro_events_total", "Events.", ("kind",)).inc(3, kind="run")
    registry.gauge("repro_entries", "Entries.").set_callback(lambda: 7)
    hist = registry.histogram("repro_op_seconds", "Ops.", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(2.0)
    return registry


class TestPrometheus:
    def test_every_sample_line_matches_the_grammar(self):
        text = to_prometheus(_registry().snapshot())
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) ", line), line
            else:
                assert _SAMPLE.match(line), line

    def test_counter_and_gauge_values(self):
        text = to_prometheus(_registry().snapshot())
        assert 'repro_events_total{kind="run"} 3' in text
        assert "repro_entries 7" in text
        assert "# TYPE repro_events_total counter" in text
        assert "# TYPE repro_entries gauge" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = to_prometheus(_registry().snapshot())
        assert 'repro_op_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_op_seconds_bucket{le="1"} 2' in text
        assert 'repro_op_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_op_seconds_count 3" in text
        assert "repro_op_seconds_sum 2.55" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "", ("k",)).inc(1, k='we"ird\nvalue')
        text = to_prometheus(registry.snapshot())
        assert 'k="we\\"ird\\nvalue"' in text

    def test_never_written_prebound_series_renders_integer_zero(self):
        registry = MetricsRegistry()
        registry.counter("cold_total", "", ("r",)).labels(r="hit")
        assert "cold_total{r=\"hit\"} 0\n" in to_prometheus(registry.snapshot())


class TestJsonAndNdjson:
    def test_to_json_round_trips(self):
        snapshot = _registry().snapshot()
        assert json.loads(to_json(snapshot)) == json.loads(json.dumps(snapshot))

    def test_ndjson_one_object_per_line(self):
        tracer = Tracer(seed=1)
        tracer.emit("a", 0.1)
        tracer.emit("b", 0.2)
        lines = spans_to_ndjson(tracer.finished()).splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_ndjson_accepts_plain_dicts(self):
        payload = [{"name": "x", "span_id": "1", "parent_id": None, "trace_id": "1"}]
        assert json.loads(spans_to_ndjson(payload).strip())["name"] == "x"


class TestChromeTrace:
    def _spans(self):
        tracer = Tracer(seed=1)
        with tracer.span("engine.run", device="d"):
            tracer.emit("transpiler.pass", 0.01, pass_name="p")
        return tracer.finished()

    def test_complete_events_with_relative_microseconds(self):
        doc = spans_to_chrome_trace(self._spans())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"engine.run", "transpiler.pass"}
        assert min(e["ts"] for e in events) == 0.0
        assert all(e["dur"] >= 0 for e in events)

    def test_process_and_thread_metadata_rows(self):
        doc = spans_to_chrome_trace(self._spans())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}

    def test_span_identity_lands_in_args(self):
        doc = spans_to_chrome_trace(self._spans())
        child = next(e for e in doc["traceEvents"] if e.get("name") == "transpiler.pass")
        assert "span_id" in child["args"]
        assert "parent_id" in child["args"]

    def test_document_is_json_serialisable(self):
        json.dumps(spans_to_chrome_trace(self._spans()))


class TestTranspilerPassLabel:
    """The pass-latency histogram carries one series per pass name."""

    def _run_passes(self):
        from repro.circuits import Circuit
        from repro.telemetry import get_metrics
        from repro.transpiler import DecomposeToCanonical, DropNegligible, PassManager

        circuit = Circuit(2, name="label").rz(0.5, 0).rz(1e-14, 1)
        PassManager([DropNegligible()]).run(circuit)
        PassManager([DecomposeToCanonical()]).run(circuit)
        return to_prometheus(get_metrics().snapshot())

    def test_pass_labelled_samples_match_the_grammar(self):
        text = self._run_passes()
        samples = 0
        for line in text.splitlines():
            if "repro_transpiler_pass_seconds" not in line or line.startswith("#"):
                continue
            assert _SAMPLE.match(line), line
            assert "path=" not in line, line
            samples += 1
        assert samples
