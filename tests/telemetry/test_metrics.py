"""Unit tests for the metrics half of the telemetry subsystem."""

import threading

import pytest

from repro.telemetry import LiveSet, diff_snapshots, get_metrics
from repro.telemetry.metrics import MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "Events.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("lookups_total", "Lookups.", ("result",))
        hits = counter.labels(result="hit")
        misses = counter.labels(result="miss")
        hits.add(3.0)
        misses.add(1.0)
        assert hits.value() == 3.0
        assert misses.value() == 1.0

    def test_idempotent_registration_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "C.")
        second = registry.counter("c_total", "C.")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.")
        with pytest.raises(Exception):
            registry.gauge("x_total", "X.")

    def test_threaded_increments_are_lossless(self):
        registry = MetricsRegistry()
        counter = registry.counter("hot_total", "Hot path.")
        series = counter.labels()

        def hammer():
            for _ in range(10_000):
                series.add(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 40_000


class TestFinishedThreads:
    def test_cells_of_finished_threads_fold_into_one(self):
        """A thread per write (an HTTP server's) leaves no cell behind."""
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "C.").labels()
        histogram = registry.histogram("h_seconds", "H.", buckets=(1.0,)).labels()

        def write():
            counter.add(1.0)
            histogram.observe(0.5)

        for _ in range(50):
            thread = threading.Thread(target=write)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        write()  # registering here folds the last finished thread's cells
        assert counter.value() == 51
        assert histogram.collect()["counts"] == [51, 0]
        assert histogram.collect()["sum"] == pytest.approx(25.5)
        assert len(counter._cells) == len(histogram._cells) == 1


class TestGauge:
    def test_callback_tracks_live_object(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("entries", "Entries.")
        items = ["a", "b"]
        gauge.set_callback(items.__len__)
        assert [row["value"] for row in gauge.collect()] == [2]
        items.append("c")
        assert gauge.value() == 3

    def test_one_callback_per_labelled_series(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("occupancy", "Occupancy.", ("kind",))
        gauge.set_callback(lambda: 4, kind="families")
        gauge.set_callback(lambda: 9, kind="instances")
        rows = {row["labels"]["kind"]: row["value"] for row in gauge.collect()}
        assert rows == {"families": 4.0, "instances": 9.0}


class TestLiveSet:
    class Component:
        def __init__(self, size):
            self.size = size

    def test_total_sums_over_live_members(self):
        live = LiveSet()
        first, second = self.Component(2), self.Component(3)
        live.add(first)
        live.add(second)
        assert live.total(lambda component: component.size) == 5

    def test_collected_and_discarded_members_leave(self):
        live = LiveSet()
        kept, dropped, closed = self.Component(1), self.Component(10), self.Component(100)
        for component in (kept, dropped, closed):
            live.add(component)
        live.discard(closed)
        del dropped  # the last reference: the set forgets it at once
        assert live.total(lambda component: component.size) == 1


class TestHistogram:
    def test_observe_buckets_and_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        (row,) = histogram.collect()
        # per-bucket (non-cumulative) counts plus one overflow bucket
        assert row["counts"] == [1, 1, 1]
        assert row["count"] == 3
        assert row["sum"] == pytest.approx(5.55)

    def test_labeled_handles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("op_seconds", "Ops.", ("op",), buckets=(1.0,))
        histogram.labels(op="get").observe(0.2)
        histogram.labels(op="put").observe(0.3)
        rows = {row["labels"]["op"]: row for row in histogram.collect()}
        assert rows["get"]["count"] == 1
        assert rows["put"]["count"] == 1


class TestSnapshotMergeDiff:
    def _simple(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C.").inc(2.0)
        registry.gauge("g", "G.").set_callback(lambda: 5.0)
        hist = registry.histogram("h_seconds", "H.", buckets=(1.0,))
        hist.observe(0.5)
        return registry

    def test_snapshot_shape(self):
        snap = self._simple().snapshot()
        assert snap["c_total"]["type"] == "counter"
        assert snap["g"]["type"] == "gauge"
        assert snap["h_seconds"]["type"] == "histogram"
        assert snap["c_total"]["series"][0]["value"] == 2.0

    def test_merge_sums_counters_and_histograms(self):
        ours = self._simple()
        ours.merge_snapshot(self._simple().totals())
        merged = ours.snapshot()
        assert merged["c_total"]["series"][0]["value"] == 4.0
        assert merged["h_seconds"]["series"][0]["count"] == 2
        # a gauge describes the process that collected it: ours stays ours
        assert merged["g"]["series"] == [{"labels": {}, "value": 5.0}]

    def test_diff_reports_only_the_delta(self):
        registry = self._simple()
        before = registry.totals()
        registry.counter("c_total", "C.").inc(3.0)
        delta = diff_snapshots(registry.totals(), before)
        assert delta["c_total"]["series"][0]["value"] == 3.0
        # untouched histogram series vanish from the delta entirely
        assert "h_seconds" not in delta

    def test_totals_leave_gauges_out_and_evaluate_none(self):
        registry = self._simple()

        def unreadable():
            raise AssertionError("totals() evaluated a gauge")

        registry.gauge("broken", "B.").set_callback(unreadable)
        assert set(registry.totals()) == {"c_total", "h_seconds"}
        with pytest.raises(AssertionError):
            registry.snapshot()


class TestDefaultRegistry:
    def test_default_registry_is_process_wide(self):
        assert get_metrics() is get_metrics()
