"""Each component owns its ``stats()``; the registry holds process totals.

Three invariants per component: the historical flat key set is unchanged
(callers never break), every event moves the matching process total in the
metrics registry by exactly the component's own count (so ``GET /metrics``
agrees with the sum of every ``stats()`` call), and ``clear()`` zeroes the
component's counts while the process total, a Prometheus counter, never
drops.  Gauges sum over the live components, so one component's occupancy
moves its gauge by exactly its own change.
"""

import contextlib
import gc

import repro.benchmarks  # noqa: F401 - registers benchmark families
from repro.benchmarks import GHZBenchmark
from repro.circuits import Circuit
from repro.devices import get_device
from repro.execution import ExecutionEngine
from repro.execution.cache import TranspileCache
from repro.execution.results import BenchmarkRun
from repro.mitigation import CalibrationCache
from repro.service.jobs import JobQueue
from repro.store import ResultStore
from repro.suite.registry import BenchmarkRegistry
from repro.telemetry import get_metrics


def _make_run():
    return BenchmarkRun(
        benchmark="ghz[3q]",
        family="ghz",
        device="IonQ-11Q",
        scores=[0.9, 0.91],
        features={"pc": 0.5},
        typical={"num_qubits": 3},
        compiled_two_qubit_gates=2,
        compiled_depth=9,
        swap_count=0,
        shots=100,
        backend="trajectory",
        placement="noise_aware",
        pipeline="abc123",
        mitigation="",
        seconds=0.5,
    )


def _row(data, name, field, labels):
    for row in data.get(name, {}).get("series", []):
        if row["labels"] == labels:
            return row[field]
    return 0


def _total(name, field="value", **labels):
    """One counter or histogram series of the process totals (0 before its first row)."""
    return _row(get_metrics().totals(), name, field, labels)


def _gauge(name, **labels):
    """One gauge series, evaluated over the live components now."""
    return _row(get_metrics().snapshot(), name, "value", labels)


@contextlib.contextmanager
def _collector_paused():
    """Hold the cyclic garbage collector between a test's gauge readings.

    A component that an earlier test dropped inside a reference cycle still
    counts in its gauge until the collector frees it; pausing the collector
    keeps such components from leaving the sum between two readings, at no
    cost that grows with what ran before.
    """
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _ghz(n):
    circuit = Circuit(n, n)
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


LOOKUPS = "repro_transpile_cache_lookups_total"
CALIBRATIONS = "repro_calibration_cache_lookups_total"


class TestTranspileCacheParity:
    def test_keys_and_totals_agree(self):
        with _collector_paused():
            hits, misses = _total(LOOKUPS, result="hit"), _total(LOOKUPS, result="miss")
            entries = _gauge("repro_transpile_cache_entries")
            cache = TranspileCache()
            device = get_device("IBM-Casablanca-7Q")
            cache.get_or_transpile(_ghz(3), device)
            cache.get_or_transpile(_ghz(3), device)
            stats = cache.stats()
            assert stats == {"hits": 1, "misses": 1, "entries": 1}
            assert (cache.hits, cache.misses) == (1, 1)
            assert _total(LOOKUPS, result="hit") - hits == 1
            assert _total(LOOKUPS, result="miss") - misses == 1
            assert _gauge("repro_transpile_cache_entries") - entries == 1

    def test_clear_zeroes_stats_and_keeps_the_total(self):
        cache = TranspileCache()
        device = get_device("IBM-Casablanca-7Q")
        cache.get_or_transpile(_ghz(3), device)
        misses = _total(LOOKUPS, result="miss")
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}
        assert _total(LOOKUPS, result="miss") == misses
        cache.get_or_transpile(_ghz(3), device)
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 1}
        assert _total(LOOKUPS, result="miss") == misses + 1


class TestCalibrationCacheParity:
    def test_keys_totals_and_clear(self):
        with _collector_paused():
            hits, misses = _total(CALIBRATIONS, result="hit"), _total(CALIBRATIONS, result="miss")
            entries = _gauge("repro_calibration_cache_entries")
            cache = CalibrationCache()
            key = ("IonQ-11Q", (0, 1), "noise", "readout:tensored:64")
            assert cache.get_or_compute(key, lambda: "calibration") == "calibration"
            assert cache.get_or_compute(key, lambda: "other") == "calibration"
            assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
            assert _total(CALIBRATIONS, result="hit") - hits == 1
            assert _total(CALIBRATIONS, result="miss") - misses == 1
            assert _gauge("repro_calibration_cache_entries") - entries == 1
            cache.clear()
            assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}
            assert _total(CALIBRATIONS, result="hit") - hits == 1


class TestResultStoreParity:
    def test_keys_and_totals_agree(self):
        with _collector_paused():
            lookups = "repro_store_lookups_total"
            hits, misses = _total(lookups, result="hit"), _total(lookups, result="miss")
            puts = _total("repro_store_puts_total")
            gets = _total("repro_store_op_seconds", field="count", op="get")
            rows = _gauge("repro_store_rows")
            with ResultStore() as store:
                store.put_run("k1", _make_run())
                store.get_run("k1")
                store.get_run("absent")
                stats = store.stats()
                assert stats == {"hits": 1, "misses": 1, "puts": 1, "evictions": 0, "rows": 1}
                assert _total(lookups, result="hit") - hits == 1
                assert _total(lookups, result="miss") - misses == 1
                assert _total("repro_store_puts_total") - puts == 1
                assert _total("repro_store_op_seconds", field="count", op="get") - gets == 2
                assert _gauge("repro_store_rows") - rows == 1
            # a closed store leaves the rows gauge, its counters stay in the totals
            assert _gauge("repro_store_rows") == rows
            assert _total("repro_store_puts_total") - puts == 1

    def test_evictions_move_the_total(self):
        evictions = _total("repro_store_evictions_total")
        with ResultStore(max_rows=1) as store:
            store.put_run("k1", _make_run())
            store.put_run("k2", _make_run())
            assert store.stats()["evictions"] == 1
        assert _total("repro_store_evictions_total") - evictions == 1


class TestRegistryParity:
    def test_keys_and_gauge_agree(self):
        with _collector_paused():
            families = _gauge("repro_registry_entries", kind="families")
            registry = BenchmarkRegistry()

            @registry.register("parity-fam")
            class _Fam:  # noqa: N801 - minimal stand-in
                name = "parity-fam"

            stats = registry.stats()
            assert stats == {"families": 1, "instances": 0}
            assert _gauge("repro_registry_entries", kind="families") - families == 1


class TestJobQueueParity:
    def test_keys_and_totals_agree(self):
        attempts = []

        def flaky_runner(scenario, **kwargs):
            from repro.suite.results import SuiteResult

            attempts.append(scenario.name)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return SuiteResult(scenario=scenario.name)

        from repro.suite import Scenario, Sweep

        scenario = Scenario(
            name="parity",
            sweeps=(Sweep.of("ghz", num_qubits=(2,)),),
            devices=("IonQ-11Q",),
        )
        with _collector_paused():
            retries = _total("repro_service_job_retries_total")
            done = _gauge("repro_service_jobs", status="done")
            finished = _total("repro_service_job_seconds", field="count", status="done")
            with JobQueue(workers=1, runner=flaky_runner) as queue:
                job_id = queue.submit(scenario)
                queue.result(job_id, timeout=30)
                stats = queue.stats()
                assert set(stats) == {
                    "jobs", "queued", "running", "done", "failed",
                    "cancelled", "retries", "workers",
                }
                assert (stats["done"], stats["retries"]) == (1, 1)
                assert _gauge("repro_service_jobs", status="done") - done == 1
                assert _total("repro_service_job_retries_total") - retries == 1
                # terminal duration observed under the terminal status
                seconds = _total("repro_service_job_seconds", field="count", status="done")
                assert seconds - finished == 1


class TestEngineParity:
    def test_flat_key_set_is_unchanged(self):
        engine = ExecutionEngine(get_device("IonQ-11Q"), trajectories=5)
        stats = engine.stats()
        assert set(stats) == {
            "hits", "misses", "entries",
            "calibration_hits", "calibration_misses", "calibration_entries",
            "store_hits", "store_misses", "executions",
        }
        assert all(isinstance(value, int) for value in stats.values())

    def test_executions_and_store_lookups_move_the_totals_exactly(self):
        executions = _total("repro_engine_executions_total")
        lookups = "repro_engine_store_lookups_total"
        hits, misses = _total(lookups, result="hit"), _total(lookups, result="miss")
        with ExecutionEngine(get_device("IonQ-11Q"), max_workers=2, trajectories=5) as engine:
            engine.run(GHZBenchmark(3), shots=20, repetitions=3, seed=7, mitigation="readout")
            engine.count_store_lookup(True)
            engine.count_store_lookup(False)
            engine.count_store_lookup(False)
            stats = engine.stats()
        # three repetitions, two readout calibration circuits
        assert stats["executions"] == 5
        assert _total("repro_engine_executions_total") - executions == 5
        assert (stats["store_hits"], stats["store_misses"]) == (1, 2)
        assert _total(lookups, result="hit") - hits == 1
        assert _total(lookups, result="miss") - misses == 2


class TestConcurrentCounts:
    def test_no_count_is_lost_across_threads(self):
        """More threads than cores share one engine and its transpile cache."""
        import sys
        import threading

        executions = _total("repro_engine_executions_total")
        lookups = "repro_engine_store_lookups_total"
        hits = _total(lookups, result="hit")
        threads, calls, circuits = 6, 5, 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ExecutionEngine(
                get_device("IonQ-11Q"), backend="statevector", max_workers=4
            ) as engine:

                def hammer():
                    for _ in range(calls):
                        engine.run_circuits([_ghz(2).measure_all()] * circuits, shots=8, seed=1)
                        engine.count_store_lookup(True)

                workers = [threading.Thread(target=hammer) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                stats = engine.stats()
        finally:
            sys.setswitchinterval(interval)
        runs = threads * calls
        assert stats["executions"] == runs * circuits
        assert stats["store_hits"] == runs
        assert stats["hits"] + stats["misses"] == runs  # one distinct circuit per batch
        assert _total("repro_engine_executions_total") - executions == runs * circuits
        assert _total(lookups, result="hit") - hits == runs
