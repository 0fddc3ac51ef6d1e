"""The metrics registry stays the same size however many components come and go.

Components keep their own counts and add to process totals whose labels
name no object, so building and closing engines, stores, registries and job
queues moves values but adds no series and no exported line.
"""

from repro.devices import get_device
from repro.execution import ExecutionEngine
from repro.execution.cache import TranspileCache
from repro.service.jobs import JobQueue
from repro.store import ResultStore
from repro.suite.registry import BenchmarkRegistry
from repro.telemetry import get_metrics, to_prometheus


def _series_count():
    return sum(len(entry["series"]) for entry in get_metrics().snapshot().values())


def _export_lines():
    return len(to_prometheus(get_metrics().snapshot()).splitlines())


def test_component_churn_adds_no_series_and_no_export_lines():
    device = get_device("IonQ-11Q")
    # One of each first, alive throughout, so every series they touch exists.
    engine, cache = ExecutionEngine(device), TranspileCache()
    store, registry = ResultStore(":memory:"), BenchmarkRegistry()
    series, lines = _series_count(), _export_lines()

    for _ in range(1000):
        ExecutionEngine(device).close()
        ResultStore(":memory:").close()
        BenchmarkRegistry()
    for _ in range(10):  # one at a time: no burst of worker threads
        JobQueue(workers=1).close()

    assert _series_count() == series
    assert _export_lines() == lines
    engine.close()
    store.close()


def test_export_names_no_component():
    with ExecutionEngine(get_device("IonQ-11Q"), trajectories=5) as engine:
        engine.run_circuits([_bell()], shots=20, seed=3)
    with ResultStore() as store:
        store.get("absent", "run")
    text = to_prometheus(get_metrics().snapshot())
    assert "repro_engine_executions_total" in text
    assert "instance=" not in text


def _bell():
    from repro.circuits import Circuit

    circuit = Circuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit
