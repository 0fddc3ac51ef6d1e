"""Cross-process telemetry: one merged trace, stable counts, crash safety.

The tentpole invariant of the distributed telemetry path: a multi-process
sweep renders as ONE coherent trace — worker spans ship inside each
``LeaseResult``, the scheduler adopts them under its own ``scheduler.lease``
spans, and worker counter and histogram deltas fold into the parent
registry, which does not grow from one sweep to the next.
"""

from collections import Counter

import pytest

import repro.benchmarks  # noqa: F401 - registers benchmark families
from repro.distributed import Lease, ProcessShardExecutor, ShardTask, UnitPlan
from repro.distributed.worker import execute_lease
from repro.suite import Scenario, Sweep, run_scenario
from repro.suite.sweep import EngineConfig
from repro.telemetry import configure_tracing, get_metrics, get_tracer

SCENARIO = Scenario(
    name="traced",
    sweeps=(Sweep.of("ghz", num_qubits=(2, 3, 4, 5)),),
    devices=("IonQ-11Q",),
)
KNOBS = dict(shots=40, repetitions=1, seed=21, trajectories=5)


@pytest.fixture
def traced():
    tracer = get_tracer()
    previous = (tracer.enabled, tracer.id_prefix)
    configure_tracing(enabled=True, seed=5)
    yield tracer
    tracer.clear()
    tracer.enabled, tracer.id_prefix = previous


def _run(tracer, **extra):
    tracer.reseed(5)
    run_scenario(SCENARIO, executor=extra.pop("executor", "process"),
                 processes=2, **KNOBS, **extra)
    return tracer.finished()


class TestMergedTrace:
    def test_two_process_run_is_one_coherent_trace(self, traced):
        spans = _run(traced)
        by_id = {span.span_id: span for span in spans}
        names = Counter(span.name for span in spans)

        # one trace, no dangling parent links
        assert len({span.trace_id for span in spans}) == 1
        assert all(span.parent_id in by_id
                   for span in spans if span.parent_id is not None)

        # the scheduler hierarchy: run_scenario > run_leases > lease > worker
        assert names["suite.run_scenario"] == 1
        assert names["scheduler.run_leases"] == 1
        (sched,) = [s for s in spans if s.name == "scheduler.run_leases"]
        leases = [s for s in spans if s.name == "scheduler.lease"]
        assert leases and all(s.parent_id == sched.span_id for s in leases)
        workers = [s for s in spans if s.name == "worker.lease"]
        assert workers
        assert all(by_id[s.parent_id].name == "scheduler.lease" for s in workers)

        # worker-side engine/pass/kernel spans rode along
        assert names["engine.benchmark"] == 4
        assert all(by_id[s.parent_id].name == "worker.lease"
                   for s in spans if s.name == "engine.benchmark")
        assert names["transpiler.pass"] > 0
        assert names["simulation.trajectories"] > 0

        # worker spans genuinely came from other processes
        parent_process = sched.process
        assert {s.process for s in workers} - {parent_process}

    def test_thread_path_emits_the_same_lease_span_kinds(self, traced):
        names = {span.name for span in _run(traced, executor="thread")}
        assert {"suite.run_scenario", "scheduler.run_leases", "scheduler.lease",
                "worker.lease", "engine.run"} <= names

    def test_thread_path_pool_spans_join_the_sweep_trace(self, traced):
        # Engine pool threads resume the submitting span, so simulation
        # spans no longer start traces of their own (there were 9 here).
        scenario = Scenario(
            name="threaded",
            sweeps=(Sweep.of("ghz", num_qubits=(3, 4)),),
            devices=("IonQ-11Q", "IBM-Casablanca-7Q"),
            mitigations=("raw", "readout"),
        )
        traced.reseed(5)
        run_scenario(scenario, executor="thread", **KNOBS)
        spans = traced.finished()
        by_id = {span.span_id: span for span in spans}
        assert len({span.trace_id for span in spans}) == 1

        def ancestors(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                yield span.name

        trajectories = [s for s in spans if s.name == "simulation.trajectories"]
        assert len(trajectories) > 8  # raw runs plus readout calibrations
        for span in trajectories:
            assert {"engine.simulate", "engine.mitigate"} & set(ancestors(span))
        under_mitigate = [s for s in trajectories if "engine.mitigate" in ancestors(s)]
        assert under_mitigate, "no calibration run joined its engine.mitigate span"

    def test_worker_metric_deltas_merge_into_parent_registry(self, traced):
        def executions():
            (row,) = get_metrics().snapshot()["repro_engine_executions_total"]["series"]
            return row["value"]

        baseline = executions()
        result = run_scenario(SCENARIO, executor="process", processes=2, **KNOBS)
        shipped = sum(
            stats["executions"]
            for key, stats in result.engine_stats.items()
            if key.startswith("worker-pid-")
        )
        assert shipped >= 4
        assert executions() == baseline + shipped

    def test_span_name_counts_are_stable_at_fixed_seed(self, traced):
        first = Counter(span.name for span in _run(traced))
        traced.clear()
        second = Counter(span.name for span in _run(traced))
        assert first == second


def _series_count():
    return sum(len(entry["series"]) for entry in get_metrics().snapshot().values())


class TestBoundedTelemetry:
    def test_repeated_process_sweeps_add_no_series(self):
        run_scenario(SCENARIO, executor="process", processes=2, **KNOBS)
        first = _series_count()
        for _ in range(2):
            run_scenario(SCENARIO, executor="process", processes=2, **KNOBS)
        assert _series_count() == first

    def test_lease_deltas_ship_the_same_keys_and_no_gauge(self):
        units = tuple(
            UnitPlan(key=f"unit-{n}", spec=(("family", "ghz"), ("params", (("num_qubits", n),))),
                     index=index)
            for index, n in enumerate((2, 3))
        )
        task = ShardTask(
            task_id="task-0", scenario="lease-delta", engine=EngineConfig("IonQ-11Q"),
            mitigation="raw", units=units, shots=40, repetitions=1, seed=21, trajectories=5,
        )

        def shipped_keys():
            delta = execute_lease(Lease(lease_id=1, task=task)).metrics
            assert all(entry["type"] != "gauge" for entry in delta.values())
            return {
                (name, tuple(sorted(row["labels"].items())))
                for name, entry in delta.items()
                for row in entry["series"]
            }

        shipped_keys()  # warm this process's engine for the task
        keys = shipped_keys()
        assert ("repro_engine_executions_total", ()) in keys
        assert shipped_keys() == keys
        assert not any("instance" in dict(labels) for _, labels in keys)


class TestCrashSafety:
    def test_sigkilled_worker_loses_no_adopted_telemetry(self, traced, tmp_path):
        marker = tmp_path / "crash-once"
        traced.reseed(5)
        with ProcessShardExecutor(processes=2, crash_marker=str(marker)) as executor:
            result = run_scenario(SCENARIO, executor=executor, **KNOBS)
        assert marker.exists(), "the crash hook never fired"
        assert len(result.scores()) == 4
        spans = traced.finished()
        benchmarks = [s for s in spans if s.name == "engine.benchmark"]
        # every unit's execution is traced despite the mid-sweep SIGKILL:
        # the crashed lease shipped nothing, its re-lease shipped everything
        covered = {s.attributes["benchmark"] for s in benchmarks}
        assert len(covered) == 4
        assert len({span.trace_id for span in spans}) == 1
