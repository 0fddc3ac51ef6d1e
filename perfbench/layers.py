"""Per-layer timers installed around the program's public functions.

The traced pass wraps one public entry point per layer from outside (no
spans are added to the program), counts calls and measures each layer's
busy time on the calling thread, excluding nested timed calls (self time).

Pool workers forked during the traced pass inherit the wrappers.  Their
totals cannot be returned directly, so at the end of every lease, when the
worker drains its tracer to ship spans to the scheduler, the wrappers add
one ``perfbench.layers`` summary span; the parent reads those from the
merged trace.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.benchmarks.base as benchmarks_base
import repro.benchmarks.qaoa as benchmarks_qaoa
import repro.benchmarks.vqe as benchmarks_vqe
import repro.distributed as distributed
import repro.execution.backends as backends
import repro.execution.engine as engine_module
from repro.distributed import ProcessShardExecutor
from repro.execution import ExecutionEngine
from repro.mitigation import CalibrationCache, Mitigator
from repro.paulis import PauliSum
from repro.store import ResultStore
from repro.suite.registry import get_registry
from repro.suite.spec import BenchmarkSpec
from repro.telemetry import Tracer
from repro.transpiler import PassManager

SUMMARY_SPAN = "perfbench.layers"


class LayerTimers:
    """Self-time accounting for wrapped calls, per process.

    Each thread keeps a stack of open timed calls; a finished call adds its
    duration minus its timed children to its layer.  Calls that return to
    an empty stack on the main thread of the installing process add to
    :attr:`covered`, the main-thread time the timers account for.
    """

    def __init__(self) -> None:
        self._reset_process()

    def _reset_process(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.totals: Dict[str, float] = defaultdict(float)
        self.covered = 0.0

    def reset(self) -> None:
        with self._lock:
            self.totals = defaultdict(float)
            self.covered = 0.0

    def _stack(self) -> List[List[float]]:
        if os.getpid() != self.pid:
            # A forked worker inherits the parent's totals and open calls.
            self._reset_process()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.totals[name] += value

    def wrap(
        self,
        layer: str,
        function: Callable,
        count: Optional[str] = None,
        after: Optional[Callable[["LayerTimers", tuple, Any], None]] = None,
    ) -> Callable:
        """``function`` timed as ``layer``; ``count`` is bumped per call and
        ``after(timers, args, result)`` may record counts from the result."""
        timers = self

        def timed(*args, **kwargs):
            stack = timers._stack()
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with timers._lock:
                    timers.totals[layer] += elapsed - frame[0]
                    if count is not None:
                        timers.totals[count] += 1
                    if not stack and threading.current_thread() is threading.main_thread():
                        timers.covered += elapsed
            if after is not None:
                after(timers, args, result)
            return result

        timed.__wrapped__ = function
        return timed

    def summary_attributes(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.totals)


def _count_circuits(timers: LayerTimers, args: tuple, result: Any) -> None:
    timers.add("simulation.circuits", len(args[1]))


def _count_evals(timers: LayerTimers, args: tuple, result: Any) -> None:
    timers.add("optimize.evals", result.evaluations)


def _subclasses(root: type) -> List[type]:
    found = [root]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


def _classes_defining(classes, attribute: str) -> List[type]:
    """The classes in the MROs of ``classes`` that define ``attribute``
    concretely in their own namespace."""
    seen = {cls: None for root in classes for cls in root.__mro__}
    return [
        cls for cls in seen
        if callable(vars(cls).get(attribute))
        and not getattr(vars(cls)[attribute], "__isabstractmethod__", False)
    ]


class Instrumentation:
    """Installs the wrappers for one traced pass and removes them after."""

    def __init__(self) -> None:
        self.timers = LayerTimers()
        self._patches: List[Tuple[object, str, Any]] = []

    def _patch(self, owner: object, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _time(self, owner, attribute: str, layer: str, **options) -> None:
        self._patch(owner, attribute, self.timers.wrap(layer, vars(owner)[attribute], **options))

    def install(self) -> None:
        families = [get_registry().family(name) for name in get_registry().families()]
        self._time(BenchmarkSpec, "build", "suite.build_s")
        for cls in _classes_defining(families, "_build_circuits"):
            self._time(cls, "_build_circuits", "benchmarks.circuits_s", count="benchmarks.builds")
        for cls in _classes_defining(families, "score"):
            self._time(cls, "score", "benchmarks.score_s")
        for module in (benchmarks_vqe, benchmarks_qaoa):
            self._time(module, "minimize_nelder_mead", "optimize.nelder_mead_s", after=_count_evals)
        self._time(
            PauliSum, "expectation_from_statevector", "paulis.expectation_s",
            count="paulis.expectation_calls",
        )
        self._time(benchmarks_base, "compute_features", "features.s")
        self._time(engine_module, "typical_features", "features.s")
        self._time(PassManager, "run", "transpiler.run_s", count="transpiler.runs")
        self._time(ExecutionEngine, "__init__", "execution.init_s", count="execution.engines")
        self._time(ExecutionEngine, "run", "execution.wait_s")
        self._time(ExecutionEngine, "content_key", "store.key_s")
        for cls in _classes_defining([backends.StatevectorBackend, backends.TrajectoryBackend,
                                      backends.DensityMatrixBackend], "run_batch"):
            self._time(cls, "run_batch", "simulation.run_batch_s", after=_count_circuits)
        self._time(CalibrationCache, "get_or_compute", "mitigation.calibration_s")
        for cls in _classes_defining(_subclasses(Mitigator), "transform"):
            self._time(cls, "transform", "mitigation.transform_s")
        for cls in _classes_defining(_subclasses(Mitigator), "mitigate"):
            self._time(cls, "mitigate", "mitigation.mitigate_s")
        self._time(ResultStore, "get_run", "store.get_s", count="store.gets")
        self._time(ResultStore, "put_run", "store.put_s", count="store.puts")
        self._time(ResultStore, "put_outcome", "store.put_s", count="store.puts")
        self._time(distributed, "plan_scenario", "distributed.plan_s")
        self._time(distributed, "run_leases", "distributed.wait_s")
        self._time(ProcessShardExecutor, "close", "distributed.shutdown_s")
        self._patch(Tracer, "drain", self._draining(vars(Tracer)["drain"]))

    def _draining(self, drain: Callable) -> Callable:
        timers = self.timers

        def drain_with_summary(tracer: Tracer):
            # Only forked workers ship their totals; the parent reads its own.
            if os.getpid() != self.parent_pid:
                tracer.emit(SUMMARY_SPAN, 0.0, **timers.summary_attributes())
                timers.reset()
            return drain(tracer)

        return drain_with_summary

    def __enter__(self) -> "Instrumentation":
        self.parent_pid = os.getpid()
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# per-pass assembly
# ---------------------------------------------------------------------------
def worker_totals(spans) -> Dict[str, float]:
    """Summed worker-side totals from the merged trace."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name == SUMMARY_SPAN:
            for key, value in span.attributes.items():
                totals[key] += float(value)
    return totals


def layer_metrics(
    timers: LayerTimers,
    spans,
    engine_stats: Dict[str, Dict[str, float]],
    wall: float,
    units: int,
    specs: int,
    names: List[str],
) -> Dict[str, float]:
    """One traced pass's per-layer metrics (thread and process paths).

    ``names`` are the metrics to report; ``trace.overhead_frac`` is not
    among them: it compares against the untraced passes, which the caller
    holds.
    """
    own = timers.summary_attributes()
    workers = worker_totals(spans)
    totals: Dict[str, float] = defaultdict(float)
    for source in (own, workers):
        for key, value in source.items():
            totals[key] += value

    engines = {k: v for k, v in engine_stats.items() if k != "scheduler"}
    hits = sum(stats.get("hits", 0) for stats in engines.values())
    misses = sum(stats.get("misses", 0) for stats in engines.values())
    scheduler = engine_stats.get("scheduler", {})
    metrics = {name: float(totals.get(name, 0.0)) for name in names}
    metrics.update(
        {
            "suite.units": float(units),
            "execution.dispatches": float(sum(s.get("executions", 0) for s in engines.values())),
            "execution.transpile_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "mitigation.calibration_misses": float(
                sum(s.get("calibration_misses", 0) for s in engines.values())
            ),
            "distributed.leases": float(scheduler.get("leases_issued", 0)),
            "distributed.re_leases": float(
                scheduler.get("retries", 0) + scheduler.get("straggler_releases", 0)
            ),
            "distributed.worker_busy_s": float(
                sum(s.get("seconds", 0.0) for k, s in engines.items() if k.startswith("worker-"))
            ),
            "distributed.redundant_builds": (
                max(0.0, workers.get("benchmarks.builds", 0.0) - specs) if workers else 0.0
            ),
            "trace.attributed_frac": timers.covered / wall,
        }
    )
    return metrics
