"""The execution engine: the single path from circuits to counts.

:class:`ExecutionEngine` plays the role the SuperstaQ submission layer plays
in the paper — a benchmark is specified once, the engine lowers it to the
target device (through a shared :class:`~repro.execution.cache.TranspileCache`
so nothing is ever compiled twice), fans the resulting batch out across a
worker pool, and executes it on a pluggable
:class:`~repro.execution.backends.Backend`.

Every execution the engine makes — benchmark circuits, mitigation variants
and calibration circuits — goes through one dispatch: a list of
``(circuit, noise model)`` pairs submitted to the worker pool, the ``i``-th
seeded with ``circuit_seed(seed, i)``.  Raw execution is the one-variant
case: ``mitigation=None`` (or ``"raw"``) executes each compiled circuit once
and returns its :class:`~repro.simulation.result.Counts`.  A technique
(``"readout"``, ``"zne"``, ``"dd"`` or any
:class:`~repro.mitigation.Mitigator` instance) calibrates the device once
per ``(device, qubit set, noise fingerprint)`` through a
:class:`~repro.mitigation.CalibrationCache`, executes the technique's
circuit variants, and folds them into one
:class:`~repro.simulation.result.QuasiDistribution` per circuit.

Determinism: per-circuit seeds are fixed functions of the batch seed and the
circuit's position, so results are bit-identical for ``max_workers=1`` and
``max_workers=N``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..benchmarks import Benchmark
from ..circuits import Circuit
from ..devices import Device
from ..exceptions import BackendCapacityError, DeviceError
from ..features import typical_features
from ..mitigation import CalibrationCache, Mitigator, resolve_mitigator
from ..mitigation.calibration import calibration_seed
from ..simulation import Counts
from ..simulation.noise_model import NoiseModel
from ..telemetry import Span, get_metrics, get_tracer
from .backends import Backend, backend_metadata, circuit_seed, resolve_backend
from .cache import CacheEntry, TranspileCache
from .results import BenchmarkRun

__all__ = ["ExecutionEngine", "REPETITION_STRIDE"]

_EXECUTIONS = get_metrics().counter(
    "repro_engine_executions_total",
    "Circuit executions dispatched to the backend.",
).labels()
_STORE_LOOKUPS = get_metrics().counter(
    "repro_engine_store_lookups_total",
    "Content-key store lookups made for engines, by result.",
    ("result",),
)
_STORE_HITS = _STORE_LOOKUPS.labels(result="hit")
_STORE_MISSES = _STORE_LOOKUPS.labels(result="miss")

#: Per-repetition seed stride (kept identical to the historical runner so
#: seeded benchmark scores are reproducible across releases).
REPETITION_STRIDE = 104729

#: One execution: a compiled circuit and the noise model it runs under
#: (``None`` on noise-free backends).
Execution = Tuple[Circuit, Optional[NoiseModel]]


class ExecutionEngine:
    """Runs circuits and benchmarks on one device through one backend.

    Args:
        device: Target device model.
        backend: A :class:`Backend` instance or name (``"statevector"``,
            ``"trajectory"``, ``"density_matrix"``); default is the noisy
            trajectory backend.
        max_workers: Size of the worker pool batches (and cold compilations)
            are fanned out over.
        optimization_level: Transpiler optimization level for every circuit.
        placement: Placement strategy (``"noise_aware"`` or ``"trivial"``)
            for every circuit.
        cache: Optional shared :class:`TranspileCache`; a private cache is
            created when omitted.
        calibration_cache: Optional shared
            :class:`~repro.mitigation.CalibrationCache` holding mitigation
            calibration data; a private cache is created when omitted.
        trajectories: Trajectory count for backends constructed here from a
            name (or the default); ignored when ``backend`` is an instance.

    The engine can be used as a context manager; :meth:`close` shuts the
    worker pool down.
    """

    def __init__(
        self,
        device: Device,
        backend: Union[Backend, str, None] = None,
        max_workers: int = 1,
        optimization_level: int = 1,
        placement: str = "noise_aware",
        cache: Optional[TranspileCache] = None,
        calibration_cache: Optional[CalibrationCache] = None,
        trajectories: Optional[int] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.device = device
        self.backend = resolve_backend(backend, trajectories=trajectories)
        self.max_workers = int(max_workers)
        self.optimization_level = int(optimization_level)
        self.placement = placement
        self.cache = cache if cache is not None else TranspileCache()
        self.calibration_cache = (
            calibration_cache if calibration_cache is not None else CalibrationCache()
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        # This engine's own counts (a store may be shared across engines;
        # these count only this engine's lookups, so per-engine stats compose
        # when the suite layer aggregates them per engine configuration).
        self._counts_lock = threading.Lock()
        self._counts = {"store_hits": 0, "store_misses": 0, "executions": 0}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-exec"
            )
        return self._executor

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def check_fits(self, circuit: Circuit) -> None:
        """Centralised oversized-circuit check (the black "X" entries of Fig. 2).

        Raises:
            DeviceError: when the circuit needs more qubits than the device
                has; the message names both qubit counts.
        """
        if circuit.num_qubits > self.device.num_qubits:
            label = f" {circuit.name!r}" if circuit.name else ""
            raise DeviceError(
                f"{circuit.num_qubits}-qubit circuit{label} does not fit on "
                f"{self.device.name}: needs {circuit.num_qubits} qubits, "
                f"device has {self.device.num_qubits}"
            )

    def prepare(self, circuits: Sequence[Circuit]) -> List[CacheEntry]:
        """Fit-check and transpile every circuit (served from the cache when warm).

        The cache's batch API resolves the pipeline once and compiles each
        *distinct* circuit once (distinctness judged by the structural
        fingerprint); with ``max_workers > 1`` cold compilations of a
        multi-circuit batch fan out across the worker pool.

        Raises:
            DeviceError: when a circuit needs more qubits than the device has.
            BackendCapacityError: when a compiled circuit is wider than the
                backend's ``max_qubits``.
        """
        for circuit in circuits:
            self.check_fits(circuit)
        parallel = self.max_workers > 1 and len(circuits) > 1
        entries = self.cache.get_or_transpile_many(
            circuits,
            self.device,
            self.optimization_level,
            self.placement,
            executor=self._pool() if parallel else None,
        )
        backend_limit = getattr(self.backend, "max_qubits", None)
        if backend_limit is not None:
            for circuit, entry in zip(circuits, entries):
                if entry.compact.num_qubits > backend_limit:
                    label = f" {circuit.name!r}" if circuit.name else ""
                    raise BackendCapacityError(
                        f"circuit{label} compiles to {entry.compact.num_qubits} qubits, "
                        f"exceeding the {self.backend.name} backend limit of "
                        f"{backend_limit} qubits on {self.device.name}"
                    )
        return entries

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _dispatch(
        self, executions: Sequence[Execution], shots: int, seed: Optional[int]
    ) -> List["Future[Counts]"]:
        """Submit executions to the worker pool; the one place anything runs.

        The ``i``-th execution is seeded with ``circuit_seed(seed, i)``, so
        results do not depend on ``max_workers``.
        """
        with self._counts_lock:
            self._counts["executions"] += len(executions)
        _EXECUTIONS.add(len(executions))
        pool = self._pool()
        parent = get_tracer().current_span()
        return [
            pool.submit(self._run_one, circuit, shots, noise, circuit_seed(seed, index), parent)
            for index, (circuit, noise) in enumerate(executions)
        ]

    def _run_one(
        self, compact: Circuit, shots: int, noise, seed: Optional[int], parent: Optional[Span]
    ) -> Counts:
        # ``parent`` is the submitter's span: pool-thread spans join its trace.
        with get_tracer().resume(parent):
            return self.backend.run_batch([compact], shots, noise_model=[noise], seed=seed)[0]

    def _noise(self, entry: CacheEntry) -> Optional[NoiseModel]:
        """The noise model one compiled circuit runs under (``None`` when ideal)."""
        return entry.noise_model() if self.backend.noisy else None

    def _calibration_for(self, mitigator: Optional[Mitigator], entry: CacheEntry):
        """Calibration data for one compiled circuit, through the cache.

        Cache misses dispatch the technique's calibration circuits (seeded
        deterministically from the cache key, so a cleared cache reproduces
        the identical calibration) and digest the counts via
        :meth:`~repro.mitigation.Mitigator.calibration_from_counts`.
        """
        if mitigator is None or not mitigator.requires_calibration:
            return None
        num_qubits = entry.compact.num_qubits
        noise = self._noise(entry)
        key = (
            self.device.name,
            entry.physical,
            noise.fingerprint() if noise is not None else "ideal",
            mitigator.calibration_key(),
        )

        def compute():
            circuits = mitigator.calibration_circuits(num_qubits)
            futures = self._dispatch(
                [(circuit, noise) for circuit in circuits],
                mitigator.calibration_shots,
                calibration_seed(key),
            )
            return mitigator.calibration_from_counts(
                [future.result() for future in futures], num_qubits
            )

        return self.calibration_cache.get_or_compute(key, compute)

    def _batch(
        self, entries: Sequence[CacheEntry], mitigator: Optional[Mitigator]
    ) -> Tuple[List[Execution], Callable[[Sequence["Future[Counts]"]], list]]:
        """The executions of compiled circuits and how their counts fold back.

        Each entry executes its variants, contiguously: the compiled circuit
        itself when raw, the technique's transform otherwise (computed once,
        reused across repetitions; a technique/circuit mismatch such as ZNE
        folding a mid-circuit measurement raises here, before anything is
        submitted).  The returned fold awaits one dispatch of the executions
        and yields one result per entry: the counts when raw, the
        technique's quasi-distribution otherwise.
        """
        calibrations = [self._calibration_for(mitigator, entry) for entry in entries]
        groups = [
            [entry.compact] if mitigator is None else mitigator.transform(entry.compact)
            for entry in entries
        ]
        executions = [
            (circuit, self._noise(entry))
            for entry, group in zip(entries, groups)
            for circuit in group
        ]

        def fold(futures: Sequence["Future[Counts]"]) -> list:
            counts = iter([future.result() for future in futures])
            results = []
            for entry, calibration, group in zip(entries, calibrations, groups):
                variants = [next(counts) for _ in group]
                results.append(
                    variants[0] if mitigator is None else mitigator.mitigate(
                        variants, circuit=entry.compact, calibration=calibration
                    )
                )
            return results

        return executions, fold

    def run_circuits(
        self,
        circuits: Sequence[Circuit],
        shots: int = 1000,
        seed: Optional[int] = None,
        mitigation: Union[Mitigator, str, None] = None,
    ) -> list:
        """Compile and execute circuits; one result per circuit, in order.

        Unmitigated (``mitigation`` ``None``, ``"raw"`` or ``"none"``) each
        result is the circuit's :class:`Counts`.  With a technique, its
        calibrations are scheduled (served from the calibration cache when
        warm), its circuit variants executed, and each result is the
        mitigated :class:`~repro.simulation.result.QuasiDistribution`.
        """
        executions, fold = self._batch(self.prepare(circuits), resolve_mitigator(mitigation))
        return fold(self._dispatch(executions, shots, seed))

    # ------------------------------------------------------------------
    # content-addressed result caching
    # ------------------------------------------------------------------
    @cached_property
    def _fingerprints(self) -> Tuple[str, str]:
        """(pipeline fingerprint, noise fingerprint) of this engine.

        The pipeline fingerprint captures every compilation knob (preset
        level, placement strategy, device presets); the noise fingerprint is
        the whole-device model's (``"ideal"`` for noise-free backends).  Both
        are computed without transpiling anything, so a store hit never
        touches the compiler.
        """
        from ..transpiler import preset_pipeline

        pipeline = preset_pipeline(
            self.device, optimization_level=self.optimization_level, placement=self.placement
        )
        noise = self.device.noise_model().fingerprint() if self.backend.noisy else "ideal"
        return pipeline.fingerprint, noise

    def content_key(
        self,
        benchmark: Union[Benchmark, str],
        shots: int,
        repetitions: int,
        seed: Optional[int],
        mitigation: Union[Mitigator, str, None] = None,
    ) -> str:
        """Canonical store key of one benchmark execution on this engine.

        Hashes everything the resulting scores depend on — spec identity,
        device, backend configuration, pipeline and noise fingerprints,
        mitigation technique and the execution knobs (see
        :mod:`repro.store.keys`).
        """
        from ..store.keys import content_key, mitigation_identity, spec_identity

        pipeline, noise = self._fingerprints
        spec = benchmark if isinstance(benchmark, str) else spec_identity(benchmark)
        return content_key(
            spec=spec,
            device=self.device.name,
            backend=backend_metadata(self.backend),
            pipeline=pipeline,
            noise=noise,
            mitigation=mitigation_identity(mitigation),
            shots=shots,
            repetitions=repetitions,
            seed=seed,
        )

    def count_store_lookup(self, hit: bool) -> None:
        """Count one content-key store lookup made for this engine.

        The engine never opens a store itself; the caller that looks
        results up (the suite runner) reports each lookup here, so
        ``store_hits`` / ``store_misses`` in :meth:`stats` stay complete.
        """
        with self._counts_lock:
            self._counts["store_hits" if hit else "store_misses"] += 1
        (_STORE_HITS if hit else _STORE_MISSES).add(1.0)

    # ------------------------------------------------------------------
    # benchmark-level API
    # ------------------------------------------------------------------
    def run(
        self,
        benchmark: Benchmark,
        shots: int = 1000,
        repetitions: int = 3,
        seed: Optional[int] = 1234,
        mitigation: Union[Mitigator, str, None] = None,
    ) -> BenchmarkRun:
        """Run one benchmark ``repetitions`` times and collect its scores.

        All repetitions are submitted before any is awaited, so with
        ``max_workers > 1`` they execute concurrently.

        Args:
            mitigation: Error-mitigation technique (instance or name);
                ``None``, ``"raw"`` or ``"none"`` run unmitigated.  Mitigated
                runs calibrate at most once per ``(device, qubit set, noise
                fingerprint)`` across the engine's lifetime and score the
                benchmark on the corrected quasi-distributions.

        Raises:
            DeviceError: when the benchmark needs more qubits than the device
                has (:class:`~repro.exceptions.BackendCapacityError` when it
                compiles wider than the backend simulates).
            MitigationError: for an unknown technique, or one that cannot
                apply to the benchmark's circuits.
        """
        started = time.perf_counter()
        mitigator = resolve_mitigator(mitigation)
        technique = mitigator.name if mitigator is not None else "raw"
        tracer = get_tracer()
        with tracer.span(
            "engine.run",
            benchmark=str(benchmark),
            device=self.device.name,
            backend=self.backend.name,
            mitigation=technique,
            repetitions=repetitions,
        ):
            circuits = benchmark.circuits()
            with tracer.span("engine.transpile", circuits=len(circuits)):
                entries = self.prepare(circuits)
            with tracer.span("engine.mitigate", technique=technique):
                executions, fold = self._batch(entries, mitigator)
            with tracer.span("engine.simulate", shots=shots):
                pending = [
                    self._dispatch(
                        executions,
                        shots,
                        None if seed is None else seed + REPETITION_STRIDE * repetition,
                    )
                    for repetition in range(repetitions)
                ]
                scores = [benchmark.score(fold(futures)) for futures in pending]

        first = entries[0]
        return BenchmarkRun(
            benchmark=str(benchmark),
            family=benchmark.name,
            device=self.device.name,
            scores=scores,
            features=benchmark.features().as_dict(),
            typical=typical_features(circuits[0]),
            compiled_two_qubit_gates=first.two_qubit_gates,
            compiled_depth=first.depth,
            swap_count=first.transpiled.swap_count,
            shots=shots,
            backend=self.backend.name,
            placement=self.placement,
            pipeline=first.pipeline,
            mitigation=mitigator.name if mitigator is not None else "",
            seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Transpile-, calibration- and result-store statistics.

        The transpile-cache counters keep their historical flat keys
        (``hits``, ``misses``, ``entries``); the calibration cache adds
        ``calibration_hits`` / ``calibration_misses`` /
        ``calibration_entries``; the result store adds ``store_hits`` /
        ``store_misses`` (the lookups reported through
        :meth:`count_store_lookup`) and the backend
        adds ``executions`` — the number of circuit executions actually
        dispatched — so cache effectiveness of every layer is observable
        from one call.
        """
        stats = dict(self.cache.stats())
        for key, value in self.calibration_cache.stats().items():
            stats[f"calibration_{key}"] = value
        with self._counts_lock:
            stats.update(self._counts)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        transpile = self.cache.stats()
        calibration = self.calibration_cache.stats()
        return (
            f"ExecutionEngine(device={self.device.name!r}, backend={self.backend.name!r}, "
            f"max_workers={self.max_workers}, "
            f"transpile_cache={transpile['hits']}h/{transpile['misses']}m, "
            f"calibration_cache={calibration['hits']}h/{calibration['misses']}m)"
        )
