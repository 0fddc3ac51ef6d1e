"""The execution engine: the single path from circuits to counts.

:class:`ExecutionEngine` plays the role the SuperstaQ submission layer plays
in the paper — a benchmark is specified once, the engine lowers it to the
target device (through a shared :class:`~repro.execution.cache.TranspileCache`
so nothing is ever compiled twice), fans the resulting batch out across a
worker pool, and executes it on a pluggable
:class:`~repro.execution.backends.Backend`.

Error mitigation is a first-class option: ``run(..., mitigation="readout")``
(or ``"zne"`` / ``"dd"`` / any :class:`~repro.mitigation.Mitigator`
instance) calibrates the device once per ``(device, qubit set, noise
fingerprint)`` — calibration jobs go through the same worker pool and their
digested result is memoised in a
:class:`~repro.mitigation.CalibrationCache` — executes the technique's
circuit variants, and scores the benchmark on the corrected
:class:`~repro.simulation.result.QuasiDistribution`.

Determinism: per-circuit seeds are fixed functions of the batch seed and the
circuit's position, so results are bit-identical for ``max_workers=1`` and
``max_workers=N``.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..benchmarks import Benchmark
from ..circuits import Circuit
from ..devices import Device
from ..exceptions import BackendCapacityError, DeviceError, MitigationError
from ..features import typical_features
from ..mitigation import CalibrationCache, Mitigator, is_raw_spec, resolve_mitigator
from ..mitigation.calibration import calibration_seed
from ..simulation import Counts, QuasiDistribution
from ..telemetry import Span, get_metrics, get_tracer, instance_label
from .backends import Backend, backend_metadata, circuit_seed, resolve_backend
from .cache import CacheEntry, TranspileCache
from .job import Job
from .results import BenchmarkRun

__all__ = ["ExecutionEngine", "REPETITION_STRIDE"]

_EXECUTIONS = get_metrics().counter(
    "repro_engine_executions_total",
    "Circuit executions dispatched to the backend.",
    ("instance",),
)
_STORE_LOOKUPS = get_metrics().counter(
    "repro_engine_store_lookups_total",
    "Per-engine content-key store lookups by result.",
    ("instance", "result"),
)

#: Per-repetition seed stride (kept identical to the historical runner so
#: seeded benchmark scores are reproducible across releases).
REPETITION_STRIDE = 104729


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
        placement: Default placement strategy (``"noise_aware"`` or
            ``"trivial"``); overridable per call on :meth:`run`,
            :meth:`run_suite`, :meth:`submit` and :meth:`prepare`.
        mitigation: Default error-mitigation technique — a
            :class:`~repro.mitigation.Mitigator` instance or name
            (``"readout"``, ``"zne"``, ``"dd"``, ...); ``None`` (default)
            runs raw.  Overridable per call on :meth:`run`,
            :meth:`run_suite` and :meth:`run_circuits`.
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
        mitigation: Union[Mitigator, str, None] = None,
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
        # "raw"/"none" are accepted everywhere a mitigation spec is, so the
        # constructor honours them too (technique sweeps pass them through).
        if is_raw_spec(mitigation):
            self.mitigation: Optional[Mitigator] = None
        else:
            self.mitigation = resolve_mitigator(mitigation)
        self.cache = cache if cache is not None else TranspileCache()
        self.calibration_cache = (
            calibration_cache if calibration_cache is not None else CalibrationCache()
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        # Engine-local counters as registry series (a store may be shared
        # across engines; these count only this engine's lookups, so
        # per-engine stats compose correctly when the suite layer aggregates
        # them per engine configuration).
        self._id = instance_label("engine")
        self._execution_series = _EXECUTIONS.labels(instance=self._id)
        self._store_hit_series = _STORE_LOOKUPS.labels(instance=self._id, result="hit")
        self._store_miss_series = _STORE_LOOKUPS.labels(instance=self._id, result="miss")
        # (optimization_level, placement) -> (pipeline fingerprint, noise
        # fingerprint): the per-engine half of the store content key, computed
        # lazily once per placement strategy actually used.
        self._content_fingerprints: Dict[Tuple[int, str], Tuple[str, str]] = {}

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

    def prepare(
        self, circuits: Sequence[Circuit], placement: Optional[str] = None
    ) -> List[CacheEntry]:
        """Fit-check and transpile every circuit (served from the cache when warm).

        With ``max_workers > 1``, cold compilations of *distinct* circuits
        are fanned out across the worker pool (distinctness judged by the
        cache's structural fingerprint, so a batch of repeated circuits is
        still compiled once).

        Args:
            placement: Placement strategy for this batch; defaults to the
                engine's :attr:`placement`.
        """
        strategy = self.placement if placement is None else placement
        for circuit in circuits:
            self.check_fits(circuit)
        if self.max_workers > 1 and len(circuits) > 1:
            entries = self._prepare_parallel(circuits, strategy)
        else:
            entries = [
                self.cache.get_or_transpile(
                    circuit, self.device, self.optimization_level, strategy
                )
                for circuit in circuits
            ]
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

    def _prepare_parallel(
        self, circuits: Sequence[Circuit], placement: str
    ) -> List[CacheEntry]:
        """Compile distinct circuits concurrently on the worker pool.

        Delegates to the cache's batch API
        (:meth:`~repro.execution.cache.TranspileCache.get_or_transpile_many`):
        the preset pipeline is resolved once for the whole batch, every
        circuit is fingerprinted (and packed) exactly once, and cold
        compilations of *distinct* circuits fan out over the worker pool —
        the pool never races two compilations of the same circuit, which
        would double-count cache misses.
        """
        return self.cache.get_or_transpile_many(
            circuits,
            self.device,
            self.optimization_level,
            placement,
            executor=self._pool(),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def submit(
        self,
        circuits: Sequence[Circuit],
        shots: int = 1000,
        seed: Optional[int] = None,
        placement: Optional[str] = None,
    ) -> Job:
        """Compile (or fetch from cache) and asynchronously execute a batch.

        Returns a :class:`Job` whose ``result()`` yields one
        :class:`~repro.simulation.result.Counts` per circuit, in order.
        """
        return self._submit_prepared(
            circuits, self.prepare(circuits, placement=placement), shots, seed
        )

    def _submit_prepared(
        self,
        circuits: Sequence[Circuit],
        entries: Sequence[CacheEntry],
        shots: int,
        seed: Optional[int],
    ) -> Job:
        pool = self._pool()
        parent = get_tracer().current_span()
        futures: List["Future[Counts]"] = []
        metadata: List[Dict[str, object]] = []
        for index, (circuit, entry) in enumerate(zip(circuits, entries)):
            noise = entry.noise_model() if self.backend.noisy else None
            seed_here = circuit_seed(seed, index)
            futures.append(
                pool.submit(
                    self._run_one, entry.compact, shots, noise, seed_here, parent
                )
            )
            metadata.append(
                {
                    "index": index,
                    "name": circuit.name,
                    "num_qubits": circuit.num_qubits,
                    "compiled_qubits": len(entry.physical),
                    "physical_qubits": entry.physical,
                    "swap_count": entry.transpiled.swap_count,
                    "compiled_two_qubit_gates": entry.two_qubit_gates,
                    "compiled_depth": entry.depth,
                    "compiled_critical_two_qubit_gates": entry.transpiled.metrics.get(
                        "critical_two_qubit_gates"
                    ),
                    "pipeline": entry.pipeline,
                    "seed": seed_here,
                }
            )
        return Job(
            futures,
            metadata,
            shots=shots,
            backend_name=self.backend.name,
            backend_metadata=backend_metadata(self.backend),
        )

    def _run_one(
        self, compact: Circuit, shots: int, noise, seed: Optional[int], parent: Optional[Span]
    ) -> Counts:
        # ``parent`` is the submitter's span: pool-thread spans join its trace.
        with get_tracer().resume(parent):
            self._execution_series.add(1.0)
            return self.backend.run_batch([compact], shots, noise_model=[noise], seed=seed)[0]

    # ------------------------------------------------------------------
    # content-addressed result caching
    # ------------------------------------------------------------------
    def _fingerprints_for(self, placement: str) -> Tuple[str, str]:
        """(pipeline fingerprint, noise fingerprint) of this engine + placement.

        The pipeline fingerprint captures every compilation knob (preset
        level, placement strategy, device presets); the noise fingerprint is
        the whole-device model's (``"ideal"`` for noise-free backends).  Both
        are computed without transpiling anything, so a store hit never
        touches the compiler.
        """
        cache_key = (self.optimization_level, placement)
        cached = self._content_fingerprints.get(cache_key)
        if cached is None:
            from ..transpiler import preset_pipeline

            pipeline = preset_pipeline(
                self.device, optimization_level=self.optimization_level, placement=placement
            )
            noise = self.device.noise_model().fingerprint() if self.backend.noisy else "ideal"
            cached = (pipeline.fingerprint, noise)
            self._content_fingerprints[cache_key] = cached
        return cached

    def content_key(
        self,
        benchmark: Union[Benchmark, str],
        shots: int,
        repetitions: int,
        seed: Optional[int],
        placement: Optional[str] = None,
        mitigation: Union[Mitigator, str, None] = None,
    ) -> str:
        """Canonical store key of one benchmark execution on this engine.

        Hashes everything the resulting scores depend on — spec identity,
        device, backend configuration, pipeline and noise fingerprints,
        mitigation technique and the execution knobs (see
        :mod:`repro.store.keys`).
        """
        from ..store.keys import content_key, mitigation_identity, spec_identity

        strategy = self.placement if placement is None else placement
        pipeline, noise = self._fingerprints_for(strategy)
        mitigator = self._call_mitigator(mitigation)
        spec = benchmark if isinstance(benchmark, str) else spec_identity(benchmark)
        return content_key(
            spec=spec,
            device=self.device.name,
            backend=backend_metadata(self.backend),
            pipeline=pipeline,
            noise=noise,
            mitigation=mitigation_identity(mitigator),
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
        (self._store_hit_series if hit else self._store_miss_series).add(1.0)

    # ------------------------------------------------------------------
    # error mitigation
    # ------------------------------------------------------------------
    def _call_mitigator(self, mitigation: Union[Mitigator, str, None]) -> Optional[Mitigator]:
        """Resolve a per-call mitigation spec against the engine default.

        ``None`` means "use the engine's default"; the explicit strings
        ``"raw"`` / ``"none"`` force unmitigated execution even on an engine
        constructed with a default technique.
        """
        if mitigation is None:
            return self.mitigation
        if is_raw_spec(mitigation):
            return None
        return resolve_mitigator(mitigation)

    def _noise_fingerprint(self, entry: CacheEntry) -> str:
        """Noise identity of one compiled circuit's compact register."""
        if not self.backend.noisy:
            return "ideal"
        return entry.noise_model().fingerprint()

    def _calibration_for(self, mitigator: Mitigator, entry: CacheEntry):
        """Calibration data for one compiled circuit, through the cache.

        Cache misses schedule the technique's calibration circuits on the
        worker pool (seeded deterministically from the cache key, so a
        cleared cache reproduces the identical calibration) and digest the
        counts via :meth:`~repro.mitigation.Mitigator.calibration_from_counts`.
        """
        if not mitigator.requires_calibration:
            return None
        num_qubits = entry.compact.num_qubits
        key = (
            self.device.name,
            entry.physical,
            self._noise_fingerprint(entry),
            mitigator.calibration_key(),
        )

        def compute():
            circuits = mitigator.calibration_circuits(num_qubits)
            noise = entry.noise_model() if self.backend.noisy else None
            seed = calibration_seed(key)
            pool = self._pool()
            parent = get_tracer().current_span()
            futures = [
                pool.submit(
                    self._run_one, circuit, mitigator.calibration_shots, noise,
                    circuit_seed(seed, index), parent,
                )
                for index, circuit in enumerate(circuits)
            ]
            counts = [future.result() for future in futures]
            return mitigator.calibration_from_counts(counts, num_qubits)

        return self.calibration_cache.get_or_compute(key, compute)

    def _transform_variants(
        self, entries: Sequence[CacheEntry], mitigator: Mitigator
    ) -> List[List[Circuit]]:
        """Apply the technique's circuit transform once per compiled entry.

        Variants are pure functions of the compiled circuit, so callers
        compute them once and reuse them across repetitions; a technique /
        circuit mismatch (e.g. ZNE folding a mid-circuit measurement)
        raises here, before anything is submitted to the pool.
        """
        return [mitigator.transform(entry.compact) for entry in entries]

    def _submit_variants(
        self,
        entries: Sequence[CacheEntry],
        variant_groups: Sequence[Sequence[Circuit]],
        shots: int,
        seed: Optional[int],
    ) -> Tuple[List["Future[Counts]"], List[int]]:
        """Submit every transform variant of every entry; returns futures + group sizes."""
        pool = self._pool()
        parent = get_tracer().current_span()
        futures: List["Future[Counts]"] = []
        sizes: List[int] = []
        index = 0
        for entry, variants in zip(entries, variant_groups):
            noise = entry.noise_model() if self.backend.noisy else None
            sizes.append(len(variants))
            for variant in variants:
                futures.append(
                    pool.submit(
                        self._run_one, variant, shots, noise, circuit_seed(seed, index), parent
                    )
                )
                index += 1
        return futures, sizes

    def _collect_variants(
        self,
        futures: Sequence["Future[Counts]"],
        sizes: Sequence[int],
        entries: Sequence[CacheEntry],
        mitigator: Mitigator,
        calibrations: Sequence[object],
    ) -> List[QuasiDistribution]:
        """Await variant counts and fold each group back into one quasi-distribution."""
        results = [future.result() for future in futures]
        mitigated: List[QuasiDistribution] = []
        cursor = 0
        for entry, calibration, size in zip(entries, calibrations, sizes):
            group = results[cursor : cursor + size]
            cursor += size
            mitigated.append(
                mitigator.mitigate(group, circuit=entry.compact, calibration=calibration)
            )
        return mitigated

    def run_circuits(
        self,
        circuits: Sequence[Circuit],
        shots: int = 1000,
        seed: Optional[int] = None,
        placement: Optional[str] = None,
        mitigation: Union[Mitigator, str, None] = None,
    ) -> List[Counts]:
        """Synchronous convenience wrapper around :meth:`submit`.

        With ``mitigation`` set (or an engine-level default), calibration
        jobs are scheduled (served from the calibration cache when warm),
        the technique's circuit variants are executed, and one mitigated
        :class:`~repro.simulation.result.QuasiDistribution` per input
        circuit is returned instead of raw :class:`Counts`.
        """
        mitigator = self._call_mitigator(mitigation)
        if mitigator is None:
            return self.submit(circuits, shots=shots, seed=seed, placement=placement).result()
        entries = self.prepare(circuits, placement=placement)
        calibrations = [self._calibration_for(mitigator, entry) for entry in entries]
        variant_groups = self._transform_variants(entries, mitigator)
        futures, sizes = self._submit_variants(entries, variant_groups, shots, seed)
        return self._collect_variants(futures, sizes, entries, mitigator, calibrations)

    # ------------------------------------------------------------------
    # benchmark-level API
    # ------------------------------------------------------------------
    def run(
        self,
        benchmark: Benchmark,
        shots: int = 1000,
        repetitions: int = 3,
        seed: Optional[int] = 1234,
        placement: Optional[str] = None,
        mitigation: Union[Mitigator, str, None] = None,
    ) -> BenchmarkRun:
        """Run one benchmark ``repetitions`` times and collect its scores.

        All repetitions are submitted before any is awaited, so with
        ``max_workers > 1`` they execute concurrently.

        Args:
            placement: Placement strategy for this benchmark; defaults to
                the engine's :attr:`placement`.
            mitigation: Error-mitigation technique for this benchmark
                (instance or name); defaults to the engine's
                :attr:`mitigation` and accepts ``"raw"`` to force
                unmitigated execution.  Mitigated runs calibrate at most
                once per ``(device, qubit set, noise fingerprint)`` across
                the engine's lifetime and score the benchmark on the
                corrected quasi-distributions.

        Raises:
            DeviceError: when the benchmark needs more qubits than the device has.
        """
        started = time.perf_counter()
        strategy = self.placement if placement is None else placement
        mitigator = self._call_mitigator(mitigation)
        tracer = get_tracer()
        with tracer.span(
            "engine.run",
            benchmark=str(benchmark),
            device=self.device.name,
            backend=self.backend.name,
            mitigation=mitigator.name if mitigator is not None else "raw",
            repetitions=repetitions,
        ):
            circuits = benchmark.circuits()
            with tracer.span("engine.transpile", circuits=len(circuits)):
                entries = self.prepare(circuits, placement=strategy)

            if mitigator is None:
                with tracer.span("engine.simulate", shots=shots):
                    jobs: List[Job] = []
                    for repetition in range(repetitions):
                        repetition_seed = (
                            None if seed is None else seed + REPETITION_STRIDE * repetition
                        )
                        jobs.append(
                            self._submit_prepared(circuits, entries, shots, repetition_seed)
                        )
                    scores = [benchmark.score(job.result()) for job in jobs]
            else:
                with tracer.span("engine.mitigate", technique=mitigator.name):
                    calibrations = [
                        self._calibration_for(mitigator, entry) for entry in entries
                    ]
                    variant_groups = self._transform_variants(entries, mitigator)
                with tracer.span("engine.simulate", shots=shots):
                    submissions = []
                    for repetition in range(repetitions):
                        repetition_seed = (
                            None if seed is None else seed + REPETITION_STRIDE * repetition
                        )
                        submissions.append(
                            self._submit_variants(entries, variant_groups, shots, repetition_seed)
                        )
                    scores = [
                        benchmark.score(
                            self._collect_variants(
                                futures, sizes, entries, mitigator, calibrations
                            )
                        )
                        for futures, sizes in submissions
                    ]

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
            placement=strategy,
            pipeline=first.pipeline,
            mitigation=mitigator.name if mitigator is not None else "",
            seconds=time.perf_counter() - started,
        )

    def run_suite(
        self,
        benchmarks: Iterable[Benchmark],
        shots: int = 1000,
        repetitions: int = 3,
        seed: Optional[int] = 1234,
        skip_oversized: bool = True,
        placement: Optional[str] = None,
        mitigation: Union[Mitigator, str, None] = None,
        on_result: Optional[Callable[[Benchmark, BenchmarkRun], None]] = None,
        on_skip: Optional[Callable[[Benchmark, Exception], None]] = None,
    ) -> List[BenchmarkRun]:
        """Run a collection of benchmarks on this engine's device.

        Args:
            skip_oversized: When True (default), benchmarks that do not fit on
                the device are skipped instead of raising — the black "X"
                entries of Fig. 2.
            placement: Placement strategy for the whole suite; defaults to
                the engine's :attr:`placement`.
            mitigation: Error-mitigation technique for the whole suite;
                defaults to the engine's :attr:`mitigation`.  Benchmarks
                landing on the same physical qubits share calibration data
                through the engine's calibration cache.  Benchmarks the
                technique cannot apply to (e.g. ZNE on the mid-circuit-
                measurement error-correction codes) are skipped with a
                warning rather than aborting the suite.
            on_result: Streaming hook: called as ``on_result(benchmark,
                run)`` the moment each benchmark finishes, before the next
                one starts — the suite layer aggregates partial results
                through it.  Exactly one of ``on_result`` / ``on_skip``
                fires per benchmark, in iteration order.
            on_skip: Streaming hook: called as ``on_skip(benchmark, error)``
                when a benchmark is skipped (oversized circuit, backend
                capacity, technique mismatch) instead of producing a run.
        """
        # Resolve the spec once, before the loop: an unknown technique name
        # is a configuration error and must raise here — the per-benchmark
        # MitigationError handler below is only for technique/circuit
        # mismatches.  The resolved result (or an explicit "raw" when it is
        # None) is what run() receives, so the engine default cannot sneak
        # back in.
        mitigator = self._call_mitigator(mitigation)
        resolved = mitigator if mitigator is not None else "raw"
        tracer = get_tracer()
        runs: List[BenchmarkRun] = []
        for benchmark in benchmarks:
            with tracer.span(
                "engine.benchmark", benchmark=str(benchmark), device=self.device.name
            ) as spec_span:
                try:
                    run = self.run(
                        benchmark,
                        shots=shots,
                        repetitions=repetitions,
                        seed=seed,
                        placement=placement,
                        mitigation=resolved,
                    )
                except MitigationError as error:
                    # With a skip hook installed its owner decides how to report
                    # (the suite runner warns itself); warn here only for direct
                    # callers so the event is never reported twice.
                    spec_span.set_attribute("status", "skipped")
                    if on_skip is not None:
                        on_skip(benchmark, error)
                    else:
                        warnings.warn(f"skipping {benchmark}: {error}", stacklevel=2)
                except DeviceError as error:
                    if not skip_oversized:
                        raise
                    spec_span.set_attribute("status", "skipped")
                    if on_skip is not None:
                        on_skip(benchmark, error)
                else:
                    spec_span.set_attribute("status", "executed")
                    runs.append(run)
                    if on_result is not None:
                        on_result(benchmark, run)
        return runs

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
        stats["store_hits"] = int(self._store_hit_series.value())
        stats["store_misses"] = int(self._store_miss_series.value())
        stats["executions"] = int(self._execution_series.value())
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
