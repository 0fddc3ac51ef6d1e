"""Unified execution API: pluggable backends, transpile caching, one dispatch path.

This package is the single seam between *what to run* (circuits, benchmarks)
and *how it runs* (which simulator, how many workers, how noise is treated):

* :class:`Backend` — the protocol; :class:`StatevectorBackend` (ideal),
  :class:`TrajectoryBackend` (noisy Monte-Carlo) and
  :class:`DensityMatrixBackend` (exact noisy) implement it.
* :class:`TranspileCache` — memoised compilation keyed on
  ``(circuit fingerprint, device, pipeline fingerprint)``, so every knob
  that changes compilation (optimization level, placement strategy, custom
  device presets) separates cache entries.
* :class:`ExecutionEngine` — owns a cache and a worker pool and sends every
  execution (benchmark circuits, mitigation variants, calibration circuits)
  through one seeded dispatch; ``run_circuits()`` returns counts (or
  mitigated quasi-distributions) per circuit, ``run()`` one benchmark's
  :class:`BenchmarkRun`.  Sweeps call ``run()`` once per unit from
  :func:`repro.distributed.worker.run_lease`.

See ``docs/execution.md`` for the full API walkthrough.
"""

from .backends import (
    Backend,
    DensityMatrixBackend,
    StatevectorBackend,
    TrajectoryBackend,
    backend_metadata,
    resolve_backend,
)
from .cache import CacheEntry, TranspileCache, circuit_fingerprint
from .engine import ExecutionEngine
from .results import BenchmarkRun

__all__ = [
    "Backend",
    "StatevectorBackend",
    "TrajectoryBackend",
    "DensityMatrixBackend",
    "resolve_backend",
    "backend_metadata",
    "CacheEntry",
    "TranspileCache",
    "circuit_fingerprint",
    "ExecutionEngine",
    "BenchmarkRun",
]
