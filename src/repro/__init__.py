"""repro — a from-scratch reproduction of SupermarQ (HPCA 2022).

The package provides:

* :mod:`repro.circuits` — a quantum circuit IR with OpenQASM 2.0 round trip.
* :mod:`repro.simulation` — statevector / density-matrix simulators and
  calibration-derived noise models.
* :mod:`repro.devices` — the nine QPU models of the paper's Table II.
* :mod:`repro.transpiler` — basis translation, placement, routing and the
  Closed-Division optimizations.
* :mod:`repro.execution` — the unified execution engine: a benchmark or
  circuit batch is submitted once and the engine lowers it to the target
  device through a transpile cache (each circuit is compiled at most once per
  device), fans it out across a worker pool, and runs it on a pluggable
  backend — :class:`~repro.execution.StatevectorBackend` (ideal),
  :class:`~repro.execution.TrajectoryBackend` (noisy Monte-Carlo) or
  :class:`~repro.execution.DensityMatrixBackend` (exact noisy).  Typical use::

      from repro import ExecutionEngine, get_device
      from repro.benchmarks import GHZBenchmark

      with ExecutionEngine(get_device("IonQ-11Q"), backend="trajectory",
                           max_workers=4) as engine:
          run = engine.run(GHZBenchmark(5), shots=1000, repetitions=3)

  The legacy helpers ``repro.experiments.run_benchmark_on_device`` and
  ``repro.experiments.execute_circuits`` are deprecated shims over this
  engine (see ``docs/execution.md``).
* :mod:`repro.features` — the six SupermarQ application features.
* :mod:`repro.benchmarks` — the eight benchmark applications with their
  circuit generators and score functions.
* :mod:`repro.coverage` — the feature-space coverage analysis of Table I.
* :mod:`repro.suite` — the registry-driven suite layer: decorator-registered
  benchmark families, hashable :class:`~repro.suite.BenchmarkSpec` objects
  with lazy memoized construction, declarative :class:`~repro.suite.Sweep` /
  :class:`~repro.suite.Scenario` definitions and leased, resumable
  execution through :func:`repro.suite.run_scenario` (see ``docs/suite.md``).
* :mod:`repro.experiments` — thin scenario definitions regenerating every
  table and figure.
"""

from . import (
    analysis,
    benchmarks,
    circuits,
    coverage,
    devices,
    execution,
    experiments,
    features,
    hamiltonians,
    mitigation,
    optimize,
    paulis,
    service,
    simulation,
    store,
    suite,
    transpiler,
)
from .benchmarks import (
    Benchmark,
    BitCodeBenchmark,
    GHZBenchmark,
    HamiltonianSimulationBenchmark,
    MerminBellBenchmark,
    PhaseCodeBenchmark,
    VQEBenchmark,
    VanillaQAOABenchmark,
    ZZSwapQAOABenchmark,
)
from .circuits import Circuit
from .devices import Device, get_device
from .execution import (
    Backend,
    DensityMatrixBackend,
    ExecutionEngine,
    Job,
    StatevectorBackend,
    TrajectoryBackend,
    TranspileCache,
)
from .features import compute_features, compute_features_many, feature_vector
from .simulation import NoiseModel, StatevectorSimulator
from .store import ResultStore
from .suite import BenchmarkSpec, Scenario, Sweep, get_registry, register_family
from .transpiler import PassManager, preset_pipeline, transpile

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "Circuit",
    "Device",
    "get_device",
    "NoiseModel",
    "StatevectorSimulator",
    "transpile",
    "PassManager",
    "preset_pipeline",
    "compute_features",
    "compute_features_many",
    "feature_vector",
    "BenchmarkSpec",
    "Sweep",
    "Scenario",
    "get_registry",
    "register_family",
    "Backend",
    "ExecutionEngine",
    "ResultStore",
    "Job",
    "TranspileCache",
    "StatevectorBackend",
    "TrajectoryBackend",
    "DensityMatrixBackend",
    "Benchmark",
    "GHZBenchmark",
    "MerminBellBenchmark",
    "BitCodeBenchmark",
    "PhaseCodeBenchmark",
    "VanillaQAOABenchmark",
    "ZZSwapQAOABenchmark",
    "VQEBenchmark",
    "HamiltonianSimulationBenchmark",
    "analysis",
    "benchmarks",
    "circuits",
    "coverage",
    "devices",
    "execution",
    "experiments",
    "features",
    "hamiltonians",
    "mitigation",
    "optimize",
    "paulis",
    "service",
    "simulation",
    "store",
    "suite",
    "transpiler",
]
