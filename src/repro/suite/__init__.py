"""Registry-driven benchmark suite orchestration.

The suite layer turns the repository's benchmark collections and experiment
sweeps into *data*:

* :class:`BenchmarkRegistry` / :func:`register_family` — decorator-based
  registration of benchmark families; instances and feature vectors are
  lazily built and memoized per :class:`BenchmarkSpec`.
* :class:`Sweep` / :class:`Scenario` — declarative parameter grids and
  device × backend × optimization-level × mitigation cross-products that
  expand to run units and per-engine shards.
* :func:`run_scenario` / :class:`SuiteResult` — leased execution, one
  :meth:`~repro.execution.ExecutionEngine.run` per unit, in-process or on a
  worker-process pool, with streaming aggregation (scores, feature vectors,
  timing, cache stats) and resumable partial results.
* :mod:`repro.suite.scenarios` — the paper's standard sweeps (Fig. 1/2
  instances, the Table I scaling suite) defined once as data.

See ``docs/suite.md`` for the full walkthrough.
"""

from .registry import BenchmarkRegistry, DEFAULT_REGISTRY, get_registry, register_family
from .scenarios import (
    FIGURE1_SPECS,
    FIGURE2_FULL_SWEEPS,
    FIGURE2_SMALL_SWEEPS,
    SCALING_RULES,
    SCALING_SIZES,
    figure2_scenario,
    figure2_specs,
    figure2_sweeps,
    mitigated_scenario,
    scaling_specs,
)
from .spec import BenchmarkSpec
from .sweep import EngineConfig, RunUnit, Scenario, Shard, Sweep

__all__ = [
    "BenchmarkRegistry",
    "DEFAULT_REGISTRY",
    "get_registry",
    "register_family",
    "BenchmarkSpec",
    "Sweep",
    "Scenario",
    "EngineConfig",
    "RunUnit",
    "Shard",
    "figure2_sweeps",
    "figure2_specs",
    "figure2_scenario",
    "mitigated_scenario",
    "scaling_specs",
    "FIGURE1_SPECS",
    "FIGURE2_FULL_SWEEPS",
    "FIGURE2_SMALL_SWEEPS",
    "SCALING_SIZES",
    "SCALING_RULES",
    "SpecOutcome",
    "SuiteResult",
    "SCHEMA_VERSION",
    "run_scenario",
]

_LAZY = {
    # The runner and result containers pull in the execution engine (which
    # itself imports repro.benchmarks); loading them lazily keeps
    # ``repro.suite`` importable from inside the benchmark family modules
    # during their decorator-based registration without an import cycle.
    "SpecOutcome": "results",
    "SuiteResult": "results",
    "SCHEMA_VERSION": "results",
    "run_scenario": "runner",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
