"""Common interface of the SupermarQ benchmark applications.

Every benchmark provides two things (Section IV of the paper):

* a *circuit generator* — one or more OpenQASM-expressible circuits whose
  size is parameterised so the benchmark scales from NISQ to FT machines, and
* a *score function* — an application-level metric in [0, 1] computed from
  the measured bitstring counts, where 1 means ideal behaviour.

Benchmarks that need several circuits (e.g. VQE measures its energy in two
bases, Mermin-Bell measures several commuting groups) return them all from
:meth:`Benchmark.circuits`; the runner executes each with the same number of
shots and passes the list of counts back to :meth:`Benchmark.score`.

Subclasses implement :meth:`_build_circuits` (and optionally
:meth:`_build_representative`); the public :meth:`circuits`,
:meth:`circuit` and :meth:`features` accessors cache their results on the
instance, so one benchmark object builds its circuits exactly once no matter
how many times the execution engine, the scorer and the feature extractor
ask for them.  The returned circuits are shared — callers must not mutate
them (transpilation and mitigation transforms always produce new circuits).

The variational proxies (VQE and both QAOAs) derive from
:class:`VariationalBenchmark`, which owns their classical reference: the
optimised parameters, the ideal energy and the score against it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..circuits import Circuit
from ..exceptions import BenchmarkError
from ..features import FeatureVector, compute_features
from ..telemetry import get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulation import Counts

__all__ = ["Benchmark", "VariationalBenchmark"]


class Benchmark(abc.ABC):
    """Abstract base class of every SupermarQ benchmark application."""

    #: Short machine-readable benchmark family name, e.g. ``"ghz"``.
    name: str = "benchmark"

    @abc.abstractmethod
    def _build_circuits(self) -> List[Circuit]:
        """Construct the circuits (one entry per required measurement setting)."""

    @abc.abstractmethod
    def score(self, counts_list: Sequence["Counts"]) -> float:
        """Map the measured counts (one per circuit) to a score in [0, 1]."""

    # ------------------------------------------------------------------
    def circuits(self) -> List[Circuit]:
        """The circuits to execute, built once and cached on the instance."""
        cached: Optional[List[Circuit]] = getattr(self, "_circuits_cache", None)
        if cached is None:
            cached = list(self._build_circuits())
            self._circuits_cache = cached
        return list(cached)

    def _build_representative(self) -> Circuit:
        """Construct the representative circuit (default: the first circuit)."""
        circuits = self.circuits()
        if not circuits:
            raise BenchmarkError(f"benchmark {self.name} produced no circuits")
        return circuits[0]

    def circuit(self) -> Circuit:
        """The representative circuit used for feature computation (cached)."""
        cached: Optional[Circuit] = getattr(self, "_circuit_cache", None)
        if cached is None:
            cached = self._build_representative()
            self._circuit_cache = cached
        return cached

    def features(self) -> FeatureVector:
        """SupermarQ feature vector of the representative circuit (cached)."""
        cached: Optional[FeatureVector] = getattr(self, "_features_cache", None)
        if cached is None:
            cached = compute_features(self.circuit())
            self._features_cache = cached
        return cached

    def invalidate_cache(self) -> None:
        """Drop the cached circuits / features (after mutating parameters)."""
        self._circuits_cache = None
        self._circuit_cache = None
        self._features_cache = None

    def num_qubits(self) -> int:
        return self.circuit().num_qubits

    def describe(self) -> Dict[str, object]:
        """Human-readable summary used by the experiment drivers."""
        representative = self.circuit()
        return {
            "name": self.name,
            "label": str(self),
            "num_qubits": representative.num_qubits,
            "num_circuits": len(self.circuits()),
            "depth": representative.depth(),
            "two_qubit_gates": representative.num_two_qubit_gates(),
            "features": self.features().as_dict(),
        }

    @staticmethod
    def _clip_score(value: float) -> float:
        """Clamp a raw score into [0, 1]."""
        return float(min(max(value, 0.0), 1.0))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}"


class VariationalBenchmark(Benchmark):
    """A proxy application scored against a classically optimised energy.

    As in the paper, the ansatz parameters are optimised classically, once,
    and the device is scored on a single energy measurement at those
    parameters (:meth:`energy_score`).  This class owns that classical
    reference: the restarts (:meth:`_best_of_restarts`, one
    ``benchmark.optimize`` span), the cached parameters and ideal energy,
    and the score.  A family gives its objective (:meth:`_energy`) and, in
    :meth:`_optimize`, its starts, iteration budget, tolerance and
    fallback.  It passes the minimiser as the global of its own module,
    read at call time, so a wrapper installed on that global sees every
    call.
    """

    _parameters: Any = None
    _ideal_energy: Optional[float] = None

    @abc.abstractmethod
    def _energy(self, parameters: Sequence[float]) -> float:
        """The objective: the noiseless ansatz energy at ``parameters``."""

    @abc.abstractmethod
    def _optimize(self) -> Tuple[Any, float]:
        """``(parameters, ideal energy)``, from :meth:`_best_of_restarts`."""

    def optimal_parameters(self) -> Any:
        """The classically optimised parameters (optimised on first use)."""
        if self._parameters is None:
            self._parameters, self._ideal_energy = self._optimize()
        return self._parameters

    def ideal_energy(self) -> float:
        """The noiseless ansatz energy at :meth:`optimal_parameters`."""
        if self._ideal_energy is None:
            self.optimal_parameters()
        assert self._ideal_energy is not None
        return self._ideal_energy

    def _best_of_restarts(
        self,
        minimize: Callable[..., Any],
        starts: Sequence[Sequence[float]],
        max_iterations: int,
        tolerance: float,
        fallback: Any,
    ) -> Tuple[Any, float]:
        """Minimise :meth:`_energy` once from each start; the best ``(parameters, value)``.

        ``fallback`` stands for the parameters when no run returns a value
        below infinity.  One ``benchmark.optimize`` span covers the runs and
        records their number and total objective evaluations.
        """
        best, best_value, evaluations = fallback, float("inf"), 0
        with get_tracer().span(
            "benchmark.optimize", benchmark=str(self), restarts=len(starts)
        ) as span:
            for start in starts:
                result = minimize(
                    self._energy, start, max_iterations=max_iterations, tolerance=tolerance
                )
                evaluations += result.evaluations
                if result.value < best_value:
                    best, best_value = result.parameters, result.value
            span.set_attribute("evaluations", evaluations)
        return best, float(best_value)

    @staticmethod
    def energy_score(ideal: float, measured: float) -> float:
        """The paper's score ``1 - |E_ideal - E_measured| / |2 E_ideal|``, clipped into [0, 1]."""
        if abs(ideal) < 1e-12:
            # Degenerate instance: fall back to absolute deviation.
            return Benchmark._clip_score(1.0 - abs(measured - ideal) / 2.0)
        return Benchmark._clip_score(1.0 - abs(ideal - measured) / abs(2.0 * ideal))
