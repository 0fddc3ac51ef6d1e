"""The QAOA benchmarks: Vanilla and ZZ-SWAP ansatzes (Section IV-D).

Both benchmarks solve MaxCut on the Sherrington-Kirkpatrick model — a
complete graph with random ±1 edge weights — with a depth-one (p = 1) QAOA
ansatz.  Following the paper they are *proxy applications*: the variational
parameters are optimised classically beforehand and the hardware is scored
on a single circuit evaluation,

    score = 1 - | <H>_ideal - <H>_measured | / | 2 <H>_ideal |.

The Vanilla ansatz applies an ``RZZ`` interaction for every edge directly and
therefore needs all-to-all connectivity.  The ZZ-SWAP ansatz uses a SWAP
network: ``n`` layers of combined ``RZZ + SWAP`` gates on alternating
neighbouring pairs realise all ``n (n-1) / 2`` interactions in linear depth
on a line, at the cost of reversing the qubit order.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..exceptions import BenchmarkError
from ..hamiltonians import SKModel
from ..optimize import minimize_nelder_mead
from ..paulis import PauliString, PauliSum
from ..simulation import Counts, final_statevector
from ..suite.registry import register_family
from ..telemetry import get_tracer
from .base import Benchmark

__all__ = ["VanillaQAOABenchmark", "ZZSwapQAOABenchmark"]


def _energy_score(ideal: float, measured: float) -> float:
    """The paper's QAOA/VQE score function, clipped into [0, 1]."""
    if abs(ideal) < 1e-12:
        # Degenerate instance: fall back to absolute deviation.
        return float(min(max(1.0 - abs(measured - ideal) / 2.0, 0.0), 1.0))
    value = 1.0 - abs(ideal - measured) / abs(2.0 * ideal)
    return float(min(max(value, 0.0), 1.0))


class _QAOABenchmark(Benchmark):
    """Shared state and scoring of the two QAOA variants."""

    def __init__(self, num_qubits: int, seed: int = 0) -> None:
        if num_qubits < 2:
            raise BenchmarkError("QAOA needs at least two qubits")
        if num_qubits > 14:
            raise BenchmarkError(
                "classical parameter optimisation uses dense statevectors; "
                "instances above 14 qubits are not supported"
            )
        self._num_qubits = int(num_qubits)
        self.model = SKModel.random(num_qubits, seed=seed)
        self._parameters: Optional[Tuple[float, float]] = None
        self._ideal_energy: Optional[float] = None

    # -- ansatz construction (implemented by subclasses) -------------------
    def ansatz(self, gamma: float, beta: float, measure: bool = True) -> Circuit:
        raise NotImplementedError

    def _logical_bit_positions(self) -> List[int]:
        """Position of each logical qubit in the measured bitstring."""
        return list(range(self._num_qubits))

    # -- classical pre-optimisation ----------------------------------------
    def _ansatz_energy(self, gamma: float, beta: float) -> float:
        circuit = self.ansatz(gamma, beta, measure=False)
        state = final_statevector(circuit)
        return self._physical_hamiltonian.expectation_from_statevector(state)

    @cached_property
    def _physical_hamiltonian(self) -> PauliSum:
        """The cost Hamiltonian expressed on the measured qubit positions."""
        positions = self._logical_bit_positions()
        terms = PauliSum()
        for (i, j), w in self.model.weights:
            terms.add_term(w, PauliString.from_dict({positions[i]: "Z", positions[j]: "Z"}))
        return terms

    def optimal_parameters(self) -> Tuple[float, float]:
        """Classically optimised (gamma, beta) minimising the ansatz energy."""
        if self._parameters is None:
            best_value = float("inf")
            best_params = (0.1, 0.1)
            starts = ((0.2, 0.2), (0.8, 0.4), (-0.4, 0.6))
            evaluations = 0
            with get_tracer().span(
                "benchmark.optimize", benchmark=str(self), restarts=len(starts)
            ) as span:
                for start in starts:
                    result = minimize_nelder_mead(
                        lambda p: self._ansatz_energy(p[0], p[1]),
                        start,
                        max_iterations=120,
                        tolerance=1e-5,
                    )
                    evaluations += result.evaluations
                    if result.value < best_value:
                        best_value = result.value
                        best_params = (float(result.parameters[0]), float(result.parameters[1]))
                span.set_attribute("evaluations", evaluations)
            self._parameters = best_params
            self._ideal_energy = best_value
        return self._parameters

    def ideal_energy(self) -> float:
        """<H> of the noiseless ansatz at the optimised parameters."""
        if self._ideal_energy is None:
            self.optimal_parameters()
        assert self._ideal_energy is not None
        return self._ideal_energy

    # -- circuits and scoring ----------------------------------------------
    def _build_circuits(self) -> List[Circuit]:
        gamma, beta = self.optimal_parameters()
        return [self.ansatz(gamma, beta, measure=True)]

    def _build_representative(self) -> Circuit:
        """Representative circuit for feature analysis.

        The feature vector does not depend on the variational parameter
        values, so fixed angles are used here to avoid triggering the
        (comparatively expensive) classical pre-optimisation.
        """
        return self.ansatz(0.5, 0.3, measure=True)

    def measured_energy(self, counts: Counts) -> float:
        """<H> estimated from measured bitstrings (respecting qubit layout)."""
        positions = self._logical_bit_positions()
        total = sum(counts.values())
        if total == 0:
            raise BenchmarkError("empty counts")
        energy = 0.0
        for bitstring, shots in counts.items():
            spins = [1.0 if bitstring[positions[q]] == "0" else -1.0 for q in range(self._num_qubits)]
            value = sum(w * spins[i] * spins[j] for (i, j), w in self.model.weights)
            energy += value * shots
        return energy / total

    def score(self, counts_list: Sequence[Counts]) -> float:
        if len(counts_list) != 1:
            raise BenchmarkError("QAOA benchmarks expect counts for exactly one circuit")
        return _energy_score(self.ideal_energy(), self.measured_energy(counts_list[0]))


@register_family("vanilla_qaoa")
class VanillaQAOABenchmark(_QAOABenchmark):
    """Depth-one QAOA with the textbook ansatz matching the SK model exactly.

    Args:
        num_qubits: Problem size (paper: 4, 5, 7, 11).
        seed: Seed of the random ±1 edge weights.
    """

    name = "vanilla_qaoa"

    def ansatz(self, gamma: float, beta: float, measure: bool = True) -> Circuit:
        circuit = Circuit(self._num_qubits, self._num_qubits, name=f"vanilla_qaoa_{self._num_qubits}")
        for q in range(self._num_qubits):
            circuit.h(q)
        for (i, j), w in self.model.weights:
            circuit.rzz(2.0 * gamma * w, i, j)
        for q in range(self._num_qubits):
            circuit.rx(2.0 * beta, q)
        if measure:
            circuit.measure_all()
        return circuit

    def __str__(self) -> str:
        return f"vanilla_qaoa[{self._num_qubits}q]"


@register_family("zzswap_qaoa")
class ZZSwapQAOABenchmark(_QAOABenchmark):
    """Depth-one QAOA implemented with a linear-depth SWAP network.

    The SWAP network interleaves ``RZZ`` interactions with SWAPs so that every
    pair of logical qubits becomes adjacent exactly once on a line topology.
    After the network the logical qubit order is reversed, which the score
    function accounts for.

    Args:
        num_qubits: Problem size (paper: 4, 5, 7, 11).
        seed: Seed of the random ±1 edge weights.
    """

    name = "zzswap_qaoa"

    def ansatz(self, gamma: float, beta: float, measure: bool = True) -> Circuit:
        circuit = Circuit(self._num_qubits, self._num_qubits, name=f"zzswap_qaoa_{self._num_qubits}")
        for q in range(self._num_qubits):
            circuit.h(q)
        # position -> logical qubit currently stored there
        layout = list(range(self._num_qubits))
        for layer in range(self._num_qubits):
            start = layer % 2
            for position in range(start, self._num_qubits - 1, 2):
                a, b = layout[position], layout[position + 1]
                weight = self.model.weight(a, b)
                circuit.zzswap(2.0 * gamma * weight, position, position + 1)
                layout[position], layout[position + 1] = layout[position + 1], layout[position]
        self._final_layout = list(layout)
        for q in range(self._num_qubits):
            circuit.rx(2.0 * beta, q)
        if measure:
            circuit.measure_all()
        return circuit

    def _logical_bit_positions(self) -> List[int]:
        # A full SWAP network of n layers reverses the qubit order.
        layout = getattr(self, "_final_layout", None)
        if layout is None:
            # Build once to learn the permutation.
            self.ansatz(0.0, 0.0, measure=False)
            layout = self._final_layout
        positions = [0] * self._num_qubits
        for position, logical in enumerate(layout):
            positions[logical] = position
        return positions

    def __str__(self) -> str:
        return f"zzswap_qaoa[{self._num_qubits}q]"
