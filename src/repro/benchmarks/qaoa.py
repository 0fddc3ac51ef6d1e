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

from functools import cached_property
from typing import List, Sequence, Tuple

from ..circuits import Circuit
from ..exceptions import BenchmarkError
from ..hamiltonians import SKModel
from ..optimize import minimize_nelder_mead
from ..paulis import PauliString, PauliSum
from ..simulation import Counts, final_statevector
from ..suite.registry import register_family
from .base import VariationalBenchmark

__all__ = ["VanillaQAOABenchmark", "ZZSwapQAOABenchmark"]

#: The ``(gamma, beta)`` starts of the classical optimisation.
_STARTS = ((0.2, 0.2), (0.8, 0.4), (-0.4, 0.6))


class _QAOABenchmark(VariationalBenchmark):
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

    # -- ansatz construction (implemented by subclasses) -------------------
    def ansatz(self, gamma: float, beta: float, measure: bool = True) -> Circuit:
        raise NotImplementedError

    def _logical_bit_positions(self) -> List[int]:
        """Position of each logical qubit in the measured bitstring."""
        return list(range(self._num_qubits))

    # -- classical pre-optimisation ----------------------------------------
    def _energy(self, parameters: Sequence[float]) -> float:
        gamma, beta = parameters
        state = final_statevector(self.ansatz(gamma, beta, measure=False))
        return self._physical_hamiltonian.expectation_from_statevector(state)

    @cached_property
    def _physical_hamiltonian(self) -> PauliSum:
        """The cost Hamiltonian expressed on the measured qubit positions."""
        positions = self._logical_bit_positions()
        terms = PauliSum()
        for (i, j), w in self.model.weights:
            terms.add_term(w, PauliString.from_dict({positions[i]: "Z", positions[j]: "Z"}))
        return terms

    def _optimize(self) -> Tuple[Tuple[float, float], float]:
        """The three fixed starts, 120 iterations each."""
        (gamma, beta), value = self._best_of_restarts(
            minimize_nelder_mead, _STARTS, 120, 1e-5, (0.1, 0.1)
        )
        return (float(gamma), float(beta)), value

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
        """<H> estimated from measured bitstrings, each read in logical qubit order."""
        positions = self._logical_bit_positions()
        return self.model.expectation_from_counts(
            {"".join(key[p] for p in positions): shots for key, shots in counts.items()}
        )

    def score(self, counts_list: Sequence[Counts]) -> float:
        if len(counts_list) != 1:
            raise BenchmarkError("QAOA benchmarks expect counts for exactly one circuit")
        return self.energy_score(self.ideal_energy(), self.measured_energy(counts_list[0]))


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
        for q in range(self._num_qubits):
            circuit.rx(2.0 * beta, q)
        if measure:
            circuit.measure_all()
        return circuit

    def _logical_bit_positions(self) -> List[int]:
        # A full SWAP network of n layers reverses the qubit order.
        return list(range(self._num_qubits - 1, -1, -1))

    def __str__(self) -> str:
        return f"zzswap_qaoa[{self._num_qubits}q]"
