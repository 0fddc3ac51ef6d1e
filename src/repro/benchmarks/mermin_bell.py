"""The Mermin-Bell benchmark (Section IV-B).

A GHZ-like state ``(|00...0> + i |11...1>)/sqrt(2)`` is prepared and the
expectation value of the Mermin operator

    M = (1/2i) [ prod_j (X_j + i Y_j)  -  prod_j (X_j - i Y_j) ]

is estimated.  Quantum mechanics allows ``<M> = 2**(n-1)`` for this state
while local hidden-variable theories are bounded by
``2**((n - (n mod 2)) / 2)``.  The benchmark score is
``(<M> + 2**(n-1)) / 2**n`` so 1.0 corresponds to the full quantum value and
0.5 to ``<M> = 0``.

Implementation note: the paper rotates the state into the joint eigenbasis of
the Mermin operator so all terms are measured in a single circuit.  This
reproduction instead expands ``M`` into its ``2**(n-1)`` Pauli terms and
measures each term's basis separately (the terms are full-weight X/Y strings
so they are not qubit-wise commuting).  The expectation value being estimated
— and therefore the score — is identical; only the number of circuit
executions differs.  DESIGN.md records this substitution.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from ..circuits import Circuit
from ..exceptions import BenchmarkError
from ..paulis import PauliString, PauliSum, PauliTerm
from ..simulation import Counts
from ..suite.registry import register_family
from .base import Benchmark

__all__ = ["MerminBellBenchmark", "mermin_operator", "classical_bound", "quantum_bound"]


def mermin_operator(num_qubits: int) -> PauliSum:
    """The Mermin operator expanded into Pauli strings with ±1 coefficients.

    Expanding the product form shows the surviving terms are exactly the
    X/Y strings carrying an odd number of Y factors, with sign
    ``(-1)**((num_Y - 1) / 2)``.
    """
    if num_qubits < 2:
        raise BenchmarkError("the Mermin operator needs at least two qubits")
    operator = PauliSum()
    for y_count in range(1, num_qubits + 1, 2):
        sign = (-1.0) ** ((y_count - 1) // 2)
        for y_positions in itertools.combinations(range(num_qubits), y_count):
            letters = {q: ("Y" if q in y_positions else "X") for q in range(num_qubits)}
            operator.add_term(sign, PauliString.from_dict(letters))
    return operator


def quantum_bound(num_qubits: int) -> float:
    """Maximum Mermin expectation allowed by quantum mechanics: ``2**(n-1)``."""
    return float(2 ** (num_qubits - 1))


def classical_bound(num_qubits: int) -> float:
    """Local hidden-variable bound ``2**((n - (n mod 2)) / 2)`` (Eq. 9)."""
    return float(2 ** ((num_qubits - (num_qubits % 2)) // 2))


@register_family("mermin_bell")
class MerminBellBenchmark(Benchmark):
    """Mermin inequality violation benchmark.

    Args:
        num_qubits: Number of qubits (the paper evaluates 3 and 4).
    """

    name = "mermin_bell"

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 2:
            raise BenchmarkError("the Mermin-Bell benchmark needs at least two qubits")
        if num_qubits > 7:
            raise BenchmarkError(
                "the Pauli-expansion measurement strategy grows as 2**(n-1) circuits; "
                "instances above 7 qubits are not supported"
            )
        self._num_qubits = int(num_qubits)
        self._operator = mermin_operator(num_qubits)
        self._groups: List[List[PauliTerm]] = self._operator.group_commuting()

    # ------------------------------------------------------------------
    def _state_preparation(self) -> Circuit:
        """Prepare ``(|00...0> + i |11...1>)/sqrt(2)``."""
        circuit = Circuit(self._num_qubits, self._num_qubits)
        circuit.h(0)
        circuit.s(0)
        for qubit in range(self._num_qubits - 1):
            circuit.cx(qubit, qubit + 1)
        return circuit

    def _build_circuits(self) -> List[Circuit]:
        circuits: List[Circuit] = []
        for index, group in enumerate(self._groups):
            circuit = self._state_preparation()
            circuit.name = f"mermin_bell_{self._num_qubits}_basis{index}"
            # All terms in a group share the same local basis by construction.
            basis = {}
            for term in group:
                for qubit, letter in term.pauli:
                    basis[qubit] = letter
            rotation = PauliString.from_dict(basis).measurement_basis_circuit(self._num_qubits)
            circuit.compose(rotation)
            circuit.measure_all()
            circuits.append(circuit)
        return circuits

    def mermin_expectation(self, counts_list: Sequence[Counts]) -> float:
        """Estimate ``<M>`` by combining the per-group counts."""
        if len(counts_list) != len(self._groups):
            raise BenchmarkError(
                f"expected counts for {len(self._groups)} circuits, got {len(counts_list)}"
            )
        return self._operator.expectation_from_group_counts(list(zip(self._groups, counts_list)))

    def score(self, counts_list: Sequence[Counts]) -> float:
        expectation = self.mermin_expectation(counts_list)
        n = self._num_qubits
        return self._clip_score((expectation + quantum_bound(n)) / float(2**n))

    def classical_limit_score(self) -> float:
        """The score value corresponding to the local hidden-variable bound."""
        n = self._num_qubits
        return (classical_bound(n) + quantum_bound(n)) / float(2**n)

    def __str__(self) -> str:
        return f"mermin_bell[{self._num_qubits}q]"
