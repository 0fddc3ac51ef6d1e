"""The Sherrington-Kirkpatrick (SK) spin-glass model.

The QAOA benchmarks target MaxCut on complete graphs with random ±1 edge
weights — exactly the SK model described in Section IV-D of the paper.  An
instance stores the weighted edge list and exposes the cost Hamiltonian
``H = sum_{(i,j) in E} w_ij Z_i Z_j``, classical energy evaluation and brute
force optima for small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import BenchmarkError
from ..paulis import PauliString, PauliSum

__all__ = ["SKModel"]


@dataclass(frozen=True)
class SKModel:
    """A Sherrington-Kirkpatrick instance on ``num_spins`` spins.

    Attributes:
        num_spins: Number of spins (one qubit each).
        weights: Mapping ``(i, j) -> w_ij`` for every pair ``i < j``.
    """

    num_spins: int
    weights: Tuple[Tuple[Tuple[int, int], float], ...]

    # -- constructors -----------------------------------------------------
    @staticmethod
    def random(num_spins: int, seed: int | None = None) -> "SKModel":
        """Random instance with edge weights drawn uniformly from {-1, +1}."""
        if num_spins < 2:
            raise BenchmarkError("the SK model needs at least two spins")
        rng = np.random.default_rng(seed)
        weights = []
        for i, j in itertools.combinations(range(num_spins), 2):
            weights.append(((i, j), float(rng.choice((-1.0, 1.0)))))
        return SKModel(num_spins, tuple(weights))

    # -- queries ----------------------------------------------------------
    @property
    def edges(self) -> List[Tuple[int, int]]:
        return [pair for pair, _weight in self.weights]

    def weight(self, i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        for pair, w in self.weights:
            if pair == key:
                return w
        raise BenchmarkError(f"edge ({i}, {j}) not present")

    def hamiltonian(self) -> PauliSum:
        """The cost Hamiltonian ``sum_ij w_ij Z_i Z_j``."""
        terms = PauliSum()
        for (i, j), w in self.weights:
            terms.add_term(w, PauliString.from_dict({i: "Z", j: "Z"}))
        return terms

    def energy(self, bitstring: str | Sequence[int]) -> float:
        """Classical energy of a spin configuration (bit 0 -> spin +1)."""
        if isinstance(bitstring, str):
            spins = [1.0 if b == "0" else -1.0 for b in bitstring]
        else:
            spins = [1.0 if int(b) == 0 else -1.0 for b in bitstring]
        if len(spins) != self.num_spins:
            raise BenchmarkError("configuration length does not match the model size")
        return float(sum(w * spins[i] * spins[j] for (i, j), w in self.weights))

    def cut_value(self, bitstring: str | Sequence[int]) -> float:
        """MaxCut objective: total weight of edges crossing the partition."""
        if isinstance(bitstring, str):
            bits = [int(b) for b in bitstring]
        else:
            bits = [int(b) for b in bitstring]
        return float(sum(w for (i, j), w in self.weights if bits[i] != bits[j]))

    def brute_force_minimum(self) -> Tuple[float, str]:
        """Exhaustively find the minimum-energy configuration (small instances)."""
        if self.num_spins > 20:
            raise BenchmarkError("brute force limited to 20 spins")
        best_energy = float("inf")
        best_bits = "0" * self.num_spins
        for assignment in itertools.product("01", repeat=self.num_spins):
            bits = "".join(assignment)
            energy = self.energy(bits)
            if energy < best_energy:
                best_energy = energy
                best_bits = bits
        return best_energy, best_bits

    def expectation_from_counts(self, counts) -> float:
        """⟨H⟩ estimated from computational-basis measurement counts."""
        total = sum(counts.values())
        if total == 0:
            raise BenchmarkError("empty counts")
        value = 0.0
        for bitstring, shots in counts.items():
            value += self.energy(bitstring) * shots
        return value / total
