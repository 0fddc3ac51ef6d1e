"""The one-dimensional transverse-field Ising model (TFIM).

The TFIM is used twice in the paper: the VQE benchmark finds its ground
state energy and the Hamiltonian-simulation benchmark Trotterises its time
evolution under a time-dependent transverse field.  The model on ``N`` spins
is

    H = - sum_i ( J * Z_i Z_{i+1}  +  h_i * X_i )

with either open or periodic boundary conditions.  The 1D TFIM is exactly
solvable (Pfeuty 1970), which is what makes it attractive as a *scalable*
benchmark: the reference energy never requires exponential classical work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import BenchmarkError
from ..paulis import PauliString, PauliSum

__all__ = [
    "TransverseFieldIsing",
    "tfim_hamiltonian",
    "tfim_exact_ground_energy",
    "tfim_free_fermion_ground_energy",
]


@dataclass(frozen=True)
class TransverseFieldIsing:
    """A concrete TFIM instance.

    Attributes:
        num_spins: Number of spins (qubits).
        coupling: Nearest-neighbour ZZ coupling strength ``J``.
        field: Transverse field strength ``h``.
        periodic: Whether spin ``N-1`` couples back to spin 0.
    """

    num_spins: int
    coupling: float = 1.0
    field: float = 1.0
    periodic: bool = False

    def __post_init__(self) -> None:
        if self.num_spins < 2:
            raise BenchmarkError("the TFIM needs at least two spins")

    def bonds(self) -> List[Tuple[int, int]]:
        pairs = [(i, i + 1) for i in range(self.num_spins - 1)]
        if self.periodic and self.num_spins > 2:
            pairs.append((self.num_spins - 1, 0))
        return pairs

    def hamiltonian(self) -> PauliSum:
        """The Hamiltonian as a :class:`PauliSum` (energy convention: minus signs).

        Its ZZ terms followed by its X terms, term for term, so the two
        measurement groups of :meth:`zz_terms` and :meth:`x_terms` cover it.
        """
        return self.zz_terms() + self.x_terms()

    def zz_terms(self) -> PauliSum:
        """Only the ZZ part (measured in the computational basis)."""
        terms = PauliSum()
        for a, b in self.bonds():
            terms.add_term(-self.coupling, PauliString.from_dict({a: "Z", b: "Z"}))
        return terms

    def x_terms(self) -> PauliSum:
        """Only the transverse-field part (measured in the X basis)."""
        terms = PauliSum()
        for i in range(self.num_spins):
            terms.add_term(-self.field, PauliString.from_dict({i: "X"}))
        return terms

    def exact_ground_energy(self) -> float:
        """Reference ground energy (dense diagonalisation up to 14 spins)."""
        return tfim_exact_ground_energy(
            self.num_spins, self.coupling, self.field, periodic=self.periodic
        )


def tfim_hamiltonian(
    num_spins: int, coupling: float = 1.0, field: float = 1.0, periodic: bool = False
) -> PauliSum:
    """Convenience wrapper returning the TFIM Hamiltonian as a PauliSum."""
    return TransverseFieldIsing(num_spins, coupling, field, periodic).hamiltonian()


def tfim_exact_ground_energy(
    num_spins: int, coupling: float = 1.0, field: float = 1.0, periodic: bool = False
) -> float:
    """Ground-state energy by dense diagonalisation (practical to ~14 spins)."""
    if num_spins > 14:
        raise BenchmarkError(
            "dense diagonalisation limited to 14 spins; use "
            "tfim_free_fermion_ground_energy for larger systems"
        )
    matrix = TransverseFieldIsing(num_spins, coupling, field, periodic).hamiltonian().matrix(
        num_spins
    )
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(eigenvalues[0])


def tfim_free_fermion_ground_energy(
    num_spins: int, coupling: float = 1.0, field: float = 1.0
) -> float:
    """Ground energy of the *periodic* chain from the free-fermion solution.

    After a Jordan-Wigner transformation the periodic TFIM becomes free
    fermions with single-particle energies
    ``eps(k) = 2 * sqrt(J^2 + h^2 - 2 J h cos k)`` and ground energy
    ``-1/2 * sum_k eps(k)`` over the antiperiodic momenta
    ``k = (2m + 1) pi / N``.  This scales linearly with the number of spins,
    demonstrating the "efficiently verifiable" property the paper requires of
    scalable benchmarks.
    """
    if num_spins < 2:
        raise BenchmarkError("the TFIM needs at least two spins")
    total = 0.0
    for m in range(num_spins):
        k = (2 * m + 1) * math.pi / num_spins
        total += math.sqrt(
            coupling**2 + field**2 - 2.0 * coupling * field * math.cos(k)
        )
    return -total
