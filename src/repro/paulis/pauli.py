"""Pauli string and Pauli sum algebra.

Observables in this library — the Mermin operator, the transverse-field
Ising Hamiltonian, the Sherrington-Kirkpatrick cost function — are all
expressed as real-weighted sums of Pauli strings.  A :class:`PauliString`
maps qubit indices to one of ``X``, ``Y``, ``Z`` (identity everywhere else);
a :class:`PauliSum` is a list of weighted strings.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..exceptions import AnalysisError

__all__ = ["PauliString", "PauliTerm", "PauliSum"]

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Single-qubit Pauli products: (left, right) -> (phase, result)
_PAULI_PRODUCT = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators.

    The internal representation is a sorted tuple of ``(qubit, letter)``
    pairs; qubits not mentioned carry the identity.
    """

    paulis: Tuple[Tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        cleaned = []
        seen = set()
        for qubit, letter in self.paulis:
            letter = letter.upper()
            if letter == "I":
                continue
            if letter not in ("X", "Y", "Z"):
                raise AnalysisError(f"invalid Pauli letter {letter!r}")
            if qubit in seen:
                raise AnalysisError(f"duplicate qubit {qubit} in Pauli string")
            seen.add(qubit)
            cleaned.append((int(qubit), letter))
        object.__setattr__(self, "paulis", tuple(sorted(cleaned)))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def from_dict(mapping: Mapping[int, str]) -> "PauliString":
        return PauliString(tuple(mapping.items()))

    @staticmethod
    def from_label(label: str) -> "PauliString":
        """Build from a dense label, qubit 0 first: ``"XZI"`` = X0 Z1."""
        return PauliString(tuple((i, letter) for i, letter in enumerate(label)))

    @staticmethod
    def identity() -> "PauliString":
        return PauliString(())

    def __iter__(self) -> Iterator[Tuple[int, str]]:
        return iter(self.paulis)

    def __len__(self) -> int:
        return len(self.paulis)

    def __bool__(self) -> bool:
        return bool(self.paulis)

    # -- queries ----------------------------------------------------------
    @property
    def support(self) -> Tuple[int, ...]:
        """Qubits this string acts non-trivially on."""
        return tuple(q for q, _ in self.paulis)

    def letter(self, qubit: int) -> str:
        for q, letter in self.paulis:
            if q == qubit:
                return letter
        return "I"

    def weight(self) -> int:
        """Number of non-identity factors."""
        return len(self.paulis)

    def to_label(self, num_qubits: int) -> str:
        """Dense label with qubit 0 as the left-most character."""
        letters = ["I"] * num_qubits
        for qubit, letter in self.paulis:
            if qubit >= num_qubits:
                raise AnalysisError("Pauli string does not fit in num_qubits")
            letters[qubit] = letter
        return "".join(letters)

    def commutes_qubit_wise(self, other: "PauliString") -> bool:
        """True when on every shared qubit the letters are equal."""
        mine = dict(self.paulis)
        for qubit, letter in other.paulis:
            if qubit in mine and mine[qubit] != letter:
                return False
        return True

    def commutes(self, other: "PauliString") -> bool:
        """True when the two strings commute as operators."""
        mine = dict(self.paulis)
        anticommuting = 0
        for qubit, letter in other.paulis:
            if qubit in mine and mine[qubit] != letter:
                anticommuting += 1
        return anticommuting % 2 == 0

    def __mul__(self, other: "PauliString") -> Tuple[complex, "PauliString"]:
        """Operator product; returns ``(phase, string)``."""
        mine = dict(self.paulis)
        theirs = dict(other.paulis)
        phase: complex = 1.0
        result: Dict[int, str] = {}
        for qubit in set(mine) | set(theirs):
            p, letter = _PAULI_PRODUCT[(mine.get(qubit, "I"), theirs.get(qubit, "I"))]
            phase *= p
            if letter != "I":
                result[qubit] = letter
        return phase, PauliString.from_dict(result)

    # -- conversion -------------------------------------------------------
    def matrix(self, num_qubits: int) -> np.ndarray:
        """Dense matrix in the library's little-endian qubit ordering.

        Qubit 0 is the least significant bit of the state index, so the
        Kronecker product runs from the highest qubit down to qubit 0.
        """
        out = np.array([[1.0]], dtype=complex)
        for letter in reversed(self.to_label(num_qubits)):
            out = np.kron(out, _PAULI_MATRICES[letter])
        return out

    def measurement_basis_circuit(self, num_qubits: int) -> Circuit:
        """Circuit rotating this string's eigenbasis onto the Z basis.

        Appending this circuit before Z-basis measurement lets the string's
        expectation value be estimated from bitstring parities.
        """
        circuit = Circuit(num_qubits)
        for qubit, letter in self.paulis:
            if letter == "X":
                circuit.h(qubit)
            elif letter == "Y":
                circuit.sdg(qubit)
                circuit.h(qubit)
        return circuit

    def expectation_from_counts(self, counts: Mapping[str, int]) -> float:
        """Expectation value from Z-basis counts taken in this string's basis.

        ``counts`` maps bitstrings (qubit 0 left-most) to shot counts; the
        measurement circuit from :meth:`measurement_basis_circuit` must have
        been applied before measuring.
        """
        if not counts:
            raise AnalysisError("empty counts")
        total = sum(counts.values())
        support = self.support
        value = 0.0
        for bitstring, shots in counts.items():
            parity = sum(int(bitstring[qubit]) for qubit in support) % 2
            value += (1.0 if parity == 0 else -1.0) * shots
        return value / total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.paulis:
            return "I"
        return " ".join(f"{letter}{qubit}" for qubit, letter in self.paulis)


#: ``(-i)**num_y`` for ``num_y % 4``.
_Y_PHASES = (1.0 + 0.0j, -1j, -1.0 + 0.0j, 1j)


@lru_cache(maxsize=1024)
def _pauli_action(pauli: PauliString, num_qubits: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(source, phase)`` with ``(P psi)[i] == phase[i] * psi[source[i]]``.

    Memoised, so the support check costs nothing per call.  The arrays are
    shared by every caller and must not be mutated.
    """
    if pauli.paulis and pauli.paulis[-1][0] >= num_qubits:
        raise AnalysisError(f"Pauli string {pauli} acts beyond {num_qubits} qubits")
    index = np.arange(1 << num_qubits)
    x_mask = num_y = 0
    parity = np.zeros_like(index)
    for qubit, letter in pauli:
        if letter != "Z":
            x_mask |= 1 << qubit
        if letter != "X":
            parity ^= (index >> qubit) & 1
        num_y += letter == "Y"
    phase = _Y_PHASES[num_y % 4] * (1 - 2 * parity)
    return index ^ x_mask, phase


@dataclass(frozen=True)
class PauliTerm:
    """A real- or complex-weighted Pauli string."""

    coefficient: complex
    pauli: PauliString

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.coefficient} * {self.pauli}"


class PauliSum:
    """A weighted sum of Pauli strings, i.e. a Hermitian observable."""

    def __init__(self, terms: Iterable[PauliTerm] | None = None) -> None:
        self._terms: List[PauliTerm] = list(terms or [])

    # -- constructors -----------------------------------------------------
    def add_term(self, coefficient: complex, pauli: PauliString) -> "PauliSum":
        self._terms.append(PauliTerm(coefficient, pauli))
        return self

    @property
    def terms(self) -> Tuple[PauliTerm, ...]:
        return tuple(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self._terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(list(self._terms) + list(other._terms))

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum([PauliTerm(term.coefficient * scalar, term.pauli) for term in self._terms])

    __rmul__ = __mul__

    def simplify(self, tolerance: float = 1e-12) -> "PauliSum":
        """Combine identical strings and drop negligible coefficients."""
        combined: Dict[PauliString, complex] = {}
        for term in self._terms:
            combined[term.pauli] = combined.get(term.pauli, 0.0) + term.coefficient
        return PauliSum(
            [
                PauliTerm(coeff, pauli)
                for pauli, coeff in combined.items()
                if abs(coeff) > tolerance
            ]
        )

    def num_qubits(self) -> int:
        """1 + the largest qubit index appearing in any term (0 for empty sums)."""
        highest = -1
        for term in self._terms:
            if term.pauli.support:
                highest = max(highest, max(term.pauli.support))
        return highest + 1

    # -- numerics ---------------------------------------------------------
    def matrix(self, num_qubits: int | None = None) -> np.ndarray:
        """Dense matrix (exponential in the number of qubits)."""
        n = num_qubits if num_qubits is not None else self.num_qubits()
        dim = 2**n
        out = np.zeros((dim, dim), dtype=complex)
        for term in self._terms:
            out += term.coefficient * term.pauli.matrix(n)
        return out

    def expectation_from_statevector(self, statevector: np.ndarray) -> float:
        """⟨psi|H|psi⟩ for a dense statevector (little-endian indexing).

        Each term acts as a bitmask, never as a matrix: a Pauli string with
        X/Y letters on ``x_mask`` and Z/Y letters on ``zy_mask`` maps
        amplitude ``i`` to ``phase[i] * psi[i ^ x_mask]``, where ``phase[i]``
        is ``(-i)**num_y`` times ``-1`` when ``i & zy_mask`` has odd parity.
        Every factor is ±1 or ±i, so each product is exact and the image
        equals the dense ``matrix @ psi``; with the dense evaluation's
        per-term ``np.vdot`` and accumulation order, the result is
        bit-identical to it at O(2**n) per term instead of O(4**n).  The
        ``(source, phase)`` pair is memoised per ``(PauliString, num_qubits)``.

        Raises:
            AnalysisError: when the statevector length is not a power of
                two, or a term acts on a qubit the state does not have.
        """
        statevector = np.asarray(statevector)
        dim = len(statevector)
        if dim < 1 or dim & (dim - 1):
            raise AnalysisError(f"statevector length {dim} is not a power of two")
        num_qubits = dim.bit_length() - 1
        value = 0.0 + 0.0j
        for term in self._terms:
            source, phase = _pauli_action(term.pauli, num_qubits)
            value += term.coefficient * np.vdot(statevector, phase * statevector[source])
        return float(value.real)

    def group_commuting(self) -> List[List[PauliTerm]]:
        """Greedy grouping of terms into qubit-wise commuting sets.

        Every group can be estimated from a single measurement circuit
        because all strings in the group share a local measurement basis.
        """
        groups: List[List[PauliTerm]] = []
        for term in self._terms:
            placed = False
            for group in groups:
                if all(term.pauli.commutes_qubit_wise(other.pauli) for other in group):
                    group.append(term)
                    placed = True
                    break
            if not placed:
                groups.append([term])
        return groups

    def measurement_circuits(self, num_qubits: int) -> List[Tuple[Circuit, List[PauliTerm]]]:
        """One basis-change + measure-all circuit per commuting group."""
        circuits = []
        for group in self.group_commuting():
            basis: Dict[int, str] = {}
            for term in group:
                for qubit, letter in term.pauli:
                    basis[qubit] = letter
            circuit = PauliString.from_dict(basis).measurement_basis_circuit(num_qubits)
            circuit.measure_all()
            circuits.append((circuit, group))
        return circuits

    def expectation_from_group_counts(
        self, grouped_counts: Sequence[Tuple[Sequence[PauliTerm], Mapping[str, int]]]
    ) -> float:
        """Combine per-group counts into the full expectation value.

        Each group's terms are estimated on that group's counts.

        Raises:
            AnalysisError: unless the groups' terms, as a multiset of
                ``(coefficient, PauliString)``, are exactly this sum's terms.
        """
        grouped_terms = Counter(term for group, _counts in grouped_counts for term in group)
        if grouped_terms != Counter(self._terms):
            raise AnalysisError("the grouped terms are not exactly this sum's terms")
        value = 0.0
        for group, counts in grouped_counts:
            for term in group:
                value += float(np.real(term.coefficient)) * term.pauli.expectation_from_counts(
                    counts
                )
        return value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " + ".join(str(term) for term in self._terms) or "0"
