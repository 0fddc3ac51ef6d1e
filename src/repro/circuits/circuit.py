"""The quantum circuit intermediate representation.

A :class:`Circuit` is an ordered list of :class:`Instruction` objects over a
fixed number of qubits and classical bits.  The class exposes a fluent
builder API (``circuit.h(0).cx(0, 1).measure(1, 0)``) plus the structural
queries the SupermarQ feature vectors need: depth, gate counts, interaction
graph and the two-qubit critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..exceptions import CircuitError
from .columnar import PackedCircuit, pack_circuit
from .gates import BARRIER, GATE_DEFINITIONS, Gate, MEASURE, NON_UNITARY_NAMES, RESET

if TYPE_CHECKING:  # pragma: no cover - networkx loads only inside interaction_graph()
    import networkx as nx

__all__ = ["Instruction", "Circuit"]


@dataclass(frozen=True)
class Instruction:
    """A gate (or measure/reset/barrier) applied to concrete qubits.

    Attributes:
        gate: The operation being applied.
        qubits: The qubit indices the operation acts on, in gate order.
        clbits: Classical bit indices written by a measurement (empty otherwise).
    """

    gate: Gate
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        qubits = tuple(int(q) for q in self.qubits)
        clbits = tuple(int(c) for c in self.clbits)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "clbits", clbits)
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubits in instruction: {qubits}")
        name = self.gate.name
        if name == "barrier":
            if clbits:
                raise CircuitError("barrier cannot address classical bits")
            return
        expected = self.gate.num_qubits
        if len(qubits) != expected:
            raise CircuitError(
                f"gate {name!r} acts on {expected} qubits, got {len(qubits)}"
            )
        if name == "measure":
            if len(clbits) != 1:
                raise CircuitError("measure requires exactly one classical bit")
        elif clbits:
            raise CircuitError(f"gate {name!r} cannot address classical bits")

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def params(self) -> Tuple[float, ...]:
        return self.gate.params

    def is_unitary(self) -> bool:
        return self.gate.is_unitary()

    def is_measurement(self) -> bool:
        return self.gate.name == "measure"

    def is_reset(self) -> bool:
        return self.gate.name == "reset"

    def is_barrier(self) -> bool:
        return self.gate.name == "barrier"

    def is_two_qubit(self) -> bool:
        """True for unitary operations touching exactly two qubits."""
        return self.is_unitary() and len(self.qubits) == 2

    def is_multi_qubit(self) -> bool:
        """True for unitary operations touching two or more qubits."""
        return self.is_unitary() and len(self.qubits) >= 2

    def remap(self, mapping: Dict[int, int]) -> "Instruction":
        """Return a copy with qubit indices translated through ``mapping``."""
        return Instruction(
            self.gate,
            tuple(mapping[q] for q in self.qubits),
            self.clbits,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        bits = ", ".join(str(q) for q in self.qubits)
        if self.clbits:
            bits += " -> " + ", ".join(str(c) for c in self.clbits)
        return f"{self.gate} {bits}"


class Circuit:
    """A quantum circuit over ``num_qubits`` qubits and ``num_clbits`` bits.

    The builder methods return ``self`` so calls can be chained::

        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
    """

    def __init__(self, num_qubits: int, num_clbits: int | None = None, name: str = "") -> None:
        if num_qubits < 0:
            raise CircuitError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits) if num_clbits is not None else int(num_qubits)
        self.name = name
        self._instructions: List[Instruction] = []
        # Tallies maintained on append so the counter queries are O(1).
        self._num_multi_qubit = 0
        self._num_measurements = 0
        self._num_resets = 0
        self._packed: PackedCircuit | None = None

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index):
        return self._instructions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self._instructions == other._instructions
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"clbits={self.num_clbits}, instructions={len(self)})"
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def copy(self) -> "Circuit":
        new = Circuit(self.num_qubits, self.num_clbits, self.name)
        new._instructions = list(self._instructions)
        new._num_multi_qubit = self._num_multi_qubit
        new._num_measurements = self._num_measurements
        new._num_resets = self._num_resets
        new._packed = self._packed  # immutable, safe to share
        return new

    def _check_qubits(self, qubits: Sequence[int]) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(
                    f"qubit {q} out of range for a {self.num_qubits}-qubit circuit"
                )

    def _check_clbits(self, clbits: Sequence[int]) -> None:
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise CircuitError(
                    f"classical bit {c} out of range ({self.num_clbits} available)"
                )

    def append(self, instruction: Instruction) -> "Circuit":
        """Append a fully formed instruction to the circuit."""
        self._check_qubits(instruction.qubits)
        self._check_clbits(instruction.clbits)
        self._instructions.append(instruction)
        name = instruction.gate.name
        if name == "measure":
            self._num_measurements += 1
        elif name == "reset":
            self._num_resets += 1
        elif len(instruction.qubits) >= 2 and name not in NON_UNITARY_NAMES:
            self._num_multi_qubit += 1
        self._packed = None
        return self

    def add_gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> "Circuit":
        """Append a gate by name, e.g. ``circuit.add_gate('rzz', [0, 1], [0.3])``."""
        return self.append(Instruction(Gate(name, tuple(params)), tuple(qubits)))

    def extend(self, instructions: Iterable[Instruction]) -> "Circuit":
        for instruction in instructions:
            self.append(instruction)
        return self

    def compose(self, other: "Circuit", qubits: Sequence[int] | None = None) -> "Circuit":
        """Append another circuit, optionally remapping its qubits.

        Args:
            other: Circuit whose instructions are appended.
            qubits: Target qubit for each of ``other``'s qubits.  Defaults to
                the identity mapping.
        """
        if qubits is None:
            if other.num_qubits > self.num_qubits:
                raise CircuitError("composed circuit does not fit")
            mapping = {q: q for q in range(other.num_qubits)}
        else:
            if len(qubits) != other.num_qubits:
                raise CircuitError("qubit mapping length mismatch")
            mapping = {i: q for i, q in enumerate(qubits)}
        for instruction in other:
            self.append(instruction.remap(mapping))
        return self

    def inverse(self) -> "Circuit":
        """Return the inverse circuit (unitary circuits only)."""
        new = Circuit(self.num_qubits, self.num_clbits, self.name + "_dg")
        for instruction in reversed(self._instructions):
            if instruction.is_barrier():
                new.append(instruction)
                continue
            if not instruction.is_unitary():
                raise CircuitError("cannot invert a circuit containing measure/reset")
            new.append(Instruction(instruction.gate.inverse(), instruction.qubits))
        return new

    # ------------------------------------------------------------------
    # builder API (one short method per standard gate)
    # ------------------------------------------------------------------
    def i(self, q: int) -> "Circuit":
        return self.add_gate("id", [q])

    def x(self, q: int) -> "Circuit":
        return self.add_gate("x", [q])

    def y(self, q: int) -> "Circuit":
        return self.add_gate("y", [q])

    def z(self, q: int) -> "Circuit":
        return self.add_gate("z", [q])

    def h(self, q: int) -> "Circuit":
        return self.add_gate("h", [q])

    def s(self, q: int) -> "Circuit":
        return self.add_gate("s", [q])

    def sdg(self, q: int) -> "Circuit":
        return self.add_gate("sdg", [q])

    def t(self, q: int) -> "Circuit":
        return self.add_gate("t", [q])

    def tdg(self, q: int) -> "Circuit":
        return self.add_gate("tdg", [q])

    def sx(self, q: int) -> "Circuit":
        return self.add_gate("sx", [q])

    def sxdg(self, q: int) -> "Circuit":
        return self.add_gate("sxdg", [q])

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add_gate("rx", [q], [theta])

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add_gate("ry", [q], [theta])

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.add_gate("rz", [q], [theta])

    def p(self, theta: float, q: int) -> "Circuit":
        return self.add_gate("p", [q], [theta])

    def u(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.add_gate("u", [q], [theta, phi, lam])

    def r(self, theta: float, phi: float, q: int) -> "Circuit":
        return self.add_gate("r", [q], [theta, phi])

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add_gate("cx", [control, target])

    def cy(self, control: int, target: int) -> "Circuit":
        return self.add_gate("cy", [control, target])

    def cz(self, control: int, target: int) -> "Circuit":
        return self.add_gate("cz", [control, target])

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add_gate("swap", [a, b])

    def iswap(self, a: int, b: int) -> "Circuit":
        return self.add_gate("iswap", [a, b])

    def cp(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add_gate("cp", [control, target], [theta])

    def crx(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add_gate("crx", [control, target], [theta])

    def cry(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add_gate("cry", [control, target], [theta])

    def crz(self, theta: float, control: int, target: int) -> "Circuit":
        return self.add_gate("crz", [control, target], [theta])

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add_gate("rzz", [a, b], [theta])

    def rxx(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add_gate("rxx", [a, b], [theta])

    def ryy(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add_gate("ryy", [a, b], [theta])

    def zzswap(self, theta: float, a: int, b: int) -> "Circuit":
        return self.add_gate("zzswap", [a, b], [theta])

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.add_gate("ccx", [c1, c2, target])

    def cswap(self, control: int, a: int, b: int) -> "Circuit":
        return self.add_gate("cswap", [control, a, b])

    def measure(self, qubit: int, clbit: int) -> "Circuit":
        return self.append(Instruction(MEASURE, (qubit,), (clbit,)))

    def measure_all(self) -> "Circuit":
        """Measure every qubit into the classical bit of the same index."""
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    def reset(self, qubit: int) -> "Circuit":
        return self.append(Instruction(RESET, (qubit,)))

    def barrier(self, *qubits: int) -> "Circuit":
        targets = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        return self.append(Instruction(BARRIER, targets))

    # ------------------------------------------------------------------
    # columnar form
    # ------------------------------------------------------------------
    def packed(self) -> PackedCircuit:
        """The circuit lowered to its columnar form (cached, lossless).

        The cache is invalidated by :meth:`append` (the single mutation
        funnel every builder goes through) and additionally validated
        against the instruction count and register sizes, so late
        ``num_clbits`` growth (``measure_all`` on a narrow register) or
        direct attribute mutation never serves a stale pack.
        """
        cached = self._packed
        if (
            cached is not None
            and len(cached) == len(self._instructions)
            and cached.num_qubits == self.num_qubits
            and cached.num_clbits == self.num_clbits
            and cached.name == self.name
        ):
            return cached
        packed = pack_circuit(self)
        self._packed = packed
        return packed

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def count_ops(self) -> Dict[str, int]:
        """Histogram of operation names (barriers excluded)."""
        counts: Dict[str, int] = {}
        for instruction in self._instructions:
            if instruction.is_barrier():
                continue
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    def num_gates(self, include_measurements: bool = True) -> int:
        """Total number of operations, excluding barriers."""
        total = 0
        for instruction in self._instructions:
            if instruction.is_barrier():
                continue
            if not include_measurements and (instruction.is_measurement() or instruction.is_reset()):
                continue
            total += 1
        return total

    def num_two_qubit_gates(self) -> int:
        """Number of unitary operations touching two or more qubits (O(1))."""
        return self._num_multi_qubit

    def num_measurements(self) -> int:
        return self._num_measurements

    def num_resets(self) -> int:
        return self._num_resets

    def measured_qubits(self) -> Tuple[int, ...]:
        """Qubits measured at least once, in first-measurement order."""
        seen: List[int] = []
        for instruction in self._instructions:
            if instruction.is_measurement() and instruction.qubits[0] not in seen:
                seen.append(instruction.qubits[0])
        return tuple(seen)

    def active_qubits(self) -> Tuple[int, ...]:
        """Qubits touched by at least one non-barrier operation, sorted."""
        active = set()
        for instruction in self._instructions:
            if instruction.is_barrier():
                continue
            active.update(instruction.qubits)
        return tuple(sorted(active))

    def interaction_graph(self) -> "nx.Graph":
        """Graph with one node per qubit and an edge per interacting pair.

        Every pair of qubits that share at least one multi-qubit unitary is
        connected.  This is the graph the Program Communication feature is
        defined on (Eq. 1 of the paper); built from the packed form
        (:meth:`~repro.circuits.columnar.PackedCircuit.interaction_graph`).
        """
        return self.packed().interaction_graph()

    def depth(self) -> int:
        """Circuit depth: the number of moments, read off the packed profile."""
        from ..features.features import packed_profile

        return packed_profile(self.packed()).depth

    def two_qubit_critical_path(self) -> Tuple[int, int]:
        """Return ``(two_qubit_gates_on_critical_path, critical_path_length)``.

        The critical path is a longest chain of dependent operations; among
        all longest chains the one with the most two-qubit interactions is
        reported, matching the Critical-Depth feature (Eq. 2).  Its length
        counts operations and can be shorter than :meth:`depth`: a barrier
        delays later operations without chaining them, so
        ``Circuit(2).h(0).barrier(0, 1).h(1)`` has depth 2 and critical-path
        length 1.
        """
        from ..features.features import packed_profile

        profile = packed_profile(self.packed())
        return profile.critical_two_qubit, profile.critical_length

    def unitary(self) -> np.ndarray:
        """Dense unitary of the circuit (small circuits only, no measurements)."""
        from ..simulation.statevector import circuit_unitary

        return circuit_unitary(self)

    # ------------------------------------------------------------------
    # interchange formats
    # ------------------------------------------------------------------
    def to_qasm(self) -> str:
        """Serialize to OpenQASM 2.0."""
        from .qasm import circuit_to_qasm

        return circuit_to_qasm(self)

    @staticmethod
    def from_qasm(text: str) -> "Circuit":
        """Parse an OpenQASM 2.0 program produced by :meth:`to_qasm`."""
        from .qasm import circuit_from_qasm

        return circuit_from_qasm(text)
