"""The quantum circuit intermediate representation.

A :class:`Circuit` is an ordered sequence of operations over a fixed number
of qubits and classical bits, stored as the rows of its packed form
(:class:`~repro.circuits.columnar.PackedCircuit`).  The class exposes a
fluent builder API (``circuit.h(0).cx(0, 1).measure(1, 0)``) plus the
structural queries the SupermarQ feature vectors need: depth, gate counts,
interaction graph and the two-qubit critical path.  Builders and rewrites
write rows through the opcode tables; :class:`Instruction` objects are a
read-only view of the rows, made on first use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from ..exceptions import CircuitError
from .columnar import (
    BARRIER_OP,
    MEASURE_OP,
    OP_ARITY,
    OP_IS_UNITARY,
    OP_NAMES,
    OPCODES,
    RESET_OP,
    PackedBuilder,
    PackedCircuit,
)
from .gates import Gate, checked_params, inverse_of

if TYPE_CHECKING:  # pragma: no cover - networkx loads only inside interaction_graph()
    import networkx as nx

__all__ = ["Instruction", "Circuit"]


def checked_operands(
    opcode: int, qubits: Iterable[int], clbits: Iterable[int] = ()
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """One row's ``(qubits, clbits)`` as int tuples, after the operand rules.

    In this order: distinct qubits; the opcode's arity (any for a barrier);
    one classical bit on a measurement and none on any other row.  Raises
    :class:`CircuitError` for the first rule broken.
    """
    qubits = tuple(map(int, qubits))
    clbits = tuple(map(int, clbits))
    if len(set(qubits)) != len(qubits):
        raise CircuitError(f"duplicate qubits in instruction: {qubits}")
    if opcode == BARRIER_OP:
        if clbits:
            raise CircuitError("barrier cannot address classical bits")
        return qubits, clbits
    name, expected = OP_NAMES[opcode], OP_ARITY[opcode]
    if len(qubits) != expected:
        raise CircuitError(f"gate {name!r} acts on {expected} qubits, got {len(qubits)}")
    if opcode == MEASURE_OP:
        if len(clbits) != 1:
            raise CircuitError("measure requires exactly one classical bit")
    elif clbits:
        raise CircuitError(f"gate {name!r} cannot address classical bits")
    return qubits, clbits


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
        qubits, clbits = checked_operands(OPCODES[self.gate.name], self.qubits, self.clbits)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "clbits", clbits)

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


def _instructions_of(packed: PackedCircuit) -> Tuple[Instruction, ...]:
    """One :class:`Instruction` per row of ``packed``, in row order.

    The rows passed the row writer's checks when they were written, so the
    view skips validation: its gates and instructions are made with
    ``__new__``, and each gate holds its row's own parameter tuple.
    """
    new_instruction, new_gate = Instruction.__new__, Gate.__new__
    set_attr = object.__setattr__
    view = []
    for _row, opcode, qubits, params, clbit in packed.iter_rows():
        gate = new_gate(Gate)
        set_attr(gate, "name", OP_NAMES[opcode])
        set_attr(gate, "params", params)
        instruction = new_instruction(Instruction)
        set_attr(instruction, "gate", gate)
        set_attr(instruction, "qubits", qubits)
        set_attr(instruction, "clbits", (clbit,) if clbit >= 0 else ())
        view.append(instruction)
    return tuple(view)


class Circuit:
    """A quantum circuit over ``num_qubits`` qubits and ``num_clbits`` bits.

    The builder methods return ``self`` so calls can be chained::

        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()

    The rows live in one store, the packed form (see :meth:`packed`);
    :attr:`instructions`, iteration, indexing and ``==`` read a tuple of
    :class:`Instruction` objects made from the pack on first use.
    """

    def __init__(self, num_qubits: int, num_clbits: int | None = None, name: str = "") -> None:
        if num_qubits < 0:
            raise CircuitError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits) if num_clbits is not None else int(num_qubits)
        self.name = name
        # The one store: rows, frozen into `_packed` on demand; `_view` is
        # the instruction tuple made from that pack on first use.
        self._rows = PackedBuilder(self.num_qubits, self.num_clbits, name)
        self._packed: PackedCircuit | None = None
        self._view: Tuple[Instruction, ...] | None = None

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        view = self._view
        if view is None:
            view = self._view = _instructions_of(self.packed())
        return view

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self.instructions[index])
        return self.instructions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self.instructions == other.instructions
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
        new = self.packed().unpack()  # the pack is immutable, safe to share
        new._view = self._view
        return new

    def _write(
        self, opcode: int, qubits: Iterable[int], params: Tuple = (), clbits: Iterable[int] = ()
    ) -> "Circuit":
        """The row writer: check one row's operands and register bounds, then write it."""
        qubits, clbits = checked_operands(opcode, qubits, clbits)
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(f"qubit {q} out of range for a {self.num_qubits}-qubit circuit")
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise CircuitError(f"classical bit {c} out of range ({self.num_clbits} available)")
        self._rows.append(opcode, qubits, params, clbits[0] if clbits else -1)
        self._packed = None
        self._view = None
        return self

    def append(self, instruction: Instruction) -> "Circuit":
        """Append a fully formed instruction to the circuit (as one row)."""
        gate = instruction.gate
        return self._write(OPCODES[gate.name], instruction.qubits, gate.params, instruction.clbits)

    def add_gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> "Circuit":
        """Append a gate by name, e.g. ``circuit.add_gate('rzz', [0, 1], [0.3])``."""
        params = checked_params(name, params)
        return self._write(OPCODES[name], qubits, params)

    def extend(self, instructions: Iterable[Instruction]) -> "Circuit":
        for instruction in instructions:
            self.append(instruction)
        return self

    def compose(self, other: "Circuit", qubits: Sequence[int] | None = None) -> "Circuit":
        """Append another circuit's rows, optionally remapping its qubits.

        Args:
            other: Circuit whose rows are appended.
            qubits: Target qubit for each of ``other``'s qubits.  Defaults to
                the identity mapping.
        """
        if qubits is None:
            if other.num_qubits > self.num_qubits:
                raise CircuitError("composed circuit does not fit")
            targets: Sequence[int] = range(other.num_qubits)
        else:
            if len(qubits) != other.num_qubits:
                raise CircuitError("qubit mapping length mismatch")
            targets = tuple(qubits)
        for _row, opcode, operands, params, clbit in other.packed().iter_rows():
            mapped = [targets[q] for q in operands]
            self._write(opcode, mapped, params, (clbit,) if clbit >= 0 else ())
        return self

    def inverse(self) -> "Circuit":
        """The inverse circuit (unitary circuits only): rows reversed, gates inverted."""
        rows = PackedBuilder(self.num_qubits, self.num_clbits, self.name + "_dg")
        for _row, opcode, qubits, params, _clbit in reversed(list(self.packed().iter_rows())):
            if opcode != BARRIER_OP:
                if not OP_IS_UNITARY[opcode]:
                    raise CircuitError("cannot invert a circuit containing measure/reset")
                name, params = inverse_of(OP_NAMES[opcode], params)
                opcode = OPCODES[name]
            rows.append(opcode, qubits, params)
        return rows.build().unpack()

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
        return self._write(MEASURE_OP, (qubit,), (), (clbit,))

    def measure_all(self) -> "Circuit":
        """Measure every qubit into the classical bit of the same index."""
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    def reset(self, qubit: int) -> "Circuit":
        return self._write(RESET_OP, (qubit,))

    def barrier(self, *qubits: int) -> "Circuit":
        targets = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        return self._write(BARRIER_OP, targets)

    # ------------------------------------------------------------------
    # columnar form
    # ------------------------------------------------------------------
    def packed(self) -> PackedCircuit:
        """The circuit's rows as a frozen :class:`PackedCircuit` (cached).

        :meth:`append` drops the cache.  A late change of ``num_qubits``,
        ``num_clbits`` (``measure_all`` on a narrow register) or ``name``
        rebuilds it too, so a stale pack is never served.  Each build
        becomes the base of the row store, so no row is held twice.
        """
        packed = self._packed
        if (
            packed is not None
            and packed.num_qubits == self.num_qubits
            and packed.num_clbits == self.num_clbits
            and packed.name == self.name
        ):
            return packed
        rows = self._rows
        rows.num_qubits, rows.num_clbits, rows.name = self.num_qubits, self.num_clbits, self.name
        packed = self._packed = rows.build()
        self._rows = PackedBuilder.from_packed(packed)
        return packed

    # ------------------------------------------------------------------
    # structural queries (read off the pack's columns)
    # ------------------------------------------------------------------
    def _count(self, opcode: int) -> int:
        return int(np.count_nonzero(self.packed().opcodes == opcode))

    def count_ops(self) -> Dict[str, int]:
        """Histogram of operation names (barriers excluded), in first-use order."""
        counts = Counter(self.packed().opcodes.tolist())
        counts.pop(BARRIER_OP, None)
        return {OP_NAMES[opcode]: count for opcode, count in counts.items()}

    def num_gates(self, include_measurements: bool = True) -> int:
        """Total number of operations, excluding barriers."""
        total = len(self) - self._count(BARRIER_OP)
        if not include_measurements:
            total -= self.num_measurements() + self.num_resets()
        return total

    def num_two_qubit_gates(self) -> int:
        """Number of unitary operations touching two or more qubits."""
        packed = self.packed()
        return int(np.count_nonzero(OP_IS_UNITARY[packed.opcodes] & (packed.qubits[:, 1] >= 0)))

    def num_measurements(self) -> int:
        return self._count(MEASURE_OP)

    def num_resets(self) -> int:
        return self._count(RESET_OP)

    def measured_qubits(self) -> Tuple[int, ...]:
        """Qubits measured at least once, in first-measurement order."""
        packed = self.packed()
        return tuple(dict.fromkeys(packed.qubits[packed.opcodes == MEASURE_OP, 0].tolist()))

    def active_qubits(self) -> Tuple[int, ...]:
        """Qubits touched by at least one non-barrier operation, sorted."""
        packed = self.packed()
        operands = packed.qubits[packed.opcodes != BARRIER_OP]
        return tuple(np.unique(operands[operands >= 0]).tolist())

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
