"""Quantum circuit intermediate representation.

Public API:

* :class:`Circuit`, :class:`Instruction` — the circuit IR.
* :class:`Gate`, :func:`gate_matrix` — gate definitions and unitaries.
* :meth:`Circuit.depth` / :meth:`Circuit.two_qubit_critical_path` — ASAP
  depth and the critical path, read off the packed profile.
* :func:`circuit_to_qasm`, :func:`circuit_from_qasm` — OpenQASM 2.0 round trip.
* :class:`PackedCircuit`, :class:`PackedBuilder` — the columnar (packed)
  form every ``Circuit`` stores its rows in (see ``docs/ir.md``).
* Random circuit generators in :mod:`repro.circuits.random_circuits`.
"""

from .circuit import Circuit, Instruction
from .columnar import (
    BARRIER_OP,
    MEASURE_OP,
    OP_ARITY,
    OP_IS_UNITARY,
    OP_NAMES,
    OP_NUM_PARAMS,
    OPCODE_TABLE_DIGEST,
    OPCODES,
    PackedBuilder,
    PackedCircuit,
    QUBIT_SLOTS,
    RESET_OP,
)
from .gates import (
    BARRIER,
    GATE_DEFINITIONS,
    Gate,
    GateDefinition,
    MEASURE,
    RESET,
    gate_matrix,
    is_known_gate,
    standard_gate,
)
from .qasm import circuit_from_qasm, circuit_to_qasm
from .random_circuits import (
    ghz_ladder,
    quantum_volume_circuit,
    random_clifford_circuit,
    random_layered_circuit,
    random_single_qubit_layer,
)

__all__ = [
    "Circuit",
    "Instruction",
    "Gate",
    "GateDefinition",
    "GATE_DEFINITIONS",
    "MEASURE",
    "RESET",
    "BARRIER",
    "gate_matrix",
    "is_known_gate",
    "standard_gate",
    "PackedBuilder",
    "PackedCircuit",
    "OPCODES",
    "OP_NAMES",
    "OP_ARITY",
    "OP_NUM_PARAMS",
    "OP_IS_UNITARY",
    "OPCODE_TABLE_DIGEST",
    "MEASURE_OP",
    "RESET_OP",
    "BARRIER_OP",
    "QUBIT_SLOTS",
    "circuit_to_qasm",
    "circuit_from_qasm",
    "ghz_ladder",
    "quantum_volume_circuit",
    "random_clifford_circuit",
    "random_layered_circuit",
    "random_single_qubit_layer",
]
