"""The row writer: construction and every rewrite write packed rows directly.

Builders (``add_gate`` and the named gates, ``measure``, ``reset``,
``barrier``), ``compose``, ``inverse``, ZNE folding and QASM export read and
write rows through the opcode tables, so none of them makes a ``Gate`` or an
``Instruction``; direct ``Gate(...)`` and ``Instruction(...)`` construction
still validates through the same checkers.  These tests pin that, every
error type and message (in the order the checks run), and the sign of a
zero parameter through every rewrite.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import BARRIER, MEASURE, Circuit, Gate, Instruction
from repro.circuits.columnar import OP_IS_UNITARY, PackedBuilder
from repro.exceptions import CircuitError, GateError, MitigationError
from repro.mitigation import ZNEMitigator, fold_global, fold_two_qubit_gates
from repro.suite import get_registry
from repro.suite.scenarios import figure2_specs

#: (case, make, error type, message): every construction, compose, inverse
#: and fold error, with cases that pin which check runs first.
ERROR_CASES = [
    ("unknown gate", lambda: Circuit(2).add_gate("foo", [0]), GateError, "unknown gate 'foo'"),
    (
        "unknown gate before parameter count",
        lambda: Circuit(2).add_gate("foo", [0, 0], [1.0]),
        GateError,
        "unknown gate 'foo'",
    ),
    (
        "too few parameters",
        lambda: Circuit(2).add_gate("rx", [0]),
        GateError,
        "gate 'rx' expects 1 parameters, got 0",
    ),
    (
        "too many parameters",
        lambda: Circuit(2).add_gate("h", [0], [0.1]),
        GateError,
        "gate 'h' expects 0 parameters, got 1",
    ),
    (
        "parameter count before duplicates",
        lambda: Circuit(2).add_gate("rzz", [0, 0]),
        GateError,
        "gate 'rzz' expects 1 parameters, got 0",
    ),
    ("gate: unknown name", lambda: Gate("foo"), GateError, "unknown gate 'foo'"),
    (
        "gate: parameter count",
        lambda: Gate("u", (0.1,)),
        GateError,
        "gate 'u' expects 3 parameters, got 1",
    ),
    (
        "duplicate qubits",
        lambda: Circuit(2).cx(1, 1),
        CircuitError,
        "duplicate qubits in instruction: (1, 1)",
    ),
    (
        "duplicates before arity",
        lambda: Circuit(3).add_gate("cx", [0, 0, 1]),
        CircuitError,
        "duplicate qubits in instruction: (0, 0, 1)",
    ),
    (
        "duplicates before range",
        lambda: Circuit(2).swap(5, 5),
        CircuitError,
        "duplicate qubits in instruction: (5, 5)",
    ),
    (
        "too few qubits",
        lambda: Circuit(3).add_gate("ccx", [0, 1]),
        CircuitError,
        "gate 'ccx' acts on 3 qubits, got 2",
    ),
    (
        "too many qubits",
        lambda: Circuit(3).add_gate("h", [0, 1]),
        CircuitError,
        "gate 'h' acts on 1 qubits, got 2",
    ),
    (
        "arity before range",
        lambda: Circuit(2).add_gate("cx", [7]),
        CircuitError,
        "gate 'cx' acts on 2 qubits, got 1",
    ),
    (
        "qubit out of range",
        lambda: Circuit(2).h(2),
        CircuitError,
        "qubit 2 out of range for a 2-qubit circuit",
    ),
    (
        "negative qubit",
        lambda: Circuit(2).rz(0.5, -1),
        CircuitError,
        "qubit -1 out of range for a 2-qubit circuit",
    ),
    (
        "measured qubit out of range",
        lambda: Circuit(2).measure(2, 0),
        CircuitError,
        "qubit 2 out of range for a 2-qubit circuit",
    ),
    (
        "classical bit out of range",
        lambda: Circuit(2, 1).measure(0, 1),
        CircuitError,
        "classical bit 1 out of range (1 available)",
    ),
    (
        "reset out of range",
        lambda: Circuit(2).reset(3),
        CircuitError,
        "qubit 3 out of range for a 2-qubit circuit",
    ),
    (
        "barrier out of range",
        lambda: Circuit(2).barrier(0, 2),
        CircuitError,
        "qubit 2 out of range for a 2-qubit circuit",
    ),
    (
        "barrier duplicates",
        lambda: Circuit(2).barrier(1, 1),
        CircuitError,
        "duplicate qubits in instruction: (1, 1)",
    ),
    (
        "instruction: measure without a clbit",
        lambda: Instruction(MEASURE, (0,)),
        CircuitError,
        "measure requires exactly one classical bit",
    ),
    (
        "instruction: gate with a clbit",
        lambda: Instruction(Gate("h"), (0,), (0,)),
        CircuitError,
        "gate 'h' cannot address classical bits",
    ),
    (
        "instruction: barrier with a clbit",
        lambda: Instruction(BARRIER, (0,), (0,)),
        CircuitError,
        "barrier cannot address classical bits",
    ),
    (
        "appended qubit out of range",
        lambda: Circuit(2).append(Instruction(Gate("x"), (4,))),
        CircuitError,
        "qubit 4 out of range for a 2-qubit circuit",
    ),
    (
        "appended clbit out of range",
        lambda: Circuit(1, 1).append(Instruction(MEASURE, (0,), (3,))),
        CircuitError,
        "classical bit 3 out of range (1 available)",
    ),
    (
        "compose does not fit",
        lambda: Circuit(1).compose(Circuit(2).h(1)),
        CircuitError,
        "composed circuit does not fit",
    ),
    (
        "compose map length",
        lambda: Circuit(3).compose(Circuit(2), qubits=[0]),
        CircuitError,
        "qubit mapping length mismatch",
    ),
    (
        "compose maps onto one qubit",
        lambda: Circuit(3).compose(Circuit(2).cx(0, 1), qubits=[2, 2]),
        CircuitError,
        "duplicate qubits in instruction: (2, 2)",
    ),
    (
        "compose maps out of range",
        lambda: Circuit(2).compose(Circuit(1).h(0), qubits=[5]),
        CircuitError,
        "qubit 5 out of range for a 2-qubit circuit",
    ),
    (
        "compose clbit out of range",
        lambda: Circuit(2, 0).compose(Circuit(1, 1).measure(0, 0)),
        CircuitError,
        "classical bit 0 out of range (0 available)",
    ),
    (
        "inverse of a measurement",
        lambda: Circuit(1).h(0).measure(0, 0).inverse(),
        CircuitError,
        "cannot invert a circuit containing measure/reset",
    ),
    (
        "inverse of a reset",
        lambda: Circuit(1).reset(0).h(0).inverse(),
        CircuitError,
        "cannot invert a circuit containing measure/reset",
    ),
    (
        "inverse of iswap",
        lambda: Circuit(2).iswap(0, 1).inverse(),
        GateError,
        "iswap inverse is not a standard gate; decompose first",
    ),
    (
        "inverse walks from the last row",
        lambda: Circuit(2).zzswap(0.3, 0, 1).iswap(0, 1).inverse(),
        GateError,
        "iswap inverse is not a standard gate; decompose first",
    ),
    (
        "gate inverse of measure",
        lambda: MEASURE.inverse(),
        GateError,
        "operation 'measure' has no inverse",
    ),
    (
        "fold of a mid-circuit measurement",
        lambda: fold_global(Circuit(2).h(0).measure(0, 0).x(0).measure(0, 1), 3),
        MitigationError,
        "cannot fold a circuit with mid-circuit measurement",
    ),
    (
        "fold of a reset",
        lambda: fold_two_qubit_gates(Circuit(1).h(0).reset(0).measure(0, 0), 3),
        MitigationError,
        "cannot fold a circuit containing reset",
    ),
    (
        "fold checks a reset first when it comes first",
        lambda: fold_global(Circuit(2).reset(1).measure(0, 0).h(0), 3),
        MitigationError,
        "cannot fold a circuit containing reset",
    ),
    (
        "fold checks a measurement first when it comes first",
        lambda: fold_two_qubit_gates(Circuit(2).measure(0, 0).h(0).reset(1), 3),
        MitigationError,
        "cannot fold a circuit with mid-circuit measurement",
    ),
    (
        "fold scale below one",
        lambda: fold_global(Circuit(1).h(0), 0.5),
        MitigationError,
        "fold scale factors must be >= 1, got 0.5",
    ),
    (
        "global fold of iswap",
        lambda: fold_global(Circuit(2).zzswap(0.2, 0, 1).iswap(0, 1), 3),
        GateError,
        "iswap inverse is not a standard gate; decompose first",
    ),
    (
        "partial global fold reaching zzswap",
        lambda: fold_global(Circuit(2).h(0).x(1).zzswap(0.2, 0, 1), 1.5),
        GateError,
        "zzswap inverse is not a standard gate; decompose first",
    ),
    (
        "local fold inverts every multi-qubit gate, in row order",
        lambda: fold_two_qubit_gates(Circuit(2).zzswap(0.2, 0, 1).iswap(0, 1), 1),
        GateError,
        "zzswap inverse is not a standard gate; decompose first",
    ),
    (
        "achieved scales of a reset",
        lambda: ZNEMitigator().achieved_scales(Circuit(1).h(0).reset(0)),
        MitigationError,
        "cannot fold a circuit containing reset",
    ),
    (
        "achieved scales of a mid-circuit measurement",
        lambda: ZNEMitigator(folding="local").achieved_scales(
            Circuit(2).measure(0, 0).cx(0, 1)
        ),
        MitigationError,
        "cannot fold a circuit with mid-circuit measurement",
    ),
]


@pytest.mark.parametrize(
    "make, error, message",
    [case[1:] for case in ERROR_CASES],
    ids=[case[0] for case in ERROR_CASES],
)
def test_error_type_and_message(make, error, message):
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_global_fold_without_whole_folds_inverts_nothing():
    """Scale 1, and a partial fold whose tail avoids them, fold iswap and zzswap."""
    circuit = Circuit(2, 2).iswap(0, 1).zzswap(0.2, 0, 1).h(0).x(1).measure_all()
    folded, achieved = fold_global(circuit, 1)
    assert achieved == 1.0
    assert folded.packed().opcodes.tolist() == circuit.packed().opcodes.tolist()
    folded, achieved = fold_global(circuit, 1.5)
    assert achieved == 1.5
    names = [instruction.name for instruction in folded]
    assert names == ["iswap", "zzswap", "h", "x", "x", "x", "measure", "measure"]


def _signs(circuit: Circuit):
    return np.signbit(circuit.packed().params).tolist()


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus", "minus"])
def test_rewrites_keep_the_sign_of_a_zero(zero):
    """What a process viewed earlier does not change what a rewrite writes."""
    Circuit(2).rz(-zero, 0).rzz(-zero, 0, 1).instructions  # views the other zero first
    circuit = Circuit(2, 2).rz(zero, 0).rzz(zero, 0, 1).h(0).measure(0, 0)
    z = math.copysign(1.0, zero) < 0  # the sign bit of the circuit's zeros

    assert _signs(circuit) == [z, z]
    assert _signs(fold_global(circuit, 3)[0]) == [z, z, not z, not z, z, z]
    assert _signs(fold_two_qubit_gates(circuit, 3)[0]) == [z, z, not z, z]
    assert _signs(Circuit(2, 2).compose(circuit, qubits=[1, 0])) == [z, z]
    assert _signs(Circuit(2).rz(zero, 0).rzz(zero, 0, 1).inverse()) == [not z, not z]
    assert _signs(Circuit(2, 2).extend(circuit)) == [z, z]


def test_view_gates_hold_the_row_parameters():
    circuit = Circuit(1).rz(0.0, 0).rz(-0.0, 0)
    first, second = circuit.instructions
    assert not np.signbit(first.params[0])
    assert np.signbit(second.params[0])
    assert first.gate == Gate("rz", (0.0,)) and first.gate.num_qubits == 1


def test_rows_all_the_way_make_no_gate_and_no_instruction(made_instructions, monkeypatch):
    """Construction and every rewrite write rows without a Gate or Instruction."""
    validated = []
    post_init = Gate.__post_init__

    def counting_post_init(gate):
        validated.append(gate.name)
        post_init(gate)

    monkeypatch.setattr(Gate, "__post_init__", counting_post_init)
    registry = get_registry()
    circuits = [
        circuit for spec in figure2_specs(small=True) for circuit in registry.create(spec).circuits()
    ]
    folds = 0
    for circuit in circuits:
        width = circuit.num_qubits
        Circuit(width + 1, circuit.num_clbits).compose(circuit, qubits=list(range(1, width + 1)))
        circuit.to_qasm()
        if "zzswap" in circuit.count_ops():  # no inverse rule
            continue
        packed = circuit.packed()
        body = PackedBuilder.from_packed(packed).keep(OP_IS_UNITARY[packed.opcodes]).build()
        body.unpack().inverse()
        for scale in (1, 1.5, 3):
            try:
                fold_global(circuit, scale)
                fold_two_qubit_gates(circuit, scale)
            except MitigationError:  # mid-circuit measurement or reset
                break
            folds += 2
    assert len(circuits) >= 10 and folds >= 30
    assert not made_instructions
    assert not validated
