"""Guards for the columnar (packed) circuit IR.

Three concerns:

* **Losslessness** — the rows ``Circuit.append`` writes read back as the
  same instructions, and ``pack -> unpack`` is an exact round trip,
  exercised over every registered gate arity, measure/reset, narrow and
  wide barriers, and randomized instruction streams.
* **Opcode-table stability** — opcode ids and :data:`OPCODE_TABLE_DIGEST`
  are pinned; a reorder or mid-table insertion (which would silently change
  every persisted fingerprint) fails loudly here instead.
* **One store** — ``Circuit.packed()`` returns one shared immutable object
  until the circuit mutates, survives ``copy()`` without re-packing, and
  re-packs when register sizes or the name drift out from under the cache;
  ``unpack()`` and the counters make no ``Instruction``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    BARRIER_OP,
    Circuit,
    Gate,
    Instruction,
    MEASURE_OP,
    OP_ARITY,
    OP_IS_UNITARY,
    OP_NAMES,
    OP_NUM_PARAMS,
    OPCODE_TABLE_DIGEST,
    OPCODES,
    PackedCircuit,
    QUBIT_SLOTS,
    RESET_OP,
    random_clifford_circuit,
)
from repro.circuits.gates import GATE_DEFINITIONS


def _random_instructions(num_qubits: int, seed: int, *, barriers: bool = True):
    """Instruction stream covering every packing shape, from a seed."""
    rng = np.random.default_rng(seed)
    gate_names = [
        name
        for name, definition in GATE_DEFINITIONS.items()
        if definition.is_unitary and 0 < definition.num_qubits <= num_qubits
    ]
    instructions = []
    for _ in range(int(rng.integers(0, 40))):
        roll = rng.random()
        if roll < 0.70:
            name = gate_names[int(rng.integers(len(gate_names)))]
            definition = GATE_DEFINITIONS[name]
            qubits = rng.choice(num_qubits, size=definition.num_qubits, replace=False)
            params = tuple(float(p) for p in rng.uniform(-np.pi, np.pi, definition.num_params))
            instructions.append(Instruction(Gate(name, params), tuple(qubits)))
        elif roll < 0.82:
            qubit, clbit = int(rng.integers(num_qubits)), int(rng.integers(num_qubits))
            instructions.append(Instruction(Gate("measure"), (qubit,), (clbit,)))
        elif roll < 0.90:
            instructions.append(Instruction(Gate("reset"), (int(rng.integers(num_qubits)),)))
        elif barriers:
            count = int(rng.integers(1, num_qubits + 1))
            qubits = rng.choice(num_qubits, size=count, replace=False)
            instructions.append(Instruction(Gate("barrier"), tuple(qubits)))
    return instructions


def _random_circuit(num_qubits: int, seed: int, *, barriers: bool = True) -> Circuit:
    circuit = Circuit(num_qubits, num_qubits, name=f"rand{seed}")
    return circuit.extend(_random_instructions(num_qubits, seed, barriers=barriers))


# ---------------------------------------------------------------------------
# opcode table stability
# ---------------------------------------------------------------------------
class TestOpcodeTable:
    def test_ids_cover_every_definition_contiguously(self):
        assert list(OPCODES) == list(GATE_DEFINITIONS)
        assert sorted(OPCODES.values()) == list(range(len(GATE_DEFINITIONS)))
        assert OP_NAMES == tuple(GATE_DEFINITIONS)

    def test_pinned_ids(self):
        # These ids are persisted (via the fingerprint digest); moving them is
        # a migration, not a refactor — see docs/ir.md before touching this.
        assert len(OPCODES) == 35
        assert OPCODES["id"] == 0
        assert MEASURE_OP == OPCODES["measure"] == 32
        assert RESET_OP == OPCODES["reset"] == 33
        assert BARRIER_OP == OPCODES["barrier"] == 34

    def test_table_digest_pinned(self):
        # Changing GATE_DEFINITIONS (new gate, reorder, arity change) changes
        # this digest and with it every circuit fingerprint and store key.
        # That is deliberate — but it must be done knowingly: update the pin
        # together with FINGERPRINT_VERSION / KEY_SCHEMA per docs/ir.md.
        assert OPCODE_TABLE_DIGEST == "34919697ea062826f5eeccd514313c5e79cd034e"

    def test_per_opcode_arrays_match_definitions(self):
        for name, definition in GATE_DEFINITIONS.items():
            opcode = OPCODES[name]
            assert OP_ARITY[opcode] == definition.num_qubits
            assert OP_NUM_PARAMS[opcode] == definition.num_params
            assert OP_IS_UNITARY[opcode] == definition.is_unitary
        assert not OP_IS_UNITARY[MEASURE_OP]
        assert not OP_IS_UNITARY[RESET_OP]
        assert not OP_IS_UNITARY[BARRIER_OP]


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_empty_circuit(self):
        circuit = Circuit(3, 2, name="empty")
        packed = circuit.packed()
        assert len(packed) == 0
        assert packed.num_qubits == 3
        assert packed.num_clbits == 2
        assert packed.unpack() == circuit
        assert packed.unpack().name == "empty"

    def test_every_gate_arity_round_trips(self):
        circuit = Circuit(4, 4)
        params_pool = (0.1, -1.25, 2.5)
        for name, definition in GATE_DEFINITIONS.items():
            if not definition.is_unitary or definition.num_qubits == 0:
                continue
            qubits = list(range(definition.num_qubits))
            circuit.add_gate(name, qubits, params_pool[: definition.num_params])
        circuit.measure(0, 3)
        circuit.reset(2)
        circuit.barrier(1, 3)
        packed = circuit.packed()
        rebuilt = packed.unpack()
        assert rebuilt == circuit
        assert [i.gate.params for i in rebuilt] == [i.gate.params for i in circuit]
        assert [i.clbits for i in rebuilt] == [i.clbits for i in circuit]

    def test_wide_barrier_overflows_to_pool(self):
        circuit = Circuit(6)
        circuit.h(0).cx(0, 1)
        circuit.barrier()  # 6 operands > QUBIT_SLOTS
        circuit.barrier(4, 2)  # narrow barrier stays in fixed slots
        packed = circuit.packed()
        assert packed.has_wide_rows
        assert packed.wide_rows.tolist() == [2]
        # the wide row's fixed-width slots are all sentinels
        assert packed.qubits[2].tolist() == [-1] * QUBIT_SLOTS
        assert packed.row_qubits(2) == (0, 1, 2, 3, 4, 5)
        assert packed.row_qubits(3) == (4, 2)
        assert packed.unpack() == circuit

    def test_measure_clbits_preserved(self):
        circuit = Circuit(3, 3)
        circuit.h(0).measure(0, 2).measure(1, 0)
        rebuilt = circuit.packed().unpack()
        assert [i.clbits for i in rebuilt] == [(), (2,), (0,)]

    @given(num_qubits=st.integers(2, 6), seed=st.integers(0, 2000))
    @settings(max_examples=80, deadline=None)
    def test_randomized_round_trip(self, num_qubits, seed):
        written = _random_instructions(num_qubits, seed)
        circuit = Circuit(num_qubits, num_qubits, name=f"rand{seed}").extend(written)
        packed = circuit.packed()
        rebuilt = packed.unpack()
        assert rebuilt == circuit
        assert rebuilt.num_clbits == circuit.num_clbits
        assert rebuilt.name == circuit.name
        # the rows read back as the appended instructions: exact params and
        # clbits (Circuit.__eq__ already compares these, but pin them
        # explicitly — they are the lossy-prone columns)
        assert list(circuit) == written
        for original, copy in zip(written, rebuilt):
            assert copy.gate.params == original.gate.params
            assert copy.qubits == original.qubits
            assert copy.clbits == original.clbits
        # re-appending the view packs byte-identical rows
        repacked = Circuit(num_qubits, num_qubits, name=f"rand{seed}").extend(rebuilt).packed()
        for (label, buffer), (_, other) in zip(packed.buffers(), repacked.buffers()):
            assert buffer.tobytes() == other.tobytes(), label

    def test_clifford_stream_round_trips(self):
        circuit = random_clifford_circuit(5, 60, rng=7).measure_all()
        assert circuit.packed().unpack() == circuit


# ---------------------------------------------------------------------------
# row access
# ---------------------------------------------------------------------------
class TestRowAccess:
    def test_rows_mirror_instructions(self):
        circuit = _random_circuit(5, seed=11)
        circuit.barrier()  # force a wide row
        packed = circuit.packed()
        rows = list(packed.iter_rows())
        assert len(rows) == len(circuit)
        for (row, opcode, qubits, params, clbit), instruction in zip(rows, circuit):
            assert OP_NAMES[opcode] == instruction.gate.name
            assert qubits == instruction.qubits
            assert params == instruction.gate.params
            assert clbit == (instruction.clbits[0] if instruction.clbits else -1)
            assert packed.row_qubits(row) == instruction.qubits
            assert packed.row_params(row) == instruction.gate.params

    def test_buffers_are_read_only(self):
        packed = _random_circuit(4, seed=3).packed()
        for label, buffer in packed.buffers():
            assert not buffer.flags.writeable, label
        with pytest.raises(ValueError):
            packed.opcodes[0] = 1


# ---------------------------------------------------------------------------
# packed() cache semantics
# ---------------------------------------------------------------------------
class TestPackedCache:
    def test_repeated_calls_share_one_object(self):
        circuit = _random_circuit(4, seed=5)
        assert circuit.packed() is circuit.packed()

    def test_append_invalidates(self):
        circuit = Circuit(2)
        circuit.h(0)
        before = circuit.packed()
        circuit.cx(0, 1)
        after = circuit.packed()
        assert after is not before
        assert len(before) == 1 and len(after) == 2
        assert after.unpack() == circuit

    def test_register_growth_invalidates(self):
        # measure_all widens num_clbits; the cache validates register sizes
        # so the stale pack is never served even without an append in between.
        circuit = Circuit(3, 0)
        circuit.h(0)
        stale = circuit.packed()
        assert stale.num_clbits == 0
        circuit.measure_all()
        fresh = circuit.packed()
        assert fresh.num_clbits == 3
        assert fresh.unpack() == circuit

    def test_copy_shares_cached_pack(self):
        circuit = _random_circuit(4, seed=9)
        packed = circuit.packed()
        clone = circuit.copy()
        assert clone.packed() is packed
        # mutating the clone re-packs the clone only
        clone.x(0)
        assert clone.packed() is not packed
        assert circuit.packed() is packed

    def test_name_change_rebuilds(self):
        circuit = _random_circuit(4, seed=13)
        stale = circuit.packed()
        circuit.name = "renamed"
        fresh = circuit.packed()
        assert fresh is not stale
        assert (stale.name, fresh.name) == ("rand13", "renamed")
        for (label, buffer), (_, other) in zip(stale.buffers(), fresh.buffers()):
            assert buffer.tobytes() == other.tobytes(), label

    def test_copy_then_append_leaves_original(self):
        circuit = Circuit(2).h(0)
        clone = circuit.copy()
        clone.cx(0, 1)
        assert [i.name for i in circuit] == ["h"]
        assert len(circuit.packed()) == 1
        assert [i.name for i in clone] == ["h", "cx"]

    def test_slice_is_a_list(self):
        circuit = Circuit(2).h(0).x(1).cx(0, 1).measure_all()
        window = circuit[1:3]
        assert isinstance(window, list)
        assert [i.name for i in window] == ["x", "cx"]


class TestUnpack:
    def test_unpack_wraps_the_pack_and_makes_no_instruction(self, made_instructions):
        circuit = _random_circuit(5, seed=31)
        circuit.barrier()  # a wide row too
        packed = circuit.packed()
        made_instructions.clear()
        rebuilt = packed.unpack()
        assert made_instructions == []
        assert rebuilt.packed() is packed
        assert len(rebuilt) == len(circuit)
        # appending to the wrapper builds a new pack and leaves this one
        rebuilt.h(0)
        assert len(packed) == len(circuit)
        assert len(rebuilt.packed()) == len(circuit) + 1


# ---------------------------------------------------------------------------
# structural counters
# ---------------------------------------------------------------------------
class TestCounters:
    def _recount(self, circuit):
        """Every structural query, recounted by walking the instructions."""
        instructions = list(circuit)
        multi = sum(
            1
            for i in instructions
            if len(i.qubits) >= 2 and not (i.is_measurement() or i.is_reset() or i.is_barrier())
        )
        measures = sum(1 for i in instructions if i.is_measurement())
        resets = sum(1 for i in instructions if i.is_reset())
        ops = {}
        for instruction in instructions:
            if not instruction.is_barrier():
                ops[instruction.name] = ops.get(instruction.name, 0) + 1
        measured = [i.qubits[0] for i in instructions if i.is_measurement()]
        active = {q for i in instructions if not i.is_barrier() for q in i.qubits}
        return {
            "num_two_qubit_gates": multi,
            "num_measurements": measures,
            "num_resets": resets,
            "count_ops": list(ops.items()),
            "num_gates": sum(ops.values()),
            "num_unitary_gates": sum(ops.values()) - measures - resets,
            "measured_qubits": tuple(dict.fromkeys(measured)),
            "active_qubits": tuple(sorted(active)),
        }

    def _queries(self, circuit):
        return {
            "num_two_qubit_gates": circuit.num_two_qubit_gates(),
            "num_measurements": circuit.num_measurements(),
            "num_resets": circuit.num_resets(),
            "count_ops": list(circuit.count_ops().items()),
            "num_gates": circuit.num_gates(),
            "num_unitary_gates": circuit.num_gates(include_measurements=False),
            "measured_qubits": circuit.measured_qubits(),
            "active_qubits": circuit.active_qubits(),
        }

    @given(num_qubits=st.integers(2, 6), seed=st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_tallies_match_recount(self, num_qubits, seed):
        circuit = _random_circuit(num_qubits, seed)
        assert self._queries(circuit) == self._recount(circuit)

    def test_tallies_survive_copy_extend_compose(self):
        circuit = _random_circuit(5, seed=21)
        other = _random_circuit(5, seed=22)
        combined = circuit.copy()
        combined.extend(other.instructions)
        composed = circuit.copy().compose(other)
        for built in (circuit.copy(), combined, composed):
            assert self._queries(built) == self._recount(built)

    def test_counters_make_no_instruction(self, made_instructions):
        # The counters read the pack's columns: no instruction view is built.
        circuit = _random_circuit(5, seed=33)
        made_instructions.clear()
        self._queries(circuit)
        assert made_instructions == []


# ---------------------------------------------------------------------------
# direct PackedCircuit construction (a circuit's rows are not the only producer)
# ---------------------------------------------------------------------------
class TestUnpackFromForeignBuffers:
    def test_hand_built_pack_unpacks(self):
        packed = PackedCircuit(
            num_qubits=2,
            num_clbits=1,
            opcodes=np.array([OPCODES["h"], OPCODES["rzz"], MEASURE_OP], dtype=np.uint16),
            qubits=np.array([[0, -1, -1], [0, 1, -1], [1, -1, -1]], dtype=np.int32),
            clbits=np.array([-1, -1, 0], dtype=np.int32),
            param_offsets=np.array([0, 0, 1, 1], dtype=np.int64),
            params=np.array([0.5], dtype=np.float64),
            wide_rows=np.zeros(0, dtype=np.int64),
            wide_offsets=np.zeros(1, dtype=np.int64),
            wide_qubits=np.zeros(0, dtype=np.int32),
        )
        circuit = packed.unpack()
        expected = Circuit(2, 1).h(0).rzz(0.5, 0, 1).measure(1, 0)
        assert circuit == expected
        assert circuit[1].gate == Gate("rzz", (0.5,))
        assert isinstance(circuit[2], Instruction)
