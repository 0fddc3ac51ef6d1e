"""Packed optimization passes against the object-walk oracle.

Four concerns:

* **Builder byte-parity** — :class:`~repro.circuits.columnar.PackedBuilder`
  outputs (round-trip, filtered, appended) are byte-identical to packing the
  equivalent instruction sequence from scratch, so circuit fingerprints
  hashed over the buffers can never tell the two construction paths apart.
* **Randomized pass parity** — hypothesis-driven instruction streams flow
  through every optimization pass (and the full five-pass chain) and must
  produce the gate sequences of the object walks in ``tests/oracle.py``.
* **Preset/family parity** — every preset level (0–3) compiles the Fig. 2
  benchmark families to the same circuit as the same pipeline with its
  optimization passes swapped for the oracle walks.
* **Wide rows and reporting** — >3-operand barriers are handled by the
  packed passes through the wide pool, the ``transpiler.pass`` spans agree
  with the pass records, and a pipeline run packs at most once and unpacks
  exactly once.
"""

import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks import figure2_benchmarks
from repro.circuits import Circuit, PackedCircuit
from repro.circuits.columnar import PackedBuilder
from repro.devices import get_device
from repro.telemetry import configure_tracing, get_tracer
from repro.transpiler import (
    CancelAdjacentInverses,
    CommutingTwoQubitCancellation,
    DropNegligible,
    FuseSingleQubitRuns,
    MergeRotations,
    PassManager,
    preset_pipeline,
    transpile,
)

DEVICE = "IBM-Guadalupe-16Q"


def _optimization_passes():
    return [
        DropNegligible(),
        MergeRotations(),
        CancelAdjacentInverses(),
        CommutingTwoQubitCancellation(),
        FuseSingleQubitRuns(),
    ]


def _stream(circuit: Circuit):
    return [
        (i.gate.name, i.gate.params, i.qubits, i.clbits) for i in circuit.instructions
    ]


def _random_circuit(num_qubits: int, seed: int) -> Circuit:
    """Optimization-relevant stream: rotations, inverses, cx/cz, barriers."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits, num_qubits, name=f"rand{seed}")
    one_q = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "sxdg", "i"]
    rotations = ["rx", "ry", "rz", "p"]
    for _ in range(int(rng.integers(5, 90))):
        roll = rng.random()
        if roll < 0.30:
            getattr(circuit, one_q[int(rng.integers(len(one_q)))])(
                int(rng.integers(num_qubits))
            )
        elif roll < 0.55:
            angle = [0.0, 1e-14, 0.3, -0.7, float(rng.uniform(-6, 6))][
                int(rng.integers(5))
            ]
            getattr(circuit, rotations[int(rng.integers(len(rotations)))])(
                angle, int(rng.integers(num_qubits))
            )
        elif roll < 0.78:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            (circuit.cx if rng.random() < 0.5 else circuit.cz)(a, b)
        elif roll < 0.84:
            circuit.u(
                float(rng.uniform(-3, 3)),
                float(rng.uniform(-3, 3)),
                float(rng.uniform(-3, 3)),
                int(rng.integers(num_qubits)),
            )
        elif roll < 0.90:
            q = int(rng.integers(num_qubits))
            circuit.measure(q, q)
        elif roll < 0.93:
            circuit.reset(int(rng.integers(num_qubits)))
        else:
            count = int(rng.integers(0, num_qubits + 1))
            operands = rng.choice(num_qubits, size=count, replace=False)
            circuit.barrier(*(int(q) for q in operands))
    return circuit


def _assert_buffers_identical(a: PackedCircuit, b: PackedCircuit) -> None:
    for (label_a, buffer_a), (label_b, buffer_b) in zip(a.buffers(), b.buffers()):
        assert label_a == label_b
        assert buffer_a.dtype == buffer_b.dtype
        assert buffer_a.tobytes() == buffer_b.tobytes(), f"{label_a} buffers differ"


class TestPackedBuilder:
    def test_round_trip_is_byte_identical(self):
        packed = _random_circuit(5, 123).packed()
        _assert_buffers_identical(packed, PackedBuilder.from_packed(packed).build())

    def test_append_matches_fresh_pack(self):
        circuit = _random_circuit(6, 77)
        packed = circuit.packed()
        builder = PackedBuilder(packed.num_qubits, packed.num_clbits, packed.name)
        for _row, opcode, qubits, params, clbit in packed.iter_rows():
            builder.append(opcode, qubits, params, clbit)
        _assert_buffers_identical(packed, builder.build())

    def test_keep_compacts_pools_like_a_fresh_pack(self):
        circuit = Circuit(6, 6, name="widekeep")
        circuit.rx(0.5, 0).barrier(0, 1, 2, 3, 4).rz(0.25, 1)
        circuit.barrier(1, 2, 3, 4, 5).u(0.1, 0.2, 0.3, 2).measure(0, 0)
        packed = circuit.packed()
        mask = np.array([True, False, True, True, False, True])
        filtered = PackedBuilder.from_packed(packed).keep(mask).build()
        survivors = [
            instr for keep, instr in zip(mask, circuit.instructions) if keep
        ]
        reference = Circuit(6, 6, name="widekeep")
        for instruction in survivors:
            reference.append(instruction)
        _assert_buffers_identical(reference.packed(), filtered)

    def test_keep_rejects_appended_rows_and_bad_shapes(self):
        packed = _random_circuit(4, 9).packed()
        builder = PackedBuilder.from_packed(packed)
        with pytest.raises(ValueError):
            builder.keep(np.ones(len(packed) + 1, dtype=bool))
        builder.append(0, (0,))
        with pytest.raises(ValueError):
            builder.keep(np.ones(len(packed), dtype=bool))


class TestRandomizedParity:
    @given(num_qubits=st.integers(2, 6), seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_each_pass_matches_object_walk(self, num_qubits, seed):
        circuit = _random_circuit(num_qubits, seed)
        for pass_ in _optimization_passes():
            reference = oracle.object_pipeline([pass_])
            packed_manager = PassManager([pass_])
            assert _stream(reference.run(circuit)) == _stream(
                packed_manager.run(circuit)
            ), pass_.name

    @given(num_qubits=st.integers(2, 6), seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_full_chain_matches_object_walk(self, num_qubits, seed):
        circuit = _random_circuit(num_qubits, seed)
        reference = oracle.object_pipeline(_optimization_passes())
        packed_manager = PassManager(_optimization_passes())
        assert _stream(reference.run(circuit)) == _stream(packed_manager.run(circuit))
        assert _stream(oracle.walk_chain(_optimization_passes(), circuit)) == _stream(
            packed_manager.run(circuit)
        )


class TestPresetFamilyParity:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_every_family_compiles_identically_at_level(self, level):
        device = get_device(DEVICE)
        families = figure2_benchmarks(small=True)
        assert len(families) == 8
        compared = 0
        for instances in families.values():
            benchmark = instances[0]
            circuit = benchmark.circuits()[0]
            if circuit.num_qubits > device.num_qubits:
                continue
            pipeline = preset_pipeline(device, optimization_level=level)
            reference = oracle.object_pipeline(pipeline)
            fast = transpile(circuit, device, pass_manager=pipeline)
            slow = transpile(circuit, device, pass_manager=reference)
            assert _stream(fast.circuit) == _stream(slow.circuit)
            compared += 1
        # Every optimization pass in the reference pipeline (all five at
        # level 3) is an object walk.
        optimizations = tuple(type(pass_) for pass_ in _optimization_passes())
        assert not any(isinstance(pass_, optimizations) for pass_ in reference)
        assert [p.name for p in reference if isinstance(p, oracle.ObjectWalkPass)] == [
            p.name for p in pipeline if isinstance(p, optimizations)
        ]
        if level == 3:
            assert len({p.name for p in reference if isinstance(p, oracle.ObjectWalkPass)}) == 5
        assert compared >= 6  # every family that fits the 16q device


class TestWideRows:
    def test_wide_barrier_stays_on_packed_path(self):
        circuit = Circuit(6, name="wide")
        circuit.rz(0.4, 0).rz(0.3, 0)  # merges
        circuit.cx(0, 1).cx(0, 1)  # cancels
        circuit.barrier(0, 1, 2, 3, 4)  # wide row (5 operands > 3 slots)
        circuit.s(2).sdg(2)  # cancels after the barrier
        circuit.h(3).t(3).h(3)  # fuses
        circuit.rz(1e-15, 5)  # drops
        reference = oracle.object_pipeline(_optimization_passes())
        packed_manager = PassManager(_optimization_passes())
        expected = reference.run(circuit)
        observed = packed_manager.run(circuit)
        assert _stream(expected) == _stream(observed)

    def test_wide_barrier_blocks_merges_across_it(self):
        circuit = Circuit(5, name="wideblock")
        circuit.rz(0.4, 0)
        circuit.barrier(0, 1, 2, 3, 4)
        circuit.rz(0.3, 0)
        merged = PassManager([MergeRotations()]).run(circuit)
        assert _stream(merged) == _stream(circuit)


class TestReporting:
    def test_records_and_trace_spans_agree(self):
        tracer = configure_tracing(enabled=True)
        tracer.drain()
        circuit = _random_circuit(5, 43)
        manager = PassManager(_optimization_passes())
        try:
            manager.run(circuit)
            spans = [s for s in tracer.drain() if s.name == "transpiler.pass"]
        finally:
            configure_tracing(enabled=False)
        assert len(spans) == len(manager.last_records)
        by_name = {span.attributes["pass_name"]: span for span in spans}
        for record in manager.last_records:
            attributes = by_name[record.name].attributes
            assert attributes["gates_before"] == record.gates_before
            assert attributes["gates_after"] == record.gates_after
            assert "path" not in attributes


class TestOneCircuitForm:
    def test_preset_run_makes_no_instruction(self, monkeypatch, made_instructions):
        """A level-3 DD pipeline hands packs between passes, never objects."""
        unpacks = []
        unpack = PackedCircuit.unpack

        def counting_unpack(packed):
            unpacks.append(packed)
            return unpack(packed)

        device = get_device("IBM-Casablanca-7Q")
        pipeline = preset_pipeline(device, optimization_level=3, dd="xy4")
        circuit = _random_circuit(5, 45)
        made_instructions.clear()
        monkeypatch.setattr(PackedCircuit, "unpack", counting_unpack)
        compiled = pipeline.run(circuit)
        assert made_instructions == []
        assert len(unpacks) == 1
        assert compiled.packed() is unpacks[0]
        monkeypatch.undo()
        assert _stream(compiled) == _stream(
            transpile(circuit, device, pass_manager=pipeline).circuit
        )
