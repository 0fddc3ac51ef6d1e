"""Pass-level invariants.

Every transformation pass must preserve the circuit's unitary (up to global
phase) on random 3–5 qubit circuits, and routed output may only use coupled
qubit pairs.  These invariants hold for *any* pipeline a user assembles, not
just the presets.
"""

from __future__ import annotations

import math

import numpy as np
import oracle
import pytest

from repro.circuits import Circuit
from repro.circuits.random_circuits import quantum_volume_circuit, random_clifford_circuit
from repro.devices import get_device
from repro.transpiler import (
    CancelAdjacentInverses,
    CommutingTwoQubitCancellation,
    DecomposeToCanonical,
    DepthAnalysis,
    DropNegligible,
    FuseSingleQubitRuns,
    MergeRotations,
    PassManager,
    PropertySet,
    transpile,
)

TRANSFORMATION_PASSES = [
    DecomposeToCanonical,
    DropNegligible,
    MergeRotations,
    CancelAdjacentInverses,
    FuseSingleQubitRuns,
    CommutingTwoQubitCancellation,
]

#: Gate pool for random circuits: rotations (mergeable), self-inverses
#: (cancellable), diagonal/X-axis 1q gates (commutable) and 2q entanglers.
_POOL_1Q = ["h", "x", "z", "s", "sdg", "t", "tdg", "sx", "id"]
_POOL_1Q_ROT = ["rx", "ry", "rz", "p"]
_POOL_2Q = ["cx", "cz", "rzz"]


def _random_mixed_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """Random circuit rich enough to trigger every optimization pass."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.random()
        if kind < 0.4:
            name = _POOL_1Q[rng.integers(len(_POOL_1Q))]
            circuit.add_gate(name, [int(rng.integers(num_qubits))])
        elif kind < 0.7:
            name = _POOL_1Q_ROT[rng.integers(len(_POOL_1Q_ROT))]
            angle = float(rng.uniform(-math.pi, math.pi))
            # Occasionally emit a zero rotation so DropNegligible has work.
            if rng.random() < 0.1:
                angle = 0.0
            circuit.add_gate(name, [int(rng.integers(num_qubits))], [angle])
        else:
            name = _POOL_2Q[rng.integers(len(_POOL_2Q))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            params = [float(rng.uniform(-math.pi, math.pi))] if name == "rzz" else []
            circuit.add_gate(name, [int(a), int(b)], params)
    return circuit


@pytest.mark.parametrize("pass_cls", TRANSFORMATION_PASSES)
@pytest.mark.parametrize("num_qubits,seed", [(3, 0), (3, 1), (4, 2), (4, 3), (5, 4)])
def test_transformation_pass_preserves_unitary(
    pass_cls, num_qubits, seed, unitary_equivalent
):
    circuit = _random_mixed_circuit(num_qubits, 12 * num_qubits, seed)
    transformed = PassManager([pass_cls()]).run(circuit)
    unitary_equivalent(circuit, transformed)


@pytest.mark.parametrize("pass_cls", TRANSFORMATION_PASSES)
@pytest.mark.parametrize("seed", [10, 11])
def test_transformation_pass_preserves_unitary_on_qv_circuits(
    pass_cls, seed, unitary_equivalent
):
    circuit = quantum_volume_circuit(4, rng=seed, measure=False)
    transformed = PassManager([pass_cls()]).run(circuit)
    unitary_equivalent(circuit, transformed)


class TestCommutingTwoQubitCancellation:
    def run_pass(self, circuit: Circuit) -> Circuit:
        return PassManager([CommutingTwoQubitCancellation()]).run(circuit)

    def test_cancels_through_commuting_gates(self, unitary_equivalent):
        circuit = Circuit(2).cx(0, 1).rz(0.3, 0).x(1).sx(1).t(0).cx(0, 1)
        out = self.run_pass(circuit)
        assert [i.name for i in out] == ["rz", "x", "sx", "t"]
        unitary_equivalent(circuit, out)

    def test_cz_cancels_symmetrically(self, unitary_equivalent):
        circuit = Circuit(2).cz(0, 1).rz(0.2, 0).s(1).cz(1, 0)
        out = self.run_pass(circuit)
        assert [i.name for i in out] == ["rz", "s"]
        unitary_equivalent(circuit, out)

    def test_blocked_by_non_commuting_gate(self):
        circuit = Circuit(2).cx(0, 1).h(1).cx(0, 1)
        assert len(self.run_pass(circuit)) == 3

    def test_blocked_by_barrier_and_measure(self):
        barrier = Circuit(2).cx(0, 1).barrier().cx(0, 1)
        assert sum(1 for i in self.run_pass(barrier) if i.name == "cx") == 2
        measured = Circuit(2, 2).cx(0, 1).measure(0, 0).cx(0, 1)
        assert sum(1 for i in self.run_pass(measured) if i.name == "cx") == 2

    def test_blocked_by_interleaved_two_qubit_gate(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 1)
        assert len(self.run_pass(circuit)) == 3

    def test_iterates_to_fixed_point(self, unitary_equivalent):
        # Nested pair: the outer pair only cancels after the inner one does.
        circuit = (
            Circuit(2)
            .cx(0, 1)
            .rz(0.1, 0)
            .cx(0, 1)
            .cx(0, 1)
            .x(1)
            .cx(0, 1)
        )
        out = self.run_pass(circuit)
        assert [i.name for i in out] == ["rz", "x"]
        unitary_equivalent(circuit, out)

    def test_goes_beyond_adjacent_cancellation(self):
        """The case the old adjacent-only cancellation provably misses."""
        circuit = Circuit(2).cx(0, 1).rz(0.5, 0).cx(0, 1)
        adjacent_only = PassManager([CancelAdjacentInverses()]).run(circuit)
        assert sum(1 for i in adjacent_only if i.name == "cx") == 2
        commuting = self.run_pass(circuit)
        assert sum(1 for i in commuting if i.name == "cx") == 0


class TestRoutingInvariant:
    @pytest.mark.parametrize("device_name", ["IBM-Casablanca-7Q", "IBM-Guadalupe-16Q"])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_routed_output_only_uses_coupled_pairs(self, device_name, level):
        device = get_device(device_name)
        for seed in (0, 1):
            circuit = random_clifford_circuit(5, 40, rng=seed)
            result = transpile(circuit, device, optimization_level=level)
            for instruction in result.circuit:
                if instruction.is_multi_qubit():
                    a, b = instruction.qubits
                    assert device.are_connected(a, b), (
                        f"{instruction.name} on uncoupled pair ({a}, {b})"
                    )


class TestDepthAnalysis:
    def test_metrics_match_direct_queries(self):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).rz(0.4, 2).cx(0, 1)
        properties = PropertySet()
        PassManager([DepthAnalysis()]).run(circuit, properties)
        metrics = properties["metrics"]
        critical_two_qubit, critical_length = oracle.two_qubit_critical_path(circuit)
        assert metrics["gate_count"] == circuit.num_gates()
        assert metrics["two_qubit_gates"] == circuit.num_two_qubit_gates()
        assert metrics["depth"] == oracle.depth(circuit)
        assert metrics["critical_path_length"] == critical_length
        assert metrics["critical_two_qubit_gates"] == critical_two_qubit

    def test_preset_pipelines_feed_transpiled_metrics(self, ibm_device):
        result = transpile(Circuit(3).h(0).cx(0, 1).cx(1, 2), ibm_device)
        assert result.metrics["depth"] == result.circuit.depth()
        assert result.metrics["two_qubit_gates"] == result.circuit.num_two_qubit_gates()
        assert result.metrics["critical_two_qubit_gates"] >= 2
        assert result.depth() == result.metrics["depth"]


class TestPassNames:
    def test_names_are_snake_case_class_names_fixed_per_class(self):
        assert [cls().name for cls in TRANSFORMATION_PASSES] == [
            "decompose_to_canonical",
            "drop_negligible",
            "merge_rotations",
            "cancel_adjacent_inverses",
            "fuse_single_qubit_runs",
            "commuting_two_qubit_cancellation",
        ]
        assert all("_snake_name" in vars(cls) for cls in TRANSFORMATION_PASSES)

    def test_subclass_gets_its_own_name_and_overrides_keep_working(self):
        class MyTinyPass(DropNegligible):
            pass

        class Renamed(DropNegligible):
            @property
            def name(self):
                return "custom"

        assert MyTinyPass().name == "my_tiny_pass"
        assert DropNegligible().name == "drop_negligible"
        assert Renamed().name == "custom"
        assert Renamed().fingerprint_token().startswith("custom")
