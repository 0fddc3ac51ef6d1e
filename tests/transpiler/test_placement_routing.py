"""Tests for placement, routing and the full transpilation pipeline."""

import numpy as np
import oracle
import pytest

from repro.benchmarks import figure2_benchmarks
from repro.circuits import BARRIER, Circuit, Instruction, ghz_ladder
from repro.devices import all_devices, get_device
from repro.exceptions import TranspilerError
from repro.simulation import StatevectorSimulator, circuit_unitary, final_statevector
from repro.transpiler import (
    SUPPORTED_BASES,
    noise_aware_placement,
    route_circuit,
    transpile,
    trivial_placement,
)
from repro.utils import equivalent_up_to_global_phase


class TestPlacement:
    def test_trivial_placement(self, ibm_device):
        circuit = ghz_ladder(3)
        assert trivial_placement(circuit.packed(), ibm_device) == {0: 0, 1: 1, 2: 2}

    def test_circuit_too_large_rejected(self, aqt_device):
        with pytest.raises(TranspilerError):
            trivial_placement(ghz_ladder(5).packed(), aqt_device)

    def test_noise_aware_placement_is_injective(self, ibm_device):
        circuit = ghz_ladder(5)
        placement = noise_aware_placement(circuit.packed(), ibm_device)
        assert len(placement) == 5
        assert len(set(placement.values())) == 5

    def test_noise_aware_placement_selects_connected_region(self, ibm_device):
        circuit = ghz_ladder(4)
        placement = noise_aware_placement(circuit.packed(), ibm_device)
        region = set(placement.values())
        subgraph = ibm_device.topology().subgraph(region)
        import networkx as nx

        assert nx.is_connected(subgraph)

    def test_all_to_all_placement(self, ionq_device):
        placement = noise_aware_placement(ghz_ladder(4).packed(), ionq_device)
        assert sorted(placement.values()) == [0, 1, 2, 3]


class TestRouting:
    def test_no_swaps_needed_on_all_to_all(self, ionq_device):
        circuit = Circuit(3).cx(0, 2).cx(1, 2)
        routed = route_circuit(circuit.packed(), ionq_device, {0: 0, 1: 1, 2: 2})
        assert routed.swap_count == 0

    def test_swaps_inserted_for_distant_qubits(self):
        device = get_device("IBM-Santiago-5Q")  # a line
        circuit = Circuit(5).cx(0, 4)
        routed = route_circuit(circuit.packed(), device, {q: q for q in range(5)})
        assert routed.swap_count >= 3
        topology = device.topology()
        for instruction in routed.circuit.unpack():
            if instruction.is_two_qubit():
                assert topology.has_edge(*instruction.qubits)

    def test_final_layout_tracks_swaps(self):
        device = get_device("IBM-Santiago-5Q")
        circuit = Circuit(3).cx(0, 2)
        routed = route_circuit(circuit.packed(), device, {0: 0, 1: 1, 2: 2})
        assert routed.swap_count == 1
        assert set(routed.final_layout.values()) == {routed.final_layout[q] for q in range(3)}

    def test_missing_placement_rejected(self, ibm_device):
        with pytest.raises(TranspilerError):
            route_circuit(Circuit(2).cx(0, 1).packed(), ibm_device, {0: 0})

    def test_multi_qubit_gate_rejected(self, ibm_device):
        with pytest.raises(TranspilerError):
            route_circuit(Circuit(3).ccx(0, 1, 2).packed(), ibm_device, {0: 0, 1: 1, 2: 2})

    def test_barriers_and_clbits(self, ibm_device):
        circuit = Circuit(3, 0).h(0).barrier(0, 2).append(Instruction(BARRIER, ()))
        routed = route_circuit(circuit.packed(), ibm_device, {0: 4, 1: 5, 2: 6}).circuit
        assert routed.num_clbits == 1
        barriers = [i.qubits for i in routed.unpack() if i.is_barrier()]
        # A qubit-less barrier spans every device qubit.
        assert barriers == [(4, 6), tuple(range(ibm_device.num_qubits))]


class TestTranspilePipeline:
    @pytest.mark.parametrize(
        "device_name", ["IBM-Casablanca-7Q", "IonQ-11Q", "AQT-4Q", "IBM-Santiago-5Q"]
    )
    def test_only_native_gates_and_coupled_pairs(self, device_name):
        device = get_device(device_name)
        circuit = Circuit(4, 4).h(0).cx(0, 1).rzz(0.4, 1, 2).cx(2, 3).measure_all()
        if circuit.num_qubits > device.num_qubits:
            circuit = Circuit(3, 3).h(0).cx(0, 1).rzz(0.4, 1, 2).measure_all()
        result = transpile(circuit, device)
        allowed = set(device.basis_gates) | {"measure", "reset", "barrier"}
        assert set(result.circuit.count_ops()) <= allowed
        topology = device.topology()
        for instruction in result.circuit:
            if instruction.is_two_qubit():
                assert topology.has_edge(*instruction.qubits)

    def test_too_large_circuit_rejected(self, aqt_device):
        with pytest.raises(TranspilerError):
            transpile(ghz_ladder(6), aqt_device)

    def test_measurements_preserved(self, ibm_device):
        circuit = ghz_ladder(3, measure=True)
        result = transpile(circuit, ibm_device)
        assert result.circuit.num_measurements() == 3

    def test_unitary_preserved_on_all_to_all_device(self, ionq_device):
        """Without routing permutations the compiled unitary must match exactly."""
        circuit = Circuit(3).h(0).cx(0, 1).rzz(0.3, 1, 2).t(2)
        result = transpile(circuit, ionq_device, placement="trivial")
        compact, physical = result.compact()
        remap = {p: i for i, p in enumerate(physical)}
        assert remap == {0: 0, 1: 1, 2: 2}
        assert equivalent_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(compact), atol=1e-7
        )

    def test_compiled_ghz_still_produces_ghz_counts(self, ibm_device):
        circuit = ghz_ladder(4, measure=True)
        result = transpile(circuit, ibm_device)
        compact, _physical = result.compact()
        counts = StatevectorSimulator(seed=0).run(compact, shots=400)
        assert set(counts) == {"0000", "1111"}

    def test_compact_reindexes_to_zero_based(self, ibm_device):
        result = transpile(ghz_ladder(3, measure=True), ibm_device)
        compact, physical = result.compact()
        assert compact.num_qubits == len(physical)
        assert compact.active_qubits() == tuple(range(len(physical)))

    def test_compact_drops_barrier_on_idle_qubits(self, ionq_device):
        # The barrier covers only qubit 2, which no operation touches; it
        # must not come back as a barrier over every compact qubit.
        circuit = Circuit(3, 3).h(0).barrier(2).h(1).measure(0, 0).measure(1, 1)
        result = transpile(circuit, ionq_device, optimization_level=0)
        compact, _physical = result.compact()
        assert not any(instruction.is_barrier() for instruction in compact)
        assert compact.depth() == result.depth()

    def test_swap_overhead_larger_on_sparse_topology(self):
        """All-to-all workloads pay a SWAP penalty on sparse devices (paper Sec. VI)."""
        from repro.benchmarks import VanillaQAOABenchmark

        circuit = VanillaQAOABenchmark(5).circuit()
        sparse = transpile(circuit, get_device("IBM-Casablanca-7Q"))
        dense = transpile(circuit, get_device("IonQ-11Q"))
        assert dense.swap_count == 0
        assert sparse.swap_count > 0
        assert sparse.two_qubit_gate_count() > dense.two_qubit_gate_count()

    def test_optimization_levels_do_not_change_semantics(self, ionq_device):
        circuit = Circuit(3).h(0).h(0).cx(0, 1).rz(0.2, 1).rz(-0.2, 1).cx(1, 2)
        level0 = transpile(circuit, ionq_device, optimization_level=0, placement="trivial")
        level2 = transpile(circuit, ionq_device, optimization_level=2, placement="trivial")
        compact0, _ = level0.compact()
        compact2, _ = level2.compact()
        state0 = final_statevector(compact0)
        state2 = final_statevector(compact2)
        assert equivalent_up_to_global_phase(state0, state2, atol=1e-7)

    def test_unknown_placement_rejected(self, ibm_device):
        with pytest.raises(TranspilerError):
            transpile(ghz_ladder(3), ibm_device, placement="magic")


def _random_circuit(rng, num_qubits, depth, three_qubit=True):
    circuit = Circuit(num_qubits, num_qubits)
    for _ in range(depth):
        kind = int(rng.integers(0, 7)) if num_qubits > 1 else 0
        if kind == 0:
            circuit.h(int(rng.integers(0, num_qubits)))
        elif kind == 1 and three_qubit and num_qubits >= 3:
            a, b, c = (int(q) for q in rng.choice(num_qubits, 3, replace=False))
            circuit.ccx(a, b, c)
        elif kind == 2:
            operands = rng.choice(num_qubits, int(rng.integers(0, num_qubits + 1)), replace=False)
            circuit.barrier(*(int(q) for q in operands))
        else:
            a, b = (int(q) for q in rng.choice(num_qubits, 2, replace=False))
            if kind == 3:
                circuit.rzz(float(rng.normal()), a, b)
            elif kind == 4:
                circuit.swap(a, b)
            else:
                circuit.cx(a, b)
    return circuit.measure_all()


def _rows(packed):
    return list(packed.iter_rows())


class TestNetworkxParity:
    """Placement and routing read cached coupling tables; they must choose
    exactly what the networkx implementations in ``tests/oracle.py`` choose."""

    @pytest.mark.parametrize("device", all_devices(), ids=lambda device: device.name)
    def test_placement_matches_oracle(self, device):
        rng = np.random.default_rng(sum(map(ord, device.name)))
        for num_qubits in range(1, device.num_qubits + 1):
            for _ in range(3):
                circuit = _random_circuit(rng, num_qubits, int(rng.integers(0, 25)))
                assert noise_aware_placement(circuit.packed(), device) == (
                    oracle.noise_aware_placement(circuit, device)
                )

    @pytest.mark.parametrize("device", all_devices(), ids=lambda device: device.name)
    def test_routing_matches_oracle(self, device):
        rng = np.random.default_rng(sum(map(ord, device.name)) + 1)
        for num_qubits in range(1, min(device.num_qubits, 12) + 1):
            for trial in range(3):
                circuit = _random_circuit(
                    rng, num_qubits, int(rng.integers(0, 30)), three_qubit=False
                )
                packed = circuit.packed()
                if trial == 0:
                    layout = noise_aware_placement(packed, device)
                else:
                    physical = rng.choice(device.num_qubits, num_qubits, replace=False)
                    layout = {q: int(p) for q, p in enumerate(physical)}
                routed = route_circuit(packed, device, layout)
                expected, final_layout, swaps = oracle.route_circuit(packed, device, layout)
                assert _rows(routed.circuit) == _rows(expected)
                assert routed.final_layout == final_layout
                assert routed.swap_count == swaps

    def test_figure2_circuits_place_as_the_oracle(self):
        """The paper's small Figure 2 instances, on every device they fit."""
        circuits = [
            circuit
            for benchmarks in figure2_benchmarks(small=True).values()
            for benchmark in benchmarks
            for circuit in benchmark.circuits()
        ]
        for device in all_devices():
            for circuit in circuits:
                if circuit.num_qubits <= device.num_qubits:
                    assert noise_aware_placement(circuit.packed(), device) == (
                        oracle.noise_aware_placement(circuit, device)
                    )
