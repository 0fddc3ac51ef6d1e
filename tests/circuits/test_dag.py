"""Tests for the two-qubit critical path (``Circuit.two_qubit_critical_path``)."""

from repro.circuits import Circuit


def critical_path_length(circuit):
    return circuit.two_qubit_critical_path()[1]


class TestCriticalPath:
    def test_serial_chain(self):
        circuit = Circuit(1).h(0).x(0).z(0)
        assert critical_path_length(circuit) == 3

    def test_parallel_layer(self):
        circuit = Circuit(3).h(0).h(1).h(2)
        assert critical_path_length(circuit) == 1

    def test_two_qubit_gates_on_path(self):
        # Chain of CNOTs: every one of them is on the critical path.
        circuit = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 1)
        on_path, length = circuit.two_qubit_critical_path()
        assert (on_path, length) == (3, 3)

    def test_single_qubit_padding_not_counted_as_two_qubit(self):
        circuit = Circuit(2).h(0).h(0).h(0).cx(0, 1)
        on_path, length = circuit.two_qubit_critical_path()
        assert length == 4
        assert on_path == 1

    def test_path_prefers_more_two_qubit_gates_on_tie(self):
        # Two chains of equal length; one has two CX, the other one CX and single-qubit gates.
        circuit = Circuit(4)
        circuit.cx(0, 1).cx(0, 1)           # chain A: 2 two-qubit gates
        circuit.h(2).h(2).x(3)              # chain B: shorter
        on_path, length = circuit.two_qubit_critical_path()
        assert on_path == 2
        assert length == 2

    def test_empty_circuit(self):
        assert Circuit(2).two_qubit_critical_path() == (0, 0)

    def test_ghz_ladder_all_cnots_on_path(self):
        circuit = Circuit(5).h(0)
        for q in range(4):
            circuit.cx(q, q + 1)
        on_path, length = circuit.two_qubit_critical_path()
        assert on_path == 4
        assert length == 5

    def test_path_follows_qubit_dependencies(self):
        # h(0) and x(1) act on different qubits, so they do not chain; each
        # feeds the cx, giving a path of two gates with one cx on it.
        circuit = Circuit(2).h(0).x(1).cx(0, 1)
        assert circuit.two_qubit_critical_path() == (1, 2)
        assert Circuit(2).h(0).x(1).two_qubit_critical_path() == (0, 1)

    def test_barrier_delays_without_chaining(self):
        # The barrier pushes h(1) into a second moment, but h(1) does not
        # depend on h(0): depth 2, critical-path length 1.
        circuit = Circuit(2).h(0).barrier(0, 1).h(1)
        assert circuit.depth() == 2
        assert circuit.two_qubit_critical_path() == (0, 1)
