"""Tests for ASAP moment scheduling, circuit depth and liveness accounting."""

import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import BARRIER, Circuit, Instruction
from repro.features import circuit_profile, liveness
from repro.features.features import _FAST_PATH_MIN_ROWS


class TestMoments:
    def test_parallel_gates_share_a_moment(self):
        circuit = Circuit(3).h(0).h(1).h(2)
        assert circuit.depth() == 1
        assert circuit_profile(circuit).moment_operations.tolist() == [3]

    def test_dependent_gates_are_serialised(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(1)
        assert circuit.depth() == 3

    def test_independent_chains_interleave(self):
        circuit = Circuit(4).cx(0, 1).cx(2, 3).cx(1, 2)
        assert circuit.depth() == 2
        assert circuit_profile(circuit).moment_operations.tolist()[0] == 2

    def test_barrier_forces_synchronisation(self):
        without_barrier = Circuit(2).h(0).x(1).x(1)
        with_barrier = Circuit(2).h(0).barrier().x(1).x(1)
        assert without_barrier.depth() == 2
        assert with_barrier.depth() == 3

    def test_barrier_does_not_occupy_a_layer(self):
        circuit = Circuit(2).barrier().h(0)
        assert circuit.depth() == 1

    def test_empty_circuit_depth_zero(self):
        assert Circuit(3).depth() == 0

    def test_measure_counts_toward_depth(self):
        circuit = Circuit(1, 1).h(0).measure(0, 0)
        assert circuit.depth() == 2


class TestLiveness:
    """Liveness is qubit touches over the ``num_qubits x depth`` grid."""

    def test_shape(self):
        profile = circuit_profile(Circuit(3).h(0).cx(0, 1))
        assert (profile.num_qubits, profile.depth) == (3, 2)

    def test_fully_active_circuit(self):
        circuit = Circuit(2).h(0).h(1).cx(0, 1)
        profile = circuit_profile(circuit)
        assert profile.qubit_touches == 4
        assert (profile.num_qubits, profile.depth) == (2, 2)
        assert liveness(circuit) == 1.0

    def test_idle_qubits_lower_liveness(self):
        circuit = Circuit(3).h(0).h(0)
        profile = circuit_profile(circuit)
        assert profile.qubit_touches == 2
        assert liveness(circuit) == pytest.approx(2 / 6)

    def test_empty_circuit(self):
        profile = circuit_profile(Circuit(2))
        assert (profile.num_qubits, profile.depth) == (2, 0)
        assert liveness(Circuit(2)) == 0.0

    def test_a_qubit_acts_at_most_once_per_moment(self):
        circuit = Circuit(3).h(0).cx(0, 1).ccx(0, 1, 2).measure_all()
        profile = circuit_profile(circuit)
        operands = [[] for _ in range(profile.depth)]
        for instruction, moment in zip(circuit, profile.row_moments.tolist()):
            operands[moment].extend(instruction.qubits)
        assert all(len(qubits) == len(set(qubits)) for qubits in operands)
        assert profile.qubit_touches == sum(map(len, operands))


# ---------------------------------------------------------------------------
# depth and critical path against the object-walk oracle
# ---------------------------------------------------------------------------


def _barriered_circuit(rng: np.random.Generator) -> Circuit:
    """Qubit-less and >3-qubit barriers, measure, reset and 3-qubit gates."""
    num_qubits = int(rng.integers(5, 8))
    circuit = Circuit(num_qubits, num_qubits)
    for _ in range(int(rng.integers(10, 80))):
        roll = rng.random()
        q = int(rng.integers(num_qubits))
        if roll < 0.30:
            (circuit.h if rng.random() < 0.5 else circuit.x)(q)
        elif roll < 0.55:
            a, b = (int(v) for v in rng.choice(num_qubits, size=2, replace=False))
            circuit.cx(a, b)
        elif roll < 0.62:
            a, b, c = (int(v) for v in rng.choice(num_qubits, size=3, replace=False))
            circuit.ccx(a, b, c)
        elif roll < 0.70:
            circuit.measure(q, q)
        elif roll < 0.75:
            circuit.reset(q)
        elif roll < 0.81:
            circuit.append(Instruction(BARRIER, ()))
        else:
            count = int(rng.integers(1, num_qubits + 1))
            operands = rng.choice(num_qubits, size=count, replace=False)
            circuit.barrier(*(int(v) for v in operands))
    return circuit


def _plain_circuit(rng: np.random.Generator) -> Circuit:
    """Barrier-free 1q/2q stream long enough for the vectorised profile."""
    num_qubits = int(rng.integers(2, 40))
    circuit = Circuit(num_qubits, num_qubits)
    for _ in range(_FAST_PATH_MIN_ROWS + int(rng.integers(0, 400))):
        roll = rng.random()
        q = int(rng.integers(num_qubits))
        if roll < 0.45:
            circuit.rz(float(rng.uniform(-3, 3)), q)
        elif roll < 0.93:
            a, b = (int(v) for v in rng.choice(num_qubits, size=2, replace=False))
            circuit.cz(a, b)
        elif roll < 0.97:
            circuit.measure(q, q)
        else:
            circuit.reset(q)
    return circuit


@pytest.mark.parametrize("build", [_barriered_circuit, _plain_circuit], ids=["barriered", "plain"])
@given(seed=st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_depth_and_critical_path_match_oracle(build, seed):
    circuit = build(np.random.default_rng(seed))
    assert circuit.depth() == oracle.depth(circuit)
    assert circuit.two_qubit_critical_path() == oracle.two_qubit_critical_path(circuit)


@pytest.mark.parametrize("build", [_barriered_circuit, _plain_circuit], ids=["barriered", "plain"])
@given(seed=st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_row_moments_match_oracle_moments(build, seed):
    """The profile's per-row moment is the oracle's ASAP layer of that row."""
    circuit = build(np.random.default_rng(seed))
    expected = {
        id(instruction): index
        for index, layer in enumerate(oracle.circuit_moments(circuit))
        for instruction in layer
    }
    observed = circuit_profile(circuit).row_moments.tolist()
    assert observed == [
        -1 if instruction.is_barrier() else expected[id(instruction)]
        for instruction in circuit
    ]
