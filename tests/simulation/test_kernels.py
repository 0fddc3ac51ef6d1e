"""Tests for the structure-specialised simulation kernels and gate fusion."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import apply_matrix_reference

from repro.circuits import Circuit, gate_matrix
from repro.simulation import (
    StatevectorSimulator,
    apply_unitary,
    final_statevector,
    sample_statevector,
)
from repro.simulation.kernels import (
    analyze_matrix,
    apply_kernel,
    apply_matrix,
    contract,
    fuse_circuit,
    fuse_operations,
    kernel_for_operation,
    measure_qubit_batch,
    qubit_axis,
    reset_qubit_batch,
    sample_counts_array,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_noiseless_counts.json")

#: A gate pool covering every kernel kind: diagonal (exact and phase-valued),
#: permutation (exact and phase-valued), generic 1q/2q/3q.
GATE_POOL = [
    ("x", (), 1),
    ("z", (), 1),
    ("h", (), 1),
    ("s", (), 1),
    ("t", (), 1),
    ("rz", (0.37,), 1),
    ("rx", (1.2,), 1),
    ("u", (0.5, 1.1, -0.4), 1),
    ("cx", (), 2),
    ("cz", (), 2),
    ("swap", (), 2),
    ("iswap", (), 2),
    ("cp", (0.81,), 2),
    ("rzz", (0.63,), 2),
    ("rxx", (0.3,), 2),
    ("zzswap", (0.44,), 2),
    ("ccx", (), 3),
]


def _random_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    pool = [entry for entry in GATE_POOL if entry[2] <= num_qubits]
    for _ in range(num_gates):
        name, params, arity = pool[rng.integers(len(pool))]
        qubits = rng.choice(num_qubits, size=arity, replace=False)
        circuit.add_gate(name, [int(q) for q in qubits], list(params))
    return circuit


def _reference_statevector(circuit: Circuit) -> np.ndarray:
    """Evolve with the historical tensordot kernel only (the parity oracle)."""
    n = circuit.num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for instruction in circuit:
        if not instruction.is_unitary():
            continue
        axes = [qubit_axis(q, n) for q in instruction.qubits]
        psi = apply_matrix_reference(psi, instruction.gate.matrix(), axes)
    return np.ascontiguousarray(psi).reshape(-1)


def _bits(array: np.ndarray) -> np.ndarray:
    """The raw IEEE-754 words of an array, so ``-0.0`` and ``0.0`` differ."""
    return np.ascontiguousarray(array).view(np.uint64)


def _random_tensor(rng, shape, real: bool = False) -> np.ndarray:
    tensor = rng.normal(size=shape)
    return tensor if real else tensor + 1j * rng.normal(size=shape)


def _random_matrix(rng, k: int, layout: str) -> np.ndarray:
    dim = 1 << k
    if layout == "real":
        return rng.normal(size=(dim, dim))
    matrix = _random_tensor(rng, (dim, dim))
    if layout == "fortran":
        return np.asfortranarray(matrix)
    if layout == "conjugated":
        return matrix.conj()
    return matrix


def _exact_permutation(rng, k: int) -> np.ndarray:
    """A non-diagonal permutation matrix with random ``±1``/``±i`` phases."""
    dim = 1 << k
    source = np.arange(dim)
    while np.array_equal(source, np.arange(dim)):
        source = rng.permutation(dim)
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[np.arange(dim), source] = np.array([1, -1, 1j, -1j])[rng.integers(4, size=dim)]
    return matrix


def _exact_diagonal(rng, k: int) -> np.ndarray:
    return np.diag(np.array([1, -1, 1j, -1j])[rng.integers(4, size=1 << k)])


def _target_axes(rng, num_qubits: int, k: int, offset: int) -> list:
    qubits = rng.choice(num_qubits, size=k, replace=False)  # any order
    return [qubit_axis(int(q), num_qubits, offset=offset) for q in qubits]


class TestAnalyzeMatrix:
    def test_diagonal_classification(self):
        kernel = analyze_matrix(gate_matrix("rz", 0.5))
        assert kernel.kind == "diagonal"
        assert not kernel.exact_compatible  # e^{±iθ/2} entries round differently

    def test_exact_diagonal(self):
        for name in ("z", "s", "sdg", "cz"):
            kernel = analyze_matrix(gate_matrix(name))
            assert kernel.kind == "diagonal"
            assert kernel.exact_compatible

    def test_permutation_classification(self):
        for name in ("x", "cx", "swap", "iswap", "ccx", "cswap"):
            kernel = analyze_matrix(gate_matrix(name))
            assert kernel.kind == "permutation"
            assert kernel.exact_compatible

    def test_phase_permutation_not_exact(self):
        kernel = analyze_matrix(gate_matrix("zzswap", 0.3))
        assert kernel.kind == "permutation"
        assert not kernel.exact_compatible

    def test_generic_classification(self):
        assert analyze_matrix(gate_matrix("h")).kind == "generic"
        assert analyze_matrix(gate_matrix("rxx", 0.2)).kind == "generic"

    def test_kernel_for_operation_is_cached(self):
        from repro.circuits import OPCODES

        assert kernel_for_operation(OPCODES["cx"]) is kernel_for_operation(OPCODES["cx"])


class TestApplyAgainstReference:
    @pytest.mark.parametrize("name,params,arity", GATE_POOL, ids=[g[0] for g in GATE_POOL])
    def test_single_gate_matches_reference(self, name, params, arity):
        rng = np.random.default_rng(42)
        n = 4
        state = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
        state /= np.linalg.norm(state)
        qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
        axes = [qubit_axis(q, n) for q in qubits]
        matrix = gate_matrix(name, *params)
        fast = apply_matrix(state.copy(), matrix, axes)
        reference = apply_matrix_reference(state, matrix, axes)
        assert np.allclose(fast, reference, atol=1e-12)

    def test_strict_mode_is_bit_identical(self):
        """Strict kernels must not change a single bit of the state."""
        rng = np.random.default_rng(7)
        n = 5
        state = rng.normal(size=(2,) * n) + 1j * rng.normal(size=(2,) * n)
        state /= np.linalg.norm(state)
        for name, params, arity in GATE_POOL:
            qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
            axes = [qubit_axis(q, n) for q in qubits]
            matrix = gate_matrix(name, *params)
            strict = apply_matrix(state.copy(), matrix, axes, strict=True)
            reference = apply_matrix_reference(state, matrix, axes)
            assert np.array_equal(_bits(strict), _bits(reference)), name

    def test_batched_apply_matches_per_row(self):
        rng = np.random.default_rng(3)
        n, batch_size = 4, 6
        batch = rng.normal(size=(batch_size,) + (2,) * n) + 1j * rng.normal(
            size=(batch_size,) + (2,) * n
        )
        for name, params, arity in [("rz", (0.4,), 1), ("cx", (), 2), ("rxx", (0.9,), 2)]:
            qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
            matrix = gate_matrix(name, *params)
            batched_axes = [qubit_axis(q, n, offset=1) for q in qubits]
            out = apply_matrix(batch.copy(), matrix, batched_axes)
            row_axes = [qubit_axis(q, n) for q in qubits]
            for t in range(batch_size):
                expected = apply_matrix_reference(batch[t], matrix, row_axes)
                assert np.allclose(out[t], expected, atol=1e-12)

    def test_diagonal_in_place_flag(self):
        state = np.ones((2, 2), dtype=complex)
        kernel = analyze_matrix(gate_matrix("rz", 0.5))
        preserved = apply_kernel(state, kernel, [1], in_place=False)
        assert np.all(state == 1.0)
        mutated = apply_kernel(state, kernel, [1], in_place=True)
        assert mutated is state
        assert np.allclose(mutated, preserved)


class TestContractionParity:
    """``contract`` against the tensordot oracle, compared word for word."""

    @pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_random_matrices_match_the_oracle(self, num_qubits, batched):
        rng = np.random.default_rng(100 * num_qubits + batched)
        offset = int(batched)
        shape = (3,) * offset + (2,) * num_qubits
        for k in range(1, min(3, num_qubits) + 1):
            for layout in ("c", "fortran", "conjugated", "real"):
                for _ in range(3):
                    tensor = _random_tensor(rng, shape)
                    before = tensor.copy()
                    matrix = _random_matrix(rng, k, layout)
                    axes = _target_axes(rng, num_qubits, k, offset)
                    out = contract(tensor, matrix, axes)
                    expected = apply_matrix_reference(tensor, matrix, axes)
                    assert out.flags.c_contiguous
                    assert np.array_equal(_bits(out), _bits(expected)), (k, layout, axes)
                    assert np.array_equal(_bits(tensor), _bits(before))

    def test_real_matrix_on_real_tensor_matches_the_oracle(self):
        """The readout correction's case: real inverses over real probabilities."""
        rng = np.random.default_rng(8)
        tensor = _random_tensor(rng, (2,) * 6, real=True)
        for axis in range(6):
            matrix = _random_matrix(rng, 1, "real")
            out = contract(tensor, matrix, (axis,))
            expected = apply_matrix_reference(tensor, matrix, [axis])
            assert out.dtype == np.float64
            assert np.array_equal(_bits(out), _bits(expected))
            tensor = out

    @pytest.mark.parametrize("kind", ["permutation", "diagonal"])
    @pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
    def test_exact_strict_kernels_match_the_oracle(self, kind, batched):
        """Fast paths with ``±1``/``±i`` entries, up to gates covering every axis."""
        rng = np.random.default_rng(17 + batched)
        offset = int(batched)
        factory = _exact_permutation if kind == "permutation" else _exact_diagonal
        for num_qubits in range(1, 9):
            shape = (3,) * offset + (2,) * num_qubits
            for k in range(1, min(3, num_qubits) + 1):
                for _ in range(3):
                    matrix = factory(rng, k)
                    kernel = analyze_matrix(matrix)
                    assert kernel.kind == kind and kernel.exact_compatible
                    tensor = _random_tensor(rng, shape)
                    axes = _target_axes(rng, num_qubits, k, offset)
                    out = apply_kernel(tensor, kernel, axes, strict=True, in_place=False)
                    expected = apply_matrix_reference(tensor, matrix, axes)
                    assert np.array_equal(_bits(out), _bits(expected)), (num_qubits, axes)


class TestPhasedPermutationOnEveryQubit:
    """A phased permutation gate covering every axis of an unbatched state."""

    CASES = [("y", 1), ("cy", 2), ("iswap", 2)]

    @staticmethod
    def _circuit(name: str, num_qubits: int, measure: bool = False) -> Circuit:
        circuit = Circuit(num_qubits, num_qubits if measure else 0)
        for qubit in range(num_qubits):
            circuit.rx(0.3 + qubit, qubit)
        circuit.add_gate(name, list(range(num_qubits)))
        if measure:
            circuit.measure_all()
        return circuit

    @pytest.mark.parametrize("name,num_qubits", CASES)
    def test_final_statevector(self, name, num_qubits):
        circuit = self._circuit(name, num_qubits)
        assert np.array_equal(final_statevector(circuit), _reference_statevector(circuit))

    @pytest.mark.parametrize("name,num_qubits", CASES)
    def test_noiseless_run(self, name, num_qubits):
        circuit = self._circuit(name, num_qubits, measure=True)
        counts = StatevectorSimulator(seed=5).run(circuit, shots=200)
        qubits = list(range(num_qubits))
        expected = sample_statevector(
            _reference_statevector(circuit), 200, qubits, qubits, num_qubits,
            np.random.default_rng(5),
        )
        assert dict(counts) == dict(expected)

    @pytest.mark.parametrize("name,num_qubits", CASES)
    def test_apply_unitary(self, name, num_qubits):
        rng = np.random.default_rng(3)
        state = _random_tensor(rng, (1 << num_qubits,))
        matrix = gate_matrix(name)
        targets = list(range(num_qubits))
        out = apply_unitary(state, matrix, targets, num_qubits)
        axes = [qubit_axis(q, num_qubits) for q in targets]
        expected = apply_matrix_reference(state.reshape((2,) * num_qubits), matrix, axes)
        assert np.array_equal(_bits(out), _bits(expected).reshape(-1))


class TestFusion:
    def test_adjacent_single_qubit_gates_merge(self):
        ops = [(gate_matrix("h"), (0,)), (gate_matrix("t"), (0,)), (gate_matrix("x"), (1,))]
        fused = fuse_operations(ops)
        assert len(fused) == 2
        by_qubit = {f.qubits: f.matrix for f in fused}
        assert np.allclose(by_qubit[(0,)], gate_matrix("t") @ gate_matrix("h"))

    def test_single_qubit_absorbed_into_two_qubit(self):
        ops = [(gate_matrix("h"), (0,)), (gate_matrix("cx"), (0, 1))]
        fused = fuse_operations(ops)
        assert len(fused) == 1
        assert fused[0].qubits == (0, 1)
        expected = gate_matrix("cx") @ np.kron(gate_matrix("h"), np.eye(2))
        assert np.allclose(fused[0].matrix, expected)

    def test_same_pair_two_qubit_gates_merge_with_reordering(self):
        ops = [(gate_matrix("cx"), (0, 1)), (gate_matrix("cx"), (1, 0))]
        fused = fuse_operations(ops)
        assert len(fused) == 1
        # Verify through full-state evolution instead of matrix juggling.
        probe = Circuit(2).h(0).cx(0, 1).cx(1, 0)
        assert np.allclose(
            final_statevector(probe, fuse=True), _reference_statevector(probe), atol=1e-10
        )

    def test_three_qubit_gates_flush_pending(self):
        ops = [(gate_matrix("h"), (0,)), (gate_matrix("ccx"), (0, 1, 2))]
        fused = fuse_operations(ops)
        assert [f.qubits for f in fused] == [(0,), (0, 1, 2)]

    def test_fuse_circuit_rejects_measurement(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            fuse_circuit(Circuit(1, 1).h(0).measure(0, 0))

    @given(num_qubits=st.integers(3, 6), num_gates=st.integers(5, 30), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_fused_evolution_matches_reference(self, num_qubits, num_gates, seed):
        """Property: fused/specialised kernels == reference apply on random circuits."""
        circuit = _random_circuit(num_qubits, num_gates, seed)
        reference = _reference_statevector(circuit)
        fused = final_statevector(circuit, fuse=True)
        specialised = final_statevector(circuit, fuse=False)
        assert np.allclose(fused, reference, atol=1e-10)
        # The strict (unfused) path must preserve sampling bit-for-bit.
        assert np.array_equal(np.abs(specialised) ** 2, np.abs(reference) ** 2)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_fusion_reduces_operation_count(self, seed):
        circuit = _random_circuit(4, 24, seed)
        operations = [(i.gate.matrix(), i.qubits) for i in circuit if i.is_unitary()]
        assert len(fuse_operations(operations)) <= len(operations)


class TestGoldenBitIdentity:
    """The seeded noiseless sampling path is frozen: counts captured from the
    pre-kernel implementation must reproduce exactly, bit for bit."""

    def test_noiseless_counts_match_golden(self):
        from repro.benchmarks import (
            GHZBenchmark,
            HamiltonianSimulationBenchmark,
            VanillaQAOABenchmark,
        )
        from repro.circuits.random_circuits import quantum_volume_circuit

        golden = json.loads(GOLDEN.read_text())
        cases = {
            "ghz4_seed7": (GHZBenchmark(4).circuits()[0], 7, 300),
            "qaoa4_seed11": (VanillaQAOABenchmark(4, seed=0).circuits()[0], 11, 300),
            "hamsim4_seed3": (HamiltonianSimulationBenchmark(4, steps=1).circuits()[0], 3, 300),
            "qv5_seed19": (quantum_volume_circuit(5, rng=3), 19, 400),
        }
        for name, (circuit, seed, shots) in cases.items():
            counts = StatevectorSimulator(seed=seed).run(circuit, shots=shots)
            assert dict(counts) == golden[name], name


class TestBatchedCollapse:
    def test_measure_batch_collapses_in_place(self):
        rng = np.random.default_rng(0)
        n, batch_size = 3, 16
        batch = rng.normal(size=(batch_size,) + (2,) * n) + 1j * rng.normal(
            size=(batch_size,) + (2,) * n
        )
        norms = np.sqrt((np.abs(batch) ** 2).reshape(batch_size, -1).sum(axis=1))
        batch /= norms.reshape(-1, 1, 1, 1)
        outcomes = measure_qubit_batch(batch, 1, n, rng)
        assert set(np.unique(outcomes)) <= {0, 1}
        flat = batch.reshape(batch_size, -1)
        for t in range(batch_size):
            for index in range(2**n):
                bit = (index >> 1) & 1
                if bit != outcomes[t]:
                    assert flat[t, index] == 0.0
            assert math.isclose(float((np.abs(flat[t]) ** 2).sum()), 1.0, rel_tol=1e-9)

    def test_reset_batch_forces_zero(self):
        rng = np.random.default_rng(1)
        n, batch_size = 2, 32
        plus = np.full((2,) * n, 0.5, dtype=complex)
        batch = np.broadcast_to(plus, (batch_size,) + plus.shape).copy()
        reset_qubit_batch(batch, 0, n, rng)
        flat = batch.reshape(batch_size, -1)
        for index in range(2**n):
            if index & 1:  # qubit 0 set
                assert np.all(flat[:, index] == 0.0)

    def test_sample_counts_array(self):
        rows = np.array([[0, 1], [0, 1], [1, 0], [0, 0]], dtype=np.uint8)
        assert sample_counts_array(rows, 2) == {"01": 2, "10": 1, "00": 1}

    def test_sample_counts_array_empty_register(self):
        assert sample_counts_array(np.zeros((5, 0), dtype=np.uint8), 0) == {"": 5}
