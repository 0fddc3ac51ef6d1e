"""Bit-parity of the VQE/QAOA classical objective with its dense reference.

The reference below computes the objective the direct way: the ansatz
evolved row by row through cached strict kernels, then one dense
``PauliString.matrix`` product and ``np.vdot`` per Hamiltonian term.  The
library's objective (uncached parameterised rows, bitmask Pauli actions)
must reproduce it exactly, not approximately: the optimiser's path, the
optimal parameters and every score downstream depend on those bits.
"""

import numpy as np
import pytest

from repro.circuits.columnar import BARRIER_OP, MEASURE_OP
from repro.paulis import PauliString, PauliSum
from repro.simulation.kernels import apply_kernel, kernel_for_operation, qubit_axis
from repro.suite import figure2_sweeps

VARIATIONAL_FAMILIES = ("vqe", "zzswap_qaoa", "vanilla_qaoa")
MAX_QUBITS = 7  # dense matrices beyond this make the reference slow


def reference_statevector(circuit) -> np.ndarray:
    num_qubits = circuit.num_qubits
    psi = np.zeros(2**num_qubits, dtype=complex)
    psi[0] = 1.0
    psi = psi.reshape((2,) * num_qubits)
    for _row, opcode, qubits, params, _clbit in circuit.packed().iter_rows():
        if opcode in (BARRIER_OP, MEASURE_OP):
            continue
        axes = [qubit_axis(q, num_qubits) for q in qubits]
        psi = apply_kernel(psi, kernel_for_operation(opcode, params), axes, strict=True)
    return np.ascontiguousarray(psi).reshape(-1)


def reference_expectation(hamiltonian: PauliSum, state: np.ndarray) -> float:
    num_qubits = int(np.log2(len(state)))
    value = 0.0 + 0.0j
    for term in hamiltonian:
        value += term.coefficient * np.vdot(state, term.pauli.matrix(num_qubits) @ state)
    return float(value.real)


def reference_qaoa_hamiltonian(benchmark) -> PauliSum:
    positions = benchmark._logical_bit_positions()
    terms = PauliSum()
    for (i, j), weight in benchmark.model.weights:
        terms.add_term(weight, PauliString.from_dict({positions[i]: "Z", positions[j]: "Z"}))
    return terms


def variational_specs():
    return [
        spec
        for sweep in figure2_sweeps(small=False, families=VARIATIONAL_FAMILIES)
        for spec in sweep.specs()
        if spec.as_kwargs()["num_qubits"] <= MAX_QUBITS
    ]


@pytest.mark.parametrize("spec", variational_specs(), ids=str)
def test_objective_matches_dense_reference_exactly(spec):
    benchmark = spec.build()
    rng = np.random.default_rng(2024)
    for _point in range(20):
        if spec.family == "vqe":
            parameters = rng.uniform(-np.pi, np.pi, size=benchmark.num_parameters)
            expected = reference_expectation(
                benchmark.model.hamiltonian(),
                reference_statevector(benchmark.ansatz(parameters)),
            )
            assert benchmark._energy(parameters) == expected
        else:
            gamma, beta = rng.uniform(-np.pi, np.pi, size=2)
            expected = reference_expectation(
                reference_qaoa_hamiltonian(benchmark),
                reference_statevector(benchmark.ansatz(gamma, beta, measure=False)),
            )
            assert benchmark._energy((gamma, beta)) == expected


def test_variational_specs_cover_every_family():
    assert {spec.family for spec in variational_specs()} == set(VARIATIONAL_FAMILIES)


@pytest.mark.parametrize("num_qubits", range(1, 9))
def test_expectation_matches_dense_accumulation_exactly(num_qubits):
    rng = np.random.default_rng(num_qubits)
    for _sum in range(10):
        hamiltonian = PauliSum()
        for _term in range(int(rng.integers(1, 12))):
            label = "".join(rng.choice(list("IXYZ"), size=num_qubits))
            hamiltonian.add_term(float(rng.normal()), PauliString.from_label(label))
        state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
        state /= np.linalg.norm(state)
        assert hamiltonian.expectation_from_statevector(state) == reference_expectation(
            hamiltonian, state
        )
