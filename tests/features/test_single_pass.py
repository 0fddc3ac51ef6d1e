"""Guards for the single-pass feature extractor.

Three layers of protection against the rewrite drifting from the seed
per-feature implementations:

* golden feature vectors for one instance of each of the eight benchmark
  families, captured from the seed implementation at full float precision;
* exact (``==``, not approx) parity against reference implementations built
  on the object-walk oracle (interaction graph, ASAP moments, depth,
  two-qubit critical path, liveness matrix) over randomized circuits with
  mid-circuit measurement and reset;
* property tests: every feature in [0, 1], and parallelism monotone under
  moment-packing (serialising a circuit with barriers can only lower it).
"""

import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks import (
    BitCodeBenchmark,
    GHZBenchmark,
    HamiltonianSimulationBenchmark,
    MerminBellBenchmark,
    PhaseCodeBenchmark,
    VQEBenchmark,
    VanillaQAOABenchmark,
    ZZSwapQAOABenchmark,
)
from repro.circuits import Circuit, random_clifford_circuit
from repro.features import (
    FEATURE_NAMES,
    circuit_profile,
    compute_features,
    compute_features_many,
    parallelism,
)

# ---------------------------------------------------------------------------
# golden vectors (seed implementation, full float precision)
# ---------------------------------------------------------------------------

#: (program_communication, critical_depth, entanglement_ratio, parallelism,
#:  liveness, measurement) of each family's representative circuit, computed
#: with the seed per-feature implementation before the single-pass rewrite.
GOLDEN_FEATURES = {
    "ghz": (0.4, 1.0, 0.4, 0.16666666666666669, 0.4666666666666667, 0.0),
    "mermin_bell": (
        0.6666666666666666, 1.0, 0.18181818181818182,
        0.41666666666666663, 0.7222222222222222, 0.0,
    ),
    "bit_code": (0.4, 0.75, 0.4, 0.25, 0.56, 0.8),
    "phase_code": (
        0.4, 0.75, 0.25806451612903225,
        0.3035714285714286, 0.5571428571428572, 0.5714285714285714,
    ),
    "vanilla_qaoa": (
        1.0, 0.8333333333333334, 0.3333333333333333,
        0.4166666666666667, 0.75, 0.0,
    ),
    "zzswap_qaoa": (
        0.5, 0.6666666666666666, 0.3333333333333333,
        0.5238095238095238, 0.8571428571428571, 0.0,
    ),
    "vqe": (0.5, 1.0, 0.13043478260869565, 0.625, 0.8125, 0.0),
    "hamiltonian_simulation": (
        0.5, 1.0, 0.2727272727272727, 0.4000000000000001, 0.7, 0.0,
    ),
}

GOLDEN_INSTANCES = {
    "ghz": lambda: GHZBenchmark(5),
    "mermin_bell": lambda: MerminBellBenchmark(3),
    "bit_code": lambda: BitCodeBenchmark(3, 2),
    "phase_code": lambda: PhaseCodeBenchmark(3, 2),
    "vanilla_qaoa": lambda: VanillaQAOABenchmark(4),
    "zzswap_qaoa": lambda: ZZSwapQAOABenchmark(4),
    "vqe": lambda: VQEBenchmark(4, 1),
    "hamiltonian_simulation": lambda: HamiltonianSimulationBenchmark(4, steps=1),
}


@pytest.mark.parametrize("family", sorted(GOLDEN_FEATURES))
def test_golden_feature_vectors_bit_identical(family):
    benchmark = GOLDEN_INSTANCES[family]()
    got = tuple(float(v) for v in compute_features(benchmark.circuit()).as_array())
    assert got == GOLDEN_FEATURES[family]


# ---------------------------------------------------------------------------
# reference-implementation parity (seed structural queries and the oracle)
# ---------------------------------------------------------------------------


def reference_features(circuit):
    """The seed per-feature definitions, re-expressed on object walks that
    share no code with the packed profile — six independent traversals."""

    def clip(value):
        return float(min(max(value, 0.0), 1.0))

    n = circuit.num_qubits
    if n <= 1:
        communication = 0.0
    else:
        degree_sum = sum(dict(oracle.interaction_graph(circuit).degree()).values())
        communication = clip(degree_sum / (n * (n - 1)))

    total_two_qubit = circuit.num_two_qubit_gates()
    if total_two_qubit == 0:
        critical = 0.0
    else:
        on_path, _ = oracle.two_qubit_critical_path(circuit)
        critical = clip(on_path / total_two_qubit)

    total = circuit.num_gates(include_measurements=True)
    entanglement = clip(circuit.num_two_qubit_gates() / total) if total else 0.0

    depth = oracle.depth(circuit)
    if n <= 1 or depth == 0:
        parallel = 0.0
    else:
        parallel = clip((total / depth - 1.0) / (n - 1.0))

    matrix = oracle.liveness_matrix(circuit)
    live = clip(float(matrix.sum()) / matrix.size) if matrix.size else 0.0

    layers = oracle.circuit_moments(circuit)
    if not layers:
        measure = 0.0
    else:
        collapse = _mid_circuit_collapse_reference(circuit)
        with_collapse = sum(
            1 for layer in layers if any(id(op) in collapse for op in layer)
        )
        measure = clip(with_collapse / len(layers))

    return (communication, critical, entanglement, parallel, live, measure)


def _mid_circuit_collapse_reference(circuit):
    """The seed backward-pass mid-circuit collapse detection."""
    touched_later = set()
    collapse = set()
    for instruction in reversed(list(circuit)):
        if instruction.is_barrier():
            continue
        if instruction.is_reset():
            collapse.add(id(instruction))
            touched_later.update(instruction.qubits)
        elif instruction.is_measurement():
            if instruction.qubits[0] in touched_later:
                collapse.add(id(instruction))
            touched_later.add(instruction.qubits[0])
        else:
            touched_later.update(instruction.qubits)
    return collapse


def _messy_circuit(num_qubits, seed):
    """Random circuit with barriers, mid-circuit measurement and reset."""
    rng = np.random.default_rng(seed)
    circuit = random_clifford_circuit(num_qubits, 25, rng=seed)
    for _ in range(3):
        q = int(rng.integers(num_qubits))
        circuit.measure(q, q)
        if rng.random() < 0.5:
            circuit.reset(q)
        circuit.barrier(*range(int(rng.integers(1, num_qubits + 1))))
        circuit.h(int(rng.integers(num_qubits)))
    circuit.measure_all()
    return circuit


@given(num_qubits=st.integers(2, 6), seed=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_single_pass_matches_reference_exactly(num_qubits, seed):
    circuit = _messy_circuit(num_qubits, seed)
    got = tuple(float(v) for v in compute_features(circuit).as_array())
    assert got == reference_features(circuit)


@pytest.mark.parametrize(
    "circuit",
    [
        Circuit(3),
        Circuit(1).h(0),
        Circuit(2).barrier(),
        Circuit(2, 2).measure(0, 0).measure(1, 1),
        Circuit(2).reset(0),
        Circuit(3).ccx(0, 1, 2),
    ],
    ids=["empty", "single-qubit", "barrier-only", "measure-only", "reset-only", "toffoli"],
)
def test_edge_cases_match_reference(circuit):
    got = tuple(float(v) for v in compute_features(circuit).as_array())
    assert got == reference_features(circuit)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(num_qubits=st.integers(2, 6), seed=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_all_features_in_unit_interval(num_qubits, seed):
    vector = compute_features(_messy_circuit(num_qubits, seed)).as_array()
    assert np.all(vector >= 0.0)
    assert np.all(vector <= 1.0)


@given(num_qubits=st.integers(2, 6), seed=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_parallelism_monotone_under_moment_packing(num_qubits, seed):
    """Fully serialising a circuit (a barrier after every instruction) can
    only lower parallelism: same operations, at least as many moments."""
    packed = random_clifford_circuit(num_qubits, 20, rng=seed)
    serial = Circuit(packed.num_qubits, packed.num_clbits)
    for instruction in packed:
        serial.append(instruction)
        serial.barrier()
    assert parallelism(packed) >= parallelism(serial)
    packed_profile = circuit_profile(packed)
    serial_profile = circuit_profile(serial)
    assert serial_profile.depth >= packed_profile.depth
    assert serial_profile.total_operations == packed_profile.total_operations


# ---------------------------------------------------------------------------
# batched API and profile invariants
# ---------------------------------------------------------------------------


def test_compute_features_many_matches_single():
    circuits = [GOLDEN_INSTANCES[f]().circuit() for f in sorted(GOLDEN_FEATURES)]
    matrix = compute_features_many(circuits)
    assert matrix.shape == (len(circuits), len(FEATURE_NAMES))
    for row, circuit in zip(matrix, circuits):
        assert tuple(float(v) for v in row) == tuple(
            float(v) for v in compute_features(circuit).as_array()
        )


def test_compute_features_many_empty():
    assert compute_features_many([]).shape == (0, 6)


def test_profile_moment_accounting():
    circuit = GHZBenchmark(5).circuit()
    profile = circuit_profile(circuit)
    assert int(profile.moment_operations.sum()) == profile.total_operations
    assert len(profile.moment_operations) == profile.depth
    assert profile.depth == oracle.depth(circuit)
    assert profile.qubit_touches == int(oracle.liveness_matrix(circuit).sum())
