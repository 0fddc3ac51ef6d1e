"""Bit-parity of the VQE and QAOA measured energies with their inline loops.

VQE reads its energy through the TFIM's ``zz_terms()`` and ``x_terms()``
(``PauliSum.expectation_from_group_counts``), and both QAOAs through
``SKModel.expectation_from_counts``, ZZ-SWAP after reading each key in
logical qubit order.  The loops these replaced live in ``tests/oracle.py``;
the score is computed from the exact floats, so they compare with ``==``,
over raw counts and over mitigated quasi-distributions with negative
weights alike.
"""

import numpy as np
import pytest

import oracle
from repro.benchmarks import VQEBenchmark, VanillaQAOABenchmark, ZZSwapQAOABenchmark
from repro.circuits.columnar import OPCODES
from repro.exceptions import BenchmarkError
from repro.simulation import Counts, QuasiDistribution

#: Random distributions per instance: 4 VQE instances read pairs of them and
#: 10 QAOA instances single ones, about 200 in all.
VQE_PAIRS = 12
QAOA_DISTRIBUTIONS = 10


def random_distribution(rng: np.random.Generator, num_bits: int):
    """Counts (integer shots) or a quasi-distribution (signed weights)."""
    keys = {
        "".join(rng.choice(["0", "1"], size=num_bits))
        for _ in range(int(rng.integers(1, 2 * num_bits + 3)))
    }
    if rng.random() < 0.5:
        return Counts({key: int(rng.integers(1, 60)) for key in sorted(keys)})
    return QuasiDistribution({key: float(rng.normal(0.2, 0.4)) for key in sorted(keys)})


def swap_network_positions(circuit) -> list:
    """Where each logical qubit ends up: every ``zzswap`` exchanges two qubits' contents."""
    holder = list(range(circuit.num_qubits))  # position -> logical qubit there
    for _row, opcode, qubits, _params, _clbit in circuit.packed().iter_rows():
        if opcode == OPCODES["zzswap"]:
            a, b = qubits
            holder[a], holder[b] = holder[b], holder[a]
    positions = [0] * circuit.num_qubits
    for position, logical in enumerate(holder):
        positions[logical] = position
    return positions


@pytest.mark.parametrize("num_qubits", range(2, 15))
def test_zzswap_positions_follow_the_swap_network(num_qubits):
    benchmark = ZZSwapQAOABenchmark(num_qubits, seed=num_qubits)
    circuit = benchmark.ansatz(0.3, 0.2, measure=False)
    assert benchmark._logical_bit_positions() == swap_network_positions(circuit)


@pytest.mark.parametrize(
    "num_qubits, coupling, field", [(2, 1.0, 1.0), (4, 1.0, 1.0), (5, 0.7, 1.3), (7, 1.0, 0.45)]
)
def test_vqe_measured_energy_matches_the_inline_loop(num_qubits, coupling, field):
    benchmark = VQEBenchmark(num_qubits, coupling=coupling, field=field)
    rng = np.random.default_rng(num_qubits)
    for _ in range(VQE_PAIRS):
        z_counts = random_distribution(rng, num_qubits)
        x_counts = random_distribution(rng, num_qubits)
        expected = oracle.vqe_measured_energy(benchmark.model, z_counts, x_counts)
        assert benchmark.measured_energy(z_counts, x_counts) == expected


@pytest.mark.parametrize("num_qubits", [2, 4, 5, 7, 11])
@pytest.mark.parametrize("family", [VanillaQAOABenchmark, ZZSwapQAOABenchmark])
def test_qaoa_measured_energy_matches_the_inline_loop(family, num_qubits):
    benchmark = family(num_qubits, seed=num_qubits)
    if family is ZZSwapQAOABenchmark:
        positions = swap_network_positions(benchmark.ansatz(0.3, 0.2, measure=False))
    else:
        positions = list(range(num_qubits))
    rng = np.random.default_rng(100 + num_qubits)
    for _ in range(QAOA_DISTRIBUTIONS):
        counts = random_distribution(rng, num_qubits)
        expected = oracle.qaoa_measured_energy(benchmark.model, positions, counts)
        assert benchmark.measured_energy(counts) == expected


ZERO_TOTALS = [Counts(), Counts({"000": 0}), QuasiDistribution({"000": 0.5, "111": -0.5})]


@pytest.mark.parametrize("empty", ZERO_TOTALS, ids=["empty", "zero-shots", "quasi-zero-sum"])
def test_zero_total_raises_benchmark_error(empty):
    full = Counts({"010": 3, "111": 1})
    vqe = VQEBenchmark(3)
    for z_counts, x_counts in ((empty, full), (full, empty)):
        with pytest.raises(BenchmarkError, match="^empty counts$"):
            vqe.measured_energy(z_counts, x_counts)
    for family in (VanillaQAOABenchmark, ZZSwapQAOABenchmark):
        with pytest.raises(BenchmarkError, match="^empty counts$"):
            family(3).measured_energy(empty)
