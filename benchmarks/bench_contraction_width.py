"""Wide-state timing of the dense gate contraction against the tensordot oracle.

``repro.simulation.kernels.contract`` inlines what ``np.tensordot`` plus
``np.moveaxis`` did (``apply_matrix_reference`` in ``tests/oracle.py``).  It
wins most at small states, where per-call argument handling dominates.  This
script checks that it is not slower where the arithmetic and memory traffic
dominate: a 1- and a 2-qubit gate on a middle axis of 16- and 20-qubit
states.  The two contractions run interleaved (alternating which goes first
each round), so drift on a shared host hits both alike.  Per case it prints
the median of each, the median of the per-round ratios and the rounds
``contract`` won, and it exits 1 when a median of ``contract`` is above the
oracle's.  Both make the same copies and the same ``np.dot`` call, so at 20
qubits they differ by far less than the run-to-run spread.

    PYTHONPATH=src python benchmarks/bench_contraction_width.py
"""

from __future__ import annotations

import pathlib
import statistics
import sys
import time

import numpy as np

from repro.simulation.kernels import contract

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracle import apply_matrix_reference  # noqa: E402  (the tensordot baseline lives with the tests)

#: Interleaved rounds per state width: about two seconds of calls per case.
ROUNDS = {16: 1001, 20: 101}


def _oracle(tensor: np.ndarray, matrix: np.ndarray, axes) -> np.ndarray:
    return np.ascontiguousarray(apply_matrix_reference(tensor, matrix, axes))


def interleaved_samples(num_qubits: int, k: int, rounds: int):
    """Per-round seconds of (contract, oracle) for a k-qubit gate on middle axes."""
    rng = np.random.default_rng(num_qubits + k)
    shape = (2,) * num_qubits
    tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    matrix = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    middle = num_qubits // 2
    axes = tuple(range(middle, middle + k))
    assert np.array_equal(contract(tensor, matrix, axes), _oracle(tensor, matrix, axes))
    samples = {contract: [], _oracle: []}
    for index in range(rounds):
        pair = (contract, _oracle) if index % 2 == 0 else (_oracle, contract)
        for function in pair:
            start = time.perf_counter()
            function(tensor, matrix, axes)
            samples[function].append(time.perf_counter() - start)
    return samples[contract], samples[_oracle]


def main() -> int:
    slower = 0
    for num_qubits, rounds in ROUNDS.items():
        for k in (1, 2):
            new, old = interleaved_samples(num_qubits, k, rounds)
            new_median, old_median = statistics.median(new), statistics.median(old)
            ratio = statistics.median(a / b for a, b in zip(new, old))
            wins = sum(a < b for a, b in zip(new, old))
            slower += new_median > old_median
            print(
                f"{num_qubits} qubits, {k}-qubit gate on a middle axis, {rounds} rounds: "
                f"contract {new_median * 1e3:.3f} ms, tensordot oracle {old_median * 1e3:.3f} ms "
                f"(ratio of medians {new_median / old_median:.3f}, median per-round ratio "
                f"{ratio:.3f}, contract faster in {wins})"
            )
    return 1 if slower else 0


if __name__ == "__main__":
    sys.exit(main())
