"""Mitigation benchmarks and the committed perf baseline.

Three targets, mirroring ``bench_simulation_kernels.py``'s ratio-based
gating (machine-independent ratios, not absolute seconds):

* ``calibration_estimation`` — vectorized tensored confusion-matrix
  estimation (`confusion_matrices_from_counts`) vs a naive per-key Python
  loop, on wide synthetic counts; the two millisecond-scale calls are timed
  interleaved, so host drift during the run meets both alike;
* ``correction_throughput`` — the axis-wise Kronecker correction of a batch
  of counts vs the naive dense approach (build the full ``2**n x 2**n``
  confusion matrix once, ``np.linalg.solve`` per counts object);
* ``zne_overhead`` — wall-clock cost of a (1x, 3x, 5x) folded ZNE suite
  relative to one raw execution.  This is an *overhead ceiling* gate, not a
  speedup floor: ZNE must stay close to the sum of its scale factors (9x
  here) — a blow-up signals folding gone quadratic or extrapolation
  dominating.

Running under pytest asserts the floors/ceilings and — when
``BENCH_mitigation.json`` exists — that the measured ratios have not
regressed more than 30% against the committed baseline.
``REPRO_BENCH_QUICK=1`` shrinks the workload (used by the CI smoke job).
Regenerate the committed baseline with::

    PYTHONPATH=src python benchmarks/bench_mitigation.py --write
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, List

import numpy as np
import pytest

from repro.benchmarks import GHZBenchmark
from repro.mitigation import ReadoutMitigator, ZNEMitigator, confusion_matrices_from_counts
from repro.simulation import Counts, NoiseModel, StatevectorSimulator
from timing import time_best_of, time_interleaved

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_mitigation.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
REGRESSION_TOLERANCE = 0.7

MODE = "quick" if QUICK else "full"
#: (bits, distinct strings) of the synthetic calibration counts.
CALIBRATION_CONFIG = {"full": (20, 20000), "quick": (16, 4000)}
#: (qubits, batch size) of the correction-throughput target.  Quick mode
#: keeps the 10-qubit register: smaller dense solves are too cheap for the
#: naive-vs-vectorized ratio to be meaningful.
CORRECTION_CONFIG = {"full": (10, 32), "quick": (10, 8)}
#: (qubits, shots, trajectories) of the ZNE-overhead target.
ZNE_CONFIG = {"full": (7, 2048, 64), "quick": (5, 512, 16)}
ZNE_SCALES = (1, 3, 5)


def _synthetic_counts(num_bits: int, distinct: int, rng: np.random.Generator) -> Counts:
    keys = {
        "".join("1" if (value >> bit) & 1 else "0" for bit in range(num_bits))
        for value in rng.integers(0, 2**num_bits, size=distinct, dtype=np.int64)
    }
    return Counts({key: int(rng.integers(1, 50)) for key in keys}, num_bits=num_bits)


# ---------------------------------------------------------------------------
# naive reference implementations
# ---------------------------------------------------------------------------


def naive_tensored_confusion(counts_list: List[Counts], num_qubits: int) -> np.ndarray:
    """Per-key Python-loop estimation (what a direct transcription would do)."""
    matrices = np.zeros((num_qubits, 2, 2))
    for prepared, counts in enumerate(counts_list):
        total = float(sum(counts.values()))
        for qubit in range(num_qubits):
            ones = sum(value for key, value in counts.items() if key[qubit] == "1")
            matrices[qubit, 1, prepared] = ones / total
            matrices[qubit, 0, prepared] = 1.0 - ones / total
    return matrices


def naive_dense_correction(
    counts_batch: List[Counts], kron_matrix: np.ndarray, num_bits: int
) -> List[np.ndarray]:
    """Correct each counts object against the pre-built dense confusion matrix."""
    corrected = []
    for counts in counts_batch:
        vector = np.zeros(2**num_bits)
        for key, value in counts.items():
            vector[int(key[::-1], 2)] = value
        vector /= vector.sum()
        corrected.append(np.linalg.solve(kron_matrix, vector))
    return corrected


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def measure_calibration_estimation() -> Dict[str, float]:
    num_bits, distinct = CALIBRATION_CONFIG[MODE]
    rng = np.random.default_rng(0)
    counts_list = [_synthetic_counts(num_bits, distinct, rng) for _ in range(2)]
    naive, vectorized = time_interleaved(
        [
            lambda: naive_tensored_confusion(counts_list, num_bits),
            lambda: confusion_matrices_from_counts(counts_list, num_bits, "tensored"),
        ]
    )
    return {
        "naive_seconds": naive,
        "vectorized_seconds": vectorized,
        "speedup": naive / vectorized,
        "bits": num_bits,
        "distinct": len(counts_list[0]),
    }


def measure_correction_throughput() -> Dict[str, float]:
    num_qubits, batch = CORRECTION_CONFIG[MODE]
    rng = np.random.default_rng(1)
    mitigator = ReadoutMitigator(method="tensored", correction="inverse")
    calibration = mitigator.calibration_from_counts(
        [
            Counts({"0" * num_qubits: 95, ("1" + "0" * (num_qubits - 1)): 5}),
            Counts({"1" * num_qubits: 95, ("0" + "1" * (num_qubits - 1)): 5}),
        ],
        num_qubits,
    )
    counts_batch = [_synthetic_counts(num_qubits, 200, rng) for _ in range(batch)]
    kron = np.array([[1.0]])
    for qubit in reversed(range(num_qubits)):  # index bit q = clbit q
        kron = np.kron(kron, calibration.matrices[qubit])
    naive = time_best_of(lambda: naive_dense_correction(counts_batch, kron, num_qubits), 3)
    vectorized = time_best_of(
        lambda: [
            mitigator.mitigate([counts], calibration=calibration) for counts in counts_batch
        ],
        3,
    )
    return {
        "naive_seconds": naive,
        "vectorized_seconds": vectorized,
        "speedup": naive / vectorized,
        "qubits": num_qubits,
        "batch": batch,
    }


def measure_zne_overhead() -> Dict[str, float]:
    num_qubits, shots, trajectories = ZNE_CONFIG[MODE]
    circuit = GHZBenchmark(num_qubits).circuits()[0]
    model = NoiseModel.uniform(num_qubits, error_1q=0.001, error_2q=0.01, readout_error=0.02)
    mitigator = ZNEMitigator(scale_factors=ZNE_SCALES)
    variants = mitigator.transform(circuit)

    def run(target) -> Counts:
        return StatevectorSimulator(
            noise_model=model, seed=2, trajectories=trajectories
        ).run(target, shots=shots)

    raw = time_best_of(lambda: run(circuit), 3)

    def zne() -> None:
        counts = [run(variant) for variant in variants]
        mitigator.mitigate(counts, circuit=circuit)

    mitigated = time_best_of(zne, 3)
    return {
        "raw_seconds": raw,
        "zne_seconds": mitigated,
        "overhead": mitigated / raw,
        "scale_sum": float(sum(ZNE_SCALES)),
        "qubits": num_qubits,
    }


MEASUREMENTS = {
    "calibration_estimation": measure_calibration_estimation,
    "correction_throughput": measure_correction_throughput,
    "zne_overhead": measure_zne_overhead,
}

#: Acceptance floors for the speedup targets (vs the naive implementation).
SPEEDUP_FLOORS = {
    "full": {"calibration_estimation": 3.0, "correction_throughput": 3.0},
    "quick": {"calibration_estimation": 2.0, "correction_throughput": 1.5},
}

#: ZNE must not cost more than this multiple of the scale-factor sum.
OVERHEAD_CEILING_MULTIPLIER = 2.0

#: The baseline's gate value caps the measured speedup at this multiple of
#: the floor (absorbs cross-machine ratio variance, cf. the kernel bench).
GATE_CAP_MULTIPLIER = 5.0


def _baseline() -> Dict[str, Dict[str, float]] | None:
    if not BASELINE_PATH.exists():
        return None
    data = json.loads(BASELINE_PATH.read_text())
    return data.get("results", {}).get(MODE)


@pytest.mark.parametrize("name", sorted(SPEEDUP_FLOORS["full"]))
def test_mitigation_speedup(name):
    result = MEASUREMENTS[name]()
    floor = SPEEDUP_FLOORS[MODE][name]
    print(
        f"\n{name} [{MODE}]: naive {result['naive_seconds']:.4f}s -> "
        f"vectorized {result['vectorized_seconds']:.4f}s "
        f"({result['speedup']:.1f}x, floor {floor}x)"
    )
    assert result["speedup"] >= floor, (
        f"{name}: speedup {result['speedup']:.1f}x below the {floor}x floor"
    )
    baseline = _baseline()
    if baseline and name in baseline:
        committed = baseline[name].get("gate_speedup", baseline[name]["speedup"])
        assert result["speedup"] >= REGRESSION_TOLERANCE * committed, (
            f"{name}: speedup {result['speedup']:.1f}x regressed more than "
            f"{(1 - REGRESSION_TOLERANCE):.0%} vs committed baseline gate {committed:.1f}x"
        )


def test_zne_overhead_bounded():
    result = measure_zne_overhead()
    ceiling = OVERHEAD_CEILING_MULTIPLIER * result["scale_sum"]
    print(
        f"\nzne_overhead [{MODE}]: raw {result['raw_seconds']:.4f}s -> "
        f"zne {result['zne_seconds']:.4f}s ({result['overhead']:.1f}x, ceiling {ceiling}x)"
    )
    assert result["overhead"] <= ceiling, (
        f"ZNE overhead {result['overhead']:.1f}x exceeds the {ceiling}x ceiling"
    )
    baseline = _baseline()
    if baseline and "zne_overhead" in baseline:
        committed = baseline["zne_overhead"].get(
            "gate_overhead", baseline["zne_overhead"]["overhead"]
        )
        assert result["overhead"] <= committed / REGRESSION_TOLERANCE, (
            f"ZNE overhead {result['overhead']:.1f}x regressed more than "
            f"{(1 / REGRESSION_TOLERANCE - 1):.0%} vs committed baseline gate {committed:.1f}x"
        )


def write_baseline() -> None:
    """Measure both modes and (re)write the committed baseline file."""
    global MODE
    results = {}
    for mode in ("full", "quick"):
        MODE = mode
        results[mode] = {name: fn() for name, fn in sorted(MEASUREMENTS.items())}
        for name, result in results[mode].items():
            if "speedup" in result:
                cap = GATE_CAP_MULTIPLIER * SPEEDUP_FLOORS[mode][name]
                result["gate_speedup"] = min(result["speedup"], cap)
                print(f"[{mode}] {name}: {result['speedup']:.1f}x "
                      f"(gate {result['gate_speedup']:.1f}x)")
            else:
                floor = result["scale_sum"]
                result["gate_overhead"] = max(result["overhead"], floor)
                print(f"[{mode}] {name}: {result['overhead']:.1f}x "
                      f"(gate {result['gate_overhead']:.1f}x)")
    payload = {
        "schema": 1,
        "note": (
            "Committed mitigation perf baseline. Regenerate with "
            "`PYTHONPATH=src python benchmarks/bench_mitigation.py --write`. "
            "The CI gate compares ratios (machine-independent), not absolute seconds."
        ),
        "results": results,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        write_baseline()
    else:
        for bench_name, measure in sorted(MEASUREMENTS.items()):
            outcome = measure()
            print(f"{bench_name}: {outcome}")
