"""Simulation-kernel benchmarks and the committed perf baseline.

Three targets, each measured against a faithful re-implementation of the
pre-kernel-layer code path (kept in this file so the comparison survives the
refactor it measures):

* ``statevector`` — per-gate tensordot evolution (``apply_matrix_reference``
  from the ``tests/oracle.py`` baseline) vs fused/specialised kernels;
* ``trajectories`` — the historical one-full-evolution-per-shot noisy loop vs
  the batched ``(T, 2**n)`` trajectory array;
* ``density_matrix`` — the historical per-column Python loop vs tensorised
  ket/bra contraction.

Running under pytest asserts the acceptance floors (>=10x batched
trajectories, >=20x density matrix) and — when ``BENCH_simulation.json``
exists — that the measured *speedup ratios* have not regressed more than 30%
against the committed baseline's ``gate_speedup``.  Ratios, not absolute
throughput, are compared so the gate is meaningful on CI runners of
different speeds, and the gate value is the measured speedup capped at a
multiple of the acceptance floor: the raw measured ratios (hundreds of x)
shift with host BLAS/memory characteristics, while a capped gate still
catches the failure mode that matters — losing vectorization collapses the
ratio to single digits.  Raw measurements are recorded alongside for trend
tracking.

``REPRO_BENCH_QUICK=1`` shrinks the workload (used by the CI smoke job).
Regenerate the committed baseline with::

    PYTHONPATH=src python benchmarks/bench_simulation_kernels.py --write
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Callable, Dict

import numpy as np
import pytest

from repro.benchmarks import GHZBenchmark, VanillaQAOABenchmark
from repro.circuits.random_circuits import quantum_volume_circuit
from repro.simulation import DensityMatrixSimulator, NoiseModel, StatevectorSimulator
from repro.simulation.kernels import qubit_axis
from repro.simulation.statevector import _terminal_measurements, final_statevector

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracle import apply_matrix_reference  # noqa: E402  (the tensordot baseline lives with the tests)

BASELINE_PATH = ROOT / "BENCH_simulation.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
#: A measured speedup may drop to this fraction of the baseline before the
#: regression gate fails (the ISSUE's 30% budget).
REGRESSION_TOLERANCE = 0.7

MODE = "quick" if QUICK else "full"
#: Workload knobs per mode: (qubits, shots, legacy trajectory sample).
TRAJECTORY_CONFIG = {"full": (8, 1024, 64), "quick": (6, 256, 32)}
DENSITY_QUBITS = {"full": 9, "quick": 6}
#: Evolution uses >=11 qubits even in quick mode: smaller states make the
#: fused-vs-legacy ratio dominated by Python overhead and noisy on shared
#: CI runners.
EVOLUTION_QUBITS = {"full": 12, "quick": 11}


def _time(function: Callable[[], object], repeats: int = 5) -> float:
    """Best-of-N wall time of ``function`` (one warmup call)."""
    function()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# legacy (pre-kernel-layer) reference implementations
# ---------------------------------------------------------------------------


def _legacy_apply(state: np.ndarray, matrix: np.ndarray, qubits, num_qubits: int) -> np.ndarray:
    psi = state.reshape((2,) * num_qubits)
    axes = [qubit_axis(q, num_qubits) for q in qubits]
    return np.ascontiguousarray(apply_matrix_reference(psi, matrix, axes)).reshape(-1)


def legacy_statevector_evolution(circuit) -> np.ndarray:
    """Per-gate tensordot evolution (what final_statevector used to do)."""
    num_qubits = circuit.num_qubits
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    for instruction in circuit:
        if not instruction.is_unitary():
            continue
        state = _legacy_apply(state, instruction.gate.matrix(), instruction.qubits, num_qubits)
    return state


def legacy_trajectory_run(circuit, noise_model, shots: int, seed: int) -> Dict[str, int]:
    """One full statevector evolution per shot with per-channel Kraus sampling."""
    rng = np.random.default_rng(seed)
    num_qubits = circuit.num_qubits
    terminal = _terminal_measurements(circuit)
    instructions = list(circuit)
    counts: Dict[str, int] = {}
    for _ in range(shots):
        state = np.zeros(2**num_qubits, dtype=complex)
        state[0] = 1.0
        for index, instruction in enumerate(instructions):
            if instruction.is_barrier():
                continue
            if instruction.is_measurement():
                if index in terminal:
                    continue
                raise NotImplementedError("benchmark circuits have terminal measurements only")
            state = _legacy_apply(
                state, instruction.gate.matrix(), instruction.qubits, num_qubits
            )
            for channel, qubits in noise_model.gate_channels(instruction):
                candidates = []
                weights = []
                for operator in channel.kraus_operators:
                    candidate = _legacy_apply(state, operator, qubits, num_qubits)
                    weight = float(np.vdot(candidate, candidate).real)
                    candidates.append(candidate)
                    weights.append(max(weight, 0.0))
                probabilities = np.array(weights) / sum(weights)
                choice = int(rng.choice(len(candidates), p=probabilities))
                state = candidates[choice] / np.sqrt(weights[choice])
        probabilities = np.abs(state) ** 2
        probabilities /= probabilities.sum()
        sample = int(rng.choice(len(probabilities), p=probabilities))
        key = "".join("1" if (sample >> q) & 1 else "0" for q in range(num_qubits))
        counts[key] = counts.get(key, 0) + 1
    return counts


def legacy_density_evolution(circuit, noise_model) -> np.ndarray:
    """Column-by-column density-matrix evolution (the old _apply_operator_left)."""
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits

    def apply_left(rho, operator, qubits):
        return np.column_stack(
            [_legacy_apply(rho[:, column], operator, qubits, num_qubits) for column in range(dim)]
        )

    def apply_kraus(rho, operators, qubits):
        result = np.zeros_like(rho)
        for operator in operators:
            left = apply_left(rho, operator, qubits)
            result += apply_left(left.conj().T, operator, qubits).conj().T
        return result

    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for instruction in circuit:
        if not instruction.is_unitary():
            continue
        rho = apply_kraus(rho, [instruction.gate.matrix()], instruction.qubits)
        for channel, qubits in noise_model.gate_channels(instruction):
            rho = apply_kraus(rho, channel.kraus_operators, qubits)
    return rho


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def measure_statevector_evolution() -> Dict[str, float]:
    num_qubits = EVOLUTION_QUBITS[MODE]
    circuit = quantum_volume_circuit(num_qubits, rng=0, measure=False)
    legacy = _time(lambda: legacy_statevector_evolution(circuit))
    fused = _time(lambda: final_statevector(circuit, fuse=True))
    return {
        "legacy_seconds": legacy,
        "kernel_seconds": fused,
        "speedup": legacy / fused,
        "qubits": num_qubits,
    }


def measure_batched_trajectories() -> Dict[str, float]:
    num_qubits, shots, legacy_shots = TRAJECTORY_CONFIG[MODE]
    circuit = VanillaQAOABenchmark(num_qubits, seed=0).circuits()[0]
    model = NoiseModel.uniform(num_qubits, error_1q=0.001, error_2q=0.01, readout_error=0.02)
    # The legacy loop is linear in shots; time a sample and scale.
    legacy_sample = _time(lambda: legacy_trajectory_run(circuit, model, legacy_shots, 1), repeats=1)
    legacy = legacy_sample * (shots / legacy_shots)

    def batched():
        return StatevectorSimulator(noise_model=model, seed=1).run(circuit, shots=shots)

    new = _time(batched)
    return {
        "legacy_seconds": legacy,
        "kernel_seconds": new,
        "speedup": legacy / new,
        "qubits": num_qubits,
        "shots": shots,
    }


def measure_density_matrix() -> Dict[str, float]:
    num_qubits = DENSITY_QUBITS[MODE]
    circuit = GHZBenchmark(num_qubits).circuits()[0]
    model = NoiseModel.uniform(num_qubits, error_1q=0.001, error_2q=0.01, readout_error=0.02)
    legacy = _time(lambda: legacy_density_evolution(circuit, model), repeats=1)

    def tensorised():
        return DensityMatrixSimulator(noise_model=model, seed=0).run(circuit, shots=1024)

    new = _time(tensorised)
    return {
        "legacy_seconds": legacy,
        "kernel_seconds": new,
        "speedup": legacy / new,
        "qubits": num_qubits,
    }


MEASUREMENTS = {
    "statevector_fused_evolution": measure_statevector_evolution,
    "batched_noisy_trajectories": measure_batched_trajectories,
    "density_matrix_evolution": measure_density_matrix,
}

#: Hard acceptance floors (speedup vs the legacy implementation).
SPEEDUP_FLOORS = {
    "full": {"batched_noisy_trajectories": 10.0, "density_matrix_evolution": 20.0,
             "statevector_fused_evolution": 1.2},
    "quick": {"batched_noisy_trajectories": 8.0, "density_matrix_evolution": 8.0,
              "statevector_fused_evolution": 1.0},
}

#: The baseline's gate value is the measured speedup capped at this multiple
#: of the floor, absorbing cross-machine ratio variance (see module docstring).
GATE_CAP_MULTIPLIER = 5.0


def _baseline() -> Dict[str, Dict[str, float]] | None:
    if not BASELINE_PATH.exists():
        return None
    data = json.loads(BASELINE_PATH.read_text())
    return data.get("results", {}).get(MODE)


@pytest.mark.parametrize("name", sorted(MEASUREMENTS))
def test_kernel_speedup(name):
    result = MEASUREMENTS[name]()
    floor = SPEEDUP_FLOORS[MODE][name]
    print(
        f"\n{name} [{MODE}]: legacy {result['legacy_seconds']:.3f}s -> "
        f"kernels {result['kernel_seconds']:.3f}s ({result['speedup']:.1f}x, floor {floor}x)"
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


def write_baseline() -> None:
    """Measure both modes and (re)write the committed baseline file."""
    global MODE
    results = {}
    for mode in ("full", "quick"):
        MODE = mode
        results[mode] = {name: fn() for name, fn in sorted(MEASUREMENTS.items())}
        for name, result in results[mode].items():
            cap = GATE_CAP_MULTIPLIER * SPEEDUP_FLOORS[mode][name]
            result["gate_speedup"] = min(result["speedup"], cap)
            print(f"[{mode}] {name}: {result['speedup']:.1f}x (gate {result['gate_speedup']:.1f}x)")
    payload = {
        "schema": 1,
        "note": (
            "Committed simulation-kernel baseline. Regenerate with "
            "`PYTHONPATH=src python benchmarks/bench_simulation_kernels.py --write`. "
            "The CI gate compares speedup ratios (machine-independent), not "
            "absolute seconds."
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
