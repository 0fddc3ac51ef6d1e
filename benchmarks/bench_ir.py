"""Columnar-IR benchmarks and the committed perf baseline.

Three targets, all on brickwork circuits (alternating single-qubit rotation
and neighbour-``rzz`` layers plus a terminal measurement of every qubit —
the structure of the scaling-suite workloads):

* ``pack_cost`` — absolute cost of a circuit's first ``Circuit.packed()``,
  which freezes its appended rows into a
  :class:`~repro.circuits.columnar.PackedCircuit` (the one-time price every
  packed consumer amortises), plus the warm accessor showing the cache
  makes repeat consumers free.
* ``feature_extraction`` — the pre-packed single-pass object walk (kept in
  this file so the comparison survives the refactor it measures) vs
  :func:`repro.features.packed_profile` at 100 / 1 000 / 10 000 qubits.
  The acceptance floor is the ISSUE's >= 5x at 1 000 qubits.
* ``fingerprint`` — the v1 per-instruction ``repr()`` fingerprint vs the v2
  packed-buffer hash on a 100-qubit / 10 000-gate circuit (warm pack: the
  fingerprint consumer shares the cached pack with every other consumer).
  The acceptance floor is the ISSUE's >= 10x.

Running under pytest asserts the floors and — when ``BENCH_ir.json``
exists — that speedups have not regressed more than 30% against the
committed baseline's gate values (ratios, not absolute seconds; gate values
are capped at a multiple of the floor to absorb cross-machine variance).
The two sides of each speedup are timed interleaved
(:func:`timing.time_interleaved`), so host drift during a run meets both
alike instead of moving the ratio.

``REPRO_BENCH_QUICK=1`` shrinks the workload (used by the CI smoke job).
Regenerate the committed baseline with::

    PYTHONPATH=src python benchmarks/bench_ir.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.circuits import Circuit
from repro.execution import circuit_fingerprint
from repro.features import packed_profile
from timing import time_best_of, time_interleaved

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_ir.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
REGRESSION_TOLERANCE = 0.7

MODE = "quick" if QUICK else "full"
#: Brickwork widths per mode; the 1 000-qubit point carries the floor.
FEATURE_SIZES = {"full": (100, 1000, 10000), "quick": (100, 1000)}
#: Layer count per width (kept shallow at 10k qubits so the legacy walk
#: stays benchmarkable; the per-row work is width-independent).
FEATURE_LAYERS = {100: 40, 1000: 40, 10000: 8}
FLOOR_SIZE = 1000

FINGERPRINT_QUBITS = 100
FINGERPRINT_MIN_GATES = 10_000


def brickwork_circuit(num_qubits: int, layers: int) -> Circuit:
    """Alternating rx / neighbour-rzz layers, terminally measured."""
    circuit = Circuit(num_qubits, num_qubits, name=f"brickwork{num_qubits}")
    for layer in range(layers):
        if layer % 2 == 0:
            for q in range(num_qubits):
                circuit.rx(0.1 + 0.01 * (q % 7), q)
        else:
            offset = (layer // 2) % 2
            for q in range(offset, num_qubits - 1, 2):
                circuit.rzz(0.2 + 0.01 * (q % 5), q, q + 1)
    return circuit.measure_all()


# ---------------------------------------------------------------------------
# legacy (pre-packed) implementations, frozen here for comparison
# ---------------------------------------------------------------------------


def legacy_profile(circuit: Circuit) -> Tuple:
    """The pre-packed single-pass extractor: one walk over Instruction objects.

    Returns the nine scalar profile fields plus the per-moment histogram, in
    :class:`~repro.features.features.CircuitProfile` field order, so the
    bench can assert exact parity against the packed extractor.
    """
    n = circuit.num_qubits
    frontier = [0] * n
    chain_length = [0] * n
    chain_two_qubit = [0] * n
    best_length = 0
    best_two_qubit = 0
    edges = set()
    two_qubit_operations = 0
    qubit_touches = 0
    levels: List[int] = []
    measure_records: List[Tuple[int, int, int]] = []
    reset_levels: List[int] = []

    for instruction in circuit:
        qubits = instruction.qubits
        name = instruction.gate.name
        if name == "barrier":
            if qubits:
                level = max(frontier[q] for q in qubits)
                for q in qubits:
                    frontier[q] = level
            continue
        num_operands = len(qubits)
        is_multi = num_operands >= 2 and name != "measure" and name != "reset"
        if num_operands == 1:
            q0 = qubits[0]
            level = frontier[q0]
            length_here = chain_length[q0] + 1
            two_qubit_here = chain_two_qubit[q0]
            frontier[q0] = level + 1
            chain_length[q0] = length_here
            chain_two_qubit[q0] = two_qubit_here
        else:
            level = max(frontier[q] for q in qubits)
            pred_length = 0
            pred_two_qubit = 0
            for q in qubits:
                if chain_length[q] > pred_length or (
                    chain_length[q] == pred_length and chain_two_qubit[q] > pred_two_qubit
                ):
                    pred_length = chain_length[q]
                    pred_two_qubit = chain_two_qubit[q]
            length_here = pred_length + 1
            two_qubit_here = pred_two_qubit + 1 if is_multi else pred_two_qubit
            if is_multi:
                two_qubit_operations += 1
                for i in range(num_operands - 1):
                    for j in range(i + 1, num_operands):
                        a, b = qubits[i], qubits[j]
                        edges.add((a, b) if a < b else (b, a))
            next_level = level + 1
            for q in qubits:
                frontier[q] = next_level
                chain_length[q] = length_here
                chain_two_qubit[q] = two_qubit_here
        levels.append(level)
        qubit_touches += num_operands
        if length_here > best_length or (
            length_here == best_length and two_qubit_here > best_two_qubit
        ):
            best_length = length_here
            best_two_qubit = two_qubit_here
        if name == "reset":
            reset_levels.append(level)
        elif name == "measure":
            measure_records.append((qubits[0], length_here, level))

    level_array = np.asarray(levels, dtype=np.int64)
    depth = int(level_array.max()) + 1 if level_array.size else 0
    moment_operations = (
        np.bincount(level_array, minlength=depth) if depth else np.zeros(0, dtype=np.int64)
    )
    collapse_level_list = list(reset_levels)
    for qubit, length_at_measure, level in measure_records:
        if chain_length[qubit] > length_at_measure:
            collapse_level_list.append(level)
    collapse_layers = int(np.unique(np.asarray(collapse_level_list, dtype=np.int64)).size)
    return (
        n,
        depth,
        int(level_array.size),
        two_qubit_operations,
        len(edges),
        qubit_touches,
        best_length,
        best_two_qubit,
        collapse_layers,
        moment_operations.tolist(),
    )


def legacy_fingerprint(circuit: Circuit) -> str:
    """The v1 fingerprint: one sha1 update per instruction over repr() text."""
    hasher = hashlib.sha1()
    hasher.update(f"{circuit.num_qubits},{circuit.num_clbits};".encode())
    for instruction in circuit:
        hasher.update(instruction.gate.name.encode())
        hasher.update(repr(instruction.gate.params).encode())
        hasher.update(repr(instruction.qubits).encode())
        hasher.update(repr(instruction.clbits).encode())
        hasher.update(b"|")
    return hasher.hexdigest()


def _profile_tuple(profile) -> Tuple:
    return (
        profile.num_qubits,
        profile.depth,
        profile.total_operations,
        profile.two_qubit_operations,
        profile.interaction_edges,
        profile.qubit_touches,
        profile.critical_length,
        profile.critical_two_qubit,
        profile.collapse_layers,
        profile.moment_operations.tolist(),
    )


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def _first_pack_seconds(circuit: Circuit) -> float:
    start = time.perf_counter()
    circuit.packed()
    return time.perf_counter() - start


def measure_pack_cost() -> Dict[str, float]:
    # A circuit packs once, so each cold sample is the first packed() of a
    # fresh circuit, built outside the timer; the last one stays warm.
    circuits = [brickwork_circuit(1000, FEATURE_LAYERS[1000]) for _ in range(3)]
    cold = min(_first_pack_seconds(circuit) for circuit in circuits)
    circuit = circuits[-1]
    warm = time_best_of(lambda: circuit.packed(), 3)
    rows = len(circuit)
    return {
        "rows": rows,
        "cold_seconds": cold,
        "rows_per_second": rows / cold,
        "warm_accessor_seconds": warm,
        "warm_speedup": cold / warm,
    }


def measure_feature_extraction() -> Dict[str, Dict[str, float]]:
    sizes = {}
    for num_qubits in FEATURE_SIZES[MODE]:
        circuit = brickwork_circuit(num_qubits, FEATURE_LAYERS[num_qubits])
        packed = circuit.packed()
        expected = legacy_profile(circuit)
        observed = _profile_tuple(packed_profile(packed))
        assert observed == expected, f"packed profile drifted at {num_qubits} qubits"
        legacy, fast = time_interleaved(
            [lambda: legacy_profile(circuit), lambda: packed_profile(packed)]
        )
        sizes[str(num_qubits)] = {
            "rows": len(circuit),
            "legacy_seconds": legacy,
            "packed_seconds": fast,
            "speedup": legacy / fast,
        }
    return {"sizes": sizes}


def measure_fingerprint() -> Dict[str, float]:
    layers = 0
    circuit = brickwork_circuit(FINGERPRINT_QUBITS, layers)
    while len(circuit) < FINGERPRINT_MIN_GATES:
        layers += 20
        circuit = brickwork_circuit(FINGERPRINT_QUBITS, layers)
    circuit.packed()  # warm: every consumer shares the cached pack
    assert circuit_fingerprint(circuit) == circuit_fingerprint(circuit.copy())
    legacy, packed = time_interleaved(
        [lambda: legacy_fingerprint(circuit), lambda: circuit_fingerprint(circuit)]
    )
    return {
        "rows": len(circuit),
        "num_qubits": FINGERPRINT_QUBITS,
        "legacy_seconds": legacy,
        "packed_seconds": packed,
        "speedup": legacy / packed,
    }


MEASUREMENTS = {
    "pack_cost": measure_pack_cost,
    "feature_extraction": measure_feature_extraction,
    "fingerprint": measure_fingerprint,
}

#: Hard acceptance floors (both modes include the 1 000-qubit point).
SPEEDUP_FLOORS = {
    "full": {"feature_extraction": 5.0, "fingerprint": 10.0},
    "quick": {"feature_extraction": 5.0, "fingerprint": 10.0},
}
#: Packing is a linear python loop; it must stay clearly cheaper than the
#: walks it replaces (rows per second of the cold pack).
PACK_FLOOR_ROWS_PER_SECOND = 50_000.0

#: The baseline's gate value is the measured speedup capped at this multiple
#: of the floor, absorbing cross-machine ratio variance.
GATE_CAP_MULTIPLIER = 5.0


def _baseline() -> Dict[str, Dict[str, float]] | None:
    if not BASELINE_PATH.exists():
        return None
    data = json.loads(BASELINE_PATH.read_text())
    return data.get("results", {}).get(MODE)


def test_pack_cost():
    result = measure_pack_cost()
    print(
        f"\npack_cost [{MODE}]: {result['rows']} rows in {result['cold_seconds']:.4f}s "
        f"({result['rows_per_second']:.0f} rows/s; warm accessor "
        f"{result['warm_accessor_seconds'] * 1e6:.1f}us, {result['warm_speedup']:.0f}x)"
    )
    assert result["rows_per_second"] >= PACK_FLOOR_ROWS_PER_SECOND
    assert result["warm_accessor_seconds"] < result["cold_seconds"]


def test_feature_extraction_speedup():
    result = measure_feature_extraction()
    floor = SPEEDUP_FLOORS[MODE]["feature_extraction"]
    for size, point in sorted(result["sizes"].items(), key=lambda kv: int(kv[0])):
        print(
            f"\nfeature_extraction [{MODE}] {size}q/{point['rows']} rows: "
            f"legacy {point['legacy_seconds']:.4f}s -> packed "
            f"{point['packed_seconds']:.4f}s ({point['speedup']:.1f}x)"
        )
    gated = result["sizes"][str(FLOOR_SIZE)]
    assert gated["speedup"] >= floor, (
        f"feature extraction at {FLOOR_SIZE}q: {gated['speedup']:.1f}x under floor {floor}x"
    )
    baseline = _baseline()
    if baseline and "feature_extraction" in baseline:
        committed = baseline["feature_extraction"].get("gate_speedup")
        if committed:
            assert gated["speedup"] >= REGRESSION_TOLERANCE * committed, (
                f"feature_extraction: {gated['speedup']:.1f}x regressed more than "
                f"{(1 - REGRESSION_TOLERANCE):.0%} vs committed gate {committed:.1f}x"
            )


def test_fingerprint_speedup():
    result = measure_fingerprint()
    floor = SPEEDUP_FLOORS[MODE]["fingerprint"]
    print(
        f"\nfingerprint [{MODE}] {result['num_qubits']}q/{result['rows']} rows: "
        f"legacy {result['legacy_seconds'] * 1e3:.2f}ms -> packed "
        f"{result['packed_seconds'] * 1e3:.2f}ms ({result['speedup']:.1f}x, floor {floor}x)"
    )
    assert result["speedup"] >= floor
    baseline = _baseline()
    if baseline and "fingerprint" in baseline:
        committed = baseline["fingerprint"].get("gate_speedup")
        if committed:
            assert result["speedup"] >= REGRESSION_TOLERANCE * committed, (
                f"fingerprint: {result['speedup']:.1f}x regressed more than "
                f"{(1 - REGRESSION_TOLERANCE):.0%} vs committed gate {committed:.1f}x"
            )


def write_baseline() -> None:
    """Measure both modes and (re)write the committed baseline file."""
    global MODE
    results = {}
    for mode in ("full", "quick"):
        MODE = mode
        results[mode] = {name: fn() for name, fn in sorted(MEASUREMENTS.items())}
        feature = results[mode]["feature_extraction"]
        cap = GATE_CAP_MULTIPLIER * SPEEDUP_FLOORS[mode]["feature_extraction"]
        feature["gate_speedup"] = min(
            feature["sizes"][str(FLOOR_SIZE)]["speedup"], cap
        )
        fingerprint = results[mode]["fingerprint"]
        cap = GATE_CAP_MULTIPLIER * SPEEDUP_FLOORS[mode]["fingerprint"]
        fingerprint["gate_speedup"] = min(fingerprint["speedup"], cap)
        print(
            f"[{mode}] feature_extraction@{FLOOR_SIZE}q "
            f"{feature['sizes'][str(FLOOR_SIZE)]['speedup']:.1f}x "
            f"(gate {feature['gate_speedup']:.1f}x); "
            f"fingerprint {fingerprint['speedup']:.1f}x "
            f"(gate {fingerprint['gate_speedup']:.1f}x)"
        )
    payload = {
        "schema": 1,
        "note": (
            "Committed columnar-IR baseline. Regenerate with "
            "`PYTHONPATH=src python benchmarks/bench_ir.py --write`. "
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
