"""Transpiler pass pipeline: per-pass timing and the committed perf baseline.

Two families of targets:

* pytest-benchmark timings of the preset pipelines over the small Fig. 2
  suite (per-pass breakdown, pipeline construction, warm cache lookups) —
  informational, run by the CI smoke job with ``--benchmark-disable``.
* ``pass_pipeline`` — the packed optimization passes (one
  :class:`PassManager` run) vs the object-walk oracle's plain chain of walks
  (``tests/oracle.py``) for the five-pass chain on a 1 000-gate circuit,
  gated against ``BENCH_transpiler.json``.  The measurement asserts
  gate-for-gate parity between the two before timing either, so the speedup
  can never be bought with a semantic drift.  The acceptance floor is >= 3x.

The gate compares speedup ratios (machine-independent), not absolute
seconds.  ``REPRO_BENCH_QUICK=1`` reduces timing repeats (CI quick mode).
Regenerate the committed baseline with::

    PYTHONPATH=src python benchmarks/bench_transpiler_passes.py --write
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import random
import sys
import time
from collections import defaultdict
from typing import Callable, Dict

import pytest

from repro.benchmarks import figure2_benchmarks
from repro.circuits import Circuit
from repro.devices import get_device
from repro.transpiler import (
    CancelAdjacentInverses,
    CommutingTwoQubitCancellation,
    DropNegligible,
    FuseSingleQubitRuns,
    MergeRotations,
    PassManager,
    preset_pipeline,
    transpile,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracle  # noqa: E402  (the object-walk baseline lives with the tests)

DEVICE = "IBM-Guadalupe-16Q"

BASELINE_PATH = ROOT / "BENCH_transpiler.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
MODE = "quick" if QUICK else "full"
REGRESSION_TOLERANCE = 0.7

PIPELINE_QUBITS = 16
PIPELINE_GATES = 1000
#: Timing repeats per mode (quick mode trades precision for CI latency).
PIPELINE_REPEATS = {"full": 7, "quick": 3}

#: Hard acceptance floor: packed pass pipeline >= 3x the object-walk oracle.
SPEEDUP_FLOORS = {"full": {"pass_pipeline": 3.0}, "quick": {"pass_pipeline": 3.0}}

#: The baseline's gate value is the measured speedup capped at this multiple
#: of the floor, absorbing cross-machine ratio variance.
GATE_CAP_MULTIPLIER = 5.0


def _time(function: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall time of ``function`` (one warmup call)."""
    function()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def optimization_circuit(
    num_qubits: int = PIPELINE_QUBITS, num_gates: int = PIPELINE_GATES, seed: int = 7
) -> Circuit:
    """Deterministic circuit exercising all five optimization passes.

    Mixes negligible rotations (DropNegligible), same-qubit rotation chains
    (MergeRotations), adjacent inverse pairs (CancelAdjacentInverses),
    ``cx`` pairs separated by commuting diagonal/X-axis gates
    (CommutingTwoQubitCancellation), and residual 1q runs
    (FuseSingleQubitRuns) — the post-routing shape the optimization stage of
    the preset pipelines actually sees.
    """
    rng = random.Random(seed)
    circuit = Circuit(num_qubits, name=f"optbench{num_qubits}x{num_gates}")
    inverse = {"s": "sdg", "t": "tdg", "sx": "sxdg", "h": "h", "x": "x", "z": "z"}
    while circuit.num_gates() < num_gates:
        draw = rng.random()
        q = rng.randrange(num_qubits)
        if draw < 0.2:
            circuit.rz(rng.choice([0.0, 1e-13, 2 * math.pi]), q)
        elif draw < 0.45:
            for _ in range(rng.randrange(2, 5)):
                circuit.rz(rng.uniform(-1, 1), q)
        elif draw < 0.6:
            gate = rng.choice(("s", "t", "sx", "h", "x", "z"))
            getattr(circuit, gate)(q)
            getattr(circuit, inverse[gate])(q)
        elif draw < 0.85:
            a, b = rng.sample(range(num_qubits), 2)
            circuit.cx(a, b)
            if rng.random() < 0.5:
                circuit.rz(rng.uniform(-1, 1), a)  # diagonal on control commutes
            if rng.random() < 0.5:
                circuit.sx(b)  # X-axis on target commutes
            circuit.cx(a, b)
        else:
            circuit.h(q)
            circuit.t(q)
            circuit.h(q)
    return circuit


def _optimization_passes():
    return [
        DropNegligible(),
        MergeRotations(),
        CancelAdjacentInverses(),
        CommutingTwoQubitCancellation(),
        FuseSingleQubitRuns(),
    ]


def measure_pass_pipeline() -> Dict[str, object]:
    circuit = optimization_circuit()
    repeats = PIPELINE_REPEATS[MODE]
    passes = _optimization_passes()
    packed_manager = PassManager(passes)

    # Parity first: the packed passes must reproduce the object walk exactly.
    expected = oracle.walk_chain(passes, circuit)
    observed = packed_manager.run(circuit)
    assert [
        (i.gate.name, i.gate.params, i.qubits, i.clbits) for i in expected.instructions
    ] == [
        (i.gate.name, i.gate.params, i.qubits, i.clbits) for i in observed.instructions
    ], "packed pipeline drifted from the object-walk oracle"

    object_seconds = _time(lambda: oracle.walk_chain(passes, circuit), repeats)
    packed_seconds = _time(lambda: packed_manager.run(circuit), repeats)
    per_pass = {
        record.name: record.seconds * 1e3 for record in packed_manager.last_records
    }
    return {
        "gates_in": circuit.num_gates(),
        "gates_out": observed.num_gates(),
        "object_seconds": object_seconds,
        "packed_seconds": packed_seconds,
        "speedup": object_seconds / packed_seconds,
        "packed_pass_milliseconds": per_pass,
    }


MEASUREMENTS = {"pass_pipeline": measure_pass_pipeline}


def _baseline() -> Dict[str, Dict[str, float]] | None:
    if not BASELINE_PATH.exists():
        return None
    data = json.loads(BASELINE_PATH.read_text())
    return data.get("results", {}).get(MODE)


def test_packed_pipeline_speedup():
    result = measure_pass_pipeline()
    floor = SPEEDUP_FLOORS[MODE]["pass_pipeline"]
    print(
        f"\npass_pipeline [{MODE}] {result['gates_in']} -> {result['gates_out']} gates: "
        f"object {result['object_seconds'] * 1e3:.2f}ms -> packed "
        f"{result['packed_seconds'] * 1e3:.2f}ms ({result['speedup']:.1f}x, floor {floor}x)"
    )
    assert result["speedup"] >= floor, (
        f"pass_pipeline: {result['speedup']:.1f}x under floor {floor}x"
    )
    baseline = _baseline()
    if baseline and "pass_pipeline" in baseline:
        committed = baseline["pass_pipeline"].get("gate_speedup")
        if committed:
            assert result["speedup"] >= REGRESSION_TOLERANCE * committed, (
                f"pass_pipeline: {result['speedup']:.1f}x regressed more than "
                f"{(1 - REGRESSION_TOLERANCE):.0%} vs committed gate {committed:.1f}x"
            )


def write_baseline() -> None:
    """Measure both modes and (re)write the committed baseline file."""
    global MODE
    results = {}
    for mode in ("full", "quick"):
        MODE = mode
        results[mode] = {name: fn() for name, fn in sorted(MEASUREMENTS.items())}
        pipeline = results[mode]["pass_pipeline"]
        cap = GATE_CAP_MULTIPLIER * SPEEDUP_FLOORS[mode]["pass_pipeline"]
        pipeline["gate_speedup"] = min(pipeline["speedup"], cap)
        print(
            f"[{mode}] pass_pipeline {pipeline['speedup']:.1f}x "
            f"(gate {pipeline['gate_speedup']:.1f}x)"
        )
    payload = {
        "schema": 1,
        "note": (
            "Committed transpiler fast-path baseline. Regenerate with "
            "`PYTHONPATH=src python benchmarks/bench_transpiler_passes.py "
            "--write`. The CI gate compares speedup ratios "
            "(machine-independent), not absolute seconds."
        ),
        "results": results,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE_PATH}")


def _suite_circuits():
    circuits = []
    for instances in figure2_benchmarks(small=True).values():
        for bench in instances:
            circuits.extend(bench.circuits())
    device = get_device(DEVICE)
    return [c for c in circuits if c.num_qubits <= device.num_qubits]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_preset_pipeline_timing(benchmark, level, capsys):
    """Compile the whole suite at one preset level; report per-pass totals."""
    device = get_device(DEVICE)
    circuits = _suite_circuits()
    assert circuits

    def compile_suite():
        return [transpile(c, device, optimization_level=level) for c in circuits]

    results = benchmark(compile_suite)

    seconds = defaultdict(float)
    removed = defaultdict(int)
    order = []
    for result in results:
        for record in result.pass_records:
            if record.name not in seconds:
                order.append(record.name)
            seconds[record.name] += record.seconds
            removed[record.name] += record.gate_delta
    assert order, "preset pipelines must record per-pass metrics"
    for result in results:
        assert result.metrics["depth"] == result.depth()

    with capsys.disabled():
        print(f"\n=== level {level} per-pass totals over {len(circuits)} circuits ===")
        for name in order:
            print(f"{name:<36s} {seconds[name] * 1e3:9.3f} ms  delta {removed[name]:+d} gates")


def test_pipeline_construction_is_cheap(benchmark):
    """Preset construction + fingerprint (paid on every cache lookup)."""
    device = get_device(DEVICE)

    def build():
        return preset_pipeline(device, optimization_level=2).fingerprint

    fingerprint = benchmark(build)
    assert fingerprint == preset_pipeline(device, optimization_level=2).fingerprint


def test_warm_cache_lookup_dominated_by_fingerprints(benchmark):
    """A warm pipeline-keyed cache lookup must stay far below a compile."""
    from repro.execution import TranspileCache

    device = get_device(DEVICE)
    cache = TranspileCache()
    circuits = _suite_circuits()
    for circuit in circuits:
        cache.get_or_transpile(circuit, device, optimization_level=2)

    def warm_lookups():
        for circuit in circuits:
            cache.get_or_transpile(circuit, device, optimization_level=2)

    benchmark(warm_lookups)
    stats = cache.stats()
    assert stats["entries"] <= len(circuits)  # structural duplicates dedup
    assert stats["hits"] >= len(circuits)


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        write_baseline()
    else:
        for bench_name, measure in sorted(MEASUREMENTS.items()):
            outcome = measure()
            print(f"{bench_name}: {outcome}")
