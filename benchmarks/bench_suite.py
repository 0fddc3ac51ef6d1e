"""Suite-layer benchmarks and the committed perf baseline.

Three targets:

* ``feature_extraction`` — the seed per-feature implementation (six
  independent traversals: the object-walk oracle's interaction graph,
  moments, depth, critical path and liveness matrix from
  ``tests/oracle.py``, kept out of the library so the comparison survives
  the refactor it measures) vs the single-pass
  :func:`repro.features.compute_features`, on 20+-qubit circuits from the
  scaling suite.  The acceptance floor is >= 3x on 20+-qubit circuits.
* ``scenario_expansion`` — declarative expansion + sharding throughput of
  the full Fig. 2 scenario crossed with nine devices and three techniques
  (pure data manipulation; recorded for trend tracking and floor-gated
  loosely).
* ``sharded_suite`` — wall time of a small end-to-end
  :func:`repro.suite.run_scenario` sweep, plus the engine cache stats it
  aggregates (asserts the transpile cache is actually shared within a
  shard).

Running under pytest asserts the floors and — when ``BENCH_suite.json``
exists — that the feature-extraction speedup has not regressed more than
30% against the committed baseline's ``gate_speedup`` (ratios, not absolute
seconds, so the gate is meaningful across CI runners; the gate value is the
measured speedup capped at a multiple of the floor, absorbing cross-machine
variance).

``REPRO_BENCH_QUICK=1`` shrinks the workload (used by the CI smoke job).
Regenerate the committed baseline with::

    PYTHONPATH=src python benchmarks/bench_suite.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
from typing import Dict, List

import numpy as np
import pytest

from repro.features import compute_features_many
from repro.suite import BenchmarkSpec, figure2_scenario, mitigated_scenario, scaling_specs
from repro.suite.runner import run_scenario
from timing import time_best_of, time_interleaved

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracle  # noqa: E402  (the object-walk baseline lives with the tests)

BASELINE_PATH = ROOT / "BENCH_suite.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
REGRESSION_TOLERANCE = 0.7

MODE = "quick" if QUICK else "full"
#: Scaling-suite sizes whose structural instances feed the extraction bench
#: (all are >= 20 qubits after construction).
FEATURE_SIZES = {"full": (27, 50, 100), "quick": (27,)}
SUITE_DEVICES = {"full": ["IBM-Casablanca-7Q", "IonQ-11Q"], "quick": ["IonQ-11Q"]}


# ---------------------------------------------------------------------------
# legacy (pre-single-pass) feature extraction
# ---------------------------------------------------------------------------


def legacy_compute_features(circuit) -> List[float]:
    """The seed implementation: one traversal per feature."""

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
    parallel = clip((total / depth - 1.0) / (n - 1.0)) if n > 1 and depth else 0.0

    matrix = oracle.liveness_matrix(circuit)
    live = clip(float(matrix.sum()) / matrix.size) if matrix.size else 0.0

    layers = oracle.circuit_moments(circuit)
    if not layers:
        measure = 0.0
    else:
        touched_later, collapse = set(), set()
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
        with_collapse = sum(1 for layer in layers if any(id(op) in collapse for op in layer))
        measure = clip(with_collapse / len(layers))

    return [communication, critical, entanglement, parallel, live, measure]


def _feature_circuits() -> List:
    """Structural scaling-suite circuits at 20+ qubits (cheap to build).

    Built with ``registry.create`` (non-memoized) so the bench does not pin
    the large circuits in the process-global registry.
    """
    from repro.suite import get_registry

    structural = {"ghz", "bit_code", "phase_code", "hamiltonian_simulation"}
    registry = get_registry()
    circuits = []
    for spec in scaling_specs(FEATURE_SIZES[MODE]):
        if spec.family in structural:
            circuits.append(registry.create(spec).circuit())
    assert all(circuit.num_qubits >= 20 for circuit in circuits)
    return circuits


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def measure_feature_extraction() -> Dict[str, float]:
    circuits = _feature_circuits()
    legacy, single_pass = time_interleaved(
        [lambda: [legacy_compute_features(c) for c in circuits], lambda: compute_features_many(circuits)]
    )
    # Bit-identical feature golden: the digest of the raw float64 feature
    # matrix is committed in the baseline, so any extractor port (e.g. the
    # columnar rewrite) that drifts by even one ulp fails the gate.
    digest = hashlib.sha256(np.ascontiguousarray(compute_features_many(circuits)).tobytes())
    return {
        "legacy_seconds": legacy,
        "single_pass_seconds": single_pass,
        "speedup": legacy / single_pass,
        "circuits": len(circuits),
        "min_qubits": min(c.num_qubits for c in circuits),
        "max_qubits": max(c.num_qubits for c in circuits),
        "features_digest": digest.hexdigest(),
    }


def measure_scenario_expansion() -> Dict[str, float]:
    from repro.devices import all_devices

    scenario = mitigated_scenario(
        techniques=("raw", "readout", "zne"), small=False
    )
    expected_units = len(scenario.specs()) * len(all_devices()) * 3

    def expand():
        units = scenario.expand()
        shards = scenario.shards()
        return units, shards

    seconds = time_best_of(expand, 3)
    units, shards = expand()
    assert len(units) == expected_units  # instances x registered devices x techniques
    return {
        "seconds": seconds,
        "units": len(units),
        "shards": len(shards),
        "units_per_second": len(units) / seconds,
    }


def measure_sharded_suite() -> Dict[str, float]:
    scenario = figure2_scenario(
        small=True,
        devices=SUITE_DEVICES[MODE],
        families=["ghz", "bit_code", "hamiltonian_simulation"],
    )

    def sweep():
        return run_scenario(scenario, shots=60, repetitions=1, seed=11, trajectories=10)

    result = sweep()
    seconds = time_best_of(sweep, 1)
    stats = next(iter(result.engine_stats.values()))
    # The engine is rebuilt per call so misses equal distinct circuits; the
    # suite-level guarantee is that nothing is compiled twice within a shard.
    assert stats["misses"] == stats["entries"]
    return {
        "seconds": seconds,
        "runs": len(result.runs()),
        "aggregated_seconds": result.total_seconds(),
        "transpile_misses": stats["misses"],
    }


MEASUREMENTS = {
    "feature_extraction": measure_feature_extraction,
    "scenario_expansion": measure_scenario_expansion,
    "sharded_suite": measure_sharded_suite,
}

#: Hard acceptance floors.  feature_extraction carries the ISSUE's >= 3x
#: single-pass speedup; scenario expansion must stay clearly interactive.
SPEEDUP_FLOORS = {
    "full": {"feature_extraction": 3.0},
    "quick": {"feature_extraction": 3.0},
}
EXPANSION_FLOOR_UNITS_PER_SECOND = 1000.0

#: The baseline's gate value is the measured speedup capped at this multiple
#: of the floor, absorbing cross-machine ratio variance.
GATE_CAP_MULTIPLIER = 5.0


def _baseline() -> Dict[str, Dict[str, float]] | None:
    if not BASELINE_PATH.exists():
        return None
    data = json.loads(BASELINE_PATH.read_text())
    return data.get("results", {}).get(MODE)


def test_feature_extraction_speedup():
    result = measure_feature_extraction()
    floor = SPEEDUP_FLOORS[MODE]["feature_extraction"]
    print(
        f"\nfeature_extraction [{MODE}]: legacy {result['legacy_seconds']:.3f}s -> "
        f"single-pass {result['single_pass_seconds']:.3f}s "
        f"({result['speedup']:.1f}x over {result['circuits']} circuits of "
        f"{result['min_qubits']}-{result['max_qubits']} qubits, floor {floor}x)"
    )
    assert result["speedup"] >= floor
    baseline = _baseline()
    if baseline and "feature_extraction" in baseline:
        committed = baseline["feature_extraction"].get(
            "gate_speedup", baseline["feature_extraction"]["speedup"]
        )
        assert result["speedup"] >= REGRESSION_TOLERANCE * committed, (
            f"feature_extraction: speedup {result['speedup']:.1f}x regressed more "
            f"than {(1 - REGRESSION_TOLERANCE):.0%} vs committed gate {committed:.1f}x"
        )
        golden_digest = baseline["feature_extraction"].get("features_digest")
        if golden_digest:
            assert result["features_digest"] == golden_digest, (
                "feature vectors drifted from the committed golden digest — the "
                "extractor is no longer bit-identical"
            )


def test_scenario_expansion_throughput():
    result = measure_scenario_expansion()
    print(
        f"\nscenario_expansion [{MODE}]: {result['units']} units / "
        f"{result['shards']} shards in {result['seconds']:.3f}s "
        f"({result['units_per_second']:.0f} units/s)"
    )
    assert result["units_per_second"] >= EXPANSION_FLOOR_UNITS_PER_SECOND


def test_sharded_suite_wall_time():
    result = measure_sharded_suite()
    print(
        f"\nsharded_suite [{MODE}]: {result['runs']} runs in {result['seconds']:.3f}s "
        f"(aggregated per-run time {result['aggregated_seconds']:.3f}s)"
    )
    assert result["runs"] > 0
    assert result["aggregated_seconds"] > 0


def write_baseline() -> None:
    """Measure both modes and (re)write the committed baseline file."""
    global MODE
    results = {}
    for mode in ("full", "quick"):
        MODE = mode
        results[mode] = {name: fn() for name, fn in sorted(MEASUREMENTS.items())}
        feature = results[mode]["feature_extraction"]
        cap = GATE_CAP_MULTIPLIER * SPEEDUP_FLOORS[mode]["feature_extraction"]
        feature["gate_speedup"] = min(feature["speedup"], cap)
        print(
            f"[{mode}] feature_extraction: {feature['speedup']:.1f}x "
            f"(gate {feature['gate_speedup']:.1f}x)"
        )
    payload = {
        "schema": 1,
        "note": (
            "Committed suite-layer baseline. Regenerate with "
            "`PYTHONPATH=src python benchmarks/bench_suite.py --write`. "
            "The CI gate compares speedup ratios (machine-independent), not "
            "absolute seconds."
        ),
        "results": results,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_baseline()
    else:
        for bench_name, measure in sorted(MEASUREMENTS.items()):
            outcome = measure()
            print(f"{bench_name}: {outcome}")
