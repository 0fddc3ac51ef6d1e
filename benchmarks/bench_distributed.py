"""Process-executor benchmarks and the committed perf baseline.

Two targets:

* ``process_speedup`` — one CPU-bound Fig. 2 scenario executed on the
  single-threaded path and again on ``executor="process"`` with
  :data:`PROCESSES` workers.  The recorded ``speedup`` is the thread/process
  wall-time ratio — the point of breaking the GIL ceiling — and both paths
  are asserted to produce **bit-identical scores**.  The speedup floor is a
  function of physical parallelism, so it is asserted only when the machine
  exposes at least :data:`CORES_FOR_FLOOR` cores (CI runners do; the test
  skips loudly on smaller boxes after still asserting parity).
* ``dispatch_overhead`` — a deliberately small scenario leased to a process
  pool (plan → lease → pickle → worker → merge) versus the same leases run
  in-process on the thread path.  Its gate is an overhead *cap*, meaningful
  on any core count including single-core containers: the process boundary
  must never cost more than :data:`OVERHEAD_CAP`x the in-process path.

Running under pytest asserts the gates and — when ``BENCH_distributed.json``
exists and was recorded on a multi-core machine — that the speedup has not
regressed more than 30% against the committed ``gate_speedup`` (ratios, not
absolute seconds, so the gate is meaningful across CI runners).

``REPRO_BENCH_QUICK=1`` shrinks the workload (used by the CI smoke job).
Regenerate the committed baseline with::

    PYTHONPATH=src python benchmarks/bench_distributed.py --write
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Dict

import pytest

from repro.suite import figure2_scenario
from repro.suite.runner import run_scenario

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_distributed.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
REGRESSION_TOLERANCE = 0.7

MODE = "quick" if QUICK else "full"
PROCESSES = 4
#: The speedup floor only makes sense with real parallelism underneath.
CORES_FOR_FLOOR = 4
SPEEDUP_FLOORS = {"full": 2.5, "quick": 1.2}
#: Cap on pickle+process overhead, gated on any machine: even on a single
#: core the process pool must stay within this factor of the in-process path.
OVERHEAD_CAP = 2.5

SUITE_FAMILIES = {
    "full": ["ghz", "hamiltonian_simulation", "vanilla_qaoa", "bit_code"],
    "quick": ["ghz", "hamiltonian_simulation", "vanilla_qaoa"],
}
SUITE_DEVICES = ["IonQ-11Q", "IBM-Casablanca-7Q"]
KNOBS = {
    "full": dict(shots=1000, repetitions=3, seed=17, trajectories=1500),
    "quick": dict(shots=400, repetitions=2, seed=17, trajectories=500),
}
#: Sized so the work is still small (~0.1 s) but large enough that the pool's
#: fixed startup cost does not dominate the measured ratio.
OVERHEAD_KNOBS = dict(shots=250, repetitions=2, seed=17, trajectories=120)
GATE_CAP_MULTIPLIER = 4.0


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _warm_globals(scenario) -> None:
    """Touch device registries / noise models once so neither measured path
    pays first-use costs (forked workers inherit the warm parent state)."""
    run_scenario(scenario, shots=10, repetitions=1, seed=1, trajectories=2)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def measure_process_speedup() -> Dict[str, float]:
    """Thread path vs PROCESSES-worker process path on a CPU-bound sweep."""
    scenario = figure2_scenario(
        small=True, devices=SUITE_DEVICES, families=SUITE_FAMILIES[MODE]
    )
    knobs = KNOBS[MODE]
    _warm_globals(scenario)

    start = time.perf_counter()
    thread_result = run_scenario(scenario, **knobs)
    thread_seconds = time.perf_counter() - start

    start = time.perf_counter()
    process_result = run_scenario(
        scenario, executor="process", processes=PROCESSES, **knobs
    )
    process_seconds = time.perf_counter() - start

    assert process_result.scores() == thread_result.scores(), (
        "process-executor scores diverged from the thread path"
    )
    scheduler = process_result.engine_stats["scheduler"]
    assert scheduler["tasks_done"] == scheduler["tasks"]
    return {
        "units": len(thread_result.runs()),
        "thread_seconds": thread_seconds,
        "process_seconds": process_seconds,
        "speedup": thread_seconds / process_seconds,
        "processes": PROCESSES,
        "cores": cpu_count(),
    }


def measure_dispatch_overhead() -> Dict[str, float]:
    """A tiny sweep's leases on a process pool vs in-process (thread path)."""
    scenario = figure2_scenario(
        small=True, devices=["IonQ-11Q"], families=["ghz", "hamiltonian_simulation"]
    )
    _warm_globals(scenario)

    start = time.perf_counter()
    thread_result = run_scenario(scenario, **OVERHEAD_KNOBS)
    thread_seconds = time.perf_counter() - start

    start = time.perf_counter()
    process_result = run_scenario(
        scenario, executor="process", processes=2, **OVERHEAD_KNOBS
    )
    process_seconds = time.perf_counter() - start

    assert process_result.scores() == thread_result.scores()
    return {
        "units": len(thread_result.runs()),
        "thread_seconds": thread_seconds,
        "process_seconds": process_seconds,
        "overhead_ratio": process_seconds / max(thread_seconds, 1e-9),
        "cores": cpu_count(),
    }


MEASUREMENTS = {
    "process_speedup": measure_process_speedup,
    "dispatch_overhead": measure_dispatch_overhead,
}


def _baseline() -> Dict[str, Dict[str, float]] | None:
    if not BASELINE_PATH.exists():
        return None
    data = json.loads(BASELINE_PATH.read_text())
    return data.get("results", {}).get(MODE)


def test_process_speedup():
    result = measure_process_speedup()
    floor = SPEEDUP_FLOORS[MODE]
    print(
        f"\nprocess_speedup [{MODE}]: thread {result['thread_seconds']:.2f}s -> "
        f"{PROCESSES} processes {result['process_seconds']:.2f}s "
        f"({result['speedup']:.2f}x over {result['units']} units on "
        f"{result['cores']} cores, floor {floor}x at >={CORES_FOR_FLOOR} cores)"
    )
    if result["cores"] < CORES_FOR_FLOOR:
        pytest.skip(
            f"speedup floor needs >={CORES_FOR_FLOOR} cores, this machine has "
            f"{result['cores']} (parity was still asserted)"
        )
    assert result["speedup"] >= floor
    baseline = _baseline()
    if baseline and baseline.get("process_speedup", {}).get("gate_speedup"):
        committed = baseline["process_speedup"]["gate_speedup"]
        assert result["speedup"] >= REGRESSION_TOLERANCE * committed, (
            f"process_speedup: {result['speedup']:.2f}x regressed more than "
            f"{(1 - REGRESSION_TOLERANCE):.0%} vs committed gate {committed:.2f}x"
        )


def test_dispatch_overhead():
    result = measure_dispatch_overhead()
    print(
        f"\ndispatch_overhead [{MODE}]: thread {result['thread_seconds']:.3f}s, "
        f"leased process path {result['process_seconds']:.3f}s "
        f"(ratio {result['overhead_ratio']:.2f}, cap {OVERHEAD_CAP})"
    )
    assert result["overhead_ratio"] <= OVERHEAD_CAP, (
        f"process-pool dispatch costs {result['overhead_ratio']:.2f}x the "
        f"in-process path (cap {OVERHEAD_CAP}x) — process overhead regressed"
    )


def write_baseline() -> None:
    """Measure both modes and (re)write the committed baseline file."""
    global MODE
    results = {}
    for mode in ("full", "quick"):
        MODE = mode
        results[mode] = {name: fn() for name, fn in sorted(MEASUREMENTS.items())}
        speedup = results[mode]["process_speedup"]
        if speedup["cores"] >= CORES_FOR_FLOOR:
            cap = GATE_CAP_MULTIPLIER * SPEEDUP_FLOORS[mode]
            speedup["gate_speedup"] = min(speedup["speedup"], cap)
        else:
            # A machine without real parallelism cannot set a meaningful
            # speedup gate; CI enforces the floor constant instead.
            speedup["gate_speedup"] = None
        print(
            f"[{mode}] process_speedup: {speedup['speedup']:.2f}x on "
            f"{speedup['cores']} cores (gate {speedup['gate_speedup']})"
        )
    payload = {
        "schema": 1,
        "note": (
            "Committed process-executor baseline. Regenerate with "
            "`PYTHONPATH=src python benchmarks/bench_distributed.py --write`. "
            "The speedup gate is a machine-independent wall-time ratio; "
            "gate_speedup is null when the recording machine had fewer than "
            f"{CORES_FOR_FLOOR} cores (the speedup floor constant "
            "still gates multi-core CI runs, and the dispatch-overhead cap "
            "gates every machine)."
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
