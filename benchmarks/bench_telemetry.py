"""Telemetry overhead benchmarks and the committed perf baseline.

Two targets:

* ``suite_overhead`` — the suite feature+run microbench (single-pass
  feature extraction over 20+-qubit scaling circuits followed by a small
  end-to-end :func:`repro.suite.run_scenario` sweep) timed twice: with
  tracing disabled (the default, production posture) and with tracing
  enabled.  Gates:

  - **disabled mode** must be effectively free: the instrumentation's cost
    with tracing off is ``spans_per_run`` null-span context entries, so the
    estimated fraction ``spans_per_run * null_span_seconds /
    disabled_seconds`` must stay under :data:`DISABLED_OVERHEAD_CAP` (5%).
    Both factors are measured on the same machine, so the gate is a ratio
    and survives CI-runner variance.
  - **enabled mode** must stay cheap enough to leave on for whole sweeps:
    ``enabled_seconds / disabled_seconds - 1`` under
    :data:`ENABLED_OVERHEAD_CAP` (15%).

* ``primitives`` — per-call costs of the hot telemetry operations
  (labelled ``Counter.inc``, ``Histogram.observe``, a disabled
  ``tracer.span`` entry, a recording span entry), recorded in nanoseconds
  for trend tracking; absolute times are machine-dependent so they are not
  gated.

The metrics registry cannot be measured against an uninstrumented build —
counters are always on (they back every ``stats()`` call) — which is why
the disabled-mode gate is expressed through the null-span path, the only
part that toggles.

Running under pytest asserts the caps and — when ``BENCH_telemetry.json``
exists — that the enabled-mode ratio has not regressed more than
:data:`RATIO_MARGIN` over the committed ``gate_enabled_ratio``.

``REPRO_BENCH_QUICK=1`` shrinks the workload (used by the CI smoke job).
Regenerate the committed baseline with::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --write
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable, Dict

from repro.features import compute_features_many
from repro.suite import figure2_scenario, scaling_specs
from repro.suite.runner import run_scenario
from repro.telemetry import Tracer, configure_tracing, get_tracer
from repro.telemetry.metrics import MetricsRegistry

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

MODE = "quick" if QUICK else "full"
#: Disabled-mode instrumentation must cost under 5% of the workload;
#: enabled-mode tracing under 15%.
DISABLED_OVERHEAD_CAP = 0.05
ENABLED_OVERHEAD_CAP = 0.15
#: Committed-baseline regression margin on the enabled/disabled ratio
#: (absolute, on top of the committed gate value).  Quick mode times a much
#: smaller workload, so it gets a wider noise allowance.
RATIO_MARGIN = {"full": 0.10, "quick": 0.15}

FEATURE_SIZES = {"full": (27, 50), "quick": (27,)}
SUITE_FAMILIES = {
    "full": ["ghz", "hamiltonian_simulation", "bit_code"],
    "quick": ["ghz", "hamiltonian_simulation"],
}
KNOBS = {
    "full": dict(shots=120, repetitions=2, seed=11, trajectories=20),
    "quick": dict(shots=60, repetitions=1, seed=11, trajectories=10),
}
TIMING_REPEATS = {"full": 5, "quick": 5}
PRIMITIVE_CALLS = {"full": 100_000, "quick": 20_000}


def _feature_circuits():
    """Structural scaling-suite circuits at 20+ qubits (non-memoized)."""
    from repro.suite import get_registry

    structural = {"ghz", "bit_code", "phase_code", "hamiltonian_simulation"}
    registry = get_registry()
    circuits = []
    for spec in scaling_specs(FEATURE_SIZES[MODE]):
        if spec.family in structural:
            circuits.append(registry.create(spec).circuit())
    return circuits


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def measure_primitives() -> Dict[str, float]:
    calls = PRIMITIVE_CALLS[MODE]
    registry = MetricsRegistry()
    counter = registry.counter("bench_events_total", "Bench.", ("kind",))
    histogram = registry.histogram("bench_op_seconds", "Bench.")
    off = Tracer(enabled=False)
    on = Tracer(seed=3, max_spans=calls + 10)

    def per_call(body: Callable[[], object]) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            body()
        return (time.perf_counter() - start) / calls

    def null_span():
        with off.span("bench.op", kind="x"):
            pass

    def live_span():
        with on.span("bench.op", kind="x"):
            pass

    result = {
        "counter_inc_ns": per_call(lambda: counter.inc(1.0, kind="x")) * 1e9,
        "histogram_observe_ns": per_call(lambda: histogram.observe(0.001)) * 1e9,
        "null_span_ns": per_call(null_span) * 1e9,
        "recording_span_ns": per_call(live_span) * 1e9,
        "calls": calls,
    }
    on.clear()
    return result


def measure_suite_overhead() -> Dict[str, float]:
    circuits = _feature_circuits()
    scenario = figure2_scenario(
        small=True, devices=["IonQ-11Q"], families=SUITE_FAMILIES[MODE]
    )
    repeats = TIMING_REPEATS[MODE]

    knobs = KNOBS[MODE]

    def workload():
        compute_features_many(circuits)
        return run_scenario(scenario, **knobs)

    tracer = get_tracer()
    previous = (tracer.enabled, tracer.id_prefix)
    try:

        def plain_workload():
            configure_tracing(enabled=False)
            workload()

        def traced_workload():
            configure_tracing(enabled=True, seed=7)
            tracer.clear()
            workload()

        # Warm both paths, then interleave the timed repetitions so that
        # machine drift (frequency scaling, page-cache state) hits both
        # sides equally instead of biasing whichever runs second.
        plain_workload()
        traced_workload()
        spans_per_run = len(tracer.drain())
        disabled = enabled = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            plain_workload()
            disabled = min(disabled, time.perf_counter() - start)
            start = time.perf_counter()
            traced_workload()
            enabled = min(enabled, time.perf_counter() - start)
    finally:
        tracer.clear()
        tracer.enabled, tracer.id_prefix = previous

    null_span_seconds = measure_primitives()["null_span_ns"] / 1e9
    return {
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "enabled_ratio": enabled / disabled,
        "spans_per_run": spans_per_run,
        "null_span_ns": null_span_seconds * 1e9,
        "disabled_overhead_fraction": spans_per_run * null_span_seconds / disabled,
    }


MEASUREMENTS = {
    "primitives": measure_primitives,
    "suite_overhead": measure_suite_overhead,
}

_CACHED: Dict[str, Dict[str, float]] = {}


def _suite_overhead() -> Dict[str, float]:
    if "suite_overhead" not in _CACHED:
        _CACHED["suite_overhead"] = measure_suite_overhead()
    return _CACHED["suite_overhead"]


def _baseline() -> Dict[str, Dict[str, float]] | None:
    if not BASELINE_PATH.exists():
        return None
    data = json.loads(BASELINE_PATH.read_text())
    return data.get("results", {}).get(MODE)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def test_disabled_mode_overhead_is_negligible():
    result = _suite_overhead()
    fraction = result["disabled_overhead_fraction"]
    print(
        f"\nsuite_overhead [{MODE}]: {result['spans_per_run']} span sites x "
        f"{result['null_span_ns']:.0f}ns null entry / "
        f"{result['disabled_seconds']:.3f}s workload = "
        f"{fraction:.2%} disabled-mode overhead (cap {DISABLED_OVERHEAD_CAP:.0%})"
    )
    assert fraction < DISABLED_OVERHEAD_CAP


def test_enabled_mode_overhead_within_cap():
    result = _suite_overhead()
    overhead = result["enabled_ratio"] - 1.0
    print(
        f"\nsuite_overhead [{MODE}]: disabled {result['disabled_seconds']:.3f}s -> "
        f"enabled {result['enabled_seconds']:.3f}s "
        f"({overhead:+.1%}, cap {ENABLED_OVERHEAD_CAP:+.0%})"
    )
    assert overhead <= ENABLED_OVERHEAD_CAP
    baseline = _baseline()
    if baseline and "suite_overhead" in baseline:
        committed = baseline["suite_overhead"].get(
            "gate_enabled_ratio", baseline["suite_overhead"]["enabled_ratio"]
        )
        margin = RATIO_MARGIN[MODE]
        assert result["enabled_ratio"] <= committed + margin, (
            f"enabled-mode ratio {result['enabled_ratio']:.3f} regressed more than "
            f"{margin} over the committed gate {committed:.3f}"
        )


def test_primitive_costs_are_recorded():
    result = measure_primitives()
    print(
        f"\nprimitives [{MODE}]: counter.inc {result['counter_inc_ns']:.0f}ns, "
        f"histogram.observe {result['histogram_observe_ns']:.0f}ns, "
        f"null span {result['null_span_ns']:.0f}ns, "
        f"recording span {result['recording_span_ns']:.0f}ns"
    )
    # Machine-dependent absolute times: recorded for trends, sanity-bounded
    # only loosely (a null span must be cheaper than a recording one).
    assert result["null_span_ns"] < result["recording_span_ns"]


def write_baseline() -> None:
    """Measure both modes and (re)write the committed baseline file."""
    global MODE
    results = {}
    for mode in ("full", "quick"):
        MODE = mode
        _CACHED.clear()
        results[mode] = {name: fn() for name, fn in sorted(MEASUREMENTS.items())}
        suite = results[mode]["suite_overhead"]
        # The committed gate absorbs timer noise: never below parity, never
        # above the hard cap.
        suite["gate_enabled_ratio"] = max(
            1.0, min(suite["enabled_ratio"], 1.0 + ENABLED_OVERHEAD_CAP)
        )
        print(
            f"[{mode}] suite_overhead: enabled ratio {suite['enabled_ratio']:.3f} "
            f"(gate {suite['gate_enabled_ratio']:.3f}), disabled fraction "
            f"{suite['disabled_overhead_fraction']:.2%}"
        )
    payload = {
        "schema": 1,
        "note": (
            "Committed telemetry-overhead baseline. Regenerate with "
            "`PYTHONPATH=src python benchmarks/bench_telemetry.py --write`. "
            "The CI gate compares overhead ratios (machine-independent), "
            "not absolute seconds."
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
