"""Figure 2 — benchmark scores across the nine device models.

The full sweep (all benchmark instances on all devices, 2000 shots, several
repetitions) is what the paper runs on real hardware.  Simulating it exactly
is possible but slow, so the driver exposes knobs (``small``, ``shots``,
``trajectories``, ``devices``) and defaults to a reduced configuration that
preserves the qualitative shape of the figure: scores fall with benchmark
size, error-correction benchmarks suffer most on superconducting devices and
the all-to-all trapped-ion model wins the communication-heavy benchmarks.

The driver is a thin wrapper over the declarative suite layer: the instance
list is :func:`repro.suite.figure2_scenario` and execution goes through
:func:`repro.suite.run_scenario` (leased per device, streaming aggregation,
resumable partial results).  Scores at a fixed seed are identical to the
historical hand-written loop — per-unit seeds depend only on the unit, not
on the execution order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..execution import Backend, BenchmarkRun
from ..suite import figure2_scenario
from ..suite.results import SuiteResult, coerce_runs
from ..suite.runner import run_scenario
from .formatting import format_table

__all__ = [
    "reproduce_figure2",
    "figure2_records",
    "render_figure2",
]


def reproduce_figure2(
    devices: Optional[Sequence[str]] = None,
    small: bool = True,
    shots: int = 250,
    repetitions: int = 2,
    trajectories: int | None = 40,
    families: Optional[Sequence[str]] = None,
    seed: int = 1234,
    backend: Union[Backend, str, None] = None,
    max_workers: int = 1,
    optimization_level: int = 1,
    placement: str = "noise_aware",
) -> List[BenchmarkRun]:
    """Run the Fig. 2 sweep and return one :class:`BenchmarkRun` per (instance, device).

    Args:
        devices: Device names to include (default: all nine).
        small: Use the reduced instance list (fast) instead of the full paper set.
        shots: Shots per circuit per repetition (paper: 2000 on IBM devices).
        repetitions: Independent repetitions for the error bars.
        trajectories: Trajectory count the shots are spread over (``None`` =
            one per shot, the slowest but most faithful option).  Honoured by
            the trajectory backend and, for circuits with mid-circuit
            measurement/reset, by the ideal statevector backend; ignored when
            ``backend`` is an instance or the exact density-matrix backend.
        families: Restrict to these benchmark families (default: all eight).
        seed: Base random seed.
        backend: Execution backend — an instance or a name (``"statevector"``,
            ``"trajectory"``, ``"density_matrix"``); default is the noisy
            trajectory backend, matching previous releases.
        max_workers: Worker-pool size each device's engine fans batches over.
        optimization_level: Transpiler preset level for every circuit.
        placement: Placement strategy (``"noise_aware"`` or ``"trivial"``)
            used by every engine — makes the noise-aware-vs-trivial mapping
            ablation selectable end-to-end.

    Benchmarks that do not fit a device (the black "X" entries of Fig. 2) or
    exceed the backend's capacity are skipped; call
    :func:`~repro.suite.runner.run_scenario` on a
    :func:`~repro.suite.figure2_scenario` to see the skip records, per-run
    timing and engine cache statistics alongside the runs.
    """
    scenario = figure2_scenario(
        small=small,
        devices=devices,
        families=families,
        optimization_level=optimization_level,
        placement=placement,
        backend=backend if isinstance(backend, str) else None,
    )
    return run_scenario(
        scenario,
        shots=shots,
        repetitions=repetitions,
        seed=seed,
        trajectories=trajectories,
        max_workers=max_workers,
        backend=backend if not isinstance(backend, str) else None,
    ).runs()


def figure2_records(runs: Union[Iterable[BenchmarkRun], SuiteResult]) -> List[Dict[str, float]]:
    """Flatten runs into records consumable by the Fig. 3 correlation analysis."""
    return [run.record() for run in coerce_runs(runs)]


def render_figure2(runs: Union[Iterable[BenchmarkRun], SuiteResult]) -> str:
    """Human-readable score table (device x benchmark)."""
    rows = []
    runs = coerce_runs(runs)
    for run in runs:
        rows.append(
            {
                "benchmark": run.benchmark,
                "device": run.device,
                "score": round(run.mean_score, 3),
                "std": round(run.std_score, 3),
                "2q_gates": run.compiled_two_qubit_gates,
                "depth": run.compiled_depth,
                "swaps": run.swap_count,
            }
        )
    rows.sort(key=lambda row: (row["benchmark"], row["device"]))
    return format_table(rows)
