"""Device rankings raw vs mitigated — the new axis mitigation opens.

The paper scores raw counts; real published device comparisons are only
meaningful once error mitigation is part of the measurement story.  This
driver reruns the Fig. 2 benchmark suite on each device once per mitigation
technique (plus the raw baseline) through one
:class:`~repro.execution.ExecutionEngine` per device, so calibration jobs
are shared across every benchmark landing on the same physical qubits and
compiled circuits are shared across techniques via the transpile cache.

The interesting questions the sweep answers:

* how much of each device's score gap is *measurement* error (readout
  mitigation recovers it) versus *gate* error (ZNE extrapolates it away),
* whether mitigation reorders the device ranking of a benchmark — a device
  with slow readout but clean gates can overtake after mitigation.

Techniques that cannot apply to a benchmark are skipped loudly: zero-noise
extrapolation folds unitaries and therefore rejects the error-correction
benchmarks, whose mid-circuit measurements are not invertible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..execution import Backend, BenchmarkRun
from ..mitigation import Mitigator
from ..suite import mitigated_scenario
from ..suite.results import SuiteResult, coerce_runs
from ..suite.runner import run_scenario
from .formatting import format_table

__all__ = [
    "reproduce_mitigated_scores",
    "reproduce_mitigated_scores_result",
    "mitigated_records",
    "render_mitigated_scores",
]

#: The techniques swept by default, as (label, engine spec) pairs; ``"raw"``
#: is the unmitigated baseline every improvement is measured against.
DEFAULT_TECHNIQUES: Tuple[str, ...] = ("raw", "readout", "zne")


def reproduce_mitigated_scores(
    devices: Optional[Sequence[str]] = None,
    techniques: Sequence[Union[str, Mitigator]] = DEFAULT_TECHNIQUES,
    small: bool = True,
    shots: int = 250,
    repetitions: int = 2,
    trajectories: Optional[int] = 40,
    families: Optional[Sequence[str]] = None,
    seed: int = 1234,
    backend: Union[Backend, str, None] = None,
    max_workers: int = 1,
    optimization_level: int = 1,
    placement: str = "noise_aware",
) -> List[BenchmarkRun]:
    """Run the benchmark suite per device per technique and collect the runs.

    Args:
        devices: Device names to include (default: all nine of Table II).
        techniques: Mitigation specs (names or
            :class:`~repro.mitigation.Mitigator` instances); the string
            ``"raw"`` is the unmitigated baseline.  Each (device, benchmark)
            pair is executed once per technique with the same seed, so score
            differences isolate the technique.
        small / shots / repetitions / trajectories / families / seed /
        backend / max_workers / optimization_level / placement: exactly as
            :func:`~repro.experiments.figure2.reproduce_figure2`.

    Returns:
        One :class:`BenchmarkRun` per (benchmark instance, device,
        technique); :attr:`BenchmarkRun.mitigation` holds the technique name
        (empty for raw).
    """
    return reproduce_mitigated_scores_result(
        devices=devices,
        techniques=techniques,
        small=small,
        shots=shots,
        repetitions=repetitions,
        trajectories=trajectories,
        families=families,
        seed=seed,
        backend=backend,
        max_workers=max_workers,
        optimization_level=optimization_level,
        placement=placement,
    ).runs()


def reproduce_mitigated_scores_result(
    devices: Optional[Sequence[str]] = None,
    techniques: Sequence[Union[str, Mitigator]] = DEFAULT_TECHNIQUES,
    small: bool = True,
    shots: int = 250,
    repetitions: int = 2,
    trajectories: Optional[int] = 40,
    families: Optional[Sequence[str]] = None,
    seed: int = 1234,
    backend: Union[Backend, str, None] = None,
    max_workers: int = 1,
    optimization_level: int = 1,
    placement: str = "noise_aware",
    partial: Optional[SuiteResult] = None,
    store=None,
    executor: Union[str, object] = "thread",
    processes: int = 2,
) -> SuiteResult:
    """The technique sweep as a streaming, resumable suite result.

    Every lease on a device runs through one shared
    :class:`~repro.execution.ExecutionEngine`, so calibration jobs are
    shared across every benchmark landing on the same physical qubits and
    compiled circuits are shared across techniques via the transpile cache —
    the engine's cache statistics are recorded per engine configuration on
    the returned result.  Unknown technique names raise before anything executes;
    technique/benchmark mismatches (e.g. ZNE on the mid-circuit-measurement
    error-correction codes) are skipped loudly and recorded as skip
    outcomes.
    """
    scenario = mitigated_scenario(
        techniques=techniques,
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
        partial=partial,
        store=store,
        executor=executor,
        processes=processes,
    )


def mitigated_records(
    runs: Union[Iterable[BenchmarkRun], SuiteResult],
) -> List[Dict[str, object]]:
    """Flatten runs into (benchmark, device) rows with one score per technique.

    Each row carries ``score_<technique>`` columns (``score_raw`` for the
    baseline) plus ``best`` — the technique with the highest mean score.
    """
    table: Dict[Tuple[str, str], Dict[str, object]] = {}
    for run in coerce_runs(runs):
        row = table.setdefault(
            (run.benchmark, run.device),
            {"benchmark": run.benchmark, "device": run.device},
        )
        label = run.mitigation or "raw"
        row[f"score_{label}"] = run.mean_score
    for row in table.values():
        scores = {
            key[len("score_"):]: value
            for key, value in row.items()
            if isinstance(key, str) and key.startswith("score_")
        }
        if scores:
            row["best"] = max(scores, key=lambda technique: scores[technique])
            baseline = scores.get("raw")
            if baseline is not None:
                gains = {t: s - baseline for t, s in scores.items() if t != "raw"}
                if gains:
                    row["best_gain"] = round(max(gains.values()), 4)
    return [table[key] for key in sorted(table)]


def render_mitigated_scores(runs: Union[Iterable[BenchmarkRun], SuiteResult]) -> str:
    """Human-readable raw-vs-mitigated score table."""
    rows = []
    for record in mitigated_records(runs):
        rendered = dict(record)
        for key, value in list(rendered.items()):
            if isinstance(key, str) and key.startswith("score_"):
                rendered[key] = round(float(value), 3)
        rows.append(rendered)
    if not rows:
        return "(no data)"
    columns = ["benchmark", "device"]
    score_columns = sorted(
        {key for row in rows for key in row if str(key).startswith("score_")},
        key=lambda name: (name != "score_raw", name),
    )
    columns += score_columns + ["best", "best_gain"]
    return format_table(rows, columns=columns)
