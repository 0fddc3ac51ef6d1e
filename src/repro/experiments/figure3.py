"""Figure 3 — correlation between application features and system performance.

For every device the benchmark scores are regressed against each of the six
SupermarQ features and the three "typical" features (qubits, two-qubit gates,
depth).  Subfigure (a) uses all benchmarks; subfigure (b) excludes the two
error-correction benchmarks, which the paper shows exposes the strong
correlation with the entanglement-ratio feature once the RESET-dominated
circuits are removed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Union

from ..analysis import correlation_matrix
from ..execution import BenchmarkRun
from ..features import FEATURE_NAMES, TYPICAL_FEATURE_NAMES
from ..suite.results import SuiteResult, coerce_runs
from .formatting import format_heatmap

__all__ = [
    "ALL_REGRESSION_FEATURES",
    "EC_FAMILIES",
    "reproduce_figure3",
    "render_figure3",
]

#: Feature columns of the Fig. 3 heat map, in the paper's order.
ALL_REGRESSION_FEATURES: Sequence[str] = (*FEATURE_NAMES, *TYPICAL_FEATURE_NAMES)

#: The error-correction benchmark families excluded in Fig. 3(b).
EC_FAMILIES = ("bit_code", "phase_code")


def reproduce_figure3(
    runs: Union[Iterable[BenchmarkRun], SuiteResult], include_error_correction: bool = True
) -> Dict[str, Dict[str, float]]:
    """R² heat map ``{device: {feature: r2}}`` from Fig. 2 run data.

    Args:
        runs: Output of :func:`repro.experiments.figure2.reproduce_figure2`
            (a run list) or of :func:`~repro.suite.runner.run_scenario` on a
            :func:`~repro.suite.figure2_scenario` (a
            :class:`~repro.suite.results.SuiteResult`).
        include_error_correction: ``True`` reproduces Fig. 3(a); ``False``
            drops the bit/phase-code runs and reproduces Fig. 3(b).
    """
    records = [run.record() for run in coerce_runs(runs)]
    if not include_error_correction:
        records = [record for record in records if record["family"] not in EC_FAMILIES]
    return correlation_matrix(records, ALL_REGRESSION_FEATURES)


def render_figure3(
    runs: Union[Iterable[BenchmarkRun], SuiteResult], include_error_correction: bool = True
) -> str:
    """Human-readable R² heat map."""
    matrix = reproduce_figure3(runs, include_error_correction=include_error_correction)
    return format_heatmap(matrix, ALL_REGRESSION_FEATURES)
