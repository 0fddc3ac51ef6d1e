"""Experiment drivers reproducing every table and figure of the paper."""

from .figure1 import figure1_benchmarks, render_figure1, reproduce_figure1
from .figure2 import figure2_records, render_figure2, reproduce_figure2
from .figure3 import ALL_REGRESSION_FEATURES, EC_FAMILIES, render_figure3, reproduce_figure3
from .figure4 import Figure4Result, render_figure4, reproduce_figure4
from .formatting import format_heatmap, format_table
from .mitigated_scores import (
    mitigated_records,
    render_mitigated_scores,
    reproduce_mitigated_scores,
)
from .table1 import PAPER_TABLE1, render_table1, reproduce_table1
from .table2 import render_table2, reproduce_table2

__all__ = [
    "reproduce_table1",
    "render_table1",
    "PAPER_TABLE1",
    "reproduce_table2",
    "render_table2",
    "figure1_benchmarks",
    "reproduce_figure1",
    "render_figure1",
    "reproduce_figure2",
    "figure2_records",
    "render_figure2",
    "reproduce_figure3",
    "render_figure3",
    "ALL_REGRESSION_FEATURES",
    "EC_FAMILIES",
    "reproduce_figure4",
    "render_figure4",
    "Figure4Result",
    "reproduce_mitigated_scores",
    "mitigated_records",
    "render_mitigated_scores",
    "format_table",
    "format_heatmap",
]
