"""Result formatting and series-shape checks for the benchmark harness."""

from repro.analysis.series import is_decreasing, is_increasing, rises_then_falls
from repro.analysis.stats import gini, pearson, top_share
from repro.analysis.tables import format_series_table, format_table

__all__ = [
    "format_table",
    "format_series_table",
    "is_increasing",
    "is_decreasing",
    "rises_then_falls",
    "gini",
    "pearson",
    "top_share",
]
