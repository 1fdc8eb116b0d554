"""Analysis helpers: breakdown order, latency ratios, Gantt charts, formatting."""

from repro.analysis.breakdown import BREAKDOWN_CATEGORIES, ordered_breakdown
from repro.analysis.report import arithmetic_mean, format_table, total_latency_ratio
from repro.analysis.trace import render_gantt

__all__ = [
    "BREAKDOWN_CATEGORIES",
    "ordered_breakdown",
    "arithmetic_mean",
    "format_table",
    "total_latency_ratio",
    "render_gantt",
]
