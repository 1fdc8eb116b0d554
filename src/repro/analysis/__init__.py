"""Analysis helpers: breakdowns, speedups, timeline traces, formatting."""

from repro.analysis.breakdown import (
    BREAKDOWN_CATEGORIES,
    breakdown_fractions,
    normalize_breakdown,
    ordered_breakdown,
)
from repro.analysis.report import (
    arithmetic_mean,
    format_series,
    format_table,
    geometric_mean,
    speedup,
    total_latency_ratio,
)
from repro.analysis.trace import render_gantt, timeline_to_records

__all__ = [
    "BREAKDOWN_CATEGORIES",
    "breakdown_fractions",
    "normalize_breakdown",
    "ordered_breakdown",
    "arithmetic_mean",
    "format_series",
    "format_table",
    "geometric_mean",
    "speedup",
    "total_latency_ratio",
    "render_gantt",
    "timeline_to_records",
]
