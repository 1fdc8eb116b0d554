"""Reporting helpers: means, latency ratios and paper-style text tables.

Every experiment module renders its result as rows similar to the figure or
table it reproduces; these helpers keep that formatting consistent across the
experiments, the benchmark harness and the examples.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["arithmetic_mean", "total_latency_ratio", "format_table"]


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def total_latency_ratio(baseline_latencies: Iterable[float], improved_latencies: Iterable[float]) -> float:
    """Ratio of summed latencies across a workload sweep.

    This is how the paper reports "average" speedups over a set of
    (input, output) configurations (e.g. the 3.2x over DFX in Sec. 6.2): the
    total time to serve all configurations, not the mean of per-configuration
    ratios.
    """
    baseline_total = sum(baseline_latencies)
    improved_total = sum(improved_latencies)
    if improved_total <= 0:
        return float("inf")
    return baseline_total / improved_total


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a fixed-width text table."""
    columns = [
        [str(header)] + [_format_cell(row[i]) for row in rows]
        for i, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append(
            "  ".join(_format_cell(cell).rjust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000:
            return f"{value:,.0f}"
        if magnitude >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)
