"""Tests for the analysis/reporting helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    BREAKDOWN_CATEGORIES,
    arithmetic_mean,
    format_table,
    ordered_breakdown,
    total_latency_ratio,
)


class TestBreakdownHelpers:
    def test_canonical_order(self):
        breakdown = {"FFN+Add": 2.0, "LayerNorm": 1.0}
        ordered = ordered_breakdown(breakdown)
        assert list(ordered) == list(BREAKDOWN_CATEGORIES)
        assert ordered["FFN+Add"] == 2.0
        assert ordered["Self-attention"] == 0.0

    def test_empty_breakdown_reads_zero_in_every_category(self):
        assert ordered_breakdown({}) == dict.fromkeys(BREAKDOWN_CATEGORIES, 0.0)

    def test_categories_outside_the_decoder_are_left_out(self):
        """Fig. 10 splits decoder latency: the LM head's share is not a
        decoder category."""
        ordered = ordered_breakdown({"LM head": 1.0, "FFN+Add": 1.0})
        assert "LM head" not in ordered
        assert ordered["FFN+Add"] == 1.0


class TestMeansAndSpeedups:
    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0

    def test_speedup(self):
        """One configuration's speedup is the ratio of its latencies."""
        assert total_latency_ratio([10.0], [2.0]) == pytest.approx(5.0)
        assert total_latency_ratio([10.0], [0.0]) == float("inf")

    def test_total_latency_ratio_matches_paper_average_definition(self):
        """The paper's 'average speedup over DFX' is a total-latency ratio."""
        baseline = [100.0, 10.0]
        improved = [10.0, 10.0]
        # Mean of per-config ratios would be 5.5x; the total ratio is 5.5x...
        assert total_latency_ratio(baseline, improved) == pytest.approx(110.0 / 20.0)
        assert total_latency_ratio([1.0], [0.0]) == float("inf")


class TestFormatting:
    def test_format_table_contains_headers_and_rows(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", 10000.0]], title="T")
        assert "T" in table
        assert "a" in table and "b" in table
        assert "2.500" in table
        assert "10,000" in table
