"""Result containers produced by the system models.

Every backend (IANUS, NPU-MEM, the partitioned variant, the GPU and DFX
baselines, and the multi-device scaling model) returns an
:class:`InferenceResult` so experiments can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.model import EnergyBreakdown
from repro.models.transformer import ModelConfig
from repro.models.workload import Workload

__all__ = ["StageResult", "InferenceResult", "merge_breakdowns"]


def merge_breakdowns(*breakdowns: dict[str, float]) -> dict[str, float]:
    """Sum per-tag latency breakdowns."""
    merged: dict[str, float] = {}
    for breakdown in breakdowns:
        for tag, value in breakdown.items():
            merged[tag] = merged.get(tag, 0.0) + value
    return merged


@dataclass(frozen=True)
class StageResult:
    """Latency, breakdown and energy of one inference stage."""

    latency_s: float
    breakdown: dict[str, float] = field(default_factory=dict)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown.zero)
    flops: float = 0.0
    num_tokens: int = 0

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def latency_per_token_ms(self) -> float:
        if self.num_tokens <= 0:
            return 0.0
        return self.latency_ms / self.num_tokens


@dataclass(frozen=True)
class InferenceResult:
    """End-to-end result of one inference request on one backend."""

    backend: str
    model: ModelConfig
    workload: Workload
    summarization: StageResult
    generation: StageResult
    energy: EnergyBreakdown

    # ------------------------------------------------------------------
    @property
    def total_latency_s(self) -> float:
        return self.summarization.latency_s + self.generation.latency_s

    @property
    def total_latency_ms(self) -> float:
        return self.total_latency_s * 1e3

    @property
    def tokens_per_second(self) -> float:
        """Output-token throughput of the whole request."""
        if self.total_latency_s <= 0:
            return 0.0
        return self.workload.output_tokens / self.total_latency_s

    @property
    def total_flops(self) -> float:
        return self.summarization.flops + self.generation.flops

    @property
    def achieved_tflops(self) -> float:
        if self.total_latency_s <= 0:
            return 0.0
        return self.total_flops / self.total_latency_s / 1e12

    @property
    def breakdown(self) -> dict[str, float]:
        return merge_breakdowns(self.summarization.breakdown, self.generation.breakdown)

    def generation_breakdown_ms(self) -> dict[str, float]:
        """Generation-stage latency breakdown in milliseconds (Fig. 10)."""
        return {tag: value * 1e3 for tag, value in self.generation.breakdown.items()}

    def speedup_over(self, other: "InferenceResult") -> float:
        """How much faster this result is than another backend's result."""
        if self.total_latency_s <= 0:
            return float("inf")
        return other.total_latency_s / self.total_latency_s

    def utilization(self, peak_flops: float) -> float:
        """Compute utilisation relative to a peak throughput (Fig. 14)."""
        if peak_flops <= 0 or self.total_latency_s <= 0:
            return 0.0
        return min(1.0, self.total_flops / (self.total_latency_s * peak_flops))
