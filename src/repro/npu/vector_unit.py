"""Timing model of the NPU vector unit.

The vector unit consists of sixteen 4-wide VLIW processors (Table 1) and
executes every operator the matrix unit cannot handle efficiently: two-phase
layer normalisation, masked softmax (with the 1-bit mask bitmap of
Sec. 4.2.2), GELU via lookup-table approximation, residual additions, and the
key/value concatenation of the generation stage.
"""

from __future__ import annotations

from repro.config import VectorUnitConfig
from repro.models.flops import (
    FLOPS_PER_GELU_ELEMENT,
    FLOPS_PER_LAYERNORM_ELEMENT,
    FLOPS_PER_SOFTMAX_ELEMENT,
)

__all__ = ["VectorUnitModel"]


class VectorUnitModel:
    """Analytical latency model for the VLIW vector unit."""

    def __init__(self, config: VectorUnitConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Generic element-wise kernel
    # ------------------------------------------------------------------
    def _kernel_cycles(self, elements: int, ops_per_element: float, passes: int = 1) -> int:
        """Cycles for a vector kernel touching ``elements`` values.

        ``passes`` models kernels that need more than one sweep over the data
        (e.g. the two-phase layer normalisation of Sec. 4.2.2).
        """
        if elements <= 0:
            return 0
        cfg = self.config
        lanes = cfg.lanes
        per_pass = -(-elements // lanes)  # ceil division
        compute = int(per_pass * ops_per_element) * 1
        return passes * (compute + cfg.kernel_overhead_cycles)

    def _to_seconds(self, cycles: int) -> float:
        return cycles / self.config.frequency_hz

    def elementwise_time(self, elements: int) -> float:
        """One operation per element, one pass (e.g. the residual add)."""
        return self._to_seconds(self._kernel_cycles(elements, 1.0))

    # ------------------------------------------------------------------
    # Operator-specific kernels
    # ------------------------------------------------------------------
    def layernorm_time(self, num_tokens: int, dim: int) -> float:
        """Two-phase layer normalisation (mean/variance, then normalise)."""
        elements = num_tokens * dim
        per_element = FLOPS_PER_LAYERNORM_ELEMENT / 2
        return self._to_seconds(self._kernel_cycles(elements, per_element, passes=2))

    def softmax_time(self, num_tokens: int, kv_length: int) -> float:
        """Masked softmax over an ``[num_tokens, kv_length]`` score matrix.

        Masking is fused into the same kernel using a 1-bit bitmap
        (Sec. 4.2.2), so it adds no extra pass.
        """
        elements = num_tokens * kv_length
        return self._to_seconds(
            self._kernel_cycles(elements, FLOPS_PER_SOFTMAX_ELEMENT)
        )

    def gelu_time(self, num_tokens: int, dim: int) -> float:
        """GELU via LUT approximation (Sec. 4.2.2)."""
        elements = num_tokens * dim
        return self._to_seconds(self._kernel_cycles(elements, FLOPS_PER_GELU_ELEMENT))

    def residual_add_time(self, num_tokens: int, dim: int) -> float:
        return self._to_seconds(self._kernel_cycles(num_tokens * dim, 1.0))

    def concat_time(self, elements: int) -> float:
        """Key/value concatenation executed in the vector unit (Fig. 7c)."""
        return self._to_seconds(self._kernel_cycles(elements, 0.5))
