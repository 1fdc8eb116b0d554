"""Timing model of the NPU matrix unit (systolic array).

The matrix unit is a 128x64 systolic array with four MACs per processing
element (Table 1).  It processes fully-connected layers, the QK^T product and
the SV product.  Input tokens stream along the 128-row dimension and output
features along the 64-column dimension, so:

* up to 128 tokens are processed in parallel — the paper observes identical
  latency for 4, 8 or 16 input tokens (Sec. 6.2, Fig. 12);
* a layer with ``d_out`` output features needs ``ceil(d_out / 64)`` column
  tiles;
* each (row-tile, column-tile) pass streams the ``d_in`` reduction dimension
  through the array at four elements per cycle per PE, plus a pipeline
  fill/drain overhead.

The matrix unit also performs output scaling and bias addition "for free"
(Sec. 4.1), which is why the key-scaling step can be folded into the key
generation FC during attention.
"""

from __future__ import annotations

import math

from repro.config import MatrixUnitConfig

__all__ = ["MatrixUnitModel"]


class MatrixUnitModel:
    """Analytical latency model for the systolic matrix unit."""

    def __init__(self, config: MatrixUnitConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Core matmul timing
    # ------------------------------------------------------------------
    def matmul_cycles(self, num_tokens: int, d_in: int, d_out: int) -> int:
        """Cycles to multiply an ``[n, d_in]`` activation by ``[d_in, d_out]``."""
        if num_tokens <= 0 or d_in <= 0 or d_out <= 0:
            return 0
        cfg = self.config
        row_tiles = math.ceil(num_tokens / cfg.rows)
        col_tiles = math.ceil(d_out / cfg.cols)
        stream_cycles = math.ceil(d_in / cfg.macs_per_pe)
        per_tile = stream_cycles + cfg.fill_drain_cycles
        return row_tiles * col_tiles * per_tile

    def matmul_time(self, num_tokens: int, d_in: int, d_out: int) -> float:
        """Seconds to execute one matrix multiplication on the matrix unit."""
        return self.matmul_cycles(num_tokens, d_in, d_out) / self.config.frequency_hz

    # ------------------------------------------------------------------
    # Operator-specific wrappers
    # ------------------------------------------------------------------
    def pipelined_fc_time(
        self, num_tokens: int, d_in: int, d_out: int, weight_load_time: float
    ) -> float:
        """FC latency when weight loading is pipelined with computation.

        Algorithm 1 (line 11) models the FC as a pipeline of weight-tile loads
        and matrix-unit passes, tiled to the matrix unit's size: the layer
        takes the maximum of the two streams plus one tile of the shorter one
        to fill the pipeline.
        """
        compute = self.matmul_time(num_tokens, d_in, d_out)
        col_tiles = max(1, math.ceil(d_out / self.config.cols))
        pipeline_fill = min(weight_load_time, compute) / col_tiles
        return max(weight_load_time, compute) + pipeline_fill
