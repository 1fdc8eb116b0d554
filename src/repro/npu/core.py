"""An NPU core: the compute units and DMA engines bundled together.

The :class:`NpuCoreModel` is the timing-model facade used by the compiler
(for Algorithm 1's analytical estimates) and by the event engine (to compute
command durations).  It corresponds to the left part of Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BYTES_PER_ELEMENT, NpuCoreConfig
from repro.npu.dma import DmaModel
from repro.npu.matrix_unit import MatrixUnitModel
from repro.npu.vector_unit import VectorUnitModel

__all__ = ["NpuCoreModel"]


@dataclass
class NpuCoreModel:
    """Timing models of one NPU core.

    Parameters
    ----------
    config:
        Core configuration (Table 1).
    offchip_bandwidth:
        Off-chip bandwidth share available to this core in bytes/s.  With the
        representative-core simulation used by :class:`repro.core.IanusSystem`
        this is the aggregate channel bandwidth divided by the number of
        cores, because all cores stream their weight slices concurrently.
    """

    config: NpuCoreConfig
    offchip_bandwidth: float

    def __post_init__(self) -> None:
        self.matrix_unit = MatrixUnitModel(self.config.matrix_unit)
        self.vector_unit = VectorUnitModel(self.config.vector_unit)
        self.dma = DmaModel(self.config.dma, self.offchip_bandwidth)

    # ------------------------------------------------------------------
    # Convenience estimates used by Algorithm 1
    # ------------------------------------------------------------------
    def fc_weight_load_time(self, d_in: int, d_out: int) -> float:
        """Time to stream a BF16 FC weight slice from main memory into the WM."""
        return self.dma.load_time(d_in * d_out * BYTES_PER_ELEMENT)

    def fc_on_matrix_unit_time(
        self, num_tokens: int, d_in: int, d_out: int, prefetch_window_s: float = 0.0
    ) -> float:
        """FC latency on the matrix unit with pipelined weight loading.

        ``prefetch_window_s`` is the time available to prefetch weights while
        a preceding vector-unit operation runs (Algorithm 1, lines 5-6); it is
        subtracted from the pipelined latency but never drives it below the
        pure compute time.
        """
        load = self.fc_weight_load_time(d_in, d_out)
        pipelined = self.matrix_unit.pipelined_fc_time(num_tokens, d_in, d_out, load)
        compute = self.matrix_unit.matmul_time(num_tokens, d_in, d_out)
        return max(compute, pipelined - prefetch_window_s)
