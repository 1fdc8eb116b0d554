"""DMA engines of an NPU core.

Each core has load and store DMA engines moving data between the scratch-pads
and off-chip (PIM) memory, plus an on-chip streaming path between the two
scratch-pads' DMAs used for the key transpose (Sec. 4.2.1).  Off-chip
transfers are limited by the bandwidth share the core receives from the
GDDR6 channels through the NoC.
"""

from __future__ import annotations

from repro.config import DmaConfig

__all__ = ["DmaModel"]


class DmaModel:
    """Analytical latency model for a core's DMA engines."""

    def __init__(self, config: DmaConfig, offchip_bandwidth: float) -> None:
        """``offchip_bandwidth`` is the off-chip bytes/s available to this core."""
        if offchip_bandwidth <= 0:
            raise ValueError("offchip_bandwidth must be positive")
        self.config = config
        self.offchip_bandwidth = offchip_bandwidth

    # ------------------------------------------------------------------
    def offchip_time(self, num_bytes: int) -> float:
        """Seconds to move ``num_bytes`` between scratch-pad and main memory."""
        if num_bytes <= 0:
            return 0.0
        return self.config.offchip_latency_s + num_bytes / self.offchip_bandwidth

    def load_time(self, num_bytes: int) -> float:
        return self.offchip_time(num_bytes)

    # ------------------------------------------------------------------
    def onchip_move_time(self, num_bytes: int) -> float:
        """Scratch-pad to scratch-pad streaming transfer."""
        if num_bytes <= 0:
            return 0.0
        return self.config.onchip_latency_s + num_bytes / self.config.onchip_bandwidth

    def transpose_time(self, num_bytes: int) -> float:
        """On-chip key transpose through the streaming buffer.

        The transpose moves the key matrix from the activation scratch-pad to
        the weight scratch-pad through the streaming buffer; because the two
        scratch-pads have different entry sizes the stream runs at the on-chip
        path bandwidth with a small extra pass for the interleaving.
        """
        if num_bytes <= 0:
            return 0.0
        return self.config.onchip_latency_s + 1.25 * num_bytes / self.config.onchip_bandwidth
