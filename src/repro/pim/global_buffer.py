"""Per-channel global buffer of the PIM.

The global buffer is shared between all processing units of a channel and
holds the input vector segment that is reused by every bank during a
matrix-vector product (Sec. 4.1).  It is one DRAM row (2 KB) in size, which
is exactly why the PIM tile width is 1024 BF16 elements and why models whose
embedding dimension is a multiple of 1024 utilise the PIM best (Sec. 6.2,
Fig. 12 discussion).
"""

from __future__ import annotations

import numpy as np

from repro.config import BYTES_PER_ELEMENT, PimConfig

__all__ = ["GlobalBuffer"]


class GlobalBuffer:
    """Functional model of one channel's global buffer."""

    def __init__(self, config: PimConfig) -> None:
        self.config = config
        self.capacity_elements = config.global_buffer_bytes // BYTES_PER_ELEMENT
        self._data = np.zeros(self.capacity_elements, dtype=np.float32)
        self._valid_elements = 0
        self.write_count = 0

    def write(self, segment: np.ndarray) -> None:
        """Load an input-vector segment (broadcast from the NPU side)."""
        if segment.ndim != 1:
            raise ValueError("global buffer segments are one-dimensional")
        if segment.size > self.capacity_elements:
            raise ValueError(
                f"segment of {segment.size} elements exceeds the "
                f"{self.capacity_elements}-element global buffer"
            )
        self._data[: segment.size] = segment.astype(np.float32)
        self._valid_elements = segment.size
        self.write_count += 1

    def read(self, start: int, count: int) -> np.ndarray:
        """Read a chunk of the stored segment for one PU MAC command."""
        if start + count > self._valid_elements:
            raise ValueError("read beyond the valid segment")
        return self._data[start : start + count]
