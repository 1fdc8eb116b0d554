"""BF16 tensor emulation.

Every model in the evaluation runs in BF16 (Sec. 6.1), which NumPy does not
provide natively.  BF16 is FP32 with the bottom 16 mantissa bits dropped, so
the emulation truncates (rounds to nearest-even) the lower half of the FP32
bit pattern.  The functional simulators quantise their operands to BF16 at
the same points real hardware would (weights at rest, activations between
operators) while accumulating in FP32, matching the MAC accumulators of the
matrix unit and the PIM processing units.
"""

from __future__ import annotations

import numpy as np

__all__ = ["to_bf16", "BF16_EPSILON"]

#: Relative precision of BF16 (8-bit mantissa including the implicit bit).
BF16_EPSILON = 2.0 ** -8


def to_bf16(array: np.ndarray) -> np.ndarray:
    """Quantise an array to BF16 precision (stored as float32).

    Uses round-to-nearest-even on the truncated 16 mantissa bits, which is
    what the commercial hardware implements.
    """
    as_float32 = np.asarray(array, dtype=np.float32)
    bits = as_float32.view(np.uint32)
    # Round to nearest even: add half of the dropped range, plus the parity
    # bit of the kept mantissa portion.
    rounding_bias = 0x7FFF + ((bits >> 16) & 1)
    rounded = (bits + rounding_bias) & np.uint32(0xFFFF0000)
    return rounded.view(np.float32)
