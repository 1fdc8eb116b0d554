"""Per-bank processing unit (PU) of the GDDR6-AiM PIM.

Each bank has one processing unit containing a set of multipliers, an adder
tree, a MAC accumulator and an activation-function unit (Sec. 4.1).  The PU
consumes one 32-byte column access (16 BF16 weights) per MAC command and
multiplies it against the matching slice of the input vector held in the
channel's global buffer.

The PU's timing is part of :class:`repro.pim.PimDeviceModel` and its MAC
numerics are part of :mod:`repro.functional.pim_functional`.  This module
provides the activation-function unit's GELU lookup table, which both
functional devices of :mod:`repro.functional` apply.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gelu_lookup_table", "gelu_via_lut"]

#: Entries of the GELU lookup table, evenly spaced over ``GELU_LUT_RANGE``.
GELU_LUT_ENTRIES = 256
#: Input range the table covers; inputs outside it are clipped.
GELU_LUT_RANGE = (-8.0, 8.0)


def gelu_lookup_table():
    """Build the GELU lookup table stored in reserved DRAM rows (Sec. 4.2.2).

    Returns ``(xs, ys)`` arrays; the PU linearly interpolates between entries.
    """
    xs = np.linspace(*GELU_LUT_RANGE, GELU_LUT_ENTRIES, dtype=np.float32)
    ys = 0.5 * xs * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (xs + 0.044715 * xs**3)))
    return xs, ys.astype(np.float32)


def gelu_via_lut(x: np.ndarray, table=None) -> np.ndarray:
    """Apply GELU using LUT lookup with linear interpolation."""
    if table is None:
        table = gelu_lookup_table()
    xs, ys = table
    clipped = np.clip(x.astype(np.float32), xs[0], xs[-1])
    return np.interp(clipped, xs, ys).astype(np.float32)
