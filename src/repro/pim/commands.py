"""Macro and micro PIM commands (Sec. 4.3).

Orchestrating multiple PIM chips requires a large number of low-level PIM
commands; IANUS therefore introduces *macro* PIM commands, each representing
one full operation (e.g. a matrix-vector multiplication), which the PIM
control unit decodes into the *micro* commands the memory controller actually
issues: writing the input vector to the global buffer, activating the rows of
a tile in all banks, streaming MAC column commands, optionally applying the
activation function, reading the accumulators back and precharging.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "MacroKind",
    "MicroKind",
    "MacroPimCommand",
    "MicroPimCommand",
]


class MacroKind(str, Enum):
    """Operations a single macro PIM command can represent."""

    GEMV = "gemv"
    GEMV_GELU = "gemv_gelu"
    ELEMENTWISE_ADD = "ewadd"


class MicroKind(str, Enum):
    """Micro PIM commands issued by the PIM memory controller."""

    WRITE_GLOBAL_BUFFER = "wr_gb"
    ACTIVATE_ALL_BANKS = "act_ab"
    MAC_ALL_BANKS = "mac_ab"
    ACTIVATION_FUNCTION = "af"
    READ_MAC_RESULT = "rd_mac"
    PRECHARGE_ALL_BANKS = "pre_ab"


@dataclass(frozen=True, slots=True)
class MacroPimCommand:
    """One macro PIM command: a complete matrix-vector style operation.

    Attributes
    ----------
    kind:
        Operation type.
    out_features / in_features:
        Dimensions of the weight matrix involved (``y = W x``).
    channels:
        Number of PIM channels participating (all channels for column-wise
        partitioned FCs, the channels of one chip for head-wise partitioned
        QKV projections).
    fused_gelu:
        Apply the GELU LUT inside the PIM right after the MAC (Sec. 5.2: if
        the first FFN FC maps to PIM, GELU is also allocated to PIM).
    """

    kind: MacroKind
    out_features: int
    in_features: int
    channels: int
    fused_gelu: bool = False
    label: str = ""


@dataclass(frozen=True, slots=True)
class MicroPimCommand:
    """One micro PIM command targeting all banks of the involved channels."""

    kind: MicroKind
    #: DRAM row address targeted (for ACT) or -1 when not applicable.
    row: int = -1
    #: Number of back-to-back column commands this micro command represents
    #: (MAC streams an entire tile row as consecutive column accesses).
    column_commands: int = 1
    #: Bytes carried over the external bus (global-buffer writes, result reads).
    bus_bytes: int = 0
    #: Optional annotations (e.g. the tile index); ``None`` keeps the hot
    #: decode path free of per-command dict allocations.
    metadata: dict | None = None
