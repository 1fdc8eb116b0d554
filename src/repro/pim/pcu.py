"""PIM control unit (PCU): macro to micro PIM command decoding (Sec. 4.3).

When the NPU command scheduler forwards a ready macro PIM command, the PCU
decodes it into the micro command sequence for every tile of the operation and
streams those micro commands to the PIM memory controllers over the NoC.  The
PCU's own operation is pipelined with PIM computation, so it contributes only
a small fixed decode latency per macro command (Sec. 6.1).

The timing model builds no micro commands: :class:`repro.pim.PimDeviceModel`
prices each GEMV with :meth:`repro.pim.PimMemoryController.run_gemv_program`,
which fuses decoding and execution.  :meth:`PimControlUnit.decode`, run by
:meth:`~repro.pim.PimMemoryController.run_micro_program`, is the reference
that fused path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PimConfig
from repro.pim.address_mapping import TileMapping
from repro.pim.commands import (
    MacroKind,
    MacroPimCommand,
    MicroKind,
    MicroPimCommand,
)

__all__ = ["PimControlUnit", "DecodedMacro"]


@dataclass(frozen=True)
class DecodedMacro:
    """The micro-command program produced for one macro PIM command."""

    macro: MacroPimCommand
    micro_commands: list[MicroPimCommand]
    tiles: int
    row_activations: int
    mac_commands: int

    def count(self, kind: MicroKind) -> int:
        return sum(1 for c in self.micro_commands if c.kind is kind)


class PimControlUnit:
    """Decodes macro PIM commands into per-tile micro command sequences."""

    #: Fixed decode latency per macro command (pipelined with execution).
    DECODE_LATENCY_S = 100e-9

    def __init__(self, config: PimConfig) -> None:
        self.config = config

    def decode(self, macro: MacroPimCommand) -> DecodedMacro:
        """Expand a macro command into its micro command sequence.

        The sequence per tile is: write the input-vector segment into the
        global buffers (broadcast over the external bus), activate the tile's
        row in all banks, stream the MAC column commands, optionally run the
        activation function, read the accumulators and precharge.
        """
        if macro.kind is MacroKind.ELEMENTWISE_ADD:
            return self._decode_elementwise(macro)
        mapping = TileMapping(
            self.config,
            out_features=macro.out_features,
            in_features=macro.in_features,
            compute_channels=macro.channels,
        )
        micro: list[MicroPimCommand] = []
        activations = 0
        mac_commands = 0
        tiles = mapping.tiles()
        for tile in tiles:
            segment_bytes = tile.used_cols * 2
            micro.append(
                MicroPimCommand(
                    kind=MicroKind.WRITE_GLOBAL_BUFFER,
                    bus_bytes=segment_bytes,
                )
            )
            micro.append(
                MicroPimCommand(
                    kind=MicroKind.ACTIVATE_ALL_BANKS,
                    row=tile.row_address,
                )
            )
            activations += 1
            macs = mapping.mac_commands_per_tile(tile)
            micro.append(
                MicroPimCommand(
                    kind=MicroKind.MAC_ALL_BANKS,
                    row=tile.row_address,
                    column_commands=macs,
                )
            )
            mac_commands += macs
            is_last_col_tile = (tile.col_start + tile.used_cols) >= macro.in_features
            if macro.fused_gelu and is_last_col_tile:
                micro.append(
                    MicroPimCommand(kind=MicroKind.ACTIVATION_FUNCTION)
                )
            if is_last_col_tile:
                result_bytes = tile.used_rows * 2
                micro.append(
                    MicroPimCommand(
                        kind=MicroKind.READ_MAC_RESULT,
                        bus_bytes=result_bytes,
                    )
                )
            micro.append(
                MicroPimCommand(
                    kind=MicroKind.PRECHARGE_ALL_BANKS,
                    row=tile.row_address,
                )
            )
        return DecodedMacro(
            macro=macro,
            micro_commands=micro,
            tiles=len(tiles),
            row_activations=activations,
            mac_commands=mac_commands,
        )

    def _decode_elementwise(self, macro: MacroPimCommand) -> DecodedMacro:
        """Element-wise add over vectors already resident in PIM."""
        elements = macro.out_features
        rows_needed = -(-elements // self.config.row_elements)
        micro: list[MicroPimCommand] = []
        for row in range(rows_needed):
            micro.append(MicroPimCommand(kind=MicroKind.ACTIVATE_ALL_BANKS, row=row))
            micro.append(
                MicroPimCommand(
                    kind=MicroKind.MAC_ALL_BANKS,
                    row=row,
                    column_commands=-(-self.config.row_elements // self.config.elements_per_mac),
                )
            )
            micro.append(MicroPimCommand(kind=MicroKind.PRECHARGE_ALL_BANKS, row=row))
        return DecodedMacro(
            macro=macro,
            micro_commands=micro,
            tiles=rows_needed,
            row_activations=rows_needed,
            mac_commands=sum(
                c.column_commands for c in micro if c.kind is MicroKind.MAC_ALL_BANKS
            ),
        )
