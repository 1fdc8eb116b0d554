"""PIM substrate: GDDR6-AiM banks, weight tiling, PCU, controller, device."""

from repro.pim.address_mapping import Tile, TileMapping
from repro.pim.commands import MacroKind, MacroPimCommand, MicroKind, MicroPimCommand
from repro.pim.controller import MicroProgramResult, PimMemoryController
from repro.pim.dram import BankState, DramBank, DramChannelState, DramTimingError
from repro.pim.global_buffer import GlobalBuffer
from repro.pim.pcu import DecodedMacro, PimControlUnit
from repro.pim.pim_chip import PimDeviceModel, PimOperationEstimate
from repro.pim.processing_unit import gelu_lookup_table, gelu_via_lut

__all__ = [
    "Tile",
    "TileMapping",
    "MacroKind",
    "MacroPimCommand",
    "MicroKind",
    "MicroPimCommand",
    "MicroProgramResult",
    "PimMemoryController",
    "BankState",
    "DramBank",
    "DramChannelState",
    "DramTimingError",
    "GlobalBuffer",
    "DecodedMacro",
    "PimControlUnit",
    "PimDeviceModel",
    "PimOperationEstimate",
    "gelu_lookup_table",
    "gelu_via_lut",
]
