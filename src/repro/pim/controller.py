"""PIM memory controller.

The PIM MC supports both PIM micro commands and normal memory commands
(Sec. 4.3).  Like a conventional memory controller it tracks the state of
every bank and only issues commands that respect the GDDR6 timing constraints
plus the additional PIM states.  In the paper, the MC signals the NPU command
scheduler when a macro PIM command completes, so parked DMA commands can
resume; here :class:`repro.scheduling.EventEngine` applies that rule itself,
starting an off-chip DMA issued after a PIM macro no earlier than the
macro's end.  Normal accesses are priced by :class:`repro.npu.DmaModel`.

The controller model executes a macro command's micro program against the
bank state machines of one channel and reports the elapsed time together with
statistics (row activations, column accesses, bus bytes) that feed the energy
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import BYTES_PER_ELEMENT, PimConfig
from repro.pim.commands import MicroKind, MicroPimCommand
from repro.pim.dram import DramBank

__all__ = ["PimMemoryController", "MicroProgramResult"]


@dataclass(frozen=True)
class MicroProgramResult:
    """Outcome of running one macro command's micro program on one channel."""

    elapsed_ns: float
    row_activations: int
    mac_column_commands: int
    bus_bytes: int
    activation_function_commands: int

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ns * 1e-9


class PimMemoryController:
    """Timing model of one PIM memory controller (one GDDR6 channel)."""

    def __init__(self, config: PimConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # PIM micro-command execution
    # ------------------------------------------------------------------
    def run_micro_program(self, micro_commands: list[MicroPimCommand]) -> MicroProgramResult:
        """Execute a micro command sequence and report elapsed time.

        The program is issued in order.  Global-buffer writes for the *next*
        tile overlap with the MAC stream of the current tile (the global
        buffer is double-buffered per channel), which is what the
        pipelined-efficiency claim of the AiM design rests on; the overlap is
        modelled by tracking bus time and bank time separately and issuing
        each micro command at the later of the two as appropriate.

        Every micro command of a macro program addresses *all* banks of the
        channel with the same row, count and issue time, so the banks march
        in lock-step through identical states.  The model therefore simulates
        one representative bank and scales the per-bank statistics by the
        bank count — the timing is exactly what a max() over sixteen equal
        per-bank completion times would produce.
        """
        num_banks = self.config.banks_per_channel
        bank = DramBank(self.config.timing)
        channel_bw = self.config.channel_external_bandwidth  # bytes per second

        bank_time_ns = 0.0
        bus_time_ns = 0.0
        bus_bytes = 0
        mac_columns = 0
        af_commands = 0

        for micro in micro_commands:
            kind = micro.kind
            if kind is MicroKind.WRITE_GLOBAL_BUFFER:
                transfer_ns = micro.bus_bytes / channel_bw * 1e9
                # The write may proceed while banks are busy with the previous
                # tile's MACs: only the bus is occupied.
                bus_time_ns = max(bus_time_ns, 0.0) + transfer_ns
                bus_bytes += micro.bus_bytes
            elif kind is MicroKind.ACTIVATE_ALL_BANKS:
                # The tile's row can only be activated once its input segment
                # is present in the global buffer.
                start = max(bank_time_ns, bus_time_ns)
                bank_time_ns = bank.activate(micro.row, start)
            elif kind is MicroKind.MAC_ALL_BANKS:
                bank_time_ns = bank.column_access(
                    bank_time_ns, count=micro.column_commands
                )
                mac_columns += micro.column_commands
            elif kind is MicroKind.ACTIVATION_FUNCTION:
                af_ns = self.config.activation_cycles / self.config.pu_frequency_hz * 1e9
                bank_time_ns += af_ns
                af_commands += 1
            elif kind is MicroKind.READ_MAC_RESULT:
                bank_time_ns += self.config.result_read_ns
                bus_bytes += micro.bus_bytes
            elif kind is MicroKind.PRECHARGE_ALL_BANKS:
                bank_time_ns = bank.precharge(bank_time_ns)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown micro command kind {kind}")

        elapsed = max(bank_time_ns, bus_time_ns)
        return MicroProgramResult(
            elapsed_ns=elapsed,
            row_activations=bank.activations * num_banks,
            mac_column_commands=mac_columns,
            bus_bytes=bus_bytes,
            activation_function_commands=af_commands,
        )

    # ------------------------------------------------------------------
    def run_gemv_program(self, mapping, fused_gelu: bool = False) -> MicroProgramResult:
        """Fused decode-and-execute of a GEMV macro command.

        Equal, field for field, to decoding the macro with the PCU
        (:meth:`repro.pim.pcu.PimControlUnit.decode`) and interpreting the
        micro program with :meth:`run_micro_program` over a
        :class:`~repro.pim.dram.DramBank`, which stays the reference an
        equivalence test compares this walk against.  It builds no micro
        command, :class:`~repro.pim.address_mapping.Tile` or bank: it walks
        the row tiles and, within each, the column tiles, holding the bus
        and bank times in local variables.  Per tile it applies the same
        float operations in the same order: the global-buffer write on the
        bus, the activate at the later of bus and bank (``+ tRCD_RD`` to the
        MAC stream, ``+ tRAS`` to the earliest precharge), the MAC stream
        (``count * tCCD_L``), on the last column tile the activation
        function and the accumulator read, and the precharge at the later
        of the bank and the earliest precharge (``+ tRP``).  A precharge
        ends before the next activate's issue, so that issue is the
        activate's own start.  A tile's transfer and MAC times depend only
        on its width, so they are computed once per distinct width (a full
        tile, and a partial last column tile); the counters are integer
        closed forms of the tile counts.
        """
        config = self.config
        timing = config.timing
        t_rcd, t_ras, t_rp = timing.tRCD_RD, timing.tRAS, timing.tRP
        af_ns = config.activation_cycles / config.pu_frequency_hz * 1e9
        read_ns = config.result_read_ns
        row_tiles, col_tiles = mapping.row_tiles, mapping.col_tiles
        last_cols = mapping.in_features - (col_tiles - 1) * mapping.tile_cols

        bus_bytes = mapping.out_features * BYTES_PER_ELEMENT
        mac_columns = 0
        tiles = []  # (transfer time, MAC time, last column tile) per column tile
        for used_cols, count, last in (
            (mapping.tile_cols, col_tiles - 1, False), (last_cols, 1, True)
        ):
            segment_bytes = used_cols * BYTES_PER_ELEMENT
            macs = math.ceil(used_cols / mapping.config.elements_per_mac)
            bus_bytes += row_tiles * count * segment_bytes
            mac_columns += row_tiles * count * macs
            tiles += [(
                segment_bytes / config.channel_external_bandwidth * 1e9,
                macs * timing.tCCD_L,
                last,
            )] * count

        bank_time_ns = 0.0
        bus_time_ns = 0.0
        for _ in range(row_tiles):
            for transfer_ns, mac_ns, last in tiles:
                bus_time_ns = bus_time_ns + transfer_ns
                start = bus_time_ns if bus_time_ns > bank_time_ns else bank_time_ns
                done = start + t_rcd + mac_ns
                precharge = start + t_ras
                if done > precharge:
                    precharge = done
                if last:
                    if fused_gelu:
                        done = done + af_ns
                    done = done + read_ns
                if precharge > done:
                    done = precharge
                bank_time_ns = done + t_rp

        elapsed = bus_time_ns if bus_time_ns > bank_time_ns else bank_time_ns
        return MicroProgramResult(
            elapsed_ns=elapsed,
            row_activations=mapping.num_tiles * config.banks_per_channel,
            mac_column_commands=mac_columns,
            bus_bytes=bus_bytes,
            activation_function_commands=row_tiles if fused_gelu else 0,
        )
