"""Dynamic energy model (Sec. 6.1, Fig. 11).

The simulator reports the dynamic energy consumed by

* normal GDDR6 operations (reads and writes issued by the NPU's DMAs),
* PIM computing operations, charged at three times the energy of a DRAM read
  for the same number of bits (following the AiM analysis cited in the
  paper), and
* the NPU cores' computation (matrix-unit and vector-unit FLOPs plus
  scratch-pad traffic).

Static energy is deliberately excluded, as in the paper (footnote 2: static
energy was not incorporated because of the challenge of a fair comparison).
Only relative values matter for the Fig. 11 reproduction — the figure is
normalised to IANUS running GPT-2 M.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import EnergyConfig
from repro.scheduling.events import ActivityStats

__all__ = ["EnergyBreakdown", "EnergyModel"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Dynamic energy in joules, split the way Fig. 11 plots it."""

    normal_memory_j: float
    pim_op_j: float
    npu_cores_j: float

    @property
    def total_j(self) -> float:
        return self.normal_memory_j + self.pim_op_j + self.npu_cores_j

    @property
    def total_mj(self) -> float:
        return self.total_j * 1e3

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            normal_memory_j=self.normal_memory_j + other.normal_memory_j,
            pim_op_j=self.pim_op_j + other.pim_op_j,
            npu_cores_j=self.npu_cores_j + other.npu_cores_j,
        )

    @classmethod
    def zero(cls) -> "EnergyBreakdown":
        return cls(0.0, 0.0, 0.0)


class EnergyModel:
    """Converts simulated activity statistics into dynamic energy."""

    def __init__(self, config: EnergyConfig) -> None:
        self.config = config

    def from_stats(self, stats: ActivityStats) -> EnergyBreakdown:
        cfg = self.config
        read_j = stats.offchip_read_bytes * 8 * cfg.dram_read_pj_per_bit * 1e-12
        write_j = stats.offchip_write_bytes * 8 * cfg.dram_write_pj_per_bit * 1e-12
        pim_j = (
            stats.pim_weight_bytes * 8 * cfg.pim_op_pj_per_bit * 1e-12
            + stats.pim_row_activations * cfg.dram_activation_nj * 1e-9
        )
        core_j = (
            stats.matrix_unit_flops * cfg.matrix_unit_pj_per_flop
            + stats.vector_unit_flops * cfg.vector_unit_pj_per_flop
        ) * 1e-12
        scratch_j = (
            (stats.offchip_read_bytes + stats.offchip_write_bytes + stats.onchip_bytes)
            * cfg.scratchpad_pj_per_byte
            * 1e-12
        )
        return EnergyBreakdown(
            normal_memory_j=read_j + write_j,
            pim_op_j=pim_j,
            npu_cores_j=core_j + scratch_j,
        )
