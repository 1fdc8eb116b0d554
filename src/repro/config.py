"""System configuration for the IANUS reproduction.

This module holds the hardware parameters published in the paper:

* Table 1 — IANUS simulation parameters (NPU core composition, matrix/vector
  unit shapes, scratch-pad sizes, scheduler queue depths, GDDR6-AiM timing
  parameters, per-bank processing-unit throughput, global-buffer size).
* Table 2 — system-level specifications of the A100 GPU, DFX and IANUS
  (peak throughput, off-chip bandwidth and capacity, TDP used in Sec. 7.2).

All configuration objects are frozen dataclasses so that a configuration can
be shared between the compiler, the timing models, and the event engine
without accidental mutation.  Variants of the system (NPU-MEM, the partitioned
memory organisation of Fig. 13, the sensitivity-study configurations of
Fig. 15) are produced with :meth:`SystemConfig.variant`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "BYTES_PER_ELEMENT",
    "MatrixUnitConfig",
    "VectorUnitConfig",
    "ScratchpadConfig",
    "DmaConfig",
    "SchedulerConfig",
    "NpuCoreConfig",
    "DramTimingConfig",
    "PimConfig",
    "EnergyConfig",
    "MemoryPolicy",
    "FcMappingPolicy",
    "AttentionMappingPolicy",
    "SchedulingPolicy",
    "SystemConfig",
    "GpuConfig",
    "DfxConfig",
]

#: The paper evaluates every model in BF16 (Sec. 6.1), i.e. two bytes/element.
BYTES_PER_ELEMENT = 2

GiB = 1024 ** 3
MiB = 1024 ** 2
KiB = 1024


@dataclass(frozen=True)
class MatrixUnitConfig:
    """Systolic-array matrix unit of one NPU core (Table 1).

    The matrix unit is a 128x64 array of processing elements, each performing
    four multiply-accumulates per cycle, clocked at 700 MHz.  That yields the
    46 TFLOPS per core quoted in Table 1 (128 * 64 * 4 MACs * 2 FLOP/MAC *
    700 MHz ~= 45.9 TFLOPS).
    """

    rows: int = 128
    cols: int = 64
    macs_per_pe: int = 4
    frequency_hz: float = 700e6
    #: Extra cycles to fill and drain the systolic pipeline for each
    #: (row-tile, column-tile) pass.
    fill_drain_cycles: int = 192

    @property
    def peak_flops(self) -> float:
        """Peak floating point throughput of a single matrix unit."""
        return self.rows * self.cols * self.macs_per_pe * 2 * self.frequency_hz


@dataclass(frozen=True)
class VectorUnitConfig:
    """Vector unit of one NPU core: sixteen 4-wide VLIW processors (Table 1)."""

    num_processors: int = 16
    lanes_per_processor: int = 4
    frequency_hz: float = 700e6
    #: Fixed start-up cost charged once per vector kernel invocation
    #: (instruction fetch, loop set-up) in cycles.
    kernel_overhead_cycles: int = 64

    @property
    def lanes(self) -> int:
        return self.num_processors * self.lanes_per_processor


@dataclass(frozen=True)
class ScratchpadConfig:
    """Per-core activation (AM) and weight (WM) scratch-pad memories.

    Table 1 lists 12 MB of activation scratch-pad and 4 MB of weight
    scratch-pad per core (48 MB / 16 MB across the four cores, matching the
    on-chip capacities in Table 2).  ``table1`` prints both capacities; the
    timing models allocate no scratch-pad space.
    """

    activation_bytes: int = 12 * MiB
    weight_bytes: int = 4 * MiB


@dataclass(frozen=True)
class DmaConfig:
    """DMA engines of one NPU core.

    Each core has a load DMA and a store DMA attached to the scratch-pads plus
    the on-chip streaming path used for the key transpose (Sec. 4.2.1).
    """

    #: Fixed request latency added to every off-chip transfer (NoC traversal,
    #: memory-controller queueing).
    offchip_latency_s: float = 200e-9
    #: Fixed latency of an on-chip scratch-pad to scratch-pad transfer.
    onchip_latency_s: float = 50e-9
    #: Bandwidth of the on-chip streaming path between the AM and WM DMAs.
    onchip_bandwidth: float = 512e9


@dataclass(frozen=True)
class SchedulerConfig:
    """Command scheduler queue dimensions: Table 1's values.

    ``table1`` prints them.  :class:`repro.scheduling.EventEngine` models no
    queue capacity: it issues every command in order on its unit as soon as
    the unit, its dependencies and the scheduling policy allow.
    """

    issue_slots_per_unit: int = 4
    pending_slots: int = 256


@dataclass(frozen=True)
class NpuCoreConfig:
    """One NPU core: matrix unit, vector unit, scratch-pads, DMAs, scheduler."""

    matrix_unit: MatrixUnitConfig = field(default_factory=MatrixUnitConfig)
    vector_unit: VectorUnitConfig = field(default_factory=VectorUnitConfig)
    scratchpad: ScratchpadConfig = field(default_factory=ScratchpadConfig)
    dma: DmaConfig = field(default_factory=DmaConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)


@dataclass(frozen=True)
class DramTimingConfig:
    """GDDR6 timing parameters in nanoseconds (Table 1)."""

    tCK: float = 0.5
    tCCD_S: float = 1.0
    tCCD_L: float = 1.0
    tRAS: float = 21.0
    tWR: float = 36.0
    tRP: float = 30.0
    tRCD_RD: float = 36.0
    tRCD_WR: float = 24.0


@dataclass(frozen=True)
class PimConfig:
    """GDDR6-AiM based PIM memory system (Table 1).

    Eight 16 Gb/s x16 channels give 256 GB/s of external bandwidth and 8 GB of
    capacity; each channel has sixteen banks with one 32 GFLOPS processing
    unit per bank and a 2 KB global buffer, giving the 4096 GB/s of internal
    bandwidth and ~4 TFLOPS (1 TFLOPS per two-channel chip) used in the paper.
    """

    channels: int = 8
    banks_per_channel: int = 16
    row_bytes: int = 2 * KiB
    capacity_bytes: int = 8 * GiB
    io_bits: int = 16
    data_rate_gbps: float = 16.0
    channels_per_chip: int = 2
    pu_frequency_hz: float = 1e9
    pu_flops: float = 32e9
    #: BF16 elements consumed by one per-bank MAC micro command (32 bytes per
    #: column access).
    elements_per_mac: int = 16
    global_buffer_bytes: int = 2 * KiB
    #: Cycles of the activation-function (GELU LUT interpolation) micro
    #: command executed by the bank processing unit.
    activation_cycles: int = 8
    #: Time to read the per-bank MAC accumulators back per tile (ns).
    result_read_ns: float = 8.0
    #: Per macro-command issue overhead: command-scheduler dispatch, NoC
    #: broadcast of the micro commands to the PIM memory controllers, and
    #: staging the input vector for the first global-buffer write (ns).
    macro_command_overhead_ns: float = 400.0
    timing: DramTimingConfig = field(default_factory=DramTimingConfig)

    @property
    def num_chips(self) -> int:
        return self.channels // self.channels_per_chip

    @property
    def channel_external_bandwidth(self) -> float:
        """Off-chip bandwidth of one channel in bytes/s (x16 at 16 Gb/s)."""
        return self.io_bits * self.data_rate_gbps * 1e9 / 8

    @property
    def external_bandwidth(self) -> float:
        """Aggregate off-chip (normal access) bandwidth in bytes/s."""
        return self.channels * self.channel_external_bandwidth

    @property
    def channel_internal_bandwidth(self) -> float:
        """Internal bandwidth available to the bank PUs of one channel."""
        bytes_per_ccd = self.elements_per_mac * BYTES_PER_ELEMENT
        return self.banks_per_channel * bytes_per_ccd / (self.timing.tCCD_L * 1e-9)

    @property
    def internal_bandwidth(self) -> float:
        """Aggregate internal (PIM compute) bandwidth in bytes/s."""
        return self.channels * self.channel_internal_bandwidth

    @property
    def row_elements(self) -> int:
        """BF16 elements held in one DRAM row (1024 for a 2 KB row)."""
        return self.row_bytes // BYTES_PER_ELEMENT


@dataclass(frozen=True)
class EnergyConfig:
    """Dynamic-energy coefficients used for the Fig. 11 reproduction.

    Only *relative* energies matter (the figure is normalised).  A *normal*
    GDDR6 access pays both the internal array access and the external I/O
    (interface + PHY + on-board wire) energy; a PIM computing operation is
    charged three times the energy of the internal DRAM *read* for the same
    number of bits (the assumption stated in Sec. 6.1) but avoids the I/O
    energy entirely — that asymmetry is what produces the energy-efficiency
    gap of Fig. 11.
    """

    #: Internal DRAM array access energy (pJ per bit).
    dram_array_read_pj_per_bit: float = 0.6
    dram_array_write_pj_per_bit: float = 0.7
    #: External interface (I/O + PHY + wire) energy paid by normal accesses.
    dram_io_pj_per_bit: float = 6.4
    #: A PIM computing operation costs this multiple of an internal read.
    pim_op_multiplier: float = 3.0
    #: Energy of activating (and later precharging) one DRAM row, in nJ.
    #: Models whose embedding dimension does not fill the 2 KB rows pay more
    #: activations per useful byte, which is why GPT-2 L (d=1280) shows a
    #: smaller energy-efficiency gain than GPT-2 M (d=1024) in Fig. 11.
    dram_activation_nj: float = 2.0
    matrix_unit_pj_per_flop: float = 0.5
    vector_unit_pj_per_flop: float = 1.2
    #: Scratch-pad + on-chip control energy per byte staged through a core.
    scratchpad_pj_per_byte: float = 12.0

    @property
    def dram_read_pj_per_bit(self) -> float:
        """Total energy of a normal read, per bit."""
        return self.dram_array_read_pj_per_bit + self.dram_io_pj_per_bit

    @property
    def dram_write_pj_per_bit(self) -> float:
        """Total energy of a normal write, per bit."""
        return self.dram_array_write_pj_per_bit + self.dram_io_pj_per_bit

    @property
    def pim_op_pj_per_bit(self) -> float:
        """Energy of a PIM computing operation, per weight bit processed."""
        return self.pim_op_multiplier * self.dram_array_read_pj_per_bit


class MemoryPolicy(str, Enum):
    """Main-memory organisation (Sec. 3.2, Fig. 13)."""

    UNIFIED = "unified"
    PARTITIONED = "partitioned"


class FcMappingPolicy(str, Enum):
    """Where fully-connected layers execute (Sec. 5.2, Algorithm 1)."""

    MATRIX_UNIT = "mu"
    PIM = "pim"
    ADAPTIVE = "adaptive"


class AttentionMappingPolicy(str, Enum):
    """Where the QK^T and SV operations of generation-stage attention run."""

    MATRIX_UNIT = "mu"
    PIM = "pim"


class SchedulingPolicy(str, Enum):
    """Command scheduling policy (Sec. 5)."""

    #: PIM Access Scheduling: overlap NPU and PIM work, prefetching, on-chip
    #: transposes; park normal DMA while PIM macros execute.
    PAS = "pas"
    #: Naive scheduling: PIM macro commands act as global barriers and no
    #: overlap-enabling dependencies are generated.
    NAIVE = "naive"


@dataclass(frozen=True)
class SystemConfig:
    """Complete IANUS system configuration.

    The default constructor reproduces Table 1; named constructors build the
    baselines and ablations used throughout the evaluation section.
    """

    name: str = "ianus"
    num_cores: int = 4
    num_pim_controllers: int = 8
    core: NpuCoreConfig = field(default_factory=NpuCoreConfig)
    pim: PimConfig = field(default_factory=PimConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    memory_policy: MemoryPolicy = MemoryPolicy.UNIFIED
    fc_mapping: FcMappingPolicy = FcMappingPolicy.ADAPTIVE
    attention_mapping: AttentionMappingPolicy = AttentionMappingPolicy.MATRIX_UNIT
    scheduling: SchedulingPolicy = SchedulingPolicy.PAS
    #: When False the GDDR6 devices behave as plain memory (the NPU-MEM
    #: baseline of Figs. 9-11).
    pim_compute_enabled: bool = True
    #: Number of PIM chips whose processing units participate in PIM compute.
    #: Defaults to all chips; reduced for the Fig. 15 sensitivity study and in
    #: the partitioned organisation of Fig. 13 (half of the capacity - and
    #: therefore half of the PIM compute - is reserved as plain NPU memory).
    pim_compute_chips: int = 4
    #: PCIe 5.0 x16 host/device-to-device interface (Table 1), bytes/s.
    host_interface_bandwidth: float = 64e9
    #: Fixed latency of a device-to-device transfer over the host interface.
    host_interface_latency_s: float = 2e-6
    #: Thermal design power used as the cost proxy in Sec. 7.2 (watts).
    tdp_w: float = 120.0

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def peak_npu_flops(self) -> float:
        """Aggregate matrix-unit throughput (184 TFLOPS in Table 2)."""
        return self.num_cores * self.core.matrix_unit.peak_flops

    @property
    def pim_compute_channels(self) -> int:
        if not self.pim_compute_enabled:
            return 0
        return self.pim_compute_chips * self.pim.channels_per_chip

    @property
    def memory_capacity_bytes(self) -> int:
        return self.pim.capacity_bytes

    @property
    def npu_visible_capacity_bytes(self) -> int:
        """Memory capacity usable for model storage by the NPU.

        In the unified organisation the entire 8 GB is shared; in the
        partitioned organisation half is plain NPU memory and half is PIM
        accelerator memory (Sec. 6.2, Fig. 13 setup).
        """
        if self.memory_policy is MemoryPolicy.UNIFIED:
            return self.pim.capacity_bytes
        return self.pim.capacity_bytes // 2

    @property
    def offchip_bandwidth(self) -> float:
        """Aggregate bandwidth available for normal memory accesses.

        In the unified organisation every channel serves normal accesses (and
        PIM computation, exclusively in time); in the partitioned organisation
        only the NPU-region channels serve normal traffic, so the NPU sees
        half of the external bandwidth while the PIM region computes
        concurrently.
        """
        if self.memory_policy is MemoryPolicy.PARTITIONED:
            return self.pim.external_bandwidth / 2
        return self.pim.external_bandwidth

    # ------------------------------------------------------------------
    # Named configurations
    # ------------------------------------------------------------------
    @classmethod
    def ianus(cls, **overrides) -> "SystemConfig":
        """The IANUS configuration of Table 1."""
        return cls(**overrides) if overrides else cls()

    @classmethod
    def npu_mem(cls, **overrides) -> "SystemConfig":
        """NPU with standard GDDR6 memory (PIM compute disabled)."""
        base = dict(
            name="npu-mem",
            pim_compute_enabled=False,
            fc_mapping=FcMappingPolicy.MATRIX_UNIT,
            attention_mapping=AttentionMappingPolicy.MATRIX_UNIT,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def partitioned(cls, **overrides) -> "SystemConfig":
        """Partitioned memory organisation used in the Fig. 13 comparison."""
        base = dict(
            name="partitioned",
            memory_policy=MemoryPolicy.PARTITIONED,
            pim_compute_chips=2,
        )
        base.update(overrides)
        return cls(**base)

    def variant(self, **overrides) -> "SystemConfig":
        """Return a copy of this configuration with selected fields replaced."""
        return dataclasses.replace(self, **overrides)


@dataclass(frozen=True)
class GpuConfig:
    """NVIDIA A100-SXM model parameters (Table 2 plus calibration constants).

    The calibration constants model the behaviour the paper measures on the
    real GPU: every operator launches at least one CUDA kernel with a fixed
    launch/synchronisation overhead, matrix-matrix kernels reach a fraction of
    peak that grows with the amount of work per kernel, and matrix-vector /
    data-reordering kernels are bandwidth-bound at a fraction of peak DRAM
    bandwidth.
    """

    name: str = "a100"
    peak_flops: float = 255e12
    memory_bandwidth: float = 2039e9
    memory_capacity_bytes: int = 80 * GiB
    frequency_hz: float = 1155e6
    onchip_memory_bytes: int = 84 * MiB
    tdp_w: float = 400.0
    #: Fixed per-kernel launch + synchronisation overhead (seconds).  The
    #: paper measures eager-mode PyTorch with the HuggingFace / Megatron
    #: implementations, whose per-operator dispatch cost dominates the
    #: generation stage; this constant is calibrated against the per-token
    #: latencies reported in Sec. 6.2 (e.g. ~29.9 ms/token for GPT-2 2.5B).
    kernel_overhead_s: float = 20e-6
    #: Peak fraction reached by large matrix-matrix multiplications.
    max_gemm_efficiency: float = 0.55
    #: Work (FLOPs) at which a GEMM kernel reaches half of its maximum
    #: efficiency; models poor utilisation for small matrices.
    gemm_half_efficiency_flops: float = 6.0e9
    #: Bandwidth efficiency of matrix-vector kernels grows with the weight
    #: bytes streamed per kernel (small GPT-2 layers stay launch/latency
    #: bound, the multi-hundred-MB layers of GPT 6.7B/13B/30B approach
    #: streaming bandwidth), saturating at ``gemv_max_bandwidth_efficiency``
    #: with the half-way point at ``gemv_half_efficiency_bytes``.
    gemv_max_bandwidth_efficiency: float = 0.65
    gemv_half_efficiency_bytes: float = 40e6
    #: Fraction of DRAM bandwidth achieved by element-wise / vector kernels.
    vector_bandwidth_efficiency: float = 0.25
    #: Fraction of DRAM bandwidth achieved by pure data-reordering kernels
    #: (transpose, attention-head split/merge, KV concatenation).
    reorder_bandwidth_efficiency: float = 0.20


@dataclass(frozen=True)
class DfxConfig:
    """DFX multi-FPGA appliance model (Table 2, [Hong et al. MICRO'22]).

    DFX matches its peak FLOPS to HBM bandwidth, which makes it strong in the
    generation stage and weak in the summarization stage.  The efficiency
    factors are calibrated against the latencies the paper reports in Fig. 9.
    """

    name: str = "dfx"
    num_fpgas: int = 4
    peak_flops: float = 1.64e12
    memory_bandwidth: float = 1840e9
    memory_capacity_bytes: int = 32 * GiB
    frequency_hz: float = 200e6
    tdp_w: float = 300.0
    #: Fraction of peak FLOPS achieved during the summarization stage.
    summarization_efficiency: float = 0.30
    #: Fraction of HBM bandwidth achieved during the generation stage.
    generation_bandwidth_efficiency: float = 0.25
    #: Fixed per-layer control overhead (instruction streaming, seconds).
    layer_overhead_s: float = 18e-6
    #: Inter-FPGA synchronisation cost per decoder block (seconds).
    sync_overhead_s: float = 10e-6
