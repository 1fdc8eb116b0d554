"""Per-command duration models.

The event engine (:mod:`repro.scheduling.events`) assigns each command a
duration using the unit timing models of the NPU and PIM substrates.  The
:class:`DurationModel` is the single place where a :class:`repro.ir.Command`
is translated into seconds, so the compiler (which needs the same estimates
for Algorithm 1) and the engine can never disagree.
"""

from __future__ import annotations

from functools import lru_cache

from repro.config import BYTES_PER_ELEMENT, SystemConfig
from repro.ir.command import Command, OpKind, PimScope, Unit
from repro.memory.noc import NocModel
from repro.npu.core import NpuCoreModel
from repro.pim.controller import PimMemoryController
from repro.pim.pim_chip import PimDeviceModel

__all__ = ["DurationModel"]

#: Latency of a cross-core synchronisation (NoC round trip plus command
#: scheduler handshake); the four per-block synchronisation points of Fig. 6
#: each pay this once.
SYNC_LATENCY_S = 0.5e-6


class DurationModel:
    """Maps commands to execution latencies for a given system configuration."""

    #: Shared instances keyed by configuration: a duration model is immutable
    #: and deterministic, so systems built for equal configurations can share
    #: one instance (and its warm per-command duration cache).  Bounded so a
    #: long design-space sweep cannot pin arbitrarily many models (each holds
    #: a large per-command duration cache).
    _SHARED: dict[SystemConfig, "DurationModel"] = {}
    _SHARED_MAXSIZE = 64

    @classmethod
    def shared(cls, config: SystemConfig) -> "DurationModel":
        """A process-wide duration model for ``config`` (warm caches)."""
        model = cls._SHARED.get(config)
        if model is None:
            model = cls(config)
            if len(cls._SHARED) >= cls._SHARED_MAXSIZE:
                cls._SHARED.pop(next(iter(cls._SHARED)))
            cls._SHARED[config] = model
        return model

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        per_core_bandwidth = config.offchip_bandwidth / config.num_cores
        self.npu = NpuCoreModel(config.core, offchip_bandwidth=per_core_bandwidth)
        self.noc = NocModel(config.noc, config.num_cores, config.num_pim_controllers)
        self.controller = PimMemoryController(config.pim)
        if config.pim_compute_enabled:
            self.pim = PimDeviceModel(
                config.pim, compute_channels=config.pim_compute_channels
            )
            channels_per_chip = config.pim.channels_per_chip
            self.pim_single_chip = PimDeviceModel(
                config.pim, compute_channels=channels_per_chip
            )
        else:
            self.pim = None
            self.pim_single_chip = None
        self._duration_cache = lru_cache(maxsize=65536)(self._duration_uncached)

    # ------------------------------------------------------------------
    def duration(self, command: Command) -> float:
        """Duration in seconds of one command."""
        return self.duration_of(
            command.unit,
            command.kind,
            command.dims,
            command.bytes_moved,
            command.pim_scope,
            command.fused_activation,
        )

    def duration_of(
        self,
        unit: Unit,
        kind: OpKind,
        dims: tuple[int, ...] = (),
        bytes_moved: int = 0,
        pim_scope: PimScope = PimScope.ALL_CHIPS,
        fused_activation: bool = False,
    ) -> float:
        """Duration in seconds of the command with these fields.

        For callers that hold a command's fields but no :class:`Command`:
        the engine pricing a replayed stream, the compiler sizing a prefetch
        window before it builds the block.
        """
        return self._duration_cache(
            (unit, kind, dims, bytes_moved, pim_scope, fused_activation)
        )

    def _duration_uncached(self, key) -> float:
        unit, kind, dims, bytes_moved, pim_scope, fused = key
        if unit is Unit.MATRIX_UNIT:
            return self._matrix_unit_duration(dims)
        if unit is Unit.VECTOR_UNIT:
            return self._vector_unit_duration(kind, dims)
        if unit in (Unit.DMA_LOAD, Unit.DMA_STORE):
            return self.npu.dma.offchip_time(bytes_moved)
        if unit is Unit.DMA_ONCHIP:
            if kind is OpKind.KEY_TRANSPOSE:
                return self.npu.dma.transpose_time(bytes_moved)
            return self.npu.dma.onchip_move_time(bytes_moved)
        if unit is Unit.PIM:
            return self._pim_duration(dims, pim_scope, fused)
        if unit is Unit.SYNC:
            return SYNC_LATENCY_S
        if unit is Unit.HOST:
            return self._host_duration(dims, bytes_moved)
        raise ValueError(f"no duration model for unit {unit}")

    def _host_duration(self, dims: tuple[int, ...], bytes_moved: int) -> float:
        """Device-to-device communication over the PCIe host interface.

        A DEVICE_COMM command carries the number of participating devices in
        ``dims`` and models a ring all-gather: ``D - 1`` steps, each paying
        the interface latency plus the transfer of one device's slice.
        """
        num_devices = dims[0] if dims else 2
        steps = max(1, num_devices - 1)
        slice_bytes = bytes_moved / max(1, steps)
        per_step = (
            self.config.host_interface_latency_s
            + slice_bytes / self.config.host_interface_bandwidth
        )
        return steps * per_step

    # ------------------------------------------------------------------
    def _matrix_unit_duration(self, dims: tuple[int, ...]) -> float:
        if len(dims) != 3:
            raise ValueError(f"matrix-unit commands need (n, d_in, d_out) dims, got {dims}")
        n, d_in, d_out = dims
        return self.npu.matrix_unit.matmul_time(n, d_in, d_out)

    def _vector_unit_duration(self, kind: OpKind, dims: tuple[int, ...]) -> float:
        vu = self.npu.vector_unit
        if kind is OpKind.LAYERNORM:
            n, d = dims
            return vu.layernorm_time(n, d)
        if kind is OpKind.SOFTMAX:
            n, kv = dims
            return vu.softmax_time(n, kv)
        if kind is OpKind.GELU:
            n, d = dims
            return vu.gelu_time(n, d)
        if kind is OpKind.RESIDUAL_ADD:
            n, d = dims
            return vu.residual_add_time(n, d)
        if kind is OpKind.KV_CONCAT:
            (elements,) = dims
            return vu.concat_time(elements)
        if kind is OpKind.EMBEDDING:
            n, d = dims
            return vu.elementwise_time(n * d, 1.0)
        # Generic element-wise fallback.
        elements = 1
        for dim in dims:
            elements *= dim
        return vu.elementwise_time(elements, 1.0)

    def _pim_duration(
        self, dims: tuple[int, ...], pim_scope: PimScope, fused: bool
    ) -> float:
        if self.pim is None:
            raise ValueError(
                "PIM command issued but PIM compute is disabled in this configuration"
            )
        if len(dims) == 3:
            n, d_in, d_out = dims
        elif len(dims) == 2:
            n, (d_in, d_out) = 1, dims
        else:
            raise ValueError(f"PIM commands need (d_in, d_out) or (n, d_in, d_out) dims, got {dims}")
        device = self.pim_single_chip if pim_scope is PimScope.SINGLE_CHIP else self.pim
        return device.repeated_gemv_time(max(1, n), d_out, d_in, fused_gelu=fused)

    # ------------------------------------------------------------------
    # Estimates shared with the compiler (Algorithm 1)
    # ------------------------------------------------------------------
    def fc_on_mu_time(self, num_tokens: int, d_in: int, d_out: int,
                      prefetch_window_s: float = 0.0) -> float:
        """Pipelined (load ∥ compute) FC latency on the matrix unit."""
        return self.npu.fc_on_matrix_unit_time(num_tokens, d_in, d_out, prefetch_window_s)

    def fc_on_pim_time(self, num_tokens: int, d_in: int, d_out: int,
                       fused_gelu: bool = False, single_chip: bool = False) -> float:
        """FC latency on the PIM (repeated matrix-vector products)."""
        if self.pim is None:
            return float("inf")
        device = self.pim_single_chip if single_chip else self.pim
        return device.repeated_gemv_time(num_tokens, d_out, d_in, fused_gelu=fused_gelu)

    def weight_load_time(self, d_in: int, d_out: int) -> float:
        return self.npu.dma.load_time(d_in * d_out * BYTES_PER_ELEMENT)

    def normal_memory_access_time(self, num_bytes: int, is_write: bool = False) -> float:
        """Latency of a streaming normal access spread across all channels."""
        per_channel = -(-num_bytes // self.config.pim.channels)
        return self.controller.normal_access(per_channel, is_write=is_write).elapsed_s
