"""Device-level PIM timing model.

:class:`PimDeviceModel` answers the question the compiler and the event
engine ask: *how long does one macro PIM operation take, and what DRAM
activity does it generate?*  It decodes the macro command with the PIM
control unit, runs the resulting micro program through the memory-controller
timing model, and caches results keyed by the operation's dimensions (the
same GEMV shape repeats for every block and every token, so caching makes
full parameter sweeps fast without changing any result).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BYTES_PER_ELEMENT, PimConfig
from repro.pim.address_mapping import TileMapping
from repro.pim.controller import PimMemoryController
from repro.pim.pcu import PimControlUnit

__all__ = ["PimDeviceModel", "PimOperationEstimate"]

#: Process-wide GEMV estimate cache, shared by every :class:`PimDeviceModel`
#: instance (keys embed the frozen ``PimConfig``, so equal configurations hit
#: the same entries and different configurations can never collide).
_ESTIMATE_CACHE: dict = {}
_ESTIMATE_CACHE_MAXSIZE = 65536


@dataclass(frozen=True)
class PimOperationEstimate:
    """Timing and activity estimate of one macro PIM operation."""

    seconds: float
    weight_bytes: int
    row_activations: int
    mac_column_commands: int
    bus_bytes: int
    tiles: int
    channels: int


class PimDeviceModel:
    """Timing model of the PIM memory system used for compute.

    Parameters
    ----------
    config:
        The PIM configuration (Table 1).
    compute_channels:
        Channels whose processing units participate in PIM compute.  The
        unified memory system uses all eight channels; the partitioned
        organisation of Fig. 13 and the Fig. 15 sensitivity study use fewer.
    """

    def __init__(self, config: PimConfig, compute_channels: int | None = None) -> None:
        self.config = config
        self.compute_channels = (
            config.channels if compute_channels is None else compute_channels
        )
        if not 0 < self.compute_channels <= config.channels:
            raise ValueError(
                f"compute_channels must be in (0, {config.channels}], "
                f"got {self.compute_channels}"
            )
        self.pcu = PimControlUnit(config)
        self.controller = PimMemoryController(config)
        #: This device's estimates keyed by shape alone (its compute
        #: channels are fixed), in front of the shared cache: a hit skips
        #: hashing the whole configuration.
        self._estimates: dict = {}

    # ------------------------------------------------------------------
    def gemv(
        self,
        out_features: int,
        in_features: int,
        fused_gelu: bool = False,
    ) -> PimOperationEstimate:
        """Estimate one matrix-vector multiplication ``y = W x`` on the PIM."""
        shape = (out_features, in_features, fused_gelu)
        estimate = self._estimates.get(shape)
        if estimate is not None:
            return estimate
        # The estimate depends only on the (frozen) PIM configuration, the
        # compute channels and the operation shape, so it is cached
        # process-wide: parameter sweeps build many device models for equal
        # configurations, and rebuilding a model must not discard the
        # (expensive) micro-program simulations.
        key = (self.config, self.compute_channels, *shape)
        estimate = _ESTIMATE_CACHE.get(key)
        if estimate is None:
            estimate = self._estimate_uncached(
                out_features, in_features, fused_gelu, self.compute_channels
            )
            if len(_ESTIMATE_CACHE) >= _ESTIMATE_CACHE_MAXSIZE:
                _ESTIMATE_CACHE.pop(next(iter(_ESTIMATE_CACHE)))
            _ESTIMATE_CACHE[key] = estimate
        self._estimates[shape] = estimate
        return estimate

    def gemv_time(self, out_features: int, in_features: int, fused_gelu: bool = False) -> float:
        """Convenience accessor returning only the latency in seconds."""
        return self.gemv(out_features, in_features, fused_gelu).seconds

    def repeated_gemv_time(
        self, num_tokens: int, out_features: int, in_features: int, fused_gelu: bool = False
    ) -> float:
        """FC of ``num_tokens`` tokens executed as repeated matrix-vector ops.

        PIM executes an FC with more than one input token by repeating the
        matrix-vector multiplication once per token (Sec. 6.2: "execution
        time is proportional to the input token size").
        """
        return num_tokens * self.gemv_time(out_features, in_features, fused_gelu)

    # ------------------------------------------------------------------
    def _estimate_uncached(
        self, out_features: int, in_features: int, fused_gelu: bool, channels: int
    ) -> PimOperationEstimate:
        # Every participating channel executes the same micro program on its
        # own banks (all-bank, all-channel parallelism); the per-channel
        # timing therefore *is* the operation latency, plus the PCU decode
        # latency which is pipelined and contributes once.  The fused
        # decode-and-execute path skips materializing the micro-command
        # program; it is equivalent to
        # ``controller.run_micro_program(pcu.decode(macro).micro_commands)``.
        mapping = TileMapping(
            self.config,
            out_features=out_features,
            in_features=in_features,
            compute_channels=channels,
        )
        result = self.controller.run_gemv_program(mapping, fused_gelu=fused_gelu)
        seconds = (
            result.elapsed_s
            + self.pcu.DECODE_LATENCY_S
            + self.config.macro_command_overhead_ns * 1e-9
        )
        weight_bytes = out_features * in_features * BYTES_PER_ELEMENT
        return PimOperationEstimate(
            seconds=seconds,
            weight_bytes=weight_bytes,
            row_activations=result.row_activations * channels,
            mac_column_commands=result.mac_column_commands * channels,
            bus_bytes=result.bus_bytes,
            tiles=mapping.num_tiles,
            channels=channels,
        )
