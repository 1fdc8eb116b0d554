"""Adaptive FC mapping — Algorithm 1 of the paper (Sec. 5.2).

Every fully-connected layer can execute either on the matrix unit (loading
its weights from main memory, pipelined with computation and, when the
previous command runs on the vector unit, overlapped with that command as a
prefetch window) or on the PIM (as repeated matrix-vector products, one per
input token).  At compile time the mapper estimates both latencies with the
same analytical models the event engine uses and picks the faster unit.

The decision depends on the number of input tokens (PIM latency grows
linearly with it, the matrix unit processes up to 128 tokens in one pass) and
on how well the layer's input dimension fills the 1024-element PIM DRAM rows
— both effects are visible in Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import FcMappingPolicy, SystemConfig
from repro.scheduling.durations import DurationModel

__all__ = ["FcMappingDecision", "AdaptiveMapper"]


@dataclass(frozen=True)
class FcMappingDecision:
    """Outcome of Algorithm 1 for one FC layer."""

    unit: FcMappingPolicy
    matrix_unit_time: float
    pim_time: float


class AdaptiveMapper:
    """Implements Algorithm 1 on top of the shared duration models."""

    def __init__(self, config: SystemConfig, durations: DurationModel) -> None:
        self.config = config
        self.durations = durations

    # ------------------------------------------------------------------
    def estimate(
        self,
        num_tokens: int,
        d_in: int,
        d_out: int,
        *,
        mu_cols: int | None = None,
        pim_cols: int | None = None,
        prefetch_window_s: float = 0.0,
        fused_gelu: bool = False,
        single_chip: bool = False,
    ) -> FcMappingDecision:
        """Estimate both mappings of one FC layer and pick the faster one.

        Parameters
        ----------
        num_tokens:
            Input tokens processed by the FC (``n`` in Algorithm 1).
        d_in / d_out:
            Full dimensions of the layer.
        mu_cols:
            Output columns computed by the representative core when the layer
            is column-partitioned across cores (defaults to ``d_out``).
        pim_cols:
            Output columns computed by this device's PIM (defaults to
            ``d_out``; with multiple IANUS devices each device's PIM computes
            only its column slice).
        prefetch_window_s:
            Time of the preceding vector-unit command, available for weight
            prefetching (Algorithm 1, lines 5-6).
        fused_gelu:
            Whether the PIM would fuse the GELU activation with this layer.
        single_chip:
            Head-wise partitioned layers occupy a single PIM chip.
        """
        mu_cols = d_out if mu_cols is None else mu_cols
        pim_cols = d_out if pim_cols is None else pim_cols
        mu_time = self.durations.fc_on_mu_time(
            num_tokens, d_in, mu_cols, prefetch_window_s=prefetch_window_s
        )
        pim_time = self.durations.fc_on_pim_time(
            num_tokens, d_in, pim_cols, fused_gelu=fused_gelu, single_chip=single_chip
        )
        unit = FcMappingPolicy.PIM if pim_time < mu_time else FcMappingPolicy.MATRIX_UNIT
        return FcMappingDecision(unit=unit, matrix_unit_time=mu_time, pim_time=pim_time)

    # ------------------------------------------------------------------
    def choose(
        self,
        num_tokens: int,
        d_in: int,
        d_out: int,
        *,
        mu_cols: int | None = None,
        pim_cols: int | None = None,
        prefetch_window_s: float = 0.0,
        fused_gelu: bool = False,
        single_chip: bool = False,
    ) -> FcMappingDecision:
        """Apply the configured mapping policy to one FC layer.

        ``FcMappingPolicy.ADAPTIVE`` runs Algorithm 1; the static policies
        force the corresponding unit (falling back to the matrix unit when
        PIM compute is disabled, which is how the NPU-MEM baseline behaves).
        """
        decision = self.estimate(
            num_tokens,
            d_in,
            d_out,
            mu_cols=mu_cols,
            pim_cols=pim_cols,
            prefetch_window_s=prefetch_window_s,
            fused_gelu=fused_gelu,
            single_chip=single_chip,
        )
        policy = self.config.fc_mapping
        if not self.config.pim_compute_enabled:
            forced = FcMappingPolicy.MATRIX_UNIT
        elif policy is FcMappingPolicy.ADAPTIVE:
            return decision
        else:
            forced = policy
        return FcMappingDecision(
            unit=forced,
            matrix_unit_time=decision.matrix_unit_time,
            pim_time=decision.pim_time,
        )
