"""Multi-IANUS scaling model (Sec. 7.1 and 7.2).

Larger LLMs (GPT 6.7B/13B/30B, Table 4) do not fit in a single device's 8 GB
of PIM memory, so IANUS scales out: multiple devices connected over the PCIe
5.0 x16 host interface cooperate using both intra-layer parallelism and
attention-head parallelism.  Each device's PIM contributes additional
effective memory bandwidth, which is what drives the speedups of Fig. 17 and
the strong-scaling curve of Fig. 18; device-to-device communication at the
block synchronisation points is what keeps the scaling sub-linear.

The cost analysis of Sec. 7.2 uses TDP as the cost proxy:
``performance / TDP`` of a multi-device IANUS configuration is compared
against the A100 GPU.

:class:`MultiIanusSystem` also implements the
:class:`~repro.core.costmodel.CostModel` protocol (``pass_cost`` /
``cache_stats`` / ``name``), so a cluster replica in the serving layer is
just ``make_cost_model("ianus-xN")`` plus a KV page accountant.  Per-pass
costs delegate to the underlying tensor-parallel :class:`IanusSystem`
simulation — the *same* pricing Fig. 17 / Fig. 18 integrate over whole
workloads — and route through the shared process-wide pass-cost cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.core.results import InferenceResult
from repro.core.system import IanusSystem
from repro.models.transformer import ModelConfig
from repro.models.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.costmodel import PassCost
    from repro.models.workload import StagePass
    from repro.scheduling.events import Timeline

__all__ = ["MultiIanusSystem", "ScalingPoint", "devices_required"]


def devices_required(model: ModelConfig, config: SystemConfig, max_sequence: int = 1024) -> int:
    """Smallest power-of-two device count whose aggregate memory fits the model.

    The paper selects two, four and eight devices for the 6.7B, 13B and 30B
    models respectively (Sec. 7.1); this helper reproduces that selection from
    the model footprint and per-device capacity.
    """
    footprint = model.memory_footprint_bytes(max_sequence)
    capacity = config.npu_visible_capacity_bytes
    devices = 1
    while devices * capacity < footprint:
        devices *= 2
    return devices


@dataclass(frozen=True)
class ScalingPoint:
    """One point of the strong-scaling curve (Fig. 18)."""

    num_devices: int
    result: InferenceResult

    @property
    def tokens_per_second(self) -> float:
        return self.result.tokens_per_second

    @property
    def latency_ms(self) -> float:
        return self.result.total_latency_ms


class MultiIanusSystem:
    """A cluster of IANUS devices cooperating on one model."""

    def __init__(self, config: SystemConfig, num_devices: int) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.config = config
        self.num_devices = num_devices
        self._system = IanusSystem(config, num_devices=num_devices)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.config.name} x{self.num_devices}"

    @property
    def tdp_w(self) -> float:
        return self.config.tdp_w * self.num_devices

    def run(self, model: ModelConfig, workload: Workload, mode: str = "fast") -> InferenceResult:
        return self._system.run(model, workload, mode=mode)

    def block_timeline(self, model: ModelConfig, stage_pass: "StagePass") -> "Timeline":
        """One block's timeline on one device (the representative core)."""
        return self._system.block_timeline(model, stage_pass)

    # ------------------------------------------------------------------
    # CostModel protocol (repro.core.costmodel)
    # ------------------------------------------------------------------
    def pass_cost(self, model: ModelConfig, stage_pass: "StagePass") -> "PassCost":
        """One tensor-parallel pass, priced exactly as Fig. 17/18 price it."""
        return self._system.pass_cost(model, stage_pass)

    def cache_stats(self) -> dict:
        """Counters of the shared pass-cost cache the cluster routes through."""
        return self._system.cache_stats()

    # ------------------------------------------------------------------
    def cost_efficiency(self, model: ModelConfig, workload: Workload) -> float:
        """Performance per watt of TDP (Sec. 7.2), in requests/s/W."""
        result = self.run(model, workload)
        if result.total_latency_s <= 0:
            return float("inf")
        return (1.0 / result.total_latency_s) / self.tdp_w

    @staticmethod
    def strong_scaling(
        config: SystemConfig,
        model: ModelConfig,
        workload: Workload,
        device_counts: tuple[int, ...] = (2, 4, 8),
    ) -> list[ScalingPoint]:
        """Strong-scaling sweep (Fig. 18): same problem, more devices."""
        points = []
        for devices in device_counts:
            cluster = MultiIanusSystem(config, devices)
            points.append(ScalingPoint(num_devices=devices, result=cluster.run(model, workload)))
        return points
