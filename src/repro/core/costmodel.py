"""The unified cost-model layer: one per-pass costing interface for every backend.

Historically each backend priced a model pass its own way —
:class:`~repro.core.system.IanusSystem` through ``_pass_cost`` (an event-engine
simulation returning ``(latency, breakdown, ActivityStats, flops)``),
:class:`~repro.baselines.gpu.A100Gpu` through ``pass_latency`` (a roofline
returning ``(latency, breakdown, flops)``) and
:class:`~repro.baselines.dfx.DfxAppliance` through two per-stage latency
methods.  That was fine for the one-shot paper experiments, but anything that
wants to *compose* passes across backends — most importantly the
request-level serving simulator of :mod:`repro.serving` — needs a single
vocabulary.

This module defines that vocabulary:

:class:`PassCost`
    The cost of one full model pass (all blocks, embedding, LM head):
    latency, a per-tag latency breakdown, a dynamic-energy breakdown and the
    FLOPs performed.  It is a frozen value object with the arithmetic the
    serving layer needs (linear interpolation between two KV lengths).

:class:`CostModel`
    A :class:`typing.Protocol` — ``pass_cost(model, stage_pass) -> PassCost``
    plus ``name`` and ``cache_stats()`` — implemented by all four evaluated
    backends (IANUS, NPU-MEM, A100, DFX).  Every implementation routes
    through the process-wide pass-cost caches of :mod:`repro.perf.cache`
    (the simulator cache for IANUS/NPU-MEM, the baseline cache for
    A100/DFX), so repeated costing of the same pass is memoized — and, with
    the persistent layer installed, memoized *across* CLI invocations — and
    ``cache_stats()`` makes the hit/miss counters observable uniformly.

:func:`make_cost_model`
    Backend factory by CLI name (``"ianus"``, ``"npu-mem"``,
    ``"partitioned"``, ``"a100"``, ``"dfx"``, plus the multi-device
    ``"ianus-xN"`` / ``"npu-mem-xN"`` / ``"partitioned-xN"`` spellings),
    shared by the CLI, the serving experiments and the tests so the
    name → instance mapping cannot diverge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.energy.model import EnergyBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (system imports us)
    from repro.models.transformer import ModelConfig
    from repro.models.workload import StagePass

__all__ = [
    "PassCost",
    "CostModel",
    "BACKEND_NAMES",
    "MULTI_DEVICE_BACKEND_NAMES",
    "ALL_BACKEND_NAMES",
    "make_cost_model",
    "lerp_pass_cost",
]


@dataclass(frozen=True)
class PassCost:
    """Cost of one full model pass on one backend.

    Attributes
    ----------
    latency_s:
        End-to-end latency of the pass.
    breakdown:
        Per-tag latency split (the tags of Fig. 10 for the simulator
        backends, the kernel tags of Fig. 2 for the GPU, per-stage tags for
        DFX).  Values sum approximately to ``latency_s``.
    energy:
        Dynamic energy of the pass.
    flops:
        Floating-point operations performed by the pass.
    """

    latency_s: float
    breakdown: dict[str, float] = field(default_factory=dict)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown.zero)
    flops: float = 0.0


def lerp_pass_cost(low: PassCost, high: PassCost, weight: float) -> PassCost:
    """Linear interpolation between two pass costs (component-wise).

    ``weight`` is the fractional position between ``low`` (0.0) and ``high``
    (1.0).  Used by the serving layer to price decode passes at KV lengths
    between two sampled anchors, mirroring the piecewise-linear fast mode of
    :meth:`repro.core.system.IanusSystem.run`.
    """
    if weight <= 0.0:
        return low
    if weight >= 1.0:
        return high

    def mix(a: float, b: float) -> float:
        return a + weight * (b - a)

    breakdown = {
        tag: mix(low.breakdown.get(tag, 0.0), high.breakdown.get(tag, 0.0))
        for tag in dict.fromkeys([*low.breakdown, *high.breakdown])
    }
    energy = EnergyBreakdown(
        normal_memory_j=mix(low.energy.normal_memory_j, high.energy.normal_memory_j),
        pim_op_j=mix(low.energy.pim_op_j, high.energy.pim_op_j),
        npu_cores_j=mix(low.energy.npu_cores_j, high.energy.npu_cores_j),
    )
    return PassCost(
        latency_s=mix(low.latency_s, high.latency_s),
        breakdown=breakdown,
        energy=energy,
        flops=mix(low.flops, high.flops),
    )


@runtime_checkable
class CostModel(Protocol):
    """What the serving layer (and anything pass-composing) needs of a backend.

    Implementations must price passes *consistently with their own ``run``*:
    summing ``pass_cost`` latencies over a workload's passes reproduces the
    backend's end-to-end latency — exactly for the simulator backends'
    ``mode="exact"``, and within the endpoint-integration tolerance for the
    analytical baselines (whose ``run`` integrates a trapezoid over the KV
    axis instead of summing every pass).  Covered by the test suite.
    """

    @property
    def name(self) -> str:
        """Human-readable backend name (appears in reports)."""
        ...  # pragma: no cover - protocol

    def pass_cost(self, model: "ModelConfig", stage_pass: "StagePass") -> PassCost:
        """Latency, breakdown, energy and FLOPs of one full model pass."""
        ...  # pragma: no cover - protocol

    def cache_stats(self) -> dict:
        """Hit/miss counters of the pass-cost cache this backend routes through."""
        ...  # pragma: no cover - protocol


#: CLI names of every single-device backend, in presentation order.
BACKEND_NAMES = ("ianus", "npu-mem", "partitioned", "a100", "dfx")

#: The multi-device spellings ``repro list`` advertises (the paper's Sec. 7.1
#: device counts).  ``make_cost_model`` accepts any ``-xN`` suffix with
#: N >= 1 on the three simulator backends, not just these three counts.
MULTI_DEVICE_BACKEND_NAMES = ("ianus-x2", "ianus-x4", "ianus-x8")

#: Every advertised backend name, single- and multi-device.
ALL_BACKEND_NAMES = BACKEND_NAMES + MULTI_DEVICE_BACKEND_NAMES

#: ``<simulator backend>-xN`` — the multi-device name grammar.
_MULTI_DEVICE_PATTERN = re.compile(r"^(ianus|npu-mem|partitioned)-x(\d+)$")


def make_cost_model(name: str, num_devices: int = 1) -> CostModel:
    """Instantiate a backend by CLI name.

    All instances share the process-wide pass-cost caches, so cost models
    built here are uniformly memoizable (and persistently so when
    :func:`repro.perf.cache.install_disk_caches` is active).

    Multi-device clusters are spelled ``"<backend>-xN"`` (e.g.
    ``"ianus-x4"``) for the simulator backends; ``"ianus-xN"`` and
    ``"partitioned-xN"`` return an :class:`~repro.core.system.IanusSystem`
    with ``num_devices=N``, the tensor-parallel model Fig. 17 / Fig. 18
    price with.  The ``num_devices`` argument is the equivalent positional
    spelling; the two must agree when both are given.  The analytical baselines
    (``a100``, ``dfx``) model one device and reject any other count.
    """
    from repro.baselines.dfx import DfxAppliance
    from repro.baselines.gpu import A100Gpu
    from repro.baselines.npu_mem import NpuMemSystem
    from repro.config import SystemConfig
    from repro.core.system import IanusSystem

    match = _MULTI_DEVICE_PATTERN.match(name)
    if match:
        devices = int(match.group(2))
        if devices < 1:
            raise ValueError(f"backend {name!r} names a zero-device cluster")
        if num_devices != 1 and num_devices != devices:
            raise ValueError(
                f"backend {name!r} names {devices} device(s) but "
                f"num_devices={num_devices} was also given"
            )
        # The same backend as the plain name with num_devices=N.
        name, num_devices = match.group(1), devices
    if name == "ianus":
        return IanusSystem(SystemConfig.ianus(), num_devices=num_devices)
    if name == "npu-mem":
        return NpuMemSystem(num_devices=num_devices)
    if name == "partitioned":
        return IanusSystem(SystemConfig.partitioned(), num_devices=num_devices)
    if name in ("a100", "dfx"):
        if num_devices != 1:
            raise ValueError(
                f"num_devices={num_devices} is not supported by the analytical "
                f"{name!r} baseline, which models one device; only the "
                f"simulator backends (ianus, npu-mem, partitioned) take a "
                f"device count"
            )
        return A100Gpu() if name == "a100" else DfxAppliance()
    raise ValueError(
        f"unknown backend {name!r}; known: {', '.join(ALL_BACKEND_NAMES)} "
        f"(and <simulator backend>-xN for any device count N)"
    )
