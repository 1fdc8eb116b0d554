"""Causal autoscaling policies for the cluster simulator.

An :class:`Autoscaler` watches the fleet at request-arrival instants and
decides to add a replica, drain one, or do nothing.  The decision is
**causal**: it sees only what a production control loop would see at that
instant — the router-visible :class:`~repro.serving.cluster.
ReplicaSnapshot`\\ s (queue depths, outstanding tokens, free KV pages) and
the SLO attainment of *already completed* requests inside a trailing
window.  No autoscaler ever reads the trace ahead or a request's future
service demand.

Scaling is not free.  A spawned replica must first load its weights over
the host link and prime its pipeline with one decode pass — the warm-up is
priced through the existing :class:`~repro.core.costmodel.CostModel` by
:func:`replica_warmup_s` — before the router may send it work, so a policy
that reacts too late pays the warm-up right when capacity is scarcest.
A drained replica finishes the work already routed to it, takes no new
requests, and stops accruing replica-seconds once empty — replica-seconds
being the energy/cost proxy the chaos benches trade against SLO
attainment.

The registry :data:`AUTOSCALERS` (``fixed``, ``queue-depth``,
``slo-attainment``, ``kv-pressure``) and :func:`make_autoscaler` follow
the ``make_policy`` / ``make_router`` validated-construction idiom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.models.workload import Stage, StagePass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.core.costmodel import CostModel
    from repro.models.transformer import ModelConfig
    from repro.serving.cluster import ReplicaSnapshot

__all__ = [
    "AutoscalerSignal",
    "Autoscaler",
    "FixedAutoscaler",
    "QueueDepthAutoscaler",
    "SloAttainmentAutoscaler",
    "KvPressureAutoscaler",
    "AUTOSCALERS",
    "make_autoscaler",
    "replica_warmup_s",
    "DEFAULT_WEIGHT_LINK_BYTES_PER_S",
]

#: Host-to-accelerator link bandwidth for streaming weights into a freshly
#: spawned replica — a PCIe-gen4-x16-class 16 GB/s unless overridden.
DEFAULT_WEIGHT_LINK_BYTES_PER_S = 16e9


def replica_warmup_s(
    cost_model: "CostModel",
    model: "ModelConfig",
    link_bytes_per_s: float = DEFAULT_WEIGHT_LINK_BYTES_PER_S,
) -> float:
    """Modeled warm-up of a freshly spawned replica, in seconds.

    Streaming ``model.param_bytes`` of weights over the host link, plus one
    KV-length-1 decode pass priced by the cost model to prime the pipeline.
    The cluster holds a spawned replica out of routing for this long.
    """
    if link_bytes_per_s <= 0.0:
        raise ValueError("link_bytes_per_s must be positive")
    load_s = model.param_bytes / link_bytes_per_s
    prime_s = cost_model.pass_cost(
        model, StagePass(Stage.GENERATION, 1, 1)
    ).latency_s
    return load_s + prime_s


@dataclass(frozen=True)
class AutoscalerSignal:
    """What a scaling policy is allowed to see at a decision instant.

    ``snapshots`` covers the *serving-eligible* replicas (alive, warmed,
    not draining); ``provisioned_replicas`` additionally counts replicas
    still warming up — capacity already paid for, so a policy must not
    keep spawning while its last decision warms.  ``slo_attainment`` is
    the fraction of requests completed inside the trailing window that met
    their SLO target, or ``None`` when no targets are configured or
    nothing completed yet.
    """

    clock_s: float
    snapshots: "tuple[ReplicaSnapshot, ...]"
    provisioned_replicas: int
    slo_attainment: "float | None"


class Autoscaler:
    """Base class: clamps decisions to ``[min_replicas, max_replicas]`` and
    enforces a cooldown between fleet changes; subclasses implement
    :meth:`decide` returning +1 (spawn), -1 (drain) or 0."""

    name = "autoscaler"

    def __init__(
        self,
        min_replicas: int = 1,
        max_replicas: int = 8,
        cooldown_s: float = 0.0,
        window_s: float = 5.0,
    ) -> None:
        if min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if max_replicas < min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        # ``not x > 0`` style checks also reject NaN, which fails every
        # comparison.
        if not cooldown_s >= 0.0:
            raise ValueError("cooldown_s must be non-negative")
        if not window_s > 0.0:
            raise ValueError("window_s must be positive")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.cooldown_s = cooldown_s
        self.window_s = window_s
        self._last_change_s: "float | None" = None

    def reset(self) -> None:
        """Forget decision history (called at the start of every run)."""
        self._last_change_s = None

    def decide(self, signal: AutoscalerSignal) -> int:
        raise NotImplementedError

    def evaluate(self, signal: AutoscalerSignal) -> int:
        """The clamped, cooldown-gated decision the cluster acts on."""
        delta = self.decide(signal)
        if delta > 0 and signal.provisioned_replicas >= self.max_replicas:
            return 0
        if delta < 0 and signal.provisioned_replicas <= self.min_replicas:
            return 0
        if (
            delta != 0
            and self._last_change_s is not None
            and signal.clock_s - self._last_change_s < self.cooldown_s
        ):
            return 0
        if delta != 0:
            self._last_change_s = signal.clock_s
        return 1 if delta > 0 else (-1 if delta < 0 else 0)

    # ------------------------------------------------------------------
    @staticmethod
    def _mean_queue_depth(snapshots: "Sequence[ReplicaSnapshot]") -> float:
        if not snapshots:
            return 0.0
        total = sum(snapshot.outstanding_requests for snapshot in snapshots)
        return total / len(snapshots)

    def describe(self) -> str:
        return self.name


class FixedAutoscaler(Autoscaler):
    """Never scales: the fleet the run started with is the fleet it keeps.

    The inert baseline — a chaos configuration with ``fixed`` and no
    failures is byte-identical to a plain cluster run.
    """

    name = "fixed"

    def decide(self, signal: AutoscalerSignal) -> int:
        return 0


class QueueDepthAutoscaler(Autoscaler):
    """Scale on mean queue depth: spawn above ``high`` outstanding
    requests per eligible replica, drain below ``low``."""

    name = "queue-depth"

    def __init__(
        self,
        high: float = 3.0,
        low: float = 0.5,
        min_replicas: int = 1,
        max_replicas: int = 8,
        cooldown_s: float = 0.0,
        window_s: float = 5.0,
    ) -> None:
        if not 0.0 <= low < high:
            raise ValueError("need 0 <= low < high queue-depth thresholds")
        super().__init__(
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            cooldown_s=cooldown_s,
            window_s=window_s,
        )
        self.high = high
        self.low = low

    def decide(self, signal: AutoscalerSignal) -> int:
        depth = self._mean_queue_depth(signal.snapshots)
        if depth > self.high:
            return 1
        if depth < self.low:
            return -1
        return 0


class KvPressureAutoscaler(Autoscaler):
    """Scale on KV-pool pressure: spawn when the mean reserved fraction of
    the eligible replicas' page pools exceeds ``high``, drain below
    ``low``.  Reacts to *memory* saturation, which under paged admission
    precedes latency collapse."""

    name = "kv-pressure"

    def __init__(
        self,
        high: float = 0.7,
        low: float = 0.2,
        min_replicas: int = 1,
        max_replicas: int = 8,
        cooldown_s: float = 0.0,
        window_s: float = 5.0,
    ) -> None:
        if not 0.0 <= low < high <= 1.0:
            raise ValueError("need 0 <= low < high <= 1 KV-pressure thresholds")
        super().__init__(
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            cooldown_s=cooldown_s,
            window_s=window_s,
        )
        self.high = high
        self.low = low

    def decide(self, signal: AutoscalerSignal) -> int:
        if not signal.snapshots:
            return 0
        pressure = sum(
            1.0 - snapshot.free_kv_pages / snapshot.total_kv_pages
            for snapshot in signal.snapshots
            if snapshot.total_kv_pages > 0
        ) / len(signal.snapshots)
        if pressure > self.high:
            return 1
        if pressure < self.low:
            return -1
        return 0


class SloAttainmentAutoscaler(Autoscaler):
    """Scale on observed SLO attainment over the trailing window: spawn
    when attainment falls below ``low``, drain when it holds above
    ``high`` *and* the queues are shallow (attainment alone cannot tell an
    over-provisioned fleet from a lucky one).  Inert when the run has no
    SLO targets."""

    name = "slo-attainment"

    def __init__(
        self,
        low: float = 0.9,
        high: float = 0.995,
        drain_depth: float = 0.5,
        min_replicas: int = 1,
        max_replicas: int = 8,
        cooldown_s: float = 0.0,
        window_s: float = 5.0,
    ) -> None:
        if not 0.0 < low < high <= 1.0:
            raise ValueError("need 0 < low < high <= 1 attainment thresholds")
        if not drain_depth >= 0.0:
            raise ValueError("drain_depth must be non-negative")
        super().__init__(
            min_replicas=min_replicas,
            max_replicas=max_replicas,
            cooldown_s=cooldown_s,
            window_s=window_s,
        )
        self.low = low
        self.high = high
        self.drain_depth = drain_depth

    def decide(self, signal: AutoscalerSignal) -> int:
        attainment = signal.slo_attainment
        if attainment is None:
            return 0
        if attainment < self.low:
            return 1
        if (
            attainment > self.high
            and self._mean_queue_depth(signal.snapshots) < self.drain_depth
        ):
            return -1
        return 0


#: Autoscaler registry: CLI/experiment name -> class, in presentation
#: order (``repro list`` prints these).
AUTOSCALERS: dict[str, type[Autoscaler]] = {
    "fixed": FixedAutoscaler,
    "queue-depth": QueueDepthAutoscaler,
    "slo-attainment": SloAttainmentAutoscaler,
    "kv-pressure": KvPressureAutoscaler,
}


def make_autoscaler(name: str, **kwargs) -> Autoscaler:
    """Instantiate an autoscaler by name — the single validation point.

    Unknown names raise with the list of known autoscalers; keyword
    arguments the named autoscaler does not accept raise instead of being
    dropped (the same validated construction path as ``make_policy`` /
    ``make_router``).
    """
    from repro.serving.simulator import _validated_construct

    return _validated_construct("autoscaler", AUTOSCALERS, name, kwargs)
