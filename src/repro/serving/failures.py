"""Seeded failure schedules for the cluster simulator.

A :class:`FailureSchedule` decides *when replicas die* — and optionally
when they come back — independently of the trace and of the scheduler, so
the same chaos scenario can be replayed against any policy, router, or
autoscaler.  ``events(num_replicas)`` expands a schedule into a sorted
tuple of :class:`FailureEvent`\\ s that :class:`~repro.serving.cluster.
ClusterSimulator` applies at their instants: a ``fail`` kills the replica
mid-decode (its KV pages and in-flight requests are lost and failed over
to survivors for recompute), a ``recover`` brings it back empty.

Schedules are deterministic: the ``seeded`` schedule draws from
``random.Random(f"failures/{seed}")``, so the same seed and fleet size
produce the same chaos byte for byte — a failure run can be replayed and
diffed exactly like any other simulation here.

The registry :data:`FAILURE_SCHEDULES` and :func:`make_failure_schedule`
follow the ``make_policy`` / ``make_router`` validated-construction idiom:
unknown names raise listing the known spellings, and keyword arguments a
schedule does not accept raise instead of being dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "FailureEvent",
    "FailureSchedule",
    "NoFailures",
    "SingleFailure",
    "SeededFailures",
    "FAILURE_SCHEDULES",
    "make_failure_schedule",
]


@dataclass(frozen=True, order=True)
class FailureEvent:
    """One scheduled fleet change: replica ``replica`` fails or recovers
    at ``time_s``.  Ordered by time (replica, then kind, break ties)."""

    time_s: float
    replica: int
    kind: str  # "fail" | "recover"


class FailureSchedule:
    """Base class: a deterministic plan of replica deaths and recoveries."""

    name = "failure-schedule"

    def events(self, num_replicas: int) -> tuple[FailureEvent, ...]:
        """The schedule expanded against a fleet of ``num_replicas``."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class NoFailures(FailureSchedule):
    """Nothing ever fails — the baseline every chaos run is diffed against."""

    name = "none"

    def events(self, num_replicas: int) -> tuple[FailureEvent, ...]:
        return ()


class SingleFailure(FailureSchedule):
    """Kill one replica at a fixed instant, optionally recover it later.

    The workhorse scenario of the failover tests and benches: precise
    enough to place the failure mid-decode and measure p99 degradation
    through the event window.
    """

    name = "single"

    def __init__(
        self,
        replica: int = 0,
        at_s: float = 1.0,
        recover_after_s: "float | None" = None,
    ) -> None:
        if replica < 0:
            raise ValueError("replica must be non-negative")
        if not at_s >= 0.0:
            raise ValueError("at_s must be non-negative")
        if recover_after_s is not None and not recover_after_s > 0.0:
            raise ValueError("recover_after_s must be positive (or None)")
        self.replica = replica
        self.at_s = at_s
        self.recover_after_s = recover_after_s

    def events(self, num_replicas: int) -> tuple[FailureEvent, ...]:
        if self.replica >= num_replicas:
            raise ValueError(
                f"failure schedule kills replica {self.replica} but the "
                f"cluster starts with {num_replicas} replica(s)"
            )
        scheduled = [FailureEvent(self.at_s, self.replica, "fail")]
        if self.recover_after_s is not None:
            scheduled.append(
                FailureEvent(
                    self.at_s + self.recover_after_s, self.replica, "recover"
                )
            )
        return tuple(scheduled)

    def describe(self) -> str:
        recovery = (
            "no recovery"
            if self.recover_after_s is None
            else f"recovers after {self.recover_after_s:g}s"
        )
        return f"kill replica {self.replica} at {self.at_s:g}s ({recovery})"


class SeededFailures(FailureSchedule):
    """Poisson chaos: failures at mean interval ``mtbf_s`` until ``horizon_s``.

    Victims are drawn uniformly among the replicas alive at the failure
    instant; the last standing replica is never killed (failover needs a
    survivor to recompute on).  Fully determined by ``(seed,
    num_replicas)`` — the RNG stream is seeded ``f"failures/{seed}"``.
    """

    name = "seeded"

    def __init__(
        self,
        seed: int = 0,
        mtbf_s: float = 10.0,
        horizon_s: float = 60.0,
        recover_after_s: "float | None" = 5.0,
        max_failures: "int | None" = None,
    ) -> None:
        if not mtbf_s > 0.0:
            raise ValueError("mtbf_s must be positive")
        # An infinite horizon never ends the draw loop in events().
        if not 0.0 < horizon_s < float("inf"):
            raise ValueError("horizon_s must be positive and finite")
        if recover_after_s is not None and not recover_after_s > 0.0:
            raise ValueError("recover_after_s must be positive (or None)")
        if max_failures is not None and max_failures < 0:
            raise ValueError("max_failures must be non-negative (or None)")
        self.seed = seed
        self.mtbf_s = mtbf_s
        self.horizon_s = horizon_s
        self.recover_after_s = recover_after_s
        self.max_failures = max_failures

    def events(self, num_replicas: int) -> tuple[FailureEvent, ...]:
        rng = random.Random(f"failures/{self.seed}")
        scheduled: list[FailureEvent] = []
        down_until: dict[int, float] = {}
        clock = 0.0
        failures = 0
        while self.max_failures is None or failures < self.max_failures:
            clock += rng.expovariate(1.0) * self.mtbf_s
            if clock > self.horizon_s:
                break
            alive = [
                replica
                for replica in range(num_replicas)
                if down_until.get(replica, 0.0) <= clock
            ]
            if len(alive) <= 1:
                continue  # never orphan the fleet: keep one survivor
            victim = alive[rng.randrange(len(alive))]
            scheduled.append(FailureEvent(clock, victim, "fail"))
            failures += 1
            if self.recover_after_s is not None:
                back = clock + self.recover_after_s
                scheduled.append(FailureEvent(back, victim, "recover"))
                down_until[victim] = back
            else:
                down_until[victim] = float("inf")
        return tuple(sorted(scheduled))

    def describe(self) -> str:
        return (
            f"Poisson failures, MTBF {self.mtbf_s:g}s over {self.horizon_s:g}s "
            f"(seed {self.seed})"
        )


#: Failure-schedule registry: CLI/experiment name -> class, in
#: presentation order (``repro list`` prints these).
FAILURE_SCHEDULES: dict[str, type[FailureSchedule]] = {
    "none": NoFailures,
    "single": SingleFailure,
    "seeded": SeededFailures,
}


def make_failure_schedule(name: str, **kwargs) -> FailureSchedule:
    """Instantiate a failure schedule by name — the single validation point.

    Unknown names raise with the list of known schedules; keyword
    arguments the named schedule does not accept raise instead of being
    dropped (the same validated construction path as ``make_policy`` /
    ``make_router``).
    """
    from repro.serving.simulator import _validated_construct

    return _validated_construct("failure schedule", FAILURE_SCHEDULES, name, kwargs)
