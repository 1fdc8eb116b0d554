"""Multi-replica cluster serving: request routing over replicated devices.

One IANUS appliance (or GPU) is a *replica*.  A :class:`ClusterSimulator`
builds one :class:`~repro.serving.simulator.ServingSimulator` and makes
each replica one run of it (``begin()``): a run owns its queues, clock and
KV page accountant, while the cost providers and decode-cost tables it
prices from are the fleet's one copy.  The cluster fans a single arrival
trace out over ``R`` such runs through a pluggable :class:`Router` and
pools the per-replica metrics into one :class:`ClusterMetrics` — the
serving-layer counterpart of the paper's Sec. 7.1 scale-out, but at
*request* rather than tensor granularity (each replica may itself be a
multi-device cluster via ``make_cost_model("ianus-xN")``).

Routing is **online and causal**: every router, on every fleet, runs one
per-arrival loop.  For each arrival in order it applies the fleet events
due by then, advances every replica holding outstanding work to the
arrival instant (:meth:`~repro.serving.simulator.SimulationRun.advance_until`;
failed and idle replicas hold none, so nothing router-visible could move
on them), consults the autoscaler, chooses the candidate replicas, and
runs the route step — snapshot the candidates, ask the router, check its
choice, book the request.  The router thus sees exactly the state a real
load balancer would — queue depths, outstanding tokens and free KV pages
as of that moment, never the future.  Failover re-routes through the same
candidate rule and route step.  Routers:

``round-robin``
    Ignore state, rotate.  The baseline every balancer is measured against.
``least-outstanding-tokens``
    Route to the replica with the fewest prompt+output tokens still to
    compute (queued or in flight) — join-shortest-queue in token units.
``kv-aware``
    Route to the replica with the most *effective* free KV pages: free
    pages plus any pages of the arriving request's shared prefix already
    resident there (those cost the request nothing — landing next to its
    prefix is both cheaper and stickier, so group members co-locate and
    the prefix is charged once per replica instead of once per member).
    Free pages track both load and *memory* pressure, which is what
    actually gates admission under paged-KV serving; under skewed traces
    this keeps the heavy tail from piling onto one replica's pool.
    Without shared prefixes the resident term is identically zero and the
    router scores plain free pages, byte-identical to before.

A one-replica cluster reproduces the single-device simulator **byte for
byte** under every router (all decisions collapse to replica 0, and the
run prices passes over the same anchor grid), which is the differential
test pinning this layer to PR 3/4's.

Production ops: failures, failover, autoscaling
-----------------------------------------------
A production fleet is not fixed: replicas die, recover, and are scaled
with load.  ``ClusterSimulator(..., failures=..., autoscaler=...)``
activates the ops layer:

- a :class:`~repro.serving.failures.FailureSchedule` kills replicas at
  scheduled instants — the victim's KV pages are dropped and its
  unfinished requests *fail over*: they are re-routed (through the same
  router, over the surviving replicas' state at the failure instant) and
  recomputed from scratch, keeping their original arrival so latency
  accrues across the failure.  Recovery brings the replica back empty.
- an :class:`~repro.serving.autoscale.Autoscaler` is consulted at every
  arrival instant on router-visible state only.  A spawned replica is one
  more run of the fleet's simulator: it installs the decode tables the
  others price from by reference and builds nothing.  It warms up for
  :func:`~repro.serving.autoscale.replica_warmup_s` (weights over the
  host link plus one priming pass, priced by the cost model) before it
  may serve; a drained replica finishes its routed work but takes no
  new requests.  Routers therefore receive a *subset* of snapshots and
  must return the chosen snapshot's ``index`` field.

One candidate rule serves arrivals and failover alike: the eligible
replicas (alive, warmed, not draining); failing those, every in-progress
drain is cancelled and the undrained replicas serve; failing those, the
replicas still warming up take the work and start it no earlier than
their warm-up ends.  Only a fleet with every replica down raises.

The fleet's cost is metered in **replica-seconds** (the energy/price
proxy the chaos benches trade against SLO attainment): each replica is
billed from the trace start (or its spawn) until it fails, empties after
a drain, or the run ends.  With no failure schedule and no autoscaler the
ops layer is inert and the run is byte-identical to the plain cluster.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Sequence

from repro.core.costmodel import CostModel
from repro.models.transformer import ModelConfig
from repro.serving.autoscale import (
    Autoscaler,
    AutoscalerSignal,
    FixedAutoscaler,
    make_autoscaler,
    replica_warmup_s,
)
from repro.serving.failures import FailureSchedule, make_failure_schedule
from repro.serving.request import CompletionRecord, Request, RequestMetrics
from repro.serving.simulator import (
    ServingMetrics,
    ServingSimulator,
    ServingStall,
    SimulationRun,
    _book_phase,
    _validated_construct,
    decode_kv_bounds,
    request_aggregates,
)
from repro.serving.validate import check_cluster_invariants

__all__ = [
    "ReplicaSnapshot",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingTokensRouter",
    "KvAwareRouter",
    "ModelAwareRouter",
    "ROUTERS",
    "make_router",
    "ClusterMetrics",
    "ClusterSimulator",
    "cluster_kv_peak",
]


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaSnapshot:
    """What a router may observe about one replica at an arrival instant."""

    index: int
    #: Requests routed here and not yet completed (queued or in flight).
    outstanding_requests: int
    #: Prompt + output tokens not yet computed across those requests.
    outstanding_tokens: int
    #: Uncommitted pages of the replica's KV pool right now.
    free_kv_pages: int
    total_kv_pages: int
    #: Pages of the *arriving request's* shared prefix already resident on
    #: this replica (0 when the request shares nothing or the prefix is
    #: absent) — those pages would cost the request nothing here.
    resident_prefix_pages: int = 0
    #: Model whose weights are resident on the replica right now,
    #: normalized like :attr:`Request.model` (empty string = the cluster's
    #: default model).  Routing a request here costs no weight swap iff
    #: this equals the request's ``model`` field.
    resident_model: str = ""


class Router:
    """Chooses the replica that serves the next arrival.

    ``select`` sees one :class:`ReplicaSnapshot` per *eligible* replica
    (ascending ``index`` order — under failures/autoscaling this may be a
    subset of the fleet) plus the arriving request, and returns the chosen
    snapshot's ``index`` field.  Routers may keep internal state
    (round-robin does); ``reset`` is called at the start of every cluster
    simulation so a reused :class:`ClusterSimulator` stays deterministic
    run over run.
    """

    name = "router"

    def reset(self) -> None:
        """Drop any per-simulation state (no-op for stateless routers)."""

    def select(
        self, replicas: "Sequence[ReplicaSnapshot]", request: Request
    ) -> int:
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Rotate through the offered replicas, blind to their state."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, replicas, request):
        choice = replicas[self._next % len(replicas)].index
        self._next += 1
        return choice

    def reset(self) -> None:
        self._next = 0


class LeastOutstandingTokensRouter(Router):
    """Join-shortest-queue in token units (ties: lowest replica index)."""

    name = "least-outstanding-tokens"

    def select(self, replicas, request):
        return min(
            replicas, key=lambda state: (state.outstanding_tokens, state.index)
        ).index


class KvAwareRouter(Router):
    """Route to the replica with the most effective free KV pages.

    Effective = free pages + pages of the arriving request's shared
    prefix already resident there (ties: lowest index).  The resident
    term is zero for requests that share nothing, so without prefix
    sharing this is exactly the most-free-pages rule.
    """

    name = "kv-aware"

    def select(self, replicas, request):
        return min(
            replicas,
            key=lambda state: (
                -(state.free_kv_pages + state.resident_prefix_pages),
                state.index,
            ),
        ).index


class ModelAwareRouter(Router):
    """Route on (resident model, load, KV): swap avoidance first.

    Prefers replicas whose resident weights already match the arriving
    request's model (a mismatch costs a full weight swap on the replica's
    next pass for that request), then the least outstanding tokens among
    them, then the most effective free KV pages, then the lowest index.
    With a single-model set every replica always matches, so this
    degrades to exactly the least-outstanding-tokens rule with a KV
    tie-break — the model term never reorders a model-blind fleet.
    """

    name = "model-aware"

    def select(self, replicas, request):
        return min(
            replicas,
            key=lambda state: (
                0 if state.resident_model == request.model else 1,
                state.outstanding_tokens,
                -(state.free_kv_pages + state.resident_prefix_pages),
                state.index,
            ),
        ).index


#: Router registry: CLI/experiment name -> class, in presentation order.
ROUTERS: dict[str, type[Router]] = {
    "round-robin": RoundRobinRouter,
    "least-outstanding-tokens": LeastOutstandingTokensRouter,
    "kv-aware": KvAwareRouter,
    "model-aware": ModelAwareRouter,
}


def make_router(name: str, **kwargs) -> Router:
    """Instantiate a router by name — the single validation point.

    Unknown names raise with the list of known routers; keyword arguments
    the named router does not accept raise instead of being dropped (the
    same validated construction path as
    :func:`~repro.serving.simulator.make_policy`).
    """
    return _validated_construct("router", ROUTERS, name, kwargs)


# ----------------------------------------------------------------------
# Cluster-wide KV peak
# ----------------------------------------------------------------------
def cluster_kv_peak(event_logs: "Sequence[Sequence]") -> int:
    """Peak *summed* reserved KV pages across replicas at any event instant.

    Merges the replicas' event logs in clock order (each log's
    ``kv_reserved_pages`` is a step function over its own events) and
    tracks the maximum of the sum — the cluster-wide high-water mark, which
    is lower than the sum of per-replica peaks whenever the replicas peak
    at different times.
    """
    # (clock, replica, sequence) is unique, so the tuples sort by it
    # without a key function.
    merged = sorted(
        (event.clock_s, replica_index, sequence, event.kv_reserved_pages)
        for replica_index, events in enumerate(event_logs)
        for sequence, event in enumerate(events)
    )
    current = [0] * len(event_logs)
    total = peak = 0
    for _, replica_index, _, reserved in merged:
        total += reserved - current[replica_index]
        current[replica_index] = reserved
        if total > peak:
            peak = total
    return peak


# ----------------------------------------------------------------------
# Pooled metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterMetrics:
    """Pooled metrics of one cluster simulation (plus per-replica detail)."""

    backend: str
    model: str
    policy: str
    router: str
    admission: str
    num_replicas: int
    num_requests: int
    makespan_s: float
    busy_s: float
    utilization: float
    output_tokens: int
    tokens_per_s: float
    requests_per_s: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p99_s: float
    ttft_mean_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tpot_mean_s: float
    energy_j: float
    flops: float
    admissions: int
    peak_active: int
    preemptions: int
    recomputed_tokens: int
    #: Routes to each replica and the tokens they carried, in replica
    #: order.  Every route counts, as in ``ClusterSimulator.assignments``:
    #: a request failover re-routes counts once at each replica it was
    #: routed to, so the routes sum to the trace plus the re-routes.
    routed_requests: tuple[int, ...]
    routed_tokens: tuple[int, ...]
    #: max/min routed tokens over the replicas that received at least one
    #: request (1.0 when fewer than two replicas did).
    load_imbalance: float
    #: Cluster-wide KV peak.  With event logs recorded it is the merged
    #: instantaneous peak (:func:`cluster_kv_peak`); without them it is the
    #: sum of the per-replica peaks, an upper bound that is higher whenever
    #: the replicas peak at different times.
    kv_peak_pages: int
    kv_pages_total: int
    slo_attainment: "float | None" = None
    slo_by_class: dict = field(default_factory=dict)
    #: Production-ops accounting (inert defaults when no failure schedule
    #: or autoscaler was configured).
    failure_schedule: str = "none"
    autoscaler: str = "fixed"
    failures: int = 0
    recoveries: int = 0
    rerouted_requests: int = 0
    dropped_kv_pages: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    #: Summed alive time across replicas — the fleet's energy/cost proxy.
    replica_seconds: float = 0.0
    peak_replicas: int = 0
    #: Modeled warm-up a spawned replica pays before serving.
    warmup_s: float = 0.0
    #: Names of the co-hosted model set; empty for single-model clusters
    #: (the pre-multi-model representation is preserved byte for byte).
    models: tuple = ()
    #: Weight swaps paid across replicas when active models changed.
    model_swaps: int = 0
    #: Summed simulated seconds replicas spent streaming model weights.
    model_swap_s: float = 0.0
    #: Pooled per-(model, class) SLO attainment, keyed ``"model/class"`` —
    #: populated only for multi-model clusters with SLO targets.
    slo_by_model_class: dict = field(default_factory=dict)
    per_replica: tuple[ServingMetrics, ...] = field(default_factory=tuple)
    per_request: tuple[RequestMetrics, ...] = field(default_factory=tuple)

    def to_dict(
        self, include_requests: bool = True, include_replicas: bool = True
    ) -> dict:
        """JSON-stable representation (reports and determinism tests)."""
        data = {
            "backend": self.backend,
            "model": self.model,
            "policy": self.policy,
            "router": self.router,
            "admission": self.admission,
            "num_replicas": self.num_replicas,
            "num_requests": self.num_requests,
            "makespan_s": self.makespan_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "output_tokens": self.output_tokens,
            "tokens_per_s": self.tokens_per_s,
            "requests_per_s": self.requests_per_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "ttft_mean_s": self.ttft_mean_s,
            "ttft_p50_s": self.ttft_p50_s,
            "ttft_p99_s": self.ttft_p99_s,
            "tpot_mean_s": self.tpot_mean_s,
            "energy_j": self.energy_j,
            "flops": self.flops,
            "admissions": self.admissions,
            "peak_active": self.peak_active,
            "preemptions": self.preemptions,
            "recomputed_tokens": self.recomputed_tokens,
            "routed_requests": list(self.routed_requests),
            "routed_tokens": list(self.routed_tokens),
            "load_imbalance": self.load_imbalance,
            "kv_peak_pages": self.kv_peak_pages,
            "kv_pages_total": self.kv_pages_total,
            "slo_attainment": self.slo_attainment,
            "slo_by_class": self.slo_by_class,
            "failure_schedule": self.failure_schedule,
            "autoscaler": self.autoscaler,
            "failures": self.failures,
            "recoveries": self.recoveries,
            "rerouted_requests": self.rerouted_requests,
            "dropped_kv_pages": self.dropped_kv_pages,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "replica_seconds": self.replica_seconds,
            "peak_replicas": self.peak_replicas,
            "warmup_s": self.warmup_s,
        }
        if len(self.models) > 1:
            # Multi-model keys appear only for real model sets, so a
            # single-model cluster's dict matches the pre-multi-model
            # layout.
            data["models"] = list(self.models)
            data["model_swaps"] = self.model_swaps
            data["model_swap_s"] = self.model_swap_s
            data["slo_by_model_class"] = self.slo_by_model_class
        if include_replicas:
            data["per_replica"] = [
                metrics.to_dict(include_requests=False)
                for metrics in self.per_replica
            ]
        if include_requests:
            data["per_request"] = [metrics.to_dict() for metrics in self.per_request]
        return data

    def summary(self) -> str:
        """Multi-line human-readable summary (``repro serve`` prints this)."""
        routed = ", ".join(
            f"r{index}: {count} req / {tokens} tok"
            for index, (count, tokens) in enumerate(
                zip(self.routed_requests, self.routed_tokens)
            )
        )
        imbalance = f"{self.load_imbalance:.2f}x"
        lines = [
            f"cluster         : {self.num_replicas} x {self.backend} "
            f"(router {self.router}, {self.admission} admission)",
            f"model           : {self.model}",
            f"policy          : {self.policy}",
            f"requests        : {self.num_requests} "
            f"({self.output_tokens} output tokens)",
            f"routing         : {routed} (imbalance {imbalance})",
            f"makespan        : {self.makespan_s:.3f} s "
            f"(summed busy {self.busy_s:.3f} s, {self.utilization:.0%} utilized)",
            f"throughput      : {self.tokens_per_s:.1f} tokens/s, "
            f"{self.requests_per_s:.2f} requests/s",
            f"latency         : mean {self.latency_mean_s * 1e3:.1f} ms, "
            f"p50 {self.latency_p50_s * 1e3:.1f} ms, "
            f"p99 {self.latency_p99_s * 1e3:.1f} ms",
            f"TTFT            : mean {self.ttft_mean_s * 1e3:.1f} ms, "
            f"p99 {self.ttft_p99_s * 1e3:.1f} ms",
            f"TPOT            : mean {self.tpot_mean_s * 1e3:.3f} ms/token",
            f"admission       : {self.admissions} admits, "
            f"peak {self.peak_active} in flight, "
            f"{self.preemptions} preemptions "
            f"({self.recomputed_tokens} tokens recomputed)",
            f"cluster KV peak : {self.kv_peak_pages}/{self.kv_pages_total} "
            "pages (summed across replicas)",
            f"dynamic energy  : {self.energy_j * 1e3:.1f} mJ",
        ]
        if len(self.models) > 1:
            lines.append(
                f"model set       : {', '.join(self.models)} "
                f"({self.model_swaps} weight swaps, "
                f"{self.model_swap_s:.3f} s streaming)"
            )
        if self.failure_schedule != "none" or self.autoscaler != "fixed":
            lines.append(
                f"ops             : {self.failures} failure(s) "
                f"({self.rerouted_requests} rerouted, "
                f"{self.dropped_kv_pages} pages dropped), "
                f"{self.recoveries} recovery(ies), "
                f"+{self.scale_ups}/-{self.scale_downs} scale, "
                f"{self.replica_seconds:.3f} replica-s "
                f"(peak {self.peak_replicas} replicas, "
                f"warm-up {self.warmup_s * 1e3:.1f} ms)"
            )
        if self.slo_attainment is not None:
            by_class = ", ".join(
                f"class {cls}: {attained:.0%}"
                for cls, attained in self.slo_by_class.items()
            )
            lines.append(
                f"SLO attainment  : {self.slo_attainment:.0%}"
                + (f" ({by_class})" if by_class else "")
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Cluster simulator
# ----------------------------------------------------------------------
def _snapshot(
    index: int, run: SimulationRun, request: "Request | None" = None
) -> ReplicaSnapshot:
    """The router-visible state of one replica at this instant.

    When the arriving ``request`` is given and shares a prefix, the
    snapshot also reports how many pages of that prefix are already
    resident on the replica (autoscaler snapshots pass no request — the
    field stays 0, which every built-in consumer treats as neutral).
    """
    resident = 0
    if request is not None and request.prefix_id >= 0:
        resident = run.kv.resident_prefix_pages(request.prefix_id)
    # Report the resident model in Request.model's convention (empty =
    # default), so routers can compare it to request.model directly.
    resident_model = run.resident_model
    if resident_model == run.sim.model.name:
        resident_model = ""
    return ReplicaSnapshot(
        index=index,
        outstanding_requests=run.outstanding_requests,
        outstanding_tokens=run.outstanding_tokens,
        free_kv_pages=run.kv.free_pages,
        total_kv_pages=run.kv.total_pages,
        resident_prefix_pages=resident,
        resident_model=resident_model,
    )


def _check_fleet_survives(schedule: FailureSchedule, num_replicas: int) -> None:
    """Reject a fixed fleet that ``schedule`` ever takes down entirely.

    Without an autoscaler (or with the ``fixed`` one, which never spawns)
    nothing replaces a dead replica, so an instant with every replica
    down leaves failover and routing nowhere to go — refused here rather
    than discovered mid-run.
    """
    down: set[int] = set()
    for event in sorted(schedule.events(num_replicas)):
        if event.kind == "fail":
            down.add(event.replica)
        else:
            down.discard(event.replica)
        if len(down) >= num_replicas:
            raise ValueError(
                f"failures={schedule.name!r} ({schedule.describe()}) has all "
                f"num_replicas={num_replicas} replica(s) down at "
                f"{event.time_s:g}s, leaving a fixed fleet nothing to fail "
                "over to; raise num_replicas or schedule fewer failures"
            )


class _OpsState:
    """Mutable fleet bookkeeping of one ``simulate()`` call.

    Owns the fleet's liveness/draining/warm-up state, applies the failure
    schedule (failover included), consults the autoscaler, meters
    replica-seconds, and holds the candidate rule and route step that
    arrivals and failover share.  Without a failure schedule or
    autoscaler it is inert: every replica stays eligible, and the pooled
    metrics bill the fixed fleet as ``R x makespan`` instead of reading
    its meter.
    """

    def __init__(
        self,
        cluster: "ClusterSimulator",
        runs: "list[SimulationRun]",
        assignments: "list[list[Request]]",
        routed_tokens: "list[int]",
        start: float,
        record_events: bool,
        bounds: "tuple[int, int] | None",
    ) -> None:
        self.cluster = cluster
        self.runs = runs
        self.assignments = assignments
        self.routed_tokens = routed_tokens
        self.record_events = record_events
        self.bounds = bounds
        schedule = cluster.failures
        self.pending = deque(
            sorted(schedule.events(len(runs))) if schedule is not None else ()
        )
        count = len(runs)
        self.alive = [True] * count
        self.draining = [False] * count
        #: Initial replicas are warm from the start; spawned ones wait.
        self.ready_at = [float("-inf")] * count
        #: Open billing segment per replica (None while failed/closed).
        self.open_clock: "list[float | None]" = [start] * count
        self.seconds = [0.0] * count
        self.drain_clock = [0.0] * count
        self.failures = 0
        self.recoveries = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.rerouted = 0
        self.dropped_pages = 0
        self.peak_replicas = count
        self._has_slo = bool(cluster.simulator.slo_targets)
        #: Per run, the SLO window over its completion record: ``[lo, hi,
        #: met]``, entries ``lo:hi`` inside it and how many of those met
        #: their target (see :meth:`_window_attainment`).
        self._windows = [[0, 0, 0] for _ in range(count)]

    # -- liveness ------------------------------------------------------
    def eligible(self, now: float) -> "list[int]":
        """Replicas the router may choose from: alive, warmed, not draining."""
        return [
            index
            for index in range(len(self.runs))
            if self.alive[index]
            and not self.draining[index]
            and self.ready_at[index] <= now
        ]

    def candidates(self, now: float, request: Request) -> "list[int]":
        """Replicas ``request`` may be routed to at ``now`` — the one rule
        for arrivals and failover.

        The eligible replicas if any.  Otherwise every in-progress drain
        is cancelled: a draining replica is warm and alive, so reversing
        its retirement is how production absorbs load mid-scale-down.
        Otherwise the replicas still warming up take the work, starting it
        no earlier than their warm-up ends.  Raises when every replica is
        down.
        """
        candidates = self.eligible(now)
        if not candidates:
            for index in range(len(self.runs)):
                if self.alive[index] and self.draining[index]:
                    self.draining[index] = False
                    self.scale_downs -= 1
                    candidates.append(index)
        if not candidates:
            candidates = [
                index for index in range(len(self.runs)) if self.alive[index]
            ]
            for index in candidates:
                self.runs[index].catch_up(self.ready_at[index])
        if not candidates:
            raise ServingStall(
                f"no eligible replica for request {request.request_id} at "
                f"{now:.6f}s (every replica is down)"
            )
        return candidates

    def route(self, request: Request, candidates: "list[int]") -> int:
        """The route step of arrivals and failover alike: snapshot the
        candidates, ask the router, check its choice, book the request
        there.  Returns the chosen replica; the caller hands it the work."""
        cluster = self.cluster
        snapshots = [
            _snapshot(index, self.runs[index], request) for index in candidates
        ]
        choice = cluster.router.select(snapshots, request)
        if choice not in candidates:
            raise ValueError(
                f"router {cluster.router.name!r} chose replica {choice} of "
                f"{len(self.runs)} (eligible: {candidates})"
            )
        self.assignments[choice].append(request)
        self.routed_tokens[choice] += request.total_tokens
        return choice

    def apply_until(self, now: "float | None") -> None:
        """Apply every scheduled fleet event at or before ``now`` (all
        remaining ones when ``None``, at the end of the trace)."""
        while self.pending and (now is None or self.pending[0].time_s <= now):
            event = self.pending.popleft()
            if event.kind == "fail":
                self._fail(event)
            else:
                self._recover(event)

    def _fail(self, event) -> None:
        index = event.replica
        if not self.alive[index]:
            raise RuntimeError(
                f"failure schedule kills replica {index} at "
                f"{event.time_s:.6f}s but it is already down"
            )
        run = self.runs[index]
        run.advance_until(event.time_s)
        lost, pages = run.fail(event.time_s)
        self.alive[index] = False
        self.failures += 1
        self.dropped_pages += pages
        # Billed until the straddling pass ended (run.clock >= fail time).
        self._close_segment(index, run.clock)
        if not lost:
            return
        candidates = self.candidates(event.time_s, lost[0])
        for survivor in candidates:
            # Survivors advance to the failure instant before receiving
            # work: resubmits bypass the pending queue, so an idle
            # survivor must not start recomputing in the past.
            self.runs[survivor].advance_until(event.time_s)
            self.runs[survivor].catch_up(event.time_s)
        for request in lost:
            self.runs[self.route(request, candidates)].resubmit(request)
            self.rerouted += 1

    def _recover(self, event) -> None:
        index = event.replica
        if self.alive[index]:
            raise RuntimeError(
                f"failure schedule recovers replica {index} at "
                f"{event.time_s:.6f}s but it is not down"
            )
        self.runs[index].recover(event.time_s)
        self.alive[index] = True
        self.recoveries += 1
        # The failure already billed through the straddling pass's end
        # (run.clock at the fail), which can lie past a fast recovery —
        # reopening earlier would bill that overlap twice.  recover()
        # leaves run.clock at max(billed end, recovery instant).
        self.open_clock[index] = self.runs[index].clock
        self._note_peak()

    def _note_peak(self) -> None:
        count = sum(1 for flag in self.alive if flag)
        if count > self.peak_replicas:
            self.peak_replicas = count

    # -- autoscaling ---------------------------------------------------
    def autoscale(self, now: float) -> None:
        autoscaler = self.cluster.autoscaler
        if autoscaler is None:
            return
        candidates = self.eligible(now)
        snapshots = tuple(_snapshot(i, self.runs[i]) for i in candidates)
        provisioned = sum(
            1
            for index in range(len(self.runs))
            if self.alive[index] and not self.draining[index]
        )
        signal = AutoscalerSignal(
            clock_s=now,
            snapshots=snapshots,
            provisioned_replicas=provisioned,
            slo_attainment=self._window_attainment(now, autoscaler.window_s),
        )
        delta = autoscaler.evaluate(signal)
        if delta > 0:
            self._spawn(now)
        elif delta < 0:
            self._drain(now, snapshots)

    def _window_attainment(
        self, now: float, window_s: float
    ) -> "float | None":
        """Causal SLO attainment: completions inside the window that met
        their class's target.

        A run appends its completions in clock order, and arrivals (the
        ``now`` of each call) come in time order, so each run's window is
        a slice of its record whose two ends only move forward: O(1)
        amortized per completion instead of a scan of every completion.
        """
        if not self._has_slo:
            return None
        targets = self.cluster.simulator.slo_targets
        last = len(targets) - 1
        start = now - window_s

        def met_target(record, i: int) -> bool:
            target = targets[min(record.priority_class[i], last)]
            return record.completion_s[i] - record.arrival_s[i] <= target

        met = 0
        total = 0
        for run, window in zip(self.runs, self._windows):
            record = run.completions
            completion_s = record.completion_s
            lo, hi, inside_met = window
            while hi < len(completion_s) and completion_s[hi] <= now:
                inside_met += met_target(record, hi)
                hi += 1
            while lo < hi and completion_s[lo] < start:
                inside_met -= met_target(record, lo)
                lo += 1
            window[:] = lo, hi, inside_met
            met += inside_met
            total += hi - lo
        if total == 0:
            return None
        return met / total

    def _spawn(self, now: float) -> None:
        cluster = self.cluster
        run = cluster.simulator.begin(
            record_events=self.record_events, kv_bounds=self.bounds
        )
        run.clock = now
        run.note_scale(+1)
        self.runs.append(run)
        self.assignments.append([])
        self.routed_tokens.append(0)
        self.alive.append(True)
        self.draining.append(False)
        self.ready_at.append(now + cluster._warmup_s)
        self.open_clock.append(now)
        self.seconds.append(0.0)
        self.drain_clock.append(0.0)
        self._windows.append([0, 0, 0])
        self.scale_ups += 1
        self._note_peak()

    def _drain(self, now: float, snapshots: "tuple[ReplicaSnapshot, ...]") -> None:
        if len(snapshots) <= 1:
            return  # never drain the last serving replica
        # Retire the least-loaded serving replica (ties: the newest).
        choice = min(
            snapshots, key=lambda snap: (snap.outstanding_tokens, -snap.index)
        ).index
        self.draining[choice] = True
        self.drain_clock[choice] = now
        self.runs[choice].note_scale(-1)
        self.scale_downs += 1

    # -- replica-seconds -----------------------------------------------
    def _close_segment(self, index: int, end: float) -> None:
        begin = self.open_clock[index]
        if begin is not None:
            self.seconds[index] += max(0.0, end - begin)
            self.open_clock[index] = None

    def close_out(self, global_end: float) -> None:
        """Close every open billing segment at the end of the run."""
        for index in range(len(self.runs)):
            if self.open_clock[index] is None:
                continue
            if self.draining[index]:
                # A drained replica stops billing once its work is done.
                end = max(self.drain_clock[index], self.runs[index].clock)
            else:
                end = global_end
            self._close_segment(index, end)


class ClusterSimulator:
    """Fan one trace out over ``num_replicas`` identical replicas.

    The fleet is one :class:`~repro.serving.simulator.ServingSimulator`,
    :attr:`simulator`, built and validated once: each replica, initial or
    spawned, is one run of it (``simulator.begin()``), so every replica
    prices from the same cost providers and decode-cost tables.

    Parameters
    ----------
    cost_model:
        The per-replica backend (shared across replicas: pass costs are
        pure and cached, so sharing one instance is safe and warm).  Use
        ``make_cost_model("ianus-xN")`` for replicas that are themselves
        multi-device.
    model:
        The served model.
    num_replicas:
        Replica count ``R`` (the *initial* fleet when autoscaling).
    router:
        A name in :data:`ROUTERS` or a :class:`Router` instance.
    failures:
        A name in :data:`~repro.serving.failures.FAILURE_SCHEDULES`, a
        :class:`~repro.serving.failures.FailureSchedule` instance, or
        ``None`` (never fails).
    autoscaler:
        A name in :data:`~repro.serving.autoscale.AUTOSCALERS`, an
        :class:`~repro.serving.autoscale.Autoscaler` instance, or ``None``
        (fixed fleet).
    **simulator_kwargs:
        Everything else (policy, admission, preempt, kv_fraction, ...) is
        forwarded to the fleet's one
        :class:`~repro.serving.simulator.ServingSimulator`, which
        validates it once; the replicas the autoscaler spawns mid-run are
        runs of that simulator too.
    """

    def __init__(
        self,
        cost_model: CostModel,
        model: ModelConfig,
        num_replicas: int = 2,
        router: "Router | str" = "round-robin",
        failures: "FailureSchedule | str | None" = None,
        autoscaler: "Autoscaler | str | None" = None,
        **simulator_kwargs,
    ) -> None:
        if num_replicas < 1:
            raise ValueError("num_replicas must be at least 1")
        self.cost_model = cost_model
        self.model = model
        self.router = make_router(router) if isinstance(router, str) else router
        self.failures = (
            make_failure_schedule(failures)
            if isinstance(failures, str)
            else failures
        )
        self.autoscaler = (
            make_autoscaler(autoscaler)
            if isinstance(autoscaler, str)
            else autoscaler
        )
        # The fixed autoscaler never spawns or drains, so its fleet is a
        # fixed fleet too.
        if self.failures is not None and (
            self.autoscaler is None or isinstance(self.autoscaler, FixedAutoscaler)
        ):
            _check_fleet_survives(self.failures, num_replicas)
        self._initial_count = num_replicas
        self._warmup_s = (
            replica_warmup_s(cost_model, model)
            if self.autoscaler is not None
            else 0.0
        )
        #: The simulator every replica is a run of.
        self.simulator = ServingSimulator(cost_model, model, **simulator_kwargs)
        #: Per-replica event logs of the last simulate() (None entries when
        #: events were not recorded).
        self.events: "list[list] | None" = None
        #: Per-replica routing record of the last simulate(): every
        #: request routed to each replica, once per route (failover
        #: re-routes included), in routing order.
        self.assignments: "list[tuple[Request, ...]] | None" = None
        self._last_trace: "tuple[Request, ...] | None" = None
        #: Runs and routing wall time of the last simulate(), for
        #: :meth:`pooled_phase_s`.
        self._last_runs: "list[SimulationRun]" = []
        self._route_phase = {"route": 0.0}

    @property
    def _ops_active(self) -> bool:
        return self.failures is not None or self.autoscaler is not None

    # ------------------------------------------------------------------
    def simulate(
        self, requests: Sequence[Request], record_events: bool = True
    ) -> ClusterMetrics:
        """Route and play a trace to completion; returns pooled metrics.

        Events are recorded by default: they feed the cluster-wide KV peak
        and let every simulation self-validate
        (:meth:`validate_invariants`); pass ``record_events=False`` to
        skip both (the KV peak then falls back to the summed per-replica
        peaks, an upper bound).
        """
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        bounds = decode_kv_bounds(ordered)
        # A reused simulator must stay deterministic: stateful routers
        # (round-robin's rotation) restart with every simulation.
        self.router.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        runs: list[SimulationRun] = [
            self.simulator.begin(record_events=record_events, kv_bounds=bounds)
            for _ in range(self._initial_count)
        ]
        assignments: list[list[Request]] = [[] for _ in runs]
        routed_tokens = [0] * len(runs)
        start = ordered[0].arrival_s if ordered else 0.0
        self._last_runs = runs
        self._route_phase = {"route": 0.0}
        ops = _OpsState(
            self, runs, assignments, routed_tokens, start, record_events, bounds
        )
        if self.simulator.profile:
            # Arrivals and failover both route through ops.route.
            _book_phase(ops, "route", self._route_phase, "route")
        for request in ordered:
            arrival = request.arrival_s
            ops.apply_until(arrival)
            # Failed and idle replicas hold no work, so nothing to advance
            # (runs is shared with ops and grows when a replica spawns).
            for run in runs:
                if run.outstanding_requests:
                    run.advance_until(arrival)
            ops.autoscale(arrival)
            choice = ops.route(request, ops.candidates(arrival, request))
            runs[choice].offer(request)
        ops.apply_until(None)
        per_replica = tuple(run.finish() for run in runs)
        self.events = [run.events for run in runs]
        self.assignments = [tuple(assigned) for assigned in assignments]
        self._last_trace = tuple(ordered)
        return self._pool(per_replica, ordered, routed_tokens, ops)

    def pooled_phase_s(self) -> dict[str, float]:
        """Per-phase wall breakdown of the last ``simulate()``, pooled
        across replicas, plus the cluster's own ``route`` phase.

        Populated when the fleet was built with ``profile=True``
        (``repro serve --profile`` arranges this); phases absent from an
        engine are simply missing from the dict.
        """
        pooled: dict[str, float] = {}
        for run in self._last_runs:
            for name, seconds in run.phase_s.items():
                pooled[name] = pooled.get(name, 0.0) + seconds
        pooled.update(self._route_phase)
        return pooled

    def validate_invariants(self) -> list[str]:
        """Replay the last run's event logs through the invariant checker;
        returns the violations (empty = sound).

        Every fleet, fixed, failing over or autoscaled, is checked by one
        call of :func:`~repro.serving.validate.check_cluster_invariants`
        against its routing record (``assignments``, which lists a request
        once per route): each replica admits only what was routed to it,
        and a request is dropped by failures no more often than failover
        re-routed it.
        """
        if self.events is None or self.assignments is None:
            raise RuntimeError("validate_invariants() needs a simulate() first")
        if any(events is None for events in self.events):
            raise RuntimeError(
                "validate_invariants() needs simulate(record_events=True)"
            )
        return check_cluster_invariants(
            self.events,
            self._last_trace or (),
            self.assignments,
            page_tokens=self.simulator.page_tokens,
            admission=self.simulator.admission,
            initial_replicas=self._initial_count,
            default_model=self.model.name,
        )

    # ------------------------------------------------------------------
    def _pool(
        self,
        per_replica: tuple[ServingMetrics, ...],
        ordered: "list[Request]",
        routed_tokens: "list[int]",
        ops: _OpsState,
    ) -> ClusterMetrics:
        # Every replica's completions, the source of the pooled
        # request-level metrics (runs and per_replica share one order).
        completions = CompletionRecord()
        for run in ops.runs:
            completions.extend(run.completions)
        pooled: list[RequestMetrics] = sorted(
            (
                request_metrics
                for metrics in per_replica
                for request_metrics in metrics.per_request
            ),
            key=lambda metrics: metrics.request_id,
        )
        makespan = 0.0
        last_completion = ordered[0].arrival_s if ordered else 0.0
        if completions and ordered:
            last_completion = max(completions.completion_s)
            makespan = last_completion - ordered[0].arrival_s
        # Float totals add left to right from 0.0 on every Python (the
        # builtin sum compensates from 3.12 on).
        busy = reduce(add, (metrics.busy_s for metrics in per_replica), 0.0)
        # One definition of utilization for every fleet: summed busy over
        # summed provisioned replica-seconds.  Fleets differ only in
        # where replica_seconds comes from — metered billing segments
        # under ops, R x makespan for a fixed fleet (a fleet with an
        # inert schedule meters to exactly R x makespan, so the two
        # agree wherever both apply).
        if self._ops_active:
            ops.close_out(last_completion)
            replica_seconds = reduce(add, ops.seconds, 0.0)
        else:
            replica_seconds = len(per_replica) * makespan
        utilization = busy / replica_seconds if replica_seconds > 0 else 0.0
        output_tokens = sum(metrics.output_tokens for metrics in per_replica)
        models = per_replica[0].models
        # Imbalance is a skew ratio over the replicas that actually
        # participated in routing.  A replica that never received an
        # arrival (spawned after the trace drained, or dead before its
        # first request) says nothing about routing skew — including it
        # used to render the ratio as a meaningless ``inf``.
        routed_nonzero = [tokens for tokens in routed_tokens if tokens > 0]
        if len(routed_nonzero) < 2:
            imbalance = 1.0
        else:
            imbalance = max(routed_nonzero) / min(routed_nonzero)
        if self.events is not None and all(
            events is not None for events in self.events
        ):
            kv_peak = cluster_kv_peak(self.events)
        else:
            kv_peak = sum(metrics.kv_peak_pages for metrics in per_replica)
        return ClusterMetrics(
            backend=self.cost_model.name,
            model=self.model.name,
            policy=per_replica[0].policy,
            router=self.router.name,
            admission=per_replica[0].admission,
            num_replicas=len(per_replica),
            num_requests=len(completions),
            makespan_s=makespan,
            busy_s=busy,
            utilization=utilization,
            output_tokens=output_tokens,
            tokens_per_s=output_tokens / makespan if makespan > 0 else 0.0,
            requests_per_s=len(completions) / makespan if makespan > 0 else 0.0,
            energy_j=reduce(
                add, (metrics.energy_j for metrics in per_replica), 0.0
            ),
            flops=reduce(add, (metrics.flops for metrics in per_replica), 0.0),
            admissions=sum(metrics.admissions for metrics in per_replica),
            peak_active=sum(metrics.peak_active for metrics in per_replica),
            preemptions=sum(metrics.preemptions for metrics in per_replica),
            recomputed_tokens=sum(
                metrics.recomputed_tokens for metrics in per_replica
            ),
            routed_requests=tuple(len(assigned) for assigned in ops.assignments),
            routed_tokens=tuple(routed_tokens),
            load_imbalance=imbalance,
            kv_peak_pages=kv_peak,
            kv_pages_total=sum(metrics.kv_pages_total for metrics in per_replica),
            failure_schedule=(
                self.failures.name if self.failures is not None else "none"
            ),
            autoscaler=(
                self.autoscaler.name if self.autoscaler is not None else "fixed"
            ),
            failures=ops.failures,
            recoveries=ops.recoveries,
            rerouted_requests=ops.rerouted,
            dropped_kv_pages=ops.dropped_pages,
            scale_ups=ops.scale_ups,
            scale_downs=ops.scale_downs,
            replica_seconds=replica_seconds,
            peak_replicas=ops.peak_replicas,
            warmup_s=self._warmup_s,
            models=models,
            model_swaps=sum(metrics.model_swaps for metrics in per_replica),
            model_swap_s=reduce(
                add, (metrics.model_swap_s for metrics in per_replica), 0.0
            ),
            per_replica=per_replica,
            per_request=tuple(pooled),
            **request_aggregates(
                completions,
                self.simulator.slo_targets,
                self.model.name,
                len(models) > 1,
            ),
        )
