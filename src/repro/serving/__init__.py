"""Request-level serving simulation on top of the unified cost-model layer.

The paper (and the ``figXX`` experiments) evaluate one inference request at
a time.  This package turns the same per-pass cost models into a
*multi-user serving* study: a stream of timed requests shares one device,
and a discrete-event simulator schedules their prefill/decode passes under
a pluggable policy, reporting the metrics LLM-serving work cares about
(TTFT, TPOT, latency percentiles, tokens/s, device utilization, SLO
attainment).

Layering — who knows what:

:mod:`repro.serving.request`
    :class:`Request` (arrival time + token counts + priority class) and the
    per-request :class:`RequestMetrics`.  Knows nothing about backends.
:mod:`repro.serving.trace`
    Deterministic seeded Poisson trace generators over named workload mixes
    (:data:`~repro.serving.trace.TRACES`).  Knows nothing about backends.
:mod:`repro.serving.kv_memory`
    :class:`KvPageAccountant`: paged KV-cache accounting against the bytes
    a backend's memory system holds beyond the model weights.  Reads only
    capacity attributes off a cost model.
:mod:`repro.serving.simulator`
    :class:`ServingSimulator`: schedules token-granularity passes whose
    costs come from *any* :class:`repro.core.costmodel.CostModel` (IANUS,
    NPU-MEM, A100, DFX), with memory-aware admission, optional chunked
    prefill, and FCFS / interleaved / SRPT / priority-class policies.  The
    only layer that touches cost models, and only through the protocol.
    A run that cannot go on under its settings (a pool wedged without
    preemption, a livelock, every replica down) raises
    :class:`ServingStall`.
:mod:`repro.serving.array_engine` / :mod:`repro.serving.decode_table`
    The *megatrace* engine.  ``ServingSimulator(..., engine="array")``
    swaps the per-request object hot loop for a columnar one (parallel
    state lists, dense :class:`~repro.serving.decode_table.DecodeCostTable`
    pricing) behind the same ``SimulationRun`` API.  A table is built once
    per (backend, model, anchor grid, KV range) and process, in every form
    the engine reads, and every run, replica and weight swap installs it by
    reference.  The engine advances a stable all-decode batch to its next
    event in one call: an exact decode run
    (``_decode_run``) performs ``fused_pass``'s own float operations and
    changes no number, while a prefix-sum macro-step (``_macro_step``,
    private-page batches on a floor-free table, no event log) agrees with
    stepping to 1e-9.  ``engine="object"`` (the default) remains the
    reference and the only engine for custom policies: with events
    recorded the array engine is bit-identical to it, once each
    ``decode_run`` event is expanded into its steps
    (:func:`~repro.serving.validate.expand_runs`).  Both run classes derive
    from one lifecycle base (counters, event log, offers and guards,
    failure/recovery/resubmit, swap-in admission, weight-swap pricing,
    the :class:`~repro.serving.request.CompletionRecord` every completion
    is appended to), and the two per-iteration loops share every rule
    that does not depend on how requests are stored — policy decisions over
    :class:`RequestKeys`, victim choice, fused-pass pricing, host-link
    transfer time — and differ only in the admit/grow/preempt/swap/step
    bodies over objects or rows.  ``profile=True`` books per-phase wall
    time from outside both loops.
    Pick ``array`` for million-request traces and sweeps; pick ``object``
    when stepping through or debugging individual scheduling decisions.
    :data:`ENGINES` lists the valid names; unknown names raise with that
    list.  ``per_request_detail=False`` leaves the ``RequestMetrics`` rows
    out of a run's or a fleet's result and changes no other number: one
    aggregator, :func:`~repro.serving.simulator.request_aggregates`,
    reduces every completion record.  ``TraceGenerator.generate_stream`` feeds
    ``ServingSimulator.simulate_stream`` arrivals in O(chunk) memory —
    byte-identical to ``generate`` under every trace curve.
:mod:`repro.serving.cluster`
    :class:`ClusterSimulator`: routes one trace over ``R`` replicas, each
    one run of the fleet's single ``ServingSimulator`` (spawned replicas
    too), and pools their metrics into :class:`ClusterMetrics`.
:mod:`repro.serving.validate`
    :func:`check_cluster_invariants`: replays every replica's recorded
    event log against the trace and balances one set of books against
    each replica's routing record, across failures, failover and
    autoscaling; it reports scheduling-invariant violations (``repro
    serve --validate`` and the invariant test suite use it as an
    oracle).  :func:`check_invariants` is its one-log case.
    ``ServingSimulator.validate_invariants`` and
    ``ClusterSimulator.validate_invariants`` configure it from the
    simulator that recorded the logs, for every kind of fleet.  A
    ``decode_run`` event is checked in closed form, with the verdict of
    the steps :func:`~repro.serving.validate.expand_runs` rebuilds from
    it.
:mod:`repro.serving.failures`
    Seeded :class:`FailureSchedule` registry: deterministic replica
    deaths and recoveries the cluster applies mid-run.
:mod:`repro.serving.autoscale`
    Causal :class:`Autoscaler` registry plus the modeled
    :func:`replica_warmup_s` a spawned replica pays before serving.

The ``serving`` experiment (:mod:`repro.experiments.serving_throughput`)
sweeps offered load x backend x policy x chunking x KV budget as a
shardable :class:`~repro.experiments.base.Sweep`, and ``repro serve``
exposes a single simulation from the command line.
"""

from repro.serving.autoscale import (
    AUTOSCALERS,
    Autoscaler,
    AutoscalerSignal,
    FixedAutoscaler,
    KvPressureAutoscaler,
    QueueDepthAutoscaler,
    SloAttainmentAutoscaler,
    make_autoscaler,
    replica_warmup_s,
)
from repro.serving.cluster import (
    ROUTERS,
    ClusterMetrics,
    ClusterSimulator,
    KvAwareRouter,
    LeastOutstandingTokensRouter,
    ReplicaSnapshot,
    RoundRobinRouter,
    Router,
    cluster_kv_peak,
    make_router,
)
from repro.serving.failures import (
    FAILURE_SCHEDULES,
    FailureEvent,
    FailureSchedule,
    NoFailures,
    SeededFailures,
    SingleFailure,
    make_failure_schedule,
)
from repro.serving.kv_memory import (
    DEFAULT_KV_BUDGET_BYTES,
    DEFAULT_PAGE_TOKENS,
    KvPageAccountant,
    backend_memory_capacity_bytes,
    kv_budget_bytes,
)
from repro.serving.decode_table import DecodeCostTable, build_decode_table
from repro.serving.request import Request, RequestMetrics
from repro.serving.simulator import (
    ADMISSION_MODES,
    ENGINES,
    POLICIES,
    FcfsPolicy,
    InterleavedPolicy,
    PassCostProvider,
    PriorityPolicy,
    RequestKeys,
    ServingMetrics,
    ServingPolicy,
    ServingSimulator,
    ServingStall,
    SimulationRun,
    SrptPolicy,
    decode_kv_bounds,
    make_policy,
    mean_service_time_s,
)
from repro.serving.trace import (
    TRACE_CURVES,
    TRACES,
    ConstantCurve,
    DiurnalCurve,
    FlashCrowdCurve,
    StepCurve,
    TraceCurve,
    TraceGenerator,
    get_trace_generator,
    make_trace_curve,
)
from repro.serving.validate import (
    SimEvent,
    check_cluster_invariants,
    check_invariants,
)

__all__ = [
    "Request",
    "RequestMetrics",
    "ClusterMetrics",
    "ClusterSimulator",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingTokensRouter",
    "KvAwareRouter",
    "ReplicaSnapshot",
    "ROUTERS",
    "make_router",
    "cluster_kv_peak",
    "ADMISSION_MODES",
    "ENGINES",
    "SimulationRun",
    "DecodeCostTable",
    "build_decode_table",
    "decode_kv_bounds",
    "TraceGenerator",
    "TRACES",
    "get_trace_generator",
    "TraceCurve",
    "ConstantCurve",
    "DiurnalCurve",
    "FlashCrowdCurve",
    "StepCurve",
    "TRACE_CURVES",
    "make_trace_curve",
    "FailureEvent",
    "FailureSchedule",
    "NoFailures",
    "SingleFailure",
    "SeededFailures",
    "FAILURE_SCHEDULES",
    "make_failure_schedule",
    "Autoscaler",
    "AutoscalerSignal",
    "FixedAutoscaler",
    "QueueDepthAutoscaler",
    "SloAttainmentAutoscaler",
    "KvPressureAutoscaler",
    "AUTOSCALERS",
    "make_autoscaler",
    "replica_warmup_s",
    "DEFAULT_KV_BUDGET_BYTES",
    "DEFAULT_PAGE_TOKENS",
    "KvPageAccountant",
    "backend_memory_capacity_bytes",
    "kv_budget_bytes",
    "PassCostProvider",
    "RequestKeys",
    "ServingPolicy",
    "FcfsPolicy",
    "InterleavedPolicy",
    "SrptPolicy",
    "PriorityPolicy",
    "POLICIES",
    "make_policy",
    "ServingMetrics",
    "ServingSimulator",
    "ServingStall",
    "mean_service_time_s",
    "SimEvent",
    "check_invariants",
    "check_cluster_invariants",
]
