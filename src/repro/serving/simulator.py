"""Discrete-event request-level serving simulator over the cost-model layer.

:class:`ServingSimulator` plays a trace of
:class:`~repro.serving.request.Request` objects against one device whose
per-pass costs come from any :class:`~repro.core.costmodel.CostModel` — the
IANUS simulator, the NPU-MEM variant, or the A100/DFX analytical baselines.
Time advances at *pass* granularity (one prefill pass or chunk, or one
fused decode iteration at a time), which is exactly the scheduling
granularity of iteration-level serving systems (Orca, vLLM): between any
two passes the scheduler may admit new arrivals or change the decode batch.

Memory-aware admission
----------------------
Admission is governed by the backend's *memory system*, not a head count: a
:class:`~repro.serving.kv_memory.KvPageAccountant` commits KV pages against
the bytes the backend holds beyond the model weights, scaled by
``kv_fraction``.  A request is admitted only when both the policy's
concurrency gate and the page pool agree; pages are released at completion.
Two admission modes are supported:

``admission="worst-case"`` (default)
    Each request commits its worst-case pages (its full ``input + output``
    tokens) up front.  Deadlock-free by construction and maximally
    conservative — the PR 4 behavior, bit-for-bit.
``admission="optimistic"``
    Each request commits only its *prompt* pages; every decode pass grows
    the reservation on demand as the KV cache crosses page boundaries
    (vLLM-style).  On pool exhaustion the scheduler preempts the active
    request with the least generated tokens (ties: least prefilled, then
    latest arrival), releases all its pages, and re-enqueues it for
    **recompute** from scratch; ``preempt=False`` disables preemption, in
    which case a decode that cannot grow simply stalls for the iteration
    (and the simulator raises if *nothing* can run).  Preemptions and the
    tokens they discard are reported as ``preemptions`` /
    ``recomputed_tokens``; optimism admits more concurrent requests
    (``peak_active``) in exchange for that wasted work.

Incremental runs
----------------
:meth:`ServingSimulator.begin` returns an
:class:`~repro.serving.array_engine.ArraySimulationRun` — the
discrete-event loop exposed as ``offer`` / ``advance_until`` / ``finish``
steps, so a caller can interleave request injection with simulation time.
``simulate`` is the one-shot wrapper (offer everything, drain); the cluster
simulator (:mod:`repro.serving.cluster`) drives one run per replica and
routes each arrival using the replicas' states at that instant.  Offering a
trace incrementally at its arrival instants is *byte-identical* to the
one-shot path: admission happens at pass boundaries in both.

Chunked prefill
---------------
With ``chunk_tokens > 0`` a prompt is prefilled in scheduler-visible chunks
instead of one head-of-line-blocking pass.  Chunk ``i`` is priced at the
*incremental* cost ``C(prefix + chunk) - C(prefix)`` in ticks
(:meth:`PassCostProvider.prefill_chunk`), so chunk costs telescope to
the monolithic prefill cost — a chunk size >= the prompt is a byte-identical
no-op, and chunking conserves both tokens and total prefill work.  Each
chunk iteration is *fused* with one decode token for the policy's decode
batch (Sarathi-style piggybacking): the chunk already streams every FC
weight, so the decode members ride along paying only their KV-dependent
marginal, and decodes no longer starve behind long prompts.

Scheduling policies
-------------------
:class:`FcfsPolicy`
    Classic run-to-completion: requests are served one at a time in arrival
    order; an arrival behind a long generation waits for the whole request.
:class:`InterleavedPolicy`
    Continuous batching: up to ``max_batch`` requests are in flight; new
    arrivals are prefilled as soon as a slot (and KV pages) free up, and all
    in-flight requests advance one token per fused decode iteration.
:class:`SrptPolicy`
    Shortest-remaining-processing-time continuous batching: admission,
    prefill order and the decode batch all prefer the request with the
    fewest remaining tokens, which minimizes mean latency.
:class:`PriorityPolicy`
    Priority-class continuous batching: class 0 is admitted, prefilled and
    decoded before class 1, and so on; pair with per-class ``slo_targets``
    to measure SLO attainment under overload.

Batched-decode cost model
-------------------------
The cost layer prices *single-request* passes, so the simulator derives the
cost of a fused decode iteration from it explicitly.  Decode passes on every
evaluated backend are dominated by streaming the FC weights, which a batch
shares; the per-request remainder (KV-cache traffic, attention) is not
shared.  With ``c(kv)`` the single-request decode cost and ``base = c(1)``
(the weight-streaming plus fixed-overhead floor), a batch at KV lengths
``kv_1..kv_B`` is charged::

    latency = sum_i c(kv_i).latency - share * (B - 1) * base.latency

i.e. the shared floor is paid once and every request pays its KV-dependent
marginal, floored at the slowest member (a fused pass cannot beat its
largest request).  When a prefill chunk carries the iteration, the chunk
pays the weights and *all* ``B`` decode floors are shareable.  ``share``
(default 1.0) scales how much of the floor is shareable; ``share=0``
recovers fully serial decoding.  A batch of one is by construction
*exactly* the single-request pass cost, which is what makes a one-request
trace reproduce ``IanusSystem.run(mode="exact")`` latency.  Energy follows
the same sharing (shared weight reads are shared DRAM energy); FLOPs sum
fully — batching shares bytes, not math.

Simulated units
---------------
A run counts time in picoseconds, energy in picojoules and FLOPs, all as
integers (:mod:`repro.serving.request`): :func:`cost_tuple` converts a
pass cost where it enters a run, and every way of adding the same passes
gives the same numbers.  A batch's shared floor is one integer per batch
size, rounded once from the backend's float price (:func:`shared_floor`).

Pass-cost provider
------------------
:class:`PassCostProvider` fronts the cost model: prefill costs are always
priced exactly (few distinct prompt lengths per mix), and a decode cost
depends only on its KV length and its run's KV bounds: exact at an anchor
of the bounds' :func:`anchor_grid`, piecewise-linear between two — the
serving-level counterpart of the fast generation mode of
:meth:`repro.core.system.IanusSystem.run`, and the reason a load sweep
touches a handful of simulated passes instead of thousands.  A run prices
over its trace's :func:`decode_kv_bounds`, or over ``None`` (no anchors,
every length exact) under ``exact=True``, so a reused simulator reports
what a fresh one does.  Every anchor evaluation routes through the
backend's shared (persistently cacheable) pass-cost cache.

Engines
-------
Every run is one :class:`~repro.serving.array_engine.ArraySimulationRun`:
columnar request state and one per-iteration loop, whose admit, grow,
preempt, swap and step bodies apply the rules of this module, each
written once: the policy decisions (over the :class:`RequestKeys` the run
supplies), :func:`choose_victim`, :func:`fused_pass` over
:func:`cost_tuple`\\ s, the host-link transfer time and the
unservable-request, exhausted-pool and not-a-decoder errors.
``ServingSimulator(engine=...)`` (:data:`ENGINES`) only decides whether the
fast paths ride on that loop:

``engine="array"`` (default)
    Decode runs advance a stable all-decode batch to its next event in one
    call, priced from the dense per-(model, backend) decode table
    (:mod:`repro.serving.decode_table`), and arrival absorption serves
    whole windows of isolated requests at once.  Simulates a day of
    production traffic — a million requests — in seconds.  With
    ``record_events=True`` the arrival absorption stands down and the
    decode runs keep running, each recorded as one ``decode_run`` event;
    :func:`~repro.serving.validate.expand_runs` turns that log into the
    per-iteration one *bit for bit*.  Every fast path reports the
    per-iteration numbers exactly: time and energy are integers.  The fast
    paths rely on the registered policies' batching contract (see
    :class:`ServingPolicy`), so a policy outside :data:`POLICIES` runs the
    per-iteration loop alone.
``engine="object"``
    The per-iteration reference: the same loop with every fast path off,
    one scheduling decision per pass.  The differential tests and the
    ``kv-hierarchy`` and ``multi-tenant`` studies compare the two.

The run holds the clock and counters, the event log, offers and the
lifecycle guards, failure, recovery and resubmission, the swap-in
admission loop, the weight-swap pricing and the one
:class:`~repro.serving.request.CompletionRecord` every completion is
appended to.  :func:`request_aggregates` reduces that record for a run
and for the cluster's pooled metrics, so ``per_request_detail`` only
decides whether the rows come back.  ``profile=True`` times the phases
from outside the loop: ``begin`` attaches a profiler that wraps the
run's phase methods on the instance.
"""

from __future__ import annotations

import bisect
import inspect
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.costmodel import CostModel, PassCost, lerp_pass_cost
from repro.models.flops import model_weight_bytes
from repro.models.transformer import ModelConfig
from repro.models.workload import Stage, StagePass
from repro.serving.kv_memory import DEFAULT_PAGE_TOKENS, KvPageAccountant
from repro.serving.request import CompletionRecord, Request, RequestMetrics
from repro.serving.request import to_j, to_pj, to_ps, to_s
from repro.serving.validate import SimEvent, check_invariants

__all__ = [
    "PassCostProvider",
    "RequestKeys",
    "ServingPolicy",
    "FcfsPolicy",
    "InterleavedPolicy",
    "SrptPolicy",
    "PriorityPolicy",
    "POLICIES",
    "make_policy",
    "choose_victim",
    "cost_tuple",
    "fused_pass",
    "floor_ticks",
    "shared_floor",
    "ADMISSION_MODES",
    "ENGINES",
    "ServingMetrics",
    "ServingSimulator",
    "ServingStall",
    "anchor_grid",
    "decode_kv_bounds",
    "mean_service_time_s",
    "request_aggregates",
]

#: Admission-control modes of the simulator (see the module docstring).
ADMISSION_MODES = ("worst-case", "optimistic")

#: Simulation engines (see the module docstring): the per-iteration
#: reference, and the same loop with its fast paths on.
ENGINES = ("object", "array")

#: Number of KV-length anchors of the interpolating provider.
KV_SAMPLES = 9


class ServingStall(RuntimeError):
    """A run that cannot go on under its settings: a KV pool wedged with
    preemption disabled, a preemption or swap livelock, or every replica of
    a fleet down.  Any other ``RuntimeError`` mid-run is a simulator defect.
    """


def _percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a sorted sequence (or numpy array).

    Deterministic and dependency-free: place ``q`` on the ``(n - 1)``-step
    rank axis and interpolate linearly between the two bracketing order
    statistics.  An empty input reads 0.0 (after ``q`` is checked).
    Metric finalization sorts each value list once and reads several
    percentiles of it.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if len(ordered) == 0:
        return 0.0
    position = q / 100.0 * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] + weight * (ordered[upper] - ordered[lower])


# ----------------------------------------------------------------------
# Pass-cost provider
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def anchor_grid(kv_bounds: "tuple[int, int] | None") -> "tuple[int, ...]":
    """The decode anchor grid of KV bounds ``(kv_min, kv_max)``, sorted.

    KV length 1 is always an anchor — it is the shared ``base`` of the
    fused-decode cost model — and so are both bounds and
    :data:`KV_SAMPLES` evenly spaced lengths between them.  ``None``
    (exact pricing) has no anchors.
    """
    if kv_bounds is None:
        return ()
    kv_min, kv_max = kv_bounds
    if kv_max < kv_min:
        raise ValueError("kv_max must be at least kv_min")
    anchors = {1, kv_min, kv_max}
    if kv_max > kv_min:
        step = (kv_max - kv_min) / (KV_SAMPLES - 1)
        anchors.update(int(round(kv_min + i * step)) for i in range(KV_SAMPLES))
    return tuple(sorted(anchors))


class PassCostProvider:
    """Per-pass costing over one cost model: exact prefills, and decodes
    priced by KV length and the run's KV bounds (see :meth:`decode`)."""

    def __init__(self, cost_model: CostModel, model: ModelConfig) -> None:
        self.cost_model = cost_model
        self.model = model
        self._prefill_costs: dict[int, PassCost] = {}
        #: Prefill-chunk cost tuples by (prefix, chunk) tokens.
        self._chunk_costs: dict = {}
        #: Decode costs priced by the cost model, by KV length.
        self._exact_costs: dict[int, PassCost] = {}
        #: Decode prices by (KV length, KV bounds).
        self._decode_costs: dict = {}

    # ------------------------------------------------------------------
    def prefill(self, input_tokens: int) -> PassCost:
        """Cost of the summarization (prefill) pass — always exact."""
        cost = self._prefill_costs.get(input_tokens)
        if cost is None:
            cost = self.cost_model.pass_cost(
                self.model,
                StagePass(Stage.SUMMARIZATION, input_tokens, input_tokens),
            )
            self._prefill_costs[input_tokens] = cost
        return cost

    def prefill_chunk(self, prefix_tokens: int, chunk_tokens: int) -> tuple:
        """Incremental :func:`cost_tuple` of prefilling ``chunk_tokens``
        after a prefix.

        Priced as ``C(prefix + chunk) - C(prefix)`` over the two passes'
        integer cost tuples, so a request's chunk costs telescope to its
        monolithic prefill cost exactly (and a chunk covering the whole
        prompt *is* the monolithic pass).  Each component is floored at
        zero, which binds only where a backend's prefill cost drops as the
        prompt grows.
        """
        key = (prefix_tokens, chunk_tokens)
        cost = self._chunk_costs.get(key)
        if cost is None:
            if chunk_tokens < 1:
                raise ValueError("chunk_tokens must be at least 1")
            if prefix_tokens < 0:
                raise ValueError("prefix_tokens must be non-negative")
            cost = cost_tuple(self.prefill(prefix_tokens + chunk_tokens))
            if prefix_tokens:
                before = cost_tuple(self.prefill(prefix_tokens))
                cost = tuple(
                    max(whole - head, 0) for whole, head in zip(cost, before)
                )
            self._chunk_costs[key] = cost
        return cost

    def decode(self, kv_length: int, kv_bounds: "tuple[int, int] | None") -> PassCost:
        """Cost of one single-request decode pass at ``kv_length`` in a run
        priced over ``kv_bounds``, and of nothing else: exact at an anchor
        of :func:`anchor_grid` ``(kv_bounds)`` or on a grid of fewer than
        two anchors (``None`` prices every length exactly), interpolated
        between the two anchors around ``kv_length`` otherwise."""
        key = (kv_length, kv_bounds)
        cost = self._decode_costs.get(key)
        if cost is None:
            anchors = anchor_grid(kv_bounds)
            if len(anchors) < 2 or kv_length in anchors:
                cost = self._decode_exact(kv_length)
            else:
                position = bisect.bisect_left(anchors, kv_length)
                position = min(max(position, 1), len(anchors) - 1)
                low, high = anchors[position - 1], anchors[position]
                weight = (kv_length - low) / (high - low)
                cost = lerp_pass_cost(
                    self._decode_exact(low), self._decode_exact(high), weight
                )
            self._decode_costs[key] = cost
        return cost

    def decode_table(self, kv_lo: int, kv_hi: int):
        """The dense ``kv -> cost`` table over ``[kv_lo, kv_hi]`` (array
        engine) of a run priced over those bounds; every entry is
        bit-identical to ``decode(kv, (kv_lo, kv_hi))`` (see
        :mod:`repro.serving.decode_table`).

        Looked up in the process-wide decode-table cache under
        ``(backend fingerprint, model fingerprint, anchor grid, kv
        range)``, everything the columns depend on, and built there on a
        miss: one table per range per process, which every run, replica and
        weight swap installs by reference (and which the persistent layer
        of :func:`repro.perf.cache.install_disk_caches` pickles across
        processes).  The anchor evaluations of a build route through the
        backend's shared pass-cost cache.  A backend without a
        ``config_fingerprint`` (the test doubles) gets an unshared table.
        """
        from repro.perf.cache import config_fingerprint, global_decode_table_cache
        from repro.serving.decode_table import build_decode_table

        backend_fp = getattr(self.cost_model, "config_fingerprint", None)
        if backend_fp is None:
            return build_decode_table(self, kv_lo, kv_hi)
        shared = global_decode_table_cache()
        # The grid follows from the range; it stays in the key, whose layout
        # the persistent cache's files were written with.
        key = (
            backend_fp,
            config_fingerprint(self.model),
            anchor_grid((kv_lo, kv_hi)),
            kv_lo,
            kv_hi,
        )
        table = shared.get(key)
        if table is None:
            table = build_decode_table(self, kv_lo, kv_hi)
            shared.put(key, table)
        return table

    def base(self) -> PassCost:
        """The KV-independent decode floor (``c(1)``): weights + overheads."""
        return self._decode_exact(1)

    def _decode_exact(self, kv_length: int) -> PassCost:
        cost = self._exact_costs.get(kv_length)
        if cost is None:
            cost = self.cost_model.pass_cost(
                self.model, StagePass(Stage.GENERATION, 1, kv_length)
            )
            self._exact_costs[kv_length] = cost
        return cost


def decode_kv_bounds(items) -> "tuple[int, int] | None":
    """(min, max) decode KV length over requests or workloads, or ``None``.

    A request's decode passes span KV lengths ``input+1 .. input+output-1``
    (the prefill produces the first output token); items generating a single
    token contribute no decode pass.  Works on anything exposing
    ``input_tokens``/``output_tokens`` (:class:`~repro.serving.request.Request`,
    :class:`~repro.models.workload.Workload`).

    Streaming callers cannot derive bounds from a trace they have not
    materialized; pass the generator's *workloads* here instead (the mix
    bounds cover every request drawn from it) and hand the result to
    :meth:`ServingSimulator.simulate_stream` or
    :meth:`ServingSimulator.begin`.
    """
    bounds = [
        bound
        for item in items
        if item.output_tokens > 1
        for bound in (
            item.input_tokens + 1,
            item.input_tokens + item.output_tokens - 1,
        )
    ]
    if not bounds:
        return None
    return min(bounds), max(bounds)


def mean_service_time_s(
    cost_model: CostModel,
    model: ModelConfig,
    workloads: "Sequence",
    exact: bool = False,
) -> float:
    """Mean run-to-completion service time of a workload mix (uniform weights).

    The reciprocal is the backend's nominal capacity in requests/s — the
    arrival rate at which an ideal, never-idle FCFS server would be exactly
    saturated.  Load sweeps use it to express offered load as a fraction of
    each backend's capacity, so curves are comparable across backends whose
    absolute speeds differ by an order of magnitude.
    """
    if not workloads:
        raise ValueError("workloads must be non-empty")
    provider = PassCostProvider(cost_model, model)
    kv_bounds = None if exact else decode_kv_bounds(workloads)
    total = 0.0
    for workload in workloads:
        service = provider.prefill(workload.input_tokens).latency_s
        for kv in range(
            workload.input_tokens + 1,
            workload.input_tokens + workload.output_tokens,
        ):
            service += provider.decode(kv, kv_bounds).latency_s
        total += service
    return total / len(workloads)


# ----------------------------------------------------------------------
# Scheduling policies
# ----------------------------------------------------------------------
class RequestKeys(NamedTuple):
    """How an engine reads the keys its per-iteration rules compare.

    The policy decisions and :func:`choose_victim` are written once, over
    these readers; the run supplies readers over how it stores requests
    (row indices into columns, see :mod:`repro.serving.array_engine`).
    ``queued_*`` read a waiting entry, ``live_*`` an admitted one.
    """

    #: Prompt + output tokens of a waiting request.
    queued_total: Callable[[Any], int]
    #: Priority class of a waiting request.
    queued_class: Callable[[Any], int]
    #: Prompt tokens still to prefill plus output tokens still to emit.
    live_remaining: Callable[[Any], int]
    #: Priority class of an admitted request.
    live_class: Callable[[Any], int]
    #: ``(generated, prefilled, arrival, request_id)`` of an admitted
    #: request — what a preemption would throw away, and its age.
    live_progress: Callable[[Any], tuple]


def _first_min(keys: Iterable[int]) -> int:
    """Position of the first smallest key (ties go to the queue head)."""
    keys = list(keys)
    return keys.index(min(keys))


class ServingPolicy:
    """Decides what the device executes between two passes.

    ``admit`` gates concurrency (the KV page pool independently gates
    memory); ``admit_index`` picks which waiting request is admitted next;
    ``prefill_index`` picks which admitted-but-unprefilled request runs its
    next chunk; ``decode_batch`` picks the fully-prefilled requests that
    advance one token in the next decode iteration.  Every hook reads
    requests only through the run's :class:`RequestKeys` (``keys``), so
    one rule serves every path of the run.

    The base class is the *batching contract* the fast paths
    (``engine="array"``) rely on, which every registered policy keeps: at
    most ``max_batch`` requests are admitted at once and decoded per
    iteration, and every decodable request joins the batch while there is
    room, so when all admitted requests decode the batch is all of them.  With
    ``arrival_order`` admission, prefill and the decode batch also follow
    queue order.  At the default ``max_batch = 1`` the base class is FCFS.
    """

    name = "policy"
    #: The concurrency gate: requests admitted at once (and decoded per
    #: iteration).
    max_batch = 1
    #: True when admission, prefill and the decode batch follow queue order.
    arrival_order = True

    def admit(self, active_count: int) -> bool:
        return active_count < self.max_batch

    def admit_index(self, waiting: Sequence, keys: RequestKeys) -> int:
        return 0

    def admit_filter(
        self, waiting: Sequence, active: Sequence, keys: RequestKeys
    ) -> "list[int] | None":
        """Indices of ``waiting`` that are admissible *right now*, or
        ``None`` to leave admission ungated (the default).

        Called after the concurrency gate with the current active set;
        returning ``[]`` stops admission for this pass boundary.
        Implementations must keep admission live: when ``active`` is
        empty the filter must not be empty while work waits, or the
        device would idle forever.
        """
        return None

    def prefill_index(self, prefilling: Sequence, keys: RequestKeys) -> int:
        return 0

    def decode_batch(self, decodable: Sequence, keys: RequestKeys) -> list:
        return decodable[: self.max_batch]

    def next_admission(
        self, waiting: Sequence, active: Sequence, keys: RequestKeys
    ) -> "int | None":
        """Index of the waiting request to admit next — ``admit_index``
        over the ``admit_filter`` subset — or ``None`` to stop admitting
        at this pass boundary."""
        allowed = self.admit_filter(waiting, active, keys)
        if allowed is None:
            return self.admit_index(waiting, keys)
        if not allowed:
            return None
        return allowed[self.admit_index([waiting[i] for i in allowed], keys)]


class FcfsPolicy(ServingPolicy):
    """First-come-first-served, run-to-completion, one request at a time."""

    name = "fcfs"


class _BatchedPolicy(ServingPolicy):
    """Shared concurrency gate of the continuous-batching policies."""

    def __init__(self, max_batch: int = 8) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.max_batch = max_batch


class InterleavedPolicy(_BatchedPolicy):
    """Iteration-level continuous batching with prefill priority."""

    name = "interleaved"


class SrptPolicy(_BatchedPolicy):
    """Shortest-remaining-processing-time continuous batching.

    Admission, prefill order and the decode batch all prefer the request
    with the fewest remaining tokens (ties broken by queue position, so the
    order is deterministic).  Remaining tokens are the service-demand proxy
    the cost models support: every token costs roughly one pass slot.
    """

    name = "srpt"
    arrival_order = False

    def admit_index(self, waiting, keys):
        return _first_min(map(keys.queued_total, waiting))

    def prefill_index(self, prefilling, keys):
        return _first_min(map(keys.live_remaining, prefilling))

    def decode_batch(self, decodable, keys):
        # A stable sort keeps queue order among equal keys.
        return sorted(decodable, key=keys.live_remaining)[: self.max_batch]


class PriorityPolicy(_BatchedPolicy):
    """Priority-class continuous batching (class 0 first, then arrival order).

    Strict priority at every decision point: admission, prefill order and
    the decode batch serve the lowest class first.  Pair with the
    simulator's per-class ``slo_targets`` to measure SLO attainment — under
    overload, class 0 keeps its attainment at the expense of class 1.

    ``class_shares`` adds per-class *admission reservations* for tenant
    isolation: class ``i`` is guaranteed ``floor(class_shares[i] *
    max_batch)`` concurrency slots.  A candidate of class ``c`` is admitted
    while class ``c`` is under its reservation, or while enough headroom
    remains that admitting it cannot eat into another waiting class's
    unfilled reservation.  With shares, an overloaded low-priority tenant
    can no longer starve class 0 of admission slots *and* a burst of
    class-0 work cannot squeeze a reserved lower class out entirely.
    Classes beyond ``len(class_shares)`` hold no reservation.  Without
    ``class_shares`` (default) admission is the legacy strict-priority
    order, bit for bit.
    """

    name = "priority"
    arrival_order = False

    def __init__(
        self, max_batch: int = 8, class_shares: "Sequence[float] | None" = None
    ) -> None:
        super().__init__(max_batch)
        self.class_shares: "tuple[float, ...] | None" = None
        self._reservations: "tuple[int, ...] | None" = None
        if class_shares is not None:
            shares = tuple(float(share) for share in class_shares)
            if not shares:
                raise ValueError("class_shares must name at least one class")
            if any(
                not 0.0 <= share <= 1.0 or share != share for share in shares
            ):
                raise ValueError("class_shares must be fractions in [0, 1]")
            if sum(shares) > 1.0 + 1e-9:
                raise ValueError(
                    f"class_shares sum to {sum(shares):g}; reservations "
                    "cannot exceed the whole batch (sum must be <= 1)"
                )
            self.class_shares = shares
            self._reservations = tuple(
                int(share * self.max_batch) for share in shares
            )

    def admit_index(self, waiting, keys):
        return _first_min(map(keys.queued_class, waiting))

    def admit_filter(self, waiting, active, keys):
        reserved = self._reservations
        if reserved is None:
            return None
        active_by_class = Counter(map(keys.live_class, active))
        classes = list(map(keys.queued_class, waiting))
        # Reservation slots each waiting class still holds unfilled.
        unfilled = {
            cls: max(
                0,
                (reserved[cls] if cls < len(reserved) else 0)
                - active_by_class[cls],
            )
            for cls in set(classes)
        }
        all_unfilled = sum(unfilled.values())
        total = len(active)
        # A class under its reservation is admissible; past it, only while
        # the slots other waiting classes still have reserved stay free.
        admissible = {
            cls: (
                unfilled[cls] > 0
                or total + all_unfilled - unfilled[cls] < self.max_batch
            )
            for cls in unfilled
        }
        return [index for index, cls in enumerate(classes) if admissible[cls]]

    def prefill_index(self, prefilling, keys):
        return _first_min(map(keys.live_class, prefilling))

    def decode_batch(self, decodable, keys):
        # A stable sort keeps arrival order within a class.
        return sorted(decodable, key=keys.live_class)[: self.max_batch]


#: Policy registry: CLI/experiment name -> class, in presentation order.
POLICIES: dict[str, type[ServingPolicy]] = {
    "fcfs": FcfsPolicy,
    "interleaved": InterleavedPolicy,
    "srpt": SrptPolicy,
    "priority": PriorityPolicy,
}


def _constructor_keywords(cls: type) -> set[str]:
    """Keyword arguments a class constructor accepts (shared by the policy
    and router factories, so both validate the same way)."""
    return {
        name
        for name, param in inspect.signature(cls.__init__).parameters.items()
        if name != "self"
        and param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    }


def _validated_construct(kind: str, registry: dict, name: str, kwargs: dict):
    """Look up ``name`` in ``registry`` and build it, validating kwargs.

    Unknown names raise with the list of known entries; keyword arguments
    the named class does not accept raise instead of being silently
    dropped.  The single construction path of policies and routers.
    """
    cls = registry.get(name)
    if cls is None:
        raise ValueError(f"unknown {kind} {name!r}; known: {', '.join(registry)}")
    allowed = _constructor_keywords(cls)
    unexpected = sorted(set(kwargs) - allowed)
    if unexpected:
        accepted = ", ".join(sorted(allowed)) if allowed else "none"
        raise ValueError(
            f"{kind} {name!r} does not accept {', '.join(unexpected)} "
            f"(accepted keyword(s): {accepted})"
        )
    return cls(**kwargs)


def make_policy(name: str, **kwargs) -> ServingPolicy:
    """Instantiate a scheduling policy by name — the single validation point.

    Unknown names raise with the list of known policies; keyword arguments
    the named policy does not accept raise instead of being silently
    dropped (e.g. ``max_batch`` on FCFS, which is unbatched by definition).
    """
    return _validated_construct("policy", POLICIES, name, kwargs)


# ----------------------------------------------------------------------
# Per-iteration rules, each written once for every path of a run
# ----------------------------------------------------------------------
def choose_victim(active: Sequence, protected: set, keys: RequestKeys):
    """The admitted request whose preemption loses the least work.

    Fewest generated tokens, then fewest prefilled, then the latest
    arrival (LIFO), then the highest id; the first such entry of
    ``active`` outside ``protected`` wins.  ``None`` when every admitted
    request is protected.
    """
    progress = keys.live_progress
    victim = best = None
    for entry in active:
        if entry in protected:
            continue
        generated, prefilled, arrival, request_id = progress(entry)
        key = (generated, prefilled, -arrival, -request_id)
        if best is None or key < best:
            victim, best = entry, key
    return victim


def cost_row(
    latency_s: float, memory_j: float, pim_j: float, npu_j: float, flops: float
) -> tuple:
    """The integer ``(latency, mem, pim, npu, flops)`` tuple the
    per-iteration rules compute over: picoseconds, picojoules, FLOPs."""
    return to_ps(latency_s), to_pj(memory_j), to_pj(pim_j), to_pj(npu_j), round(flops)


def cost_tuple(cost: PassCost) -> tuple:
    """A pass cost as its integer :func:`cost_row`."""
    energy = cost.energy
    return cost_row(
        cost.latency_s,
        energy.normal_memory_j,
        energy.pim_op_j,
        energy.npu_cores_j,
        cost.flops,
    )


def floor_ticks(cost: PassCost) -> tuple:
    """The decode floor ``c(1)``'s latency and energies in ticks, not yet
    rounded (rounded, they are its :func:`cost_tuple`)."""
    energy = cost.energy
    seconds_or_joules = (
        cost.latency_s, energy.normal_memory_j, energy.pim_op_j, energy.npu_cores_j
    )
    return tuple(value * 1e12 for value in seconds_or_joules)


@lru_cache(maxsize=256)
def shared_floor(shared: float, base: tuple) -> tuple:
    """A fused pass's shareable floor ``shared * base`` (``shared`` is
    ``share`` times ``B - 1``, or ``B`` with a carrier; ``base`` is
    :func:`floor_ticks`): one integer per batch size for latency and each
    energy, rounded once from the backend's price, but never above
    ``shared`` rounded bases, so it cannot bind on a column that stays at
    its base (PIM energy does not grow with the KV length)."""
    return tuple(
        min(round(shared * value), round(shared * round(value))) for value in base[:4]
    )


def fused_pass(
    carrier: "tuple | None",
    costs: "list[tuple]",
    share: float,
    base: "Callable[[], tuple]",
) -> tuple:
    """One device iteration: an optional prefill chunk fused with decodes.

    Every cost is a :func:`cost_tuple`; ``base()`` returns the decode
    floor ``c(1)`` of the resident model as :func:`floor_ticks` (it is
    priced only when the pass fuses two or more members).  Without a
    carrier the first decode member pays the floor and the other
    ``B - 1`` ride along; with a carrier (a prefill chunk, which streams
    every FC weight anyway) all ``B`` decode floors are shareable, scaled
    by ``share`` (:func:`shared_floor`).  Latency and each energy component are
    floored at the largest member — a fused pass cannot beat its largest
    constituent — and FLOPs sum in full: batching shares bytes, not math.
    """
    if carrier is None:
        if len(costs) == 1:
            return costs[0]
        parts = costs
        shared = share * (len(costs) - 1)
    elif not costs:
        return carrier
    else:
        parts = [carrier, *costs]
        shared = share * len(costs)
    latency, mem, pim, npu, flops = zip(*parts)
    floor = shared_floor(shared, base())
    return (
        max(sum(latency) - floor[0], max(latency)),
        max(sum(mem) - floor[1], max(mem)),
        max(sum(pim) - floor[2], max(pim)),
        max(sum(npu) - floor[3], max(npu)),
        sum(flops),
    )


def _check_fits_alone(
    kv: KvPageAccountant, request_id: int, total_tokens: int
) -> None:
    """Raise if a request needs more KV pages than the whole pool holds."""
    if not kv.fits_alone(total_tokens):
        raise ValueError(
            f"request {request_id} needs {kv.pages_for(total_tokens)} KV "
            f"pages but the pool holds {kv.total_pages}; it can never be "
            "served (raise kv_fraction or the budget)"
        )


def _pool_exhausted(
    kv: KvPageAccountant, request_id: int, kv_length: int
) -> ServingStall:
    """The error of a decode that can neither grow nor preempt while no
    prefill can run (``kv_length`` is the decode's next KV length)."""
    return ServingStall(
        "KV pool exhausted with preemption disabled: request "
        f"{request_id} holds {kv.held_pages(request_id)} page(s) and "
        f"needs {kv.grow_need(request_id, kv_length)} more for its next "
        f"decode, but only {kv.free_pages} of {kv.total_pages} pool "
        "page(s) are free and no prefill can run (enable preempt or raise "
        "the KV budget)"
    )


def request_aggregates(
    completions: CompletionRecord,
    slo_targets: "tuple[float, ...] | None",
    default_model: str,
    by_model: bool,
) -> dict:
    """Latency, TTFT and TPOT means and percentiles plus SLO attainment.

    The request-level fields shared by :class:`ServingMetrics` and the
    cluster's pooled metrics, reduced from a completion record; all but
    the means read the durations its rows carry
    (:meth:`CompletionRecord.durations`).  No field depends on the order
    of the record: the latency and TTFT means divide a sum of integer
    picoseconds, the TPOT mean (of per-request ratios) divides a
    ``math.fsum``, the percentiles read sorted copies and attainment
    counts.  With ``slo_targets`` class ``c``
    is scored against ``slo_targets[min(c, len - 1)]``, and attainment is
    reported overall, by class and — with ``by_model``, for co-hosted
    model sets — by ``"model/class"``; a run with no completed request
    attains 1.0.
    """

    def mean(ticks: np.ndarray) -> float:  # a Python-int sum: exact
        return to_s(sum(ticks.tolist())) / len(ticks) if len(ticks) else 0.0

    arrival = np.asarray(completions.arrival)
    latency_s, ttft_s, tpot_s = completions.durations()
    tpots = tpot_s[np.asarray(completions.output_tokens) > 1]
    ordered_latencies = np.sort(latency_s)
    ordered_ttfts = np.sort(ttft_s)
    slo_attainment: "float | None" = None
    slo_by_class: dict[str, float] = {}
    slo_by_model_class: dict[str, float] = {}
    if slo_targets is not None:
        if len(completions):
            classes = np.asarray(completions.priority_class)
            targets = np.asarray(slo_targets, dtype=np.float64)
            met = latency_s <= targets[np.minimum(classes, len(targets) - 1)]
            # Python ints, so each share is a Python float (NumPy counts
            # would make it a numpy.float64, and comparisons numpy.bool).
            slo_attainment = int(np.count_nonzero(met)) / met.size
            slo_by_class = {
                str(cls): int(np.count_nonzero(met[classes == cls]))
                / int(np.count_nonzero(classes == cls))
                for cls in np.unique(classes).tolist()
            }
            if by_model:
                models = np.array(
                    [name or default_model for name in completions.model]
                )
                for name, cls in sorted(set(zip(models.tolist(), classes.tolist()))):
                    group = (models == name) & (classes == cls)
                    slo_by_model_class[f"{name}/{cls}"] = (
                        int(np.count_nonzero(met[group]))
                        / int(np.count_nonzero(group))
                    )
        else:
            slo_attainment = 1.0
    return {
        "latency_mean_s": mean(np.asarray(completions.completion) - arrival),
        "latency_p50_s": float(_percentile_sorted(ordered_latencies, 50.0)),
        "latency_p99_s": float(_percentile_sorted(ordered_latencies, 99.0)),
        "ttft_mean_s": mean(np.asarray(completions.first_token) - arrival),
        "ttft_p50_s": float(_percentile_sorted(ordered_ttfts, 50.0)),
        "ttft_p99_s": float(_percentile_sorted(ordered_ttfts, 99.0)),
        "tpot_mean_s": (
            math.fsum(tpots.tolist()) / len(tpots) if len(tpots) else 0.0
        ),
        "slo_attainment": slo_attainment,
        "slo_by_class": slo_by_class,
        "slo_by_model_class": slo_by_model_class,
    }


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate metrics of one simulated trace (plus per-request detail)."""

    backend: str
    model: str
    policy: str
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
    prefill_passes: int
    decode_passes: int
    mean_decode_batch: float
    #: Admission mode of the run ("worst-case" or "optimistic").
    admission: str = "worst-case"
    #: Total admit decisions (> num_requests when preemption re-admits).
    admissions: int = 0
    #: High-water mark of concurrently admitted requests.
    peak_active: int = 0
    #: Preempt-and-recompute evictions performed by optimistic admission.
    preemptions: int = 0
    #: Prompt + output tokens computed then discarded by preemptions.
    recomputed_tokens: int = 0
    #: Victims whose KV pages were swapped out to host DRAM (swap tier).
    swap_outs: int = 0
    #: Swapped-out requests restored to the pool (no recompute).
    swap_ins: int = 0
    #: KV pages moved over the host link, both directions summed.
    swapped_pages: int = 0
    #: Host-link bandwidth priced for swap transfers (0 = swap disabled).
    link_gbps: float = 0.0
    chunk_tokens: int = 0
    kv_page_tokens: int = DEFAULT_PAGE_TOKENS
    kv_pages_total: int = 0
    kv_peak_pages: int = 0
    kv_budget_bytes: int = 0
    slo_attainment: "float | None" = None
    slo_by_class: dict = field(default_factory=dict)
    #: Names of the co-hosted model set; empty for single-model runs (the
    #: pre-multi-model representation is preserved byte for byte).
    models: tuple = ()
    #: Weight swaps paid when the active model changed mid-run.
    model_swaps: int = 0
    #: Simulated seconds spent streaming model weights over the host link.
    model_swap_s: float = 0.0
    #: Per-(model, class) SLO attainment, keyed ``"model/class"`` —
    #: populated only for multi-model runs with SLO targets.
    slo_by_model_class: dict = field(default_factory=dict)
    per_request: tuple[RequestMetrics, ...] = field(default_factory=tuple)

    def to_dict(self, include_requests: bool = True) -> dict:
        """JSON-stable representation (reports and determinism tests)."""
        data = {
            "backend": self.backend,
            "model": self.model,
            "policy": self.policy,
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
            "prefill_passes": self.prefill_passes,
            "decode_passes": self.decode_passes,
            "mean_decode_batch": self.mean_decode_batch,
            "admission": self.admission,
            "admissions": self.admissions,
            "peak_active": self.peak_active,
            "preemptions": self.preemptions,
            "recomputed_tokens": self.recomputed_tokens,
            "swap_outs": self.swap_outs,
            "swap_ins": self.swap_ins,
            "swapped_pages": self.swapped_pages,
            "link_gbps": self.link_gbps,
            "chunk_tokens": self.chunk_tokens,
            "kv_page_tokens": self.kv_page_tokens,
            "kv_pages_total": self.kv_pages_total,
            "kv_peak_pages": self.kv_peak_pages,
            "kv_budget_bytes": self.kv_budget_bytes,
            "slo_attainment": self.slo_attainment,
            "slo_by_class": self.slo_by_class,
        }
        if len(self.models) > 1:
            # Multi-model keys appear only for real model sets, so a
            # single-model run's dict matches the pre-multi-model layout.
            data["models"] = list(self.models)
            data["model_swaps"] = self.model_swaps
            data["model_swap_s"] = self.model_swap_s
            data["slo_by_model_class"] = self.slo_by_model_class
        if include_requests:
            data["per_request"] = [metrics.to_dict() for metrics in self.per_request]
        return data

    @property
    def kv_peak_fraction(self) -> float:
        """Peak committed fraction of the KV page pool."""
        if self.kv_pages_total <= 0:
            return 0.0
        return self.kv_peak_pages / self.kv_pages_total

    def summary(self) -> str:
        """Multi-line human-readable summary (``repro serve`` prints this)."""
        lines = [
            f"backend         : {self.backend}",
            f"model           : {self.model}",
            f"policy          : {self.policy}"
            + (f" (chunked prefill, {self.chunk_tokens} tokens)"
               if self.chunk_tokens else ""),
            f"requests        : {self.num_requests} "
            f"({self.output_tokens} output tokens)",
            f"makespan        : {self.makespan_s:.3f} s "
            f"(device busy {self.busy_s:.3f} s, {self.utilization:.0%} utilized)",
            f"throughput      : {self.tokens_per_s:.1f} tokens/s, "
            f"{self.requests_per_s:.2f} requests/s",
            f"latency         : mean {self.latency_mean_s * 1e3:.1f} ms, "
            f"p50 {self.latency_p50_s * 1e3:.1f} ms, "
            f"p99 {self.latency_p99_s * 1e3:.1f} ms",
            f"TTFT            : mean {self.ttft_mean_s * 1e3:.1f} ms, "
            f"p50 {self.ttft_p50_s * 1e3:.1f} ms, "
            f"p99 {self.ttft_p99_s * 1e3:.1f} ms",
            f"TPOT            : mean {self.tpot_mean_s * 1e3:.3f} ms/token",
            f"passes          : {self.prefill_passes} prefill, "
            f"{self.decode_passes} decode "
            f"(mean batch {self.mean_decode_batch:.2f})",
            f"admission       : {self.admission} "
            f"({self.admissions} admits, peak {self.peak_active} in flight, "
            f"{self.preemptions} preemptions, "
            f"{self.recomputed_tokens} tokens recomputed)",
            *(
                [
                    f"KV swap         : {self.swap_outs} out / {self.swap_ins} in, "
                    f"{self.swapped_pages} pages over a "
                    f"{self.link_gbps:g} Gb/s host link"
                ]
                if self.link_gbps > 0.0
                else []
            ),
            *(
                [
                    f"model set       : {', '.join(self.models)} "
                    f"({self.model_swaps} weight swaps, "
                    f"{self.model_swap_s:.3f} s streaming)"
                ]
                if len(self.models) > 1
                else []
            ),
            f"KV memory       : {self.kv_peak_pages}/{self.kv_pages_total} "
            f"pages peak ({self.kv_peak_fraction:.0%} of "
            f"{self.kv_budget_bytes / 2**30:.2f} GiB, "
            f"{self.kv_page_tokens} tokens/page)",
            f"dynamic energy  : {self.energy_j * 1e3:.1f} mJ",
        ]
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


def _arrival_key(request: Request) -> tuple:
    """A request's ``(arrival, id)`` order key, the arrival in picoseconds
    (the order every queue and offer keeps)."""
    return to_ps(request.arrival_s), request.request_id


def _book_phase(
    owner, name: str, phase_s: dict, phase: "str | None", nested: list
) -> None:
    """Wrap ``owner``'s method ``name`` on the instance so that every call
    adds its self time to ``phase_s[phase]``: its wall time less that of
    the profiled calls made inside it, which book their own (``nested[0]``
    sums their wall time while it runs).  A ``None`` phase is a run's
    ``_step``: prefill when the call ran a prefill pass, decode otherwise.
    """
    method = getattr(owner, name)

    def timed(*args):
        passes = owner.prefill_passes if phase is None else 0
        outer, nested[0] = nested[0], 0.0
        start = perf_counter()
        result = method(*args)
        elapsed = perf_counter() - start
        booked = phase or ("prefill" if owner.prefill_passes != passes else "decode")
        phase_s[booked] += elapsed - nested[0]
        nested[0] = outer + elapsed
        return result

    setattr(owner, name, timed)


def _profile_phases(run) -> None:
    """The phase profiler: book ``run``'s wall time per phase in
    ``run.phase_s`` by wrapping its phase methods on the instance.

    ``_admit`` books admit.  ``_step`` books prefill when it ran a prefill
    pass (``prefill_passes`` moved during the call) and decode otherwise.
    ``_decode_run`` books decode and ``_absorb_arrivals`` absorb (both 0
    on a run whose fast paths are off).  ``_finalize`` books metrics.
    Each call books its self time, so the burst runner's steps, which run
    inside ``_absorb_arrivals``, count as prefill and decode only, and the
    phases sum to at most the run's wall time.  The loop itself carries no
    timing code, so an unprofiled run pays nothing.
    """
    phase_s = run.phase_s
    phase_s.update(admit=0.0, prefill=0.0, decode=0.0, absorb=0.0, metrics=0.0)
    nested = [0.0]
    _book_phase(run, "_admit", phase_s, "admit", nested)
    _book_phase(run, "_step", phase_s, None, nested)
    _book_phase(run, "_decode_run", phase_s, "decode", nested)
    _book_phase(run, "_absorb_arrivals", phase_s, "absorb", nested)
    _book_phase(run, "_finalize", phase_s, "metrics", nested)


class ServingSimulator:
    """Single-device discrete-event serving simulator.

    Parameters
    ----------
    cost_model:
        Any :class:`~repro.core.costmodel.CostModel` backend.
    model:
        The served model; must be a decoder when any request generates more
        than one token.
    policy:
        A name in :data:`POLICIES` (``"fcfs"``, ``"interleaved"``,
        ``"srpt"``, ``"priority"``) or a :class:`ServingPolicy` instance.
    max_batch:
        Decode-batch cap of the batching policies (ignored by FCFS, but
        at least 1 under every policy).
    exact:
        Price every decode KV length exactly instead of interpolating over
        the run's anchor grid: each run's KV bounds are ``None`` (see
        :meth:`PassCostProvider.decode`).
    batch_share:
        Fraction of the decode cost floor shared across a fused batch (see
        the module docstring); 1.0 models fully shared weight streaming.
    kv_fraction:
        Fraction of the backend's weight-free memory granted to the KV page
        pool (admission control; see :mod:`repro.serving.kv_memory`), in
        ``(0, 1]`` even when ``kv_budget`` overrides it.
    page_tokens:
        Tokens per KV page.
    kv_budget:
        Explicit KV pool size in bytes, overriding the backend derivation.
    chunk_tokens:
        Prefill chunk size in tokens; 0 (default) prefills whole prompts.
    slo_targets:
        Optional per-class latency SLO targets in seconds (class ``i`` gets
        ``slo_targets[min(i, len - 1)]``); enables SLO-attainment metrics.
    admission:
        ``"worst-case"`` (default) commits a request's full ``input +
        output`` pages up front; ``"optimistic"`` commits only the prompt
        pages and grows on demand during decode (see the module docstring).
    preempt:
        Under optimistic admission, whether pool exhaustion may preempt
        (and later recompute) the least-progressed request.  With
        ``preempt=False`` a decode that cannot grow stalls instead, and the
        simulator raises :class:`ServingStall` if the pool wedges
        completely.
        Ignored under worst-case admission, which never needs to grow.
    swap:
        Enable the host-DRAM swap tier (optimistic admission only): on
        pool exhaustion the victim's private KV pages are *swapped out*
        over the host link instead of preempted — its progress survives
        and it resumes via swap-in, paying transfer time instead of
        recompute time.  Preempt-and-recompute remains the last resort
        when resident shared-prefix pages pin the pool.
    link_gbps:
        Host PCIe/interconnect link bandwidth in Gbit/s used to price
        swap transfers (``pages * page_bytes * 8 / (link_gbps * 1e9)``
        seconds per direction).  Only meaningful with ``swap=True``.
    engine:
        ``"array"`` (default) runs the fast paths, ``"object"`` the
        per-iteration reference alone — see the module docstring's
        *Engines* section.  A policy outside :data:`POLICIES` runs the
        reference under either value.
    profile:
        Record a per-phase wall-time breakdown (``admit`` / ``absorb`` /
        ``prefill`` / ``decode`` / ``metrics``) in
        ``run.phase_s`` — read it from ``simulator.last_run`` after
        ``simulate``; ``repro serve --profile`` prints it.  :meth:`begin`
        attaches the phase profiler, which wraps the run's phase methods
        on the instance, so unprofiled runs carry no timing code.
    per_request_detail:
        When ``False``, leave the per-request :class:`RequestMetrics` out
        of the result (``per_request=()``): at a million requests building
        a metrics object per request costs more than the whole simulation.
        Nothing else changes — every other field is reduced from the run's
        completion record either way.
    models:
        Optional *co-hosted model set*: every member's weights live in
        device memory budget terms (the KV pool is sized against the
        heaviest member) but only one model is *resident* (active) at a
        time.  Requests name their model (``Request.model``; "" = the
        default ``model``, which must be a member).  When an iteration has
        no runnable work for the resident model the replica pays a *weight
        swap* — the target's whole parameter footprint streamed over the
        ``link_gbps`` host link, advancing the clock and logged as a
        ``model_swap`` event.  A single-member set (or ``None``) keeps
        every legacy code path bit for bit.
    num_classes:
        Optional declared priority-class count.  When given alongside
        ``slo_targets``, the target list must hold exactly one shared
        target or one per class — catching the silent clamp where class
        ``i >= len(slo_targets)`` inherited the last target.
    """

    def __init__(
        self,
        cost_model: CostModel,
        model: ModelConfig,
        policy: "ServingPolicy | str" = "interleaved",
        max_batch: int = 8,
        exact: bool = False,
        batch_share: float = 1.0,
        kv_fraction: float = 1.0,
        page_tokens: int = DEFAULT_PAGE_TOKENS,
        kv_budget: "int | None" = None,
        chunk_tokens: int = 0,
        slo_targets: "Sequence[float] | None" = None,
        admission: str = "worst-case",
        preempt: bool = True,
        swap: bool = False,
        link_gbps: float = 16.0,
        engine: str = "array",
        profile: bool = False,
        per_request_detail: bool = True,
        models: "Sequence[ModelConfig] | None" = None,
        num_classes: "int | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if not 0.0 <= batch_share <= 1.0:
            raise ValueError("batch_share must be in [0, 1]")
        # Chained range checks also reject NaN, which fails every comparison.
        if not 0.0 < kv_fraction <= 1.0:
            raise ValueError("kv_fraction must be in (0, 1]")
        if chunk_tokens < 0:
            raise ValueError("chunk_tokens must be non-negative (0 = unchunked)")
        if admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {', '.join(ADMISSION_MODES)}; "
                f"got {admission!r}"
            )
        if not link_gbps > 0.0 or link_gbps != link_gbps or link_gbps == float("inf"):
            raise ValueError("link_gbps must be a positive finite bandwidth")
        if swap and admission != "optimistic":
            raise ValueError(
                "swap requires admission='optimistic' (worst-case admission "
                "never exhausts the pool mid-decode, so there is nothing to "
                "swap)"
            )
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; known: {', '.join(ENGINES)}"
            )
        if slo_targets is not None:
            slo_targets = tuple(float(target) for target in slo_targets)
            # ``not > 0`` also rejects NaN, which every comparison fails.
            if not slo_targets or not all(target > 0 for target in slo_targets):
                raise ValueError(
                    f"slo_targets must be positive latencies; got "
                    f"{list(slo_targets)}"
                )
        if num_classes is not None:
            if num_classes < 1:
                raise ValueError("num_classes must be at least 1")
            if slo_targets is not None and len(slo_targets) not in (1, num_classes):
                raise ValueError(
                    f"slo_targets has {len(slo_targets)} target(s) for "
                    f"{num_classes} priority class(es); give one shared "
                    "target or one per class"
                )
        self.num_classes = num_classes
        model_set = (model,) if models is None else tuple(models)
        if models is not None:
            if not model_set:
                raise ValueError("models must be a non-empty model set")
            names = [member.name for member in model_set]
            if len(set(names)) != len(names):
                dupes = sorted({n for n in names if names.count(n) > 1})
                raise ValueError(
                    f"models contains duplicate name(s): {', '.join(dupes)}"
                )
            if model.name not in set(names):
                raise ValueError(
                    f"the default model {model.name!r} must be a member of "
                    f"the co-hosted model set ({', '.join(names)})"
                )
        self.cost_model = cost_model
        self.model = model
        self.models = model_set
        self._model_by_name = {member.name: member for member in model_set}
        #: True when this simulator co-hosts more than one model — the
        #: single-model configuration keeps every legacy code path.
        self.multi_model = len(model_set) > 1
        if isinstance(policy, str):
            cls = POLICIES.get(policy)
            kwargs = (
                {"max_batch": max_batch}
                if cls is not None and "max_batch" in _constructor_keywords(cls)
                else {}
            )
            self.policy = make_policy(policy, **kwargs)
        else:
            self.policy = policy
        self.batch_share = batch_share
        self.chunk_tokens = chunk_tokens
        self.slo_targets = slo_targets
        self.admission = admission
        self.preempt = preempt
        self.swap = swap
        self.link_gbps = link_gbps
        self.kv_fraction = kv_fraction
        self.page_tokens = page_tokens
        self.kv_budget = kv_budget
        self.engine = engine
        self.profile = profile
        self.per_request_detail = per_request_detail
        self.exact = exact
        self.provider = PassCostProvider(cost_model, model)
        #: Per-model pass-cost providers (the default model reuses
        #: ``self.provider`` so single-model costing is untouched).
        self.providers = {model.name: self.provider}
        for member in model_set:
            if member.name not in self.providers:
                self.providers[member.name] = PassCostProvider(cost_model, member)
        self._weight_bytes = {
            member.name: model_weight_bytes(member) for member in model_set
        }
        # Validate the KV pool configuration eagerly (budget, page size).
        self._new_accountant()
        #: Event log of the last ``simulate(record_events=True)`` run.
        self.events: "list[SimEvent] | None" = None
        #: The run behind the last one-shot ``simulate``/``simulate_stream``
        #: (profiling reads ``last_run.phase_s``).
        self.last_run: "ArraySimulationRun | None" = None
        #: The trace of the last ``simulate``, for :meth:`validate_invariants`.
        self._last_trace: "list[Request] | None" = None

    def _new_accountant(self) -> KvPageAccountant:
        return KvPageAccountant.for_backend(
            self.cost_model,
            self.model,
            fraction=self.kv_fraction,
            page_tokens=self.page_tokens,
            budget_bytes=self.kv_budget,
            models=self.models if self.multi_model else None,
        )

    def _check_servable(self, request: Request) -> None:
        """Raise unless ``request`` targets a hosted model that can emit
        its output tokens (a non-decoder serves one token per request)."""
        config = self._config_for(request)
        if not config.is_decoder and request.output_tokens > 1:
            raise ValueError(
                f"{config.name} is not a decoder; serving traces for it "
                "must be summarization-only (output_tokens == 1)"
            )

    def _link_ps(self, nbytes: int) -> int:
        """Transfer time of ``nbytes`` over the host link, in picoseconds
        (KV page swaps and model weight swaps alike)."""
        return to_ps(nbytes * 8.0 / (self.link_gbps * 1e9))

    def _config_for(self, request: Request) -> ModelConfig:
        """The :class:`ModelConfig` a request targets ("" = the default)."""
        name = request.model
        if not name or name == self.model.name:
            return self.model
        config = self._model_by_name.get(name)
        if config is None:
            known = ", ".join(sorted(self._model_by_name))
            raise ValueError(
                f"request {request.request_id} targets unknown model "
                f"{name!r}; this simulator hosts: {known}"
            )
        return config

    # ------------------------------------------------------------------
    def begin(
        self,
        record_events: bool = False,
        kv_bounds: "tuple[int, int] | None" = None,
    ) -> "ArraySimulationRun":
        """Start an incremental run (see
        :class:`~repro.serving.array_engine.ArraySimulationRun`).

        ``kv_bounds`` are the KV bounds every decode of the run is priced
        over (its anchor grid, see :meth:`PassCostProvider.decode`) — pass
        the :func:`decode_kv_bounds` of everything the run will ever be
        offered (the cluster layer passes the whole trace's bounds, so a
        one-replica cluster prices passes identically to ``simulate``).
        ``None``, and every run of an ``exact`` simulator, prices each KV
        length exactly.
        """
        from repro.serving.array_engine import ArraySimulationRun

        run = ArraySimulationRun(
            self, record_events=record_events, kv_bounds=kv_bounds
        )
        if self.profile:
            _profile_phases(run)
        return run

    def simulate(
        self, requests: Sequence[Request], record_events: bool = False
    ) -> ServingMetrics:
        """Play a trace to completion and return its metrics."""
        ordered = sorted(requests, key=_arrival_key)
        run = self.begin(
            record_events=record_events, kv_bounds=decode_kv_bounds(ordered)
        )
        self.events = run.events
        self.last_run = run
        self._last_trace = ordered
        run.offer_many(ordered)
        return run.finish()

    def simulate_stream(
        self,
        chunks: "Iterable[Sequence[Request]]",
        kv_bounds: "tuple[int, int] | None" = None,
    ) -> ServingMetrics:
        """Play a *streamed* trace to completion — O(active) memory.

        ``chunks`` yields request batches in ``(arrival_s, request_id)``
        order (:meth:`repro.serving.trace.TraceGenerator.generate_stream`
        produces exactly this); each chunk is offered and the run advanced
        to its last arrival before the next chunk is drawn, so no more
        than one chunk of the trace is materialized at a time.  Offering
        incrementally is metric-identical to the one-shot path (the
        scheduler only acts at pass boundaries in both), which the
        differential suite pins.

        ``kv_bounds`` cannot be derived from an unmaterialized trace —
        pass ``decode_kv_bounds(generator.workloads)`` (the mix-wide
        bounds cover every request the generator can draw).  Without them
        the run prices every decode exactly, which is correct but slow,
        whatever this simulator ran before.
        """
        run = self.begin(kv_bounds=kv_bounds)
        self.events = run.events
        self.last_run = run
        self._last_trace = None
        for chunk in chunks:
            if chunk:
                run.offer_many(chunk)
                run.advance_until(chunk[-1].arrival_s)
        return run.finish()

    def validate_invariants(self) -> list[str]:
        """Replay the last ``simulate``'s event log through the invariant
        checker; returns the violations (empty = sound).

        The checker is :func:`~repro.serving.validate.check_invariants`,
        the one-replica case of the books
        :meth:`ClusterSimulator.validate_invariants
        <repro.serving.cluster.ClusterSimulator.validate_invariants>`
        balances, configured from the simulator itself: its
        ``page_tokens`` and ``admission`` enable the exact page-ledger
        replay, and its default model the resident-model replay.  A
        streamed run keeps no trace to replay against, so it needs a
        ``simulate`` as much as a fresh simulator does.
        """
        if self._last_trace is None:
            raise RuntimeError("validate_invariants() needs a simulate() first")
        if self.events is None:
            raise RuntimeError(
                "validate_invariants() needs simulate(record_events=True)"
            )
        return check_invariants(
            self.events,
            self._last_trace,
            page_tokens=self.page_tokens,
            admission=self.admission,
            default_model=self.model.name,
        )

    # ------------------------------------------------------------------
    def _finalize(self, run, makespan: int) -> ServingMetrics:
        """The run's metrics: the request-level fields of its completion
        record plus its counters, and — with ``per_request_detail`` — the
        record's rows.  Ticks become seconds and joules here."""
        completions = run.completions
        num_requests = len(completions)
        output_tokens = sum(completions.output_tokens)
        busy = run.busy
        decode_passes = run.decode_passes
        kv = run.kv
        makespan_s = to_s(makespan)
        return ServingMetrics(
            backend=self.cost_model.name,
            model=self.model.name,
            policy=self.policy.name,
            makespan_s=makespan_s,
            busy_s=to_s(busy),
            utilization=busy / makespan if makespan > 0 else 0.0,
            tokens_per_s=output_tokens / makespan_s if makespan > 0 else 0.0,
            requests_per_s=num_requests / makespan_s if makespan > 0 else 0.0,
            energy_j=to_j(run.energy_pj),
            flops=float(run.flops),
            prefill_passes=run.prefill_passes,
            decode_passes=decode_passes,
            mean_decode_batch=(
                run.decode_tokens / decode_passes if decode_passes else 0.0
            ),
            admission=self.admission,
            admissions=run.admissions,
            peak_active=run.peak_active,
            preemptions=run.preemptions,
            recomputed_tokens=run.recomputed_tokens,
            swap_outs=run.swap_outs,
            swap_ins=run.swap_ins,
            swapped_pages=run.swapped_pages_total,
            link_gbps=self.link_gbps if self.swap else 0.0,
            chunk_tokens=self.chunk_tokens,
            kv_page_tokens=kv.page_tokens,
            kv_pages_total=kv.total_pages,
            kv_peak_pages=kv.peak_reserved_pages,
            kv_budget_bytes=kv.budget_bytes,
            models=(
                tuple(member.name for member in self.models)
                if self.multi_model
                else ()
            ),
            model_swaps=run.model_swaps,
            model_swap_s=to_s(run.model_swap_ps),
            num_requests=num_requests,
            output_tokens=output_tokens,
            per_request=(
                tuple(completions.rows(self.slo_targets))
                if self.per_request_detail
                else ()
            ),
            **request_aggregates(
                completions, self.slo_targets, self.model.name, self.multi_model
            ),
        )
