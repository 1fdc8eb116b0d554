"""The serving run: one discrete-event loop over columnar request state.

:meth:`ServingSimulator.begin <repro.serving.simulator.ServingSimulator.begin>`
returns an :class:`ArraySimulationRun`, the one run class behind the
one-shot ``simulate``, the streaming ``simulate_stream`` and every replica
of the cluster layer.  The run owns all mutable state: the queues, the
clock and counters, the KV ledger, the event log and the completion
record.  The simulator it was created from supplies the immutable
configuration and the scheduling rules, each written once in
:mod:`repro.serving.simulator`.

**Columnar request state.**  Requests live as parallel columns
(arrival / prompt / output / prefilled / generated / ...) indexed by a
*row*; the queues hold row indices.  Rows are recycled through a free
list on completion, so resident state is O(outstanding requests) — a
streamed million-request day never materializes, and no per-request
Python object survives its own lifetime.

**One per-iteration loop.**  ``advance_until`` admits at pass boundaries
and runs one ``_step`` per device iteration: a prefill chunk, a fused
decode batch, or both.  The loop makes no decision of its own: the
policy's admission gate and order, prefill pick and decode batch (over
:class:`~repro.serving.simulator.RequestKeys` readers of the row
columns), the preemption victim, the fused-pass price and the host-link
transfer time are the simulator module's functions.  Only the
state-bound bodies — admit, grow, preempt, swap and step over rows — are
written here.  ``engine="object"`` runs this loop alone, pass by pass:
it is the per-iteration reference every differential compares against,
and the path a :class:`~repro.serving.simulator.ServingPolicy` subclass
outside the registry takes under either engine value.

**Fast paths.**  With ``engine="array"`` and a registered policy, the
run's constructor turns on four fast paths, which rely on the registered
policies' batching contract (:class:`~repro.serving.simulator.
ServingPolicy`): its concurrency cap ``max_batch`` and whether it serves
in queue order (``arrival_order``).  They are the decode runs, the
arrival absorber, the burst runner and ``_step``'s monolithic-prefill
shortcut, described below.  Simulated time and energy are integers, so
each reports the numbers stepping reports, exactly.  The bulk offer path
and ``_step``'s prefill-only branch depend on no contract and run in both
modes.

**Dense decode-cost tables.**  All decode pricing goes through a
:class:`~repro.serving.decode_table.DecodeCostTable`, one per co-hosted
model, built once per (backend, model, anchor grid, KV range) and process
and shared through the decode-table cache: a run holds the resident
model's table by reference and converts nothing.  Its per-iteration loop
reads Python ints out of the table's column and prefix-sum tuples, and
its decode runs and arrival absorber read the same integers out of the
table's read-only int64 matrices, without touching the cost model.
Table entries are bit-identical to ``cost_tuple(provider.decode(...))``,
and every total is an integer sum.

**Decode runs.**  When every active request is decoding, the batch
membership is provably stable until the next completion (admission caps
``len(active)`` at the policy's concurrency gate, so every policy's batch
is the whole active set, in an order that holds while each member gains
one token per iteration).  ``_decode_run``, the one all-decode stepper,
then advances the batch *k* iterations in one call, stopping exactly
where the per-iteration loop would have changed behavior: the next
completion, the next arrival that could be admitted, the ``until``
horizon, the table edge, or a KV grant that no longer fits (which falls
back to one per-iteration step, so a preemption or swap-out runs the
reference path).  It prices a run one of two ways, which give the same
integers:

- from the table's prefix sums in O(B) (O(B log k) to find a budget
  stop, :func:`_bulk_stop`) wherever no iteration's floor can bind — a
  lone member, or a floor-free table
  (:attr:`~repro.serving.decode_table.DecodeCostTable.floor_free`) — and
  no event log needs the iterations' latencies;
- per iteration otherwise (:func:`_price_run`: numpy int64 over the
  table's columns, with one ``cumsum`` for all six totals).

It serves shared prefixes, the swap tier, co-hosted models (the resident
model's rows), batches with a member stalled on a page no victim can
free, the burst runner's decodes and every run with an event log.  With
``record_events=True`` each run records one ``decode_run`` event and
takes one events-only stop, before each page grant under optimistic
admission (see ``_decode_run``).
:func:`~repro.serving.validate.expand_runs` turns that log into the
per-iteration one, **bit-identical** to the reference's (the
differential suite asserts exact equality).

**Arrival absorption and bursts.**  While the device idles between
arrivals, the absorber, ``_absorb_window``, serves whole stretches of
isolated requests (and, under concurrency-1 arrival-order policies,
queued ones) in closed form: it prices a columnar window of pending
arrivals at once, and every per-request time and running total it books
is the integer the per-arrival path would book.  An overlapping clump
goes to the burst runner, ``_run_burst``, which specializes only
admission (due arrivals go straight from ``pending`` to ``active`` with
worst-case grants); it prefills and decodes through the per-iteration
loop's own ``_step`` and ``_decode_run``.  Both are entered through
``_absorb_arrivals``; a run whose ``_absorb_arrivals`` returns ``False``
(tests monkeypatch it) takes the per-arrival reference path.

**One completion record.**  Every completion, whichever path served it,
is appended to the run's
:class:`~repro.serving.request.CompletionRecord`, and the simulator
reduces the run's request-level metrics from it; ``per_request_detail``
only decides whether its rows come back as well.

**One KV ledger.**  Every run books its pages in the simulator's
:class:`~repro.serving.kv_memory.KvPageAccountant` (``self.kv``), a
reference-counting ledger whose running counters make every pool read
O(1), so the per-iteration loop, decode runs and the burst runner all
reserve, grow and release through it.  The absorbers complete requests
without ever holding their pages and only roll its
``peak_reserved_pages`` high-water mark.  Once a run offers a
shared-prefix request (``prefix_id >= 0``), or when it has the host-DRAM
swap tier, the absorbers and the burst runner stand down — their closed
forms assume private pages that never leave the device — and the
per-iteration loop runs with the decode runs, which read each member's
held pages, shared ones included, from the ledger.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from itertools import islice

import numpy as np

from repro.serving.decode_table import check_int64
from repro.serving.request import CompletionRecord, Request, to_ps
from repro.serving.simulator import (
    POLICIES,
    RequestKeys,
    ServingMetrics,
    ServingStall,
    _arrival_key,
    _check_fits_alone,
    _pool_exhausted,
    choose_victim,
    cost_tuple,
    floor_ticks,
    fused_pass,
    shared_floor,
)
from repro.serving.validate import SimEvent

__all__ = ["ArraySimulationRun"]


#: The floor of a lone member's pass: it shares nothing.
_NO_FLOOR = (0, 0, 0, 0)


def _bulk_stop(
    table, offsets: "list[int]", steps: int, floor: int, budget: int
) -> int:
    """The iterations a run whose floor never binds takes before its
    elapsed time first reaches ``budget``, at most ``steps`` and at least
    one: by bisection over the members' prefix-sum differences less
    ``floor`` per iteration, in O(B log steps)."""
    prefix_lat = table.prefix_latency
    begun = elapsed = 0
    for offset in offsets:
        begun += prefix_lat[offset]
        elapsed += prefix_lat[offset + steps]
    if elapsed - begun - steps * floor < budget:
        return steps
    low, high = 0, steps
    while high - low > 1:
        mid = (low + high) // 2
        elapsed = -begun - mid * floor
        for offset in offsets:
            elapsed += prefix_lat[offset + mid]
        if elapsed < budget:
            low = mid
        else:
            high = mid
    return high


def _price_run(
    table,
    offsets: "list[int]",
    steps: int,
    floor: tuple,
    totals: tuple,
    threshold: "int | None",
) -> "tuple[int, list, list]":
    """Price up to ``steps`` fused decode iterations of two or more
    members at table ``offsets``, each as :func:`fused_pass` prices it,
    and advance the four running ``totals`` (clock, busy time, energy,
    FLOPs) by them.

    Returns ``(steps, totals, latencies)`` as Python ints: the run stops
    after the first iteration whose clock reaches ``threshold`` (``None``:
    no budget).  Numpy int64 over slices of the table's ``columns``: the
    members' sum, ``max(sum - floor, member max)`` for latency and the
    energies (``floor`` is :func:`shared_floor` of the batch), the plain
    sum for FLOPs, then one ``cumsum`` advances all four totals and the
    budget stop searches the clock sequence.  The table must be
    nonnegative, so every partial sum lies between zero and the totals
    plus the members' unfloored costs over the run; that bound, taken in
    Python ints from the prefix sums, must fit int64, or ``OverflowError``
    is raised before numpy could wrap.
    """
    latency, energy, flops = [
        sum([prefix[offset + steps] - prefix[offset] for offset in offsets])
        for prefix in (table.prefix_latency, table.prefix_energy, table.prefix_flops)
    ]
    check_int64(
        max(
            abs(total) + cost
            for total, cost in zip(totals, (latency, latency, energy, flops))
        ),
        "a decode run's totals",
    )
    # Each member's rows, one per iteration, as a view of the table.
    columns = table.columns
    first, *rest = [columns[offset:offset + steps] for offset in offsets]
    total = first.copy()
    top = first[:, :4]
    for member in rest:
        total += member
        top = np.maximum(top, member[:, :4])
    fused = np.maximum(total[:, :4] - floor, top)
    # Row 0 holds the totals so far and row j the costs of iteration j, in
    # the totals' order: latency twice (clock, busy), energy, FLOPs.
    priced = np.empty((steps + 1, 4), dtype=np.int64)
    priced[0] = totals
    priced[1:, 0] = priced[1:, 1] = fused[:, 0]
    priced[1:, 2] = fused[:, 1:].sum(axis=1)
    priced[1:, 3] = total[:, 4]
    running = priced.cumsum(axis=0)
    if threshold is not None:
        crossing = int(np.searchsorted(running[:, 0], threshold))
        if crossing < steps:
            steps = max(crossing, 1)
    return steps, running[steps].tolist(), priced[1:steps + 1, 0].tolist()


class ArraySimulationRun:
    """One in-progress simulation over a
    :class:`~repro.serving.simulator.ServingSimulator`.

    Created by :meth:`ServingSimulator.begin
    <repro.serving.simulator.ServingSimulator.begin>`.  The one-shot
    ``simulate`` offers the whole (sorted) trace and drains; the cluster
    layer instead drives one run per replica — it advances every replica
    to a request's arrival instant (:meth:`advance_until`), reads the
    replicas' router-visible state, and :meth:`offer`\\ s the request to the
    chosen one.  Offering a trace incrementally at its arrival instants
    produces the *same* event log and metrics as the one-shot path,
    because the scheduler only acts at pass boundaries in both cases.

    The clock, busy time and weight-swap time are picoseconds, the three
    energy totals picojoules and FLOPs a count, all Python ints.
    """

    def __init__(
        self,
        sim,
        record_events: bool = False,
        kv_bounds: "tuple[int, int] | None" = None,
    ) -> None:
        self.sim = sim
        self.kv = sim._new_accountant()
        self.events: "list[SimEvent] | None" = [] if record_events else None
        #: The KV bounds every decode of this run is priced over (see
        #: :meth:`PassCostProvider.decode`); ``None`` prices exactly.
        self.kv_bounds = None if sim.exact else kv_bounds
        #: Model whose weights are resident on the device right now.
        self.resident_model = sim.model.name
        self._provider = sim.provider
        self.model_swaps = 0
        self.model_swap_ps = 0
        self.clock = 0
        self.busy = 0
        self.energy_pj = 0
        self.flops = 0
        self.prefill_passes = 0
        self.decode_passes = 0
        self.decode_tokens = 0
        self.admissions = 0
        self.peak_active = 0
        self.preemptions = 0
        self.recomputed_tokens = 0
        self.swap_outs = 0
        self.swap_ins = 0
        self.swapped_pages_total = 0
        self.offered = 0
        self.first_arrival: "int | None" = None
        self.finished = False
        #: Set by :meth:`fail` — a dead replica takes no work until recovery.
        self.dead = False
        self._last_until: "float | None" = None
        #: Wall time per simulator phase, booked by the phase profiler
        #: when ``sim.profile`` (see :meth:`ServingSimulator.begin`).
        self.phase_s: dict[str, float] = {}
        #: Every request completed here, the one source of the run's
        #: request-level metrics (and of its per-request rows).
        self.completions = CompletionRecord()
        #: Fast-path gate: with the swap tier (or once a shared-prefix
        #: request is offered) the absorbers and bursts stand down and
        #: only the per-iteration loop and the decode runs run (see the
        #: module docstring).
        self._exact_kv = bool(sim.swap)

        # The resident model's decode-cost table, the provider's shared
        # one, held by reference; ``None`` when the run prices exactly
        # (exact mode or unknown KV bounds), in which case every decode is
        # priced through the provider (correct, per-iteration only).
        bounds = self.kv_bounds
        table = None if bounds is None else sim.provider.decode_table(*bounds)
        self._table = table

        # Request columns, indexed by row (arrival and first token in
        # picoseconds).  Rows recycle via _free; ``_req`` keeps each row's
        # request as offered, for failover.
        self._req: list = []
        self._arr: list = []
        self._inp: list = []
        self._out: list = []
        self._cls: list = []
        self._rid: list = []
        self._prefilled: list = []
        self._generated: list = []
        self._first: list = []
        self._pfx: list = []
        self._pft: list = []
        self._mdl: list = []
        self._free: list = []
        # Typed shadows of the immutable-per-row columns (arrival, prompt,
        # output, request id, class).  They expose the buffer protocol, so
        # the arrival absorber reads a whole pending window, and records
        # the requests it completes, through one zero-copy
        # ``np.frombuffer`` + fancy index instead of a Python loop.
        self._arr_t = array("q")
        self._inp_t = array("q")
        self._out_t = array("q")
        self._rid_t = array("q")
        self._cls_t = array("q")

        self.pending: "deque[int]" = deque()
        # A deque, not a list: under backlog (the regime megatrace
        # targets) arrival-order admission pops the head of a queue that
        # can hold most of the trace, and list.pop(0) there is O(n) per
        # admission — quadratic overall.
        self.waiting: "deque[int]" = deque()
        self.active: "list[int]" = []
        #: Swapped-out rows, oldest first; their private KV pages live in
        #: host DRAM and their progress survives until swap-in.
        self.swapped: "list[int]" = []
        #: Active rows still prefilling (generated == 0), maintained
        #: incrementally so the decode-run eligibility test is O(1).
        self._num_prefilling = 0
        self._outstanding = 0

        # Every decision the per-iteration loop makes is the policy's own,
        # over these readers of the row columns.
        self._policy = sim.policy
        self._policy_cap = sim.policy.max_batch
        self._arrival_order = sim.policy.arrival_order
        inp, out, cls = self._inp, self._out, self._cls
        prefilled, generated = self._prefilled, self._generated
        arr, rid = self._arr, self._rid
        self._keys = RequestKeys(
            queued_total=lambda row: inp[row] + out[row],
            queued_class=cls.__getitem__,
            live_remaining=lambda row: (inp[row] - prefilled[row])
            + (out[row] - generated[row]),
            live_class=cls.__getitem__,
            live_progress=lambda row: (
                generated[row], prefilled[row], arr[row], rid[row]
            ),
        )
        self._page_tokens = self.kv.page_tokens
        self._is_decoder = sim.model.is_decoder
        self._optimistic = sim.admission == "optimistic"
        self._batch_share = sim.batch_share
        # The fast paths rely on the registered policies' batching
        # contract; ``engine="object"``, and any other policy, runs the
        # per-iteration loop alone.  Every gate below is fixed for the
        # lifetime of the run.
        fast = sim.engine == "array" and type(sim.policy) in POLICIES.values()
        #: Whether all-decode stretches run as decode runs.
        self._decode_runs = fast
        # True when _step may take the monolithic-prefill shortcut.
        self._mono_fast = (
            fast
            and sim.chunk_tokens == 0
            and self.events is None
            and self._arrival_order
            and not sim.multi_model
        )
        # Multi-model residency: the per-iteration loop and decode runs
        # restrict each pass to the resident model's rows, and a weight
        # swap is paid when the active model changes (sticky-resident
        # scheduling).  Every co-hosted model's shared decode table is
        # looked up once, up front (none when the run prices exactly); a
        # model's table (and its provider's chunk costs) swap in with its
        # weights.  The absorbers stand down on multi-model runs; the
        # decode runs price from whichever table is resident.
        self._multi = sim.multi_model
        if self._multi:
            #: Each hosted model's decode table (or ``None``).
            self._tables = {sim.model.name: table}
            for name, provider in sim.providers.items():
                if name not in self._tables:
                    self._tables[name] = (
                        None if bounds is None else provider.decode_table(*bounds)
                    )
        # _absorb_ok: whole idle-device arrival windows may be served in
        # closed form.  Requires monolithic prefill, no event log and a
        # nonnegative table; a table is only needed for decode runs, so
        # table-less runs (e.g. summarization, where every request decodes
        # zero tokens past the prefill) still qualify — coverage masking
        # excludes any request the table cannot price.
        self._absorb_ok = (
            fast
            and self.events is None
            and sim.chunk_tokens == 0
            and not self._exact_kv
            and not sim.multi_model
            and (table is None or table.nonnegative)
        )
        # _fcfs_absorb: concurrency-1 arrival-order service is a Lindley
        # recursion — queued arrivals absorb too, no isolation test.
        self._fcfs_absorb = (
            self._absorb_ok and self._arrival_order and self._policy_cap == 1
        )
        # _burst_ok: clumps of overlapping arrivals run through the
        # burst runner (its own admission loop, then the generic loop's
        # steps), valid under arrival-order admission with worst-case KV
        # grants and a table.
        self._burst_ok = (
            self._absorb_ok
            and table is not None
            and self._arrival_order
            and not self._optimistic
            and self._policy_cap > 1
        )

    # ------------------------------------------------------------------
    # Lifecycle guards and the end of a run
    # ------------------------------------------------------------------
    def _check_live(self, action: str) -> None:
        """Refuse new work on a finished run or a failed replica."""
        if self.finished:
            raise ValueError(f"cannot {action} a finished run")
        if self.dead:
            raise ValueError(f"cannot {action} a failed replica")

    def _check_advance(self, until: "float | None") -> "int | None":
        """The :meth:`advance_until` guards: the run is not finished and
        the target is a number that does not move backwards.  Returns the
        target in picoseconds (``None`` for no target).

        Simulated time only advances, so a caller handing a smaller
        ``until`` than its previous one holds a stale clock and gets a
        ``ValueError`` rather than a silent no-op.  A NaN target compares
        false both ways, so no clock could be said to reach it.
        """
        if self.finished:
            raise ValueError("cannot advance a finished run")
        if until is not None:
            if until != until:
                raise ValueError("advance_until target must be a number, got nan")
            if self._last_until is not None and until < self._last_until:
                raise ValueError(
                    f"advance_until moved backwards: target {until:.6f}s is "
                    f"before the previous target {self._last_until:.6f}s"
                )
            self._last_until = until
            return to_ps(until)
        return None

    def finish(self) -> ServingMetrics:
        """Drain all remaining work and return the run's metrics."""
        if self.finished:
            raise ValueError("finish() called twice on the same run")
        self.advance_until(None)
        self.finished = True
        makespan = (
            self.clock - self.first_arrival if self.first_arrival is not None else 0
        )
        return self._finalize(makespan)

    def _finalize(self, makespan: int) -> ServingMetrics:
        return self.sim._finalize(self, makespan)

    def _emit(
        self,
        kind: str,
        latency: int = 0,
        request_id: "int | None" = None,
        tokens: int = 0,
        decode_ids: tuple = (),
        model: str = "",
        latencies: tuple = (),
    ) -> None:
        if self.events is not None:
            self.events.append(
                SimEvent(
                    kind=kind,
                    clock=self.clock,
                    latency=latency,
                    request_id=request_id,
                    tokens=tokens,
                    decode_ids=decode_ids,
                    active=len(self.active),
                    kv_reserved_pages=self.kv.reserved_pages,
                    kv_total_pages=self.kv.total_pages,
                    model=model,
                    latencies=latencies,
                )
            )

    def _check_livelock(self) -> None:
        """Raise when preemptions or swap-outs outrun the offers 50 to 1."""
        bound = 50 * max(self.offered, 1)
        if self.preemptions > bound:  # pragma: no cover
            raise ServingStall(
                f"preemption livelock: {self.preemptions} preemptions over "
                f"{self.offered} offered request(s)"
            )
        if self.swap_outs > bound:  # pragma: no cover
            raise ServingStall(
                f"swap livelock: {self.swap_outs} swap-outs over "
                f"{self.offered} offered request(s)"
            )

    # ------------------------------------------------------------------
    # Failure injection and failover (driven by the cluster layer)
    # ------------------------------------------------------------------
    def fail(self, now: float) -> "tuple[list[Request], int]":
        """Kill this replica at instant ``now`` (seconds).

        Every KV page is dropped (the cache dies with the device) and every
        request routed here but not yet completed is returned — in
        ``(arrival, id)`` order — for the cluster to fail over to
        survivors, which recompute them from scratch.  Failure lands at
        pass granularity: the caller advances the run to ``now`` first, so
        passes that started before the instant stand (their completions are
        safe) and everything else is lost.  Returns ``(lost, pages)`` where
        ``pages`` is the KV page count dropped.
        """
        if self.finished:
            raise ValueError("cannot fail a finished run")
        if self.dead:
            raise ValueError("replica is already dead")
        rid = self._rid
        dropped_ids = tuple(sorted(rid[row] for row in (*self.active, *self.swapped)))
        lost = self._clear_queues()
        lost.sort(key=_arrival_key)
        pages = self.kv.release_all()
        self.clock = max(self.clock, to_ps(now))
        self.dead = True
        self._emit("fail", tokens=pages, decode_ids=dropped_ids)
        return lost, pages

    def recover(self, now: float) -> None:
        """Bring a failed replica back at instant ``now`` (seconds), empty:
        its KV cache did not survive."""
        if self.finished:
            raise ValueError("cannot recover a finished run")
        if not self.dead:
            raise ValueError("cannot recover a replica that is not dead")
        self.dead = False
        self.clock = max(self.clock, to_ps(now))
        self._emit("recover")

    def resubmit(self, request: Request) -> None:
        """Re-inject a failed-over request for recompute from scratch.

        Unlike :meth:`offer`, arrival order against the pending queue is
        not enforced: the request's original arrival may predate requests
        this replica has already seen.  It keeps that original arrival, so
        its latency keeps accruing across the failure — failover does not
        reset the clock.
        """
        self._check_live("resubmit a request to")
        self._requeue(self._entry(request))
        self.offered += 1
        arrival = to_ps(request.arrival_s)
        if self.first_arrival is None or arrival < self.first_arrival:
            self.first_arrival = arrival

    def catch_up(self, now: float) -> None:
        """Jump an idle replica's clock forward to ``now`` (seconds).

        Failover resubmits bypass the pending queue (and with it the idle
        jump in ``advance_until``), so the cluster calls this first —
        otherwise an idle survivor would start recomputing a victim's work
        *before* the failure instant.
        """
        now = to_ps(now)
        if (
            now > self.clock
            and not self.active
            and not self.waiting
            and not self.swapped
        ):
            self.clock = now
            self._emit("idle")

    def note_scale(self, delta: int) -> None:
        """Record an autoscaling decision (+1 spawn, -1 drain) in the log."""
        self._emit("scale", tokens=delta)

    # ------------------------------------------------------------------
    def _base_cost(self) -> tuple:
        """The resident model's decode floor ``c(1)`` as :func:`floor_ticks`."""
        table = self._table
        if table is not None:
            return table.base
        return floor_ticks(self._provider.base())

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------
    def _entry(self, request: Request) -> int:
        """A row for a request routed here (offered or resubmitted)."""
        if request.prefix_id >= 0:
            self._exact_kv = True
        self._outstanding += request.input_tokens + request.output_tokens
        arrival = to_ps(request.arrival_s)
        if self._free:
            row = self._free.pop()
            self._req[row] = request
            self._arr[row] = arrival
            self._inp[row] = request.input_tokens
            self._out[row] = request.output_tokens
            self._arr_t[row] = arrival
            self._inp_t[row] = request.input_tokens
            self._out_t[row] = request.output_tokens
            self._rid_t[row] = request.request_id
            self._cls_t[row] = request.priority_class
            self._cls[row] = request.priority_class
            self._rid[row] = request.request_id
            self._prefilled[row] = 0
            self._generated[row] = 0
            self._first[row] = 0
            self._pfx[row] = request.prefix_id
            self._pft[row] = request.prefix_tokens
            self._mdl[row] = request.model
            return row
        row = len(self._arr)
        self._req.append(request)
        self._arr.append(arrival)
        self._inp.append(request.input_tokens)
        self._out.append(request.output_tokens)
        self._arr_t.append(arrival)
        self._inp_t.append(request.input_tokens)
        self._out_t.append(request.output_tokens)
        self._rid_t.append(request.request_id)
        self._cls_t.append(request.priority_class)
        self._cls.append(request.priority_class)
        self._rid.append(request.request_id)
        self._prefilled.append(0)
        self._generated.append(0)
        self._first.append(0)
        self._pfx.append(request.prefix_id)
        self._pft.append(request.prefix_tokens)
        self._mdl.append(request.model)
        return row

    # ------------------------------------------------------------------
    # Offers and router-visible state
    # ------------------------------------------------------------------
    def offer(self, request: Request) -> None:
        """Inject one request; offers must come in ``(arrival, id)`` order."""
        self._check_live("offer a request to")
        self.sim._check_servable(request)
        pending = self.pending
        if pending and _arrival_key(request) < (
            self._arr[pending[-1]], self._rid[pending[-1]]
        ):
            raise ValueError(
                "requests must be offered in (arrival_s, request_id) order"
            )
        pending.append(self._entry(request))
        self.offered += 1
        if self.first_arrival is None:
            self.first_arrival = to_ps(request.arrival_s)

    def offer_many(self, requests) -> None:
        """Bulk :meth:`offer`: the liveness guard runs once per batch, the
        ordering and servability checks once per request, and every row is
        appended through :meth:`_entry` (large fresh batches through
        :meth:`_offer_bulk`)."""
        if not requests:
            return
        self._check_live("offer a request to")
        if (
            isinstance(requests, (list, tuple))
            and len(requests) >= 512
            and not self._free
        ):
            self._offer_bulk(requests)
            return
        pending = self.pending
        push = pending.append
        entry = self._entry
        is_decoder = self._is_decoder
        check_servable = self.sim._check_servable
        last_key = (
            (self._arr[pending[-1]], self._rid[pending[-1]]) if pending else None
        )
        for request in requests:
            if request.model or (request.output_tokens > 1 and not is_decoder):
                check_servable(request)
            key = (to_ps(request.arrival_s), request.request_id)
            if last_key is not None and key < last_key:
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
            last_key = key
            push(entry(request))
            self.offered += 1
            if self.first_arrival is None:
                self.first_arrival = key[0]

    def _offer_bulk(self, requests) -> None:
        """Columnar append for large sorted batches: one list comprehension
        per column plus a vectorized ordering check, instead of a Python
        branch-and-append chain per request.  Only entered when the free
        list is empty, so every new row lands at the tail and the typed
        shadows can be extended wholesale."""
        arrs = [to_ps(r.arrival_s) for r in requests]
        rids = [r.request_id for r in requests]
        np_arr = np.array(arrs, dtype=np.int64)
        diffs = np.diff(np_arr)
        if len(requests) > 1 and not np.all(diffs >= 0):
            raise ValueError(
                "requests must be offered in (arrival_s, request_id) order"
            )
        ties = np.nonzero(diffs == 0)[0] if len(requests) > 1 else ()
        for i in ties:
            if rids[i + 1] < rids[i]:
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
        pending = self.pending
        if pending:
            last = pending[-1]
            if (arrs[0], rids[0]) < (self._arr[last], self._rid[last]):
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
        outs = [r.output_tokens for r in requests]
        mdls = [r.model for r in requests]
        if any(mdls) or (max(outs) > 1 and not self._is_decoder):
            for r in requests:
                self.sim._check_servable(r)
        inps = [r.input_tokens for r in requests]
        pfxs = [r.prefix_id for r in requests]
        if max(pfxs) >= 0:
            self._exact_kv = True
        n = len(requests)
        row0 = len(self._arr)
        clss = [r.priority_class for r in requests]
        self._req += requests
        self._arr += arrs
        self._inp += inps
        self._out += outs
        self._cls += clss
        self._rid += rids
        self._prefilled += [0] * n
        self._generated += [0] * n
        self._first += [0] * n
        self._pfx += pfxs
        self._pft += [r.prefix_tokens for r in requests]
        self._mdl += mdls
        self._arr_t.frombytes(np_arr.tobytes())
        np_inp = np.array(inps, dtype=np.int64)
        np_out = np.array(outs, dtype=np.int64)
        self._inp_t.frombytes(np_inp.tobytes())
        self._out_t.frombytes(np_out.tobytes())
        self._rid_t.fromlist(rids)
        self._cls_t.fromlist(clss)
        pending.extend(range(row0, row0 + n))
        self.offered += n
        self._outstanding += int(np_inp.sum() + np_out.sum())
        if self.first_arrival is None:
            self.first_arrival = arrs[0]

    @property
    def outstanding_requests(self) -> int:
        """Requests routed here and not yet completed."""
        return (
            len(self.pending)
            + len(self.waiting)
            + len(self.active)
            + len(self.swapped)
        )

    @property
    def outstanding_tokens(self) -> int:
        """Prompt + output tokens not yet computed across live requests,
        maintained incrementally (offer/chunk/decode/preempt/fail), so a
        router reads it in O(1)."""
        return self._outstanding

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def _decode_cost(self, kv: int) -> tuple:
        """``cost_tuple(provider.decode(kv, bounds))``, off the table where
        it covers ``kv``."""
        table = self._table
        if table is not None and table.kv_lo <= kv <= table.kv_hi:
            index = kv - table.kv_lo
            return (
                table.latency[index],
                table.energy_memory[index],
                table.energy_pim[index],
                table.energy_npu[index],
                table.flops[index],
            )
        return cost_tuple(self._provider.decode(kv, self.kv_bounds))

    # ------------------------------------------------------------------
    # The discrete-event loop
    # ------------------------------------------------------------------
    def advance_until(self, until: "float | None") -> None:
        """Run every pass *starting* before ``until`` seconds (all work if
        ``None``).

        A pass that starts before ``until`` may end after it — exactly as
        in the one-shot loop, where arrivals during a pass wait for the
        next pass boundary.  Idle clock jumps stop at the last arrival
        ``<= until``, so the run never invents knowledge of the future.
        Targets must not move backwards (see :meth:`_check_advance`).
        """
        until = self._check_advance(until)
        arr = self._arr
        waiting = self.waiting
        active = self.active
        swapped = self.swapped
        pending = self.pending
        admit = self._policy.admit
        # An offer since the last advance may have brought the run's first
        # shared-prefix request; the absorbers stand down from then on.
        absorb_ok = self._absorb_ok and not self._exact_kv
        decode_runs = self._decode_runs
        while True:
            while pending and arr[pending[0]] <= self.clock:
                waiting.append(pending.popleft())
            if not waiting and not active and not swapped:
                # Idle device, future arrivals only: the underload fast
                # path serves whole arrival windows in closed form and
                # falls back here the moment a window element needs the
                # exact per-arrival machinery.
                if absorb_ok and pending and self._absorb_arrivals(until):
                    continue
                if pending and (until is None or arr[pending[0]] <= until):
                    self.clock = arr[pending[0]]
                    self._emit("idle")
                    continue
                return
            if until is not None and self.clock >= until:
                return
            # _admit's own loop condition, checked inline: with a full
            # batch or an empty (waiting + swapped) queue the call would
            # be a no-op, and this loop runs once per pass.
            if (waiting or swapped) and admit(len(active)):
                self._admit()
            if not active:
                raise RuntimeError(
                    f"policy {self.sim.policy.name!r} left the device idle with "
                    f"{len(self.waiting)} admissible request(s) waiting"
                )  # pragma: no cover - defensive, no shipped policy does this
            if decode_runs and self._decode_run(until):
                continue
            self._step()

    # ------------------------------------------------------------------
    # Admission, swap-in and requeueing
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        # Admission is instantaneous: commit KV pages and make the
        # request scheduler-visible.  Both gates must agree — the
        # policy's concurrency cap and the page pool.  Swapped-out
        # requests come back first (they hold completed work a recompute
        # would repay), then new admissions in the policy's order.
        self._swap_in_ready()
        self._admit_waiting()
        # The device may be idle with the pool pinned: every active slot
        # empty, yet swapped requests cannot return because resident
        # shared-prefix pages (theirs or their peers') crowd the pool.
        # Sacrifice the youngest swapped request for recompute until the
        # oldest fits again — each round shrinks the swap set, and a lone
        # swapped request always fits (fits_alone held at admission).
        admit = self._policy.admit
        while not self.active and self.swapped and admit(len(self.active)):
            if self.kv.can_swap_in(self._rid[self.swapped[0]]):
                self._swap_in_head()
            else:
                self._preempt_swapped(len(self.swapped) - 1)
            self._admit_waiting()

    def _swap_in_ready(self) -> None:
        """Restore swapped-out rows, oldest first, while they fit."""
        admit = self._policy.admit
        while self.swapped and admit(len(self.active)):
            if not self.kv.can_swap_in(self._rid[self.swapped[0]]):
                break
            self._swap_in_head()

    def _requeue(self, row: int) -> None:
        """Re-insert a preempted or resubmitted row, keeping ``waiting``
        arrival-sorted."""
        arr, rid = self._arr, self._rid
        key = (arr[row], rid[row])
        index = bisect_left(self.waiting, key, key=lambda r: (arr[r], rid[r]))
        self.waiting.insert(index, row)

    def _admit_waiting(self) -> None:
        """Admit waiting rows while the policy and the pool allow, in the
        policy's order (shared-prefix requests charge only their unique
        new pages)."""
        kv = self.kv
        waiting, active = self.waiting, self.active
        optimistic = self._optimistic
        policy, keys = self._policy, self._keys
        while waiting and policy.admit(len(active)):
            index = policy.next_admission(waiting, active, keys)
            if index is None:
                break
            row = waiting[index]
            total = self._inp[row] + self._out[row]
            _check_fits_alone(kv, self._rid[row], total)
            commit_tokens = self._inp[row] if optimistic else total
            if not kv.can_reserve(commit_tokens, self._pfx[row], self._pft[row]):
                break
            pages = kv.reserve(
                self._rid[row], commit_tokens, self._pfx[row], self._pft[row]
            )
            if index == 0:
                waiting.popleft()
            else:
                del waiting[index]
            active.append(row)
            self._num_prefilling += 1
            self.admissions += 1
            if len(active) > self.peak_active:
                self.peak_active = len(active)
            if self.events is not None:
                self._emit("admit", request_id=self._rid[row], tokens=pages)

    def _swap_in_head(self) -> None:
        """Pay the link transfer and re-activate the oldest swapped row."""
        row = self.swapped.pop(0)
        request_id = self._rid[row]
        pages = self.kv.swap_in(request_id)
        latency = self.sim._link_ps(pages * self.kv.page_bytes)
        self.clock += latency
        self.busy += latency
        self.active.append(row)
        if self._generated[row] == 0:
            self._num_prefilling += 1
        self.swap_ins += 1
        self.swapped_pages_total += pages
        if len(self.active) > self.peak_active:
            self.peak_active = len(self.active)
        self._emit("swap_in", latency=latency, request_id=request_id, tokens=pages)

    def _swap_out(self, victim: int) -> None:
        """Move a victim row's private pages to host DRAM over the link
        (its prefill/decode progress survives; it resumes via swap-in)."""
        request_id = self._rid[victim]
        pages = self.kv.swap_out(request_id)
        self.active.remove(victim)
        if self._generated[victim] == 0:
            self._num_prefilling -= 1
        latency = self.sim._link_ps(pages * self.kv.page_bytes)
        self.clock += latency
        self.busy += latency
        self.swapped.append(victim)
        self.swap_outs += 1
        self.swapped_pages_total += pages
        self._check_livelock()
        self._emit(
            "swap_out", latency=latency, request_id=request_id, tokens=pages
        )

    def _preempt_swapped(self, index: int) -> None:
        """Preempt a swapped-out row: discard its host copy, recompute.

        The last-resort path when resident shared-prefix pages pin the
        pool — releasing the row drops its prefix reference, freeing the
        shared pages once the last member leaves.
        """
        self._recompute(self.swapped.pop(index))

    # ------------------------------------------------------------------
    # Multi-model residency (only reached when the simulator hosts a
    # model set)
    # ------------------------------------------------------------------
    def _sync_model(self) -> None:
        """Swap weights when no resident-model work is runnable.

        Sticky-resident scheduling: while *any* active row uses the
        resident model the iteration is restricted to that model and no
        swap is paid.  Only when the resident model has nothing runnable
        does the replica stream in the weights of the policy's preferred
        next request (prefill first, mirroring :meth:`_step`'s structure).
        """
        resident = self.resident_model
        mdl = self._mdl
        default = self.sim.model.name
        for row in self.active:
            if (mdl[row] or default) == resident:
                return
        generated = self._generated
        policy, keys = self._policy, self._keys
        prefilling = [row for row in self.active if generated[row] == 0]
        if prefilling:
            target = prefilling[policy.prefill_index(prefilling, keys)]
        else:
            decodable = [row for row in self.active if generated[row] > 0]
            batch = policy.decode_batch(decodable, keys)
            target = batch[0] if batch else decodable[0]
        self._swap_model(mdl[target] or default)

    def _swap_model(self, target: str) -> None:
        """Stream ``target``'s weights in over the host link (weight swap);
        its provider and decode table follow the weights."""
        sim = self.sim
        moved = sim._weight_bytes[target]
        latency = sim._link_ps(moved)
        self.clock += latency
        self.busy += latency
        self.resident_model = target
        self._provider = sim.providers[target]
        self._table = self._tables[target]
        self.model_swaps += 1
        self.model_swap_ps += latency
        self._emit("model_swap", latency=latency, tokens=moved, model=target)

    def _step(self) -> None:
        """One device iteration — the per-iteration (bit-exact) path."""
        generated = self._generated
        if self._num_prefilling and self._mono_fast:
            # Monolithic prefill with no piggyback batch under an
            # arrival-order policy: the head prefilling row runs alone and
            # the pass IS the carrier.  Pick it by direct scan and apply
            # it without the generic fused/emit machinery — at one such
            # pass per served request this is a first-order term of the
            # million-request budget.
            for row in self.active:
                if generated[row] == 0:
                    chunk = self._inp[row] - self._prefilled[row]
                    self._prefill_only_step(
                        row, chunk,
                        self._provider.prefill_chunk(self._prefilled[row], chunk),
                    )
                    return
        sim = self.sim
        if self._multi:
            # Sticky-resident scheduling: restrict the pass to the
            # resident model's rows, paying a weight swap first when the
            # resident model has nothing runnable.
            self._sync_model()
            resident = self.resident_model
            mdl = self._mdl
            default = sim.model.name
            eligible = [
                row
                for row in self.active
                if (mdl[row] or default) == resident
            ]
            prefilling = [row for row in eligible if generated[row] == 0]
            decodable = [row for row in eligible if generated[row] > 0]
        elif self._num_prefilling == 0:
            prefilling: list[int] = []
            decodable = self.active
        else:
            prefilling = [row for row in self.active if generated[row] == 0]
            decodable = [row for row in self.active if generated[row] > 0]
        policy, keys = self._policy, self._keys
        row: "int | None" = None
        carrier: "tuple | None" = None
        chunk = 0
        batch: list[int] = []
        if prefilling:
            row = prefilling[policy.prefill_index(prefilling, keys)]
            remaining = self._inp[row] - self._prefilled[row]
            chunk = (
                remaining
                if sim.chunk_tokens == 0
                else min(sim.chunk_tokens, remaining)
            )
            carrier = self._provider.prefill_chunk(self._prefilled[row], chunk)
            if sim.chunk_tokens and decodable:
                batch = policy.decode_batch(decodable, keys)
            elif sim.chunk_tokens == 0 and self.events is None:
                self._prefill_only_step(row, chunk, carrier)
                return
        else:
            batch = policy.decode_batch(decodable, keys)

        inp = self._inp
        if self._optimistic and batch:
            requested = batch
            batch = self._grow_batch(batch, row)
            if carrier is None and not batch:
                head = requested[0]
                raise _pool_exhausted(
                    self.kv, self._rid[head], inp[head] + generated[head]
                )

        costs = [self._decode_cost(inp[r] + generated[r]) for r in batch]
        latency, mem, pim, npu, pass_flops = fused_pass(
            carrier, costs, self._batch_share, self._base_cost
        )
        self.clock += latency
        self.busy += latency
        self.energy_pj += mem + pim + npu
        self.flops += pass_flops
        if carrier is not None:
            self.prefill_passes += 1
        if batch:
            self.decode_passes += 1
            self.decode_tokens += len(batch)
            self._outstanding -= len(batch)
        if self.events is not None:
            self._emit(
                "step",
                latency=latency,
                request_id=None if row is None else self._rid[row],
                tokens=chunk,
                decode_ids=tuple(self._rid[r] for r in batch),
            )

        finished: list[int] = []
        if row is not None:
            self._prefilled[row] += chunk
            self._outstanding -= chunk
            if self._prefilled[row] >= inp[row]:
                generated[row] = 1
                self._num_prefilling -= 1
                self._outstanding -= 1
                self._first[row] = self.clock
                if generated[row] >= self._out[row]:
                    finished.append(row)
        for r in batch:
            generated[r] += 1
            if generated[r] >= self._out[r]:
                finished.append(r)
        for r in finished:
            self.active.remove(r)
            self.kv.release(self._rid[r])
            self._record_completion(r)
            self._emit("complete", request_id=self._rid[r])

    def _prefill_only_step(self, row: int, chunk: int, carrier: tuple) -> None:
        """Apply one monolithic-prefill pass (no decode batch, no events).

        A monolithic chunk always covers the whole remaining prompt, so
        the pass both runs and completes the prefill.
        """
        clock = self.clock + carrier[0]
        self.clock = clock
        self.busy += carrier[0]
        self.energy_pj += carrier[1] + carrier[2] + carrier[3]
        self.flops += carrier[4]
        self.prefill_passes += 1
        self._prefilled[row] += chunk
        self._generated[row] = 1
        self._num_prefilling -= 1
        self._outstanding -= chunk + 1
        self._first[row] = clock
        if self._out[row] <= 1:
            self.active.remove(row)
            self.kv.release(self._rid[row])
            self._record_completion(row)

    # ------------------------------------------------------------------
    # All-decode stretches in bulk: the step bounds and the decode run
    # ------------------------------------------------------------------
    def _run_bounds(self, batch: "list[int]") -> "tuple[list[int], int]":
        """Each member's table offset, and the most decode iterations the
        batch can price from the table before its first completion.

        The count is below 1 when a member sits below the table or at its
        top edge; the caller then runs one per-iteration step.
        """
        table = self._table
        lo = table.kv_lo
        span = table.kv_hi - lo + 1
        inp, out, generated = self._inp, self._out, self._generated
        offsets = []
        append = offsets.append
        steps = span
        off_max = 0
        for row in batch:
            offset = inp[row] + generated[row] - lo
            if offset < 0:
                return offsets, 0
            append(offset)
            if offset > off_max:
                off_max = offset
            remaining = out[row] - generated[row]
            if remaining < steps:
                steps = remaining
        if steps > span - off_max:
            steps = span - off_max
        return offsets, steps

    def _fit_growth(
        self, batch: "list[int]", offsets: "list[int]", steps: int
    ) -> "tuple[int, list[int], list[int]]":
        """Cap ``steps`` at the largest k whose KV growth fits the free pool.

        Under optimistic admission, iteration j grants each member the
        pages of KV length ``kv + j - 1``.  Free pages only fall until the
        next completion, so while the whole growth fits, every grant of
        the per-iteration ``_grow_batch`` succeeds without a victim.
        Returns ``(k, kvs, held)``; k = 0 means the next grant needs a
        preemption, a swap-out or a stall, which the per-iteration path
        runs.  ``held`` counts a member's shared-prefix pages too: they
        back its KV but never grow.
        """
        kv = self.kv
        rid = self._rid
        lo = self._table.kv_lo
        page_tokens = self._page_tokens
        kvs = [offset + lo for offset in offsets]
        held = [
            kv.held_pages(rid[row]) + kv.shared_held_pages(rid[row])
            for row in batch
        ]
        free = kv.free_pages

        def growth(j: int) -> int:
            need = 0
            for kv_now, pages_held in zip(kvs, held):
                delta = -(-(kv_now + j - 1) // page_tokens) - pages_held
                if delta > 0:
                    need += delta
            return need

        if growth(steps) > free:
            low, high = 0, steps  # growth(low) fits, growth(high) doesn't
            while high - low > 1:
                mid = (low + high) // 2
                if growth(mid) > free:
                    high = mid
                else:
                    low = mid
            steps = low
        return steps, kvs, held

    def _grant_growth(
        self, batch: "list[int]", kvs: "list[int]", held: "list[int]", steps: int
    ) -> None:
        """Book the growth of ``steps`` iterations that :meth:`_fit_growth`
        proved fits; only members crossing a page boundary call in."""
        kv = self.kv
        rid = self._rid
        page_tokens = self._page_tokens
        for kv_now, pages_held, row in zip(kvs, held, batch):
            if -(-(kv_now + steps - 1) // page_tokens) > pages_held:
                kv.grow(rid[row], kv_now + steps - 1)

    def _decode_run(self, until: "int | None") -> bool:
        """Advance a stable all-decode batch to its next behavior boundary
        in one call: the one all-decode stepper.

        The batch is the policy's decode batch over the active rows (the
        resident model's, on a multi-model run), none of them prefilling,
        less the members the next grants leave stalled (:meth:`_granted`).
        Until the next boundary the per-iteration loop would decode that
        batch in the same order, admit nothing and grant every page
        without a victim, so the run decodes k iterations at once.  It
        stops where that loop would change behavior:

        - at the batch's first completion, or where a member reaches the
          table's top edge;
        - at the largest k whose KV growth fits the free pool;
        - after the first iteration that ends at or past ``until``;
        - after the first iteration that ends at or past the next pending
          arrival, while the admission gate is open and that arrival could
          be admitted: ``waiting`` is empty, or the policy does not serve
          in queue order.  Otherwise the blocked queue head stays blocked,
          because free pages only fall during a run.

        With an event log the run records one ``decode_run`` event (its
        batch, each iteration's latency and the end clock) and a
        ``complete`` event per finished member.  The batch and the active
        count the event reports hold at every iteration by the stops
        above; its reservation holds through one more stop, the only one
        that reads the log: under optimistic admission an iteration that
        grants a page runs alone, so a run stops before the next grant.

        Where no iteration's floor can bind (a lone member, or a
        floor-free table) and no event log needs the iterations'
        latencies, the run costs its members' prefix-sum differences less
        one floor per iteration, in O(B) (and :func:`_bulk_stop` finds a
        budget stop); otherwise :func:`_price_run` prices it per
        iteration, as ``fused_pass`` would.  Both give the integers
        stepping gives.  Returns ``False`` when not even one iteration can
        run here; the caller then runs one per-iteration step.
        """
        table = self._table
        if table is None or not table.nonnegative:
            return False
        active = self.active
        generated = self._generated
        if self._multi:
            resident = self.resident_model
            mdl = self._mdl
            default = self.sim.model.name
            decodable = [
                row for row in active if (mdl[row] or default) == resident
            ]
            # No resident row means a weight swap, and a prefilling one a
            # carrier pass: both belong to the per-iteration loop.
            if not decodable or not all(generated[row] for row in decodable):
                return False
            batch = self._policy.decode_batch(decodable, self._keys)
        elif self._num_prefilling:
            return False
        elif self._arrival_order:
            # Every active row decodes, so an arrival-order policy's batch
            # is all of them, in queue order (its batching contract).
            batch = active
        else:
            batch = self._policy.decode_batch(active, self._keys)
        optimistic = self._optimistic
        if optimistic:
            batch = self._granted(batch)
            if not batch:
                return False
        offsets, steps = self._run_bounds(batch)
        if steps < 1:
            return False
        threshold = until
        pending = self.pending
        if (
            pending
            and len(active) < self._policy_cap
            and (not self.waiting or not self._arrival_order)
        ):
            arrival = self._arr[pending[0]]
            if threshold is None or arrival < threshold:
                threshold = arrival
        size = len(batch)
        events = self.events
        bulk = size == 1 or (events is None and table.floor_free)
        if threshold is not None and not bulk:
            # Price no further than the threshold can reach, taking each
            # pass to cost at least its slowest member's first latency.
            # The guess only sizes the work: a run that stops short of
            # every boundary is exact too, and the next call carries on.
            lat = table.latency
            first = max([lat[offset] for offset in offsets])
            if first > 0:
                reach = (threshold - self.clock) // first + 2
                if reach < steps:
                    steps = max(1, reach)
        if optimistic:
            steps, kvs, held = self._fit_growth(batch, offsets, steps)
            if steps < 1:
                return False
            if events is not None:
                # Iteration j grants a member a page once its KV length
                # kv + j - 1 outgrows the pages it holds.
                page_tokens = self._page_tokens
                grant = min(
                    pages * page_tokens - kv_now + 2
                    for kv_now, pages in zip(kvs, held)
                )
                steps = 1 if grant <= 1 else min(steps, grant - 1)

        floor = (
            _NO_FLOOR
            if size == 1
            else shared_floor(self._batch_share * (size - 1), table.base)
        )
        if bulk:
            # No iteration costs more than every member's largest latency
            # less the floor, so a budget past that bound cannot bind.
            budget = None if threshold is None else threshold - self.clock
            if budget is not None and (
                steps * (size * table.latency_max - floor[0]) >= budget
            ):
                steps = _bulk_stop(table, offsets, steps, floor[0], budget)
            prefix_lat, prefix_energy = table.prefix_latency, table.prefix_energy
            prefix_flops = table.prefix_flops
            latency = -steps * floor[0]
            # No energy's floor binds either, so their sum is the
            # members' summed energy less the three floors.
            energy = -steps * (floor[1] + floor[2] + floor[3])
            flops = 0
            for offset in offsets:
                stop = offset + steps
                latency += prefix_lat[stop] - prefix_lat[offset]
                energy += prefix_energy[stop] - prefix_energy[offset]
                flops += prefix_flops[stop] - prefix_flops[offset]
            self.clock += latency
            self.busy += latency
            self.energy_pj += energy
            self.flops += flops
        else:
            steps, totals, latencies = _price_run(
                table,
                offsets,
                steps,
                floor,
                (self.clock, self.busy, self.energy_pj, self.flops),
                threshold,
            )
            self.clock, self.busy, self.energy_pj, self.flops = totals
        self.decode_passes += steps
        self.decode_tokens += steps * size
        self._outstanding -= steps * size

        if optimistic:
            self._grant_growth(batch, kvs, held, steps)
        rid = self._rid
        if events is not None:
            if bulk:
                # A lone member: its latencies are the table's, by reference.
                latencies = table.latency[offsets[0]:offsets[0] + steps]
            self._emit(
                "decode_run",
                decode_ids=tuple(rid[row] for row in batch),
                latencies=tuple(latencies),
            )
        out = self._out
        finished = []
        for row in batch:
            done = generated[row] + steps
            generated[row] = done
            if done >= out[row]:
                finished.append(row)
        if finished:
            kv = self.kv
            for row in finished:
                active.remove(row)
                kv.release(rid[row])
                self._record_completion(row)
                if events is not None:
                    self._emit("complete", request_id=rid[row])
        return True

    def _granted(self, batch: "list[int]") -> "list[int]":
        """The members the next ``_grow_batch`` grants, in batch order;
        ``[]`` when it would take a victim (or grant no one).

        A member whose next page does not fit stalls when no victim is
        left: every other active row was granted or stalled before it, and
        no swapped row can be preempted (or the run neither preempts nor
        swaps).  Free pages only fall until the next completion, so the
        member stays stalled, and a decode run decodes the others.
        """
        kv = self.kv
        rid, inp, generated = self._rid, self._inp, self._generated
        sim = self.sim
        victims = sim.swap or sim.preempt
        # Active rows outside the batch (other models' rows) are victims.
        outside = len(self.active) - len(batch)
        last = len(batch) - 1
        free = kv.free_pages
        granted = []
        for index, row in enumerate(batch):
            need = kv.grow_need(rid[row], inp[row] + generated[row])
            if need <= free:
                if need > 0:
                    free -= need
                granted.append(row)
            elif victims and (
                index < last or outside or (sim.swap and self.swapped)
            ):
                return []
        return granted

    # ------------------------------------------------------------------
    # Underload fast path: arrival-batched absorption
    # ------------------------------------------------------------------
    #: Pending arrivals priced per columnar window.  Large enough to
    #: amortize the numpy fixed costs, small enough that a window build
    #: stays cache-resident.
    _ABSORB_WINDOW = 4096

    def _absorb_arrivals(self, until: "int | None") -> bool:
        """Serve arrivals straight off the pending queue while the device
        is idle, without running the discrete-event loop per pass.

        Preconditions (established by the caller): ``waiting`` and
        ``active`` are empty and the pending head arrives strictly after
        ``self.clock``.  Returns True when any work was applied; either
        way the caller re-enters the generic loop, which handles whatever
        the absorber refused (KV-blocked, off-table, preempting, or
        past-``until`` requests) on the exact per-arrival path.
        """
        progressed = False
        while self.pending:
            did, keep = self._absorb_window(until)
            progressed = progressed or did
            if not keep:
                break
        return progressed

    def _absorb_window(self, until: "int | None") -> "tuple[bool, bool]":
        """Absorb one columnar window of pending arrivals.

        Prices every request's whole lifetime (monolithic prefill + full
        decode run) from the table prefix sums in one vectorized shot,
        then walks the window: stretches of *isolated* requests (each one
        completing before the next arrives) are served in closed form,
        overlapping clumps run through the burst runner, and under
        concurrency-1 arrival-order policies queued stretches absorb
        through the Lindley recursion.  A request starts at the later of
        its arrival and the clock, its first token adds the prefill to
        that start and its completion adds the decode run to the first
        token; a stretch adds its passes to busy time, the energies and
        FLOPs, and appends its completions to the record before the burst
        after it runs, so the record stays in completion order.  Every
        number is an integer, so each equals the per-arrival path's.  The
        window's int64 instants are bounded before numpy adds them, and
        the stretch totals are summed as Python ints.  Returns
        ``(progressed, keep_going)``; ``keep_going`` means the whole
        window was consumed and another window may follow.
        """
        pending = self.pending
        arr = self._arr
        # Scalar pre-check of the head request: when the head itself
        # cannot absorb (and the burst runner cannot take it either),
        # skip the columnar window build entirely, keeping the absorber
        # O(1) on paths that retry it once per idle gap.
        head = pending[0]
        i_tok = self._inp[head]
        o = self._out[head]
        page_tokens = self._page_tokens
        head_pages = -(-(i_tok + o) // page_tokens)
        head_ok = head_pages <= self.kv.total_pages
        dec = 0
        table = self._table
        if head_ok and o > 1:
            if table is None:
                head_ok = False
            else:
                beg = i_tok + 1 - table.kv_lo
                if beg < 0 or beg + o - 1 > table.kv_hi - table.kv_lo + 1:
                    head_ok = False
                else:
                    prefix_lat = table.prefix_latency
                    dec = prefix_lat[beg + o - 1] - prefix_lat[beg]
        prefill_cost = self._provider.prefill_chunk
        if head_ok:
            pre_head = prefill_cost(0, i_tok)
            # Under a queued (concurrency-1 arrival-order) policy the head
            # may arrive while the previous window's tail is still being
            # served: service starts at the clock, not the arrival.  On
            # isolated-stretch policies an earlier-than-clock head is an
            # overlapping clump — the burst runner's regime.
            start = arr[head]
            if start < self.clock:
                if self._fcfs_absorb:
                    start = self.clock
                else:
                    head_ok = False
            completion = start + pre_head[0] + dec
            if until is not None and completion > until:
                head_ok = False
            elif not self._fcfs_absorb and len(pending) > 1:
                if arr[pending[1]] < completion:
                    head_ok = False
        if not head_ok:
            if self._burst_ok:
                status = self._run_burst(until)
                if status == 0:
                    return False, False
                return True, status == 1 and bool(pending)
            return False, False

        count = len(pending)
        window = self._ABSORB_WINDOW
        take = count if count < window else window
        rows_list = list(islice(pending, take + 1))
        peek = rows_list[take] if len(rows_list) > take else -1
        del rows_list[take:]
        rows = np.array(rows_list, dtype=np.int64)
        a = np.frombuffer(self._arr_t, dtype=np.int64)[rows]
        inp = np.frombuffer(self._inp_t, dtype=np.int64)[rows]
        out = np.frombuffer(self._out_t, dtype=np.int64)[rows]
        total_pages = -((inp + out) // -page_tokens)
        eligible = total_pages <= self.kv.total_pages
        steps = out - 1
        single = steps == 0
        # Each request's decode run, one column per cost component
        # (latency, memory, PIM and NPU energy, FLOPs).
        if table is not None:
            prefix = table.prefix_matrix
            lo = table.kv_lo
            span = table.kv_hi - lo + 1
            beg_v = inp + 1 - lo
            run = ~single & (beg_v >= 0) & (beg_v + steps <= span)
            eligible &= single | run
            dec = (
                prefix[np.where(run, beg_v + steps, 0)]
                - prefix[np.where(run, beg_v, 0)]
            )
        else:
            eligible &= single
            dec = np.zeros((take, 5), dtype=np.int64)
        uniq, inverse = np.unique(inp, return_inverse=True)
        pre = np.array(
            [prefill_cost(0, tokens) for tokens in uniq.tolist()], dtype=np.int64
        )[inverse]
        if self._fcfs_absorb:
            # The Lindley recursion completion_i = max(arrival_i,
            # completion_{i-1}) + service_i up to the first request the
            # window refuses, seeded from the clock (completion_{-1}: the
            # previous window's tail may still be in service when this
            # window's head arrived).  In integers its closed form is
            # exact: completion_i = S_i + max(clock, max over j <= i of
            # arrival_j - S_{j-1}), with S the services' running sum.
            refused = np.flatnonzero(~eligible)
            served = int(refused[0]) if refused.size else take
            check_int64(
                max(self.clock, int(a.max()))
                + served * (int(pre[:, 0].max()) + int(dec[:, 0].max())),
                "an absorbed window's completions",
            )
            service = pre[:served, 0] + dec[:served, 0]
            spent = np.cumsum(service)
            latest = np.maximum.accumulate(a[:served] - (spent - service))
            # The clock, then every request's completion.  Completions
            # never decrease, so the ones past ``until`` are a suffix.
            completion = np.empty(served + 1, dtype=np.int64)
            completion[0] = self.clock
            completion[1:] = spent + np.maximum(latest, self.clock)
            if until is not None:
                served = int(np.searchsorted(completion[1:], until, "right"))
            eligible[served:] = False
            # Each request starts at the later of its arrival and the
            # previous completion; its first token is that start plus its
            # prefill.
            first = np.maximum(a[:served], completion[:served]) + pre[:served, 0]
            completion = completion[1:served + 1]
        else:
            check_int64(
                int(a.max()) + int(pre[:, 0].max()) + int(dec[:, 0].max()),
                "an absorbed window's completions",
            )
            first = a + pre[:, 0]
            completion = first + dec[:, 0]
            if until is not None:
                eligible &= completion <= until
            # Isolation: the request must complete before the next
            # arrival lands (ties allowed — an arrival exactly at the
            # completion instant never joins the batch).
            nxt = np.empty(take, dtype=np.int64)
            nxt[: take - 1] = a[1:]
            nxt[take - 1] = arr[peek] if peek >= 0 else np.iinfo(np.int64).max
            eligible &= completion <= nxt
        # The passes in the order the per-arrival path runs them: each
        # request's prefill, then its decode run.
        passes = np.empty((2 * take, 5), dtype=np.int64)
        passes[0::2] = pre
        passes[1::2] = dec
        bad = np.flatnonzero(~eligible).tolist()
        mask = np.zeros(take, dtype=bool)
        burst_ok = self._burst_ok
        record = self.completions
        rid = np.frombuffer(self._rid_t, dtype=np.int64)[rows]
        cls = np.frombuffer(self._cls_t, dtype=np.int64)[rows]
        mdl, free = self._mdl, self._free
        i = 0
        aborted = False
        while i < take:
            if eligible[i]:
                cut = bisect_left(bad, i)
                j = take if cut == len(bad) else bad[cut]
                mask[i:j] = True
                for _ in range(j - i):
                    pending.popleft()
                self.clock = int(completion[j - 1])
                # The stretch completes before the burst after it starts,
                # so its completions go on the record now, in clock order.
                record.request_id.frombytes(rid[i:j].tobytes())
                record.arrival.frombytes(a[i:j].tobytes())
                record.first_token.frombytes(first[i:j].tobytes())
                record.completion.frombytes(completion[i:j].tobytes())
                record.input_tokens.frombytes(inp[i:j].tobytes())
                record.output_tokens.frombytes(out[i:j].tobytes())
                record.priority_class.frombytes(cls[i:j].tobytes())
                absorbed = rows_list[i:j]
                record.model.extend([mdl[row] for row in absorbed])
                free.extend(absorbed)
                # The stretch's passes, summed as Python ints.
                busy, mem, pim, npu, flops = map(
                    sum, passes[2 * i:2 * j].T.tolist()
                )
                self.busy += busy
                self.energy_pj += mem + pim + npu
                self.flops += flops
                i = j
                continue
            if burst_ok:
                before = len(pending)
                status = self._run_burst(until)
                consumed = before - len(pending)
                i += consumed
                if status == 1 and consumed:
                    continue
            aborted = True
            break
        k = int(np.count_nonzero(mask))
        if k:
            kv = self.kv
            idx = np.flatnonzero(mask)
            if self._optimistic:
                peak_pages = np.where(
                    single[idx],
                    -(inp[idx] // -page_tokens),
                    -((inp[idx] + out[idx] - 1) // -page_tokens),
                )
            else:
                peak_pages = total_pages[idx]
            # Absorbed requests never hold pages in the ledger: only the
            # high-water mark they would have reached is recorded.
            peak = int(peak_pages.max())
            if peak > kv.peak_reserved_pages:
                kv.peak_reserved_pages = peak
            dsum = int(steps[idx].sum())
            self.decode_passes += dsum
            self.decode_tokens += dsum
            self.prefill_passes += k
            self.admissions += k
            self._outstanding -= int((inp[idx] + out[idx]).sum())
            if not self.peak_active:
                self.peak_active = 1
        keep = (not aborted) and i >= take and bool(pending)
        return (k > 0 or i > 0), keep

    def _run_burst(self, until: "int | None") -> int:
        """Drain one busy period (arrival-order policy, worst-case grants,
        monolithic prefill, a decode table, no events).

        Only admission is specialized: due arrivals move from ``pending``
        straight to ``active``, skipping the ``waiting`` queue and the
        policy hooks.  Prefills run through :meth:`_step` (its
        ``_mono_fast`` shortcut always holds here) and all-decode stretches
        through :meth:`_decode_run`, so every number is the generic
        loop's and per-request results stay byte-identical.

        Returns 0 (nothing admitted, no state change), 1 (period drained,
        device idle again), or 2 (progressed, then hit a condition the
        generic loop must handle: the ``until`` horizon, a KV block, an
        off-table or oversized request).
        """
        pending = self.pending
        arr, inp_col, out_col = self._arr, self._inp, self._out
        rid = self._rid
        active = self.active
        kv = self.kv
        page_tokens = self._page_tokens
        cap = self._policy_cap
        lo = self._table.kv_lo
        span = self._table.kv_hi - lo + 1
        clock = self.clock
        head = arr[pending[0]]
        if until is not None and (head >= until or clock >= until):
            return 0
        if head > clock:
            clock = head  # the generic loop's idle jump, taken on admission
        progressed = False
        while True:
            # Admit every due arrival up to the cap (worst-case grants),
            # exactly as the generic loop-top + _admit would.
            while pending and len(active) < cap:
                row = pending[0]
                if arr[row] > clock:
                    break
                i_tok = inp_col[row]
                o = out_col[row]
                beg = i_tok + 1 - lo
                # Hand the head back when it is oversized (the generic path
                # raises the diagnostic), KV-blocked (it stalls the head)
                # or off the table (it prices per iteration).
                if -(-(i_tok + o) // page_tokens) > kv.free_pages or (
                    o > 1 and (beg < 0 or beg + o - 1 > span)
                ):
                    return 2 if progressed else 0
                pending.popleft()
                kv.reserve(rid[row], i_tok + o)
                active.append(row)
                self._num_prefilling += 1
                self.admissions += 1
                if len(active) > self.peak_active:
                    self.peak_active = len(active)
                self.clock = clock
                progressed = True
            if self._num_prefilling:
                self._step()
            elif not active:
                return 1
            elif not self._decode_run(until):
                return 2
            clock = self.clock
            if until is not None and clock >= until:
                return 2

    # ------------------------------------------------------------------
    # Optimistic admission: growth and preempt-and-recompute
    # ------------------------------------------------------------------
    def _grow_batch(
        self, batch: "list[int]", carrier_row: "int | None"
    ) -> "list[int]":
        """Grant each decode member the pages its next pass needs.

        Members are processed in the policy's priority order, and grants
        route through the accountant (shared pages never grow).  A member
        whose growth does not fit evicts the least-progressed unprotected
        victim until it fits, or is stalled for this iteration.  With the
        swap tier the victim's private pages move to host DRAM (its
        progress survives; it resumes via swap-in); otherwise — with
        ``preempt=True`` — the victim is preempted for recompute.  When
        swapping every active victim still does not free enough (resident
        shared-prefix pages of swapped peers can pin the pool), the
        youngest swapped row is preempted outright, which releases its
        prefix reference — so the first member can always be granted:
        every admitted request fits the pool alone.
        """
        kv = self.kv
        sim = self.sim
        rid = self._rid
        granted: list[int] = []
        protected: set[int] = set()
        if carrier_row is not None:
            protected.add(carrier_row)
        for row in batch:
            if row not in self.active:
                continue  # evicted by an earlier member's growth
            tokens = self._inp[row] + self._generated[row]
            need = kv.grow_need(rid[row], tokens)
            if need > 0 and need > kv.free_pages and (sim.swap or sim.preempt):
                protected.add(row)
                while need > kv.free_pages:
                    victim = choose_victim(self.active, protected, self._keys)
                    if victim is not None:
                        if sim.swap:
                            self._swap_out(victim)
                        else:
                            self._preempt(victim)
                        continue
                    if sim.swap and self.swapped:
                        self._preempt_swapped(len(self.swapped) - 1)
                        continue
                    break  # everyone left is protected: stall, not deadlock
            if need <= kv.free_pages:
                kv.grow(rid[row], tokens)
                granted.append(row)
                protected.add(row)
        return granted

    def _preempt(self, victim: int) -> None:
        self.active.remove(victim)
        if self._generated[victim] == 0:
            self._num_prefilling -= 1
        self._recompute(victim)

    def _recompute(self, victim: int) -> None:
        """Release a victim row's pages and re-enqueue it to recompute
        from scratch."""
        pages = self.kv.release(self._rid[victim])
        self.preemptions += 1
        lost = self._prefilled[victim] + self._generated[victim]
        self.recomputed_tokens += lost
        self._outstanding += lost
        self._check_livelock()
        # The row persists, so reset its progress columns for re-admission.
        self._prefilled[victim] = 0
        self._generated[victim] = 0
        self._first[victim] = 0
        self._requeue(victim)
        self._emit("preempt", request_id=self._rid[victim], tokens=pages)

    # ------------------------------------------------------------------
    # Completion recording
    # ------------------------------------------------------------------
    def _record_completion(self, row: int) -> None:
        self.completions.append(
            self._rid[row],
            self._arr[row],
            self._first[row],
            self.clock,
            self._inp[row],
            self._out[row],
            self._cls[row],
            self._mdl[row],
        )
        self._free.append(row)

    # ------------------------------------------------------------------
    def _clear_queues(self) -> "list[Request]":
        """Empty every queue for ``fail``; the rows return to the free list."""
        rows = [*self.active, *self.swapped, *self.waiting, *self.pending]
        lost = [self._req[row] for row in rows]
        self._free.extend(rows)
        self.active.clear()
        self.swapped.clear()
        self.waiting.clear()
        self.pending.clear()
        self._num_prefilling = 0
        self._outstanding = 0
        return lost
