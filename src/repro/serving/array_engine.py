"""The vectorized serving-event core ("megatrace") behind ``engine="array"``.

:class:`ArraySimulationRun` derives from the same lifecycle base as
:class:`~repro.serving.simulator.SimulationRun` and inherits everything a
run does outside its request store: the counters and the event log, the
lifecycle guards, ``offer``, ``fail`` / ``recover`` / ``resubmit`` /
``catch_up`` / ``note_scale``, the swap-in admission loop and the
weight-swap pricing.  The one-shot ``simulate``, the streaming
``simulate_stream`` and the whole cluster layer therefore run on it
unchanged.  Three things make it two orders of magnitude faster than the
reference object engine:

**Columnar request state.**  Requests live as parallel columns
(arrival / prompt / output / prefilled / generated / ...) indexed by a
*row*; the queues hold row indices.  Rows are recycled through a free
list on completion, so resident state is O(outstanding requests) — a
streamed million-request day never materializes, and no per-request
Python object survives its own lifetime.

**Dense decode-cost tables.**  All decode pricing goes through a
:class:`~repro.serving.decode_table.DecodeCostTable`, one per co-hosted
model, built once per (backend, model, anchor grid, KV range) and process
and shared through the decode-table cache: a run holds the resident
model's table by reference and converts nothing, and its inner loops read
plain Python floats out of the table's column and prefix-sum tuples
without touching the cost model.  Table entries are bit-identical to
``provider.decode``, so per-iteration stepping reproduces the object
engine's floating-point results *exactly*.

**Decode runs and macro-steps.**  When every active request is decoding,
the batch membership is provably stable until the next completion
(admission caps ``len(active)`` at the policy's concurrency gate, so
every policy's batch is the whole active set, in an order that holds
while each member gains one token per iteration).  The engine then
advances the batch *k* iterations in one call, stopping exactly where
the per-iteration loop would have changed behavior: the next completion,
the next arrival that could be admitted, the ``until`` horizon, the
table edge, or a KV grant that no longer fits (which falls back to one
per-iteration step, so a preemption or swap-out runs the reference
path).  Two methods do it:

- ``_decode_run`` prices each iteration with ``fused_pass``'s own float
  operations and advances every running total by sequential adds, so
  its results are bit-identical to stepping.  It serves shared
  prefixes, the swap tier, co-hosted models (the resident model's rows),
  tables whose fused-batch floors may bind, batches with a member
  stalled on a page no victim can free, and every run with an event log.
- ``_macro_step`` prices the private-page regime under a floor-free
  table (:attr:`~repro.serving.decode_table.DecodeCostTable.floor_free`)
  in O(B) from the table's prefix sums, which is faster.  Prefix-sum
  differences reorder float additions, which is why macro-stepped
  aggregate metrics are pinned to ~1e-9 instead of bit-identical.

``record_events=True`` disables the macro-steps and keeps the decode
runs, which then record one ``decode_run`` event per run and take one
events-only stop, before each page grant under optimistic admission (see
``_decode_run``).  :func:`~repro.serving.validate.expand_runs` turns that
log into the per-iteration one, **bit-identical** to the object engine's
(the differential suite asserts exact equality).

**Arrival absorption and bursts.**  While the device idles between
arrivals, the absorber, ``_absorb_window``, serves whole stretches of
isolated requests (and, under concurrency-1 arrival-order policies,
queued ones) in closed form: it prices a columnar window of pending
arrivals at once, and every per-request time and running total it books
comes out of the per-arrival path's own float operations, in that path's
order.  An overlapping clump goes to the burst runner, ``_run_burst``,
which specializes only admission (due arrivals go straight from
``pending`` to ``active`` with worst-case grants); it prefills and
decodes through the per-iteration loop's own ``_step`` and
``_macro_step``.  Both are entered through ``_absorb_arrivals``; a run
whose ``_absorb_arrivals`` returns ``False`` (tests monkeypatch it) takes
the per-arrival reference path.

**One completion record.**  Every completion, whichever path served it,
is appended to the lifecycle base's
:class:`~repro.serving.request.CompletionRecord`, and the simulator
reduces the run's request-level metrics from it; ``per_request_detail``
only decides whether its rows come back as well.

**One KV ledger.**  Every run books its pages in the simulator's
:class:`~repro.serving.kv_memory.KvPageAccountant` (``self.kv``), the
same reference-counting ledger the object engine uses; its running
counters make every pool read O(1), so the per-iteration loop, decode
runs, macro-steps and the burst runner all reserve, grow and release
through it.  The absorbers complete requests without ever holding their
pages and only roll its ``peak_reserved_pages`` high-water mark.  Once a
run offers a shared-prefix request (``prefix_id >= 0``), or when it has
the host-DRAM swap tier, the absorbers, the burst runner and the
macro-steps stand down — their closed forms assume private pages that
never leave the device — and the per-iteration loop runs with the decode
runs, which read each member's held pages, shared ones included, from
the ledger.

**One set of per-iteration rules.**  The per-iteration loop makes no
decision of its own: the policy's admission gate and order, prefill pick
and decode batch (over :class:`~repro.serving.simulator.RequestKeys`
readers of the row columns), the preemption victim, the fused-pass price
and the host-link transfer time are the simulator module's functions,
the same ones the object engine calls.  Only the state-bound bodies —
admit, grow, preempt, swap and step over rows — are written here, one
operation for each of the object engine's, which is why its event logs,
decode runs expanded, are bit-identical to the object engine's.  The
fast paths read two facts
off the policy's batching contract (:class:`~repro.serving.simulator.
ServingPolicy`): its concurrency cap ``max_batch`` and whether it serves
in queue order (``arrival_order``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from functools import partial, reduce
from itertools import accumulate, islice, repeat
from operator import add, sub

import numpy as np

from repro.energy.model import EnergyBreakdown
from repro.serving.request import Request
from repro.serving.simulator import (
    RequestKeys,
    _check_fits_alone,
    _pool_exhausted,
    _RunLifecycle,
    choose_victim,
    cost_tuple,
    fused_pass,
)

__all__ = ["ArraySimulationRun"]


class ArraySimulationRun(_RunLifecycle):
    """Columnar drop-in for :class:`~repro.serving.simulator.SimulationRun`."""

    def __init__(
        self,
        sim,
        record_events: bool = False,
        kv_bounds: "tuple[int, int] | None" = None,
    ) -> None:
        super().__init__(sim, record_events, kv_bounds)
        #: Fast-path gate: with the swap tier (or once a shared-prefix
        #: request is offered) the absorbers, bursts and macro-steps stand
        #: down and only the per-iteration loop and the decode runs run
        #: (see the module docstring).
        self._exact_kv = bool(sim.swap)

        # The resident model's decode-cost table, the provider's shared
        # one, held by reference; ``None`` under exact pricing or unknown
        # KV bounds, in which case every decode is priced through the
        # provider (correct, per-iteration only).
        table = None
        if not sim.provider.exact and kv_bounds is not None:
            table = sim.provider.decode_table(*kv_bounds)
        self._table = table

        # Request columns, indexed by row.  Rows recycle via _free.
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
        self._arr_t = array("d")
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
        #: incrementally so the macro-eligibility test is O(1).
        self._num_prefilling = 0

        self._energy_mem = 0.0
        self._energy_pim = 0.0
        self._energy_npu = 0.0
        self._outstanding = 0

        # The registered policies' batching contract (ServingPolicy): the
        # fast paths read the concurrency cap and queue-order flag off the
        # policy, and every decision the per-iteration loop makes is the
        # policy's own, over these readers of the row columns.
        self._policy = sim.policy
        self._policy_cap = sim.policy.max_batch
        self._arrival_order = sim.policy.arrival_order
        inp, out, cls = self._inp, self._out, self._cls
        prefilled, generated = self._prefilled, self._generated
        arr, rid = self._arr, self._rid
        # The lifecycle base's readers of a row's request id and
        # (arrival, id) key.
        self._flight_id = rid.__getitem__
        self._arrival_key = lambda row: (arr[row], rid[row])
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
        # True when _step may take the monolithic-prefill shortcut: the
        # conditions are all fixed for the lifetime of the run.
        self._mono_fast = (
            sim.chunk_tokens == 0
            and self.events is None
            and self._arrival_order
            and not sim.multi_model
        )
        self._chunk_costs: dict = {}
        # Multi-model residency: the per-iteration loop and decode runs
        # restrict each pass to the resident model's rows, and a weight
        # swap is paid when the active model changes (the object engine's
        # sticky-resident scheduling over rows).  Every co-hosted model's
        # shared decode table is looked up once, up front (none when the
        # default model has none); a model's table and chunk-cost cache
        # swap in with its weights.  The macro-steps and absorbers stand
        # down on multi-model runs; the decode runs price from whichever
        # table is resident.
        self._multi = sim.multi_model
        if self._multi:
            #: Each hosted model's decode table (or ``None``).
            self._tables = {sim.model.name: table}
            for name, provider in sim.providers.items():
                if name not in self._tables:
                    self._tables[name] = (
                        None if table is None else provider.decode_table(*kv_bounds)
                    )
            self._chunks_by_model = {sim.model.name: self._chunk_costs}
        # Arrival-batched absorption gates (fixed for the run's lifetime).
        # _absorb_ok: whole idle-device arrival windows may be served in
        # closed form.  Requires monolithic prefill and no event log; a
        # table is only needed for decode runs, so table-less runs (e.g.
        # summarization, where every request decodes zero tokens past the
        # prefill) still qualify — coverage masking excludes any request
        # the table cannot price.  A non-floor-free table is excluded:
        # isolated requests never hit a floor, but the per-arrival
        # reference path would run per-iteration there and absorption
        # must not change which path produced the numbers.
        floor_free = table is not None and table.floor_free
        self._absorb_ok = (
            self.events is None
            and sim.chunk_tokens == 0
            and not self._exact_kv
            and not sim.multi_model
            and (floor_free or table is None)
        )
        # _fcfs_absorb: concurrency-1 arrival-order service is a Lindley
        # recursion — queued arrivals absorb too, no isolation test.
        self._fcfs_absorb = (
            self._absorb_ok and self._arrival_order and self._policy_cap == 1
        )
        # _burst_ok: clumps of overlapping arrivals run through the
        # burst runner (its own admission loop, then the generic loop's
        # steps), valid under arrival-order admission with worst-case KV
        # grants and a floor-free table.
        self._burst_ok = (
            self._absorb_ok
            and floor_free
            and self._arrival_order
            and not self._optimistic
            and self._policy_cap > 1
        )

    # ------------------------------------------------------------------
    def _base_cost(self) -> tuple:
        """The resident model's decode floor ``c(1)`` as a cost tuple."""
        table = self._table
        if table is not None:
            return table.base
        return cost_tuple(self._provider.base())

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------
    def _entry(self, request: Request) -> int:
        """A row for a request routed here (offered or resubmitted)."""
        if request.prefix_id >= 0:
            self._exact_kv = True
        self._outstanding += request.input_tokens + request.output_tokens
        if self._free:
            row = self._free.pop()
            self._arr[row] = request.arrival_s
            self._inp[row] = request.input_tokens
            self._out[row] = request.output_tokens
            self._arr_t[row] = request.arrival_s
            self._inp_t[row] = request.input_tokens
            self._out_t[row] = request.output_tokens
            self._rid_t[row] = request.request_id
            self._cls_t[row] = request.priority_class
            self._cls[row] = request.priority_class
            self._rid[row] = request.request_id
            self._prefilled[row] = 0
            self._generated[row] = 0
            self._first[row] = 0.0
            self._pfx[row] = request.prefix_id
            self._pft[row] = request.prefix_tokens
            self._mdl[row] = request.model
            return row
        row = len(self._arr)
        self._arr.append(request.arrival_s)
        self._inp.append(request.input_tokens)
        self._out.append(request.output_tokens)
        self._arr_t.append(request.arrival_s)
        self._inp_t.append(request.input_tokens)
        self._out_t.append(request.output_tokens)
        self._rid_t.append(request.request_id)
        self._cls_t.append(request.priority_class)
        self._cls.append(request.priority_class)
        self._rid.append(request.request_id)
        self._prefilled.append(0)
        self._generated.append(0)
        self._first.append(0.0)
        self._pfx.append(request.prefix_id)
        self._pft.append(request.prefix_tokens)
        self._mdl.append(request.model)
        return row

    def _request(self, row: int) -> Request:
        return Request(
            request_id=self._rid[row],
            arrival_s=self._arr[row],
            input_tokens=self._inp[row],
            output_tokens=self._out[row],
            priority_class=self._cls[row],
            prefix_id=self._pfx[row],
            prefix_tokens=self._pft[row],
            model=self._mdl[row],
        )

    # ------------------------------------------------------------------
    # Offers and router-visible state
    # ------------------------------------------------------------------
    # The lifecycle base's offer, bound in this class body so that
    # tracers that wrap ``ArraySimulationRun.__dict__`` entries (as
    # perfbench/spans.py does) see it; ``finish`` below likewise.
    offer = _RunLifecycle.offer

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
        last_key = self._arrival_key(pending[-1]) if pending else None
        for request in requests:
            if request.model or (request.output_tokens > 1 and not is_decoder):
                check_servable(request)
            key = (request.arrival_s, request.request_id)
            if last_key is not None and key < last_key:
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
            last_key = key
            push(entry(request))
            self.offered += 1
            if self.first_arrival is None:
                self.first_arrival = request.arrival_s

    def _offer_bulk(self, requests) -> None:
        """Columnar append for large sorted batches: one list comprehension
        per column plus a vectorized ordering check, instead of a Python
        branch-and-append chain per request.  Only entered when the free
        list is empty, so every new row lands at the tail and the typed
        shadows can be extended wholesale."""
        arrs = [r.arrival_s for r in requests]
        rids = [r.request_id for r in requests]
        np_arr = np.array(arrs, dtype=np.float64)
        diffs = np.diff(np_arr)
        if len(requests) > 1 and not np.all(diffs >= 0.0):
            raise ValueError(
                "requests must be offered in (arrival_s, request_id) order"
            )
        ties = np.nonzero(diffs == 0.0)[0] if len(requests) > 1 else ()
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
        self._arr += arrs
        self._inp += inps
        self._out += outs
        self._cls += clss
        self._rid += rids
        self._prefilled += [0] * n
        self._generated += [0] * n
        self._first += [0.0] * n
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
    def outstanding_tokens(self) -> int:
        """Prompt + output tokens not yet computed across live requests.

        Maintained incrementally (offer/chunk/decode/preempt/fail), so it
        is O(1) here yet integer-identical to the object engine's O(n)
        sums — the cluster's routers see the same numbers either way.
        """
        return self._outstanding

    @property
    def energy(self) -> EnergyBreakdown:
        return EnergyBreakdown(
            normal_memory_j=self._energy_mem,
            pim_op_j=self._energy_pim,
            npu_cores_j=self._energy_npu,
        )

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def _decode_cost(self, kv: int) -> tuple:
        """(latency, mem_j, pim_j, npu_j, flops) — bit-equal to decode()."""
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
        return cost_tuple(self._provider.decode(kv))

    def _chunk_cost(self, prefix: int, chunk: int) -> tuple:
        key = (prefix, chunk)
        cached = self._chunk_costs.get(key)
        if cached is None:
            cached = cost_tuple(self._provider.prefill_chunk(prefix, chunk))
            self._chunk_costs[key] = cached
        return cached

    # ------------------------------------------------------------------
    # The discrete-event loop
    # ------------------------------------------------------------------
    def advance_until(self, until: "float | None") -> None:
        """Run every pass *starting* before ``until`` (all work if ``None``)."""
        self._check_advance(until)
        arr = self._arr
        waiting = self.waiting
        active = self.active
        swapped = self.swapped
        pending = self.pending
        admit = self._policy.admit
        # All-decode iterations run in bulk: by prefix-sum macro-steps on
        # private pages under a floor-free table without an event log, by
        # exact decode runs everywhere else (one event per run).  An offer
        # since the last advance may have brought the run's first
        # shared-prefix request; the macro-steps and absorbers stand down
        # from then on.
        macro_ok = (
            self.events is None
            and self._table is not None
            and self._table.floor_free
            and not self._exact_kv
            and not self._multi
        )
        absorb_ok = self._absorb_ok and not self._exact_kv
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
            if macro_ok:
                if not self._num_prefilling and self._macro_step(until):
                    continue
            elif self._decode_run(until):
                continue
            self._step()

    # ------------------------------------------------------------------
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
        latency = self.sim._link_seconds(pages * self.kv.page_bytes)
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
        latency = self.sim._link_seconds(pages * self.kv.page_bytes)
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
    # Multi-model residency (the object engine's sticky-resident
    # scheduling over rows; only reached when the simulator hosts a
    # model set)
    # ------------------------------------------------------------------
    def _sync_model(self) -> None:
        """Swap weights when no resident-model work is runnable."""
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
        """Stream ``target``'s weights in over the host link (weight swap).

        Beyond the shared bookkeeping, the row engine re-points its cost
        caches: the target's decode table and chunk-cost cache follow the
        weights.
        """
        super()._swap_model(target)
        self._table = self._tables[target]
        self._chunk_costs = self._chunks_by_model.setdefault(target, {})

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
                        row, chunk, self._chunk_cost(self._prefilled[row], chunk)
                    )
                    return
        sim = self.sim
        if self._multi:
            # Sticky-resident scheduling: restrict the pass to the
            # resident model's rows, paying a weight swap first when the
            # resident model has nothing runnable (as the object engine).
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
            carrier = self._chunk_cost(self._prefilled[row], chunk)
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
        latency, e_mem, e_pim, e_npu, pass_flops = fused_pass(
            carrier, costs, self._batch_share, self._base_cost
        )
        self.clock += latency
        self.busy += latency
        self._energy_mem += e_mem
        self._energy_pim += e_pim
        self._energy_npu += e_npu
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
        self._energy_mem += carrier[1]
        self._energy_pim += carrier[2]
        self._energy_npu += carrier[3]
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
    # All-decode stretches in bulk: the shared step bounds, the
    # prefix-sum macro-step and the exact decode run
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

    def _macro_step(self, until: "float | None") -> bool:
        """Advance up to the next behavior boundary in O(B) per probe.

        Returns ``False`` when this boundary cannot be macro-stepped (KV
        out of table range, or an optimistic grant that needs preemption)
        — the caller then runs one per-iteration step.
        """
        active = self.active
        batch_size = len(active)
        offsets, steps = self._run_bounds(active)
        if steps < 1:
            return False
        optimistic = self._optimistic
        if optimistic:
            steps, kvs, held = self._fit_growth(active, offsets, steps)
            if steps < 1:
                return False

        kv = self.kv
        rid = self._rid
        out, generated = self._out, self._generated
        table = self._table  # installed whenever macros run
        base = table.base
        shared = self._batch_share * (batch_size - 1)
        prefix_lat = table.prefix_latency
        shared_lat = shared * base[0]

        # Budget caps: stop at `until` and, while the admission gate is
        # open, at the next pending arrival (at a full batch arrivals
        # merely queue — bulk-moved at the loop top after this macro
        # ends).  elapsed(j) is monotone in j, so capping by each budget
        # in turn equals one cap by the smallest budget.
        budget = None if until is None else until - self.clock
        if self.pending and batch_size < self._policy_cap:
            arrival_budget = self._arr[self.pending[0]] - self.clock
            if budget is None or arrival_budget < budget:
                budget = arrival_budget
        # Conservative dismissal: elapsed(steps) can never exceed
        # steps * batch * lat_max, so a budget above that bound cannot
        # bind and the exact O(B) scans are skipped.  The inflation
        # factor absorbs summation rounding (~n*eps << 1e-9) so the
        # dismissal is sound even when the bound is nearly tight.
        if budget is not None and (
            steps * batch_size * table.latency_max * 1.000000001 >= budget
        ):
            lat_start = 0.0
            total = 0.0
            for offset in offsets:
                lat_start += prefix_lat[offset]
                total += prefix_lat[offset + steps]
            if total - lat_start - steps * shared_lat >= budget:
                # Smallest j in [1, steps] with elapsed(j) >= budget.
                low, high = 0, steps  # elapsed(low) < budget <= elapsed(high)
                while high - low > 1:
                    mid = (low + high) // 2
                    elapsed = 0.0
                    for offset in offsets:
                        elapsed += prefix_lat[offset + mid]
                    elapsed = elapsed - lat_start - mid * shared_lat
                    if elapsed < budget:
                        low = mid
                    else:
                        high = mid
                steps = high

        j = steps
        prefix_em, prefix_ep = table.prefix_energy_memory, table.prefix_energy_pim
        prefix_en, prefix_fl = table.prefix_energy_npu, table.prefix_flops
        sum_lat = 0.0
        sum_em = 0.0
        sum_ep = 0.0
        sum_en = 0.0
        sum_fl = 0.0
        finished = None
        for offset, row in zip(offsets, active):
            offset_j = offset + j
            sum_lat += prefix_lat[offset_j] - prefix_lat[offset]
            sum_em += prefix_em[offset_j] - prefix_em[offset]
            sum_ep += prefix_ep[offset_j] - prefix_ep[offset]
            sum_en += prefix_en[offset_j] - prefix_en[offset]
            sum_fl += prefix_fl[offset_j] - prefix_fl[offset]
            new_generated = generated[row] + j
            generated[row] = new_generated
            if new_generated >= out[row]:
                if finished is None:
                    finished = [row]
                else:
                    finished.append(row)
        delta = sum_lat - j * shared_lat
        self.clock += delta
        self.busy += delta
        self._energy_mem += sum_em - j * shared * base[1]
        self._energy_pim += sum_ep - j * shared * base[2]
        self._energy_npu += sum_en - j * shared * base[3]
        self.flops += sum_fl
        self.decode_passes += j
        self.decode_tokens += j * batch_size
        self._outstanding -= j * batch_size

        if optimistic:
            self._grant_growth(active, kvs, held, j)
        if finished is not None:
            for row in finished:
                active.remove(row)
                kv.release(rid[row])
                self._record_completion(row)
        return True

    def _decode_run(self, until: "float | None") -> bool:
        """Advance a stable all-decode batch to its next behavior boundary
        in one call, with :func:`fused_pass`'s own float operations.

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

        Each iteration is priced as ``fused_pass`` prices it: a
        left-to-right sum from 0.0 and ``max`` over the members' cost values
        in batch order, then ``max(sum - shared * floor, max)``, and a lone
        member's values as they are.  Clock, busy time, the energies and FLOPs advance by
        sequential adds, and the budget stop bisects the exact clock
        sequence, so every number is bit-identical to stepping.  Returns
        ``False`` when not even one iteration can run here; the caller
        then runs one per-iteration step.
        """
        table = self._table
        if table is None or not table.latency_nonnegative:
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
        elif self._num_prefilling:
            return False
        else:
            decodable = active
        batch = self._policy.decode_batch(decodable, self._keys)
        optimistic = self._optimistic
        if optimistic:
            batch = self._granted(batch)
            if not batch:
                return False
        offsets, steps = self._run_bounds(batch)
        if steps < 1:
            return False
        lat = table.latency
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
        if threshold is not None:
            # Price no further than the threshold can reach, taking each
            # pass to cost at least its slowest member's first latency.
            # The guess only sizes the work: a run that stops short of
            # every boundary is exact too, and the next call carries on.
            first = max([lat[offset] for offset in offsets])
            if first > 0.0:
                reach = (threshold - self.clock) / first + 2.0
                if reach < steps:
                    steps = max(1, int(reach))
        events = self.events
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

        size = len(batch)
        fused = self._fused_column
        if size == 1:
            offset = offsets[0]
            latencies = lat[offset:offset + steps]
        else:
            shared = self._batch_share * (size - 1)
            floor = table.base
            latencies = list(fused(lat, offsets, steps, shared * floor[0]))
        if threshold is None:
            end = reduce(add, latencies, self.clock)
        else:
            clocks = list(accumulate(latencies, initial=self.clock))
            crossing = bisect_left(clocks, threshold, 1)
            if crossing < steps:
                steps = crossing
                latencies = latencies[:crossing]
            end = clocks[steps]

        if size == 1:
            stop = offset + steps
            e_mem = table.energy_memory[offset:stop]
            e_pim = table.energy_pim[offset:stop]
            e_npu = table.energy_npu[offset:stop]
            flops = table.flops[offset:stop]
        else:
            e_mem = fused(table.energy_memory, offsets, steps, shared * floor[1])
            e_pim = fused(table.energy_pim, offsets, steps, shared * floor[2])
            e_npu = fused(table.energy_npu, offsets, steps, shared * floor[3])
            column = table.flops
            flops = reduce(
                partial(map, add),
                [column[offset:offset + steps] for offset in offsets],
                repeat(0.0),
            )
        self.clock = end
        self.busy = reduce(add, latencies, self.busy)
        self._energy_mem = reduce(add, e_mem, self._energy_mem)
        self._energy_pim = reduce(add, e_pim, self._energy_pim)
        self._energy_npu = reduce(add, e_npu, self._energy_npu)
        self.flops = reduce(add, flops, self.flops)
        self.decode_passes += steps
        self.decode_tokens += steps * size
        self._outstanding -= steps * size

        if optimistic:
            self._grant_growth(batch, kvs, held, steps)
        rid = self._rid
        if events is not None:
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

    @staticmethod
    def _fused_column(
        column: list, offsets: "list[int]", steps: int, shared_floor: float
    ):
        """One cost component of ``steps`` fused decode iterations, as
        ``fused_pass`` computes it: ``max(total - shared_floor,
        max(values))`` per iteration over the members' values in batch
        order, where ``total`` adds them left to right from 0.0 and
        ``shared_floor`` is ``shared * floor``."""
        parts = [column[offset:offset + steps] for offset in offsets]
        # Member by member, each iteration's running sum from 0.0.
        totals = reduce(partial(map, add), parts, repeat(0.0))
        return map(
            max,
            map(sub, totals, repeat(shared_floor)),
            map(max, zip(*parts)),
        )

    # ------------------------------------------------------------------
    # Underload fast path: arrival-batched absorption
    # ------------------------------------------------------------------
    #: Pending arrivals priced per columnar window.  Large enough to
    #: amortize the numpy fixed costs, small enough that a window build
    #: stays cache-resident.
    _ABSORB_WINDOW = 4096

    def _absorb_arrivals(self, until: "float | None") -> bool:
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

    def _absorb_window(self, until: "float | None") -> "tuple[bool, bool]":
        """Absorb one columnar window of pending arrivals.

        Prices every request's whole lifetime (monolithic prefill + full
        decode run) from the table prefix sums in one vectorized shot,
        then walks the window: stretches of *isolated* requests (each one
        completing before the next arrives) are served in closed form,
        overlapping clumps run through the burst runner, and under
        concurrency-1 arrival-order policies queued stretches absorb
        through the Lindley recursion.  Every float operation that reaches
        a number is the per-arrival path's: a request starts at the later
        of its arrival and the clock, its first token adds the prefill to
        that start and its completion adds the decode run to the first
        token; a stretch adds its passes to busy time, the energies and
        FLOPs one at a time, prefill then decode run per request, and
        appends its completions to the record before the burst after it
        runs, so the record stays in completion order.  Returns
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
        dec = 0.0
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
        if head_ok:
            pre_head = self._chunk_costs.get((0, i_tok))
            if pre_head is None:
                pre_head = self._chunk_cost(0, i_tok)
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
        a = np.frombuffer(self._arr_t, dtype=np.float64)[rows]
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
            dec = np.zeros((take, 5))
        uniq, inverse = np.unique(inp, return_inverse=True)
        chunk_cost = self._chunk_cost
        pre = np.array(
            [chunk_cost(0, int(v)) for v in uniq], dtype=np.float64
        )[inverse]
        if self._fcfs_absorb:
            # The Lindley recursion completion_i = max(arrival_i,
            # completion_{i-1}) + prefill_i + decode_i, a request at a time
            # and added left to right as the per-arrival path adds it, up
            # to the first request the window refuses.  It seeds from the
            # clock (completion_{-1} = self.clock): across window
            # boundaries the previous window's tail may still be in
            # service when this window's head arrived.
            refused = np.flatnonzero(~eligible)
            served = int(refused[0]) if refused.size else take
            completions = [self.clock]
            push = completions.append
            clock = self.clock
            for arrival, prefill, decode in zip(
                a[:served].tolist(),
                pre[:served, 0].tolist(),
                dec[:served, 0].tolist(),
            ):
                start = arrival if arrival > clock else clock
                clock = (start + prefill) + decode
                push(clock)
            # The clock, then every request's completion.  Completions
            # never decrease, so the ones past ``until`` are a suffix.
            completion = np.fromiter(completions, np.float64, served + 1)
            if until is not None:
                served = int(np.searchsorted(completion[1:], until, "right"))
            eligible[served:] = False
            # Each request starts at the later of its arrival and the
            # previous completion; its first token is that start plus its
            # prefill, the loop's own first add.
            first = np.maximum(a[:served], completion[:served]) + pre[:served, 0]
            completion = completion[1:served + 1]
        else:
            first = a + pre[:, 0]
            completion = first + dec[:, 0]
            if until is not None:
                eligible &= completion <= until
            # Isolation: the request must complete before the next
            # arrival lands (ties allowed — an arrival exactly at the
            # completion instant never joins the batch).
            nxt = np.empty(take, dtype=np.float64)
            nxt[: take - 1] = a[1:]
            nxt[take - 1] = arr[peek] if peek >= 0 else np.inf
            eligible &= completion <= nxt
        # The passes in the order the per-arrival path runs them: each
        # request's prefill, then its decode run.
        passes = np.empty((2 * take, 5))
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
                self.clock = float(completion[j - 1])
                # The stretch completes before the burst after it starts,
                # so its completions go on the record now, in clock order.
                record.request_id.frombytes(rid[i:j].tobytes())
                record.arrival_s.frombytes(a[i:j].tobytes())
                record.first_token_s.frombytes(first[i:j].tobytes())
                record.completion_s.frombytes(completion[i:j].tobytes())
                record.input_tokens.frombytes(inp[i:j].tobytes())
                record.output_tokens.frombytes(out[i:j].tobytes())
                record.priority_class.frombytes(cls[i:j].tobytes())
                absorbed = rows_list[i:j]
                record.model.extend([mdl[row] for row in absorbed])
                free.extend(absorbed)
                # Add the stretch's passes one at a time: np.cumsum adds
                # sequentially (np.sum would add pairwise).
                totals = np.empty((2 * (j - i) + 1, 5))
                totals[0] = (
                    self.busy,
                    self._energy_mem,
                    self._energy_pim,
                    self._energy_npu,
                    self.flops,
                )
                totals[1:] = passes[2 * i:2 * j]
                (
                    self.busy,
                    self._energy_mem,
                    self._energy_pim,
                    self._energy_npu,
                    self.flops,
                ) = np.cumsum(totals, axis=0)[-1].tolist()
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

    def _run_burst(self, until: "float | None") -> int:
        """Drain one busy period (arrival-order policy, worst-case grants,
        monolithic prefill, floor-free table, no events).

        Only admission is specialized: due arrivals move from ``pending``
        straight to ``active``, skipping the ``waiting`` queue and the
        policy hooks.  Prefills run through :meth:`_step` (its
        ``_mono_fast`` shortcut always holds here) and all-decode stretches
        through :meth:`_macro_step`, so every float operation is the
        generic loop's and per-request results stay byte-identical.

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
            elif not self._macro_step(until):
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
        """The object engine's ``_grow_batch`` over rows: grants route
        through the accountant (shared pages never grow), and with the
        swap tier a victim's pages move to host DRAM instead of being
        thrown away — preempting a swapped row stays the last resort when
        resident shared-prefix pages pin the pool."""
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
        # The object engine builds a fresh _InFlight at re-admission;
        # rows persist here, so reset the progress columns now.
        self._prefilled[victim] = 0
        self._generated[victim] = 0
        self._first[victim] = 0.0
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

    # Bound here for the same reason as ``offer`` above.
    finish = _RunLifecycle.finish

    # ------------------------------------------------------------------
    def _clear_queues(self) -> "list[Request]":
        """Empty every queue for ``fail``; the rows return to the free list."""
        rows = [*self.active, *self.swapped, *self.waiting, *self.pending]
        lost = [self._request(row) for row in rows]
        self._free.extend(rows)
        self.active.clear()
        self.swapped.clear()
        self.waiting.clear()
        self.pending.clear()
        self._num_prefilling = 0
        self._outstanding = 0
        return lost
