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
:class:`~repro.serving.decode_table.DecodeCostTable` built once per
(model, backend, anchor grid) by the cost provider: the inner loop reads
plain Python floats out of dense lists and never touches the cost model.
Table entries are bit-identical to ``provider.decode``, so per-iteration
stepping reproduces the object engine's floating-point results *exactly*.

**Macro-stepping.**  When every active request is decoding, the batch
membership is provably stable until the next completion (admission caps
``len(active)`` at the policy's concurrency gate, so every policy's batch
is the whole active set), and the fused-batch floors provably never bind
(:attr:`~repro.serving.decode_table.DecodeCostTable.floor_free`).  The
engine then executes *k* decode iterations in O(B) arithmetic from the
table's prefix sums — clock, energy, FLOPs and KV growth all advance in
closed form — stopping exactly where the object engine's loop would have
changed behavior: the next completion, the next arrival that could be
admitted, the ``until`` horizon, the table edge, or a KV grant that no
longer fits (which falls back to one per-iteration step so preemption
runs the reference path).  Prefix-sum differences reorder float
additions, which is why macro-stepped aggregate metrics are pinned to
~1e-9 instead of bit-identical; ``record_events=True`` disables
macro-stepping, and the per-iteration path then yields an event log
**bit-identical** to the object engine's (the differential suite asserts
exact equality).

**One KV ledger.**  Every run books its pages in the simulator's
:class:`~repro.serving.kv_memory.KvPageAccountant` (``self.kv``), the
same reference-counting ledger the object engine uses; its running
counters make every pool read O(1), so the per-iteration loop,
macro-steps and the burst runner all reserve, grow and release through
it.  The absorbers complete requests without ever holding their pages
and only roll its ``peak_reserved_pages`` high-water mark.  Once a run
offers a shared-prefix request (``prefix_id >= 0``), or when it has the
host-DRAM swap tier, the vectorized fast paths (absorption, bursts,
macro-stepping) stand down — their closed forms assume private pages
that never leave the device — and the per-iteration loop alone runs.

**One set of per-iteration rules.**  The per-iteration loop makes no
decision of its own: the policy's admission gate and order, prefill pick
and decode batch (over :class:`~repro.serving.simulator.RequestKeys`
readers of the row columns), the preemption victim, the fused-pass price
and the host-link transfer time are the simulator module's functions,
the same ones the object engine calls.  Only the state-bound bodies —
admit, grow, preempt, swap and step over rows — are written here, one
operation for each of the object engine's, which is why its event logs
are bit-identical to the object engine's.  The fast paths read two facts
off the policy's batching contract (:class:`~repro.serving.simulator.
ServingPolicy`): its concurrency cap ``max_batch`` and whether it serves
in queue order (``arrival_order``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from itertools import islice

import numpy as np

from repro.energy.model import EnergyBreakdown
from repro.serving.request import Request, RequestMetrics
from repro.serving.simulator import (
    RequestKeys,
    ServingMetrics,
    _check_fits_alone,
    _percentile_sorted,
    _pool_exhausted,
    _RunLifecycle,
    choose_victim,
    cost_tuple,
    fused_pass,
)

__all__ = ["ArraySimulationRun"]


class ArraySimulationRun(_RunLifecycle):
    """Columnar drop-in for :class:`~repro.serving.simulator.SimulationRun`."""

    #: Master switch for the arrival-batched underload fast path.  Class
    #: level so tests (and the differential harness) can pin the exact
    #: per-arrival reference path with a subclass or instance override.
    arrival_batching = True

    #: Use ``np.searchsorted`` for the burst runner's lone-request budget
    #: bisect (byte-identical to the scalar bisect — the prefix-sum
    #: differences are the same IEEE subtractions; the suite pins it).
    #: Instance-overridable so the pin can run both paths.
    vector_bisect = True

    def __init__(
        self,
        sim,
        record_events: bool = False,
        kv_bounds: "tuple[int, int] | None" = None,
    ) -> None:
        super().__init__(sim, record_events, kv_bounds)
        #: Fast-path gate: with the swap tier (or once a shared-prefix
        #: request is offered) the vectorized fast paths stand down and
        #: only the per-iteration loop runs (see the module docstring).
        self._exact_kv = bool(sim.swap)

        # Decode-cost table (dense lists + prefix sums); absent under
        # exact pricing or unknown KV bounds, in which case every decode
        # is priced through the provider (correct, per-iteration only).
        self._tbl_lo, self._tbl_hi = 1, 0
        self._lat = None
        self._lat_max = 0.0
        self._floor_free = False
        self._base: "tuple | None" = None
        self._np_prefix: "list | None" = None
        # Prefix-sum columns; absent on table-less runs (the absorbers
        # only index them for decode segments, which a table-less run
        # never prices in closed form — the ``plat is None`` guards).
        self._plat = self._pem = self._pep = self._pen = self._pfl = None
        if not sim.provider.exact and kv_bounds is not None:
            self._install_table(sim.provider.decode_table(*kv_bounds))

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
        # output).  They expose the buffer protocol, so the arrival
        # absorber reads a whole pending window through one zero-copy
        # ``np.frombuffer`` + fancy index instead of a Python loop.
        self._arr_t = array("d")
        self._inp_t = array("q")
        self._out_t = array("q")

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

        self._detail = sim.per_request_detail
        self.completed: list[RequestMetrics] = []
        # Pooled-only completion columns (no-detail mode): compact typed
        # arrays, converted to numpy once at finalization.
        self._done_arrival = array("d")
        self._done_first = array("d")
        self._done_completion = array("d")
        self._done_out = array("q")
        self._done_cls = array("q") if sim.slo_targets is not None else None
        # Pooled model indices (multi-model runs with SLO targets only):
        # feeds the per-(model, class) attainment table at finalization.
        self._done_mdl = (
            array("q")
            if sim.multi_model and sim.slo_targets is not None
            else None
        )
        # Bound append methods: _record_completion runs once per request.
        self._push_done = (
            self._done_arrival.append,
            self._done_first.append,
            self._done_completion.append,
            self._done_out.append,
            None if self._done_cls is None else self._done_cls.append,
        )

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
        # Multi-model residency: the per-iteration loop restricts each
        # pass to the resident model's rows and pays a weight swap when
        # the active model changes (the object engine's sticky-resident
        # scheduling over rows).  The decode table prices the
        # default model only, so a non-default resident stands the table
        # down and prices through its own provider; the base and
        # chunk-cost caches swap with the weights.
        self._multi = sim.multi_model
        if self._multi:
            self._tbl_bounds = (self._tbl_lo, self._tbl_hi)
            self._bases: dict = (
                {} if self._base is None else {sim.model.name: self._base}
            )
            self._chunks_by_model = {sim.model.name: self._chunk_costs}
            self._model_names = tuple(member.name for member in sim.models)
            self._model_pos = {
                name: position
                for position, name in enumerate(self._model_names)
            }
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
        self._absorb_ok = (
            self.arrival_batching
            and self.events is None
            and sim.chunk_tokens == 0
            and not self._exact_kv
            and not sim.multi_model
            and (self._floor_free or self._lat is None)
        )
        # _fcfs_absorb: concurrency-1 arrival-order service is a Lindley
        # recursion — queued arrivals absorb too, no isolation test.
        self._fcfs_absorb = (
            self._absorb_ok and self._arrival_order and self._policy_cap == 1
        )
        # _burst_ok: clumps of overlapping arrivals run through the
        # scalar burst runner (a specialization of the generic loop),
        # valid under arrival-order admission with worst-case KV grants
        # and a floor-free table.
        self._burst_ok = (
            self._absorb_ok
            and self._floor_free
            and self._arrival_order
            and not self._optimistic
            and self._policy_cap > 1
        )

    # ------------------------------------------------------------------
    def _install_table(self, table) -> None:
        self._tbl_lo, self._tbl_hi = table.kv_lo, table.kv_hi
        (self._lat, self._em, self._ep, self._en, self._fl) = table.columns()
        (
            self._plat,
            self._pem,
            self._pep,
            self._pen,
            self._pfl,
        ) = table.prefix_sums()
        # Numpy copies of the prefix sums (same floats: prefix_sums() is a
        # tolist() of exactly this cumsum) for the vectorized arrival
        # absorber, which prices whole windows of decode runs at once.
        self._np_prefix = []
        for column in (
            table.latency,
            table.energy_memory,
            table.energy_pim,
            table.energy_npu,
            table.flops,
        ):
            prefix = np.empty(len(column) + 1, dtype=np.float64)
            prefix[0] = 0.0
            np.cumsum(column, out=prefix[1:])
            self._np_prefix.append(prefix)
        self._floor_free = table.floor_free
        self._base = table.base
        # Largest single-iteration latency on the table: a per-step cost
        # can never exceed batch * max - shared, so macro budget caps that
        # provably cannot bind are dismissed with one multiply.
        self._lat_max = max(self._lat)

    def _base_cost(self) -> tuple:
        if self._base is None:
            self._base = cost_tuple(self._provider.base())
            if self._multi:
                self._bases[self.resident_model] = self._base
        return self._base

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
        """Bulk :meth:`offer`: same guards and ordering check, hoisted out
        of the per-request loop so streaming a megatrace does not pay a
        method call and four attribute lookups per arrival."""
        if not requests:
            return
        self._check_live("offer a request to")
        pending = self.pending
        if (
            isinstance(requests, (list, tuple))
            and len(requests) >= 512
            and not self._free
        ):
            self._offer_bulk(requests)
            return
        push = pending.append
        arr = self._arr
        inp = self._inp
        out = self._out
        arr_t = self._arr_t
        inp_t = self._inp_t
        out_t = self._out_t
        cls = self._cls
        rid = self._rid
        prefilled = self._prefilled
        generated = self._generated
        first = self._first
        pfx = self._pfx
        pft = self._pft
        mdl = self._mdl
        free = self._free
        pop = free.pop
        is_decoder = self._is_decoder
        check_servable = self.sim._check_servable
        if pending:
            last = pending[-1]
            last_key = (arr[last], rid[last])
        else:
            last_key = None
        added = 0
        outstanding = 0
        for request in requests:
            arrival = request.arrival_s
            request_id = request.request_id
            output_tokens = request.output_tokens
            if request.model or (output_tokens > 1 and not is_decoder):
                check_servable(request)
            key = (arrival, request_id)
            if last_key is not None and key < last_key:
                raise ValueError(
                    "requests must be offered in (arrival_s, request_id) order"
                )
            last_key = key
            if request.prefix_id >= 0:
                self._exact_kv = True
            input_tokens = request.input_tokens
            if free:
                row = pop()
                arr[row] = arrival
                inp[row] = input_tokens
                out[row] = output_tokens
                arr_t[row] = arrival
                inp_t[row] = input_tokens
                out_t[row] = output_tokens
                cls[row] = request.priority_class
                rid[row] = request_id
                prefilled[row] = 0
                generated[row] = 0
                first[row] = 0.0
                pfx[row] = request.prefix_id
                pft[row] = request.prefix_tokens
                mdl[row] = request.model
            else:
                row = len(arr)
                arr.append(arrival)
                inp.append(input_tokens)
                out.append(output_tokens)
                arr_t.append(arrival)
                inp_t.append(input_tokens)
                out_t.append(output_tokens)
                cls.append(request.priority_class)
                rid.append(request_id)
                prefilled.append(0)
                generated.append(0)
                first.append(0.0)
                pfx.append(request.prefix_id)
                pft.append(request.prefix_tokens)
                mdl.append(request.model)
            push(row)
            added += 1
            outstanding += input_tokens + output_tokens
            if self.first_arrival is None:
                self.first_arrival = arrival
        self.offered += added
        self._outstanding += outstanding

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
        self._arr += arrs
        self._inp += inps
        self._out += outs
        self._cls += [r.priority_class for r in requests]
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
        if self._tbl_lo <= kv <= self._tbl_hi:
            index = kv - self._tbl_lo
            return (
                self._lat[index],
                self._em[index],
                self._ep[index],
                self._en[index],
                self._fl[index],
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
        # An offer since the last advance may have brought the run's first
        # shared-prefix request; the fast paths stand down from then on.
        macro_ok = (
            self.events is None
            and self._floor_free
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
            # Macro-stepping: all-decode batches with an event-free run and
            # a floor-free table advance many iterations in O(B).
            if macro_ok and not self._num_prefilling and self._macro_step(until):
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
    def _model_of_row(self, row: int) -> str:
        """The model a row runs on ("" in a request means the default)."""
        return self._mdl[row] or self.sim.model.name

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
        caches: the decode table prices the default model only, so a
        non-default resident stands it down and prices through its own
        provider, and the base/chunk caches follow the weights.
        """
        super()._swap_model(target)
        if target == self.sim.model.name:
            self._tbl_lo, self._tbl_hi = self._tbl_bounds
        else:
            self._tbl_lo, self._tbl_hi = 1, 0
        self._base = self._bases.get(target)
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
    def _macro_step(self, until: "float | None") -> bool:
        """Advance up to the next behavior boundary in O(B) per probe.

        Returns ``False`` when this boundary cannot be macro-stepped (KV
        out of table range, or an optimistic grant that needs preemption)
        — the caller then runs one per-iteration step.
        """
        active = self.active
        batch_size = len(active)
        lo, hi = self._tbl_lo, self._tbl_hi
        inp, out, generated = self._inp, self._out, self._generated
        offsets = []
        append = offsets.append
        span = hi - lo + 1
        steps = span
        off_max = 0
        for row in active:
            offset = inp[row] + generated[row] - lo
            if offset < 0:
                return False
            append(offset)
            if offset > off_max:
                off_max = offset
            remaining = out[row] - generated[row]
            if remaining < steps:
                steps = remaining
        if steps > span - off_max:
            steps = span - off_max
        if steps < 1:
            return False

        kv = self.kv
        rid = self._rid
        optimistic = self._optimistic
        if optimistic:
            # Largest k whose total page growth fits the free pool
            # (monotone in k).  k=0 means the grant needs preemption:
            # fall back to the per-iteration path, which runs it exactly.
            # Macro-steps never run under sharing, so every held page is
            # private.
            held = [kv.held_pages(rid[row]) for row in active]
            free = kv.free_pages
            page_tokens = self._page_tokens
            kvs = [offset + lo for offset in offsets]

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
                if steps < 1:
                    return False

        base = self._base  # a table is installed whenever macros run
        shared = self._batch_share * (batch_size - 1)
        prefix_lat = self._plat
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
            steps * batch_size * self._lat_max * 1.000000001 >= budget
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
        prefix_em, prefix_ep = self._pem, self._pep
        prefix_en, prefix_fl = self._pen, self._pfl
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
            # The bisection above proved the whole growth fits, so every
            # grant succeeds; only rows crossing a page boundary call in.
            for kv_now, pages_held, row in zip(kvs, held, active):
                if -(-(kv_now + j - 1) // page_tokens) > pages_held:
                    kv.grow(rid[row], kv_now + j - 1)
        if finished is not None:
            for row in finished:
                active.remove(row)
                kv.release(rid[row])
                self._record_completion(row)
        return True

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
        if self._detail:
            progressed = False
            pending = self.pending
            while pending:
                if self._absorb_scalar(until):
                    progressed = True
                    continue
                if self._burst_ok:
                    status = self._run_burst(until)
                    if status:
                        progressed = True
                    if status == 1:
                        continue
                break
            return progressed
        progressed = False
        while self.pending:
            did, keep = self._absorb_window(until)
            progressed = progressed or did
            if not keep:
                break
        return progressed

    def _absorb_window(self, until: "float | None") -> "tuple[bool, bool]":
        """Absorb one columnar window of pending arrivals (pooled mode).

        Prices every request's whole lifetime (monolithic prefill + full
        decode run) from the table prefix sums in one vectorized shot,
        then walks the window: stretches of *isolated* requests (each one
        completing before the next arrives) are applied in closed form,
        overlapping clumps run through the scalar burst runner, and under
        concurrency-1 arrival-order policies queued stretches absorb via
        a vectorized Lindley recursion.  Returns ``(progressed,
        keep_going)``; ``keep_going`` means the whole window was consumed
        and another window may follow.
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
        if head_ok and o > 1:
            if self._np_prefix is None:
                head_ok = False
            else:
                beg = i_tok + 1 - self._tbl_lo
                if beg < 0 or beg + o - 1 > self._tbl_hi - self._tbl_lo + 1:
                    head_ok = False
                else:
                    dec = self._plat[beg + o - 1] - self._plat[beg]
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
        prefix = self._np_prefix
        if prefix is not None:
            lo = self._tbl_lo
            span = self._tbl_hi - lo + 1
            beg_v = inp + 1 - lo
            run = ~single & (beg_v >= 0) & (beg_v + steps <= span)
            eligible &= single | run
            b = np.where(run, beg_v, 0)
            e = np.where(run, beg_v + steps, 0)
            dec_lat = prefix[0][e] - prefix[0][b]
            dec_em = prefix[1][e] - prefix[1][b]
            dec_ep = prefix[2][e] - prefix[2][b]
            dec_en = prefix[3][e] - prefix[3][b]
            dec_fl = prefix[4][e] - prefix[4][b]
        else:
            eligible &= single
            dec_lat = np.zeros(take, dtype=np.float64)
            dec_em = dec_ep = dec_en = dec_fl = dec_lat
        uniq, inverse = np.unique(inp, return_inverse=True)
        chunk_cost = self._chunk_cost
        pre = np.array(
            [chunk_cost(0, int(v)) for v in uniq], dtype=np.float64
        )[inverse]
        service = pre[:, 0] + dec_lat
        fcfs = self._fcfs_absorb
        if fcfs:
            # Lindley recursion, vectorized: completion_i =
            # max(arrival_i, completion_{i-1}) + service_i, with the
            # cumulative-max rewrite c = t + cummax(a - t_prev) over the
            # service prefix sums t.  The recursion seeds from the clock
            # (completion_{-1} = self.clock): across window boundaries
            # the previous window's tail may still be in service when
            # this window's head arrived.
            totals = np.cumsum(service)
            slack = a - totals
            slack += service
            if slack[0] < self.clock:
                slack[0] = self.clock
            completion = totals + np.maximum.accumulate(slack)
            first = completion - dec_lat
            if until is not None:
                eligible &= completion <= until
        else:
            first = a + pre[:, 0]
            completion = first + dec_lat
            if until is not None:
                eligible &= completion <= until
            # Isolation: the request must complete before the next
            # arrival lands (ties allowed — an arrival exactly at the
            # completion instant never joins the batch).
            nxt = np.empty(take, dtype=np.float64)
            nxt[: take - 1] = a[1:]
            nxt[take - 1] = arr[peek] if peek >= 0 else np.inf
            eligible &= completion <= nxt
        bad = np.flatnonzero(~eligible).tolist()
        mask = np.zeros(take, dtype=bool)
        burst_ok = self._burst_ok
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
            self.busy += float(service[idx].sum())
            self._energy_mem += float(pre[idx, 1].sum() + dec_em[idx].sum())
            self._energy_pim += float(pre[idx, 2].sum() + dec_ep[idx].sum())
            self._energy_npu += float(pre[idx, 3].sum() + dec_en[idx].sum())
            self.flops += float(pre[idx, 4].sum() + dec_fl[idx].sum())
            self._done_arrival.frombytes(a[idx].tobytes())
            self._done_first.frombytes(first[idx].tobytes())
            self._done_completion.frombytes(completion[idx].tobytes())
            self._done_out.frombytes(out[idx].tobytes())
            if self._done_cls is not None:
                cls_col = self._cls
                self._done_cls.extend([cls_col[r] for r in rows[idx]])
            self._free.extend(rows[idx].tolist())
        keep = (not aborted) and i >= take and bool(pending)
        return (k > 0 or i > 0), keep

    def _absorb_scalar(self, until: "float | None") -> int:
        """Absorb the maximal stretch of head arrivals, one scalar closed
        form per request (detail mode).

        Every float operation matches the per-arrival path's operation
        sequence on the same values, so recorded per-request metrics are
        byte-identical to the generic loop's.
        """
        pending = self.pending
        arr, inp_col, out_col = self._arr, self._inp, self._out
        plat = self._plat
        pem, pep, pen, pfl = self._pem, self._pep, self._pen, self._pfl
        lo = self._tbl_lo
        span = self._tbl_hi - lo + 1
        kv = self.kv
        page_tokens = self._page_tokens
        pool_pages = kv.total_pages
        optimistic = self._optimistic
        fcfs = self._fcfs_absorb
        chunk_costs = self._chunk_costs
        chunk_cost = self._chunk_cost
        clock = self.clock
        count = 0
        while pending:
            row = pending[0]
            a = arr[row]
            if not fcfs and a < clock:
                break  # overlapping clump: the burst runner's regime
            i_tok = inp_col[row]
            o = out_col[row]
            total_pages = -(-(i_tok + o) // page_tokens)
            if total_pages > pool_pages:
                break  # the generic path raises the diagnostic
            if o > 1:
                beg = i_tok + 1 - lo
                end = beg + o - 1
                if plat is None or beg < 0 or end > span:
                    break
                dec_lat = plat[end] - plat[beg]
            else:
                dec_lat = 0.0
            pre = chunk_costs.get((0, i_tok))
            if pre is None:
                pre = chunk_cost(0, i_tok)
            start = a if a > clock else clock
            first = start + pre[0]
            completion = first + dec_lat
            if until is not None and completion > until:
                break
            if not fcfs and len(pending) > 1 and arr[pending[1]] < completion:
                break
            pending.popleft()
            self.busy += pre[0]
            self._energy_mem += pre[1]
            self._energy_pim += pre[2]
            self._energy_npu += pre[3]
            self.flops += pre[4]
            self.prefill_passes += 1
            self._outstanding -= i_tok + 1
            if o > 1:
                self.busy += dec_lat
                self._energy_mem += pem[end] - pem[beg]
                self._energy_pim += pep[end] - pep[beg]
                self._energy_npu += pen[end] - pen[beg]
                self.flops += pfl[end] - pfl[beg]
                self.decode_passes += o - 1
                self.decode_tokens += o - 1
                self._outstanding -= o - 1
                peak_pages = (
                    -(-(i_tok + o - 1) // page_tokens)
                    if optimistic
                    else total_pages
                )
            else:
                peak_pages = (
                    -(-i_tok // page_tokens) if optimistic else total_pages
                )
            if peak_pages > kv.peak_reserved_pages:
                kv.peak_reserved_pages = peak_pages
            self.admissions += 1
            if not self.peak_active:
                self.peak_active = 1
            clock = completion
            self.clock = completion
            self._first[row] = first
            self._record_completion(row)
            count += 1
        return count

    def _run_burst(self, until: "float | None") -> int:
        """Drain one busy period with a scalar specialization of the
        generic loop (arrival-order policy, worst-case grants, monolithic
        prefill, floor-free table, no events).

        Returns 0 (no state change), 1 (period drained, device idle
        again), or 2 (progressed, then hit a condition the generic loop
        must handle: the ``until`` horizon, a KV block, an off-table or
        oversized request).  Every float operation matches the generic
        path's, so detail-mode results stay byte-identical.
        """
        pending = self.pending
        arr, inp_col, out_col = self._arr, self._inp, self._out
        generated = self._generated
        rid = self._rid
        active = self.active
        kv = self.kv
        page_tokens = self._page_tokens
        cap = self._policy_cap
        lo = self._tbl_lo
        span = self._tbl_hi - lo + 1
        plat = self._plat
        pem, pep, pen, pfl = self._pem, self._pep, self._pen, self._pfl
        lat_max = self._lat_max * 1.000000001
        base = self._base
        share_unit = self._batch_share
        base_lat = base[0]
        chunk_costs = self._chunk_costs
        chunk_cost = self._chunk_cost
        clock = self.clock
        busy = self.busy
        e_mem = self._energy_mem
        e_pim = self._energy_pim
        e_npu = self._energy_npu
        flops = self.flops
        prefill_passes = 0
        decode_passes = 0
        decode_tokens = 0
        admissions = 0
        outstanding = 0
        num_pref = 0
        progressed = False
        result = 1

        nxt_a = arr[pending[0]]
        if until is not None and nxt_a >= until:
            return 0
        if nxt_a > clock:
            clock = nxt_a  # the generic loop's idle jump
        while True:
            if until is not None and clock >= until:
                result = 2
                break
            # Admit every due arrival up to the cap (worst-case grants),
            # exactly as the generic loop-top + _admit would.
            bail = False
            while pending and len(active) < cap:
                row = pending[0]
                if arr[row] > clock:
                    break
                o = out_col[row]
                i_tok = inp_col[row]
                total_pages = -(-(i_tok + o) // page_tokens)
                if total_pages > kv.total_pages:
                    bail = True  # generic path raises the diagnostic
                    break
                if o > 1:
                    beg = i_tok + 1 - lo
                    if beg < 0 or beg + o - 1 > span:
                        bail = True  # off-table: per-iteration pricing
                        break
                if total_pages > kv.free_pages:
                    bail = True  # KV-blocked: generic loop stalls it
                    break
                pending.popleft()
                kv.reserve(rid[row], i_tok + o)
                active.append(row)
                num_pref += 1
                admissions += 1
                progressed = True
                if len(active) > self.peak_active:
                    self.peak_active = len(active)
            if bail:
                result = 2 if progressed else 0
                break
            if num_pref:
                # Head prefilling row: arrival-order, so first in active.
                row = -1
                for r in active:
                    if generated[r] == 0:
                        row = r
                        break
                i_tok = inp_col[row]
                pre = chunk_costs.get((0, i_tok))
                if pre is None:
                    pre = chunk_cost(0, i_tok)
                clock += pre[0]
                busy += pre[0]
                e_mem += pre[1]
                e_pim += pre[2]
                e_npu += pre[3]
                flops += pre[4]
                prefill_passes += 1
                generated[row] = 1
                num_pref -= 1
                outstanding += i_tok + 1
                self._first[row] = clock
                if out_col[row] <= 1:
                    active.remove(row)
                    kv.release(rid[row])
                    self.clock = clock
                    self._record_completion(row)
                continue
            if not active:
                break  # busy period drained; result stays 1
            # All-decode macro segment: same expressions, same order as
            # _macro_step's worst-case branch.
            batch_size = len(active)
            steps = span
            off_max = 0
            offsets = []
            oappend = offsets.append
            for r in active:
                off = inp_col[r] + generated[r] - lo
                oappend(off)
                if off > off_max:
                    off_max = off
                rem = out_col[r] - generated[r]
                if rem < steps:
                    steps = rem
            if steps > span - off_max:
                steps = span - off_max
            if steps < 1:
                result = 2
                break
            shared = share_unit * (batch_size - 1)
            shared_lat = shared * base_lat
            budget = None if until is None else until - clock
            if pending and batch_size < cap:
                arrival_budget = arr[pending[0]] - clock
                if budget is None or arrival_budget < budget:
                    budget = arrival_budget
            if budget is not None and steps * batch_size * lat_max >= budget:
                if batch_size == 1 and self.vector_bisect:
                    # Lone request: shared_lat is exactly 0.0, so
                    # elapsed(j) is the plain prefix-sum difference
                    # plat[off + j] - plat[off] and the scalar bisect's
                    # answer — the smallest j with elapsed(j) >= budget —
                    # is one vectorized subtract + searchsorted away.
                    # Same IEEE ops on the same floats (the numpy prefix
                    # copies hold the cumsum prefix_sums() listified), so
                    # the cut lands on the same step: byte-identical.
                    off = offsets[0]
                    lat_start = plat[off]
                    if plat[off + steps] - lat_start >= budget:
                        diffs = (
                            self._np_prefix[0][off : off + steps + 1]
                            - lat_start
                        )
                        steps = int(
                            np.searchsorted(diffs, budget, side="left")
                        )
                else:
                    lat_start = 0.0
                    total = 0.0
                    for off in offsets:
                        lat_start += plat[off]
                        total += plat[off + steps]
                    if total - lat_start - steps * shared_lat >= budget:
                        low, high = 0, steps
                        while high - low > 1:
                            mid = (low + high) // 2
                            elapsed = 0.0
                            for off in offsets:
                                elapsed += plat[off + mid]
                            elapsed = elapsed - lat_start - mid * shared_lat
                            if elapsed < budget:
                                low = mid
                            else:
                                high = mid
                        steps = high
            j = steps
            sum_lat = 0.0
            sum_em = 0.0
            sum_ep = 0.0
            sum_en = 0.0
            sum_fl = 0.0
            finished = None
            for off, r in zip(offsets, active):
                off_j = off + j
                sum_lat += plat[off_j] - plat[off]
                sum_em += pem[off_j] - pem[off]
                sum_ep += pep[off_j] - pep[off]
                sum_en += pen[off_j] - pen[off]
                sum_fl += pfl[off_j] - pfl[off]
                new_generated = generated[r] + j
                generated[r] = new_generated
                if new_generated >= out_col[r]:
                    if finished is None:
                        finished = [r]
                    else:
                        finished.append(r)
            delta = sum_lat - j * shared_lat
            clock += delta
            busy += delta
            e_mem += sum_em - j * shared * base[1]
            e_pim += sum_ep - j * shared * base[2]
            e_npu += sum_en - j * shared * base[3]
            flops += sum_fl
            decode_passes += j
            decode_tokens += j * batch_size
            outstanding += j * batch_size
            progressed = True
            if finished is not None:
                self.clock = clock
                for r in finished:
                    active.remove(r)
                    kv.release(rid[r])
                    self._record_completion(r)

        if not progressed:
            return 0
        self.clock = clock
        self.busy = busy
        self._energy_mem = e_mem
        self._energy_pim = e_pim
        self._energy_npu = e_npu
        self.flops = flops
        self.prefill_passes += prefill_passes
        self.decode_passes += decode_passes
        self.decode_tokens += decode_tokens
        self.admissions += admissions
        self._outstanding -= outstanding
        self._num_prefilling = num_pref
        return result

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
    # Completion recording and finalization
    # ------------------------------------------------------------------
    def _record_completion(self, row: int) -> None:
        if self._detail:
            sim = self.sim
            slo_s = 0.0
            if sim.slo_targets:
                index = min(self._cls[row], len(sim.slo_targets) - 1)
                slo_s = sim.slo_targets[index]
            self.completed.append(
                RequestMetrics(
                    request_id=self._rid[row],
                    arrival_s=self._arr[row],
                    first_token_s=self._first[row],
                    completion_s=self.clock,
                    input_tokens=self._inp[row],
                    output_tokens=self._out[row],
                    priority_class=self._cls[row],
                    slo_s=slo_s,
                    model=self._mdl[row],
                )
            )
        else:
            push_arr, push_first, push_done, push_out, push_cls = self._push_done
            push_arr(self._arr[row])
            push_first(self._first[row])
            push_done(self.clock)
            push_out(self._out[row])
            if push_cls is not None:
                push_cls(self._cls[row])
            if self._done_mdl is not None:
                self._done_mdl.append(
                    self._model_pos[self._mdl[row] or self.sim.model.name]
                )
        self._free.append(row)

    # Bound here for the same reason as ``offer`` above.
    finish = _RunLifecycle.finish

    def _finalize(self, makespan: float) -> ServingMetrics:
        """The run's metrics; without per-request detail, pool the
        request-level metrics straight from the completion columns
        (numpy), then build the metrics through the simulator's one
        ``_finalize`` path.

        Same aggregate formulas as :func:`~repro.serving.simulator.
        request_aggregates` (the percentile rule included) without building
        a :class:`RequestMetrics` per request — at 1e6 requests that object
        churn costs more than the simulation itself.  Means stay numpy's
        (pairwise) sums, which pooled runs have always reported.
        """
        if self._detail:
            return super()._finalize(makespan)
        sim = self.sim
        arrival = np.asarray(self._done_arrival)
        first = np.asarray(self._done_first)
        completion = np.asarray(self._done_completion)
        out = np.asarray(self._done_out)
        count = int(arrival.size)
        latencies = completion - arrival
        ttfts = first - arrival
        multi = out > 1
        tpots = (
            (completion[multi] - first[multi]) / (out[multi] - 1)
            if count
            else np.empty(0)
        )

        def pooled_mean(values) -> float:
            return float(values.mean()) if values.size else 0.0

        def pooled_percentile(ordered, q: float) -> float:
            return float(_percentile_sorted(ordered, q))

        slo_attainment: "float | None" = None
        slo_by_class: dict[str, float] = {}
        slo_by_model_class: dict[str, float] = {}
        if sim.slo_targets is not None:
            if count:
                classes = np.asarray(self._done_cls)
                targets = np.asarray(sim.slo_targets, dtype=np.float64)
                slo = targets[np.minimum(classes, len(targets) - 1)]
                met = latencies <= slo
                slo_attainment = float(met.mean())
                slo_by_class = {
                    str(int(cls)): float(met[classes == cls].mean())
                    for cls in np.unique(classes)
                }
                if self._done_mdl is not None:
                    names = self._model_names
                    model_idx = np.asarray(self._done_mdl)
                    pairs = sorted(
                        {
                            (names[int(m)], int(c))
                            for m, c in zip(model_idx, classes)
                        }
                    )
                    slo_by_model_class = {
                        f"{name}/{cls}": float(
                            met[
                                (model_idx == self._model_pos[name])
                                & (classes == cls)
                            ].mean()
                        )
                        for name, cls in pairs
                    }
            else:
                slo_attainment = 1.0

        ordered_latencies = np.sort(latencies)
        ordered_ttfts = np.sort(ttfts)
        return sim._finalize(
            self,
            makespan,
            {
                "num_requests": count,
                "output_tokens": int(out.sum()) if count else 0,
                "latency_mean_s": pooled_mean(latencies),
                "latency_p50_s": pooled_percentile(ordered_latencies, 50.0),
                "latency_p99_s": pooled_percentile(ordered_latencies, 99.0),
                "ttft_mean_s": pooled_mean(ttfts),
                "ttft_p50_s": pooled_percentile(ordered_ttfts, 50.0),
                "ttft_p99_s": pooled_percentile(ordered_ttfts, 99.0),
                "tpot_mean_s": pooled_mean(tpots),
                "slo_attainment": slo_attainment,
                "slo_by_class": slo_by_class,
                "slo_by_model_class": slo_by_model_class,
            },
        )

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
