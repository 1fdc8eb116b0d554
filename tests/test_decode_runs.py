"""Exact decode runs of the array engine.

``ArraySimulationRun._decode_run``, the one all-decode stepper, advances
a stable all-decode batch to its next behavior boundary in one call.
Simulated time and energy are integers (picoseconds, picojoules), so it
may price a run from the table's prefix sums where no fused-pass floor
binds (stopping where ``_bulk_stop`` finds) and per iteration otherwise
(``_price_run``: numpy int64 and one ``cumsum``), and must change no
number at all:

* on synthetic integer tables (binding floors, members sharing an offset,
  all-zero columns, magnitudes from 1 to 1e12, one to 16 members,
  thresholds before, inside and past the run) ``_price_run`` (two or
  more members) returns, with ``==``, the steps, totals and latencies of
  calling ``fused_pass`` once per iteration, all as Python ints; where no
  floor binds, ``_bulk_stop`` stops where the steps do and the prefix
  sums less the floors give the same totals;
* totals a numpy path would compute past int64 raise ``OverflowError``
  instead of wrapping: a decode table's prefix sums, a decode run's
  totals and an absorbed window's completions, under a cost model with
  huge prices;
* over generated configurations (policy, admission, preemption, swap,
  prefix sharing, chunked prefill, co-hosted models, KV budget, one-shot,
  streamed and clustered runs) every metric and per-request row equals,
  with ``==``, the same run with the decode runs switched off; where no
  other fast path runs (an event log, the swap tier, co-hosted models,
  or a one-shot trace with shared prefixes) it also equals the object
  engine, with per-request detail on or off;
* with an event log, each run records one ``decode_run`` event, and
  ``expand_runs`` of the log equals, with ``==``, the per-iteration log
  of the same run with the decode runs switched off (and the object
  engine's); the cluster KV peak reads the same off either log;
* on the regimes it exists for (overload, shared prefixes, host swap;
  an evented fleet with failures and autoscaling) it must keep carrying
  the decode passes, or the speed it buys is gone;
* the closed-form replay of a ``decode_run`` gives the verdict its
  steps would get, on clean logs and on forged ones.

The decode runs are switched off by monkeypatching the method, as the
engine has no knob for them.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.costmodel import make_cost_model
from repro.models import get_model
from repro.serving import (
    ROUTERS,
    ClusterSimulator,
    DiurnalCurve,
    SeededFailures,
    ServingSimulator,
    check_cluster_invariants,
    check_invariants,
    cluster_kv_peak,
    decode_kv_bounds,
    get_trace_generator,
    make_autoscaler,
    make_policy,
    mean_service_time_s,
)
from repro.core.costmodel import PassCost
from repro.energy.model import EnergyBreakdown
from repro.models.workload import Stage
from repro.serving.array_engine import ArraySimulationRun, _bulk_stop, _price_run
from repro.serving.decode_table import build_decode_table
from repro.serving.request import Request
from repro.serving.simulator import PassCostProvider, fused_pass, shared_floor
from repro.serving.validate import expand_runs

COST_MODEL = make_cost_model("ianus")
MODEL = get_model("gpt2-xl")
MODEL_SET = (MODEL, get_model("gemma-1b"))
MODEL_MIX = [(MODEL.name, 0.6), ("gemma-1b", 0.4)]


def _no_decode_runs(self, until):
    return False


@st.composite
def serving_configs(draw) -> dict:
    admission = draw(st.sampled_from(("worst-case", "optimistic")))
    mode = draw(st.sampled_from(("simulate", "stream", "cluster")))
    return {
        "policy": draw(st.sampled_from(
            ("fcfs", "interleaved", "srpt", "priority", "priority-shares")
        )),
        "admission": admission,
        "preempt": draw(st.booleans()),
        "swap": admission == "optimistic" and draw(st.booleans()),
        "prefix_share": draw(st.sampled_from((0.0, 0.5))),
        "chunk_tokens": draw(st.sampled_from((0, 48))),
        "batch_share": draw(st.sampled_from((1.0, 0.6))),
        "multi": draw(st.booleans()),
        "kv_fraction": draw(st.sampled_from((0.06, 0.12, 1.0))),
        "mode": mode,
        "replicas": draw(st.integers(min_value=2, max_value=3)),
        "router": draw(st.sampled_from(tuple(ROUTERS))),
        "detail": draw(st.booleans()),
        "record_events": draw(st.booleans()),
        "load": draw(st.sampled_from((0.5, 1.0, 2.0))),
        "requests": draw(st.integers(min_value=8, max_value=60)),
        "chunk": draw(st.integers(min_value=1, max_value=9)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def _trace(config: dict) -> tuple:
    generator = get_trace_generator("chatbot")
    service_s = mean_service_time_s(COST_MODEL, MODEL, generator.workloads)
    priority = config["policy"].startswith("priority")
    return generator.generate(
        config["requests"], config["load"] / service_s, seed=config["seed"],
        num_classes=2 if priority else 1,
        prefix_share=config["prefix_share"],
        prefix_tokens=64 if config["prefix_share"] else None,
        prefix_groups=2,
        model_mix=MODEL_MIX if config["multi"] else None,
    )


def _serve(config: dict, trace: tuple, engine: str):
    """``((to_dict(), per-request rows), event logs)`` of one run, or
    ``((error name, message), None)`` when it raised; the logs are
    ``None`` without ``record_events`` too."""
    priority = config["policy"].startswith("priority")
    policy = (
        make_policy("priority", max_batch=4, class_shares=(0.5, 0.25))
        if config["policy"] == "priority-shares"
        else config["policy"]
    )
    kwargs = dict(
        policy=policy, per_request_detail=config["detail"],
        admission=config["admission"],
        preempt=config["preempt"], swap=config["swap"],
        chunk_tokens=config["chunk_tokens"],
        batch_share=config["batch_share"], kv_fraction=config["kv_fraction"],
        slo_targets=(0.5, 2.0) if priority else (2.0,),
        num_classes=2 if priority else None,
        models=MODEL_SET if config["multi"] else None, engine=engine,
    )
    record_events = config["record_events"]
    try:
        if config["mode"] == "cluster":
            cluster = ClusterSimulator(
                COST_MODEL, MODEL, num_replicas=config["replicas"],
                router=config["router"], **kwargs,
            )
            metrics = cluster.simulate(trace, record_events=record_events)
            rows = [replica.per_request for replica in metrics.per_replica]
            logs = cluster.events if record_events else None
            return (metrics.to_dict(), rows), logs
        simulator = ServingSimulator(COST_MODEL, MODEL, **kwargs)
        if config["mode"] == "stream":
            # simulate_stream's loop, on a run that may record events.
            size = config["chunk"]
            run = simulator.begin(
                record_events=record_events, kv_bounds=decode_kv_bounds(trace)
            )
            for start in range(0, len(trace), size):
                chunk = trace[start:start + size]
                run.offer_many(chunk)
                run.advance_until(chunk[-1].arrival_s)
            metrics = run.finish()
            events = run.events
        else:
            metrics = simulator.simulate(trace, record_events=record_events)
            events = simulator.events
        logs = [events] if record_events else None
        return (metrics.to_dict(), metrics.per_request), logs
    except (ValueError, RuntimeError) as error:
        return (type(error).__name__, str(error)), None


#: serve-kv's regime at a small scale: a member whose next page does not
#: fit gets a victim only while a swapped row can be preempted.
SERVE_KV = {
    "policy": "interleaved", "admission": "optimistic", "preempt": False,
    "swap": True, "prefix_share": 0.5, "chunk_tokens": 0, "batch_share": 1.0,
    "multi": False, "kv_fraction": 0.06, "mode": "simulate", "replicas": 2,
    "router": "round-robin", "detail": True, "record_events": False,
    "load": 2.0, "requests": 40, "chunk": 1, "seed": 0,
}


# The examples pin the two victims a stalled member is rarely offered: a
# swapped row (serve-kv) and another model's active row (co-hosting),
# and serve-kv's regime once more with an event log (its page grants run
# alone).
@given(config=serving_configs())
@example(config=SERVE_KV)
@example(config=dict(
    SERVE_KV, preempt=True, swap=False, prefix_share=0.0, multi=True,
))
@example(config=dict(SERVE_KV, record_events=True))
@settings(max_examples=60, deadline=None)
def test_decode_runs_change_no_number(config):
    trace = _trace(config)
    fast, logs = _serve(config, trace, "array")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ArraySimulationRun, "_decode_run", _no_decode_runs)
        stepped, stepped_logs = _serve(config, trace, "array")
    assert fast == stepped
    expanded = None
    if logs is not None:
        expanded = [expand_runs(log) for log in logs]
        assert expanded == stepped_logs
        # A run's reservation holds at every iteration, so the merged
        # peak reads the same off the aggregated logs.
        assert cluster_kv_peak(logs) == cluster_kv_peak(expanded)
    # Only the per-iteration loop and the decode runs serve these
    # configurations from the first offer on (an event log stands every
    # other fast path down), so the object engine's numbers are the same
    # ones.
    shared = config["mode"] == "simulate" and any(
        request.prefix_id >= 0 for request in trace
    )
    if config["record_events"] or config["swap"] or config["multi"] or shared:
        reference, reference_logs = _serve(config, trace, "object")
        assert reference == fast
        assert reference_logs == expanded


@given(config=serving_configs())
@settings(max_examples=40, deadline=None)
def test_detail_only_chooses_the_returned_rows(config):
    """``per_request_detail`` decides whether the rows come back and
    nothing else: every other field is the same number either way."""
    trace = _trace(config)
    on, on_logs = _serve(dict(config, detail=True), trace, "array")
    off, off_logs = _serve(dict(config, detail=False), trace, "array")
    assert on_logs == off_logs
    if isinstance(on[0], dict) and isinstance(off[0], dict):
        assert not any(off[1])
        on, off = on[0], off[0]
        del on["per_request"], off["per_request"]
    assert on == off


# ----------------------------------------------------------------------
# One run's price equals fused_pass, iteration by iteration
# ----------------------------------------------------------------------
#: Column and total magnitudes: an all-zero column, or values up to one
#: of these scales (in picoseconds, picojoules or FLOPs).
MAGNITUDES = (0, 1, 10**3, 10**6, 10**9, 10**12)

#: The five cost columns' names, in ``cost_tuple`` order.
COLUMNS = ("latency", "energy_memory", "energy_pim", "energy_npu", "flops")


def _synthetic_table(rows: "list[tuple]", base: tuple) -> SimpleNamespace:
    """What the pricers read of a decode table, built from integer rows as
    ``build_decode_table`` builds it."""
    columns = list(zip(*rows))
    matrix = np.array(rows, dtype=np.int64)
    matrix.setflags(write=False)
    prefixes = [tuple(accumulate(column, initial=0)) for column in columns]
    return SimpleNamespace(
        columns=matrix,
        **dict(zip(COLUMNS, columns)),
        prefix_latency=prefixes[0],
        prefix_energy=tuple(map(sum, zip(*prefixes[1:4]))),
        prefix_flops=prefixes[4],
        base=base,
        latency_max=max(columns[0]),
        floor_free=min(columns[0]) > 0
        and all(
            min(column) >= round(floor) for column, floor in zip(columns, base[:4])
        ),
    )


@st.composite
def priced_runs(draw) -> dict:
    """A synthetic decode table and one run over it.  A column is all
    zeros or spans one magnitude; the floor is zero, at most every value,
    inside the values or above them all (where it binds on every
    multi-member iteration); members may share an offset; the threshold
    is absent, a fraction of the run's span (before its start up to past
    its end) or one of its exact clocks."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = draw(st.integers(min_value=1, max_value=16))
    steps = draw(st.integers(min_value=1, max_value=48))
    count = steps + draw(st.integers(min_value=0, max_value=24))
    scales = [draw(st.sampled_from(MAGNITUDES)) for _ in range(5)]
    rows = [tuple(rng.randrange(scale + 1) for scale in scales) for _ in range(count)]
    floor = draw(st.sampled_from((0.0, "min", 0.5, 1.0, 2.0)))
    if floor == "min":
        # The columns' minima, or a backend's unrounded price just below
        # or just above them (where shared_floor's cap keeps it free).
        nudge = draw(st.sampled_from((0, -0.4, 0.3)))
        base = tuple(max(low + nudge, 0) for low in map(min, zip(*rows)))
    else:
        base = tuple(round(floor * scale) for scale in scales)
    distinct = draw(st.integers(min_value=1, max_value=size))
    pool = [rng.randrange(count - steps + 1) for _ in range(distinct)]
    return {
        "table": _synthetic_table(rows, base),
        "offsets": [rng.choice(pool) for _ in range(size)],
        "steps": steps,
        "share": draw(st.sampled_from((1.0, 0.6, 0.0))),
        "totals": tuple(
            rng.randrange(draw(st.sampled_from(MAGNITUDES)) + 1) for _ in range(4)
        ),
        "threshold": draw(st.one_of(
            st.none(),
            st.floats(min_value=-0.1, max_value=1.2),
            st.integers(min_value=0, max_value=steps - 1),
        )),
    }


def _priced_by_steps(table, offsets, steps, share, totals, threshold):
    """The run iteration by iteration: one ``fused_pass`` over the
    members' cost tuples, added into the clock, busy time, energy and
    FLOPs, stopping after the first iteration whose clock reaches
    ``threshold``."""
    costs = list(zip(
        table.latency, table.energy_memory, table.energy_pim,
        table.energy_npu, table.flops,
    ))
    clock, busy, energy, flops = totals
    latencies = []
    for j in range(steps):
        cost = fused_pass(
            None, [costs[offset + j] for offset in offsets], share,
            lambda: table.base,
        )
        clock += cost[0]
        busy += cost[0]
        energy += cost[1] + cost[2] + cost[3]
        flops += cost[4]
        latencies.append(cost[0])
        if threshold is not None and clock >= threshold:
            break
    return len(latencies), [clock, busy, energy, flops], latencies


@given(run=priced_runs())
@settings(max_examples=400, deadline=None)
def test_a_run_is_priced_as_its_steps(run):
    table, offsets, steps = run["table"], run["offsets"], run["steps"]
    share, totals, threshold = run["share"], run["totals"], run["threshold"]
    if threshold is not None:
        # Place the threshold on this run's own clock sequence: a float
        # is a fraction of its span, an integer one of its exact clocks.
        unbounded = _priced_by_steps(table, offsets, steps, share, totals, None)
        clocks = list(accumulate(unbounded[2], initial=totals[0]))
        if isinstance(threshold, int):
            threshold = clocks[threshold + 1]
        else:
            threshold = totals[0] + round(threshold * (clocks[-1] - totals[0]))
    expected = _priced_by_steps(table, offsets, steps, share, totals, threshold)
    floor = shared_floor(share * (len(offsets) - 1), table.base)
    if len(offsets) > 1:
        priced = _price_run(table, offsets, steps, floor, totals, threshold)
        assert (priced[0], priced[1], priced[2]) == expected
        assert all(type(value) is int for value in (*priced[1], *priced[2]))
    if len(offsets) == 1 or table.floor_free:
        # Where no floor binds, a run costs its members' prefix-sum
        # differences less one floor per iteration.
        ran = steps
        if threshold is not None:
            ran = _bulk_stop(table, offsets, steps, floor[0], threshold - totals[0])
        assert ran == expected[0]
        spent = [
            sum(prefix[offset + ran] - prefix[offset] for offset in offsets)
            - ran * floor_part
            for prefix, floor_part in zip(
                (table.prefix_latency, table.prefix_energy, table.prefix_flops),
                (floor[0], floor[1] + floor[2] + floor[3], 0),
            )
        ]
        assert [
            total + cost for total, cost in zip(totals, (spent[0], *spent))
        ] == expected[1]


def test_a_floor_rounds_once_but_never_past_the_rounded_bases():
    # Two riders at 10.6 ticks: 21.2 rounds to 21, under the 22 of two
    # rounded bases.  At 10.4 ticks 20.8 would round to 21, past the 20
    # the riders pay, and bind on a column that stays at its base.
    assert shared_floor(2.0, (10.6, 10.4, 0.0, 7.0)) == (21, 20, 0, 14)
    assert shared_floor(1.5, (10.6, 10.4, 0.0, 7.0)) == (16, 15, 0, 10)


class HugePrices:
    """A backend whose every pass takes 10^6 s (10^18 ps) and as many
    joules, so a few passes add up past int64."""

    name = "huge-prices"

    def pass_cost(self, model, stage_pass) -> PassCost:
        seconds = 1e6 * (1 + stage_pass.kv_length / 1e3)
        if stage_pass.stage is Stage.SUMMARIZATION:
            seconds = 1e6
        return PassCost(
            latency_s=seconds,
            breakdown={"huge": seconds},
            energy=EnergyBreakdown(seconds / 3, seconds / 3, seconds / 3),
            flops=1e6,
        )

    def cache_stats(self) -> dict:
        return {}


class TestInt64Bounds:
    """Numpy's int64 wraps silently; every numpy path raises instead."""

    def test_table_prefix_sums_past_int64_raise(self):
        provider = PassCostProvider(HugePrices(), MODEL)
        # Each entry fits (about 1e18 ps); sixteen of them do not.
        with pytest.raises(OverflowError, match="decode table prefix sums"):
            build_decode_table(provider, 10, 25)

    def test_decode_run_totals_past_int64_raise(self):
        table = build_decode_table(PassCostProvider(HugePrices(), MODEL), 10, 14)
        floor = shared_floor(0.0, table.base)
        totals = (0,) * 4
        assert _price_run(table, [0, 1], 2, floor, totals, None)[0] == 2
        # From a clock of 5e18 ps, two members' four iterations (8e18 ps)
        # would pass int64.
        late = (5 * 10**18,) + totals[1:]
        with pytest.raises(OverflowError, match="decode run's totals"):
            _price_run(table, [0, 1], 4, floor, late, None)

    @pytest.mark.parametrize("policy", ["interleaved", "fcfs"])
    def test_absorbed_window_past_int64_raises(self, policy):
        # One prefill of 1e6 s from an arrival at 9e6 s ends past the
        # 9.2e18 ps of int64 (about 106 days), in the isolated-stretch
        # branch and in FCFS's Lindley closed form alike.
        simulator = ServingSimulator(
            HugePrices(), MODEL, engine="array", policy=policy
        )
        with pytest.raises(OverflowError, match="absorbed window"):
            simulator.simulate([Request(0, 9.0e6, 16, 1)])


def test_decode_runs_carry_the_overloaded_shared_prefix_regime():
    # serve-kv's configuration: 2x overload, half the requests sharing a
    # 64-token prefix, optimistic admission with host swap.  The KV pool
    # binds long before the batch cap, so nearly every decode pass runs
    # in a stable all-decode stretch.
    generator = get_trace_generator("chatbot")
    service_s = mean_service_time_s(COST_MODEL, MODEL, generator.workloads)
    trace = generator.generate(
        150, 2.0 / service_s, seed=3, prefix_share=0.5, prefix_tokens=64,
        prefix_groups=2,
    )
    simulator = ServingSimulator(
        COST_MODEL, MODEL, engine="array", policy="interleaved", max_batch=8,
        kv_fraction=0.06, admission="optimistic", swap=True, link_gbps=16.0,
    )
    carried = [0]
    decode_run = ArraySimulationRun._decode_run

    def counted(self, until):
        before = self.decode_passes
        ran = decode_run(self, until)
        carried[0] += self.decode_passes - before
        return ran

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ArraySimulationRun, "_decode_run", counted)
        metrics = simulator.simulate(trace)
    assert metrics.swap_outs > 0
    assert carried[0] >= 0.97 * metrics.decode_passes, (
        f"decode runs carried {carried[0]} of {metrics.decode_passes} passes"
    )


#: fleet-chaos's shape at a small scale: three co-hosted models behind
#: model-aware routing, priority classes with shares, seeded failures and
#: queue-depth autoscaling, all on the array engine with an event log.
FLEET_MODELS = tuple(get_model(name) for name in ("gpt2-xl", "gemma-1b", "gemma-2b"))


def _fleet(requests: int = 60, seed: int = 1):
    """An evented fleet-chaos-shaped cluster and its trace."""
    generator = get_trace_generator("chatbot")
    service_s = mean_service_time_s(COST_MODEL, FLEET_MODELS[0], generator.workloads)
    rate_rps = 3 * 0.8 / service_s
    horizon_s = requests / rate_rps
    trace = generator.generate(
        requests, rate_rps, seed=seed, num_classes=2,
        model_mix=[(model.name, 1.0) for model in FLEET_MODELS],
        curve=DiurnalCurve(
            period_s=horizon_s, amplitude=0.6, phase_s=horizon_s / 4.0
        ),
    )
    cluster = ClusterSimulator(
        COST_MODEL, FLEET_MODELS[0], num_replicas=3, router="model-aware",
        models=FLEET_MODELS, engine="array",
        policy=make_policy("priority", max_batch=8, class_shares=(0.5, 0.25)),
        slo_targets=(0.5, 2.0), num_classes=2,
        failures=SeededFailures(
            seed=seed, mtbf_s=horizon_s / 6.0, horizon_s=horizon_s,
            recover_after_s=horizon_s / 8.0, max_failures=2,
        ),
        autoscaler=make_autoscaler(
            "queue-depth", high=1.0, low=0.3, min_replicas=3, max_replicas=5,
            cooldown_s=horizon_s / 16.0, window_s=horizon_s / 8.0,
        ),
    )
    return cluster, trace


def test_evented_fleets_keep_the_decode_runs():
    # The fleet replays its own event log, so every decode iteration it
    # records per step is one more event to build and to replay.
    cluster, trace = _fleet()
    metrics = cluster.simulate(trace, record_events=True)
    assert metrics.failures > 0 and metrics.scale_ups > 0
    assert metrics.model_swaps > 0
    assert cluster.validate_invariants() == []
    carried = sum(
        len(event.latencies)
        for log in cluster.events
        for event in log
        if event.kind == "decode_run"
    )
    decode_passes = sum(replica.decode_passes for replica in metrics.per_replica)
    assert carried >= 0.95 * decode_passes, (
        f"decode_run events carried {carried} of {decode_passes} iterations"
    )


# ----------------------------------------------------------------------
# The closed-form replay keeps the verdict of the steps
# ----------------------------------------------------------------------
def _run_states(log, by_id, default_model):
    """For each ``decode_run`` index of a log: the requests in flight,
    swapped out and still prefilling there, and the resident model."""
    in_flight, swapped, prefilled = set(), set(), {}
    resident = default_model
    states = {}
    for index, event in enumerate(log):
        kind, rid = event.kind, event.request_id
        if kind == "admit":
            in_flight.add(rid)
            prefilled[rid] = 0
        elif kind == "step" and rid is not None:
            prefilled[rid] += event.tokens
        elif kind in ("complete", "preempt"):
            in_flight.discard(rid)
            swapped.discard(rid)
        elif kind == "swap_out":
            swapped.add(rid)
        elif kind == "swap_in":
            swapped.discard(rid)
        elif kind == "fail":
            in_flight.clear()
            swapped.clear()
        elif kind == "model_swap":
            resident = event.model
        elif kind == "decode_run":
            prefilling = {
                r for r in in_flight if prefilled[r] < by_id[r].input_tokens
            }
            states[index] = (set(in_flight), set(swapped), prefilling, resident)
    return states


#: The ways ``_forge`` tampers with a decode run.
TAMPERINGS = (
    "latency", "clock", "add", "drop", "duplicate", "unadmitted",
    "swapped", "prefilling", "other-model", "pages", "spans-grant",
)


def _forge(rng, logs, states_by_log, by_id, default_model):
    """One random tampering of one decode run: ``(kind, forged logs)``,
    or ``None`` when the drawn tampering does not apply there."""
    replica = rng.randrange(len(logs))
    log = list(logs[replica])
    states = states_by_log[replica]
    if not states:
        return None
    index = rng.choice(sorted(states))
    run = log[index]
    in_flight, swapped, prefilling, resident = states[index]
    members = list(run.decode_ids)
    kind = rng.choice(TAMPERINGS)
    if kind == "latency":
        latencies = list(run.latencies)
        latencies[rng.randrange(len(latencies))] = rng.choice(
            (0, -1, -latencies[0])
        )
        forged = dataclasses.replace(run, latencies=tuple(latencies))
    elif kind == "clock":
        shift = max(1, round(rng.choice((1e-9, 1e-6, 0.3, 1.0)) * run.latencies[-1]))
        forged = dataclasses.replace(
            run, clock=run.clock + rng.choice((shift, -shift))
        )
    elif kind in ("add", "unadmitted", "swapped", "prefilling", "other-model"):
        if kind == "add":
            pool = in_flight - set(members)
        elif kind == "unadmitted":
            pool = set(by_id) - in_flight
        elif kind == "swapped":
            pool = swapped
        elif kind == "prefilling":
            pool = prefilling
        else:
            pool = {
                r for r in in_flight
                if (by_id[r].model or default_model) != resident
            }
        if not pool:
            return None
        extra = rng.choice(sorted(pool))
        if kind == "unadmitted" and rng.random() < 0.5:
            members[rng.randrange(len(members))] = extra
        else:
            members.insert(rng.randrange(len(members) + 1), extra)
        forged = dataclasses.replace(run, decode_ids=tuple(members))
    elif kind == "drop":
        del members[rng.randrange(len(members))]
        forged = dataclasses.replace(run, decode_ids=tuple(members))
    elif kind == "duplicate":
        members.insert(rng.randrange(len(members) + 1), rng.choice(members))
        forged = dataclasses.replace(run, decode_ids=tuple(members))
    elif kind == "pages":
        forged = dataclasses.replace(
            run, kv_reserved_pages=run.kv_reserved_pages + rng.choice((1, -1))
        )
    else:
        # Merge the run with the next one of the same batch across a page
        # grant: one event that claims a single reservation for both.
        after = index + 1
        if not (
            after < len(log)
            and log[after].kind == "decode_run"
            and log[after].decode_ids == run.decode_ids
            and log[after].kv_reserved_pages != run.kv_reserved_pages
        ):
            return None
        forged = dataclasses.replace(
            rng.choice((run, log[after])),
            clock=log[after].clock,
            latencies=run.latencies + log[after].latencies,
        )
        del log[after]
    log[index] = forged
    return kind, [log if i == replica else logs[i] for i in range(len(logs))]


def _forgery_bases():
    """Evented array-engine runs whose logs the forgeries start from:
    ``(logs, trace, a simulator that recorded them, the books' routing
    record and initial replicas)``."""
    generator = get_trace_generator("chatbot")
    service_s = mean_service_time_s(COST_MODEL, MODEL, generator.workloads)
    bases = []
    # serve-kv's regime: page grants, swapped members, shared prefixes.
    trace = generator.generate(
        12, 2.0 / service_s, seed=3, prefix_share=0.5, prefix_tokens=64,
        prefix_groups=2,
    )
    simulator = ServingSimulator(
        COST_MODEL, MODEL, engine="array", policy="interleaved",
        kv_fraction=0.06, admission="optimistic", swap=True, link_gbps=16.0,
    )
    simulator.simulate(trace, record_events=True)
    bases.append((
        [simulator.events], trace, simulator,
        dict(routed=[trace], initial_replicas=1),
    ))
    # Co-hosted models under optimistic admission: members of another
    # model and members still prefilling, beside page grants.
    trace = generator.generate(
        12, 1.5 / service_s, seed=5, model_mix=MODEL_MIX,
    )
    simulator = ServingSimulator(
        COST_MODEL, MODEL, engine="array", policy="srpt", models=MODEL_SET,
        kv_fraction=0.06, admission="optimistic", preempt=True,
    )
    simulator.simulate(trace, record_events=True)
    bases.append((
        [simulator.events], trace, simulator,
        dict(routed=[trace], initial_replicas=1),
    ))
    # The evented fleet: failures, autoscaling, three models.
    cluster, trace = _fleet(requests=16, seed=2)
    cluster.simulate(trace, record_events=True)
    bases.append((
        cluster.events, trace, cluster.simulator,
        dict(routed=cluster.assignments, initial_replicas=3),
    ))
    return bases


def _verdicts(logs, trace, simulator, books):
    """Whether each checker finds a violation in ``logs`` (the
    single-replica checker only reads single logs)."""
    geometry = dict(
        page_tokens=simulator.page_tokens, admission=simulator.admission,
        default_model=simulator.model.name,
    )
    single = None
    if len(logs) == 1:
        single = bool(check_invariants(logs[0], trace, **geometry))
    fleet = bool(check_cluster_invariants(logs, trace, **books, **geometry))
    return single, fleet


def test_closed_form_replay_keeps_the_verdict_of_the_steps():
    # 150 forged logs from each of the three bases.
    rng = random.Random(26)
    detected: dict[str, int] = {}
    for logs, trace, simulator, books in _forgery_bases():
        by_id = {request.request_id: request for request in trace}
        assert any(event.kind == "decode_run" for log in logs for event in log)
        assert _verdicts(logs, trace, simulator, books) == (
            (False, False) if len(logs) == 1 else (None, False)
        )
        default_model = simulator.model.name
        states = [_run_states(log, by_id, default_model) for log in logs]
        made = 0
        while made < 150:
            forgery = _forge(rng, logs, states, by_id, default_model)
            if forgery is None:
                continue
            kind, forged = forgery
            made += 1
            verdicts = _verdicts(forged, trace, simulator, books)
            expanded = [expand_runs(log) for log in forged]
            assert verdicts == _verdicts(expanded, trace, simulator, books), kind
            if verdicts[1]:
                detected[kind] = detected.get(kind, 0) + 1
    # Every kind of tampering was drawn and caught somewhere.
    assert set(detected) == set(TAMPERINGS), detected
