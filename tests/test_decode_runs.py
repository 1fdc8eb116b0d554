"""Exact decode runs of the array engine.

``ArraySimulationRun._decode_run`` advances a stable all-decode batch to
its next behavior boundary in one call, pricing every iteration with
``fused_pass``'s own float operations and advancing every running total
by sequential adds.  It must therefore change no number at all:

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
from repro.serving.array_engine import ArraySimulationRun
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
            (0.0, -1e-9, -latencies[0])
        )
        forged = dataclasses.replace(run, latencies=tuple(latencies))
    elif kind == "clock":
        shift = rng.choice((1e-15, 1e-6, 0.3, 1.0)) * run.latencies[-1]
        forged = dataclasses.replace(
            run, clock_s=run.clock_s + rng.choice((shift, -shift))
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
            clock_s=log[after].clock_s,
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
