"""The engine differential, driven over the whole serving knob space.

``engine="object"`` is the per-iteration reference: every decision is
taken one pass at a time, through the policy's hooks.  ``engine="array"``
adds the fast paths (arrival absorption, the burst runner, decode runs,
the monolithic-prefill shortcut).  A hypothesis generator draws one
configuration of :class:`~repro.serving.ServingSimulator` or
:class:`~repro.serving.ClusterSimulator` from:

* the policy (priority with class shares included) and ``max_batch``;
* admission, ``preempt``, and the swap tier with its ``link_gbps``;
* the prefix share, prefix tokens and prefix groups;
* ``chunk_tokens``, priority classes with SLOs, co-hosted models with a
  model mix, a ``kv_fraction`` small enough to force preemption, and
  ``exact``;
* the trace and its arrival curve;
* replicas, router, failures and autoscaler, or a single replica served
  one-shot or offered in chunks with an ``advance_until`` after each.

With events on and with events off, both engines must return the same
``to_dict()`` JSON, or raise the same error.  With events on,
``expand_runs`` of each array log must equal the reference's log, and
both runs must replay clean through ``validate_invariants()``.

Tier-1 runs a small derandomized budget.  ``tests/fuzz_engines.py`` runs
the same property at a large one.
"""

from __future__ import annotations

import json
from functools import lru_cache, partial

from hypothesis import example, given, settings, strategies as st

from repro.core.costmodel import make_cost_model
from repro.models import get_model
from repro.serving import (
    ROUTERS,
    ClusterSimulator,
    ServingSimulator,
    check_invariants,
    decode_kv_bounds,
    get_trace_generator,
    make_autoscaler,
    make_failure_schedule,
    make_policy,
    make_trace_curve,
    mean_service_time_s,
)
from repro.serving.validate import expand_runs

COST_MODEL = make_cost_model("ianus")
MODEL = get_model("gpt2-xl")
MODEL_SET = (MODEL, get_model("gemma-1b"))
MODEL_MIX = [(MODEL.name, 0.6), ("gemma-1b", 0.4)]
TRACES = ("chatbot", "gpt2-paper", "dfx-paper", "summarize", "skewed")
CURVES = (None, "constant", "diurnal", "flash-crowd", "step")
AUTOSCALERS = (None, "fixed", "queue-depth", "kv-pressure", "slo-attainment")


@st.composite
def configs(draw) -> dict:
    """One point of the knob space (see the module docstring)."""
    admission = draw(st.sampled_from(("worst-case", "optimistic")))
    classes = draw(st.integers(min_value=1, max_value=3))
    prefix_share = draw(st.sampled_from((0.0, 0.0, 0.3, 0.7)))
    mode = draw(st.sampled_from(("simulate", "stream", "cluster")))
    return {
        "policy": draw(st.sampled_from(
            ("fcfs", "interleaved", "srpt", "priority", "priority-shares")
        )),
        "max_batch": draw(st.sampled_from((1, 2, 4, 8))),
        "admission": admission,
        "preempt": draw(st.booleans()),
        "swap": admission == "optimistic" and draw(st.booleans()),
        "link_gbps": draw(st.sampled_from((4.0, 16.0, 64.0))),
        "prefix_share": prefix_share,
        "prefix_tokens": draw(st.sampled_from((None, 16, 32))) if prefix_share else None,
        "prefix_groups": draw(st.integers(min_value=1, max_value=3)),
        "chunk_tokens": draw(st.sampled_from((0, 0, 16, 48, 512))),
        "classes": classes,
        "slo": draw(st.sampled_from((None, (0.5,), (0.3, 1.0, 4.0)[:classes]))),
        "multi": draw(st.booleans()),
        "kv_fraction": draw(st.sampled_from((0.05, 0.07, 0.1, 1.0))),
        "exact": draw(st.booleans()),
        "batch_share": draw(st.sampled_from((1.0, 0.6))),
        "trace": draw(st.sampled_from(TRACES)),
        "curve": draw(st.sampled_from(CURVES)),
        "load": draw(st.sampled_from((0.3, 1.0, 2.0, 4.0))),
        "requests": draw(st.sampled_from((6, 16, 32, 48))),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "mode": mode,
        "chunk": draw(st.integers(min_value=1, max_value=9)),
        "replicas": draw(st.integers(min_value=1, max_value=3)),
        "router": draw(st.sampled_from(tuple(ROUTERS))),
        "failures": draw(st.sampled_from((None, "single", "seeded"))),
        "autoscaler": draw(st.sampled_from(AUTOSCALERS)),
    }


@lru_cache(maxsize=None)
def _service_s(trace: str) -> float:
    return mean_service_time_s(COST_MODEL, MODEL, get_trace_generator(trace).workloads)


def _trace(config: dict) -> tuple:
    generator = get_trace_generator(config["trace"])
    rate = config["load"] / _service_s(config["trace"])
    horizon = config["requests"] / rate
    curve = {
        None: None,
        "constant": lambda: make_trace_curve("constant", scale=1.5),
        "diurnal": lambda: make_trace_curve(
            "diurnal", period_s=horizon, amplitude=0.7, phase_s=horizon / 4
        ),
        "flash-crowd": lambda: make_trace_curve(
            "flash-crowd", start_s=horizon / 3, duration_s=horizon / 4,
            magnitude=4.0,
        ),
        "step": lambda: make_trace_curve(
            "step", at_s=horizon / 2, before=0.5, after=2.0
        ),
    }[config["curve"]]
    return generator.generate(
        config["requests"], rate, seed=config["seed"],
        num_classes=config["classes"],
        curve=curve() if curve else None,
        prefix_share=config["prefix_share"],
        prefix_tokens=config["prefix_tokens"],
        prefix_groups=config["prefix_groups"],
        model_mix=MODEL_MIX if config["multi"] else None,
    ), horizon


def _simulator_kwargs(config: dict, engine: str) -> dict:
    policy = config["policy"]
    if policy == "priority-shares":
        policy = make_policy(
            "priority", max_batch=config["max_batch"], class_shares=(0.5, 0.25)
        )
    return dict(
        policy=policy, max_batch=config["max_batch"],
        admission=config["admission"], preempt=config["preempt"],
        swap=config["swap"], link_gbps=config["link_gbps"],
        chunk_tokens=config["chunk_tokens"], batch_share=config["batch_share"],
        kv_fraction=config["kv_fraction"], exact=config["exact"],
        slo_targets=config["slo"], models=MODEL_SET if config["multi"] else None,
        engine=engine,
    )


def _ops(config: dict, horizon: float) -> dict:
    failures = {
        None: None,
        "single": lambda: make_failure_schedule(
            "single", at_s=horizon / 3, recover_after_s=horizon / 4
        ),
        "seeded": lambda: make_failure_schedule(
            "seeded", seed=config["seed"], mtbf_s=horizon / 3, horizon_s=horizon,
            recover_after_s=horizon / 5,
        ),
    }[config["failures"]]
    name = config["autoscaler"]
    return dict(
        failures=failures() if failures else None,
        autoscaler=None if name is None else make_autoscaler(name, max_replicas=4),
    )


def serve(config: dict, engine: str, record_events: bool) -> dict:
    """``{"json": to_dict() JSON, "logs": event logs, "violations": ...}``
    of one run, or ``{"error": (name, message)}`` when it raised."""
    try:
        trace, horizon = _trace(config)
        kwargs = _simulator_kwargs(config, engine)
        if config["mode"] == "cluster":
            cluster = ClusterSimulator(
                COST_MODEL, MODEL, num_replicas=config["replicas"],
                router=config["router"], **_ops(config, horizon), **kwargs,
            )
            metrics = cluster.simulate(trace, record_events=record_events)
            logs = cluster.events
            check = cluster.validate_invariants
        else:
            simulator = ServingSimulator(COST_MODEL, MODEL, **kwargs)
            if config["mode"] == "stream":
                # simulate_stream's loop, on a run that may record events.
                run = simulator.begin(
                    record_events=record_events,
                    kv_bounds=decode_kv_bounds(trace),
                )
                size = config["chunk"]
                for start in range(0, len(trace), size):
                    chunk = trace[start:start + size]
                    run.offer_many(chunk)
                    run.advance_until(chunk[-1].arrival_s)
                metrics = run.finish()
                logs = [run.events]
                check = partial(
                    check_invariants, run.events, trace,
                    page_tokens=simulator.page_tokens,
                    admission=simulator.admission, default_model=MODEL.name,
                )
            else:
                metrics = simulator.simulate(trace, record_events=record_events)
                logs = [simulator.events]
                check = simulator.validate_invariants
        served = {"json": json.dumps(metrics.to_dict()), "logs": logs}
        if record_events:
            served["violations"] = check()
        return served
    except (ValueError, RuntimeError) as error:
        return {"error": (type(error).__name__, str(error))}


def check_engines_agree(config: dict) -> None:
    """The property: reference and fast runs agree, with events and without."""
    for record_events in (False, True):
        reference = serve(config, "object", record_events)
        fast = serve(config, "array", record_events)
        if "error" in reference or "error" in fast:
            assert reference.get("error") == fast.get("error")
            continue
        assert reference["json"] == fast["json"]
        if record_events:
            assert [expand_runs(log) for log in fast["logs"]] == reference["logs"]
            assert reference["violations"] == []
            assert fast["violations"] == []


#: serve-kv's regime (overload, shared prefixes, host swap) and a chaos
#: fleet (failures, autoscaling, co-hosted models): the draws reach them
#: rarely at tier-1's budget.
SERVE_KV = {
    "policy": "interleaved", "max_batch": 8, "admission": "optimistic",
    "preempt": True, "swap": True, "link_gbps": 16.0, "prefix_share": 0.5,
    "prefix_tokens": 32, "prefix_groups": 2, "chunk_tokens": 0, "classes": 1,
    "slo": None, "multi": False, "kv_fraction": 0.05, "exact": False,
    "batch_share": 1.0, "trace": "chatbot", "curve": None, "load": 2.0,
    "requests": 48, "seed": 1, "mode": "simulate", "chunk": 1, "replicas": 1,
    "router": "round-robin", "failures": None, "autoscaler": None,
}
FLEET = dict(
    SERVE_KV, policy="priority-shares", swap=False, prefix_share=0.0,
    prefix_tokens=None, chunk_tokens=48, classes=2, slo=(0.5, 2.0), multi=True,
    kv_fraction=0.1, curve="diurnal", mode="cluster", replicas=2,
    router="model-aware", failures="seeded", autoscaler="queue-depth",
)


@given(config=configs())
@example(config=SERVE_KV)
@example(config=dict(SERVE_KV, swap=False, prefix_share=0.0, mode="stream", chunk=5))
@example(config=FLEET)
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
def test_engines_agree_over_the_knob_space(config):
    check_engines_agree(config)
