"""Exact decode runs of the array engine.

``ArraySimulationRun._decode_run`` advances a stable all-decode batch to
its next behavior boundary in one call, pricing every iteration with
``fused_pass``'s own float operations and advancing every running total
by sequential adds.  It must therefore change no number at all:

* over generated configurations (policy, admission, preemption, swap,
  prefix sharing, chunked prefill, co-hosted models, KV budget, one-shot,
  streamed and clustered runs) every metric and per-request row equals,
  with ``==``, the same run with the decode runs switched off; where no
  other fast path runs (the swap tier, co-hosted models, or a one-shot
  trace with shared prefixes) it also equals the object engine, with
  per-request detail on or off;
* on the regime it exists for (overload, shared prefixes, host swap) it
  must keep carrying the decode passes, or the speed it buys is gone.

The decode runs are switched off by monkeypatching the method, as the
engine has no knob for them.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.costmodel import make_cost_model
from repro.models import get_model
from repro.serving import (
    ROUTERS,
    ClusterSimulator,
    ServingSimulator,
    decode_kv_bounds,
    get_trace_generator,
    make_policy,
    mean_service_time_s,
)
from repro.serving.array_engine import ArraySimulationRun

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
    """``(to_dict(), per-request rows)`` of one run, or what it raised."""
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
    try:
        if config["mode"] == "cluster":
            cluster = ClusterSimulator(
                COST_MODEL, MODEL, num_replicas=config["replicas"],
                router=config["router"], **kwargs,
            )
            metrics = cluster.simulate(trace, record_events=False)
            rows = [replica.per_request for replica in metrics.per_replica]
            return metrics.to_dict(), rows
        simulator = ServingSimulator(COST_MODEL, MODEL, **kwargs)
        if config["mode"] == "stream":
            size = config["chunk"]
            metrics = simulator.simulate_stream(
                (trace[start:start + size] for start in range(0, len(trace), size)),
                kv_bounds=decode_kv_bounds(trace),
            )
        else:
            metrics = simulator.simulate(trace)
        return metrics.to_dict(), metrics.per_request
    except (ValueError, RuntimeError) as error:
        return type(error).__name__, str(error)


#: serve-kv's regime at a small scale: a member whose next page does not
#: fit gets a victim only while a swapped row can be preempted.
SERVE_KV = {
    "policy": "interleaved", "admission": "optimistic", "preempt": False,
    "swap": True, "prefix_share": 0.5, "chunk_tokens": 0, "batch_share": 1.0,
    "multi": False, "kv_fraction": 0.06, "mode": "simulate", "replicas": 2,
    "router": "round-robin", "detail": True, "load": 2.0, "requests": 40,
    "chunk": 1, "seed": 0,
}


# The examples pin the two victims a stalled member is rarely offered: a
# swapped row (serve-kv) and another model's active row (co-hosting).
@given(config=serving_configs())
@example(config=SERVE_KV)
@example(config=dict(
    SERVE_KV, preempt=True, swap=False, prefix_share=0.0, multi=True,
))
@settings(max_examples=60, deadline=None)
def test_decode_runs_change_no_number(config):
    trace = _trace(config)
    fast = _serve(config, trace, "array")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ArraySimulationRun, "_decode_run", _no_decode_runs)
        stepped = _serve(config, trace, "array")
    assert fast == stepped
    # Only the per-iteration loop and the decode runs serve these
    # configurations from the first offer on, so the object engine's
    # numbers are the same ones.
    shared = config["mode"] == "simulate" and any(
        request.prefix_id >= 0 for request in trace
    )
    if config["swap"] or config["multi"] or shared:
        assert _serve(config, trace, "object") == fast


@given(config=serving_configs())
@settings(max_examples=40, deadline=None)
def test_detail_only_chooses_the_returned_rows(config):
    """``per_request_detail`` decides whether the rows come back and
    nothing else: every other field is the same number either way."""
    trace = _trace(config)
    on = _serve(dict(config, detail=True), trace, "array")
    off = _serve(dict(config, detail=False), trace, "array")
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
