"""Megatrace benchmark: a day of production traffic in seconds (PR 7).

Times the vectorized array serving engine
(``ServingSimulator(engine="array")``) on three cells and pins the
correctness side of each so a perf number can never hide a wrong one:

* ``speedup`` — one trace served by both engines (pooled metrics equal;
  the per-iteration differential lives in ``tests/test_megatrace.py``)
  with the wall-clock ratio recorded;
* ``megatrace_1m`` — a 1,000,000-request ``chatbot`` overload streamed
  through ``generate_stream``/``simulate_stream`` in O(chunk) memory with
  pooled-only metrics; the PR's acceptance bar is <= 10 s of wall clock at
  full scale;
* ``cluster_100k`` — 100,000 requests over a 4-replica cluster with
  least-outstanding-tokens routing, array replicas throughout.

Every benched configuration also runs a *capped* companion with
``record_events=True`` whose event log replays clean through the
simulator's or the cluster's ``validate_invariants``, so the exact
configs being timed are the ones being verified.

Run with::

    pytest benchmarks/bench_megatrace.py --benchmark-only -q

``REPRO_BENCH_MEGATRACE_REQUESTS`` caps the megatrace size (CI smoke uses
20_000; the wall-clock acceptance assertions only engage at full scale).
Set ``REPRO_BENCH_REPORT=/path/to/BENCH_megatrace.json`` to persist the
cell timings (``BENCH_megatrace_pr7.json`` is the PR 7 reference).
"""

import json
import os
from time import perf_counter

from repro.core.costmodel import make_cost_model
from repro.models import GPT2_CONFIGS
from repro.serving import (
    ClusterSimulator,
    ServingSimulator,
    decode_kv_bounds,
    get_trace_generator,
)

MODEL = GPT2_CONFIGS["m"]
BACKEND = "ianus"
TRACE = "chatbot"
#: Overload arrival rate: the device is saturated, so wall time measures
#: the engine, not idle-clock jumps.
RATE_RPS = 2000.0
#: Continuous-batching cap used by the timed cells.
MAX_BATCH = 4
FULL_REQUESTS = 1_000_000
CLUSTER_REQUESTS = 100_000
CLUSTER_REPLICAS = 4
SPEEDUP_REQUESTS = 20_000
#: Companion size for the record_events invariant replays.
VALIDATE_REQUESTS = 2_000

POOLED_FIELDS = (
    "num_requests", "makespan_s", "busy_s", "utilization", "output_tokens",
    "tokens_per_s", "latency_mean_s", "latency_p99_s", "ttft_p99_s",
    "tpot_mean_s", "energy_j", "flops", "prefill_passes", "decode_passes",
    "admissions", "peak_active", "kv_peak_pages", "slo_attainment",
)


def _requested_size() -> int:
    raw = os.environ.get("REPRO_BENCH_MEGATRACE_REQUESTS")
    return FULL_REQUESTS if not raw else max(1, int(raw))


def _scaled(full: int, requested: int) -> int:
    return min(full, requested)


def _simulator(engine: str, detail: bool = True) -> ServingSimulator:
    return ServingSimulator(
        make_cost_model(BACKEND), MODEL, engine=engine,
        max_batch=MAX_BATCH, per_request_detail=detail,
    )


def _pooled_close(reference, candidate) -> "list[str]":
    """The pooled fields that differ, compared with ``==``."""
    drifts = []
    for field in POOLED_FIELDS:
        expected = getattr(reference, field)
        actual = getattr(candidate, field)
        if expected != actual:
            drifts.append(f"{field}: {expected!r} != {actual!r}")
    return drifts


def _validate_single() -> int:
    """Replay the benched single-replica config (capped) through the checker."""
    generator = get_trace_generator(TRACE)
    trace = generator.generate(VALIDATE_REQUESTS, RATE_RPS, seed=0)
    simulator = _simulator("array")
    simulator.simulate(trace, record_events=True)
    return len(simulator.validate_invariants())


def _validate_cluster() -> int:
    """Replay the benched cluster config (capped) through the checker."""
    generator = get_trace_generator(TRACE)
    trace = generator.generate(VALIDATE_REQUESTS, RATE_RPS, seed=0)
    cluster = ClusterSimulator(
        make_cost_model(BACKEND), MODEL, num_replicas=CLUSTER_REPLICAS,
        router="least-outstanding-tokens", engine="array",
        max_batch=MAX_BATCH,
    )
    cluster.simulate(trace, record_events=True)
    return len(cluster.validate_invariants())


def run_megatrace() -> dict:
    requested = _requested_size()
    full_scale = requested >= FULL_REQUESTS
    generator = get_trace_generator(TRACE)
    bounds = decode_kv_bounds(generator.workloads)
    cells = {}

    # --- speedup: both engines on one identical trace -----------------
    size = _scaled(SPEEDUP_REQUESTS, requested)
    trace = generator.generate(size, RATE_RPS, seed=0)
    start = perf_counter()
    reference = _simulator("object").simulate(trace)
    object_s = perf_counter() - start
    start = perf_counter()
    candidate = _simulator("array").simulate(trace)
    array_s = perf_counter() - start
    drifts = _pooled_close(reference, candidate)
    cells["speedup"] = {
        "requests": size,
        "object_wall_s": round(object_s, 3),
        "array_wall_s": round(array_s, 3),
        "speedup": round(object_s / array_s, 1) if array_s else None,
        "pooled_drifts": drifts,
    }

    # --- megatrace_1m: streamed, pooled-only, O(chunk) memory ---------
    size = _scaled(FULL_REQUESTS, requested)
    simulator = _simulator("array", detail=False)
    start = perf_counter()
    metrics = simulator.simulate_stream(
        generator.generate_stream(size, RATE_RPS, seed=0, chunk_requests=8192),
        kv_bounds=bounds,
    )
    wall = perf_counter() - start
    cells["megatrace_1m"] = {
        "requests": size,
        "wall_s": round(wall, 2),
        "sim_requests_per_wall_s": round(size / wall),
        "makespan_s": round(metrics.makespan_s, 1),
        "utilization": round(metrics.utilization, 3),
        "full_scale": size == FULL_REQUESTS,
    }

    # --- cluster_100k: 4 array replicas, token-aware routing ----------
    size = _scaled(CLUSTER_REQUESTS, requested)
    trace = generator.generate(size, RATE_RPS * CLUSTER_REPLICAS, seed=0)
    cluster = ClusterSimulator(
        make_cost_model(BACKEND), MODEL, num_replicas=CLUSTER_REPLICAS,
        router="least-outstanding-tokens", engine="array",
        max_batch=MAX_BATCH,
    )
    start = perf_counter()
    cluster_metrics = cluster.simulate(trace, record_events=False)
    cluster_wall = perf_counter() - start
    cells["cluster_100k"] = {
        "requests": size,
        "replicas": CLUSTER_REPLICAS,
        "router": "least-outstanding-tokens",
        "wall_s": round(cluster_wall, 2),
        "sim_requests_per_wall_s": round(size / cluster_wall),
        "completed": cluster_metrics.num_requests,
        "full_scale": size == CLUSTER_REQUESTS,
    }

    # --- invariant companions: the benched configs, capped + replayed -
    cells["invariant_replay"] = {
        "requests": VALIDATE_REQUESTS,
        "single_violations": _validate_single(),
        "cluster_violations": _validate_cluster(),
    }

    return {
        "benchmark": "megatrace",
        "backend": BACKEND,
        "model": MODEL.name,
        "trace": TRACE,
        "rate_rps": RATE_RPS,
        "max_batch": MAX_BATCH,
        "full_scale": full_scale,
        "cells": cells,
    }


def test_megatrace_benchmark(benchmark):
    document = benchmark.pedantic(run_megatrace, rounds=1, iterations=1)
    cells = document["cells"]
    assert cells["speedup"]["pooled_drifts"] == []
    assert cells["speedup"]["speedup"] is None or cells["speedup"]["speedup"] > 1.0
    assert cells["megatrace_1m"]["requests"] > 0
    assert cells["cluster_100k"]["completed"] == cells["cluster_100k"]["requests"]
    assert cells["invariant_replay"]["single_violations"] == 0
    assert cells["invariant_replay"]["cluster_violations"] == 0
    if document["full_scale"]:
        # The PR's acceptance bar, asserted only at full scale (CI smoke
        # runs capped and only re-proves correctness).
        assert cells["megatrace_1m"]["wall_s"] <= 10.0
        assert cells["cluster_100k"]["wall_s"] < 10.0
    report_path = os.environ.get("REPRO_BENCH_REPORT")
    if report_path:
        with open(report_path, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    print()
    print(json.dumps(document, indent=2))
