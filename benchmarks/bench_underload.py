"""Underload benchmark: arrival-batched macro admission (PR 8).

PR 7's array engine is fast when saturated but degenerates on underloaded
traces: every macro step is capped at the next single arrival, so a
lightly-loaded diurnal day costs O(arrivals) macro bindings.  PR 8 absorbs
whole arrival windows in closed form.  Cells:

* ``underload_speedup`` — the headline: one 0.3x-capacity diurnal
  ``chatbot`` trace served by the array engine with arrival batching off
  (the PR 7 arrival-capped path) vs on.  ``advance`` wall (the macro
  binding loop the tentpole replaces) and end-to-end wall are both
  recorded; the acceptance bar is a >= 10x ``advance`` improvement under
  the fcfs cell at full scale, with the smaller end-to-end ratio (shared
  trace prep and offer costs are identical on both sides) reported
  alongside, never hidden.  The ``interleaved`` companion exercises the
  burst-runner regime (overlapping clumps) and is reported without an
  acceptance bar.
* ``diurnal_day`` — a full day of diurnal traffic at the PR 6
  chaos-workload shape (``chatbot``, amplitude 0.6 over a 86,400 s
  period, 0.55x mean load — the chaos frontier per healthy replica,
  ``max_batch=16``) streamed through the array engine in O(chunk)
  memory.
* ``cluster_100k`` — a 4-replica 100k cell routed through the cluster's
  one per-arrival loop (idle replicas skip the advance), one entry per
  router; wall times are reported next to the 2.56 s reference without a
  bar.
* ``validation`` — the correctness side of every perf claim: pooled
  metrics are equal with batching on vs off, event-recorded runs are
  byte-identical to the object engine (events disable absorption by
  construction), a 1-replica array cluster is byte-identical to the
  single simulator under every router, and the benched cluster config
  replays clean through the invariant checker.

Run with::

    pytest benchmarks/bench_underload.py --benchmark-only -q

``REPRO_BENCH_UNDERLOAD_REQUESTS`` caps the cell sizes (CI smoke uses
20_000; the speedup and validation assertions engage at every scale).  Set
``REPRO_BENCH_REPORT=/path/to/BENCH_underload.json`` to persist the cells
(``BENCH_underload_pr8.json`` is the PR 8 reference).
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
from repro.serving.simulator import mean_service_time_s
from repro.serving.trace import DiurnalCurve

MODEL = GPT2_CONFIGS["m"]
BACKEND = "ianus"
TRACE = "chatbot"
MAX_BATCH = 4
#: Offered load of the underload cells, as a fraction of nominal capacity.
UNDERLOAD = 0.3
SPEEDUP_REQUESTS = 200_000
DAY_SECONDS = 86_400.0
#: PR 6's diurnal swing (peak = 1.6x mean, trough = 0.4x mean).
DAY_AMPLITUDE = 0.6
#: PR 6's chaos-ops frontier offers 1.1x one replica's capacity across 2
#: healthy replicas — 0.55x per engine: a realistic day that is mostly
#: underloaded with peaks brushing 0.88x.
DAY_LOAD = 0.55
#: PR 6's chaos-ops batch cap.
DAY_MAX_BATCH = 16
CLUSTER_REQUESTS = 100_000
CLUSTER_REPLICAS = 4
CLUSTER_RATE_RPS = 2000.0 * CLUSTER_REPLICAS
#: PR 7's recorded wall for the same 4-replica 100k cell.
PR7_CLUSTER_WALL_S = 2.56
VALIDATE_REQUESTS = 2_000
#: The headline cell must improve the arrival-capped advance loop by this.
SPEEDUP_BAR = 10.0

POOLED_FIELDS = (
    "num_requests", "makespan_s", "busy_s", "output_tokens", "tokens_per_s",
    "latency_mean_s", "latency_p99_s", "ttft_p99_s", "tpot_mean_s",
    "energy_j", "flops", "admissions", "peak_active", "kv_peak_pages",
)


def _requested_size() -> int:
    raw = os.environ.get("REPRO_BENCH_UNDERLOAD_REQUESTS")
    return SPEEDUP_REQUESTS if not raw else max(1, int(raw))


def _underload_rate(cost_model, generator) -> float:
    service = mean_service_time_s(cost_model, MODEL, generator.workloads)
    return UNDERLOAD / service


def _timed_run(cost_model, trace, *, batching, policy, detail=False):
    """begin/offer/advance/finish with per-phase walls (no trace prep).

    ``batching=False`` switches off the run's ``_absorb_arrivals``, the one
    entry to the absorbers and the burst runner, leaving the per-arrival
    reference path."""
    simulator = ServingSimulator(
        cost_model, MODEL, engine="array", max_batch=MAX_BATCH,
        policy=policy, per_request_detail=detail,
    )
    bounds = decode_kv_bounds(trace)
    start = perf_counter()
    run = simulator.begin(kv_bounds=bounds)
    begin_s = perf_counter() - start
    if not batching:
        run._absorb_arrivals = lambda until: False
    start = perf_counter()
    run.offer_many(trace)
    offer_s = perf_counter() - start
    start = perf_counter()
    run.advance_until(None)
    advance_s = perf_counter() - start
    start = perf_counter()
    metrics = run.finish()
    finish_s = perf_counter() - start
    return metrics, {
        "begin_s": begin_s,
        "offer_s": offer_s,
        "advance_s": advance_s,
        "finish_s": finish_s,
        "total_s": begin_s + offer_s + advance_s + finish_s,
    }


def _pooled_drifts(reference, candidate):
    """The pooled fields that differ (simulated time and energy are
    integers, so every path must give the same numbers)."""
    drifts = []
    for field in POOLED_FIELDS:
        expected = getattr(reference, field)
        actual = getattr(candidate, field)
        if expected != actual:
            drifts.append(f"{field}: {expected!r} != {actual!r}")
    return drifts


def _speedup_cell(cost_model, generator, rate_rps, size, policy):
    trace = generator.generate(size, rate_rps, seed=7, curve=DiurnalCurve())
    capped_metrics, capped = _timed_run(
        cost_model, trace, batching=False, policy=policy
    )
    batched_metrics, batched = _timed_run(
        cost_model, trace, batching=True, policy=policy
    )
    drifts = _pooled_drifts(capped_metrics, batched_metrics)
    return {
        "requests": size,
        "policy": policy,
        "load_fraction": UNDERLOAD,
        "capped": {k: round(v, 4) for k, v in capped.items()},
        "batched": {k: round(v, 4) for k, v in batched.items()},
        "advance_speedup": round(capped["advance_s"] / batched["advance_s"], 1)
        if batched["advance_s"] else None,
        "total_speedup": round(capped["total_s"] / batched["total_s"], 1)
        if batched["total_s"] else None,
        "pooled_drifts": drifts,
    }


def _diurnal_day_cell(cost_model, generator, requested):
    """A full simulated day at PR 6's chaos-workload shape: ``chatbot``
    under a one-day diurnal curve at 0.55x mean load (the chaos frontier
    per healthy replica), streamed in O(chunk) memory."""
    service = mean_service_time_s(cost_model, MODEL, generator.workloads)
    rate_rps = DAY_LOAD / service
    day_requests = int(rate_rps * DAY_SECONDS)
    size = min(day_requests, requested)
    simulator = ServingSimulator(
        cost_model, MODEL, engine="array", max_batch=DAY_MAX_BATCH,
        per_request_detail=False,
    )
    bounds = decode_kv_bounds(generator.workloads)
    start = perf_counter()
    metrics = simulator.simulate_stream(
        generator.generate_stream(
            size, rate_rps, seed=0, chunk_requests=8192,
            curve=DiurnalCurve(amplitude=DAY_AMPLITUDE, period_s=DAY_SECONDS),
        ),
        kv_bounds=bounds,
    )
    wall = perf_counter() - start
    return {
        "requests": size,
        "rate_rps": round(rate_rps, 3),
        "load_fraction": DAY_LOAD,
        "max_batch": DAY_MAX_BATCH,
        "horizon_s": DAY_SECONDS,
        "curve": f"diurnal(amplitude={DAY_AMPLITUDE}, period_s={DAY_SECONDS})",
        "wall_s": round(wall, 2),
        "sim_requests_per_wall_s": round(size / wall),
        "makespan_s": round(metrics.makespan_s, 1),
        "utilization": round(metrics.utilization, 4),
        "full_scale": size == day_requests,
    }


def _cluster_cell(cost_model, generator, size):
    trace = generator.generate(size, CLUSTER_RATE_RPS, seed=0)
    out = {}
    for router in ("least-outstanding-tokens", "round-robin"):
        cluster = ClusterSimulator(
            cost_model, MODEL, num_replicas=CLUSTER_REPLICAS,
            router=router, engine="array", max_batch=MAX_BATCH,
        )
        start = perf_counter()
        metrics = cluster.simulate(trace, record_events=False)
        wall = perf_counter() - start
        out[router] = {
            "wall_s": round(wall, 2),
            "sim_requests_per_wall_s": round(size / wall),
            "completed": metrics.num_requests,
        }
    return {
        "requests": size,
        "replicas": CLUSTER_REPLICAS,
        "pr7_wall_s": PR7_CLUSTER_WALL_S,
        "routers": out,
        "full_scale": size == CLUSTER_REQUESTS,
    }


def _validation_cells(cost_model, generator, rate_rps):
    trace = generator.generate(
        VALIDATE_REQUESTS, rate_rps, seed=7, curve=DiurnalCurve()
    )
    out = {"requests": VALIDATE_REQUESTS}

    # Event-recorded runs: byte-identical to the object engine (recording
    # events disables absorption by construction, so this also proves the
    # batched engine never silently changes the evented path).
    array_sim = ServingSimulator(
        cost_model, MODEL, engine="array", max_batch=MAX_BATCH
    )
    array_rows = [
        m.to_dict()
        for m in array_sim.simulate(trace, record_events=True).per_request
    ]
    object_sim = ServingSimulator(
        cost_model, MODEL, engine="object", max_batch=MAX_BATCH
    )
    object_rows = [
        m.to_dict()
        for m in object_sim.simulate(trace, record_events=True).per_request
    ]
    out["evented_byte_identical"] = array_rows == object_rows

    # Detail mode: batching on == batching off, byte for byte.
    reference, _ = _timed_run(
        cost_model, trace, batching=False, policy="fcfs", detail=True
    )
    candidate, _ = _timed_run(
        cost_model, trace, batching=True, policy="fcfs", detail=True
    )
    out["detail_byte_identical"] = (
        [m.to_dict() for m in reference.per_request]
        == [m.to_dict() for m in candidate.per_request]
    )

    # 1-replica cluster == single simulator, per router: byte-identity on
    # a prefix at the scale the differential suite pins, and pooled
    # equality on the full trace (per-arrival routing offers
    # incrementally, which adds up to the same integers).
    prefix = trace[:300]
    single = ServingSimulator(
        cost_model, MODEL, engine="array", max_batch=MAX_BATCH
    )
    single_rows = [m.to_dict() for m in single.simulate(prefix).per_request]
    single_full = ServingSimulator(
        cost_model, MODEL, engine="array", max_batch=MAX_BATCH
    ).simulate(trace)
    byte_agree = {}
    pooled_agree = {}
    for router in ("round-robin", "least-outstanding-tokens", "kv-aware"):
        cluster = ClusterSimulator(
            cost_model, MODEL, num_replicas=1, router=router,
            engine="array", max_batch=MAX_BATCH,
        )
        rows = [
            m.to_dict()
            for m in cluster.simulate(prefix, record_events=False).per_request
        ]
        byte_agree[router] = rows == single_rows
        cluster_full = ClusterSimulator(
            cost_model, MODEL, num_replicas=1, router=router,
            engine="array", max_batch=MAX_BATCH,
        )
        pooled = cluster_full.simulate(trace, record_events=False)
        pooled_agree[router] = _pooled_drifts(
            single_full, pooled.per_replica[0]
        ) == []
    out["one_replica_byte_identical_at_pinned_scale"] = byte_agree
    out["one_replica_pooled_equal"] = pooled_agree

    # The benched cluster config, capped, replayed through the checker.
    cluster = ClusterSimulator(
        cost_model, MODEL, num_replicas=CLUSTER_REPLICAS,
        router="least-outstanding-tokens", engine="array",
        max_batch=MAX_BATCH,
    )
    cluster.simulate(
        generator.generate(VALIDATE_REQUESTS, CLUSTER_RATE_RPS, seed=0),
        record_events=True,
    )
    out["cluster_invariant_violations"] = len(cluster.validate_invariants())
    return out


def run_underload() -> dict:
    requested = _requested_size()
    full_scale = requested >= SPEEDUP_REQUESTS
    cost_model = make_cost_model(BACKEND)
    generator = get_trace_generator(TRACE)
    rate_rps = _underload_rate(cost_model, generator)
    size = min(SPEEDUP_REQUESTS, requested)
    cells = {
        "underload_speedup": _speedup_cell(
            cost_model, generator, rate_rps, size, "fcfs"
        ),
        "underload_interleaved": _speedup_cell(
            cost_model, generator, rate_rps, size, "interleaved"
        ),
        "diurnal_day": _diurnal_day_cell(
            cost_model, generator,
            requested * 5 if not full_scale else (1 << 62)
        ),
        "cluster_100k": _cluster_cell(
            cost_model, generator, min(CLUSTER_REQUESTS, requested)
        ),
        "validation": _validation_cells(cost_model, generator, rate_rps),
    }
    return {
        "benchmark": "underload",
        "backend": BACKEND,
        "model": MODEL.name,
        "trace": TRACE,
        "load_fraction": UNDERLOAD,
        "max_batch": MAX_BATCH,
        "full_scale": full_scale,
        "cells": cells,
    }


def test_underload_benchmark(benchmark):
    document = benchmark.pedantic(run_underload, rounds=1, iterations=1)
    cells = document["cells"]
    headline = cells["underload_speedup"]
    # Correctness gates engage at every scale.
    assert headline["pooled_drifts"] == []
    assert cells["underload_interleaved"]["pooled_drifts"] == []
    validation = cells["validation"]
    assert validation["evented_byte_identical"]
    assert validation["detail_byte_identical"]
    assert all(validation["one_replica_byte_identical_at_pinned_scale"].values())
    assert all(validation["one_replica_pooled_equal"].values())
    assert validation["cluster_invariant_violations"] == 0
    # The arrival-batched advance loop must beat the arrival-capped one.
    assert headline["advance_speedup"] is not None
    assert headline["advance_speedup"] >= SPEEDUP_BAR
    report_path = os.environ.get("REPRO_BENCH_REPORT")
    if report_path:
        with open(report_path, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    print()
    print(json.dumps(document, indent=2))
