"""KV page hierarchy benchmark: prefix sharing + host-DRAM swap (PR 9).

PR 9 extends the page accountant to reference-counted shared prefixes and
adds a host-DRAM swap tier behind optimistic admission.  Cells:

* ``concurrency_gain`` — the same arrivals served with 0% and 50% of the
  trace sharing a 64-token prefix at a fixed ``kv_fraction``: the shared
  pool must admit at least as much peak concurrency, and the gain is the
  headline number (shared pages are charged once per group, not once per
  member).  Arrival identity is re-proved in-cell: the share=0 trace is
  byte-identical to a trace generated without any prefix arguments.
* ``swap_frontier`` — discard-and-recompute versus swap-to-host across a
  ladder of link bandwidths on the 50%-shared trace.  Swap pays link
  seconds instead of recomputed tokens, so the slowest link must *lose*
  to recomputation and the crossover bandwidth (the slowest swept link
  that beats recompute) is recorded.  Full scale asserts the crossover
  exists; capped CI runs only assert the slow-link loss.
* ``validation`` — the correctness side: the array engine's
  per-iteration loop and exact decode runs (the other fast paths stand
  down under sharing and swap) replay the shared+swap config
  byte-identically to the object engine (pooled metrics, and event logs
  with the decode runs expanded), and the extended
  invariant checker (refcounted shares and swap residency re-derived
  from first principles) reports zero violations on every benched
  configuration.

Run with::

    pytest benchmarks/bench_kv_hierarchy.py --benchmark-only -q

``REPRO_BENCH_KV_HIERARCHY_REQUESTS`` caps the cell sizes (CI smoke uses
300; the crossover-exists assertion only engages at full scale, the
concurrency-gain, slow-link and validation assertions always).  Set
``REPRO_BENCH_REPORT=/path/to/BENCH_kv_hierarchy.json`` to persist the
cells (``BENCH_kv_hierarchy_pr9.json`` is the PR 9 reference).
"""

import json
import os
from time import perf_counter

from repro.core.costmodel import make_cost_model
from repro.models import GPT2_CONFIGS
from repro.serving import ServingSimulator, get_trace_generator
from repro.serving.simulator import mean_service_time_s
from repro.serving.validate import expand_runs

MODEL = GPT2_CONFIGS["xl"]
BACKEND = "ianus"
TRACE = "chatbot"
POLICY = "interleaved"
MAX_BATCH = 8
#: Memory pressure: the KV pool, not the batch cap, binds admission.
KV_FRACTION = 0.06
#: Offered load as a fraction of nominal capacity (oversubscribed).
LOAD = 2.0
PREFIX_SHARE = 0.5
PREFIX_TOKENS = 64
PREFIX_GROUPS = 2
#: Host-link ladder for the swap frontier (Gbit/s).
LINKS = (0.5, 2.0, 8.0, 32.0)
FULL_REQUESTS = 1_500
VALIDATE_REQUESTS = 200
SEED = 9


def _requested_size() -> int:
    raw = os.environ.get("REPRO_BENCH_KV_HIERARCHY_REQUESTS")
    return FULL_REQUESTS if not raw else max(1, int(raw))


def _rate_rps(cost_model, generator) -> float:
    service = mean_service_time_s(cost_model, MODEL, generator.workloads)
    return LOAD / service


def _serve(cost_model, trace, *, engine="array", record_events=False, **kwargs):
    simulator = ServingSimulator(
        cost_model, MODEL, engine=engine, policy=POLICY, max_batch=MAX_BATCH,
        kv_fraction=KV_FRACTION, admission="optimistic", **kwargs,
    )
    start = perf_counter()
    metrics = simulator.simulate(trace, record_events=record_events)
    wall = perf_counter() - start
    return simulator, metrics, wall


def _concurrency_cell(cost_model, generator, rate_rps, size):
    plain = generator.generate(size, rate_rps, seed=SEED)
    baseline_trace = generator.generate(
        size, rate_rps, seed=SEED, prefix_share=0.0,
        prefix_tokens=PREFIX_TOKENS, prefix_groups=PREFIX_GROUPS,
    )
    shared_trace = generator.generate(
        size, rate_rps, seed=SEED, prefix_share=PREFIX_SHARE,
        prefix_tokens=PREFIX_TOKENS, prefix_groups=PREFIX_GROUPS,
    )
    _, baseline, baseline_wall = _serve(cost_model, baseline_trace)
    _, shared, shared_wall = _serve(cost_model, shared_trace)
    return {
        "requests": size,
        "kv_fraction": KV_FRACTION,
        "prefix_share": PREFIX_SHARE,
        "prefix_tokens": PREFIX_TOKENS,
        "prefix_groups": PREFIX_GROUPS,
        "share0_trace_byte_identical": baseline_trace == plain,
        "baseline": {
            "peak_active": baseline.peak_active,
            "admissions": baseline.admissions,
            "preemptions": baseline.preemptions,
            "tokens_per_s": round(baseline.tokens_per_s, 1),
            "makespan_s": round(baseline.makespan_s, 3),
            "wall_s": round(baseline_wall, 3),
        },
        "shared": {
            "peak_active": shared.peak_active,
            "admissions": shared.admissions,
            "preemptions": shared.preemptions,
            "tokens_per_s": round(shared.tokens_per_s, 1),
            "makespan_s": round(shared.makespan_s, 3),
            "wall_s": round(shared_wall, 3),
        },
        "concurrency_gain": (
            round(shared.peak_active / baseline.peak_active, 3)
            if baseline.peak_active
            else None
        ),
    }


def _frontier_cell(cost_model, generator, rate_rps, size):
    trace = generator.generate(
        size, rate_rps, seed=SEED, prefix_share=PREFIX_SHARE,
        prefix_tokens=PREFIX_TOKENS, prefix_groups=PREFIX_GROUPS,
    )
    _, recompute, recompute_wall = _serve(cost_model, trace)
    ladder = {}
    for link in LINKS:
        _, swapped, wall = _serve(
            cost_model, trace, swap=True, link_gbps=link
        )
        ladder[str(link)] = {
            "makespan_s": round(swapped.makespan_s, 3),
            "latency_p99_s": round(swapped.latency_p99_s, 4),
            "preemptions": swapped.preemptions,
            "recomputed_tokens": swapped.recomputed_tokens,
            "swap_outs": swapped.swap_outs,
            "swapped_pages": swapped.swapped_pages,
            "wall_s": round(wall, 3),
        }
    crossover = next(
        (
            link
            for link in LINKS
            if ladder[str(link)]["makespan_s"] <= recompute.makespan_s
        ),
        None,
    )
    return {
        "requests": size,
        "links_gbps": list(LINKS),
        "recompute": {
            "makespan_s": round(recompute.makespan_s, 3),
            "latency_p99_s": round(recompute.latency_p99_s, 4),
            "preemptions": recompute.preemptions,
            "recomputed_tokens": recompute.recomputed_tokens,
            "wall_s": round(recompute_wall, 3),
        },
        "swap": ladder,
        "crossover_gbps": crossover,
        "slow_link_loses": (
            ladder[str(LINKS[0])]["makespan_s"] > recompute.makespan_s
        ),
    }


def _validation_cell(cost_model, generator, rate_rps):
    trace = generator.generate(
        VALIDATE_REQUESTS, rate_rps, seed=SEED, prefix_share=PREFIX_SHARE,
        prefix_tokens=PREFIX_TOKENS, prefix_groups=PREFIX_GROUPS,
    )
    out = {"requests": VALIDATE_REQUESTS}
    violations = {}
    agree = {}
    for label, kwargs in (
        ("shared", {}),
        ("shared_swap", {"swap": True, "link_gbps": 8.0}),
    ):
        reference, ref_metrics, _ = _serve(
            cost_model, trace, engine="object", record_events=True, **kwargs
        )
        candidate, cand_metrics, _ = _serve(
            cost_model, trace, engine="array", record_events=True, **kwargs
        )
        # The array log aggregates its decode runs; expanded, it is the
        # object engine's per-iteration log.
        agree[label] = (
            any(event.kind == "decode_run" for event in candidate.events)
            and reference.events == expand_runs(candidate.events)
            and ref_metrics.to_dict() == cand_metrics.to_dict()
        )
        violations[label] = len(reference.validate_invariants())
    out["engines_byte_identical"] = agree
    out["invariant_violations"] = violations
    return out


def run_kv_hierarchy() -> dict:
    requested = _requested_size()
    full_scale = requested >= FULL_REQUESTS
    cost_model = make_cost_model(BACKEND)
    generator = get_trace_generator(TRACE)
    rate_rps = _rate_rps(cost_model, generator)
    size = min(FULL_REQUESTS, requested)
    cells = {
        "concurrency_gain": _concurrency_cell(
            cost_model, generator, rate_rps, size
        ),
        "swap_frontier": _frontier_cell(cost_model, generator, rate_rps, size),
        "validation": _validation_cell(cost_model, generator, rate_rps),
    }
    return {
        "benchmark": "kv_hierarchy",
        "backend": BACKEND,
        "model": MODEL.name,
        "trace": TRACE,
        "kv_fraction": KV_FRACTION,
        "load_fraction": LOAD,
        "max_batch": MAX_BATCH,
        "full_scale": full_scale,
        "cells": cells,
    }


def test_kv_hierarchy_benchmark(benchmark):
    document = benchmark.pedantic(run_kv_hierarchy, rounds=1, iterations=1)
    cells = document["cells"]
    gain = cells["concurrency_gain"]
    # Correctness gates engage at every scale.
    assert gain["share0_trace_byte_identical"]
    validation = cells["validation"]
    assert all(validation["engines_byte_identical"].values())
    assert all(
        count == 0 for count in validation["invariant_violations"].values()
    )
    # Sharing must never admit less from the same pool.
    assert gain["concurrency_gain"] is not None
    assert gain["concurrency_gain"] >= 1.0
    frontier = cells["swap_frontier"]
    assert frontier["slow_link_loses"]
    if document["full_scale"]:
        assert gain["shared"]["peak_active"] > gain["baseline"]["peak_active"]
        assert frontier["crossover_gbps"] is not None
    report_path = os.environ.get("REPRO_BENCH_REPORT")
    if report_path:
        with open(report_path, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    print()
    print(json.dumps(document, indent=2))
