"""Multi-model multi-tenant serving benchmark (PR 10).

PR 10 lets a replica co-host a model set (weight swaps priced over the
host link), teaches the cluster router to see resident weights, and adds
per-class admission shares for tenant isolation.  This bench walks the
consolidation frontier:

* ``frontier`` — a three-model set ({gpt2-xl, gemma-1b, gemma-2b}, each
  of which fits IANUS's 8 GiB alone) served by 2 and 3 replicas at a
  fixed per-replica load, two priority classes with per-class SLOs and
  admission shares.  Each fleet size runs every router: the model-blind
  baselines (round-robin, join-shortest-queue) against ``model-aware``
  routing on (resident model, load, free KV).  The headline is pooled
  SLO attainment by router — swap avoidance is worth real attainment on
  a consolidated fleet.
* validation rides along in every cell: the array engine must reproduce
  the object engine's per-replica event logs byte for byte (multi-model
  runs take the per-iteration path on both engines, and the array
  engine's exact decode runs, whose events are expanded for the
  comparison), and the logs must
  replay clean through the model-tracking invariant checker (forged or
  deleted ``model_swap`` events fail the cell).

Run with::

    pytest benchmarks/bench_multitenant.py --benchmark-only -q

``REPRO_BENCH_MULTITENANT_REQUESTS`` caps the cell sizes (CI smoke uses
a small cap; the every-fleet-size strict-win assertion only engages at
full scale, the at-least-one-stressed-cell win, byte-identity and
zero-violation assertions always).  Set
``REPRO_BENCH_REPORT=/path/to/BENCH_multitenant.json`` to persist the
cells (``BENCH_multitenant_pr10.json`` is the PR 10 reference).
"""

import json
import os
from time import perf_counter

from repro.experiments import multi_tenant

ROUTERS = ("round-robin", "least-outstanding-tokens", "model-aware")
REPLICAS = (2, 3)
FULL_REQUESTS = multi_tenant.FULL_NUM_REQUESTS
SEED = multi_tenant.SEED


def _requested_size() -> int:
    raw = os.environ.get("REPRO_BENCH_MULTITENANT_REQUESTS")
    return FULL_REQUESTS if not raw else max(1, int(raw))


def run_multitenant() -> dict:
    requested = _requested_size()
    full_scale = requested >= FULL_REQUESTS
    size = min(FULL_REQUESTS, requested)
    cells = {}
    for count in REPLICAS:
        for router in ROUTERS:
            start = perf_counter()
            out = multi_tenant._run_cell(
                {
                    "replicas": count,
                    "router": router,
                    "num_requests": size,
                    "seed": SEED,
                }
            )
            wall = perf_counter() - start
            metrics = out["metrics"]
            cells[f"r{count}-{router}"] = {
                "replicas": count,
                "router": router,
                "requests": size,
                "consolidation": out["consolidation"],
                "model_swaps": metrics["model_swaps"],
                "model_swap_s": round(metrics["model_swap_s"], 3),
                "makespan_s": round(metrics["makespan_s"], 3),
                "latency_p99_s": round(metrics["latency_p99_s"], 4),
                "slo_attainment": round(metrics["slo_attainment"], 4),
                "slo_by_class": {
                    cls: round(value, 4)
                    for cls, value in metrics["slo_by_class"].items()
                },
                "slo_by_model_class": {
                    key: round(value, 4)
                    for key, value in metrics["slo_by_model_class"].items()
                },
                "violations": out["violations"],
                "engines_byte_identical": out["engines_agree"],
                "wall_s": round(wall, 3),
            }
    wins = {}
    for count in REPLICAS:
        aware = cells[f"r{count}-model-aware"]["slo_attainment"]
        best_blind = max(
            cells[f"r{count}-{router}"]["slo_attainment"]
            for router in ROUTERS
            if router != "model-aware"
        )
        wins[str(count)] = aware > best_blind
    return {
        "benchmark": "multitenant",
        "backend": multi_tenant.BACKEND,
        "models": list(multi_tenant.MODEL_NAMES),
        "trace": multi_tenant.TRACE_NAME,
        "num_classes": multi_tenant.NUM_CLASSES,
        "slo_targets": list(multi_tenant.SLO_TARGETS),
        "class_shares": list(multi_tenant.CLASS_SHARES),
        "load_per_replica": multi_tenant.LOAD,
        "max_batch": multi_tenant.MAX_BATCH,
        "full_scale": full_scale,
        "model_aware_wins": wins,
        "cells": cells,
    }


def test_multitenant_benchmark(benchmark):
    document = benchmark.pedantic(run_multitenant, rounds=1, iterations=1)
    cells = document["cells"]
    # Correctness gates engage at every scale: both engines agree on
    # every cell and the model-tracking replay finds nothing.
    assert all(cell["engines_byte_identical"] for cell in cells.values())
    assert all(cell["violations"] == 0 for cell in cells.values())
    # Consolidation prices real weight swaps wherever R < len(models).
    assert all(
        cell["model_swaps"] > 0
        for cell in cells.values()
        if cell["replicas"] < len(document["models"])
    )
    # The frontier: model-aware routing strictly beats the best
    # model-blind baseline at one stressed fleet size at least; at full
    # scale it must win at every swept fleet size.
    assert any(document["model_aware_wins"].values())
    if document["full_scale"]:
        assert all(document["model_aware_wins"].values())
    report_path = os.environ.get("REPRO_BENCH_REPORT")
    if report_path:
        with open(report_path, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    print()
    print(json.dumps(document, indent=2))
