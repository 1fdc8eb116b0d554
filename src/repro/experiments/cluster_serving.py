"""Cluster serving — multi-replica routing and optimistic KV admission.

Extends the single-device ``serving`` study to a *cluster*: one skewed
arrival trace fans out over ``R`` identical IANUS replicas through a
pluggable router (:mod:`repro.serving.cluster`), and each replica runs the
memory-aware simulator under either admission mode
(:mod:`repro.serving.simulator`).  The sweep crosses
**replicas × router × admission × offered load** at a fixed
``kv_fraction=0.25`` memory pressure — the regime where routing and
admission policy actually matter:

* *replicas* include 1, so the sweep carries its own differential oracle:
  a one-replica cluster must reproduce the plain
  :class:`~repro.serving.simulator.ServingSimulator` **byte for byte**
  under every router (dedicated ``single`` reference cells pin this);
* *routers* compare blind round-robin against state-aware routing
  (least-outstanding-tokens, kv-aware) on the heavy-tailed ``skewed``
  trace, where per-request decisions dominate replica balance;
* *admission* compares PR 4's worst-case-commit against optimistic
  admission with preempt-and-recompute: optimism admits strictly more
  concurrent requests under pressure, at the price of recomputed tokens;
* every cell records its event logs and replays them through the
  **extended** invariant checker (page-ledger replay included), so the
  sweep doubles as an oracle for the growth/preemption machinery.

Offered load is expressed as a fraction of the *cluster's* nominal
capacity (``R``.  times the single-replica capacity), so curves are
comparable across replica counts.  Declared as a
:class:`~repro.experiments.base.Sweep`; ``repro bench cluster --jobs N``
shards it across the pool with byte-identical rows.
"""

from __future__ import annotations

import json

from repro.experiments.base import Cell, ExperimentResult, Sweep

__all__ = ["run", "sweep", "MODEL_KEY", "TRACE_NAME", "LOADS", "FULL_LOADS"]

#: Served model (GPT-2 XL, as in the ``serving`` sweep).
MODEL_KEY = "xl"
#: Heavy-tailed request mix — routing policy dominates balance.
TRACE_NAME = "skewed"
#: Per-replica backend.
BACKEND = "ianus"
#: Replica counts swept (1 is the differential oracle against the
#: single-device simulator).
REPLICAS = (1, 2)
FULL_REPLICAS = (1, 2, 4)
ROUTER_NAMES = ("round-robin", "least-outstanding-tokens", "kv-aware")
ADMISSIONS = ("worst-case", "optimistic")
#: Offered load as a fraction of the cluster's nominal capacity.
LOADS = (0.5, 2.0)
FULL_LOADS = (0.5, 1.0, 2.0, 4.0)
NUM_REQUESTS = 32
FULL_NUM_REQUESTS = 48
SEED = 0
#: Scheduling inside each replica.
POLICY = "interleaved"
#: Generous concurrency cap: the KV pool, not the head count, must bind.
MAX_BATCH = 16
#: Memory pressure: a quarter of the weight-free memory per replica.
KV_FRACTION = 0.25


def _cluster_cell_id(replicas: int, router: str, admission: str, load: float) -> str:
    return f"r{replicas}/{router}/{admission}/load{load}"


def _single_cell_id(admission: str, load: float) -> str:
    return f"single/{admission}/load{load}"


def sweep(fast: bool = True) -> Sweep:
    """One cell per (replicas, router, admission, load) plus single-device
    reference cells (the differential oracle for ``replicas == 1``)."""
    replicas = REPLICAS if fast else FULL_REPLICAS
    loads = LOADS if fast else FULL_LOADS
    num_requests = NUM_REQUESTS if fast else FULL_NUM_REQUESTS
    cells = [
        Cell(
            _cluster_cell_id(count, router, admission, load),
            {
                "mode": "cluster",
                "replicas": count,
                "router": router,
                "admission": admission,
                "load": load,
                "num_requests": num_requests,
                "seed": SEED,
            },
        )
        for count in replicas
        for router in ROUTER_NAMES
        for admission in ADMISSIONS
        for load in loads
    ]
    cells.extend(
        Cell(
            _single_cell_id(admission, load),
            {
                "mode": "single",
                "admission": admission,
                "load": load,
                "num_requests": num_requests,
                "seed": SEED,
            },
        )
        for admission in ADMISSIONS
        for load in loads
    )
    return Sweep("cluster", cells, _run_cell, _reduce)


def run(fast: bool = True) -> ExperimentResult:
    return sweep(fast).execute()


def _simulator_kwargs(admission: str) -> dict:
    return {
        "policy": POLICY,
        "max_batch": MAX_BATCH,
        "kv_fraction": KV_FRACTION,
        "admission": admission,
        "preempt": True,
    }


def _trace_and_rate(params: dict, replicas: int):
    from repro.core.costmodel import make_cost_model
    from repro.models import GPT2_CONFIGS
    from repro.serving.simulator import mean_service_time_s
    from repro.serving.trace import get_trace_generator

    model = GPT2_CONFIGS[MODEL_KEY]
    cost_model = make_cost_model(BACKEND)
    generator = get_trace_generator(TRACE_NAME)
    service_s = mean_service_time_s(cost_model, model, generator.workloads)
    rate_rps = params["load"] * replicas / service_s
    trace = generator.generate(
        params["num_requests"], rate_rps, seed=params["seed"]
    )
    return cost_model, model, trace, service_s, rate_rps


def _run_cell(params: dict) -> dict:
    """Serve one sweep point and report its metrics (pure).

    Cluster cells validate every replica's event log through the extended
    checker (page-ledger replay included); single cells validate their own
    log the same way, so every sharded worker independently re-proves the
    growth/preemption contract on its own cells.
    """
    from repro.serving.cluster import ClusterSimulator
    from repro.serving.simulator import ServingSimulator

    admission = params["admission"]
    if params["mode"] == "single":
        cost_model, model, trace, service_s, rate_rps = _trace_and_rate(params, 1)
        simulator = ServingSimulator(
            cost_model, model, **_simulator_kwargs(admission)
        )
        metrics = simulator.simulate(trace, record_events=True)
        violations = simulator.validate_invariants()
        return {
            "capacity_rps": 1.0 / service_s,
            "rate_rps": rate_rps,
            "violations": len(violations),
            "metrics": metrics.to_dict(include_requests=False),
        }
    replicas = params["replicas"]
    cost_model, model, trace, service_s, rate_rps = _trace_and_rate(
        params, replicas
    )
    cluster = ClusterSimulator(
        cost_model,
        model,
        num_replicas=replicas,
        router=params["router"],
        **_simulator_kwargs(admission),
    )
    metrics = cluster.simulate(trace, record_events=True)
    violations = cluster.validate_invariants()
    return {
        "capacity_rps": replicas / service_s,
        "rate_rps": rate_rps,
        "violations": len(violations),
        "metrics": metrics.to_dict(include_requests=False, include_replicas=True),
    }


def _reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    replica_counts = sorted(
        {
            cell.params["replicas"]
            for cell in grid.cells
            if cell.params["mode"] == "cluster"
        }
    )
    loads = sorted(
        {cell.params["load"] for cell in grid.cells if cell.params["mode"] == "cluster"}
    )
    top_load = max(loads)
    top_replicas = max(replica_counts)

    rows: list[list] = []
    for cell in grid.cells:
        if cell.params["mode"] != "cluster":
            continue
        out = outputs[cell.cell_id]
        metrics = out["metrics"]
        params = cell.params
        imbalance = metrics["load_imbalance"]
        rows.append(
            [
                params["replicas"],
                params["router"],
                params["admission"],
                params["load"],
                round(metrics["tokens_per_s"], 1),
                round(metrics["latency_mean_s"] * 1e3, 1),
                round(metrics["latency_p99_s"] * 1e3, 1),
                round(metrics["ttft_p99_s"] * 1e3, 1),
                "inf" if imbalance == float("inf") else round(imbalance, 2),
                metrics["peak_active"],
                metrics["admissions"],
                metrics["preemptions"],
                metrics["recomputed_tokens"],
                metrics["kv_peak_pages"],
                out["violations"],
            ]
        )

    def cluster_metrics(replicas: int, router: str, admission: str, load: float) -> dict:
        return outputs[_cluster_cell_id(replicas, router, admission, load)]["metrics"]

    # Differential oracle: a one-replica cluster reproduces the plain
    # simulator byte for byte under every router and admission mode.
    differential = all(
        json.dumps(cluster_metrics(1, router, admission, load)["per_replica"][0])
        == json.dumps(outputs[_single_cell_id(admission, load)]["metrics"])
        for router in ROUTER_NAMES
        for admission in ADMISSIONS
        for load in loads
    )

    # Router comparison at the stressed corner (most replicas, top load).
    router_wins: dict[str, dict[str, float]] = {}
    for admission in ADMISSIONS:
        rr = cluster_metrics(top_replicas, "round-robin", admission, top_load)
        kv = cluster_metrics(top_replicas, "kv-aware", admission, top_load)
        router_wins[admission] = {
            "rr_p99_s": rr["latency_p99_s"],
            "kv_p99_s": kv["latency_p99_s"],
            "rr_imbalance": rr["load_imbalance"],
            "kv_imbalance": kv["load_imbalance"],
        }
    kv_beats_rr = all(
        wins["kv_p99_s"] <= wins["rr_p99_s"] * (1 + 1e-9)
        and wins["kv_imbalance"] <= wins["rr_imbalance"] * (1 + 1e-9)
        for wins in router_wins.values()
    )

    # Admission comparison: optimistic admits at least as many everywhere,
    # and strictly more (with real preemptions) at the stressed corner.
    admits_at_least = all(
        cluster_metrics(count, router, "optimistic", load)["admissions"]
        >= cluster_metrics(count, router, "worst-case", load)["admissions"]
        and cluster_metrics(count, router, "optimistic", load)["peak_active"]
        >= cluster_metrics(count, router, "worst-case", load)["peak_active"]
        for count in replica_counts
        for router in ROUTER_NAMES
        for load in loads
    )
    stressed_opt = cluster_metrics(top_replicas, "round-robin", "optimistic", top_load)
    stressed_wc = cluster_metrics(top_replicas, "round-robin", "worst-case", top_load)
    admits_strictly_more = (
        stressed_opt["peak_active"] > stressed_wc["peak_active"]
        and stressed_opt["preemptions"] > 0
        and stressed_wc["preemptions"] == 0
    )
    valid = all(outputs[cell.cell_id]["violations"] == 0 for cell in grid.cells)

    return ExperimentResult(
        experiment_id="cluster",
        title=(
            "Cluster serving - GPT-2 XL on replicated IANUS "
            f"({TRACE_NAME} trace, replicas x router x admission x load, "
            f"kv_fraction={KV_FRACTION})"
        ),
        headers=[
            "R", "router", "admission", "load", "tokens/s", "mean ms",
            "p99 ms", "TTFT p99 ms", "imbal", "peak", "admits", "preempt",
            "recomp", "KV peak", "viol",
        ],
        rows=rows,
        paper_claims=[
            "(cluster extension beyond the paper's single-appliance evaluation)",
            "state-aware routing should beat blind round-robin under "
            "heavy-tailed load (the tail must not pile onto one replica)",
            "optimistic admission with preempt-and-recompute should admit "
            "more concurrent requests than worst-case-commit under memory "
            "pressure, at the price of recomputed tokens",
        ],
        measured_claims=[
            "one-replica cluster == single-device simulator, byte-identical, "
            "under every router and admission mode: "
            + ("yes" if differential else "NO"),
            f"kv-aware routing beats round-robin at R={top_replicas}, load "
            f"{top_load} (p99 and load imbalance, both admissions): "
            + ("yes — " if kv_beats_rr else "NO — ")
            + ", ".join(
                f"{admission}: p99 {wins['kv_p99_s'] * 1e3:.0f} vs "
                f"{wins['rr_p99_s'] * 1e3:.0f} ms, imbalance "
                f"{wins['kv_imbalance']:.2f} vs {wins['rr_imbalance']:.2f}"
                for admission, wins in router_wins.items()
            ),
            "optimistic admission admits >= worst-case on every cell: "
            + ("yes" if admits_at_least else "NO"),
            f"and strictly more at the stressed corner (R={top_replicas}, "
            f"load {top_load}, round-robin): "
            + ("yes — " if admits_strictly_more else "NO — ")
            + f"peak {stressed_opt['peak_active']} vs "
            f"{stressed_wc['peak_active']} in flight, "
            f"{stressed_opt['preemptions']} preemptions recomputing "
            f"{stressed_opt['recomputed_tokens']} tokens",
            "extended scheduling invariants (page-ledger replay) hold in "
            "every cell: " + ("yes (0 violations)" if valid else "NO"),
        ],
        data={
            "differential": differential,
            "kv_beats_rr": kv_beats_rr,
            "admits_at_least": admits_at_least,
            "admits_strictly_more": admits_strictly_more,
            "valid": valid,
            "router_wins": router_wins,
            "stressed": {
                "optimistic": {
                    key: stressed_opt[key]
                    for key in (
                        "peak_active", "admissions", "preemptions",
                        "recomputed_tokens", "tokens_per_s",
                    )
                },
                "worst-case": {
                    key: stressed_wc[key]
                    for key in (
                        "peak_active", "admissions", "preemptions",
                        "recomputed_tokens", "tokens_per_s",
                    )
                },
            },
            "cells": {cell.cell_id: outputs[cell.cell_id] for cell in grid.cells},
        },
    )
