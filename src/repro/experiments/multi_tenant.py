"""Multi-model, multi-tenant serving — consolidation vs SLO frontier.

PR 10 lets one replica co-host a *model set*: requests name the model
they want, switching the active model prices a full weight swap over the
host link, and the cluster router can see which weights are resident.
This sweep measures what that buys on a stressed consolidated fleet:

* **consolidation axis** — a set of three IANUS-resident models
  (:data:`MODEL_NAMES`) served by ``R`` replicas at a fixed per-replica
  offered load.  ``R < len(models)`` forces some replica to time-share
  weights, so every router pays swaps; the consolidation ratio
  ``len(models) / R`` is the x-axis of the frontier.
* **router axis** — the model-blind baselines (round-robin and
  join-shortest-queue) against the ``model-aware`` router, which prefers
  replicas whose resident weights already match the arrival and breaks
  ties on load then free KV.  Same arrivals, same replicas, same
  per-tenant shares — only the routing decision differs, so any SLO gap
  is attributable to swap avoidance.
* **tenancy** — every cell serves two priority classes with per-class
  SLO targets and :class:`~repro.serving.simulator.PriorityPolicy`
  admission shares, and reports per-(model, class) attainment: the
  isolation story is visible per tenant, not only in the pooled mean.

Every cell runs on both engines (object reference and array) and
requires byte-identical pooled metrics and event logs (the array logs
with their decode runs expanded); the logs replay
through the invariant checker with model tracking active (forged or
deleted ``model_swap`` events fail the cell).

Declared as a :class:`~repro.experiments.base.Sweep`;
``repro bench multi-tenant --jobs N`` shards it cell-by-cell.
"""

from __future__ import annotations

from repro.experiments.base import Cell, ExperimentResult, Sweep

__all__ = ["run", "sweep", "MODEL_NAMES", "ROUTERS", "REPLICAS"]

#: The co-hosted set: every member fits IANUS's 8 GiB memory alone.
MODEL_NAMES = ("gpt2-xl", "gemma-1b", "gemma-2b")
#: The default model (arrivals with an empty model field want this one).
DEFAULT_MODEL = "gpt2-xl"
BACKEND = "ianus"
TRACE_NAME = "chatbot"
#: Model-blind baselines first, the model-aware contender last.
ROUTERS = ("round-robin", "model-aware")
FULL_ROUTERS = ("round-robin", "least-outstanding-tokens", "model-aware")
#: Fleet sizes; len(MODEL_NAMES) / R is the consolidation ratio.
REPLICAS = (2, 3)
FULL_REPLICAS = (1, 2, 3)
NUM_REQUESTS = 90
FULL_NUM_REQUESTS = 180
SEED = 11
MAX_BATCH = 8
#: Offered load per replica as a fraction of single-model capacity.
LOAD = 0.8
NUM_CLASSES = 2
#: Per-class latency SLOs (premium tenant first).
SLO_TARGETS = (0.5, 2.0)
#: Admission reservations: half the batch for class 0, a quarter for 1.
CLASS_SHARES = (0.5, 0.25)


def _cell_id(replicas: int, router: str) -> str:
    return f"r{replicas}-{router}"


def sweep(fast: bool = True) -> Sweep:
    """One cell per (fleet size, router)."""
    routers = ROUTERS if fast else FULL_ROUTERS
    replicas = REPLICAS if fast else FULL_REPLICAS
    num_requests = NUM_REQUESTS if fast else FULL_NUM_REQUESTS
    cells = [
        Cell(
            _cell_id(count, router),
            {
                "replicas": count,
                "router": router,
                "num_requests": num_requests,
                "seed": SEED,
            },
        )
        for count in replicas
        for router in routers
    ]
    return Sweep("multi-tenant", cells, _run_cell, _reduce)


def run(fast: bool = True) -> ExperimentResult:
    return sweep(fast).execute()


def _build_cluster(cost_model, models, engine: str, params: dict):
    from repro.serving.cluster import ClusterSimulator
    from repro.serving.simulator import make_policy

    return ClusterSimulator(
        cost_model,
        models[0],
        num_replicas=params["replicas"],
        router=params["router"],
        models=models,
        policy=make_policy(
            "priority", max_batch=MAX_BATCH, class_shares=CLASS_SHARES
        ),
        slo_targets=SLO_TARGETS,
        num_classes=NUM_CLASSES,
        engine=engine,
    )


def _run_cell(params: dict) -> dict:
    """Serve one sweep point on both engines and report its metrics (pure).

    The object engine is the reference; the array engine's per-replica
    event logs, their decode runs expanded, must equal its byte for
    byte, and the logs must replay
    clean through the model-tracking invariant checker.
    """
    from repro.core.costmodel import make_cost_model
    from repro.models import get_model
    from repro.serving.simulator import mean_service_time_s
    from repro.serving.trace import get_trace_generator
    from repro.serving.validate import expand_runs

    cost_model = make_cost_model(BACKEND)
    models = tuple(get_model(name) for name in MODEL_NAMES)
    generator = get_trace_generator(TRACE_NAME)
    service_s = mean_service_time_s(cost_model, models[0], generator.workloads)
    rate_rps = params["replicas"] * LOAD / service_s
    trace = generator.generate(
        params["num_requests"],
        rate_rps,
        seed=params["seed"],
        num_classes=NUM_CLASSES,
        model_mix=[(name, 1.0) for name in MODEL_NAMES],
    )
    reference = _build_cluster(cost_model, models, "object", params)
    metrics = reference.simulate(trace, record_events=True)
    violations = reference.validate_invariants()
    candidate = _build_cluster(cost_model, models, "array", params)
    candidate_metrics = candidate.simulate(trace, record_events=True)
    # The array logs aggregate their decode runs; expanded, they are the
    # object engine's per-iteration logs.
    engines_agree = (
        any(
            event.kind == "decode_run"
            for log in candidate.events
            for event in log
        )
        and reference.events == [expand_runs(log) for log in candidate.events]
        and metrics.to_dict() == candidate_metrics.to_dict()
    )
    return {
        "rate_rps": rate_rps,
        "consolidation": len(MODEL_NAMES) / params["replicas"],
        "violations": len(violations),
        "engines_agree": engines_agree,
        "metrics": metrics.to_dict(
            include_requests=False, include_replicas=False
        ),
    }


def _reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    replicas = sorted({cell.params["replicas"] for cell in grid.cells})
    routers = [
        router
        for router in FULL_ROUTERS
        if any(cell.params["router"] == router for cell in grid.cells)
    ]

    def cell(count: int, router: str) -> dict:
        return outputs[_cell_id(count, router)]

    rows: list[list] = []
    for count in replicas:
        for router in routers:
            out = cell(count, router)
            metrics = out["metrics"]
            rows.append(
                [
                    f"{out['consolidation']:.1f}x",
                    count,
                    router,
                    metrics["model_swaps"],
                    round(metrics["model_swap_s"], 2),
                    round(metrics["makespan_s"], 2),
                    round(metrics["latency_p99_s"] * 1e3, 1),
                    f"{metrics['slo_attainment']:.0%}",
                    f"{metrics['slo_by_class'].get('0', 0.0):.0%}",
                    out["violations"],
                ]
            )

    # The frontier claim: on every consolidated multi-replica fleet the
    # model-aware router strictly beats every model-blind baseline on
    # pooled SLO attainment (same arrivals, same shares).
    blind = [router for router in routers if router != "model-aware"]
    wins = {}
    for count in replicas:
        if count < 2 or "model-aware" not in routers:
            continue  # a single replica leaves the router no choice
        aware = cell(count, "model-aware")["metrics"]["slo_attainment"]
        best_blind = max(
            cell(count, router)["metrics"]["slo_attainment"]
            for router in blind
        )
        wins[count] = aware > best_blind
    model_aware_wins = bool(wins) and all(wins.values())

    valid = all(outputs[cell.cell_id]["violations"] == 0 for cell in grid.cells)
    engines_agree = all(
        outputs[cell.cell_id]["engines_agree"] for cell in grid.cells
    )

    frontier = {
        str(count): {
            router: cell(count, router)["metrics"]["slo_attainment"]
            for router in routers
        }
        for count in replicas
    }

    return ExperimentResult(
        experiment_id="multi-tenant",
        title=(
            "Multi-model multi-tenant serving - "
            f"{{{', '.join(MODEL_NAMES)}}} on IANUS "
            f"({TRACE_NAME} trace, {NUM_CLASSES} classes, "
            f"shares {CLASS_SHARES}, load {LOAD}x per replica)"
        ),
        headers=[
            "consolid", "replicas", "router", "swaps", "swap s",
            "makespan s", "p99 ms", "SLO", "SLO c0", "viol",
        ],
        rows=rows,
        paper_claims=[
            "(multi-model extension beyond the paper's single-model "
            "serving evaluation)",
            "weight swaps are the consolidation tax: a fleet smaller than "
            "its model set must time-share weights over the host link",
            "routing on (resident model, load, KV) should beat model-blind "
            "routing wherever the fleet leaves the router a choice",
        ],
        measured_claims=[
            "model-aware router strictly beats every model-blind baseline "
            "on pooled SLO attainment at every multi-replica fleet size: "
            + ("yes — " if model_aware_wins else "NO — ")
            + "; ".join(
                f"R={count}: "
                + ", ".join(
                    f"{router} {frontier[str(count)][router]:.0%}"
                    for router in routers
                )
                for count in replicas
                if count >= 2
            ),
            "array engine byte-identical to the object engine on every "
            "cell (per-iteration multi-model loop and exact decode runs, "
            "event logs expanded): "
            + ("yes" if engines_agree else "NO"),
            "model-tracking invariant replay (weight-swap ledger included) "
            "holds in every cell: "
            + ("yes (0 violations)" if valid else "NO"),
        ],
        data={
            "model_aware_wins": model_aware_wins,
            "wins_by_replicas": {str(k): v for k, v in wins.items()},
            "frontier": frontier,
            "engines_agree": engines_agree,
            "valid": valid,
            "cells": {cell.cell_id: outputs[cell.cell_id] for cell in grid.cells},
        },
    )
