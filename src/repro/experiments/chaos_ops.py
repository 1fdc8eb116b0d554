"""Chaos ops — failure injection, failover and causal autoscaling.

Production serving is not a steady state: traffic breathes (diurnal
cycles, flash crowds), replicas die mid-decode, and the fleet must resize
itself without reading the future.  This sweep drives the cluster
simulator (:mod:`repro.serving.cluster`) through exactly those regimes
and pins the machinery with the same oracle discipline as the ``cluster``
sweep — every cell replays its event logs through the **extended**
invariant checker (failure drops, recoveries and scale markers included).

The grid has five families of cells:

* *differential* — a one-replica cluster with ``failures="none"`` and the
  ``fixed`` autoscaler must reproduce the plain
  :class:`~repro.serving.simulator.ServingSimulator` **byte for byte**:
  the whole ops layer must cost nothing when inert;
* *frontier* — scaling policies (``fixed`` fleets of 2 and 4 vs
  ``queue-depth`` / ``kv-pressure`` / ``slo-attainment``) on one diurnal
  trace whose peak overloads two replicas but whose trough wastes four.
  Each cell lands on an **SLO-attainment vs replica-seconds** frontier:
  the adaptive policies should buy (nearly) the over-provisioned fleet's
  attainment for a fraction of its replica-seconds;
* *failover* — the same trace with and without one replica dying
  mid-trace: zero requests may be lost (token-conservation-checked
  against the trace), p99 degrades by a bounded factor, and the chaos
  run is deterministic (the cell simulates twice and byte-compares);
* *flash* — a flash crowd against a fixed fleet vs the reactive
  ``queue-depth`` scaler (warm-up priced through the cost model);
* *chaos* — seeded Poisson failures *and* autoscaling *and* diurnal
  traffic at once, the everything-at-once soak.

Offered load is expressed against the nominal capacity of the
``BASE_REPLICAS`` fleet so cells are comparable.  Declared as a
:class:`~repro.experiments.base.Sweep`; ``repro bench chaos --jobs N``
shards it with byte-identical rows.
"""

from __future__ import annotations

import json

from repro.experiments.base import Cell, ExperimentResult, Sweep

__all__ = ["run", "sweep", "MODEL_KEY", "TRACE_NAME", "SCALERS"]

#: Served model — GPT-2 M keeps every cell cheap enough for CI smoke.
MODEL_KEY = "m"
#: Interactive request mix (chat-shaped prompts and replies).
TRACE_NAME = "chatbot"
#: Per-replica backend.
BACKEND = "ianus"
#: The reference fleet size; loads are fractions of its capacity.
BASE_REPLICAS = 2
#: Over-provisioned fleet the adaptive policies are framed against.
OVER_REPLICAS = 4
#: Mean offered load of the diurnal frontier, as a fraction of the
#: BASE_REPLICAS fleet's capacity: the ~1.8x diurnal peak overloads two
#: replicas while the trough idles them.
FRONTIER_LOAD = 1.1
#: Diurnal swing (peak = 1.6x mean, trough = 0.4x mean).
DIURNAL_AMPLITUDE = 0.6
#: Flash-crowd spike height.
FLASH_MAGNITUDE = 3.0
#: Failover cells run at this steady load.
FAILOVER_LOAD = 0.7
#: Latency SLO, in units of the mean unloaded service time.
SLO_SCALE = 4.0
#: p99 degradation bound through a replica failure (vs the clean run).
FAILOVER_P99_BOUND = 3.0
#: Adaptive attainment may trail the over-provisioned fleet by this much.
ATTAINMENT_SLACK = 0.05
#: ...while spending at most this fraction of its replica-seconds.
REPLICA_SECONDS_FRACTION = 0.8
NUM_REQUESTS = 128
FULL_NUM_REQUESTS = 256
SEED = 0
POLICY = "interleaved"
MAX_BATCH = 16
#: Names of the scaling policies on the frontier, in presentation order.
SCALERS = ("fixed-2", "fixed-4", "queue-depth", "kv-pressure", "slo-attainment")


def sweep(fast: bool = True) -> Sweep:
    """Differential + frontier + failover + flash + seeded-chaos cells."""
    num_requests = NUM_REQUESTS if fast else FULL_NUM_REQUESTS
    base = {"num_requests": num_requests, "seed": SEED}
    cells = [
        Cell("ref/plain", {"family": "plain", **base}),
        Cell("diff/inert-cluster", {"family": "inert", **base}),
        Cell("failover/clean", {"family": "failover", "failure": False, **base}),
        Cell("failover/single", {"family": "failover", "failure": True, **base}),
        Cell("flash/fixed-2", {"family": "flash", "scaler": "fixed-2", **base}),
        Cell(
            "flash/queue-depth",
            {"family": "flash", "scaler": "queue-depth", **base},
        ),
        Cell("chaos/seeded", {"family": "chaos", **base}),
    ]
    cells.extend(
        Cell(f"frontier/{scaler}", {"family": "frontier", "scaler": scaler, **base})
        for scaler in SCALERS
    )
    return Sweep("chaos", cells, _run_cell, _reduce)


def run(fast: bool = True) -> ExperimentResult:
    return sweep(fast).execute()


# ----------------------------------------------------------------------
def _context(params: dict):
    """Shared deterministic scales: model, cost model, service time, SLO."""
    from repro.core.costmodel import make_cost_model
    from repro.models import GPT2_CONFIGS
    from repro.serving.simulator import mean_service_time_s
    from repro.serving.trace import get_trace_generator

    model = GPT2_CONFIGS[MODEL_KEY]
    cost_model = make_cost_model(BACKEND)
    generator = get_trace_generator(TRACE_NAME)
    service_s = mean_service_time_s(cost_model, model, generator.workloads)
    slo_s = SLO_SCALE * service_s
    return cost_model, model, generator, service_s, slo_s


def _simulator_kwargs(slo_s: float) -> dict:
    return {
        "policy": POLICY,
        "max_batch": MAX_BATCH,
        "slo_targets": (slo_s,),
        "admission": "optimistic",
        "preempt": True,
    }


def _autoscaler(scaler: str, horizon_s: float):
    """The frontier's scaling policies, windows sized to the horizon."""
    from repro.serving.autoscale import make_autoscaler

    window_s = horizon_s / 8.0
    common = dict(
        min_replicas=1,
        max_replicas=OVER_REPLICAS,
        cooldown_s=horizon_s / 16.0,
        window_s=window_s,
    )
    if scaler in ("fixed-2", "fixed-4"):
        return make_autoscaler("fixed")
    if scaler == "queue-depth":
        return make_autoscaler("queue-depth", high=1.0, low=0.3, **common)
    if scaler == "kv-pressure":
        return make_autoscaler("kv-pressure", high=0.5, low=0.1, **common)
    if scaler == "slo-attainment":
        return make_autoscaler(
            "slo-attainment", low=0.95, high=0.995, drain_depth=0.5, **common
        )
    raise ValueError(f"unknown frontier scaler {scaler!r}")


def _cell_metrics(metrics, trace, violations) -> dict:
    """The per-cell record: pooled metrics + the conservation ledger."""
    expected_tokens = sum(request.output_tokens for request in trace)
    return {
        "violations": len(violations),
        "expected_requests": len(trace),
        "expected_output_tokens": expected_tokens,
        "lost_requests": len(trace) - metrics.num_requests,
        "lost_output_tokens": expected_tokens - metrics.output_tokens,
        "metrics": metrics.to_dict(include_requests=False),
    }


def _run_cell(params: dict) -> dict:
    from repro.serving.cluster import ClusterSimulator
    from repro.serving.failures import SeededFailures, SingleFailure
    from repro.serving.simulator import ServingSimulator
    from repro.serving.trace import DiurnalCurve, FlashCrowdCurve

    cost_model, model, generator, service_s, slo_s = _context(params)
    family = params["family"]
    num_requests = params["num_requests"]
    seed = params["seed"]

    if family in ("plain", "inert"):
        # Stationary trace at a comfortable one-replica load: the inert
        # cluster must match the plain simulator byte for byte.
        rate_rps = 0.6 / service_s
        trace = generator.generate(num_requests, rate_rps, seed=seed)
        if family == "plain":
            simulator = ServingSimulator(
                cost_model, model, **_simulator_kwargs(slo_s)
            )
            metrics = simulator.simulate(trace, record_events=True)
            return _cell_metrics(
                metrics, trace, simulator.validate_invariants()
            )
        cluster = ClusterSimulator(
            cost_model, model, num_replicas=1,
            failures="none", autoscaler="fixed",
            **_simulator_kwargs(slo_s),
        )
        metrics = cluster.simulate(trace, record_events=True)
        out = _cell_metrics(metrics, trace, cluster.validate_invariants())
        out["replica0"] = metrics.per_replica[0].to_dict(include_requests=False)
        return out

    if family == "frontier":
        scaler = params["scaler"]
        rate_rps = FRONTIER_LOAD * BASE_REPLICAS / service_s
        horizon_s = num_requests / rate_rps
        # One compressed day starting at the trough: a causal scaler sees
        # the morning ramp before the 3/4-horizon peak hits.
        trace = generator.generate(
            num_requests, rate_rps, seed=seed,
            curve=DiurnalCurve(
                period_s=horizon_s,
                amplitude=DIURNAL_AMPLITUDE,
                phase_s=horizon_s / 4.0,
            ),
        )
        replicas = OVER_REPLICAS if scaler == "fixed-4" else BASE_REPLICAS
        autoscaler = None if scaler.startswith("fixed") else _autoscaler(
            scaler, horizon_s
        )
        cluster = ClusterSimulator(
            cost_model, model, num_replicas=replicas,
            failures="none", autoscaler=autoscaler,
            **_simulator_kwargs(slo_s),
        )
        metrics = cluster.simulate(trace, record_events=True)
        return _cell_metrics(metrics, trace, cluster.validate_invariants())

    if family == "failover":
        rate_rps = FAILOVER_LOAD * BASE_REPLICAS / service_s
        horizon_s = num_requests / rate_rps
        trace = generator.generate(num_requests, rate_rps, seed=seed)
        # Kill replica 0 just after round-robin hands it a mid-trace
        # request (even arrival index -> replica 0): the victim is
        # guaranteed to hold in-flight work, so the reroute is exercised
        # structurally, not by luck of the failure instant.
        victim_index = (num_requests // 2) & ~1
        failures = (
            SingleFailure(
                replica=0,
                at_s=trace[victim_index].arrival_s + 0.1 * service_s,
                recover_after_s=0.2 * horizon_s,
            )
            if params["failure"]
            else "none"
        )

        def simulate_once():
            cluster = ClusterSimulator(
                cost_model, model, num_replicas=BASE_REPLICAS,
                failures=failures, autoscaler=None,
                **_simulator_kwargs(slo_s),
            )
            return cluster, cluster.simulate(trace, record_events=True)

        cluster, metrics = simulate_once()
        out = _cell_metrics(metrics, trace, cluster.validate_invariants())
        # Chaos must replay byte for byte: a fresh simulator over the same
        # trace and schedule produces the identical pooled metrics.
        _, again = simulate_once()
        out["deterministic"] = (
            json.dumps(metrics.to_dict()) == json.dumps(again.to_dict())
        )
        return out

    if family == "flash":
        scaler = params["scaler"]
        rate_rps = FAILOVER_LOAD * BASE_REPLICAS / service_s
        horizon_s = num_requests / rate_rps
        trace = generator.generate(
            num_requests, rate_rps, seed=seed,
            curve=FlashCrowdCurve(
                start_s=0.3 * horizon_s,
                duration_s=0.25 * horizon_s,
                magnitude=FLASH_MAGNITUDE,
            ),
        )
        autoscaler = None if scaler == "fixed-2" else _autoscaler(
            scaler, horizon_s
        )
        cluster = ClusterSimulator(
            cost_model, model, num_replicas=BASE_REPLICAS,
            failures="none", autoscaler=autoscaler,
            **_simulator_kwargs(slo_s),
        )
        metrics = cluster.simulate(trace, record_events=True)
        return _cell_metrics(metrics, trace, cluster.validate_invariants())

    if family == "chaos":
        # Everything at once: diurnal traffic, Poisson replica deaths,
        # reactive scaling — the soak that must still conserve tokens.
        rate_rps = FAILOVER_LOAD * BASE_REPLICAS / service_s
        horizon_s = num_requests / rate_rps
        trace = generator.generate(
            num_requests, rate_rps, seed=seed,
            curve=DiurnalCurve(
                period_s=horizon_s,
                amplitude=DIURNAL_AMPLITUDE,
                phase_s=horizon_s / 4.0,
            ),
        )
        cluster = ClusterSimulator(
            cost_model, model, num_replicas=BASE_REPLICAS,
            failures=SeededFailures(
                seed=seed,
                mtbf_s=horizon_s / 3.0,
                horizon_s=horizon_s,
                recover_after_s=horizon_s / 8.0,
            ),
            autoscaler=_autoscaler("queue-depth", horizon_s),
            **_simulator_kwargs(slo_s),
        )
        metrics = cluster.simulate(trace, record_events=True)
        return _cell_metrics(metrics, trace, cluster.validate_invariants())

    raise ValueError(f"unknown cell family {family!r}")


# ----------------------------------------------------------------------
def _reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    def metrics(cell_id: str) -> dict:
        return outputs[cell_id]["metrics"]

    # The whole ops layer must cost nothing when inert.
    differential = json.dumps(outputs["diff/inert-cluster"]["replica0"]) == (
        json.dumps(metrics("ref/plain"))
    )

    valid = all(out["violations"] == 0 for out in outputs.values())
    nothing_lost = all(
        out["lost_requests"] == 0 and out["lost_output_tokens"] == 0
        for out in outputs.values()
    )

    # Failover: bounded degradation, zero loss, exact replay.
    clean = metrics("failover/clean")
    failed = metrics("failover/single")
    failover_cell = outputs["failover/single"]
    failover_loses_nothing = (
        failover_cell["lost_requests"] == 0
        and failover_cell["lost_output_tokens"] == 0
        and failed["failures"] == 1
        and failed["rerouted_requests"] > 0
    )
    failover_p99_bounded = (
        failed["latency_p99_s"] <= clean["latency_p99_s"] * FAILOVER_P99_BOUND
    )
    failover_deterministic = failover_cell["deterministic"]

    # The frontier: attainment bought per replica-second.
    frontier = {
        scaler: {
            "slo_attainment": metrics(f"frontier/{scaler}")["slo_attainment"],
            "replica_seconds": metrics(f"frontier/{scaler}")["replica_seconds"],
            "latency_p99_s": metrics(f"frontier/{scaler}")["latency_p99_s"],
            "peak_replicas": metrics(f"frontier/{scaler}")["peak_replicas"],
            "scale_ups": metrics(f"frontier/{scaler}")["scale_ups"],
            "scale_downs": metrics(f"frontier/{scaler}")["scale_downs"],
        }
        for scaler in SCALERS
    }
    over = frontier["fixed-4"]
    adaptive = {
        scaler: stats
        for scaler, stats in frontier.items()
        if not scaler.startswith("fixed")
    }
    beats = {
        scaler: (
            stats["slo_attainment"] >= over["slo_attainment"] - ATTAINMENT_SLACK
            and stats["replica_seconds"]
            <= over["replica_seconds"] * REPLICA_SECONDS_FRACTION
        )
        for scaler, stats in adaptive.items()
    }
    autoscaler_beats_fixed_overprovisioned = any(beats.values())

    flash_fixed = metrics("flash/fixed-2")
    flash_scaled = metrics("flash/queue-depth")
    chaos = metrics("chaos/seeded")

    rows = [
        [
            scaler,
            "diurnal",
            round(stats["slo_attainment"], 3),
            round(stats["replica_seconds"], 2),
            round(stats["latency_p99_s"] * 1e3, 1),
            stats["peak_replicas"],
            f"+{stats['scale_ups']}/-{stats['scale_downs']}",
            outputs[f"frontier/{scaler}"]["violations"],
        ]
        for scaler, stats in frontier.items()
    ]
    for cell_id, label in (
        ("failover/clean", "failover: clean"),
        ("failover/single", "failover: 1 kill"),
        ("flash/fixed-2", "flash: fixed-2"),
        ("flash/queue-depth", "flash: queue-depth"),
        ("chaos/seeded", "seeded chaos"),
    ):
        m = metrics(cell_id)
        rows.append(
            [
                label,
                "constant" if cell_id.startswith("failover") else "burst",
                round(m["slo_attainment"], 3),
                round(m["replica_seconds"], 2),
                round(m["latency_p99_s"] * 1e3, 1),
                m["peak_replicas"],
                f"+{m['scale_ups']}/-{m['scale_downs']}",
                outputs[cell_id]["violations"],
            ]
        )

    best = min(
        (scaler for scaler, won in beats.items() if won),
        key=lambda scaler: frontier[scaler]["replica_seconds"],
        default=None,
    )

    return ExperimentResult(
        experiment_id="chaos",
        title=(
            "Chaos ops - failure injection, failover and causal autoscaling "
            f"(GPT-2 {MODEL_KEY.upper()} on IANUS, {TRACE_NAME} trace)"
        ),
        headers=[
            "scenario", "traffic", "SLO att.", "replica-s", "p99 ms",
            "peak R", "scale", "viol",
        ],
        rows=rows,
        paper_claims=[
            "(production-ops extension beyond the paper's single-appliance "
            "evaluation)",
            "a replica failure must lose no requests: failover recomputes "
            "the in-flight work on the survivors",
            "a causal autoscaler should buy the over-provisioned fleet's "
            "SLO attainment for a fraction of its replica-seconds on "
            "breathing traffic",
        ],
        measured_claims=[
            "inert ops layer (1 replica, no failures, fixed) == plain "
            "simulator, byte-identical: " + ("yes" if differential else "NO"),
            "zero lost requests and exact token conservation in every cell: "
            + ("yes" if nothing_lost else "NO"),
            "replica failure loses nothing (requests and tokens conserved, "
            "work rerouted): " + ("yes" if failover_loses_nothing else "NO")
            + f" — {failed['rerouted_requests']} rerouted, "
            f"{failed['dropped_kv_pages']} pages dropped",
            f"failover p99 within {FAILOVER_P99_BOUND:g}x of the clean run: "
            + ("yes" if failover_p99_bounded else "NO")
            + f" — {failed['latency_p99_s'] * 1e3:.1f} vs "
            f"{clean['latency_p99_s'] * 1e3:.1f} ms",
            "chaos runs replay byte-for-byte (same seed+schedule): "
            + ("yes" if failover_deterministic else "NO"),
            "an adaptive policy beats the over-provisioned fixed fleet "
            f"(attainment within {ATTAINMENT_SLACK:g}, replica-seconds <= "
            f"{REPLICA_SECONDS_FRACTION:.0%}): "
            + (
                f"yes — {best}: "
                f"{frontier[best]['slo_attainment']:.3f} attainment at "
                f"{frontier[best]['replica_seconds']:.2f} replica-s vs "
                f"fixed-4's {over['slo_attainment']:.3f} at "
                f"{over['replica_seconds']:.2f}"
                if best is not None
                else "NO"
            ),
            "extended invariants (failures, recoveries, scale markers) hold "
            "in every cell: " + ("yes (0 violations)" if valid else "NO"),
        ],
        data={
            "differential": differential,
            "valid": valid,
            "nothing_lost": nothing_lost,
            "failover_loses_nothing": failover_loses_nothing,
            "failover_p99_bounded": failover_p99_bounded,
            "failover_deterministic": failover_deterministic,
            "autoscaler_beats_fixed_overprovisioned": (
                autoscaler_beats_fixed_overprovisioned
            ),
            "best_adaptive": best,
            "frontier": frontier,
            "failover": {
                "clean_p99_s": clean["latency_p99_s"],
                "failed_p99_s": failed["latency_p99_s"],
                "rerouted": failed["rerouted_requests"],
                "dropped_kv_pages": failed["dropped_kv_pages"],
            },
            "flash": {
                "fixed_attainment": flash_fixed["slo_attainment"],
                "scaled_attainment": flash_scaled["slo_attainment"],
                "fixed_p99_s": flash_fixed["latency_p99_s"],
                "scaled_p99_s": flash_scaled["latency_p99_s"],
            },
            "chaos": {
                "failures": chaos["failures"],
                "rerouted": chaos["rerouted_requests"],
                "scale_ups": chaos["scale_ups"],
                "slo_attainment": chaos["slo_attainment"],
            },
            "cells": {cell.cell_id: outputs[cell.cell_id] for cell in grid.cells},
        },
    )
