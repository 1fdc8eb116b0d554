"""Serving — throughput/latency under multi-user load (beyond the paper).

The paper evaluates one request at a time; this experiment serves a stream
of concurrent requests (the Fig. 8 GPT-2 workload grid as a Poisson request
mix, GPT-2 XL) and sweeps **offered load × backend × scheduling policy ×
prefill chunking × KV-cache budget**:

* *offered load* is expressed as a fraction of each backend's nominal
  capacity (the reciprocal of the mix's mean run-to-completion service
  time, :func:`repro.serving.simulator.mean_service_time_s`), so a load of
  1.0 saturates an ideal FCFS server on *every* backend despite their
  order-of-magnitude speed differences;
* *backends* price passes through the shared
  :class:`~repro.core.costmodel.CostModel` layer (fast mode compares IANUS
  against the A100; ``--full`` adds NPU-MEM and DFX);
* *policies* are FCFS run-to-completion, interleaved continuous batching,
  SRPT, and priority-class scheduling with per-class latency SLO targets
  (:mod:`repro.serving.simulator`);
* *chunking* toggles chunked prefill (:data:`CHUNK_TOKENS`-token chunks
  that piggyback decode tokens) against monolithic prompts;
* *KV budget* scales the paged KV pool that gates admission
  (:mod:`repro.serving.kv_memory`): 1.0 grants the backend's whole
  weight-free memory, 0.25 models memory pressure — the regime the paper's
  PIM/NPU design targets, invisible to PR 3's fixed ``max_batch``.

Traces carry two priority classes; the SLO targets are per-class multiples
of the mix's mean service time (:data:`SLO_SCALES`), so attainment is
comparable across backends.  Every cell also replays its own event log
through :meth:`~repro.serving.simulator.ServingSimulator.validate_invariants`
(page-ledger replay included) and reports the violation count (always 0)
— the sweep doubles as an invariant oracle.

Because trace generation rescales one normalized arrival pattern per seed
(see :mod:`repro.serving.trace`), every point of a backend's curve serves
the *same* request sequence arriving faster — measured throughput-latency
curves are monotone by construction, and policy/chunking/budget effects
are isolated from arrival noise.

Declared as a :class:`~repro.experiments.base.Sweep` of one cell per
(backend, load, policy, chunked, kv) point, so ``repro bench serving
--jobs N`` shards it across the pool like any paper figure.
"""

from __future__ import annotations

from repro.experiments.base import Cell, ExperimentResult, Sweep

__all__ = ["run", "sweep", "MODEL_KEY", "TRACE_NAME", "LOADS", "FULL_LOADS"]

#: Served model (GPT-2 XL fits every backend, including DFX's HBM).
MODEL_KEY = "xl"
#: Request mix (the Fig. 8 evaluation grid as a trace).
TRACE_NAME = "gpt2-paper"
#: Offered load as a fraction of each backend's nominal capacity.
LOADS = (0.5, 2.0)
FULL_LOADS = (0.25, 0.5, 1.0, 2.0, 4.0)
#: Backends compared (fast keeps the headline IANUS-vs-GPU pair).
BACKENDS = ("ianus", "a100")
FULL_BACKENDS = ("ianus", "npu-mem", "a100", "dfx")
POLICIES = ("fcfs", "interleaved", "srpt", "priority")
#: Prefill chunk sizes swept: monolithic prompts vs 128-token chunks.
CHUNKS = (0, 128)
#: KV-budget fractions swept: the whole weight-free memory vs a quarter.
KV_FRACTIONS = (1.0, 0.25)
NUM_REQUESTS = 24
FULL_NUM_REQUESTS = 64
SEED = 0
MAX_BATCH = 8
#: Priority classes in the trace and their SLO targets as multiples of the
#: mix's mean service time (class 0 is tighter *and* served first).
NUM_CLASSES = 2
SLO_SCALES = (4.0, 8.0)


def _cell_id(backend: str, load: float, policy: str, chunk: int, kv: float) -> str:
    chunked = "chunked" if chunk else "whole"
    return f"{backend}/load{load}/{policy}/{chunked}/kv{kv}"


def sweep(fast: bool = True) -> Sweep:
    """One cell per (backend, load, policy, chunked, kv) point of the sweep."""
    backends = BACKENDS if fast else FULL_BACKENDS
    loads = LOADS if fast else FULL_LOADS
    num_requests = NUM_REQUESTS if fast else FULL_NUM_REQUESTS
    cells = [
        Cell(
            _cell_id(backend, load, policy, chunk, kv),
            {
                "backend": backend,
                "load": load,
                "policy": policy,
                "chunk_tokens": chunk,
                "kv_fraction": kv,
                "num_requests": num_requests,
                "seed": SEED,
            },
        )
        for backend in backends
        for load in loads
        for policy in POLICIES
        for chunk in CHUNKS
        for kv in KV_FRACTIONS
    ]
    return Sweep("serving", cells, _run_cell, _reduce)


def run(fast: bool = True) -> ExperimentResult:
    return sweep(fast).execute()


def _run_cell(params: dict) -> dict:
    """Serve one sweep point and report its metrics (pure).

    The cell records its event log and replays it through the invariant
    checker, so every sharded worker independently re-proves the
    scheduler's contract on its own cells.
    """
    from repro.core.costmodel import make_cost_model
    from repro.models import GPT2_CONFIGS
    from repro.serving.simulator import ServingSimulator, mean_service_time_s
    from repro.serving.trace import get_trace_generator

    model = GPT2_CONFIGS[MODEL_KEY]
    cost_model = make_cost_model(params["backend"])
    generator = get_trace_generator(TRACE_NAME)
    service_s = mean_service_time_s(cost_model, model, generator.workloads)
    rate_rps = params["load"] / service_s
    trace = generator.generate(
        params["num_requests"], rate_rps, seed=params["seed"],
        num_classes=NUM_CLASSES,
    )
    simulator = ServingSimulator(
        cost_model,
        model,
        policy=params["policy"],
        max_batch=MAX_BATCH,
        chunk_tokens=params["chunk_tokens"],
        kv_fraction=params["kv_fraction"],
        slo_targets=tuple(scale * service_s for scale in SLO_SCALES),
    )
    metrics = simulator.simulate(trace, record_events=True)
    violations = simulator.validate_invariants()
    return {
        "capacity_rps": 1.0 / service_s,
        "rate_rps": rate_rps,
        "violations": len(violations),
        "metrics": metrics.to_dict(include_requests=False),
    }


def _reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    rows: list[list] = []
    by_curve: dict[tuple, list[tuple[float, dict]]] = {}
    for cell in grid.cells:
        out = outputs[cell.cell_id]
        metrics = out["metrics"]
        params = cell.params
        curve_key = (
            params["backend"], params["policy"],
            params["chunk_tokens"], params["kv_fraction"],
        )
        by_curve.setdefault(curve_key, []).append((params["load"], metrics))
        kv_peak = (
            metrics["kv_peak_pages"] / metrics["kv_pages_total"]
            if metrics["kv_pages_total"]
            else 0.0
        )
        rows.append(
            [
                params["backend"],
                params["policy"],
                "yes" if params["chunk_tokens"] else "no",
                params["kv_fraction"],
                params["load"],
                round(metrics["tokens_per_s"], 1),
                round(metrics["latency_mean_s"] * 1e3, 1),
                round(metrics["latency_p99_s"] * 1e3, 1),
                round(metrics["ttft_p99_s"] * 1e3, 1),
                round(metrics["slo_attainment"], 2),
                round(kv_peak, 2),
                round(metrics["mean_decode_batch"], 2),
                out["violations"],
            ]
        )

    # Monotone curve check: mean latency never decreases as load grows
    # (each curve fixes backend, policy, chunking and KV budget).
    monotone = all(
        all(
            earlier[1]["latency_mean_s"] <= later[1]["latency_mean_s"] * (1 + 1e-9)
            for earlier, later in zip(points, points[1:])
        )
        for points in by_curve.values()
    )
    valid = all(outputs[cell.cell_id]["violations"] == 0 for cell in grid.cells)

    backends = list(dict.fromkeys(cell.params["backend"] for cell in grid.cells))
    top_load = max(cell.params["load"] for cell in grid.cells)

    def at(backend: str, policy: str, chunk: int, kv: float) -> dict:
        return outputs[_cell_id(backend, top_load, policy, chunk, kv)]["metrics"]

    # Policy comparisons at the highest load (full budget, monolithic
    # prefill, so the policy is the only difference).
    dominance: dict[str, dict[str, float]] = {}
    for backend in backends:
        fcfs = at(backend, "fcfs", 0, 1.0)
        inter = at(backend, "interleaved", 0, 1.0)
        srpt = at(backend, "srpt", 0, 1.0)
        prio = at(backend, "priority", 0, 1.0)
        dominance[backend] = {
            "throughput_gain": inter["tokens_per_s"] / fcfs["tokens_per_s"],
            "p99_reduction": fcfs["latency_p99_s"] / inter["latency_p99_s"],
            "ttft_reduction": fcfs["ttft_mean_s"] / inter["ttft_mean_s"],
            "srpt_vs_fcfs_mean": srpt["latency_mean_s"] / fcfs["latency_mean_s"],
            "priority_class0": prio["slo_by_class"].get("0", 0.0),
            "interleaved_class0": inter["slo_by_class"].get("0", 0.0),
            # Memory pressure: a quarter of the KV budget can only reduce
            # throughput (chunked interleaved, where admission binds first).
            "kv_pressure_ratio": (
                at(backend, "interleaved", CHUNKS[1], KV_FRACTIONS[1])["tokens_per_s"]
                / at(backend, "interleaved", CHUNKS[1], 1.0)["tokens_per_s"]
            ),
        }
    dominates = all(
        gains["throughput_gain"] >= 1.0 and gains["p99_reduction"] >= 1.0
        for gains in dominance.values()
    )
    srpt_wins = all(
        gains["srpt_vs_fcfs_mean"] <= 1.0 + 1e-9 for gains in dominance.values()
    )
    priority_protects = all(
        gains["priority_class0"] >= gains["interleaved_class0"] - 1e-9
        for gains in dominance.values()
    )
    kv_pressure = all(
        gains["kv_pressure_ratio"] <= 1.0 + 1e-9 for gains in dominance.values()
    )

    return ExperimentResult(
        experiment_id="serving",
        title=(
            "Serving - GPT-2 XL under multi-user load "
            f"({TRACE_NAME} trace, load x backend x policy x chunking x KV budget)"
        ),
        headers=[
            "backend", "policy", "chunked", "kv", "load", "tokens/s",
            "mean ms", "p99 ms", "TTFT p99 ms", "SLO", "KV peak", "batch",
            "viol",
        ],
        rows=rows,
        paper_claims=[
            "(serving extension beyond the paper's single-request evaluation)",
            "continuous batching should dominate run-to-completion at high load "
            "(weight streaming shared across the decode batch)",
            "admission must respect KV-cache capacity in the memory system - "
            "shrinking the KV budget throttles throughput before max_batch does",
        ],
        measured_claims=[
            "throughput-latency curves are monotone in offered load: "
            + ("yes" if monotone else "NO"),
            f"interleaved dominates FCFS at load {top_load}: "
            + ("yes — " if dominates else "NO — ")
            + ", ".join(
                f"{backend}: {gains['throughput_gain']:.2f}x tokens/s, "
                f"{gains['p99_reduction']:.2f}x lower p99"
                for backend, gains in dominance.items()
            ),
            f"SRPT mean latency <= FCFS at load {top_load}: "
            + ("yes — " if srpt_wins else "NO — ")
            + ", ".join(
                f"{backend}: {gains['srpt_vs_fcfs_mean']:.2f}x"
                for backend, gains in dominance.items()
            ),
            f"priority keeps class-0 SLO attainment >= class-blind at load {top_load}: "
            + ("yes — " if priority_protects else "NO — ")
            + ", ".join(
                f"{backend}: {gains['priority_class0']:.0%} vs "
                f"{gains['interleaved_class0']:.0%}"
                for backend, gains in dominance.items()
            ),
            f"a {KV_FRACTIONS[1]:.2f} KV budget never beats the full budget: "
            + ("yes — " if kv_pressure else "NO — ")
            + ", ".join(
                f"{backend}: {gains['kv_pressure_ratio']:.2f}x tokens/s"
                for backend, gains in dominance.items()
            ),
            "scheduling invariants hold in every cell: "
            + ("yes (0 violations)" if valid else "NO"),
        ],
        data={
            "monotone": monotone,
            "dominates": dominates,
            "srpt_wins": srpt_wins,
            "priority_protects": priority_protects,
            "kv_pressure": kv_pressure,
            "valid": valid,
            "dominance": dominance,
            "capacity_rps": {
                backend: outputs[
                    _cell_id(backend, top_load, "fcfs", 0, 1.0)
                ]["capacity_rps"]
                for backend in backends
            },
            "cells": {cell.cell_id: outputs[cell.cell_id] for cell in grid.cells},
        },
    )
