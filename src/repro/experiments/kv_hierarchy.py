"""KV page hierarchy — shared-prefix reuse and host-DRAM swap.

Extends the paged-KV serving study along the two axes PR 9 adds to the
accountant (:mod:`repro.serving.kv_memory`):

* **prefix sharing** — a fraction of the trace shares a common prompt
  prefix whose whole KV pages are reference-counted across requests
  (radix-style): the first group member charges them, later members ride
  along for their private pages only.  At a fixed ``kv_fraction`` the
  pool admits strictly more concurrent requests as the shared fraction
  grows — the ``share`` axis measures that admitted-concurrency gain
  against the non-shared baseline on the *same arrivals* (the prefix
  assignment rides a separate RNG stream, so share=0 cells are
  byte-identical to pre-PR traces).
* **recovery mode** — when the pool is exhausted, discard-and-recompute
  (PR 4's preemption) versus swapping the victim's cold private pages to
  host DRAM over a modeled PCIe link and restoring them on resume.  Swap
  trades link seconds for recomputed tokens, so the winner flips with
  link bandwidth: the ``recover`` axis sweeps ``link_gbps`` across the
  frontier and locates the crossover against the recompute baseline.

Every cell records its event log and replays it through the **extended**
invariant checker — page-ledger replay now re-derives refcounted shares
and swap residency, so a forged share or a deleted swap event fails the
cell.  Each cell also runs both engines (object reference and array) and
requires byte-identical event logs once the array log's decode runs are
expanded (:func:`~repro.serving.validate.expand_runs`): the sweep
doubles as the differential oracle for the array engine's per-iteration
loop and exact decode runs, which serve sharing and swap (the other fast
paths stand down) and book pages in the same
:class:`~repro.serving.kv_memory.KvPageAccountant` as every other run.

Declared as a :class:`~repro.experiments.base.Sweep`;
``repro bench kv-hierarchy --jobs N`` shards it cell-by-cell.
"""

from __future__ import annotations

from repro.experiments.base import Cell, ExperimentResult, Sweep

__all__ = ["run", "sweep", "MODEL_KEY", "TRACE_NAME", "SHARES", "LINKS"]

#: Served model (GPT-2 XL, as in the serving/cluster sweeps).
MODEL_KEY = "xl"
#: Chat mix — the workload whose shared system prompt motivates sharing.
TRACE_NAME = "chatbot"
BACKEND = "ianus"
#: Fraction of requests sharing a prefix (0 = the non-shared baseline).
SHARES = (0.0, 0.5)
FULL_SHARES = (0.0, 0.25, 0.5, 0.75)
#: Shared-prefix length in tokens (4 whole 16-token pages).
PREFIX_TOKENS = 64
PREFIX_GROUPS = 2
#: Host-link bandwidths swept on the recovery axis (Gbit/s).
LINKS = (0.5, 16.0)
FULL_LINKS = (0.5, 2.0, 8.0, 32.0)
NUM_REQUESTS = 48
FULL_NUM_REQUESTS = 96
SEED = 0
POLICY = "interleaved"
MAX_BATCH = 8
#: Memory pressure: the pool, not the batch cap, must bind.
KV_FRACTION = 0.06
#: Offered load as a fraction of nominal capacity (oversubscribed).
LOAD = 2.0
#: The recovery axis shares a fixed 50% prefix share (swap moves only
#: *private* pages, so sharing and swapping genuinely compose).
RECOVER_SHARE = 0.5


def _share_cell_id(share: float) -> str:
    return f"share{share}"


def _recover_cell_id(mode: str, link_gbps: float = 0.0) -> str:
    return "recompute" if mode == "recompute" else f"swap{link_gbps}"


def sweep(fast: bool = True) -> Sweep:
    """One cell per prefix share, plus a recompute baseline and one cell
    per link bandwidth on the recovery axis."""
    shares = SHARES if fast else FULL_SHARES
    links = LINKS if fast else FULL_LINKS
    num_requests = NUM_REQUESTS if fast else FULL_NUM_REQUESTS
    cells = [
        Cell(
            _share_cell_id(share),
            {
                "axis": "share",
                "prefix_share": share,
                "swap": False,
                "link_gbps": 16.0,
                "num_requests": num_requests,
                "seed": SEED,
            },
        )
        for share in shares
    ]
    cells.append(
        Cell(
            _recover_cell_id("recompute"),
            {
                "axis": "recover",
                "prefix_share": RECOVER_SHARE,
                "swap": False,
                "link_gbps": 16.0,
                "num_requests": num_requests,
                "seed": SEED,
            },
        )
    )
    cells.extend(
        Cell(
            _recover_cell_id("swap", link),
            {
                "axis": "recover",
                "prefix_share": RECOVER_SHARE,
                "swap": True,
                "link_gbps": link,
                "num_requests": num_requests,
                "seed": SEED,
            },
        )
        for link in links
    )
    return Sweep("kv-hierarchy", cells, _run_cell, _reduce)


def run(fast: bool = True) -> ExperimentResult:
    return sweep(fast).execute()


def _run_cell(params: dict) -> dict:
    """Serve one sweep point on both engines and report its metrics (pure).

    The object engine is the reference; the array engine's event log,
    its decode runs expanded, must equal it byte for byte (the
    per-iteration loop and exact decode runs serve sharing and swap),
    and the log must replay clean through the extended checker
    (refcounted shares and swap residency re-derived from first
    principles).
    """
    from repro.core.costmodel import make_cost_model
    from repro.models import GPT2_CONFIGS
    from repro.serving.simulator import ServingSimulator, mean_service_time_s
    from repro.serving.trace import get_trace_generator
    from repro.serving.validate import expand_runs

    model = GPT2_CONFIGS[MODEL_KEY]
    cost_model = make_cost_model(BACKEND)
    generator = get_trace_generator(TRACE_NAME)
    service_s = mean_service_time_s(cost_model, model, generator.workloads)
    rate_rps = LOAD / service_s
    trace = generator.generate(
        params["num_requests"],
        rate_rps,
        seed=params["seed"],
        prefix_share=params["prefix_share"],
        prefix_tokens=PREFIX_TOKENS,
        prefix_groups=PREFIX_GROUPS,
    )
    kwargs = dict(
        policy=POLICY,
        max_batch=MAX_BATCH,
        kv_fraction=KV_FRACTION,
        admission="optimistic",
        swap=params["swap"],
        link_gbps=params["link_gbps"],
    )
    reference = ServingSimulator(cost_model, model, engine="object", **kwargs)
    metrics = reference.simulate(trace, record_events=True)
    violations = reference.validate_invariants()
    candidate = ServingSimulator(cost_model, model, engine="array", **kwargs)
    candidate_metrics = candidate.simulate(trace, record_events=True)
    # The array log aggregates its decode runs; expanded, it is the
    # object engine's per-iteration log.
    engines_agree = (
        any(event.kind == "decode_run" for event in candidate.events)
        and reference.events == expand_runs(candidate.events)
        and metrics.to_dict() == candidate_metrics.to_dict()
    )
    return {
        "capacity_rps": 1.0 / service_s,
        "rate_rps": rate_rps,
        "violations": len(violations),
        "engines_agree": engines_agree,
        "metrics": metrics.to_dict(include_requests=False),
    }


def _reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    shares = sorted(
        cell.params["prefix_share"]
        for cell in grid.cells
        if cell.params["axis"] == "share"
    )
    links = sorted(
        cell.params["link_gbps"]
        for cell in grid.cells
        if cell.params["axis"] == "recover" and cell.params["swap"]
    )

    def cell_metrics(cell_id: str) -> dict:
        return outputs[cell_id]["metrics"]

    rows: list[list] = []
    baseline = cell_metrics(_share_cell_id(shares[0]))
    for share in shares:
        metrics = cell_metrics(_share_cell_id(share))
        out = outputs[_share_cell_id(share)]
        rows.append(
            [
                "share",
                f"{share:.2f}",
                "-",
                metrics["peak_active"],
                metrics["admissions"],
                metrics["preemptions"],
                round(metrics["makespan_s"], 2),
                round(metrics["latency_p99_s"] * 1e3, 1),
                metrics["kv_peak_pages"],
                metrics["swapped_pages"],
                out["violations"],
            ]
        )
    recompute = cell_metrics(_recover_cell_id("recompute"))
    rows.append(
        [
            "recover",
            f"{RECOVER_SHARE:.2f}",
            "recompute",
            recompute["peak_active"],
            recompute["admissions"],
            recompute["preemptions"],
            round(recompute["makespan_s"], 2),
            round(recompute["latency_p99_s"] * 1e3, 1),
            recompute["kv_peak_pages"],
            recompute["swapped_pages"],
            outputs[_recover_cell_id("recompute")]["violations"],
        ]
    )
    for link in links:
        metrics = cell_metrics(_recover_cell_id("swap", link))
        rows.append(
            [
                "recover",
                f"{RECOVER_SHARE:.2f}",
                f"swap @ {link} Gb/s",
                metrics["peak_active"],
                metrics["admissions"],
                metrics["preemptions"],
                round(metrics["makespan_s"], 2),
                round(metrics["latency_p99_s"] * 1e3, 1),
                metrics["kv_peak_pages"],
                metrics["swapped_pages"],
                outputs[_recover_cell_id("swap", link)]["violations"],
            ]
        )

    # (a) Admitted-concurrency gain at fixed kv_fraction: sharing frees
    # the pages the group would have charged per member.
    top_share = shares[-1]
    shared = cell_metrics(_share_cell_id(top_share))
    concurrency_gain = (
        shared["peak_active"] / baseline["peak_active"]
        if baseline["peak_active"]
        else float("inf")
    )
    sharing_admits_more = shared["peak_active"] > baseline["peak_active"]

    # (b) Swap-vs-recompute crossover: the slowest link loses to
    # recomputation, and some swept link beats it.
    swap_makespans = {
        link: cell_metrics(_recover_cell_id("swap", link))["makespan_s"]
        for link in links
    }
    crossover_gbps = next(
        (
            link
            for link in links
            if swap_makespans[link] <= recompute["makespan_s"]
        ),
        None,
    )
    slow_link_loses = swap_makespans[links[0]] > recompute["makespan_s"]

    valid = all(outputs[cell.cell_id]["violations"] == 0 for cell in grid.cells)
    engines_agree = all(
        outputs[cell.cell_id]["engines_agree"] for cell in grid.cells
    )

    return ExperimentResult(
        experiment_id="kv-hierarchy",
        title=(
            "KV page hierarchy - GPT-2 XL on IANUS "
            f"({TRACE_NAME} trace, prefix sharing x recovery mode, "
            f"kv_fraction={KV_FRACTION}, load {LOAD}x)"
        ),
        headers=[
            "axis", "share", "recovery", "peak", "admits", "preempt",
            "makespan s", "p99 ms", "KV peak", "swapped pg", "viol",
        ],
        rows=rows,
        paper_claims=[
            "(KV hierarchy extension beyond the paper's single-request "
            "evaluation)",
            "reference-counted prefix sharing should admit more concurrent "
            "requests from the same pool (shared pages are charged once)",
            "swapping to host DRAM should beat recompute on a fast link and "
            "lose to it on a slow one (the frontier crosses over)",
        ],
        measured_claims=[
            f"sharing {top_share:.0%} of the trace lifts admitted "
            f"concurrency at kv_fraction={KV_FRACTION}: "
            + ("yes — " if sharing_admits_more else "NO — ")
            + f"peak {shared['peak_active']} vs {baseline['peak_active']} "
            f"in flight ({concurrency_gain:.2f}x), "
            f"{shared['preemptions']} vs {baseline['preemptions']} "
            "preemptions",
            "swap-vs-recompute crossover as the link varies: "
            + (
                f"swap wins from {crossover_gbps} Gb/s "
                if crossover_gbps is not None
                else "swap never wins "
            )
            + f"(recompute {recompute['makespan_s']:.2f} s vs "
            + ", ".join(
                f"{makespan:.2f} s @ {link} Gb/s"
                for link, makespan in swap_makespans.items()
            )
            + "); slow link loses: " + ("yes" if slow_link_loses else "NO"),
            "array engine byte-identical to the object engine on every "
            "cell (per-iteration loop and exact decode runs, event log "
            "expanded): "
            + ("yes" if engines_agree else "NO"),
            "extended page-ledger replay (refcounted shares + swap "
            "residency) holds in every cell: "
            + ("yes (0 violations)" if valid else "NO"),
        ],
        data={
            "sharing_admits_more": sharing_admits_more,
            "concurrency_gain": concurrency_gain,
            "crossover_gbps": crossover_gbps,
            "slow_link_loses": slow_link_loses,
            "engines_agree": engines_agree,
            "valid": valid,
            "swap_makespans": swap_makespans,
            "recompute_makespan_s": recompute["makespan_s"],
            "cells": {cell.cell_id: outputs[cell.cell_id] for cell in grid.cells},
        },
    )
