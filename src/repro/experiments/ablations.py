"""Ablation studies of the design choices behind IANUS's mechanisms.

These go beyond the paper's figures and quantify individual mechanisms of
PIM Access Scheduling and of the PIM data layout:

* ``run_overlap_ablation`` — how much of IANUS's generation-stage performance
  comes from the overlap-enabling dependencies of the Fig. 7 schedules versus
  the engine-level exclusion handling alone (scheduling=PAS vs NAIVE on the
  same mapping).
* ``run_address_mapping_ablation`` — the PIM-aware Row-Channel-Bank-Column
  tile placement of Fig. 5 versus a hypothetical layout in which each GEMV
  tile spans two row addresses (doubling activations), quantifying why the
  address mapping matters.
* ``run_fast_vs_exact`` — accuracy of the sampled-KV fast generation mode
  against exact per-token simulation.

Each ablation is declared as a :class:`~repro.experiments.base.Sweep`
(``overlap_sweep`` / ``address_mapping_sweep`` / ``fast_vs_exact_sweep``) so
the parallel runner shards their cells like any paper figure.
"""

from __future__ import annotations

from repro.experiments.base import Cell, ExperimentResult, Sweep

__all__ = [
    "run_overlap_ablation",
    "run_address_mapping_ablation",
    "run_fast_vs_exact",
    "overlap_sweep",
    "address_mapping_sweep",
    "fast_vs_exact_sweep",
]

#: Models of the overlap ablation, in row order.
OVERLAP_MODEL_KEYS = ("m", "xl")
OVERLAP_WORKLOAD = (128, 128)

#: (model key, (input, output)) pairs of the fast-vs-exact ablation.
FAST_VS_EXACT_POINTS = (("m", (128, 64)), ("l", (64, 32)))


# ----------------------------------------------------------------------
# Overlap-aware scheduling vs naive
# ----------------------------------------------------------------------
def overlap_sweep(fast: bool = True) -> Sweep:
    """One cell per (model, scheduling policy) generation-stage run."""
    del fast
    cells = [
        Cell(f"{key}/{policy}", {"model_key": key, "policy": policy})
        for key in OVERLAP_MODEL_KEYS
        for policy in ("naive", "pas")
    ]
    return Sweep("ablation-overlap", cells, _overlap_cell, _overlap_reduce)


def run_overlap_ablation(fast: bool = True) -> ExperimentResult:
    return overlap_sweep(fast).execute()


def _overlap_cell(params: dict) -> dict:
    """Generation-stage latency of one (model, scheduling) run (pure)."""
    from repro.config import SchedulingPolicy, SystemConfig
    from repro.core.system import IanusSystem
    from repro.models import GPT2_CONFIGS, Workload

    model = GPT2_CONFIGS[params["model_key"]]
    workload = Workload(*OVERLAP_WORKLOAD)
    if params["policy"] == "naive":
        config = SystemConfig.ianus(
            scheduling=SchedulingPolicy.NAIVE, name="ianus-naive"
        )
    else:
        config = SystemConfig.ianus()
    result = IanusSystem(config).run(model, workload)
    return {"generation_latency_s": result.generation.latency_s}


def _overlap_reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    from repro.models import GPT2_CONFIGS

    rows = []
    gains = {}
    for key in OVERLAP_MODEL_KEYS:
        model = GPT2_CONFIGS[key]
        naive_s = outputs[f"{key}/naive"]["generation_latency_s"]
        pas_s = outputs[f"{key}/pas"]["generation_latency_s"]
        gains[key] = naive_s / pas_s
        rows.append(
            [model.name, round(naive_s * 1e3, 1), round(pas_s * 1e3, 1),
             round(gains[key], 2)]
        )
    return ExperimentResult(
        experiment_id="ablation-overlap",
        title="Ablation - overlap-aware scheduling vs naive (generation stage, (128,128))",
        headers=["model", "naive ms", "PAS ms", "gain"],
        rows=rows,
        paper_claims=["unified memory-aware scheduling yields an average 34% improvement (Fig. 13)"],
        measured_claims=[
            "scheduling gain: " + ", ".join(f"{k}={v:.2f}x" for k, v in gains.items())
        ],
        data={"gains": gains},
    )


# ----------------------------------------------------------------------
# PIM-aware tile placement vs a row-conflicting layout
# ----------------------------------------------------------------------
def address_mapping_sweep(fast: bool = True) -> Sweep:
    """One cell per model: d x d GEMV under both tile layouts."""
    del fast
    from repro.models import GPT2_CONFIGS

    cells = [Cell(key, {"model_key": key}) for key in GPT2_CONFIGS]
    return Sweep(
        "ablation-address-mapping", cells, _address_mapping_cell, _address_mapping_reduce
    )


def run_address_mapping_ablation(fast: bool = True) -> ExperimentResult:
    return address_mapping_sweep(fast).execute()


def _address_mapping_cell(params: dict) -> dict:
    """GEMV time under the IANUS mapping vs a row-conflicting layout (pure).

    A conflicting layout would split every tile's data across two rows,
    doubling activations and halving the useful columns per activation.
    """
    from repro.config import SystemConfig
    from repro.models import GPT2_CONFIGS
    from repro.pim.pim_chip import PimDeviceModel

    device = PimDeviceModel(SystemConfig.ianus().pim)
    d = GPT2_CONFIGS[params["model_key"]].embedding_dim
    good_s = device.gemv(d, d).seconds
    conflicting_s = device.gemv(d, d // 2).seconds * 2
    return {"good_s": good_s, "conflicting_s": conflicting_s}


def _address_mapping_reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    from repro.models import GPT2_CONFIGS

    rows = []
    penalties = {}
    for cell in grid.cells:
        key = cell.params["model_key"]
        model = GPT2_CONFIGS[key]
        good_s = outputs[cell.cell_id]["good_s"]
        conflicting_s = outputs[cell.cell_id]["conflicting_s"]
        penalties[key] = conflicting_s / good_s
        rows.append(
            [model.name, round(good_s * 1e6, 2), round(conflicting_s * 1e6, 2),
             round(penalties[key], 2)]
        )
    return ExperimentResult(
        experiment_id="ablation-address-mapping",
        title="Ablation - PIM-aware tile placement vs a row-conflicting layout (d x d GEMV)",
        headers=["model", "IANUS mapping (us)", "conflicting layout (us)", "slowdown"],
        rows=rows,
        paper_claims=[
            "the address mapping keeps each tile in a single row address so no row "
            "conflicts occur during a tile's computation (Sec. 4.3)"
        ],
        measured_claims=[
            "a row-conflicting layout slows the GEMV by "
            + ", ".join(f"{k}={v:.2f}x" for k, v in penalties.items())
        ],
        data={"penalties": penalties},
    )


# ----------------------------------------------------------------------
# Fast (sampled-KV) vs exact generation simulation
# ----------------------------------------------------------------------
def fast_vs_exact_sweep(fast: bool = True) -> Sweep:
    """One cell per (model, workload, simulation mode) run."""
    del fast
    cells = [
        Cell(
            f"{key}/{mode}",
            {"model_key": key, "workload": workload, "mode": mode},
        )
        for key, workload in FAST_VS_EXACT_POINTS
        for mode in ("fast", "exact")
    ]
    return Sweep("ablation-fast-mode", cells, _fast_vs_exact_cell, _fast_vs_exact_reduce)


def run_fast_vs_exact(fast: bool = True) -> ExperimentResult:
    return fast_vs_exact_sweep(fast).execute()


def _fast_vs_exact_cell(params: dict) -> dict:
    """End-to-end latency of one run in one simulation mode (pure)."""
    from repro.config import SystemConfig
    from repro.core.system import IanusSystem
    from repro.models import GPT2_CONFIGS, Workload

    model = GPT2_CONFIGS[params["model_key"]]
    workload = Workload(*params["workload"])
    result = IanusSystem(SystemConfig.ianus()).run(model, workload, mode=params["mode"])
    return {"total_latency_s": result.total_latency_s}


def _fast_vs_exact_reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    from repro.models import GPT2_CONFIGS, Workload

    rows = []
    errors = {}
    for key, workload_shape in FAST_VS_EXACT_POINTS:
        model = GPT2_CONFIGS[key]
        workload = Workload(*workload_shape)
        fast_s = outputs[f"{key}/fast"]["total_latency_s"]
        exact_s = outputs[f"{key}/exact"]["total_latency_s"]
        error = abs(fast_s - exact_s) / exact_s
        errors[key] = error
        rows.append(
            [model.name, workload.label(), round(exact_s * 1e3, 2),
             round(fast_s * 1e3, 2), f"{error:.3%}"]
        )
    return ExperimentResult(
        experiment_id="ablation-fast-mode",
        title="Ablation - sampled-KV fast mode vs exact per-token simulation",
        headers=["model", "(input,output)", "exact ms", "fast ms", "relative error"],
        rows=rows,
        paper_claims=["(methodological check of this reproduction, not a paper figure)"],
        measured_claims=[
            "fast-mode error: " + ", ".join(f"{k}={v:.3%}" for k, v in errors.items())
        ],
        data={"errors": errors},
    )
