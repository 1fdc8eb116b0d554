"""Fig. 17 / Table 4 — larger LLMs on multiple IANUS devices vs a single A100.

GPT 6.7B, 13B and 30B do not fit in one device's 8 GB, so two, four and eight
IANUS devices are used (the smallest power of two whose aggregate capacity
holds the model).  The paper reports average speedups of 2.4x, 3.4x and 5.3x
over a single A100 (which has enough capacity for all three models), and
attributes the gains to the additional effective memory bandwidth contributed
by each device's PIM.

Declared as a :class:`~repro.experiments.base.Sweep` with one cell per
(model, workload) point; each cell re-derives the required device count.
"""

from __future__ import annotations

from repro.analysis.report import arithmetic_mean
from repro.experiments.base import Cell, ExperimentResult, Sweep

__all__ = ["run", "sweep"]

PAPER_SPEEDUPS = {"6.7b": 2.4, "13b": 3.4, "30b": 5.3}
PAPER_DEVICE_COUNTS = {"6.7b": 2, "13b": 4, "30b": 8}


def _workloads(fast: bool):
    from repro.models import PAPER_SCALABILITY_WORKLOADS

    return PAPER_SCALABILITY_WORKLOADS if not fast else PAPER_SCALABILITY_WORKLOADS[:3]


def sweep(fast: bool = True) -> Sweep:
    """One cell per (large model, workload) grid point."""
    from repro.models import LARGE_GPT_CONFIGS

    cells = [
        Cell(
            f"{key}/{workload.label()}",
            {
                "model_key": key,
                "input": workload.input_tokens,
                "output": workload.output_tokens,
            },
        )
        for key in LARGE_GPT_CONFIGS
        for workload in _workloads(fast)
    ]
    grid = Sweep("fig17", cells, _run_cell, _reduce)
    return grid


def run(fast: bool = True) -> ExperimentResult:
    return sweep(fast).execute()


def _run_cell(params: dict) -> dict:
    """A100 vs multi-device IANUS latency of one (model, workload) (pure)."""
    from repro.baselines.gpu import A100Gpu
    from repro.config import SystemConfig
    from repro.core.system import IanusSystem, devices_required
    from repro.models import LARGE_GPT_CONFIGS, Workload

    config = SystemConfig.ianus()
    model = LARGE_GPT_CONFIGS[params["model_key"]]
    workload = Workload(params["input"], params["output"])
    devices = devices_required(model, config)
    cluster = IanusSystem(config, num_devices=devices)
    return {
        "devices": devices,
        "gpu_ms": A100Gpu().run(model, workload).total_latency_ms,
        "ianus_ms": cluster.run(model, workload).total_latency_ms,
    }


def _reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    from repro.models import LARGE_GPT_CONFIGS, Workload

    rows: list[list] = []
    avg_speedups: dict[str, float] = {}
    chosen_devices: dict[str, int] = {}
    speedups_by_model: dict[str, list[float]] = {}
    for cell in grid.cells:
        key = cell.params["model_key"]
        model = LARGE_GPT_CONFIGS[key]
        workload = Workload(cell.params["input"], cell.params["output"])
        cell_out = outputs[cell.cell_id]
        devices = cell_out["devices"]
        gpu_ms, ianus_ms = cell_out["gpu_ms"], cell_out["ianus_ms"]
        chosen_devices[key] = devices
        speedups_by_model.setdefault(key, []).append(gpu_ms / ianus_ms)
        rows.append(
            [model.name, devices, workload.label(), round(gpu_ms, 1),
             round(ianus_ms, 1), round(gpu_ms / ianus_ms, 2)]
        )
        if len(speedups_by_model[key]) == grid.cells_per_group("model_key"):
            avg_speedups[key] = arithmetic_mean(speedups_by_model[key])
            rows.append(
                [model.name, devices, "Avg", "", "", round(avg_speedups[key], 2)]
            )

    return ExperimentResult(
        experiment_id="fig17",
        title="Fig. 17 - larger LLMs: multi-IANUS vs a single A100 (latency, ms)",
        headers=["model", "# IANUS devices", "(input,output)", "GPU ms", "IANUS ms", "speedup"],
        rows=rows,
        paper_claims=[
            "2 / 4 / 8 devices are used for the 6.7B / 13B / 30B models",
            "average speedups over a single A100: "
            + ", ".join(f"{k}={v}x" for k, v in PAPER_SPEEDUPS.items()),
            "the speedup grows with the model because more devices bring more "
            "effective (PIM) memory bandwidth",
        ],
        measured_claims=[
            "devices selected: "
            + ", ".join(f"{k}={v}" for k, v in chosen_devices.items()),
            "average speedups over a single A100: "
            + ", ".join(f"{k}={v:.1f}x" for k, v in avg_speedups.items()),
            "speedup grows with the model: "
            + ("yes" if avg_speedups["6.7b"] <= avg_speedups["13b"] <= avg_speedups["30b"] else "no"),
        ],
        data={"average_speedups": avg_speedups, "device_counts": chosen_devices},
    )
