"""Fig. 18 — strong scaling of IANUS on GPT 6.7B.

With the 256:64 input-to-output token configuration, the number of IANUS
devices is swept over 2, 4 and 8 while the problem stays fixed.  The paper
reports 127.1, 211.6 and 317.6 generated tokens per second — a 2.5x gain for
4x more devices (1.67x from 2 to 4 and 1.50x from 4 to 8); scaling is
sub-linear because of the device-to-device communication over PCIe.

Declared as a :class:`~repro.experiments.base.Sweep` with one cell per
device count.
"""

from __future__ import annotations

from repro.experiments.base import Cell, ExperimentResult, Sweep
from repro.models import Workload

__all__ = ["run", "sweep"]

PAPER_TOKENS_PER_SECOND = {2: 127.1, 4: 211.6, 8: 317.6}
WORKLOAD = Workload(input_tokens=256, output_tokens=64)
DEVICE_COUNTS = (2, 4, 8)


def sweep(fast: bool = True) -> Sweep:
    """One cell per device count of the strong-scaling curve."""
    del fast
    cells = [
        Cell(f"devices/{devices}", {"devices": devices})
        for devices in DEVICE_COUNTS
    ]
    return Sweep("fig18", cells, _run_cell, _reduce)


def run(fast: bool = True) -> ExperimentResult:
    return sweep(fast).execute()


def _run_cell(params: dict) -> dict:
    """One point of the strong-scaling curve (pure)."""
    from repro.config import SystemConfig
    from repro.core.system import IanusSystem
    from repro.models import LARGE_GPT_CONFIGS

    model = LARGE_GPT_CONFIGS["6.7b"]
    cluster = IanusSystem(SystemConfig.ianus(), num_devices=params["devices"])
    result = cluster.run(model, WORKLOAD)
    return {
        "tokens_per_second": result.tokens_per_second,
        "latency_ms": result.total_latency_ms,
    }


def _reduce(grid: Sweep, outputs: dict[str, dict]) -> ExperimentResult:
    rows: list[list] = []
    tokens_per_second: dict[int, float] = {}
    for cell in grid.cells:
        devices = cell.params["devices"]
        cell_out = outputs[cell.cell_id]
        tokens_per_second[devices] = cell_out["tokens_per_second"]
        rows.append(
            [devices, round(cell_out["tokens_per_second"], 1),
             round(cell_out["latency_ms"], 1),
             round(PAPER_TOKENS_PER_SECOND[devices], 1)]
        )

    gain_2_to_4 = tokens_per_second[4] / tokens_per_second[2]
    gain_4_to_8 = tokens_per_second[8] / tokens_per_second[4]
    overall_gain = tokens_per_second[8] / tokens_per_second[2]
    return ExperimentResult(
        experiment_id="fig18",
        title="Fig. 18 - strong scaling, GPT 6.7B, (256,64)",
        headers=["# devices", "tokens/s (measured)", "latency ms", "tokens/s (paper)"],
        rows=rows,
        paper_claims=[
            "127.1 / 211.6 / 317.6 tokens per second with 2 / 4 / 8 devices",
            "1.67x from 2 to 4 devices and 1.50x from 4 to 8 devices",
            "2.5x performance for 4x more devices (sub-linear due to PCIe communication)",
        ],
        measured_claims=[
            "tokens per second: "
            + ", ".join(f"{d}={v:.1f}" for d, v in tokens_per_second.items()),
            f"{gain_2_to_4:.2f}x from 2 to 4 devices and {gain_4_to_8:.2f}x from 4 to 8 devices",
            f"{overall_gain:.1f}x performance for 4x more devices",
        ],
        data={
            "tokens_per_second": tokens_per_second,
            "gains": {"2->4": gain_2_to_4, "4->8": gain_4_to_8, "2->8": overall_gain},
        },
    )
