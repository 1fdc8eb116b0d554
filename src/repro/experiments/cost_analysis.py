"""Sec. 7.2 — cost analysis using TDP as the cost proxy.

Following the TPU cost methodology the paper cites, thermal design power
approximates total cost of ownership: the A100's TDP is 400 W, a single IANUS
device is conservatively assumed to be 120 W.  With the 256:64 token
configuration, the paper reports performance/TDP improvements of 3.9x, 2.7x
and 2.1x over a single A100 for the 6.7B (2 devices), 13B (4 devices) and
30B (8 devices) models — the benefit shrinks as more devices are needed.
"""

from __future__ import annotations

from repro.baselines.gpu import A100Gpu
from repro.config import SystemConfig
from repro.core.system import IanusSystem, devices_required
from repro.experiments.base import ExperimentResult
from repro.models import LARGE_GPT_CONFIGS, Workload

__all__ = ["run"]

PAPER_COST_EFFICIENCY = {"6.7b": 3.9, "13b": 2.7, "30b": 2.1}
WORKLOAD = Workload(input_tokens=256, output_tokens=64)


def run(fast: bool = True) -> ExperimentResult:
    del fast
    config = SystemConfig.ianus()
    gpu = A100Gpu()

    rows: list[list] = []
    improvements: dict[str, float] = {}
    for key, model in LARGE_GPT_CONFIGS.items():
        devices = devices_required(model, config)
        cluster = IanusSystem(config, num_devices=devices)
        gpu_result = gpu.run(model, WORKLOAD)
        ianus_result = cluster.run(model, WORKLOAD)
        gpu_perf_per_watt = (1.0 / gpu_result.total_latency_s) / gpu.tdp_w
        ianus_perf_per_watt = (1.0 / ianus_result.total_latency_s) / cluster.tdp_w
        improvements[key] = ianus_perf_per_watt / gpu_perf_per_watt
        rows.append(
            [model.name, devices, round(cluster.tdp_w, 0), round(gpu.tdp_w, 0),
             round(improvements[key], 2), PAPER_COST_EFFICIENCY[key]]
        )

    decreasing = (
        improvements["6.7b"] >= improvements["13b"] >= improvements["30b"]
    )
    return ExperimentResult(
        experiment_id="cost",
        title="Sec. 7.2 - performance/TDP improvement over a single A100, (256,64)",
        headers=["model", "# devices", "IANUS TDP (W)", "A100 TDP (W)",
                 "perf/TDP improvement", "paper"],
        rows=rows,
        paper_claims=[
            "perf/TDP improvements of 3.9x / 2.7x / 2.1x for 6.7B / 13B / 30B",
            "the cost-efficiency benefit diminishes as the number of devices grows",
        ],
        measured_claims=[
            "perf/TDP improvements: "
            + ", ".join(f"{k}={v:.1f}x" for k, v in improvements.items()),
            "benefit diminishes with more devices: " + ("yes" if decreasing else "no"),
        ],
        data={"improvements": improvements},
    )
