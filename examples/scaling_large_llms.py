#!/usr/bin/env python3
"""Scaling IANUS to LLMs that exceed one device's memory (Sec. 7).

GPT 6.7B/13B/30B do not fit in a single device's 8 GB of GDDR6-AiM, so the
paper scales out over PCIe.  This example reproduces that study end to end:
it picks the number of devices per model from the memory footprint, compares
the cluster against a single A100, reports the strong-scaling curve for the
6.7B model, and derives the performance-per-TDP cost comparison of Sec. 7.2.

Run with::

    python examples/scaling_large_llms.py
"""

from __future__ import annotations

from repro import IanusSystem, LARGE_GPT_CONFIGS, SystemConfig, Workload, devices_required
from repro.analysis import format_table
from repro.baselines import A100Gpu


def main() -> None:
    config = SystemConfig.ianus()
    gpu = A100Gpu()
    workload = Workload(input_tokens=256, output_tokens=64)

    # ------------------------------------------------------------------
    # Fig. 17: multi-device IANUS vs a single A100.
    # ------------------------------------------------------------------
    rows = []
    for key, model in LARGE_GPT_CONFIGS.items():
        devices = devices_required(model, config)
        cluster = IanusSystem(config, num_devices=devices)
        ianus_result = cluster.run(model, workload)
        gpu_result = gpu.run(model, workload)
        perf_per_tdp = (1.0 / ianus_result.total_latency_s) / cluster.tdp_w
        gpu_perf_per_tdp = (1.0 / gpu_result.total_latency_s) / gpu.tdp_w
        rows.append(
            [
                model.name,
                f"{model.param_bytes / 2**30:.1f} GiB",
                devices,
                round(gpu_result.total_latency_ms, 1),
                round(ianus_result.total_latency_ms, 1),
                round(gpu_result.total_latency_ms / ianus_result.total_latency_ms, 2),
                round(perf_per_tdp / gpu_perf_per_tdp, 2),
            ]
        )
    print(
        format_table(
            ["model", "weights", "# devices", "A100 ms", "IANUS ms", "speedup",
             "perf/TDP vs A100"],
            rows,
            title="Large LLMs on multi-device IANUS, (256,64)",
        )
    )
    print()

    # ------------------------------------------------------------------
    # Fig. 18: strong scaling of the 6.7B model.
    # ------------------------------------------------------------------
    rows = []
    previous = None
    for devices in (2, 4, 8):
        result = IanusSystem(config, num_devices=devices).run(
            LARGE_GPT_CONFIGS["6.7b"], workload
        )
        gain = "" if previous is None else f"{result.tokens_per_second / previous:.2f}x"
        previous = result.tokens_per_second
        rows.append(
            [devices, round(result.tokens_per_second, 1),
             round(result.total_latency_ms, 1), gain]
        )
    print(
        format_table(
            ["# devices", "tokens/s", "latency ms", "gain vs previous"],
            rows,
            title="Strong scaling, GPT 6.7B (paper: 127.1 / 211.6 / 317.6 tokens/s)",
        )
    )
    print()
    print("Scaling is sub-linear because every block synchronisation exchanges")
    print("activation slices between devices over the PCIe host interface.")


if __name__ == "__main__":
    main()
