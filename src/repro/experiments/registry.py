"""Registry of every paper-reproduction experiment.

Maps experiment identifiers (``"fig08"``, ``"table1"``, ...) to their
``run(fast=True)`` callables.  ``repro experiment``, ``repro bench`` (through
:func:`repro.perf.runner.run_many`), the tier-1 experiment checks and
``examples/reproduce_paper.py`` all read this one table.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    ablations,
    chaos_ops,
    cluster_serving,
    cost_analysis,
    fig02_gpu_breakdown,
    fig08_gpt2_latency,
    fig09_dfx_comparison,
    fig10_breakdown,
    fig11_energy,
    fig12_adaptive_mapping,
    fig13_memory_systems,
    fig14_bert,
    fig15_sensitivity,
    fig17_scalability,
    fig18_strong_scaling,
    kv_hierarchy,
    multi_tenant,
    prototype_validation,
    serving_throughput,
    tables,
)
from repro.experiments.base import ExperimentResult, Sweep

__all__ = [
    "EXPERIMENTS",
    "SWEEPS",
    "run_experiment",
    "get_sweep",
]

#: Experiment id -> (description, runner).
EXPERIMENTS: dict[str, tuple[str, Callable[..., ExperimentResult]]] = {
    "table1": ("IANUS simulation parameters", tables.run_table1),
    "table2": ("A100 / DFX / IANUS specifications", tables.run_table2),
    "table3": ("BERT and GPT-2 configurations", tables.run_table3),
    "table4": ("larger LLM configurations", tables.run_table4),
    "fig02": ("A100 decoder latency/FLOPs breakdown", fig02_gpu_breakdown.run),
    "fig08": ("GPT-2 latency, GPU vs IANUS", fig08_gpt2_latency.run),
    "fig09": ("GPT-2 XL latency, DFX vs NPU-MEM vs IANUS", fig09_dfx_comparison.run),
    "fig10": ("generation-stage latency breakdown", fig10_breakdown.run),
    "fig11": ("dynamic energy, NPU-MEM vs IANUS", fig11_energy.run),
    "fig12": ("adaptive FC mapping (Algorithm 1)", fig12_adaptive_mapping.run),
    "fig13": ("unified vs partitioned memory and scheduling", fig13_memory_systems.run),
    "fig14": ("BERT throughput and utilisation", fig14_bert.run),
    "fig15": ("sensitivity to cores and PIM chips", fig15_sensitivity.run),
    "fig17": ("larger LLMs on multiple IANUS devices", fig17_scalability.run),
    "fig18": ("strong scaling on GPT 6.7B", fig18_strong_scaling.run),
    "serving": (
        "request-level serving: load sweep x backend x policy", serving_throughput.run
    ),
    "cluster": (
        "cluster serving: replicas x router x admission x load", cluster_serving.run
    ),
    "chaos": (
        "production ops: failures x failover x autoscaling x traffic curves",
        chaos_ops.run,
    ),
    "kv-hierarchy": (
        "KV page hierarchy: prefix sharing x swap-vs-recompute frontier",
        kv_hierarchy.run,
    ),
    "multi-tenant": (
        "multi-model serving: consolidation x router, per-tenant SLOs",
        multi_tenant.run,
    ),
    "cost": ("performance/TDP cost analysis", cost_analysis.run),
    "prototype": ("functional validation (FPGA-prototype stand-in)", prototype_validation.run),
    "ablation-overlap": ("scheduling overlap ablation", ablations.run_overlap_ablation),
    "ablation-address-mapping": (
        "PIM address-mapping ablation", ablations.run_address_mapping_ablation
    ),
    "ablation-fast-mode": ("fast vs exact generation simulation", ablations.run_fast_vs_exact),
}


#: Experiments that declare their sweep grid (experiment id -> sweep factory).
#: The parallel runner shards these at cell granularity; everything else runs
#: as one task.  ``sweep(fast).execute()`` and ``run(fast)`` are equivalent
#: by construction (``run`` is implemented as exactly that).
SWEEPS: dict[str, Callable[..., Sweep]] = {
    "fig08": fig08_gpt2_latency.sweep,
    "fig09": fig09_dfx_comparison.sweep,
    "fig11": fig11_energy.sweep,
    "fig13": fig13_memory_systems.sweep,
    "fig14": fig14_bert.sweep,
    "fig15": fig15_sensitivity.sweep,
    "fig17": fig17_scalability.sweep,
    "fig18": fig18_strong_scaling.sweep,
    "serving": serving_throughput.sweep,
    "cluster": cluster_serving.sweep,
    "chaos": chaos_ops.sweep,
    "kv-hierarchy": kv_hierarchy.sweep,
    "multi-tenant": multi_tenant.sweep,
    "ablation-overlap": ablations.overlap_sweep,
    "ablation-address-mapping": ablations.address_mapping_sweep,
    "ablation-fast-mode": ablations.fast_vs_exact_sweep,
}


def get_sweep(experiment_id: str, fast: bool = True) -> Sweep | None:
    """The declared sweep grid of an experiment, or ``None`` if not ported."""
    factory = SWEEPS.get(experiment_id)
    return factory(fast=fast) if factory is not None else None


def run_experiment(experiment_id: str, fast: bool = True) -> ExperimentResult:
    """Run one experiment by identifier."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    _, runner = EXPERIMENTS[experiment_id]
    return runner(fast=fast)
