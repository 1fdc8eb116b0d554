"""IANUS: Integrated Accelerator based on NPU-PIM Unified Memory System.

A from-scratch Python reproduction of the ASPLOS 2024 paper: a command-level
simulator of the NPU + GDDR6-AiM PIM system with a unified main memory, the
PIM Access Scheduling workload mapping/scheduling machinery, the A100 / DFX /
NPU-MEM baselines, a functional (numerical) model of the dataflow, and one
experiment module per table and figure of the paper's evaluation.

Quick start::

    from repro import IanusSystem, SystemConfig, Workload, GPT2_CONFIGS

    system = IanusSystem(SystemConfig.ianus())
    result = system.run(GPT2_CONFIGS["xl"], Workload(input_tokens=128, output_tokens=64))
    print(result.total_latency_ms)
"""

from repro.config import (
    AttentionMappingPolicy,
    DfxConfig,
    EnergyConfig,
    FcMappingPolicy,
    GpuConfig,
    MemoryPolicy,
    NpuCoreConfig,
    PimConfig,
    SchedulingPolicy,
    SystemConfig,
)
from repro.core import (
    IanusSystem,
    InferenceResult,
    StageResult,
    devices_required,
)
from repro.models import (
    ALL_MODELS,
    BERT_CONFIGS,
    GPT2_CONFIGS,
    LARGE_GPT_CONFIGS,
    ModelConfig,
    ModelFamily,
    Stage,
    StagePass,
    Workload,
    get_model,
    tiny_gpt,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "AttentionMappingPolicy",
    "DfxConfig",
    "EnergyConfig",
    "FcMappingPolicy",
    "GpuConfig",
    "MemoryPolicy",
    "NpuCoreConfig",
    "PimConfig",
    "SchedulingPolicy",
    "SystemConfig",
    # system models
    "IanusSystem",
    "InferenceResult",
    "StageResult",
    "devices_required",
    # models and workloads
    "ALL_MODELS",
    "BERT_CONFIGS",
    "GPT2_CONFIGS",
    "LARGE_GPT_CONFIGS",
    "ModelConfig",
    "ModelFamily",
    "Stage",
    "StagePass",
    "Workload",
    "get_model",
    "tiny_gpt",
]
