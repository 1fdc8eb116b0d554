"""Model zoo, workloads, and analytical FLOP accounting."""

from repro.models.flops import (
    BlockFlops,
    block_flops,
    fc_flops,
    stage_flops,
)
from repro.models.transformer import (
    ALL_MODELS,
    BERT_CONFIGS,
    GEMMA_CONFIGS,
    GPT2_CONFIGS,
    LARGE_GPT_CONFIGS,
    ModelConfig,
    ModelFamily,
    get_model,
    tiny_gpt,
)
from repro.models.workload import (
    PAPER_BERT_INPUT_SIZES,
    PAPER_DFX_WORKLOADS,
    PAPER_GPT2_WORKLOADS,
    PAPER_SCALABILITY_WORKLOADS,
    Stage,
    StagePass,
    Workload,
)

__all__ = [
    "ALL_MODELS",
    "BERT_CONFIGS",
    "GEMMA_CONFIGS",
    "GPT2_CONFIGS",
    "LARGE_GPT_CONFIGS",
    "ModelConfig",
    "ModelFamily",
    "get_model",
    "tiny_gpt",
    "Stage",
    "StagePass",
    "Workload",
    "PAPER_BERT_INPUT_SIZES",
    "PAPER_DFX_WORKLOADS",
    "PAPER_GPT2_WORKLOADS",
    "PAPER_SCALABILITY_WORKLOADS",
    "BlockFlops",
    "block_flops",
    "fc_flops",
    "stage_flops",
]
