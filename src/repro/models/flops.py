"""Analytical FLOP and byte accounting for transformer inference.

These helpers are used in three places:

* the adaptive FC mapping algorithm (Algorithm 1) needs FLOPs/bytes per FC;
* the GPU and DFX baselines are roofline models driven by per-operator FLOPs
  and bytes;
* the throughput/utilisation metrics of Fig. 14 divide end-to-end FLOPs by
  measured latency.

Conventions: a matrix multiplication of an ``[n, k]`` activation with a
``[k, m]`` weight costs ``2*n*k*m`` FLOPs; element-wise/vector operators cost
a small constant number of FLOPs per element (the paper notes they are less
than 0.06% of total FLOPs but a sizeable latency fraction, Fig. 2a).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.transformer import ModelConfig
from repro.models.workload import StagePass

__all__ = [
    "fc_flops",
    "attention_score_flops",
    "attention_context_flops",
    "softmax_flops",
    "layernorm_flops",
    "gelu_flops",
    "residual_add_flops",
    "BlockFlops",
    "block_flops",
    "stage_flops",
    "model_weight_bytes",
    "FLOPS_PER_SOFTMAX_ELEMENT",
    "FLOPS_PER_LAYERNORM_ELEMENT",
    "FLOPS_PER_GELU_ELEMENT",
    "FLOPS_PER_ROPE_ELEMENT",
]

#: Exponentiate, subtract max, accumulate, divide — per score element.
FLOPS_PER_SOFTMAX_ELEMENT = 5
#: Two reduction passes plus the normalisation itself — per element.
FLOPS_PER_LAYERNORM_ELEMENT = 7
#: LUT lookup plus linear interpolation — per element.
FLOPS_PER_GELU_ELEMENT = 4
#: Rotary embedding: two multiplies and an add per rotated element.
FLOPS_PER_ROPE_ELEMENT = 3


def fc_flops(num_tokens: int, d_in: int, d_out: int) -> float:
    """FLOPs of a fully-connected layer applied to ``num_tokens`` tokens."""
    return 2.0 * num_tokens * d_in * d_out


def attention_score_flops(num_tokens: int, kv_length: int, head_dim: int) -> float:
    """FLOPs of the QK^T product for one attention head."""
    return 2.0 * num_tokens * kv_length * head_dim


def attention_context_flops(num_tokens: int, kv_length: int, head_dim: int) -> float:
    """FLOPs of the SV product for one attention head."""
    return 2.0 * num_tokens * kv_length * head_dim


def softmax_flops(num_tokens: int, kv_length: int) -> float:
    return FLOPS_PER_SOFTMAX_ELEMENT * num_tokens * kv_length


def layernorm_flops(num_tokens: int, dim: int) -> float:
    return FLOPS_PER_LAYERNORM_ELEMENT * num_tokens * dim


def gelu_flops(num_tokens: int, dim: int) -> float:
    return FLOPS_PER_GELU_ELEMENT * num_tokens * dim


def residual_add_flops(num_tokens: int, dim: int) -> float:
    return float(num_tokens * dim)


@dataclass(frozen=True)
class BlockFlops:
    """FLOP breakdown of one transformer block for one pass."""

    qkv: float
    attention_scores: float
    attention_context: float
    attention_output: float
    ffn: float
    softmax: float
    layernorm: float
    gelu: float
    residual: float
    rope: float = 0.0

    @property
    def fc_total(self) -> float:
        """FLOPs executed by fully-connected layers (matrix-unit or PIM)."""
        return self.qkv + self.attention_output + self.ffn

    @property
    def attention_total(self) -> float:
        return self.attention_scores + self.attention_context + self.softmax

    @property
    def vector_total(self) -> float:
        return self.layernorm + self.gelu + self.residual + self.rope

    @property
    def total(self) -> float:
        return self.fc_total + self.attention_total + self.vector_total


def block_flops(model: ModelConfig, num_tokens: int, kv_length: int) -> BlockFlops:
    """FLOP breakdown of one block processing ``num_tokens`` new tokens.

    Grouped-query attention shrinks only the K/V *projections* (and the KV
    cache, accounted elsewhere): every query head still attends the full
    ``kv_length``, so the score/context/softmax terms keep ``num_heads``
    factors.  A gated MLP adds the third (gate) matrix and the elementwise
    gate multiply; rotary embeddings rotate the fresh Q and K rows.
    """
    d = model.embedding_dim
    d_ff = model.ffn_dim
    h = model.num_heads
    hd = model.head_dim
    kv_d = model.kv_dim
    if model.gated_mlp:
        ffn = (
            2 * fc_flops(num_tokens, d, d_ff)  # gate and up projections
            + fc_flops(num_tokens, d_ff, d)
        )
        activation = gelu_flops(num_tokens, d_ff) + float(num_tokens * d_ff)
    else:
        ffn = fc_flops(num_tokens, d, d_ff) + fc_flops(num_tokens, d_ff, d)
        activation = gelu_flops(num_tokens, d_ff)
    rope = 0.0
    if model.position_embedding == "rope":
        rope = FLOPS_PER_ROPE_ELEMENT * num_tokens * (d + kv_d)
    return BlockFlops(
        qkv=fc_flops(num_tokens, d, d + 2 * kv_d),
        attention_scores=h * attention_score_flops(num_tokens, kv_length, hd),
        attention_context=h * attention_context_flops(num_tokens, kv_length, hd),
        attention_output=fc_flops(num_tokens, d, d),
        ffn=ffn,
        softmax=h * softmax_flops(num_tokens, kv_length),
        layernorm=2 * layernorm_flops(num_tokens, d),
        gelu=activation,
        residual=2 * residual_add_flops(num_tokens, d),
        rope=rope,
    )


def lm_head_flops(model: ModelConfig, num_tokens: int = 1) -> float:
    """FLOPs of the LM head (only the last token needs logits)."""
    return fc_flops(num_tokens, model.embedding_dim, model.vocab_size)


def stage_flops(model: ModelConfig, stage_pass: StagePass) -> float:
    """Total model FLOPs for one pass (all blocks plus the LM head)."""
    per_block = block_flops(model, stage_pass.num_tokens, stage_pass.kv_length)
    total = model.num_blocks * per_block.total
    if model.is_decoder:
        total += lm_head_flops(model)
    return total


def model_weight_bytes(model: ModelConfig) -> int:
    """Bytes streamed when a replica swaps ``model`` in as its active model.

    A weight swap must move the *whole* parameter footprint — embeddings
    and norms included, not just the FC weights a single pass reads — so
    this is the model's total parameter footprint at BF16.
    """
    return model.param_bytes
