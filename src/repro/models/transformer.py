"""Transformer model configurations evaluated in the paper.

Tables 3 and 4 of the paper define the BERT, GPT-2 and larger GPT variants
used throughout the evaluation.  :class:`ModelConfig` captures those
architectural parameters together with the derived quantities the rest of the
library needs: per-block parameter counts, the fraction of parameters that
belong to fully-connected layers (the data shared between NPU and PIM that
motivates the unified memory system), and KV-cache sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.config import BYTES_PER_ELEMENT

__all__ = [
    "ModelFamily",
    "ModelConfig",
    "GPT2_CONFIGS",
    "BERT_CONFIGS",
    "LARGE_GPT_CONFIGS",
    "GEMMA_CONFIGS",
    "ALL_MODELS",
    "get_model",
]


class ModelFamily(str, Enum):
    """Transformer family: decoder-only (GPT) or encoder-only (BERT)."""

    GPT = "gpt"
    BERT = "bert"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of one transformer model (Table 3 / Table 4).

    Parameters
    ----------
    name:
        Human readable identifier, e.g. ``"gpt2-xl"``.
    family:
        :class:`ModelFamily` — decoder blocks with causal attention and a
        generation stage (GPT), or encoder blocks only (BERT).
    embedding_dim:
        Model (hidden) dimension.
    head_dim:
        Dimension of one attention head.
    num_heads:
        Number of attention heads.  ``num_heads * head_dim`` equals
        ``embedding_dim`` for every model in the paper (the GPT-2 XL variant
        uses 24 heads instead of 25, following DFX, to optimise parallelism).
    num_blocks:
        Number of encoder/decoder blocks.
    vocab_size:
        Vocabulary used by the embedding table and LM head.
    ffn_expansion:
        Width multiplier of the feed-forward network (4 for every model).
    num_kv_heads:
        Key/value heads for grouped-query attention (GQA).  ``None`` (the
        default) means multi-head attention: one KV head per query head.
        Fewer KV heads shrink the K/V projections and the per-token KV
        cache; query heads share KV groups, so attention math per query
        is unchanged.
    gated_mlp:
        ``True`` models a SiLU-gated FFN (gate, up and down projections —
        three matrices instead of two, plus the elementwise gate).
    position_embedding:
        ``"learned"`` (a trained position table next to the token
        embedding) or ``"rope"`` (rotary embeddings — no table, a small
        per-pass rotation of Q and K instead).
    """

    name: str
    family: ModelFamily
    embedding_dim: int
    head_dim: int
    num_heads: int
    num_blocks: int
    vocab_size: int = 50257
    ffn_expansion: int = 4
    max_sequence_length: int = 2048
    workload: str = "language-modeling"
    num_kv_heads: "int | None" = None
    gated_mlp: bool = False
    position_embedding: str = "learned"

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0 or self.num_blocks <= 0:
            raise ValueError(f"{self.name}: dimensions must be positive")
        if self.num_heads * self.head_dim != self.embedding_dim:
            raise ValueError(
                f"{self.name}: num_heads * head_dim "
                f"({self.num_heads} * {self.head_dim}) must equal "
                f"embedding_dim ({self.embedding_dim})"
            )
        if self.num_kv_heads is not None:
            if not 1 <= self.num_kv_heads <= self.num_heads:
                raise ValueError(
                    f"{self.name}: num_kv_heads ({self.num_kv_heads}) must "
                    f"be in [1, num_heads={self.num_heads}]"
                )
            if self.num_heads % self.num_kv_heads != 0:
                raise ValueError(
                    f"{self.name}: num_kv_heads ({self.num_kv_heads}) must "
                    f"divide num_heads ({self.num_heads}) evenly"
                )
        if self.position_embedding not in ("learned", "rope"):
            raise ValueError(
                f"{self.name}: position_embedding must be 'learned' or "
                f"'rope', got {self.position_embedding!r}"
            )

    # ------------------------------------------------------------------
    # Per-block parameter counts
    # ------------------------------------------------------------------
    @property
    def ffn_dim(self) -> int:
        return self.embedding_dim * self.ffn_expansion

    @property
    def kv_heads(self) -> int:
        """Key/value heads: ``num_kv_heads`` under GQA, else ``num_heads``."""
        return self.num_kv_heads if self.num_kv_heads is not None else self.num_heads

    @property
    def kv_dim(self) -> int:
        """Width of the K (and V) projection output."""
        return self.kv_heads * self.head_dim

    @property
    def qkv_params_per_block(self) -> int:
        """Parameters of the Q, K and V projection matrices of one block."""
        return self.embedding_dim * (self.embedding_dim + 2 * self.kv_dim)

    @property
    def attention_output_params_per_block(self) -> int:
        """Parameters of the attention output (projection) FC of one block."""
        return self.embedding_dim * self.embedding_dim

    @property
    def ffn_params_per_block(self) -> int:
        """Parameters of the FFN matrices of one block (three when gated)."""
        matrices = 3 if self.gated_mlp else 2
        return matrices * self.embedding_dim * self.ffn_dim

    @property
    def fc_params_per_block(self) -> int:
        """All FC parameters of one block (shared between NPU and PIM)."""
        return (
            self.qkv_params_per_block
            + self.attention_output_params_per_block
            + self.ffn_params_per_block
        )

    @property
    def norm_params_per_block(self) -> int:
        """Layer-normalisation scale/shift parameters of one block."""
        return 4 * self.embedding_dim

    @property
    def block_params(self) -> int:
        return self.fc_params_per_block + self.norm_params_per_block

    # ------------------------------------------------------------------
    # Whole-model parameter counts
    # ------------------------------------------------------------------
    @property
    def embedding_params(self) -> int:
        """Token embedding plus (learned) position embedding parameters.

        Rotary position embeddings have no trained table: only the token
        embedding counts.
        """
        positions = (
            0 if self.position_embedding == "rope" else self.max_sequence_length
        )
        return (self.vocab_size + positions) * self.embedding_dim

    @property
    def lm_head_params(self) -> int:
        """LM-head parameters (weight-tied with the token embedding)."""
        return self.vocab_size * self.embedding_dim

    @property
    def num_params(self) -> int:
        """Total parameter count of the model."""
        return self.embedding_params + self.num_blocks * self.block_params

    @property
    def fc_params(self) -> int:
        """Parameters used by matrix-matrix *and* matrix-vector FC layers.

        These are the parameters that must be shared between the NPU and the
        PIM; the paper reports that they make up about 91% of GPT-2's
        parameters (Sec. 3.2).
        """
        return self.num_blocks * self.fc_params_per_block + self.lm_head_params

    @property
    def param_bytes(self) -> int:
        """Total model footprint in bytes at BF16."""
        return self.num_params * BYTES_PER_ELEMENT

    @property
    def fc_param_bytes(self) -> int:
        return self.fc_params * BYTES_PER_ELEMENT

    # ------------------------------------------------------------------
    # Activations / KV cache
    # ------------------------------------------------------------------
    @property
    def kv_bytes_per_token_per_block(self) -> int:
        """Bytes added to the KV cache per generated token per block.

        GQA stores one K and one V entry per *KV* head, so fewer KV heads
        mean a proportionally smaller cache.
        """
        return 2 * self.kv_dim * BYTES_PER_ELEMENT

    def kv_cache_bytes(self, sequence_length: int) -> int:
        """Total KV-cache footprint for a given context length."""
        return self.num_blocks * sequence_length * self.kv_bytes_per_token_per_block

    def memory_footprint_bytes(self, sequence_length: int) -> int:
        """Model parameters plus KV cache for a given context length."""
        return self.param_bytes + self.kv_cache_bytes(sequence_length)

    @property
    def is_decoder(self) -> bool:
        return self.family is ModelFamily.GPT

    def describe(self) -> str:
        """Single-line human readable description used in reports."""
        heads = f"heads={self.num_heads}x{self.head_dim}"
        if self.kv_heads != self.num_heads:
            heads += f" (kv={self.kv_heads})"
        extras = "".join(
            f", {note}"
            for note, active in (
                ("gated-mlp", self.gated_mlp),
                ("rope", self.position_embedding == "rope"),
            )
            if active
        )
        return (
            f"{self.name}: d={self.embedding_dim}, {heads}, "
            f"blocks={self.num_blocks}, "
            f"params={self.num_params / 1e6:.0f}M{extras}"
        )


def _gpt(name: str, dim: int, head_dim: int, heads: int, blocks: int) -> ModelConfig:
    return ModelConfig(
        name=name,
        family=ModelFamily.GPT,
        embedding_dim=dim,
        head_dim=head_dim,
        num_heads=heads,
        num_blocks=blocks,
        workload="language-modeling",
    )


def _bert(name: str, dim: int, head_dim: int, heads: int, blocks: int) -> ModelConfig:
    return ModelConfig(
        name=name,
        family=ModelFamily.BERT,
        embedding_dim=dim,
        head_dim=head_dim,
        num_heads=heads,
        num_blocks=blocks,
        vocab_size=30522,
        max_sequence_length=512,
        workload="question-answering",
    )


#: GPT-2 configurations of Table 3.  The XL variant uses 24 heads (instead of
#: 25) following DFX, as noted in Sec. 6.1.
GPT2_CONFIGS: dict[str, ModelConfig] = {
    "m": _gpt("gpt2-m", 1024, 64, 16, 24),
    "l": _gpt("gpt2-l", 1280, 64, 20, 36),
    "xl": _gpt("gpt2-xl", 1536, 64, 24, 48),
    "2.5b": _gpt("gpt2-2.5b", 1920, 96, 20, 54),
}

#: BERT configurations of Table 3.
BERT_CONFIGS: dict[str, ModelConfig] = {
    "base": _bert("bert-base", 768, 64, 12, 12),
    "large": _bert("bert-large", 1024, 64, 16, 24),
    "1.3b": _bert("bert-1.3b", 2048, 64, 32, 24),
    "3.9b": _bert("bert-3.9b", 2560, 64, 40, 48),
}

#: Larger GPT configurations of Table 4 (scalability analysis, Sec. 7.1).
LARGE_GPT_CONFIGS: dict[str, ModelConfig] = {
    "6.7b": _gpt("gpt-6.7b", 4096, 128, 32, 32),
    "13b": _gpt("gpt-13b", 5120, 128, 40, 40),
    "30b": _gpt("gpt-30b", 7168, 128, 56, 48),
}

#: Modern decoder variants (beyond the paper): grouped-query attention,
#: SiLU-gated MLPs and rotary position embeddings, the operator set of the
#: related npu_model program library (Gemma-style attention, RoPE,
#: SiLU-gate).  They make a co-hosted model set architecturally
#: heterogeneous — different parameter footprints *and* different KV bytes
#: per token.
GEMMA_CONFIGS: dict[str, ModelConfig] = {
    "1b": ModelConfig(
        name="gemma-1b",
        family=ModelFamily.GPT,
        embedding_dim=1536,
        head_dim=128,
        num_heads=12,
        num_blocks=24,
        vocab_size=32768,
        num_kv_heads=4,
        gated_mlp=True,
        position_embedding="rope",
        workload="language-modeling",
    ),
    "2b": ModelConfig(
        name="gemma-2b",
        family=ModelFamily.GPT,
        embedding_dim=2048,
        head_dim=128,
        num_heads=16,
        num_blocks=26,
        vocab_size=32768,
        ffn_expansion=6,
        num_kv_heads=4,
        gated_mlp=True,
        position_embedding="rope",
        workload="language-modeling",
    ),
}

ALL_MODELS: dict[str, ModelConfig] = {
    **{f"gpt2-{k}": v for k, v in GPT2_CONFIGS.items()},
    **{f"bert-{k}": v for k, v in BERT_CONFIGS.items()},
    **{f"gpt-{k}": v for k, v in LARGE_GPT_CONFIGS.items()},
    **{f"gemma-{k}": v for k, v in GEMMA_CONFIGS.items()},
}


def get_model(name: str) -> ModelConfig:
    """Look a model up by its canonical name or family alias.

    Accepts either the ``ModelConfig.name`` (``"gpt2-xl"``) or the registry
    key (``"gpt2-xl"``, ``"bert-base"``, ``"gpt-13b"``).
    """
    if name in ALL_MODELS:
        return ALL_MODELS[name]
    for model in ALL_MODELS.values():
        if model.name == name:
            return model
    raise KeyError(f"unknown model {name!r}; known models: {sorted(ALL_MODELS)}")


def tiny_gpt(
    embedding_dim: int = 64,
    head_dim: int = 16,
    num_heads: int = 4,
    num_blocks: int = 2,
    vocab_size: int = 128,
    name: str = "gpt-tiny",
) -> ModelConfig:
    """A tiny GPT configuration used by the functional-simulation tests."""
    return ModelConfig(
        name=name,
        family=ModelFamily.GPT,
        embedding_dim=embedding_dim,
        head_dim=head_dim,
        num_heads=num_heads,
        num_blocks=num_blocks,
        vocab_size=vocab_size,
        max_sequence_length=256,
    )
