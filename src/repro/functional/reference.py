"""Reference transformer implementation (plain NumPy, FP32).

The FPGA prototype of Sec. 6.3 validates IANUS functionally by checking that
pretrained GPT-2 models reach the expected perplexity on WikiText-2.  Neither
the pretrained weights nor the dataset are available offline, so this
reproduction validates the same property on synthetic models: the tiled,
scheduled execution (matrix-unit tiles, bank-level PIM GEMV, GELU LUT, BF16)
must compute the same numbers as this straightforward reference forward pass.

The reference model is a GPT-style decoder with learned position embeddings,
pre-norm blocks, causal attention with a KV cache, GELU FFN and a weight-tied
LM head — structurally identical to the models of Table 3, just smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.transformer import ModelConfig

__all__ = ["TransformerWeights", "ReferenceTransformer", "softmax", "gelu", "layer_norm"]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtraction, as the VU kernel does)."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU with the tanh approximation used by GPT-2."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    variance = x.var(axis=-1, keepdims=True)
    return gamma * (x - mean) / np.sqrt(variance + eps) + beta


@dataclass
class BlockWeights:
    """Weights of one decoder block."""

    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    w_ffn1: np.ndarray
    b_ffn1: np.ndarray
    w_ffn2: np.ndarray
    b_ffn2: np.ndarray


@dataclass
class TransformerWeights:
    """All weights of a reference transformer."""

    token_embedding: np.ndarray
    position_embedding: np.ndarray
    blocks: list[BlockWeights]
    final_ln_gamma: np.ndarray
    final_ln_beta: np.ndarray

    @classmethod
    def random(cls, model: ModelConfig, seed: int = 0, scale: float = 0.02) -> "TransformerWeights":
        """Randomly initialised weights (GPT-2 style small-variance init)."""
        rng = np.random.default_rng(seed)
        d = model.embedding_dim

        def w(*shape):
            return (rng.standard_normal(shape) * scale).astype(np.float32)

        blocks = []
        for _ in range(model.num_blocks):
            blocks.append(
                BlockWeights(
                    ln1_gamma=np.ones(d, dtype=np.float32),
                    ln1_beta=np.zeros(d, dtype=np.float32),
                    w_q=w(d, d),
                    w_k=w(d, d),
                    w_v=w(d, d),
                    w_o=w(d, d),
                    ln2_gamma=np.ones(d, dtype=np.float32),
                    ln2_beta=np.zeros(d, dtype=np.float32),
                    w_ffn1=w(d, model.ffn_dim),
                    b_ffn1=np.zeros(model.ffn_dim, dtype=np.float32),
                    w_ffn2=w(model.ffn_dim, d),
                    b_ffn2=np.zeros(d, dtype=np.float32),
                )
            )
        return cls(
            token_embedding=w(model.vocab_size, d),
            position_embedding=w(model.max_sequence_length, d),
            blocks=blocks,
            final_ln_gamma=np.ones(d, dtype=np.float32),
            final_ln_beta=np.zeros(d, dtype=np.float32),
        )


@dataclass
class KvCache:
    """Per-block key/value cache used by the generation stage."""

    keys: list = field(default_factory=list)
    values: list = field(default_factory=list)


class ReferenceTransformer:
    """Straightforward NumPy forward pass with a KV cache."""

    def __init__(self, model: ModelConfig, weights: TransformerWeights | None = None,
                 seed: int = 0) -> None:
        self.model = model
        self.weights = weights or TransformerWeights.random(model, seed=seed)
        self._cache: list[KvCache] = [KvCache() for _ in range(model.num_blocks)]
        self._position = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear the KV cache (start a new request)."""
        self._cache = [KvCache() for _ in range(self.model.num_blocks)]
        self._position = 0

    # ------------------------------------------------------------------
    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        """Process ``token_ids`` (appending to the cached context), return logits.

        The summarization stage calls this once with all input tokens; each
        generation step calls it with a single token.
        """
        token_ids = np.atleast_1d(np.asarray(token_ids, dtype=np.int64))
        n = token_ids.shape[0]
        w = self.weights
        d = self.model.embedding_dim
        positions = np.arange(self._position, self._position + n)
        x = w.token_embedding[token_ids] + w.position_embedding[positions]

        for block_index, block in enumerate(w.blocks):
            x = x + self._attention(layer_norm(x, block.ln1_gamma, block.ln1_beta),
                                    block, block_index)
            hidden = layer_norm(x, block.ln2_gamma, block.ln2_beta)
            hidden = gelu(hidden @ block.w_ffn1 + block.b_ffn1)
            x = x + (hidden @ block.w_ffn2 + block.b_ffn2)

        self._position += n
        x = layer_norm(x, w.final_ln_gamma, w.final_ln_beta)
        logits = x @ w.token_embedding.T
        assert logits.shape == (n, self.model.vocab_size)
        del d
        return logits

    # ------------------------------------------------------------------
    def _attention(self, x: np.ndarray, block: BlockWeights, block_index: int) -> np.ndarray:
        model = self.model
        n = x.shape[0]
        cache = self._cache[block_index]

        q = x @ block.w_q
        k = x @ block.w_k
        v = x @ block.w_v
        cache.keys.append(k)
        cache.values.append(v)
        k_all = np.concatenate(cache.keys, axis=0)
        v_all = np.concatenate(cache.values, axis=0)
        total = k_all.shape[0]

        heads_out = []
        hd = model.head_dim
        for head in range(model.num_heads):
            sl = slice(head * hd, (head + 1) * hd)
            scores = (q[:, sl] @ k_all[:, sl].T) / np.sqrt(hd)
            # Causal mask: token i (global position position + i) may attend
            # to all cached positions up to and including itself.
            mask = np.tril(np.ones((n, total), dtype=bool), k=total - n)
            scores = np.where(mask, scores, -1e9)
            attention = softmax(scores, axis=-1)
            heads_out.append(attention @ v_all[:, sl])
        merged = np.concatenate(heads_out, axis=-1)
        return merged @ block.w_o

    # ------------------------------------------------------------------
    def generate(self, prompt: np.ndarray, num_tokens: int, greedy: bool = True,
                 seed: int = 0) -> np.ndarray:
        """Run summarization on ``prompt`` then generate ``num_tokens`` tokens."""
        rng = np.random.default_rng(seed)
        self.reset()
        logits = self.forward(prompt)
        generated = []
        for _ in range(num_tokens):
            last = logits[-1]
            if greedy:
                next_token = int(np.argmax(last))
            else:
                probabilities = softmax(last)
                next_token = int(rng.choice(len(last), p=probabilities))
            generated.append(next_token)
            logits = self.forward(np.array([next_token]))
        return np.array(generated, dtype=np.int64)

    def perplexity(self, token_ids: np.ndarray) -> float:
        """Pseudo-perplexity of a token stream under the model.

        Stands in for the WikiText-2 perplexity check of the FPGA prototype:
        two functionally equivalent backends must report the same value.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.shape[0] < 2:
            raise ValueError("need at least two tokens to compute perplexity")
        self.reset()
        logits = self.forward(token_ids[:-1])
        log_probs = np.log(softmax(logits, axis=-1) + 1e-12)
        picked = log_probs[np.arange(token_ids.shape[0] - 1), token_ids[1:]]
        return float(np.exp(-picked.mean()))
