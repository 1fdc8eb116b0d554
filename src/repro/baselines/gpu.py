"""A100 GPU baseline model (Sec. 6.1, Figs. 2, 8, 14, 17).

The paper measures GPT-2 and BERT on an A100-SXM with PyTorch 2.0 and the
HuggingFace / Megatron-LM implementations.  Its central observations are:

* the generation stage is dominated by memory-bound matrix-vector kernels and
  by *non-computing* data-reordering operations (transpose, attention-head
  split/merge, KV concatenation) plus per-kernel launch overhead — Fig. 2
  shows that layer normalisation and residual additions take 13.2% of decoder
  latency despite being <0.06% of FLOPs, and that 66.1% of self-attention
  latency is non-computing;
* the summarization stage is compute-bound but achieves a modest fraction of
  peak for moderate sequence lengths, so IANUS with 1.4x lower peak FLOPS can
  still beat it on BERT-B/L (Fig. 14).

The model below reproduces those mechanisms with a per-operator roofline: a
kernel's latency is the maximum of its compute time (at an efficiency that
grows with the work per kernel), its memory time (at a kernel-class-specific
fraction of DRAM bandwidth), plus a fixed launch/synchronisation overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BYTES_PER_ELEMENT, GpuConfig
from repro.core.costmodel import PassCost
from repro.core.results import InferenceResult, StageResult
from repro.energy.model import EnergyBreakdown
from repro.ir.command import (
    TAG_ATTENTION,
    TAG_EMBEDDING,
    TAG_FFN,
    TAG_LAYERNORM,
    TAG_LM_HEAD,
    TAG_PROJ,
    TAG_QKV,
)
from repro.models.flops import (
    attention_context_flops,
    attention_score_flops,
    fc_flops,
    gelu_flops,
    layernorm_flops,
    residual_add_flops,
    softmax_flops,
)
from repro.models.transformer import ModelConfig
from repro.models.workload import Stage, StagePass, Workload
from repro.perf.cache import (
    PassCostCache,
    config_fingerprint,
    global_baseline_cache,
    resolve_pass_cache,
)

__all__ = ["GpuKernel", "A100Gpu"]


@dataclass(frozen=True)
class GpuKernel:
    """One GPU kernel launch with its roofline inputs."""

    name: str
    tag: str
    flops: float
    weight_bytes: int
    activation_bytes: int
    kernel_class: str  # "gemm", "gemv", "vector", "reorder"

    @property
    def bytes_total(self) -> int:
        return self.weight_bytes + self.activation_bytes


class A100Gpu:
    """Roofline + kernel-overhead model of an NVIDIA A100-SXM.

    Parameters
    ----------
    config:
        GPU configuration (defaults to the paper's A100-SXM).
    pass_cache:
        Pass-cost cache policy, mirroring
        :class:`repro.core.system.IanusSystem`: ``True`` (default) shares the
        process-wide baseline cache of
        :func:`repro.perf.cache.global_baseline_cache`, ``None``/``False``
        disables caching, a :class:`~repro.perf.cache.PassCostCache` instance
        is used as-is.  Cached and uncached runs are identical — the key
        covers every input of :meth:`pass_latency`.
    """

    def __init__(
        self,
        config: GpuConfig | None = None,
        pass_cache: "PassCostCache | bool | None" = True,
    ) -> None:
        self.config = config or GpuConfig()
        self.pass_cache = resolve_pass_cache(pass_cache, global_baseline_cache)
        self.config_fingerprint = config_fingerprint(self.config)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.config.name

    @property
    def peak_flops(self) -> float:
        return self.config.peak_flops

    @property
    def tdp_w(self) -> float:
        return self.config.tdp_w

    # ------------------------------------------------------------------
    # Kernel-level timing
    # ------------------------------------------------------------------
    def _gemm_efficiency(self, flops: float) -> float:
        """Fraction of peak reached by a matrix-matrix kernel.

        Efficiency saturates for large kernels and collapses for small ones,
        following a simple ``work / (work + half_point)`` law.
        """
        cfg = self.config
        if flops <= 0:
            return cfg.max_gemm_efficiency
        return cfg.max_gemm_efficiency * flops / (flops + cfg.gemm_half_efficiency_flops)

    def kernel_time(self, kernel: GpuKernel) -> float:
        """Latency of one kernel launch."""
        cfg = self.config
        if kernel.kernel_class == "gemm":
            compute = kernel.flops / (cfg.peak_flops * self._gemm_efficiency(kernel.flops))
            memory = kernel.bytes_total / cfg.memory_bandwidth
        elif kernel.kernel_class == "gemv":
            compute = kernel.flops / cfg.peak_flops
            efficiency = cfg.gemv_max_bandwidth_efficiency * kernel.bytes_total / (
                kernel.bytes_total + cfg.gemv_half_efficiency_bytes
            )
            memory = kernel.bytes_total / (cfg.memory_bandwidth * max(efficiency, 1e-3))
        elif kernel.kernel_class == "vector":
            compute = kernel.flops / cfg.peak_flops
            memory = kernel.bytes_total / (
                cfg.memory_bandwidth * cfg.vector_bandwidth_efficiency
            )
        elif kernel.kernel_class == "reorder":
            compute = 0.0
            memory = kernel.bytes_total / (
                cfg.memory_bandwidth * cfg.reorder_bandwidth_efficiency
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown kernel class {kernel.kernel_class}")
        return max(compute, memory) + cfg.kernel_overhead_s

    # ------------------------------------------------------------------
    # Kernel enumeration for one decoder/encoder block
    # ------------------------------------------------------------------
    def block_kernels(self, model: ModelConfig, stage_pass: StagePass) -> list[GpuKernel]:
        """The kernels PyTorch launches for one block of one pass."""
        n = stage_pass.num_tokens
        kv = stage_pass.kv_length
        d = model.embedding_dim
        d_ff = model.ffn_dim
        h = model.num_heads
        hd = model.head_dim
        matmul_class = "gemm" if n > 1 else "gemv"
        act = lambda tokens, dim: tokens * dim * BYTES_PER_ELEMENT  # noqa: E731

        kernels = [
            GpuKernel("ln1", TAG_LAYERNORM, layernorm_flops(n, d), 0, 2 * act(n, d), "vector"),
            GpuKernel(
                "qkv", TAG_QKV, fc_flops(n, d, 3 * d),
                3 * d * d * BYTES_PER_ELEMENT, act(n, d) + act(n, 3 * d), matmul_class,
            ),
            GpuKernel(
                "split_heads", TAG_ATTENTION, 0.0, 0, 2 * act(n, 3 * d), "reorder",
            ),
        ]
        if stage_pass.stage is Stage.GENERATION:
            kernels.append(
                GpuKernel(
                    "kv_concat", TAG_ATTENTION, 0.0, 0,
                    2 * 2 * kv * d * BYTES_PER_ELEMENT, "reorder",
                )
            )
        kernels.extend(
            [
                GpuKernel(
                    "key_transpose", TAG_ATTENTION, 0.0, 0,
                    2 * kv * d * BYTES_PER_ELEMENT, "reorder",
                ),
                GpuKernel(
                    "qkt", TAG_ATTENTION, h * attention_score_flops(n, kv, hd),
                    0, act(n, d) + kv * d * BYTES_PER_ELEMENT + n * kv * h * BYTES_PER_ELEMENT,
                    matmul_class,
                ),
                GpuKernel(
                    "masked_softmax", TAG_ATTENTION, h * softmax_flops(n, kv),
                    0, 2 * n * kv * h * BYTES_PER_ELEMENT, "vector",
                ),
                GpuKernel(
                    "sv", TAG_ATTENTION, h * attention_context_flops(n, kv, hd),
                    0, n * kv * h * BYTES_PER_ELEMENT + kv * d * BYTES_PER_ELEMENT + act(n, d),
                    matmul_class,
                ),
                GpuKernel(
                    "merge_heads", TAG_ATTENTION, 0.0, 0, 2 * act(n, d), "reorder",
                ),
                GpuKernel(
                    "attn_proj", TAG_PROJ, fc_flops(n, d, d),
                    d * d * BYTES_PER_ELEMENT, 2 * act(n, d), matmul_class,
                ),
                GpuKernel(
                    "residual1", TAG_PROJ, residual_add_flops(n, d), 0, 3 * act(n, d), "vector",
                ),
                GpuKernel("ln2", TAG_LAYERNORM, layernorm_flops(n, d), 0, 2 * act(n, d), "vector"),
                GpuKernel(
                    "ffn1", TAG_FFN, fc_flops(n, d, d_ff),
                    d * d_ff * BYTES_PER_ELEMENT, act(n, d) + act(n, d_ff), matmul_class,
                ),
                GpuKernel("gelu", TAG_FFN, gelu_flops(n, d_ff), 0, 2 * act(n, d_ff), "vector"),
                GpuKernel(
                    "ffn2", TAG_FFN, fc_flops(n, d_ff, d),
                    d_ff * d * BYTES_PER_ELEMENT, act(n, d_ff) + act(n, d), matmul_class,
                ),
                GpuKernel(
                    "residual2", TAG_FFN, residual_add_flops(n, d), 0, 3 * act(n, d), "vector",
                ),
            ]
        )
        return kernels

    # ------------------------------------------------------------------
    # Pass- and workload-level simulation
    # ------------------------------------------------------------------
    def pass_cost(self, model: ModelConfig, stage_pass: StagePass) -> PassCost:
        """One pass priced through the :class:`~repro.core.costmodel.CostModel`
        protocol: the memoized roofline of :meth:`pass_latency` plus the
        coarse GPU energy model."""
        latency, breakdown, flops = self.pass_latency(model, stage_pass)
        return PassCost(
            latency_s=latency,
            breakdown=breakdown,
            energy=self._energy(latency),
            flops=flops,
        )

    def cache_stats(self) -> dict:
        """Counters of the baseline cache this model routes through."""
        return self.pass_cache.stats() if self.pass_cache is not None else {}

    def pass_latency(self, model: ModelConfig, stage_pass: StagePass) -> tuple[float, dict[str, float], float]:
        """Latency, tag breakdown and FLOPs of one full model pass.

        Memoized in :attr:`pass_cache` under the configuration fingerprint
        plus every pass input, mirroring ``IanusSystem._pass_cost``.
        """
        cache = self.pass_cache
        if cache is None:
            return self._pass_latency_uncached(model, stage_pass)
        key = (
            self.config_fingerprint,
            "a100-pass",
            model,
            stage_pass.stage,
            stage_pass.num_tokens,
            stage_pass.kv_length,
        )
        hit = cache.get(key)
        if hit is not None:
            latency, breakdown, flops = hit
            # Fresh copy of the mutable piece so callers can never alias
            # (and corrupt) the cached entry.
            return latency, dict(breakdown), flops
        latency, breakdown, flops = self._pass_latency_uncached(model, stage_pass)
        cache.put(key, (latency, dict(breakdown), flops))
        return latency, breakdown, flops

    def _pass_latency_uncached(
        self, model: ModelConfig, stage_pass: StagePass
    ) -> tuple[float, dict[str, float], float]:
        kernels = self.block_kernels(model, stage_pass)
        per_block = {k.name: self.kernel_time(k) for k in kernels}
        breakdown: dict[str, float] = {}
        for kernel in kernels:
            breakdown[kernel.tag] = breakdown.get(kernel.tag, 0.0) + per_block[kernel.name]
        latency = sum(per_block.values()) * model.num_blocks
        breakdown = {tag: value * model.num_blocks for tag, value in breakdown.items()}
        flops = sum(k.flops for k in kernels) * model.num_blocks

        # Embedding lookup.
        embed = GpuKernel(
            "embedding", TAG_EMBEDDING, 0.0, 0,
            stage_pass.num_tokens * model.embedding_dim * BYTES_PER_ELEMENT, "reorder",
        )
        latency += self.kernel_time(embed)
        breakdown[TAG_EMBEDDING] = breakdown.get(TAG_EMBEDDING, 0.0) + self.kernel_time(embed)

        if model.is_decoder:
            lm_head = GpuKernel(
                "lm_head", TAG_LM_HEAD, fc_flops(1, model.embedding_dim, model.vocab_size),
                model.embedding_dim * model.vocab_size * BYTES_PER_ELEMENT,
                model.vocab_size * BYTES_PER_ELEMENT,
                "gemv",
            )
            lm_time = self.kernel_time(lm_head)
            latency += lm_time
            breakdown[TAG_LM_HEAD] = breakdown.get(TAG_LM_HEAD, 0.0) + lm_time
            flops += lm_head.flops
        return latency, breakdown, flops

    def self_attention_breakdown(self, model: ModelConfig, stage_pass: StagePass) -> dict[str, float]:
        """Computing vs non-computing split of self-attention latency (Fig. 2b)."""
        kernels = self.block_kernels(model, stage_pass)
        computing = 0.0
        non_computing = 0.0
        for kernel in kernels:
            if kernel.tag != TAG_ATTENTION:
                continue
            time = self.kernel_time(kernel)
            if kernel.kernel_class == "reorder":
                non_computing += time
            else:
                non_computing += self.config.kernel_overhead_s
                computing += time - self.config.kernel_overhead_s
        return {"computing": computing, "non_computing": non_computing}

    # ------------------------------------------------------------------
    def run(self, model: ModelConfig, workload: Workload, mode: str = "fast") -> InferenceResult:
        """End-to-end inference latency of one request on the GPU."""
        del mode  # the GPU model is analytical; both modes are identical
        summ_pass = StagePass(
            stage=Stage.SUMMARIZATION,
            num_tokens=workload.input_tokens,
            kv_length=workload.input_tokens,
        )
        summ_latency, summ_breakdown, summ_flops = self.pass_latency(model, summ_pass)
        summarization = StageResult(
            latency_s=summ_latency,
            breakdown=summ_breakdown,
            energy=self._energy(summ_latency),
            flops=summ_flops,
            num_tokens=workload.input_tokens,
        )

        gen_latency = 0.0
        gen_flops = 0.0
        gen_breakdown: dict[str, float] = {}
        kv_lengths = workload.generation_kv_lengths() if model.is_decoder else []
        if kv_lengths:
            # Per-token latency varies (almost) linearly with KV length;
            # evaluate the two endpoints and integrate.
            first, last = kv_lengths[0], kv_lengths[-1]
            lat_first, brk_first, flops_first = self.pass_latency(
                model, StagePass(Stage.GENERATION, 1, first)
            )
            lat_last, brk_last, flops_last = self.pass_latency(
                model, StagePass(Stage.GENERATION, 1, last)
            )
            count = len(kv_lengths)
            gen_latency = (lat_first + lat_last) / 2 * count
            gen_flops = (flops_first + flops_last) / 2 * count
            gen_breakdown = {
                tag: (brk_first.get(tag, 0.0) + brk_last.get(tag, 0.0)) / 2 * count
                for tag in dict.fromkeys([*brk_first, *brk_last])
            }
        generation = StageResult(
            latency_s=gen_latency,
            breakdown=gen_breakdown,
            energy=self._energy(gen_latency),
            flops=gen_flops,
            num_tokens=len(kv_lengths),
        )
        return InferenceResult(
            backend=self.name,
            model=model,
            workload=workload,
            summarization=summarization,
            generation=generation,
            energy=summarization.energy + generation.energy,
        )

    def _energy(self, latency_s: float) -> EnergyBreakdown:
        """Coarse GPU dynamic energy: a fraction of TDP over the busy time.

        The paper does not compare GPU energy, so this is only used to keep
        the result interface uniform.
        """
        dynamic_fraction = 0.6
        return EnergyBreakdown(
            normal_memory_j=0.25 * self.config.tdp_w * dynamic_fraction * latency_s,
            pim_op_j=0.0,
            npu_cores_j=0.75 * self.config.tdp_w * dynamic_fraction * latency_s,
        )

    # ------------------------------------------------------------------
    def decoder_latency_breakdown(self, model: ModelConfig, workload: Workload) -> dict[str, float]:
        """Relative latency breakdown of the generation-stage decoder (Fig. 2a)."""
        result = self.run(model, workload)
        breakdown = result.generation.breakdown or result.summarization.breakdown
        relevant = {
            tag: value
            for tag, value in breakdown.items()
            if tag not in (TAG_EMBEDDING, TAG_LM_HEAD)
        }
        total = sum(relevant.values())
        return {tag: value / total for tag, value in relevant.items()} if total else {}
