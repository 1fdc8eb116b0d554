"""DFX baseline model (Fig. 9).

DFX [Hong et al., MICRO 2022] is a multi-FPGA appliance built specifically
for the generation stage of GPT: its peak FLOPS is sized to match its HBM
bandwidth, so matrix-vector products stream weights at close to memory speed,
but the small peak FLOPS (1.64 TFLOPS for the four-FPGA appliance of Table 2)
makes the summarization stage slow.  The paper compares IANUS against a
four-FPGA DFX running GPT-2 XL with the (input, output) configurations taken
from the DFX paper.

The model charges each stage a roofline term (compute-bound summarization,
bandwidth-bound generation) plus per-layer instruction-streaming and
inter-FPGA synchronisation overheads.
"""

from __future__ import annotations

from repro.config import DfxConfig
from repro.core.costmodel import PassCost
from repro.core.results import InferenceResult, StageResult
from repro.energy.model import EnergyBreakdown
from repro.models.flops import stage_flops
from repro.models.transformer import ModelConfig
from repro.models.workload import Stage, StagePass, Workload
from repro.perf.cache import (
    PassCostCache,
    config_fingerprint,
    global_baseline_cache,
    resolve_pass_cache,
)

__all__ = ["DfxAppliance"]


class DfxAppliance:
    """Analytical model of the DFX multi-FPGA appliance.

    ``pass_cache`` mirrors :class:`repro.core.system.IanusSystem`: ``True``
    (default) shares the process-wide baseline cache of
    :func:`repro.perf.cache.global_baseline_cache`, ``None``/``False``
    disables caching, a :class:`~repro.perf.cache.PassCostCache` instance is
    used as-is.  The memoized values are plain floats (per-stage latencies),
    so cached and uncached runs are trivially identical.
    """

    def __init__(
        self,
        config: DfxConfig | None = None,
        pass_cache: "PassCostCache | bool | None" = True,
    ) -> None:
        self.config = config or DfxConfig()
        self.pass_cache = resolve_pass_cache(pass_cache, global_baseline_cache)
        self.config_fingerprint = config_fingerprint(self.config)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.config.name}-{self.config.num_fpgas}fpga"

    # ------------------------------------------------------------------
    def _per_layer_overhead(self, model: ModelConfig) -> float:
        return model.num_blocks * (
            self.config.layer_overhead_s + self.config.sync_overhead_s
        )

    def _cached_latency(self, key_tag: str, model: ModelConfig, tokens: int, compute) -> float:
        """Memoize one per-stage latency in the baseline cache."""
        cache = self.pass_cache
        if cache is None:
            return compute()
        key = (self.config_fingerprint, key_tag, model, tokens)
        hit = cache.get(key)
        if hit is not None:
            return hit
        value = compute()
        cache.put(key, value)
        return value

    def summarization_latency(self, model: ModelConfig, num_tokens: int) -> float:
        """Compute-bound summarization pass over all input tokens."""
        return self._cached_latency(
            "dfx-summ", model, num_tokens,
            lambda: self._summarization_latency_uncached(model, num_tokens),
        )

    def _summarization_latency_uncached(self, model: ModelConfig, num_tokens: int) -> float:
        stage_pass = StagePass(Stage.SUMMARIZATION, num_tokens, num_tokens)
        flops = stage_flops(model, stage_pass)
        compute = flops / (self.config.peak_flops * self.config.summarization_efficiency)
        weight_bytes = model.fc_param_bytes
        memory = weight_bytes / self.config.memory_bandwidth
        return max(compute, memory) + self._per_layer_overhead(model)

    def generation_latency_per_token(self, model: ModelConfig, kv_length: int) -> float:
        """Bandwidth-bound generation of one token."""
        return self._cached_latency(
            "dfx-gen", model, kv_length,
            lambda: self._generation_latency_per_token_uncached(model, kv_length),
        )

    def _generation_latency_per_token_uncached(self, model: ModelConfig, kv_length: int) -> float:
        weight_bytes = model.fc_param_bytes
        kv_bytes = model.kv_cache_bytes(kv_length)
        memory = (weight_bytes + kv_bytes) / (
            self.config.memory_bandwidth * self.config.generation_bandwidth_efficiency
        )
        stage_pass = StagePass(Stage.GENERATION, 1, kv_length)
        compute = stage_flops(model, stage_pass) / self.config.peak_flops
        return max(compute, memory) + self._per_layer_overhead(model)

    # ------------------------------------------------------------------
    def pass_cost(self, model: ModelConfig, stage_pass: StagePass) -> PassCost:
        """One pass priced through the :class:`~repro.core.costmodel.CostModel`
        protocol, dispatching on the stage: the memoized per-stage roofline
        latencies plus the coarse DFX energy model."""
        if stage_pass.stage is Stage.SUMMARIZATION:
            latency = self.summarization_latency(model, stage_pass.num_tokens)
            tag = "Summarization"
        else:
            latency = self.generation_latency_per_token(model, stage_pass.kv_length)
            tag = "Generation"
        return PassCost(
            latency_s=latency,
            breakdown={tag: latency},
            energy=self._energy(latency),
            flops=stage_flops(model, stage_pass),
        )

    def cache_stats(self) -> dict:
        """Counters of the baseline cache this model routes through."""
        return self.pass_cache.stats() if self.pass_cache is not None else {}

    # ------------------------------------------------------------------
    def run(self, model: ModelConfig, workload: Workload, mode: str = "fast") -> InferenceResult:
        del mode
        if not model.is_decoder:
            raise ValueError("DFX is a GPT-generation appliance; BERT is not supported")
        model_bytes = model.param_bytes
        if model_bytes > self.config.memory_capacity_bytes:
            raise ValueError(
                f"{model.name} does not fit in DFX's "
                f"{self.config.memory_capacity_bytes / 2**30:.0f} GiB of HBM"
            )

        summ_latency = self.summarization_latency(model, workload.input_tokens)
        summarization = StageResult(
            latency_s=summ_latency,
            breakdown={"Summarization": summ_latency},
            energy=self._energy(summ_latency),
            flops=stage_flops(
                model,
                StagePass(Stage.SUMMARIZATION, workload.input_tokens, workload.input_tokens),
            ),
            num_tokens=workload.input_tokens,
        )

        kv_lengths = workload.generation_kv_lengths()
        gen_latency = 0.0
        gen_flops = 0.0
        if kv_lengths:
            first = self.generation_latency_per_token(model, kv_lengths[0])
            last = self.generation_latency_per_token(model, kv_lengths[-1])
            gen_latency = (first + last) / 2 * len(kv_lengths)
            gen_flops = sum(
                stage_flops(model, StagePass(Stage.GENERATION, 1, kv))
                for kv in (kv_lengths[0], kv_lengths[-1])
            ) / 2 * len(kv_lengths)
        generation = StageResult(
            latency_s=gen_latency,
            breakdown={"Generation": gen_latency},
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
        dynamic_fraction = 0.5
        return EnergyBreakdown(
            normal_memory_j=0.4 * self.config.tdp_w * dynamic_fraction * latency_s,
            pim_op_j=0.0,
            npu_cores_j=0.6 * self.config.tdp_w * dynamic_fraction * latency_s,
        )
