"""Tests for the A100 GPU, DFX and NPU-MEM baseline models."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.baselines import A100Gpu, DfxAppliance, GpuKernel, NpuMemSystem
from repro.config import DfxConfig, GpuConfig, SystemConfig
from repro.models import BERT_CONFIGS, GPT2_CONFIGS, LARGE_GPT_CONFIGS, Workload
from repro.models.workload import Stage, StagePass


@pytest.fixture(scope="module")
def gpu() -> A100Gpu:
    return A100Gpu()


@pytest.fixture(scope="module")
def dfx() -> DfxAppliance:
    return DfxAppliance()


class TestGpuKernelModel:
    def test_every_kernel_pays_launch_overhead(self, gpu):
        tiny = GpuKernel("tiny", "LayerNorm", 10.0, 0, 16, "vector")
        assert gpu.kernel_time(tiny) >= GpuConfig().kernel_overhead_s

    def test_gemm_efficiency_grows_with_work(self, gpu):
        small = gpu._gemm_efficiency(1e6)
        large = gpu._gemm_efficiency(1e12)
        assert small < large <= GpuConfig().max_gemm_efficiency

    def test_gemv_kernels_are_memory_bound(self, gpu):
        kernel = GpuKernel("fc", "FFN+Add", 2 * 4096 * 4096, 4096 * 4096 * 2, 0, "gemv")
        time = gpu.kernel_time(kernel)
        compute_only = kernel.flops / GpuConfig().peak_flops
        assert time > 10 * compute_only

    def test_reorder_kernels_have_no_compute(self, gpu):
        kernel = GpuKernel("transpose", "Self-attention", 0.0, 0, 2**20, "reorder")
        assert gpu.kernel_time(kernel) > GpuConfig().kernel_overhead_s

    def test_unknown_kernel_class_rejected(self, gpu):
        with pytest.raises(ValueError):
            gpu.kernel_time(GpuKernel("x", "y", 0.0, 0, 0, "fft"))

    def test_block_kernels_include_reordering_ops(self, gpu, gpt2_xl):
        kernels = gpu.block_kernels(gpt2_xl, StagePass(Stage.GENERATION, 1, 256))
        names = {k.name for k in kernels}
        assert {"split_heads", "merge_heads", "key_transpose", "kv_concat"} <= names

    def test_summarization_block_has_no_kv_concat(self, gpu, gpt2_xl):
        kernels = gpu.block_kernels(gpt2_xl, StagePass(Stage.SUMMARIZATION, 128, 128))
        assert "kv_concat" not in {k.name for k in kernels}


#: The four FC kernels of a GPT-2 block.
_FC_KERNELS = ("qkv", "attn_proj", "ffn1", "ffn2")

#: The A100's ridge point: FLOPs per byte of DRAM traffic above which a
#: kernel is compute-bound.
_GPU_RIDGE = GpuConfig().peak_flops / GpuConfig().memory_bandwidth


def _intensity(kernel: GpuKernel) -> float:
    """FLOPs per byte of DRAM traffic."""
    return kernel.flops / kernel.bytes_total


def _kernel(gpu: A100Gpu, name: str, stage_pass: StagePass) -> GpuKernel:
    kernels = gpu.block_kernels(GPT2_CONFIGS["xl"], stage_pass)
    return next(kernel for kernel in kernels if kernel.name == name)


class TestGpuRoofline:
    """Sec. 3.1: on the A100, generation-stage FCs sit far below the ridge
    point and summarization-stage FCs above it."""

    @pytest.mark.parametrize("name", _FC_KERNELS)
    def test_generation_fc_is_memory_bound(self, gpu, name):
        """A matrix-vector product reads each BF16 weight once for two
        FLOPs: about one FLOP per byte."""
        kernel = _kernel(gpu, name, StagePass(Stage.GENERATION, 1, 256))
        assert 0.5 <= _intensity(kernel) <= 2.0
        assert _intensity(kernel) < _GPU_RIDGE / 10

    @pytest.mark.parametrize("name", _FC_KERNELS)
    def test_summarization_fc_is_compute_bound(self, gpu, name):
        kernel = _kernel(gpu, name, StagePass(Stage.SUMMARIZATION, 512, 512))
        assert _intensity(kernel) > _GPU_RIDGE

    def test_fc_intensity_scales_with_tokens(self, gpu):
        few = _kernel(gpu, "ffn1", StagePass(Stage.SUMMARIZATION, 16, 16))
        many = _kernel(gpu, "ffn1", StagePass(Stage.SUMMARIZATION, 512, 512))
        assert _intensity(many) > 10 * _intensity(few)

    def test_vector_and_reorder_kernels_have_tiny_intensity(self, gpu):
        for stage_pass in (
            StagePass(Stage.GENERATION, 1, 256), StagePass(Stage.SUMMARIZATION, 512, 512)
        ):
            kernels = gpu.block_kernels(GPT2_CONFIGS["xl"], stage_pass)
            small = [k for k in kernels if k.kernel_class in ("vector", "reorder")]
            assert small
            assert all(_intensity(k) < 5.0 for k in small)

    def test_generation_block_time_is_memory_bound(self, gpu):
        """Fig. 2: generation spends over 90% of its kernel time below the
        ridge point."""
        kernels = gpu.block_kernels(GPT2_CONFIGS["xl"], StagePass(Stage.GENERATION, 1, 256))
        total = sum(gpu.kernel_time(k) for k in kernels)
        memory_bound = sum(gpu.kernel_time(k) for k in kernels if _intensity(k) < _GPU_RIDGE)
        assert memory_bound > 0.9 * total


class TestGpuEndToEnd:
    def test_generation_per_token_latency_in_paper_range(self, gpu):
        """Sec. 6.2: the A100 takes ~29.9 ms/token for GPT-2 2.5B."""
        result = gpu.run(GPT2_CONFIGS["2.5b"], Workload(128, 64))
        per_token = result.generation.latency_per_token_ms
        assert 15.0 <= per_token <= 60.0

    def test_generation_dominates_end_to_end_latency(self, gpu, gpt2_xl):
        """Sec. 3.1: generation is disproportionately slow on the GPU."""
        result = gpu.run(gpt2_xl, Workload(512, 2))
        assert result.generation.latency_s > 0.3 * result.summarization.latency_s

    def test_self_attention_breakdown_mostly_non_computing(self, gpu, gpt2_xl):
        """Fig. 2b: ~66% of self-attention latency is non-computing."""
        split = gpu.self_attention_breakdown(gpt2_xl, StagePass(Stage.GENERATION, 1, 514))
        fraction = split["non_computing"] / (split["computing"] + split["non_computing"])
        assert fraction > 0.5

    def test_decoder_breakdown_fractions_sum_to_one(self, gpu, gpt2_xl):
        breakdown = gpu.decoder_latency_breakdown(gpt2_xl, Workload(512, 2))
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_breakdown_tag_order_does_not_follow_the_string_hash(self, tmp_path):
        """Per-tag breakdowns list tags in first-seen order, so fig02's
        fractions (summed over those dicts) are the same numbers, keys in
        the same order, under every ``PYTHONHASHSEED``."""
        script = (
            "from repro.experiments.registry import run_experiment\n"
            "fractions = run_experiment('fig02', fast=True).data['latency_fractions']\n"
            "print([(tag, float(value).hex()) for tag, value in fractions.items()])\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        printed = [
            subprocess.run(
                [sys.executable, "-c", script], check=True, capture_output=True,
                text=True, env={
                    **os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src,
                    "REPRO_CACHE_DIR": str(tmp_path / seed),
                },
            ).stdout
            for seed in ("0", "3")
        ]
        assert printed[0] == printed[1]
        assert "FC for Q,K,V" in printed[0]

    def test_bert_on_gpu_has_low_utilization(self, gpu):
        """Fig. 14: the GPU utilises a small fraction of its peak on BERT."""
        result = gpu.run(BERT_CONFIGS["base"], Workload(256, 1))
        assert result.utilization(gpu.peak_flops) < 0.2

    def test_larger_models_better_gpu_utilization(self, gpu):
        small = gpu.run(BERT_CONFIGS["base"], Workload(512, 1)).utilization(gpu.peak_flops)
        large = gpu.run(BERT_CONFIGS["3.9b"], Workload(512, 1)).utilization(gpu.peak_flops)
        assert large > small

    def test_large_llms_fit_on_gpu(self, gpu):
        result = gpu.run(LARGE_GPT_CONFIGS["30b"], Workload(256, 4))
        assert result.total_latency_s > 0


class TestDfx:
    def test_weak_summarization_strong_generation(self, dfx, gpu, gpt2_xl):
        """Fig. 9: DFX loses badly on (128,1) but is competitive on generation."""
        summarization_only = Workload(128, 1)
        dfx_summ = dfx.run(gpt2_xl, summarization_only).total_latency_s
        gpu_summ = gpu.run(gpt2_xl, summarization_only).total_latency_s
        assert dfx_summ > 5 * gpu_summ

        generation_heavy = Workload(32, 256)
        dfx_gen = dfx.run(gpt2_xl, generation_heavy).generation.latency_per_token_ms
        gpu_gen = gpu.run(gpt2_xl, generation_heavy).generation.latency_per_token_ms
        assert dfx_gen < gpu_gen

    def test_generation_per_token_in_paper_range(self, dfx, gpt2_xl):
        """Sec. 6.2: DFX generates a GPT-2 XL token in ~6.9 ms."""
        per_token = dfx.generation_latency_per_token(gpt2_xl, kv_length=300)
        assert 0.003 <= per_token <= 0.015

    def test_bert_rejected(self, dfx):
        with pytest.raises(ValueError):
            dfx.run(BERT_CONFIGS["base"], Workload(128, 1))

    def test_oversized_model_rejected(self, dfx):
        with pytest.raises(ValueError):
            dfx.run(LARGE_GPT_CONFIGS["30b"], Workload(128, 8))

    def test_tokens_per_second(self, dfx, gpt2_xl):
        result = dfx.run(gpt2_xl, Workload(256, 8))
        assert result.tokens_per_second == 8 / result.total_latency_s > 0

    def test_name_mentions_fpga_count(self):
        assert "4fpga" in DfxAppliance(DfxConfig(num_fpgas=4)).name

    def test_ridge_point_far_below_gpu(self):
        """DFX matches its FLOPS to its HBM bandwidth: its ridge point is
        below one FLOP per byte, two orders of magnitude under the A100's."""
        config = DfxConfig()
        assert config.peak_flops / config.memory_bandwidth < _GPU_RIDGE / 10


class TestNpuMem:
    def test_npu_mem_disables_pim_even_from_ianus_config(self):
        system = NpuMemSystem(SystemConfig.ianus())
        assert not system.config.pim_compute_enabled

    def test_npu_mem_slower_than_ianus_on_generation(self, ianus_system, gpt2_xl):
        workload = Workload(128, 32)
        npu_mem = NpuMemSystem().run(gpt2_xl, workload)
        ianus = ianus_system.run(gpt2_xl, workload)
        assert npu_mem.generation.latency_s > 2 * ianus.generation.latency_s

    def test_npu_mem_matches_ianus_on_summarization_only(self, ianus_system, gpt2_xl):
        """Fig. 9: for (128,1) IANUS and NPU-MEM perform similarly."""
        workload = Workload(128, 1)
        npu_mem = NpuMemSystem().run(gpt2_xl, workload)
        ianus = ianus_system.run(gpt2_xl, workload)
        ratio = npu_mem.total_latency_s / ianus.total_latency_s
        assert 0.9 <= ratio <= 1.25


class TestBaselinePassCache:
    """PR 2: the analytical baselines share the pass-cost cache design."""

    def test_gpu_cached_equals_uncached(self, gpt2_m):
        from repro.perf.cache import PassCostCache

        workload = Workload(96, 24)
        cached_gpu = A100Gpu(pass_cache=PassCostCache())
        uncached_gpu = A100Gpu(pass_cache=None)
        first = cached_gpu.run(gpt2_m, workload)
        second = cached_gpu.run(gpt2_m, workload)
        reference = uncached_gpu.run(gpt2_m, workload)
        for result in (first, second):
            assert result.total_latency_s == reference.total_latency_s
            assert result.summarization.flops == reference.summarization.flops
            assert sorted(result.breakdown.items()) == sorted(reference.breakdown.items())
        assert cached_gpu.pass_cache.hits > 0

    def test_dfx_cached_equals_uncached(self, gpt2_xl):
        from repro.perf.cache import PassCostCache

        workload = Workload(64, 16)
        cached_dfx = DfxAppliance(pass_cache=PassCostCache())
        uncached_dfx = DfxAppliance(pass_cache=None)
        first = cached_dfx.run(gpt2_xl, workload)
        second = cached_dfx.run(gpt2_xl, workload)
        reference = uncached_dfx.run(gpt2_xl, workload)
        for result in (first, second):
            assert result.total_latency_s == reference.total_latency_s
        assert cached_dfx.pass_cache.hits > 0

    def test_baselines_share_global_baseline_cache_by_default(self):
        from repro.perf.cache import global_baseline_cache, global_pass_cache

        assert A100Gpu().pass_cache is global_baseline_cache()
        assert DfxAppliance().pass_cache is global_baseline_cache()
        # Kept separate from the simulator cache so hit rates report per family.
        assert global_baseline_cache() is not global_pass_cache()

    def test_gpu_hit_does_not_alias_cached_breakdown(self, gpt2_m):
        from repro.perf.cache import PassCostCache

        gpu = A100Gpu(pass_cache=PassCostCache())
        stage_pass = StagePass(Stage.SUMMARIZATION, 64, 64)
        _, first_breakdown, _ = gpu.pass_latency(gpt2_m, stage_pass)
        first_breakdown["LayerNorm"] = -1.0  # mutate the returned copy
        _, second_breakdown, _ = gpu.pass_latency(gpt2_m, stage_pass)
        assert second_breakdown["LayerNorm"] > 0

    def test_different_gpu_configs_do_not_share_entries(self, gpt2_m):
        from repro.perf.cache import PassCostCache

        cache = PassCostCache()
        base = A100Gpu(pass_cache=cache)
        slow = A100Gpu(GpuConfig(memory_bandwidth=GpuConfig().memory_bandwidth / 2),
                       pass_cache=cache)
        workload = Workload(48, 8)
        base_ms = base.run(gpt2_m, workload).total_latency_ms
        slow_ms = slow.run(gpt2_m, workload).total_latency_ms
        assert slow_ms > base_ms
