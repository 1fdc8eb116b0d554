"""Tests for the analytical FLOP/byte accounting."""

from __future__ import annotations

import pytest

from repro.config import NpuCoreConfig
from repro.models import GPT2_CONFIGS, Workload
from repro.models.flops import block_flops, fc_flops, lm_head_flops, stage_flops
from repro.models.workload import Stage, StagePass
from repro.npu import NpuCoreModel


class TestFcAccounting:
    def test_fc_flops_formula(self):
        assert fc_flops(4, 8, 16) == 2 * 4 * 8 * 16

    def test_fc_weight_bytes_bf16(self):
        """Algorithm 1 prices a weight load as two bytes per parameter."""
        core = NpuCoreModel(NpuCoreConfig(), offchip_bandwidth=256e9)
        assert core.fc_weight_load_time(1024, 1024) == core.dma.load_time(
            1024 * 1024 * 2
        )


class TestBlockFlops:
    def test_total_is_sum_of_components(self):
        flops = block_flops(GPT2_CONFIGS["m"], num_tokens=8, kv_length=8)
        assert flops.total == pytest.approx(
            flops.fc_total + flops.attention_total + flops.vector_total
        )

    def test_fc_dominates_generation(self):
        """Vector operations are <0.06% of FLOPs (Sec. 3.1)."""
        flops = block_flops(GPT2_CONFIGS["xl"], num_tokens=1, kv_length=512)
        assert flops.vector_total / flops.total < 0.01
        assert flops.fc_total / flops.total > 0.8

    def test_attention_flops_scale_with_kv_length(self):
        short = block_flops(GPT2_CONFIGS["m"], 1, 128)
        long = block_flops(GPT2_CONFIGS["m"], 1, 256)
        assert long.attention_scores == pytest.approx(2 * short.attention_scores)
        assert long.fc_total == pytest.approx(short.fc_total)

    def test_summarization_flops_scale_superlinearly_with_tokens(self):
        few = block_flops(GPT2_CONFIGS["m"], 64, 64)
        many = block_flops(GPT2_CONFIGS["m"], 128, 128)
        assert many.total > 2 * few.total


class TestStageFlops:
    def test_generation_needs_far_fewer_flops_than_summarization(self):
        """Sec. 3.1: ~512x fewer FLOPs for one generated token vs 512 inputs."""
        model = GPT2_CONFIGS["xl"]
        summarization = stage_flops(model, StagePass(Stage.SUMMARIZATION, 512, 512))
        generation = stage_flops(model, StagePass(Stage.GENERATION, 1, 513))
        ratio = summarization / generation
        assert 300 <= ratio <= 600

    def test_lm_head_flops(self):
        model = GPT2_CONFIGS["m"]
        assert lm_head_flops(model) == 2 * model.embedding_dim * model.vocab_size

    def test_workload_flops_accumulates_all_passes(self, ianus_system):
        model = GPT2_CONFIGS["m"]
        single = ianus_system.run(model, Workload(32, 1))
        multi = ianus_system.run(model, Workload(32, 4))
        assert multi.summarization.flops == single.summarization.flops
        assert multi.generation.flops > 0 == single.generation.flops
        assert multi.total_flops == multi.summarization.flops + multi.generation.flops
        assert multi.total_flops > single.total_flops

    def test_stage_weight_bytes_counts_all_blocks_and_lm_head(self):
        """The FC weights a generation pass streams: every block's plus the
        LM head's, at BF16."""
        model = GPT2_CONFIGS["m"]
        expected = (
            model.num_blocks * model.fc_params_per_block + model.lm_head_params
        ) * 2
        assert model.fc_param_bytes == expected
