"""Tests for the adaptive FC mapping (Algorithm 1) and weight partitioning."""

from __future__ import annotations

import pytest

from repro.compiler import AdaptiveMapper, WeightPartitioner
from repro.config import FcMappingPolicy, SystemConfig
from repro.models import GPT2_CONFIGS
from repro.scheduling.durations import DurationModel


@pytest.fixture(scope="module")
def mapper() -> AdaptiveMapper:
    config = SystemConfig.ianus()
    return AdaptiveMapper(config, DurationModel(config))


class TestAlgorithm1:
    def test_single_token_fc_maps_to_pim(self, mapper):
        """Generation-stage FCs (one token) are memory bound: PIM wins."""
        decision = mapper.estimate(1, 1536, 1536)
        assert decision.unit is FcMappingPolicy.PIM
        assert decision.pim_time < decision.matrix_unit_time

    def test_many_token_fc_maps_to_matrix_unit(self, mapper):
        """Summarization-stage FCs (hundreds of tokens) are compute bound."""
        decision = mapper.estimate(256, 1536, 1536)
        assert decision.unit is FcMappingPolicy.MATRIX_UNIT

    def test_pim_time_scales_linearly_with_tokens(self, mapper):
        one = mapper.estimate(1, 1024, 1024).pim_time
        eight = mapper.estimate(8, 1024, 1024).pim_time
        assert eight == pytest.approx(8 * one, rel=0.01)

    def test_matrix_unit_time_flat_for_small_token_counts(self, mapper):
        """Fig. 12: the MU performs the same across 4, 8 and 16 tokens."""
        times = [mapper.estimate(n, 1024, 1024).matrix_unit_time for n in (4, 8, 16)]
        assert max(times) == pytest.approx(min(times), rel=0.02)

    def test_crossover_exists_between_1_and_256_tokens(self, mapper):
        on_pim = mapper.estimate(1, 1536, 6144).unit
        on_mu = mapper.estimate(256, 1536, 6144).unit
        assert on_pim is FcMappingPolicy.PIM
        assert on_mu is FcMappingPolicy.MATRIX_UNIT

    def test_aligned_embedding_favours_pim_at_small_token_counts(self, mapper):
        """Fig. 12: d=1024 (GPT-2 M) still favours PIM for a few tokens."""
        aligned = mapper.estimate(4, 1024, 1024, mu_cols=256)
        assert aligned.unit is FcMappingPolicy.PIM

    def test_aligned_embedding_better_pim_efficiency_than_ragged(self, mapper):
        """Fig. 12 discussion: multiples of 1024 utilise the PIM fully."""
        aligned = mapper.estimate(1, 1024, 1024)
        ragged = mapper.estimate(1, 1280, 1280)
        aligned_bandwidth = (1024 * 1024 * 2) / aligned.pim_time
        ragged_bandwidth = (1280 * 1280 * 2) / ragged.pim_time
        assert aligned_bandwidth > ragged_bandwidth

    def test_prefetch_window_reduces_mu_time(self, mapper):
        without = mapper.estimate(1, 1536, 1536).matrix_unit_time
        with_prefetch = mapper.estimate(
            1, 1536, 1536, prefetch_window_s=5e-6
        ).matrix_unit_time
        assert with_prefetch <= without

    def test_speedup_over_alternative_at_least_one(self, mapper):
        decision = mapper.estimate(1, 1536, 1536)
        on_pim = decision.unit is FcMappingPolicy.PIM
        chosen = decision.pim_time if on_pim else decision.matrix_unit_time
        other = decision.matrix_unit_time if on_pim else decision.pim_time
        assert other / chosen >= 1.0

    def test_pim_cols_reduce_pim_time(self, mapper):
        full = mapper.estimate(1, 4096, 16384).pim_time
        sliced = mapper.estimate(1, 4096, 16384, pim_cols=2048).pim_time
        assert sliced < full


class TestMappingPolicies:
    def test_adaptive_policy_returns_estimate(self):
        config = SystemConfig.ianus()
        mapper = AdaptiveMapper(config, DurationModel(config))
        assert mapper.choose(1, 1024, 1024).unit is FcMappingPolicy.PIM

    def test_static_mu_policy_forces_matrix_unit(self):
        config = SystemConfig.ianus(fc_mapping=FcMappingPolicy.MATRIX_UNIT)
        mapper = AdaptiveMapper(config, DurationModel(config))
        assert mapper.choose(1, 1024, 1024).unit is FcMappingPolicy.MATRIX_UNIT

    def test_static_pim_policy_forces_pim(self):
        config = SystemConfig.ianus(fc_mapping=FcMappingPolicy.PIM)
        mapper = AdaptiveMapper(config, DurationModel(config))
        assert mapper.choose(512, 1024, 1024).unit is FcMappingPolicy.PIM

    def test_npu_mem_always_maps_to_matrix_unit(self):
        config = SystemConfig.npu_mem()
        mapper = AdaptiveMapper(config, DurationModel(config))
        assert mapper.choose(1, 1536, 1536).unit is FcMappingPolicy.MATRIX_UNIT


class TestWeightPartitioner:
    def test_heads_divide_across_cores(self):
        partition = WeightPartitioner(SystemConfig.ianus(), GPT2_CONFIGS["xl"]).partition()
        assert partition.heads_on_core == 6  # 24 heads over 4 cores

    def test_columns_divide_across_cores(self):
        model = GPT2_CONFIGS["m"]
        partition = WeightPartitioner(SystemConfig.ianus(), model).partition()
        assert partition.projection_cols_per_core == model.embedding_dim // 4
        assert partition.ffn1_cols_per_core == model.ffn_dim // 4

    def test_multi_device_divides_further(self):
        model = GPT2_CONFIGS["xl"]
        single = WeightPartitioner(SystemConfig.ianus(), model, num_devices=1).partition()
        dual = WeightPartitioner(SystemConfig.ianus(), model, num_devices=2).partition()
        assert dual.heads_on_core == single.heads_on_core // 2
        assert dual.projection_cols_per_core == single.projection_cols_per_core // 2

    def test_invalid_device_count_rejected(self):
        with pytest.raises(ValueError):
            WeightPartitioner(SystemConfig.ianus(), GPT2_CONFIGS["m"], num_devices=0)
