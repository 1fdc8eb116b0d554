"""Tests for the NPU substrate's timing models: matrix unit, vector unit, DMA
and the core facade, plus Table 1's scratch-pad capacities."""

from __future__ import annotations

import pytest

from repro.config import (
    DmaConfig,
    MatrixUnitConfig,
    NpuCoreConfig,
    ScratchpadConfig,
    VectorUnitConfig,
)
from repro.npu import DmaModel, MatrixUnitModel, NpuCoreModel, VectorUnitModel


class TestMatrixUnitModel:
    @pytest.fixture
    def mu(self) -> MatrixUnitModel:
        return MatrixUnitModel(MatrixUnitConfig())

    def test_zero_work_takes_zero_time(self, mu):
        assert mu.matmul_time(0, 128, 128) == 0.0
        assert mu.matmul_time(1, 0, 128) == 0.0

    def test_latency_flat_up_to_128_tokens(self, mu):
        """The MU processes up to 128 tokens in parallel (Sec. 6.2)."""
        t4 = mu.matmul_time(4, 1024, 1024)
        t16 = mu.matmul_time(16, 1024, 1024)
        t128 = mu.matmul_time(128, 1024, 1024)
        assert t4 == pytest.approx(t16)
        assert t16 == pytest.approx(t128)

    def test_latency_doubles_beyond_128_tokens(self, mu):
        assert mu.matmul_time(256, 1024, 1024) == pytest.approx(
            2 * mu.matmul_time(128, 1024, 1024)
        )

    def test_latency_scales_with_output_columns(self, mu):
        assert mu.matmul_time(8, 1024, 2048) == pytest.approx(
            2 * mu.matmul_time(8, 1024, 1024)
        )

    def test_utilization_bounded_by_one(self, mu):
        estimate = mu.estimate(128, 4096, 4096)
        assert 0 < estimate.utilization <= 1.0

    def test_large_matmul_approaches_peak(self, mu):
        estimate = mu.estimate(128, 8192, 4096)
        assert estimate.utilization > 0.7

    def test_tiny_matmul_has_low_utilization(self, mu):
        estimate = mu.estimate(1, 64, 64)
        assert estimate.utilization < 0.1

    def test_pipelined_fc_bounded_below_by_compute_and_load(self, mu):
        compute = mu.matmul_time(128, 1024, 1024)
        load = 2 * compute
        pipelined = mu.pipelined_fc_time(128, 1024, 1024, load)
        assert pipelined >= load
        assert pipelined <= load + compute

    def test_attention_wrappers_match_matmul(self, mu):
        assert mu.attention_score_time(1, 256, 64) == mu.matmul_time(1, 64, 256)
        assert mu.attention_context_time(1, 256, 64) == mu.matmul_time(1, 256, 64)


class TestVectorUnitModel:
    @pytest.fixture
    def vu(self) -> VectorUnitModel:
        return VectorUnitModel(VectorUnitConfig())

    def test_zero_elements_take_zero_time(self, vu):
        assert vu.elementwise_time(0) == 0.0

    def test_layernorm_scales_with_elements(self, vu):
        assert vu.layernorm_time(8, 4096) > vu.layernorm_time(1, 4096)

    def test_layernorm_two_phase_costs_more_than_single_pass(self, vu):
        single_pass = vu.elementwise_time(1024, 3.5)
        assert vu.layernorm_time(1, 1024) > single_pass

    def test_softmax_scales_with_kv_length(self, vu):
        assert vu.softmax_time(1, 2048) > vu.softmax_time(1, 128)

    def test_kernel_overhead_dominates_tiny_kernels(self, vu):
        tiny = vu.residual_add_time(1, 64)
        assert tiny >= VectorUnitConfig().kernel_overhead_cycles / VectorUnitConfig().frequency_hz

    def test_estimate_reports_flops(self, vu):
        estimate = vu.estimate(1024, 2.0)
        assert estimate.flops == pytest.approx(2048.0)
        assert estimate.seconds > 0


class TestScratchpad:
    def test_capacities_match_table1(self):
        config = ScratchpadConfig()
        assert config.activation_bytes == 12 * 1024**2
        assert config.weight_bytes == 4 * 1024**2


class TestDmaModel:
    def test_offchip_time_includes_latency_and_bandwidth(self):
        dma = DmaModel(DmaConfig(), offchip_bandwidth=64e9)
        one_mb = dma.offchip_time(2**20)
        assert one_mb == pytest.approx(DmaConfig().offchip_latency_s + 2**20 / 64e9)

    def test_zero_bytes_is_free(self):
        dma = DmaModel(DmaConfig(), offchip_bandwidth=64e9)
        assert dma.offchip_time(0) == 0.0
        assert dma.onchip_move_time(0) == 0.0

    def test_onchip_faster_than_offchip(self):
        dma = DmaModel(DmaConfig(), offchip_bandwidth=64e9)
        assert dma.onchip_move_time(2**20) < dma.offchip_time(2**20)

    def test_transpose_slightly_slower_than_plain_move(self):
        dma = DmaModel(DmaConfig(), offchip_bandwidth=64e9)
        assert dma.transpose_time(2**20) > dma.onchip_move_time(2**20)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            DmaModel(DmaConfig(), offchip_bandwidth=0)


class TestNpuCoreModel:
    def test_fc_on_mu_time_never_below_compute(self):
        core = NpuCoreModel(NpuCoreConfig(), offchip_bandwidth=64e9)
        compute = core.matrix_unit.matmul_time(128, 1024, 1024)
        with_prefetch = core.fc_on_matrix_unit_time(128, 1024, 1024, prefetch_window_s=1.0)
        assert with_prefetch >= compute

    def test_prefetch_reduces_latency(self):
        core = NpuCoreModel(NpuCoreConfig(), offchip_bandwidth=64e9)
        without = core.fc_on_matrix_unit_time(1, 1024, 1024)
        with_prefetch = core.fc_on_matrix_unit_time(1, 1024, 1024, prefetch_window_s=5e-6)
        assert with_prefetch <= without
