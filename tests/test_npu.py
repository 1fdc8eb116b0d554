"""Tests for the NPU substrate's timing models: matrix unit, vector unit, DMA
and the core facade, plus Table 1's scratch-pad capacities."""

from __future__ import annotations

import pytest

from repro.config import (
    DmaConfig,
    MatrixUnitConfig,
    NpuCoreConfig,
    ScratchpadConfig,
    SystemConfig,
    VectorUnitConfig,
)
from repro.core import IanusSystem
from repro.ir import OpKind, Unit
from repro.models import GPT2_CONFIGS
from repro.models.workload import Stage, StagePass
from repro.npu import DmaModel, MatrixUnitModel, NpuCoreModel, VectorUnitModel


def _utilization(mu: MatrixUnitModel, tokens: int, d_in: int, d_out: int) -> float:
    """Achieved fraction of the matrix unit's peak on one matmul."""
    flops = 2.0 * tokens * d_in * d_out
    return flops / (mu.matmul_time(tokens, d_in, d_out) * mu.config.peak_flops)


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
        assert 0 < _utilization(mu, 128, 4096, 4096) <= 1.0

    def test_large_matmul_approaches_peak(self, mu):
        assert _utilization(mu, 128, 8192, 4096) > 0.7

    def test_tiny_matmul_has_low_utilization(self, mu):
        assert _utilization(mu, 1, 64, 64) < 0.1

    def test_attention_wrappers_match_matmul(self):
        """A summarization block's QK^T is an (n, head_dim) x (head_dim, kv)
        matmul and its SV an (n, kv) x (kv, head_dim) one, each priced by
        the matrix unit as such."""
        system = IanusSystem(SystemConfig.ianus())
        model = GPT2_CONFIGS["m"]
        stream = system.compiler.compile_block(
            model, StagePass(Stage.SUMMARIZATION, num_tokens=64, kv_length=64)
        ).stream
        shapes = {
            OpKind.QKT: (64, model.head_dim, 64),
            OpKind.SV: (64, 64, model.head_dim),
        }
        matrix_unit = system.durations.npu.matrix_unit
        seen = set()
        for command in stream:
            if command.unit is Unit.MATRIX_UNIT and command.kind in shapes:
                assert command.dims == shapes[command.kind]
                assert system.durations.duration(command) == matrix_unit.matmul_time(
                    *shapes[command.kind]
                )
                seen.add(command.kind)
        assert seen == set(shapes)

    def test_pipelined_fc_bounded_below_by_compute_and_load(self, mu):
        compute = mu.matmul_time(128, 1024, 1024)
        load = 2 * compute
        pipelined = mu.pipelined_fc_time(128, 1024, 1024, load)
        assert pipelined >= load
        assert pipelined <= load + compute


class TestVectorUnitModel:
    @pytest.fixture
    def vu(self) -> VectorUnitModel:
        return VectorUnitModel(VectorUnitConfig())

    def test_zero_elements_take_zero_time(self, vu):
        assert vu.elementwise_time(0) == 0.0

    def test_elementwise_kernels_take_one_op_per_element(self, vu):
        """The residual add (and the embedding) do one operation per
        element in one pass; GELU does several."""
        assert vu.elementwise_time(64 * 1024) == vu.residual_add_time(64, 1024)
        assert vu.elementwise_time(64 * 1024) < vu.gelu_time(64, 1024)

    def test_layernorm_scales_with_elements(self, vu):
        assert vu.layernorm_time(8, 4096) > vu.layernorm_time(1, 4096)

    def test_layernorm_two_phase_costs_more_than_single_pass(self, vu):
        single_pass = vu._to_seconds(vu._kernel_cycles(1024, 3.5))
        assert vu.layernorm_time(1, 1024) == pytest.approx(2 * single_pass)

    def test_softmax_scales_with_kv_length(self, vu):
        assert vu.softmax_time(1, 2048) > vu.softmax_time(1, 128)

    def test_kernel_overhead_dominates_tiny_kernels(self, vu):
        tiny = vu.residual_add_time(1, 64)
        assert tiny >= VectorUnitConfig().kernel_overhead_cycles / VectorUnitConfig().frequency_hz


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
