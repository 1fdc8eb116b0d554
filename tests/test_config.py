"""Tests for repro.config: Table 1 and Table 2 parameters and derived values."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    DfxConfig,
    DramTimingConfig,
    FcMappingPolicy,
    GpuConfig,
    MatrixUnitConfig,
    MemoryPolicy,
    PimConfig,
    SchedulingPolicy,
    SystemConfig,
    VectorUnitConfig,
)
from repro.pim import DramBank, TileMapping


class TestMatrixUnitConfig:
    def test_table1_shape(self):
        mu = MatrixUnitConfig()
        assert mu.rows == 128
        assert mu.cols == 64
        assert mu.macs_per_pe == 4
        assert mu.frequency_hz == pytest.approx(700e6)

    def test_peak_flops_is_about_46_tflops(self):
        assert MatrixUnitConfig().peak_flops == pytest.approx(45.9e12, rel=0.02)


class TestVectorUnitConfig:
    def test_table1_shape(self):
        vu = VectorUnitConfig()
        assert vu.num_processors == 16
        assert vu.lanes_per_processor == 4
        assert vu.lanes == 64


class TestDramTiming:
    def test_table1_values(self):
        timing = DramTimingConfig()
        assert timing.tCK == 0.5
        assert timing.tCCD_L == 1.0
        assert timing.tRAS == 21.0
        assert timing.tWR == 36.0
        assert timing.tRP == 30.0
        assert timing.tRCD_RD == 36.0
        assert timing.tRCD_WR == 24.0

    def test_trc_is_tras_plus_trp(self):
        """A bank may activate a new row tRC = tRAS + tRP after the last one."""
        timing = DramTimingConfig()
        bank = DramBank(timing)
        bank.activate(0, 0.0)
        bank.precharge(0.0)
        assert bank.next_activate_ns == timing.tRAS + timing.tRP


class TestPimConfig:
    def test_external_bandwidth_is_256_gbps(self):
        assert PimConfig().external_bandwidth == pytest.approx(256e9)

    def test_channel_external_bandwidth_is_32_gbps(self):
        assert PimConfig().channel_external_bandwidth == pytest.approx(32e9)

    def test_internal_bandwidth_is_4096_gbps(self):
        assert PimConfig().internal_bandwidth == pytest.approx(4096e9)

    def test_capacity_is_8_gib(self):
        assert PimConfig().capacity_bytes == 8 * 1024**3

    def test_row_holds_1024_bf16_elements(self):
        assert PimConfig().row_elements == 1024

    def test_tile_covers_128_rows(self):
        """Fig. 4: a tile is one row of every bank of every channel."""
        pim = PimConfig()
        mapping = TileMapping(pim, out_features=1024, in_features=1024)
        assert mapping.tile_rows == 128
        assert mapping.tile_rows * mapping.tile_cols * 2 == 128 * 2048

    def test_four_chips_of_two_channels(self):
        pim = PimConfig()
        assert pim.num_chips == 4
        assert pim.channels_per_chip == 2


class TestSystemConfig:
    def test_ianus_defaults(self):
        config = SystemConfig.ianus()
        assert config.num_cores == 4
        assert config.num_pim_controllers == 8
        assert config.pim_compute_enabled
        assert config.memory_policy is MemoryPolicy.UNIFIED
        assert config.scheduling is SchedulingPolicy.PAS
        assert config.fc_mapping is FcMappingPolicy.ADAPTIVE

    def test_peak_npu_flops_is_about_184_tflops(self):
        assert SystemConfig.ianus().peak_npu_flops == pytest.approx(184e12, rel=0.01)

    def test_npu_mem_disables_pim(self):
        config = SystemConfig.npu_mem()
        assert not config.pim_compute_enabled
        assert config.fc_mapping is FcMappingPolicy.MATRIX_UNIT

    def test_partitioned_halves_visible_capacity(self):
        unified = SystemConfig.ianus()
        partitioned = SystemConfig.partitioned()
        assert partitioned.npu_visible_capacity_bytes == unified.npu_visible_capacity_bytes // 2

    def test_partitioned_halves_offchip_bandwidth(self):
        assert SystemConfig.partitioned().offchip_bandwidth == pytest.approx(
            SystemConfig.ianus().offchip_bandwidth / 2
        )

    def test_partitioned_halves_pim_compute(self):
        unified = SystemConfig.ianus()
        partitioned = SystemConfig.partitioned()
        assert partitioned.pim_compute_channels == unified.pim_compute_channels // 2

    def test_variant_replaces_fields(self):
        config = SystemConfig.ianus().variant(num_cores=2, name="half")
        assert config.num_cores == 2
        assert config.name == "half"
        # original untouched
        assert SystemConfig.ianus().num_cores == 4

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SystemConfig.ianus().num_cores = 8

    def test_pim_compute_channels(self):
        assert SystemConfig.ianus().pim_compute_channels == 8
        assert SystemConfig.ianus(pim_compute_chips=1).pim_compute_channels == 2
        assert SystemConfig.npu_mem().pim_compute_channels == 0

    def test_tdp_default_is_120w(self):
        assert SystemConfig.ianus().tdp_w == 120.0


class TestEnergyConfig:
    def test_pim_op_cheaper_than_normal_read_per_bit(self):
        energy = SystemConfig.ianus().energy
        assert energy.pim_op_pj_per_bit < energy.dram_read_pj_per_bit

    def test_pim_op_is_three_times_array_read(self):
        energy = SystemConfig.ianus().energy
        assert energy.pim_op_pj_per_bit == pytest.approx(
            3.0 * energy.dram_array_read_pj_per_bit
        )


class TestBaselineConfigs:
    def test_gpu_table2_values(self):
        gpu = GpuConfig()
        assert gpu.peak_flops == pytest.approx(255e12)
        assert gpu.memory_bandwidth == pytest.approx(2039e9)
        assert gpu.memory_capacity_bytes == 80 * 1024**3
        assert gpu.tdp_w == 400.0

    def test_dfx_table2_values(self):
        dfx = DfxConfig()
        assert dfx.num_fpgas == 4
        assert dfx.peak_flops == pytest.approx(1.64e12)
        assert dfx.memory_bandwidth == pytest.approx(1840e9)
        assert dfx.memory_capacity_bytes == 32 * 1024**3
