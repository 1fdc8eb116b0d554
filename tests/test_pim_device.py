"""Tests for PIM commands, the PCU, the memory controller, the device model
and the GELU lookup table of the activation-function unit."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import PimConfig, SystemConfig
from repro.pim import (
    GlobalBuffer,
    MacroKind,
    MacroPimCommand,
    MicroKind,
    PimControlUnit,
    PimDeviceModel,
    PimMemoryController,
    gelu_lookup_table,
    gelu_via_lut,
)
from repro.pim.processing_unit import GELU_LUT_ENTRIES, GELU_LUT_RANGE


@pytest.fixture
def pim() -> PimConfig:
    return PimConfig()


@pytest.fixture
def pcu(pim) -> PimControlUnit:
    return PimControlUnit(pim)


class TestPimControlUnit:
    def test_gemv_macro_decodes_to_per_tile_micro_sequence(self, pcu):
        macro = MacroPimCommand(MacroKind.GEMV, out_features=128, in_features=1024, channels=8)
        decoded = pcu.decode(macro)
        assert decoded.tiles == 1
        kinds = [c.kind for c in decoded.micro_commands]
        assert kinds[0] is MicroKind.WRITE_GLOBAL_BUFFER
        assert MicroKind.ACTIVATE_ALL_BANKS in kinds
        assert MicroKind.MAC_ALL_BANKS in kinds
        assert MicroKind.READ_MAC_RESULT in kinds
        assert kinds[-1] is MicroKind.PRECHARGE_ALL_BANKS

    def test_activations_match_tile_count(self, pcu):
        macro = MacroPimCommand(MacroKind.GEMV, out_features=1024, in_features=2048, channels=8)
        decoded = pcu.decode(macro)
        assert decoded.row_activations == decoded.tiles == 16

    def test_mac_commands_cover_all_columns(self, pcu, pim):
        macro = MacroPimCommand(MacroKind.GEMV, out_features=128, in_features=1024, channels=8)
        decoded = pcu.decode(macro)
        assert decoded.mac_commands == 1024 // pim.elements_per_mac

    def test_fused_gelu_adds_activation_function_commands(self, pcu):
        plain = pcu.decode(
            MacroPimCommand(MacroKind.GEMV, out_features=128, in_features=1024, channels=8)
        )
        fused = pcu.decode(
            MacroPimCommand(
                MacroKind.GEMV_GELU, out_features=128, in_features=1024, channels=8,
                fused_gelu=True,
            )
        )
        assert fused.count(MicroKind.ACTIVATION_FUNCTION) == 1
        assert plain.count(MicroKind.ACTIVATION_FUNCTION) == 0

    def test_elementwise_add_decoding(self, pcu):
        decoded = pcu.decode(
            MacroPimCommand(MacroKind.ELEMENTWISE_ADD, out_features=4096, in_features=1, channels=8)
        )
        assert decoded.tiles == 4
        assert decoded.count(MicroKind.MAC_ALL_BANKS) == 4


class TestPimMemoryController:
    def test_micro_program_elapsed_time_is_positive(self, pim, pcu):
        macro = MacroPimCommand(MacroKind.GEMV, out_features=128, in_features=1024, channels=8)
        decoded = pcu.decode(macro)
        result = PimMemoryController(pim).run_micro_program(decoded.micro_commands)
        assert result.elapsed_ns > 0
        assert result.row_activations == 16  # 16 banks, one tile
        assert result.mac_column_commands == 64

    def test_one_tile_costs_at_least_activation_plus_macs_plus_precharge(self, pim, pcu):
        macro = MacroPimCommand(MacroKind.GEMV, out_features=128, in_features=1024, channels=8)
        decoded = pcu.decode(macro)
        result = PimMemoryController(pim).run_micro_program(decoded.micro_commands)
        timing = pim.timing
        lower_bound = timing.tRCD_RD + 64 * timing.tCCD_L + timing.tRP
        assert result.elapsed_ns >= lower_bound


def _effective_bandwidth(device: PimDeviceModel, out_features: int, in_features: int) -> float:
    """Weight bytes one GEMV streams per second on ``device``."""
    estimate = device.gemv(out_features, in_features)
    return estimate.weight_bytes / estimate.seconds


class TestPimDeviceModel:
    def test_gemv_effective_bandwidth_below_internal_peak(self, pim):
        device = PimDeviceModel(pim)
        assert 0 < _effective_bandwidth(device, 1024, 1024) < pim.internal_bandwidth

    def test_gemv_effective_bandwidth_above_external_bandwidth(self, pim):
        """The whole point of PIM: beat the 256 GB/s external interface."""
        device = PimDeviceModel(pim)
        assert _effective_bandwidth(device, 1536, 1536) > pim.external_bandwidth

    def test_aligned_dimension_more_efficient_than_ragged(self, pim):
        """d=1024 fills DRAM rows; d=1280 does not (Fig. 12 discussion)."""
        device = PimDeviceModel(pim)
        assert _effective_bandwidth(device, 1024, 1024) > _effective_bandwidth(
            device, 1280, 1280
        )

    def test_small_head_dim_gemv_is_inefficient(self, pim):
        """Sec. 5.3: QK^T with head_dim=64 uses 6.25% of a DRAM row."""
        device = PimDeviceModel(pim)
        assert _effective_bandwidth(device, 64, 64) < 0.05 * pim.internal_bandwidth

    def test_repeated_gemv_scales_linearly_with_tokens(self, pim):
        device = PimDeviceModel(pim)
        assert device.repeated_gemv_time(8, 1024, 1024) == pytest.approx(
            8 * device.gemv_time(1024, 1024)
        )

    def test_fused_gelu_adds_little_time(self, pim):
        device = PimDeviceModel(pim)
        plain = device.gemv_time(4096, 1024)
        fused = device.gemv_time(4096, 1024, fused_gelu=True)
        assert plain < fused < plain * 1.1

    def test_fewer_channels_slow_the_gemv(self, pim):
        full = PimDeviceModel(pim, compute_channels=8)
        half = PimDeviceModel(pim, compute_channels=4)
        assert half.gemv_time(2048, 2048) > full.gemv_time(2048, 2048)

    def test_invalid_channel_count_rejected(self, pim):
        with pytest.raises(ValueError):
            PimDeviceModel(pim, compute_channels=0)
        with pytest.raises(ValueError):
            PimDeviceModel(pim, compute_channels=9)

    def test_gemv_runs_on_the_device_compute_channels(self, pim):
        """Each estimate is priced on the device's own channels: the
        partitioned organisation's PIM region, half the channels, tiles a
        matrix into twice as many tiles and takes longer."""
        from repro.scheduling import DurationModel

        half = DurationModel.shared(SystemConfig.partitioned()).pim.compute_channels
        assert half == pim.channels // 2
        full = PimDeviceModel(pim).gemv(1024, 4096)
        halved = PimDeviceModel(pim, compute_channels=half).gemv(1024, 4096)
        assert (full.channels, halved.channels) == (pim.channels, half)
        assert halved.tiles == 2 * full.tiles
        assert halved.seconds > full.seconds

    def test_estimates_are_cached_and_consistent(self, pim):
        device = PimDeviceModel(pim)
        first = device.gemv(1536, 1536)
        second = device.gemv(1536, 1536)
        assert first == second

    def test_ridge_point_matches_gemv_intensity(self, pim):
        """The PIM is balanced for matrix-vector work: its ridge point is the
        one FLOP per byte of a GEMV over BF16 weights, far below the NPU's."""
        peak_flops = pim.channels * pim.banks_per_channel * pim.pu_flops
        ridge = peak_flops / pim.internal_bandwidth
        assert ridge == pytest.approx(1.0)
        npu = SystemConfig.ianus()
        assert ridge < npu.peak_npu_flops / npu.offchip_bandwidth / 10

    def test_macro_command_overhead_is_paid_once_per_macro(self, pim):
        """The NoC delivery of a macro command costs its fixed overhead once
        per GEMV; repeating the GEMV over tokens pays it per token."""
        slower = dataclasses.replace(
            pim, macro_command_overhead_ns=pim.macro_command_overhead_ns + 1000.0
        )
        base, padded = PimDeviceModel(pim), PimDeviceModel(slower)
        assert padded.gemv_time(1024, 1024) - base.gemv_time(1024, 1024) == pytest.approx(1e-6)
        assert padded.repeated_gemv_time(8, 1024, 1024) - base.repeated_gemv_time(
            8, 1024, 1024
        ) == pytest.approx(8e-6)


class TestGeluLookupTable:
    def test_lut_tracks_tanh_gelu_inside_its_range(self):
        xs = np.linspace(-8.0, 8.0, 1001, dtype=np.float32)
        exact = 0.5 * xs * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (xs + 0.044715 * xs**3)))
        assert np.max(np.abs(gelu_via_lut(xs) - exact)) < 1e-2

    def test_lut_is_evenly_spaced_over_its_range(self):
        xs, ys = gelu_lookup_table()
        assert len(xs) == len(ys) == GELU_LUT_ENTRIES
        assert (float(xs[0]), float(xs[-1])) == GELU_LUT_RANGE
        steps = np.diff(xs)
        assert np.allclose(steps, steps[0])

    def test_lut_clamps_outside_its_range(self):
        xs, ys = gelu_lookup_table()
        out = gelu_via_lut(np.array([-100.0, 100.0], dtype=np.float32))
        assert out.tolist() == [ys[0], ys[-1]]


class TestGlobalBuffer:
    def test_global_buffer_capacity_is_one_row(self, pim):
        buffer = GlobalBuffer(pim)
        assert buffer.capacity_elements == 1024

    def test_global_buffer_rejects_oversized_segments(self, pim):
        import numpy as np

        buffer = GlobalBuffer(pim)
        with pytest.raises(ValueError):
            buffer.write(np.zeros(2048, dtype=np.float32))

    def test_global_buffer_read_beyond_valid_rejected(self, pim):
        import numpy as np

        buffer = GlobalBuffer(pim)
        buffer.write(np.ones(100, dtype=np.float32))
        with pytest.raises(ValueError):
            buffer.read(90, 20)
