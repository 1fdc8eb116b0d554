"""Tests for the dynamic energy model (Fig. 11)."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.config import EnergyConfig, SystemConfig
from repro.energy import EnergyBreakdown, EnergyModel
from repro.models import GPT2_CONFIGS, Workload
from repro.scheduling.events import ActivityStats


@pytest.fixture
def energy_model() -> EnergyModel:
    return EnergyModel(EnergyConfig())


class TestEnergyBreakdown:
    def test_total_is_sum_of_components(self):
        breakdown = EnergyBreakdown(1.0, 2.0, 3.0)
        assert breakdown.total_j == pytest.approx(6.0)
        assert breakdown.total_mj == pytest.approx(6000.0)

    def test_addition(self):
        a = EnergyBreakdown(1.0, 2.0, 3.0)
        b = EnergyBreakdown(0.5, 0.5, 0.5)
        combined = a + b
        assert combined.normal_memory_j == pytest.approx(1.5)
        assert combined.total_j == pytest.approx(7.5)

    def test_addition_and_scaling(self, energy_model):
        """Energy is linear in activity: the generation stage adds its
        passes' activity statistics field by field into running totals,
        scaling the sampled passes' in fast mode, and prices the totals."""
        a = ActivityStats(offchip_read_bytes=3 * 10**6, pim_weight_bytes=10**7,
                          matrix_unit_flops=2e9)
        b = ActivityStats(onchip_bytes=5 * 10**6, vector_unit_flops=4e8)
        merged = energy_model.from_stats(ActivityStats(**{
            field.name: getattr(a, field.name) + getattr(b, field.name)
            for field in fields(ActivityStats)
        }))
        summed = energy_model.from_stats(a) + energy_model.from_stats(b)
        assert merged.total_j == pytest.approx(summed.total_j)
        scaled = energy_model.from_stats(a.scaled(2.5))
        assert scaled.total_j == pytest.approx(2.5 * energy_model.from_stats(a).total_j)


class TestEnergyModel:
    def test_zero_activity_zero_energy(self, energy_model):
        assert energy_model.from_stats(ActivityStats()).total_j == 0.0

    def test_normal_reads_cost_more_than_pim_ops_per_byte(self, energy_model):
        read_only = ActivityStats(offchip_read_bytes=10**9)
        pim_only = ActivityStats(pim_weight_bytes=10**9)
        assert (
            energy_model.from_stats(read_only).normal_memory_j
            > energy_model.from_stats(pim_only).pim_op_j
        )

    def test_row_activations_add_pim_energy(self, energy_model):
        without = ActivityStats(pim_weight_bytes=10**6)
        with_activations = ActivityStats(pim_weight_bytes=10**6, pim_row_activations=10**4)
        assert (
            energy_model.from_stats(with_activations).pim_op_j
            > energy_model.from_stats(without).pim_op_j
        )

    def test_core_energy_counts_flops_and_scratchpad_traffic(self, energy_model):
        stats = ActivityStats(matrix_unit_flops=1e9, offchip_read_bytes=10**6)
        breakdown = energy_model.from_stats(stats)
        assert breakdown.npu_cores_j > 0

    def test_writes_slightly_more_expensive_than_reads(self, energy_model):
        read = energy_model.from_stats(ActivityStats(offchip_read_bytes=10**9))
        write = energy_model.from_stats(ActivityStats(offchip_write_bytes=10**9))
        assert write.normal_memory_j > read.normal_memory_j


class TestFig11Properties:
    """End-to-end energy behaviour the paper reports."""

    @pytest.fixture(scope="class")
    def results(self, ianus_system, npu_mem_system):
        workload = Workload(128, 64)
        model = GPT2_CONFIGS["m"]
        return (
            ianus_system.run(model, workload),
            npu_mem_system.run(model, workload),
        )

    def test_ianus_more_energy_efficient_than_npu_mem(self, results):
        ianus, npu_mem = results
        assert npu_mem.energy.total_j / ianus.energy.total_j > 2.0

    def test_ianus_spends_energy_on_pim_ops(self, results):
        ianus, npu_mem = results
        assert ianus.energy.pim_op_j > 0
        assert npu_mem.energy.pim_op_j == 0

    def test_ianus_reduces_normal_memory_energy(self, results):
        ianus, npu_mem = results
        assert npu_mem.energy.normal_memory_j > 5 * ianus.energy.normal_memory_j

    def test_ianus_reduces_core_energy(self, results):
        ianus, npu_mem = results
        assert npu_mem.energy.npu_cores_j > 2 * ianus.energy.npu_cores_j

    def test_energy_grows_with_model_size(self, ianus_system):
        workload = Workload(128, 32)
        small = ianus_system.run(GPT2_CONFIGS["m"], workload).energy.total_j
        large = ianus_system.run(GPT2_CONFIGS["xl"], workload).energy.total_j
        assert large > small

    def test_config_energy_invariant(self):
        config = SystemConfig.ianus().energy
        assert config.pim_op_pj_per_bit < config.dram_read_pj_per_bit
