"""Tests for the end-to-end system model (IanusSystem) and multi-device scaling."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.core import IanusSystem, devices_required
from repro.core.system import MAX_SEQUENCE
from repro.core.results import StageResult, merge_breakdowns
from repro.memory.unified import MemoryCapacityError
from repro.models import BERT_CONFIGS, GPT2_CONFIGS, LARGE_GPT_CONFIGS, Workload


class TestInferenceResults:
    def test_result_structure(self, ianus_system, gpt2_m, small_workload):
        result = ianus_system.run(gpt2_m, small_workload)
        assert result.total_latency_s > 0
        assert result.total_latency_ms == pytest.approx(result.total_latency_s * 1e3)
        assert result.summarization.latency_s > 0
        assert result.generation.latency_s > 0
        assert result.total_flops > 0
        assert result.energy.total_j > 0
        assert result.backend == "ianus"

    def test_summarization_only_workload(self, ianus_system, gpt2_m):
        result = ianus_system.run(gpt2_m, Workload(128, 1))
        assert result.generation.latency_s == 0.0
        assert result.generation.num_tokens == 0

    def test_generation_latency_grows_with_output_tokens(self, ianus_system, gpt2_m):
        short = ianus_system.run(gpt2_m, Workload(128, 8))
        long = ianus_system.run(gpt2_m, Workload(128, 64))
        assert long.generation.latency_s > short.generation.latency_s
        assert long.total_latency_s > short.total_latency_s

    def test_summarization_latency_grows_with_input_tokens(self, ianus_system, gpt2_m):
        small = ianus_system.run(gpt2_m, Workload(128, 1))
        large = ianus_system.run(gpt2_m, Workload(512, 1))
        assert large.summarization.latency_s > small.summarization.latency_s

    def test_larger_models_are_slower(self, ianus_system):
        workload = Workload(128, 16)
        small = ianus_system.run(GPT2_CONFIGS["m"], workload)
        big = ianus_system.run(GPT2_CONFIGS["xl"], workload)
        assert big.total_latency_s > small.total_latency_s

    def test_breakdown_tags_present(self, ianus_system, gpt2_m, small_workload):
        result = ianus_system.run(gpt2_m, small_workload)
        breakdown = result.breakdown
        assert "Self-attention" in breakdown
        assert "FFN+Add" in breakdown
        assert all(value >= 0 for value in breakdown.values())

    def test_tokens_per_second_positive(self, ianus_system, gpt2_m):
        result = ianus_system.run(gpt2_m, Workload(128, 32))
        assert result.tokens_per_second > 0

    def test_speedup_over_is_symmetric_inverse(self, ianus_system, npu_mem_system, gpt2_m):
        workload = Workload(64, 16)
        a = ianus_system.run(gpt2_m, workload)
        b = npu_mem_system.run(gpt2_m, workload)
        assert a.speedup_over(b) == pytest.approx(1.0 / b.speedup_over(a))

    def test_bert_runs_without_generation(self, ianus_system):
        result = ianus_system.run(BERT_CONFIGS["base"], Workload(256, 1))
        assert result.generation.latency_s == 0.0
        assert result.total_latency_s > 0

    def test_utilization_bounded(self, ianus_system, gpt2_m):
        result = ianus_system.run(gpt2_m, Workload(256, 1))
        assert 0 < result.utilization(ianus_system.npu_peak_flops) <= 1.0

    def test_invalid_mode_rejected(self, ianus_system, gpt2_m):
        with pytest.raises(ValueError):
            ianus_system.run(gpt2_m, Workload(8, 1), mode="approximate")


class TestFastVsExact:
    @pytest.mark.parametrize("workload", [Workload(64, 16), Workload(128, 32)])
    def test_fast_mode_matches_exact_mode(self, ianus_system, gpt2_m, workload):
        fast = ianus_system.run(gpt2_m, workload, mode="fast")
        exact = ianus_system.run(gpt2_m, workload, mode="exact")
        assert fast.total_latency_s == pytest.approx(exact.total_latency_s, rel=0.02)

    def test_small_outputs_are_simulated_exactly_in_fast_mode(self, ianus_system, gpt2_m):
        fast = ianus_system.run(gpt2_m, Workload(64, 4), mode="fast")
        exact = ianus_system.run(gpt2_m, Workload(64, 4), mode="exact")
        assert fast.total_latency_s == pytest.approx(exact.total_latency_s, rel=1e-9)


class TestCapacityChecks:
    def test_large_model_rejected_on_single_device(self, ianus_system):
        with pytest.raises(MemoryCapacityError):
            ianus_system.run(LARGE_GPT_CONFIGS["6.7b"], Workload(128, 8))

    def test_large_model_accepted_on_enough_devices(self):
        devices = devices_required(LARGE_GPT_CONFIGS["6.7b"], SystemConfig.ianus())
        system = IanusSystem(SystemConfig.ianus(), num_devices=devices)
        result = system.run(LARGE_GPT_CONFIGS["6.7b"], Workload(128, 8))
        assert result.total_latency_s > 0

    def test_devices_required_matches_paper(self):
        config = SystemConfig.ianus()
        assert devices_required(LARGE_GPT_CONFIGS["6.7b"], config) == 2
        assert devices_required(LARGE_GPT_CONFIGS["13b"], config) == 4
        assert devices_required(LARGE_GPT_CONFIGS["30b"], config) == 8

    @pytest.mark.parametrize("key", sorted(LARGE_GPT_CONFIGS))
    def test_devices_required_is_the_fewest_devices_that_fit(self, key):
        """The selection agrees with the system's own capacity check on a
        ``MAX_SEQUENCE``-token request: it fits, and half as many do not."""
        model = LARGE_GPT_CONFIGS[key]
        config = SystemConfig.ianus()
        devices = devices_required(model, config)
        assert devices & (devices - 1) == 0
        workload = Workload(MAX_SEQUENCE - 64, 64)
        IanusSystem(config, num_devices=devices).check_capacity(model, workload)
        with pytest.raises(MemoryCapacityError):
            IanusSystem(config, num_devices=devices // 2).check_capacity(
                model, workload
            )

    def test_gpt2_fits_one_device(self, ianus_system):
        for model in GPT2_CONFIGS.values():
            ianus_system.check_capacity(model, Workload(512, 512))


class TestMultiDevice:
    def test_more_devices_reduce_latency(self):
        model = LARGE_GPT_CONFIGS["6.7b"]
        workload = Workload(256, 16)
        config = SystemConfig.ianus()
        two = IanusSystem(config, num_devices=2).run(model, workload)
        four = IanusSystem(config, num_devices=4).run(model, workload)
        eight = IanusSystem(config, num_devices=8).run(model, workload)
        assert four.total_latency_s < two.total_latency_s
        assert eight.total_latency_s < four.total_latency_s

    def test_scaling_is_sublinear(self):
        """Sec. 7.1: communication overhead prevents linear speedup."""
        model = LARGE_GPT_CONFIGS["6.7b"]
        workload = Workload(256, 16)
        config = SystemConfig.ianus()
        two = IanusSystem(config, num_devices=2).run(model, workload)
        eight = IanusSystem(config, num_devices=8).run(model, workload)
        assert two.total_latency_s / eight.total_latency_s < 4.0

    def test_strong_scaling_points(self):
        """Fig. 18's sweep: one cell per device count, each the tensor-parallel
        ``IanusSystem`` running GPT 6.7B at (256, 64)."""
        from repro.experiments.fig18_strong_scaling import WORKLOAD, sweep

        grid = sweep()
        assert [cell.params["devices"] for cell in grid.cells] == [2, 4, 8]
        two = grid.run_cell_by_id("devices/2")
        four = grid.run_cell_by_id("devices/4")
        assert four["tokens_per_second"] > two["tokens_per_second"]
        direct = IanusSystem(SystemConfig.ianus(), num_devices=2).run(
            LARGE_GPT_CONFIGS["6.7b"], WORKLOAD
        )
        assert two["tokens_per_second"] == direct.tokens_per_second

    @pytest.mark.parametrize("devices", (1, 2, 8))
    def test_device_count_scales_name_tdp_and_peak(self, devices):
        config = SystemConfig.ianus()
        system = IanusSystem(config, num_devices=devices)
        assert system.name == ("ianus" if devices == 1 else f"ianus x{devices}")
        assert system.tdp_w == devices * config.tdp_w
        assert system.npu_peak_flops == devices * config.peak_npu_flops

    def test_cluster_naming_and_tdp(self):
        cluster = IanusSystem(SystemConfig.ianus(), num_devices=4)
        assert cluster.name == "ianus x4"
        assert cluster.tdp_w == pytest.approx(480.0)

    def test_invalid_device_count_rejected(self):
        with pytest.raises(ValueError):
            IanusSystem(SystemConfig.ianus(), num_devices=0)


class TestStageResultHelpers:
    def test_merge_breakdowns(self):
        merged = merge_breakdowns({"a": 1.0, "b": 2.0}, {"b": 3.0, "c": 4.0})
        assert merged == {"a": 1.0, "b": 5.0, "c": 4.0}

    def test_per_token_latency(self):
        stage = StageResult(latency_s=1.0, num_tokens=4)
        assert stage.latency_per_token_ms == pytest.approx(250.0)
        empty = StageResult(latency_s=1.0, num_tokens=0)
        assert empty.latency_per_token_ms == 0.0
