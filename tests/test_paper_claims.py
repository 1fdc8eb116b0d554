"""Integration tests: the paper's qualitative and quantitative claims.

These tests assert the *shape* of the paper's results — who wins, by roughly
what factor, and where crossovers fall — rather than exact latencies, since
the substrate here is an analytical/command-level simulator rather than the
authors' validated in-house simulator and hardware.
"""

from __future__ import annotations

import pytest

from repro.baselines import A100Gpu, DfxAppliance, NpuMemSystem
from repro.config import (
    AttentionMappingPolicy,
    SchedulingPolicy,
    SystemConfig,
)
from repro.core import IanusSystem
from repro.models import BERT_CONFIGS, GPT2_CONFIGS, LARGE_GPT_CONFIGS, Workload


@pytest.fixture(scope="module")
def gpu():
    return A100Gpu()


@pytest.fixture(scope="module")
def ianus():
    return IanusSystem(SystemConfig.ianus())


@pytest.fixture(scope="module")
def npu_mem():
    return NpuMemSystem()


class TestHeadlineSpeedups:
    def test_ianus_beats_gpu_on_every_gpt2_workload(self, gpu, ianus):
        """Fig. 8: IANUS wins every (model, input, output) configuration."""
        for model in GPT2_CONFIGS.values():
            for workload in (Workload(128, 8), Workload(256, 64), Workload(512, 512)):
                gpu_latency = gpu.run(model, workload).total_latency_s
                ianus_latency = ianus.run(model, workload).total_latency_s
                assert ianus_latency < gpu_latency

    def test_average_speedup_over_gpu_is_several_fold(self, gpu, ianus):
        """Fig. 8: ~6.2x average speedup over the A100."""
        speedups = []
        for key in ("m", "xl"):
            model = GPT2_CONFIGS[key]
            for workload in (Workload(128, 64), Workload(256, 512)):
                speedups.append(
                    gpu.run(model, workload).total_latency_s
                    / ianus.run(model, workload).total_latency_s
                )
        average = sum(speedups) / len(speedups)
        assert 3.0 <= average <= 15.0

    def test_speedup_larger_for_smaller_models(self, gpu, ianus):
        """Fig. 8: GPT-2 M gains more than GPT-2 2.5B."""
        workload = Workload(256, 64)

        def speedup(key):
            model = GPT2_CONFIGS[key]
            return (
                gpu.run(model, workload).total_latency_s
                / ianus.run(model, workload).total_latency_s
            )

        assert speedup("m") > speedup("2.5b")

    def test_generation_heavy_workloads_gain_most(self, gpu, ianus):
        """Fig. 8: (128,512) shows the largest speedups."""
        model = GPT2_CONFIGS["m"]

        def speedup(workload):
            return (
                gpu.run(model, workload).total_latency_s
                / ianus.run(model, workload).total_latency_s
            )

        assert speedup(Workload(128, 512)) > speedup(Workload(512, 1))

    def test_ianus_beats_npu_mem_on_generation_by_3x_to_6x(self, ianus, npu_mem):
        """Fig. 10: 3.6x / 4.0x generation-stage speedup for GPT-2 L / XL."""
        for key in ("l", "xl"):
            model = GPT2_CONFIGS[key]
            workload = Workload(128, 128)
            ratio = (
                npu_mem.run(model, workload).generation.latency_s
                / ianus.run(model, workload).generation.latency_s
            )
            assert 2.5 <= ratio <= 8.0

    def test_ianus_close_to_npu_mem_for_summarization_only(self, ianus, npu_mem):
        """Fig. 9: for (128,1) the PIM behaves as plain memory (except LM head)."""
        model = GPT2_CONFIGS["xl"]
        ratio = (
            npu_mem.run(model, Workload(128, 1)).total_latency_s
            / ianus.run(model, Workload(128, 1)).total_latency_s
        )
        assert 0.9 <= ratio <= 1.3

    def test_ianus_beats_dfx_overall(self, ianus):
        """Fig. 9: ~3.2x average (total-latency ratio) over DFX."""
        dfx = DfxAppliance()
        model = GPT2_CONFIGS["xl"]
        workloads = [Workload(i, o) for i in (32, 64, 128) for o in (1, 16, 256)]
        dfx_total = sum(dfx.run(model, w).total_latency_s for w in workloads)
        ianus_total = sum(ianus.run(model, w).total_latency_s for w in workloads)
        assert 2.0 <= dfx_total / ianus_total <= 8.0

    def test_dfx_much_worse_on_summarization_only(self, ianus):
        """Fig. 9: ~49x for (128,1), where DFX's low FLOPS dominates."""
        dfx = DfxAppliance()
        model = GPT2_CONFIGS["xl"]
        ratio = (
            dfx.run(model, Workload(128, 1)).total_latency_s
            / ianus.run(model, Workload(128, 1)).total_latency_s
        )
        assert ratio > 10.0


class TestMemorySystemClaims:
    def test_unified_beats_partitioned(self, ianus):
        """Fig. 13: the unified system outperforms the scheduled partitioned one."""
        partitioned = IanusSystem(SystemConfig.partitioned())
        workload = Workload(256, 128)
        for key in ("m", "xl"):
            model = GPT2_CONFIGS[key]
            assert (
                ianus.run(model, workload).total_latency_s
                < partitioned.run(model, workload).total_latency_s
            )

    def test_partitioned_penalty_larger_for_2_5b(self, ianus):
        """Fig. 13: 2.5B suffers extra from non-duplicated FC parameters."""
        partitioned = IanusSystem(SystemConfig.partitioned())
        workload = Workload(256, 128)

        def gain(key):
            model = GPT2_CONFIGS[key]
            return (
                partitioned.run(model, workload).total_latency_s
                / ianus.run(model, workload).total_latency_s
            )

        assert gain("2.5b") > gain("m")

    def test_pas_scheduling_beats_naive(self, ianus):
        """Fig. 13: unified-memory-aware scheduling gains ~34% on average."""
        naive = IanusSystem(SystemConfig.ianus(scheduling=SchedulingPolicy.NAIVE))
        workload = Workload(256, 128)
        model = GPT2_CONFIGS["xl"]
        ratio = (
            naive.run(model, workload).total_latency_s
            / ianus.run(model, workload).total_latency_s
        )
        assert ratio > 1.05

    def test_mu_attention_mapping_beats_pim_mapping(self, ianus):
        """Fig. 13 / Sec. 5.3: QK^T and SV belong on the matrix unit."""
        pim_mapped = IanusSystem(
            SystemConfig.ianus(attention_mapping=AttentionMappingPolicy.PIM)
        )
        workload = Workload(256, 128)
        model = GPT2_CONFIGS["xl"]
        assert (
            ianus.run(model, workload).total_latency_s
            < pim_mapped.run(model, workload).total_latency_s
        )


class TestBertClaims:
    def test_ianus_beats_gpu_throughput_on_small_bert(self, gpu, ianus):
        """Fig. 14: 3.1x / 2.0x higher throughput for BERT-B / BERT-L."""
        for key in ("base", "large"):
            model = BERT_CONFIGS[key]
            workload = Workload(256, 1)
            assert (
                ianus.run(model, workload).total_latency_s
                < gpu.run(model, workload).total_latency_s
            )

    def test_gpu_overtakes_on_largest_bert(self, gpu, ianus):
        """Fig. 14: the GPU's higher peak FLOPS wins for BERT-3.9B."""
        model = BERT_CONFIGS["3.9b"]
        workload = Workload(512, 1)
        assert (
            gpu.run(model, workload).total_latency_s
            < ianus.run(model, workload).total_latency_s
        )

    def test_ianus_utilization_higher_than_gpu(self, gpu, ianus):
        """Fig. 14: IANUS sustains higher compute utilisation on every BERT."""
        for model in BERT_CONFIGS.values():
            workload = Workload(256, 1)
            gpu_util = gpu.run(model, workload).utilization(gpu.peak_flops)
            ianus_util = ianus.run(model, workload).utilization(ianus.npu_peak_flops)
            assert ianus_util >= gpu_util


class TestScalabilityClaims:
    def test_multi_ianus_beats_single_gpu_on_large_llms(self, gpu):
        """Fig. 17: 2/4/8 IANUS devices beat one A100 on 6.7B/13B/30B."""
        config = SystemConfig.ianus()
        for key, devices in (("6.7b", 2), ("13b", 4), ("30b", 8)):
            model = LARGE_GPT_CONFIGS[key]
            workload = Workload(256, 16)
            cluster = IanusSystem(config, num_devices=devices)
            assert (
                cluster.run(model, workload).total_latency_s
                < gpu.run(model, workload).total_latency_s
            )

    def test_strong_scaling_monotone_but_sublinear(self):
        """Fig. 18: more devices help, but not linearly."""
        tokens_per_second = [
            IanusSystem(SystemConfig.ianus(), num_devices=devices)
            .run(LARGE_GPT_CONFIGS["6.7b"], Workload(256, 16))
            .tokens_per_second
            for devices in (2, 4, 8)
        ]
        assert tokens_per_second[0] < tokens_per_second[1] < tokens_per_second[2]
        assert tokens_per_second[2] < 4 * tokens_per_second[0]

    def test_cost_efficiency_beats_gpu_and_decreases_with_devices(self, gpu):
        """Sec. 7.2: perf/TDP beats the A100 but shrinks as devices grow."""
        config = SystemConfig.ianus()
        workload = Workload(256, 16)
        improvements = []
        for key, devices in (("6.7b", 2), ("30b", 8)):
            model = LARGE_GPT_CONFIGS[key]
            cluster = IanusSystem(config, num_devices=devices)
            gpu_result = gpu.run(model, workload)
            ianus_result = cluster.run(model, workload)
            gpu_perf_per_watt = 1.0 / (gpu_result.total_latency_s * gpu.tdp_w)
            ianus_perf_per_watt = 1.0 / (ianus_result.total_latency_s * cluster.tdp_w)
            improvements.append(ianus_perf_per_watt / gpu_perf_per_watt)
        assert all(improvement > 1.0 for improvement in improvements)
        assert improvements[0] > improvements[1]


class TestSensitivityClaims:
    def test_fewer_cores_hurt_summarization_more_than_fewer_pims(self):
        """Fig. 15: the summarization-only case depends on NPU cores, not PIM."""
        model = GPT2_CONFIGS["l"]
        workload = Workload(256, 1)
        baseline = IanusSystem(SystemConfig.ianus()).run(model, workload).total_latency_s
        one_core = IanusSystem(SystemConfig.ianus(num_cores=1)).run(model, workload)
        one_pim = IanusSystem(SystemConfig.ianus(pim_compute_chips=1)).run(model, workload)
        core_slowdown = one_core.total_latency_s / baseline
        pim_slowdown = one_pim.total_latency_s / baseline
        assert core_slowdown > 1.5
        assert pim_slowdown < 1.2

    def test_fewer_pims_hurt_generation(self):
        """Fig. 15: PIM capability matters for generation-dominant workloads."""
        model = GPT2_CONFIGS["l"]
        workload = Workload(256, 128)
        baseline = IanusSystem(SystemConfig.ianus()).run(model, workload).total_latency_s
        one_pim = IanusSystem(SystemConfig.ianus(pim_compute_chips=1)).run(model, workload)
        assert one_pim.total_latency_s / baseline > 1.4
