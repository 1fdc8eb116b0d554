"""Tests for the unified cost-model layer (:mod:`repro.core.costmodel`).

Covers the protocol conformance of all four evaluated backends, the
consistency of per-pass costs with each backend's own ``run``, the routing
of every backend through the shared (and persistent) pass-cost caches, and
the exact-vs-interpolated agreement of the serving pass-cost provider.
"""

from __future__ import annotations

import pytest

from repro.core.costmodel import (
    BACKEND_NAMES,
    CostModel,
    PassCost,
    lerp_pass_cost,
    make_cost_model,
)
from repro.energy.model import EnergyBreakdown
from repro.models import GPT2_CONFIGS, Workload
from repro.models.workload import Stage, StagePass
from repro.perf.cache import (
    DiskCacheFile,
    PassCostCache,
    PersistentPassCostCache,
    global_baseline_cache,
    global_pass_cache,
)
from repro.serving.simulator import KV_SAMPLES, PassCostProvider, anchor_grid

#: The four backends the paper evaluates (the acceptance set of the layer).
EVALUATED_BACKENDS = ("ianus", "npu-mem", "a100", "dfx")

MODEL = GPT2_CONFIGS["m"]
SUMM_PASS = StagePass(Stage.SUMMARIZATION, 128, 128)
GEN_PASS = StagePass(Stage.GENERATION, 1, 160)


class TestProtocolConformance:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_backend_satisfies_the_protocol(self, name):
        backend = make_cost_model(name)
        assert isinstance(backend, CostModel)
        assert isinstance(backend.name, str) and backend.name

    @pytest.mark.parametrize("name", EVALUATED_BACKENDS)
    def test_pass_costs_are_well_formed(self, name):
        backend = make_cost_model(name)
        for stage_pass in (SUMM_PASS, GEN_PASS):
            cost = backend.pass_cost(MODEL, stage_pass)
            assert isinstance(cost, PassCost)
            assert cost.latency_s > 0
            assert cost.flops > 0
            assert cost.energy.total_j > 0
            assert cost.breakdown
            assert all(value >= 0 for value in cost.breakdown.values())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_cost_model("tpu")

    @pytest.mark.parametrize("name", ["a100", "dfx"])
    def test_analytical_baselines_reject_a_device_count(self, name):
        # They model one device; a count they would ignore is an error.
        for devices in (0, 4):
            with pytest.raises(
                ValueError, match=f"num_devices={devices} .* simulator backends"
            ):
                make_cost_model(name, num_devices=devices)
        assert make_cost_model(name, num_devices=1).name == make_cost_model(name).name

    @pytest.mark.parametrize("name", EVALUATED_BACKENDS)
    def test_generation_cost_grows_with_kv_length(self, name):
        backend = make_cost_model(name)
        short = backend.pass_cost(MODEL, StagePass(Stage.GENERATION, 1, 64))
        long = backend.pass_cost(MODEL, StagePass(Stage.GENERATION, 1, 512))
        assert long.latency_s > short.latency_s


class TestConsistencyWithRun:
    """Summing pass costs over a workload reproduces the backend's run."""

    @pytest.mark.parametrize("name", ("ianus", "npu-mem"))
    def test_simulator_backends_match_exact_mode_exactly(self, name):
        backend = make_cost_model(name)
        workload = Workload(64, 8)
        total = sum(
            backend.pass_cost(MODEL, stage_pass).latency_s
            for stage_pass in workload.stages()
        )
        reference = backend.run(MODEL, workload, mode="exact").total_latency_s
        assert total == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("name", ("a100", "dfx"))
    def test_baseline_backends_match_within_integration_tolerance(self, name):
        # The analytical baselines' run() integrates a trapezoid over the KV
        # axis instead of summing every pass; per-pass sums agree within the
        # curvature of the per-token latency, which is small.
        backend = make_cost_model(name)
        workload = Workload(64, 32)
        total = sum(
            backend.pass_cost(MODEL, stage_pass).latency_s
            for stage_pass in workload.stages()
        )
        reference = backend.run(MODEL, workload).total_latency_s
        assert total == pytest.approx(reference, rel=0.02)


class TestCacheRouting:
    def test_simulator_backends_share_the_pass_cache(self):
        assert make_cost_model("ianus").pass_cache is global_pass_cache()
        assert make_cost_model("npu-mem").pass_cache is global_pass_cache()

    def test_baseline_backends_share_the_baseline_cache(self):
        assert make_cost_model("a100").pass_cache is global_baseline_cache()
        assert make_cost_model("dfx").pass_cache is global_baseline_cache()

    @pytest.mark.parametrize("name", EVALUATED_BACKENDS)
    def test_pass_cost_hits_the_cache_on_repeat(self, name):
        from repro.baselines.dfx import DfxAppliance
        from repro.baselines.gpu import A100Gpu
        from repro.baselines.npu_mem import NpuMemSystem
        from repro.config import SystemConfig
        from repro.core.system import IanusSystem

        cache = PassCostCache()
        if name == "ianus":
            backend = IanusSystem(SystemConfig.ianus(), pass_cache=cache)
        elif name == "npu-mem":
            backend = NpuMemSystem(pass_cache=cache)
        elif name == "a100":
            backend = A100Gpu(pass_cache=cache)
        else:
            backend = DfxAppliance(pass_cache=cache)

        first = backend.pass_cost(MODEL, GEN_PASS)
        misses = cache.misses
        assert misses >= 1 and cache.hits == 0
        second = backend.pass_cost(MODEL, GEN_PASS)
        assert cache.hits >= 1 and cache.misses == misses
        assert second.latency_s == first.latency_s
        assert second.flops == first.flops
        stats = backend.cache_stats()
        assert stats["hits"] == cache.hits and stats["misses"] == cache.misses

    def test_pass_cost_survives_a_persistent_cache_roundtrip(self, tmp_path):
        from repro.config import SystemConfig
        from repro.core.system import IanusSystem

        disk = DiskCacheFile(tmp_path)
        warm = PersistentPassCostCache(disk, "ianus")
        system = IanusSystem(SystemConfig.ianus(), pass_cache=warm)
        first = system.pass_cost(MODEL, GEN_PASS)
        assert warm.flush() > 0

        cold = PersistentPassCostCache(disk, "ianus")
        reloaded = IanusSystem(SystemConfig.ianus(), pass_cache=cold)
        second = reloaded.pass_cost(MODEL, GEN_PASS)
        assert cold.disk_loads > 0
        assert cold.hits == 1
        assert second.latency_s == first.latency_s
        assert second.flops == first.flops


class TestLerp:
    def _costs(self):
        low = PassCost(
            latency_s=1.0,
            breakdown={"a": 0.6, "b": 0.4},
            energy=EnergyBreakdown(1.0, 2.0, 3.0),
            flops=100.0,
        )
        high = PassCost(
            latency_s=3.0,
            breakdown={"a": 1.0, "c": 2.0},
            energy=EnergyBreakdown(3.0, 4.0, 5.0),
            flops=300.0,
        )
        return low, high

    def test_endpoints_return_the_inputs(self):
        low, high = self._costs()
        assert lerp_pass_cost(low, high, 0.0) is low
        assert lerp_pass_cost(low, high, 1.0) is high

    def test_midpoint_interpolates_every_component(self):
        low, high = self._costs()
        mid = lerp_pass_cost(low, high, 0.5)
        assert mid.latency_s == pytest.approx(2.0)
        assert mid.flops == pytest.approx(200.0)
        assert mid.energy.normal_memory_j == pytest.approx(2.0)
        assert mid.energy.pim_op_j == pytest.approx(3.0)
        assert mid.energy.npu_cores_j == pytest.approx(4.0)
        assert mid.breakdown == pytest.approx({"a": 0.8, "b": 0.2, "c": 1.0})


class TestExactVsInterpolated:
    """The serving provider's fast (interpolated) costs track exact costs."""

    @pytest.mark.parametrize("name", EVALUATED_BACKENDS)
    def test_interpolated_decode_cost_close_to_exact(self, name):
        backend = make_cost_model(name)
        provider = PassCostProvider(backend, MODEL)
        for kv in (70, 129, 200, 311):
            approx = provider.decode(kv, (65, 320))
            truth = provider.decode(kv, None)
            assert approx.latency_s == pytest.approx(truth.latency_s, rel=0.05)
            assert approx.flops == pytest.approx(truth.flops, rel=0.05)

    @pytest.mark.parametrize("name", EVALUATED_BACKENDS)
    def test_anchor_kv_lengths_are_priced_exactly(self, name):
        backend = make_cost_model(name)
        provider = PassCostProvider(backend, MODEL)
        for kv in (1, 65, 320):
            assert provider.decode(kv, (65, 320)).latency_s == backend.pass_cost(
                MODEL, StagePass(Stage.GENERATION, 1, kv)
            ).latency_s

    def test_anchor_grid_is_evenly_spaced_plus_the_base(self):
        step = (320 - 65) / (KV_SAMPLES - 1)
        evenly = {int(round(65 + i * step)) for i in range(KV_SAMPLES)}
        assert anchor_grid((65, 320)) == tuple(sorted(evenly | {1}))
        assert len(anchor_grid((65, 320))) == KV_SAMPLES + 1
        assert anchor_grid(None) == ()

    def test_prefill_is_always_exact(self):
        backend = make_cost_model("ianus")
        provider = PassCostProvider(backend, MODEL)
        assert provider.prefill(128).latency_s == backend.pass_cost(
            MODEL, SUMM_PASS
        ).latency_s
