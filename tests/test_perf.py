"""Tests for the simulation performance subsystem (repro.perf).

Covers the correctness contract of the pass-cost cache (identical results
with the cache enabled, disabled, and across fast/exact modes), the cache
bookkeeping (hit/miss counters, clear, fingerprint invalidation), the lazy
timeline fast path, the slots pass over the hot classes, the parallel
experiment runner with its BENCH_*.json-compatible timing report, and that
every ``benchmarks/bench_*.py`` module has a CI step.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.core.system import IanusSystem
from repro.ir.command import Command, CommandStream, OpKind, Unit
from repro.models import GPT2_CONFIGS, Workload
from repro.perf import (
    PassCostCache,
    config_fingerprint,
    global_pass_cache,
    run_many,
    write_report,
)
from repro.scheduling.events import ActivityStats, EventEngine, ScheduledCommand, Timeline


def _result_signature(result):
    """Every numeric field of an InferenceResult that experiments consume."""
    return (
        result.total_latency_s,
        result.summarization.latency_s,
        result.generation.latency_s,
        result.summarization.flops,
        result.generation.flops,
        sorted(result.breakdown.items()),
        result.energy.total_mj,
        result.tokens_per_second,
    )


class TestPassCostCacheCorrectness:
    def test_cached_equals_uncached_byte_identical(self):
        model = GPT2_CONFIGS["m"]
        workload = Workload(96, 24)
        config = SystemConfig.ianus()
        cached_system = IanusSystem(config, pass_cache=PassCostCache())
        uncached_system = IanusSystem(config, pass_cache=None)

        first = cached_system.run(model, workload)   # populates the cache
        second = cached_system.run(model, workload)  # served from the cache
        reference = uncached_system.run(model, workload)

        assert _result_signature(first) == _result_signature(reference)
        assert _result_signature(second) == _result_signature(reference)
        assert cached_system.pass_cache.hits > 0

    def test_cached_equals_uncached_exact_mode(self):
        model = GPT2_CONFIGS["m"]
        workload = Workload(32, 12)
        config = SystemConfig.ianus()
        cached = IanusSystem(config, pass_cache=PassCostCache()).run(
            model, workload, mode="exact"
        )
        uncached = IanusSystem(config, pass_cache=None).run(
            model, workload, mode="exact"
        )
        assert _result_signature(cached) == _result_signature(uncached)

    def test_fast_vs_exact_tolerance_with_cache(self):
        model = GPT2_CONFIGS["m"]
        workload = Workload(64, 48)
        system = IanusSystem(SystemConfig.ianus(), pass_cache=PassCostCache())
        fast = system.run(model, workload, mode="fast")
        exact = system.run(model, workload, mode="exact")
        assert fast.total_latency_s == pytest.approx(exact.total_latency_s, rel=0.02)
        assert fast.generation.flops == pytest.approx(exact.generation.flops, rel=0.02)
        assert fast.energy.total_mj == pytest.approx(exact.energy.total_mj, rel=0.05)

    def test_different_configs_do_not_share_entries(self):
        model = GPT2_CONFIGS["m"]
        workload = Workload(48, 1)
        cache = PassCostCache()
        base = IanusSystem(SystemConfig.ianus(), pass_cache=cache)
        small = IanusSystem(SystemConfig.ianus(num_cores=2), pass_cache=cache)
        latency_base = base.run(model, workload).total_latency_s
        latency_small = small.run(model, workload).total_latency_s
        assert latency_small > latency_base  # 2 cores must not hit 4-core entries


class TestPassCostCacheBookkeeping:
    def test_hit_miss_counters(self):
        cache = PassCostCache()
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_clear_resets(self):
        cache = PassCostCache()
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0, "misses": 0, "size": 0,
            "maxsize": cache.maxsize, "hit_rate": 0.0,
        }

    def test_eviction_respects_maxsize(self):
        cache = PassCostCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("c",), 3)
        assert len(cache) == 2
        assert ("a",) not in cache

    def test_invalidate_by_fingerprint(self):
        cache = PassCostCache()
        cache.put(("fp1", "x"), 1)
        cache.put(("fp1", "y"), 2)
        cache.put(("fp2", "x"), 3)
        removed = cache.invalidate("fp1")
        assert removed == 2
        assert ("fp2", "x") in cache and ("fp1", "x") not in cache

    def test_fingerprint_stability(self):
        a = SystemConfig.ianus()
        b = SystemConfig.ianus()
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(a.variant(num_cores=2))
        assert config_fingerprint(a, 1) != config_fingerprint(a, 2)

    def test_system_uses_global_cache_by_default(self):
        system = IanusSystem(SystemConfig.ianus())
        assert system.pass_cache is global_pass_cache()
        assert IanusSystem(SystemConfig.ianus(), pass_cache=None).pass_cache is None


class TestTimelineFastPath:
    def _stream(self) -> CommandStream:
        stream = CommandStream(label="t")
        a = stream.add(Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=4096, tag="A")
        b = stream.add(
            Unit.MATRIX_UNIT, OpKind.FC_QKV,
            flops=1e6, dims=(1, 64, 64), deps=[a], tag="A",
        )
        stream.add(
            Unit.VECTOR_UNIT, OpKind.GELU, flops=1e3, dims=(1, 64), deps=[b], tag="B",
        )
        return stream

    def test_makespan_cached_and_correct(self, ianus_config):
        timeline = EventEngine(ianus_config).simulate(self._stream())
        makespan = timeline.makespan
        assert makespan == max(c.end for c in timeline.commands)
        assert timeline.makespan == makespan  # cached access

    def test_lazy_commands_not_materialized(self, ianus_config):
        timeline = EventEngine(ianus_config).simulate(self._stream())
        assert timeline._commands is None  # derived quantities don't need it
        _ = timeline.makespan
        _ = timeline.breakdown_by_tag()
        _ = timeline.total_flops()
        assert timeline._commands is None
        commands = timeline.commands  # materialized on demand
        assert len(commands) == 3
        assert timeline._commands is not None

    def test_repeat_simulation_is_cached_and_identical(self, ianus_config):
        engine = EventEngine(ianus_config)
        stream = self._stream()
        first = engine.simulate(stream)
        second = engine.simulate(stream)
        assert second is first
        # A mutated (appended-to) stream must be re-simulated.
        stream.add(Unit.VECTOR_UNIT, OpKind.RESIDUAL_ADD, flops=1.0, dims=(1, 64))
        third = engine.simulate(stream)
        assert third is not first and len(third) == 4

    def test_breakdown_matches_commands(self, ianus_config):
        timeline = EventEngine(ianus_config).simulate(self._stream())
        breakdown = timeline.breakdown_by_tag()
        assert set(breakdown) == {"A", "B"}
        assert breakdown["A"] > 0 and breakdown["B"] > 0
        # Returned dict is a copy: mutating it must not poison the cache.
        breakdown["A"] = -1.0
        assert timeline.breakdown_by_tag()["A"] > 0

    def test_backward_compatible_constructor(self):
        empty = Timeline(commands=[], stats=ActivityStats())
        assert empty.makespan == 0.0
        assert empty.commands == []
        assert empty.total_flops() == 0.0


class TestActivityStatsScaling:
    def test_scaled_rounds_instead_of_truncating(self):
        stats = ActivityStats(offchip_read_bytes=3, pim_row_activations=5)
        half = stats.scaled(0.5)
        # round-half-even: 1.5 -> 2, 2.5 -> 2 (truncation gave 1 and 2)
        assert half.offchip_read_bytes == 2
        assert half.pim_row_activations == 2

    def test_integer_scaling_unchanged(self):
        stats = ActivityStats(offchip_read_bytes=1000, onchip_bytes=7)
        doubled = stats.scaled(2)
        assert doubled.offchip_read_bytes == 2000
        assert doubled.onchip_bytes == 14


class TestSlotsPass:
    @pytest.mark.parametrize(
        "instance",
        [
            Command(cid=0, unit=Unit.SYNC, kind=OpKind.SYNC),
            ScheduledCommand(
                cid=0, unit=Unit.SYNC, kind=OpKind.SYNC, tag="",
                start=0.0, end=1.0, flops=0.0, bytes_moved=0,
            ),
            ActivityStats(),
        ],
    )
    def test_hot_classes_have_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")
        # Frozen+slots dataclasses raise TypeError pre-3.12 (cpython gh-90562)
        # instead of FrozenInstanceError; either way assignment is rejected.
        with pytest.raises((AttributeError, TypeError)):
            instance.arbitrary_new_attribute = 1

    def test_timeline_is_slotted(self):
        timeline = Timeline(commands=[], stats=ActivityStats())
        assert not hasattr(timeline, "__dict__")


class TestFusedGemvProgram:
    @pytest.mark.parametrize(
        "out_features,in_features,fused_gelu,channels",
        [
            (1024, 1024, False, 8),
            (50257, 1600, False, 8),   # LM-head-sized, multiple column tiles
            (4096, 1024, True, 8),     # fused GELU on the last column tile
            (64, 768, False, 2),       # single-chip channel count
            (1280, 5120, True, 4),
            (100, 100, False, 8),      # partial tiles in both dimensions
        ],
    )
    def test_fused_path_equals_decode_then_interpret(
        self, out_features, in_features, fused_gelu, channels
    ):
        from repro.config import PimConfig
        from repro.pim.address_mapping import TileMapping
        from repro.pim.commands import MacroKind, MacroPimCommand
        from repro.pim.controller import PimMemoryController
        from repro.pim.pcu import PimControlUnit

        config = PimConfig()
        macro = MacroPimCommand(
            kind=MacroKind.GEMV_GELU if fused_gelu else MacroKind.GEMV,
            out_features=out_features,
            in_features=in_features,
            channels=channels,
            fused_gelu=fused_gelu,
        )
        controller = PimMemoryController(config)
        reference = controller.run_micro_program(
            PimControlUnit(config).decode(macro).micro_commands
        )
        fused = controller.run_gemv_program(
            TileMapping(
                config,
                out_features=out_features,
                in_features=in_features,
                compute_channels=channels,
            ),
            fused_gelu=fused_gelu,
        )
        assert fused == reference  # exact equality, including float timings


class TestParallelRunner:
    def test_run_many_serial_matches_direct(self):
        from repro.experiments.registry import run_experiment

        outcome = run_many(["table1", "table3"], fast=True, jobs=1)
        assert set(outcome.results) == {"table1", "table3"}
        direct = run_experiment("table1", fast=True)
        assert outcome.results["table1"].rows == direct.rows
        assert all(t.ok for t in outcome.report.timings)
        assert all(t.seconds >= 0 for t in outcome.report.timings)

    def test_run_many_parallel_matches_serial(self):
        serial = run_many(["table1", "table2"], fast=True, jobs=1)
        parallel = run_many(["table1", "table2"], fast=True, jobs=2)
        for identifier in ("table1", "table2"):
            assert parallel.results[identifier].rows == serial.results[identifier].rows
        assert parallel.report.jobs == 2

    def test_run_many_unknown_id(self):
        with pytest.raises(KeyError):
            run_many(["not-an-experiment"])

    def test_timing_report_json_layout(self, tmp_path):
        outcome = run_many(["table1"], fast=True, jobs=1)
        path = write_report(outcome.report, tmp_path / "BENCH_test.json")
        document = json.loads(path.read_text())
        assert "benchmarks" in document and "machine_info" in document
        (entry,) = document["benchmarks"]
        assert entry["name"] == "table1"
        for key in ("mean", "min", "max", "median", "stddev", "rounds"):
            assert key in entry["stats"]
        assert entry["extra_info"]["rows"] > 0

    def test_failures_are_reported_not_raised(self, monkeypatch):
        import repro.experiments.registry as registry

        def boom(fast=True):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(registry.EXPERIMENTS, "boom", ("synthetic", boom))
        outcome = run_many(["boom", "table1"], fast=True, jobs=1)
        statuses = {t.experiment_id: t for t in outcome.report.timings}
        assert not statuses["boom"].ok
        assert "synthetic failure" in statuses["boom"].error
        assert statuses["table1"].ok
        assert "boom" not in outcome.results


class TestCliBench:
    def test_bench_command_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "BENCH_cli.json"
        code = main(["bench", "table1", "--jobs", "1", "--json", str(report_path)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "table1" in captured
        assert "pass-cost cache" in captured
        assert report_path.exists()

    def test_bench_command_rejects_unknown(self, capsys):
        from repro.cli import main

        assert main(["bench", "nope"]) == 2


class TestBenchmarksInCi:
    def test_every_bench_module_has_a_ci_step_and_every_step_a_module(self):
        root = Path(__file__).resolve().parents[1]
        workflow = (root / ".github" / "workflows" / "ci.yml").read_text()
        in_ci = set(re.findall(r"benchmarks/(bench_\w+\.py)", workflow))
        on_disk = {path.name for path in (root / "benchmarks").glob("bench_*.py")}
        assert sorted(on_disk - in_ci) == [], "benches that no CI step runs"
        assert sorted(in_ci - on_disk) == [], "CI steps naming a missing bench"
