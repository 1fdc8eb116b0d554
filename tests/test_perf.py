"""Tests for the simulation performance subsystem (repro.perf).

Covers the correctness contract of the pass-cost cache (identical results
with the cache enabled, disabled, and across fast/exact modes), the cache
bookkeeping (hit/miss counters, clear, fingerprint invalidation), the lazy
timeline fast path, the slots pass over the hot classes, the parallel
experiment runner with its BENCH_*.json-compatible timing report, and that
every ``benchmarks/bench_*.py`` module has a CI step.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.core.system as system_module
from repro.config import AttentionMappingPolicy, MemoryPolicy, SystemConfig
from repro.core.results import merge_breakdowns
from repro.core.system import FAST_MODE_SAMPLES, MIN_RANGE_COLUMNS, IanusSystem
from repro.ir.command import Command, CommandStream, OpKind, Unit
from repro.models import GPT2_CONFIGS, Workload
from repro.models.workload import Stage, StagePass
from repro.perf import (
    PassCostCache,
    config_fingerprint,
    global_pass_cache,
    run_many,
    write_report,
)
from repro.scheduling.events import ActivityStats, EventEngine, ScheduledCommand, Timeline


#: (configuration, devices, GPT-2 size), named by backend: every design's
#: range entries must equal its single passes.  The partitioned design runs
#: GPT-2 2.5B, whose non-duplicated FC fraction, and so its per-block
#: penalty, changes with the KV length (0.31-0.40 over KV lengths 1-1024).
_RANGE_DESIGNS = [
    pytest.param(SystemConfig.ianus, 1, "m", id="ianus"),
    pytest.param(SystemConfig.npu_mem, 1, "m", id="npu-mem"),
    pytest.param(SystemConfig.ianus, 2, "m", id="ianus-x2"),
    pytest.param(SystemConfig.partitioned, 1, "2.5b", id="partitioned-gpt2-2.5b"),
]


def _pass_by_object_methods(system, model, stage_pass):
    """One full pass assembled with ``ActivityStats``' and
    ``merge_breakdowns``' own methods, a field-by-field stats sum and a
    full ``place()``: the reference for the float operations, and their
    order, of the one pass assembly."""
    block = system.block_timeline(model, stage_pass)
    embedding = system.engine.simulate(
        system.compiler.compile_embedding(model, stage_pass.num_tokens)
    )
    lm_head = system.engine.simulate(system.compiler.compile_lm_head(model).stream)
    blocks, cores = model.num_blocks, system.config.num_cores
    penalty = 0.0
    if system.config.memory_policy is MemoryPolicy.PARTITIONED:
        placement = system.memory_system.place(model, stage_pass.kv_length)
        fraction = placement.non_duplicated_fc_bytes / model.fc_param_bytes
        if fraction > 0.0:
            penalty = (
                fraction * model.fc_params_per_block * 2 / system.config.offchip_bandwidth
            )
    latency = blocks * (block.makespan + penalty) + embedding.makespan + lm_head.makespan
    breakdown = merge_breakdowns(
        {tag: value * blocks for tag, value in block.breakdown_by_tag().items()},
        embedding.breakdown_by_tag(),
        lm_head.breakdown_by_tag(),
    )
    parts = (
        block.stats.with_core_scaling(cores).scaled(blocks),
        embedding.stats,
        lm_head.stats.with_core_scaling(cores),
    )
    # Each field added left to right: block, then embedding, then LM head.
    stats = ActivityStats(**{
        field.name: (getattr(parts[0], field.name) + getattr(parts[1], field.name))
        + getattr(parts[2], field.name)
        for field in dataclasses.fields(ActivityStats)
    })
    flops = block.total_flops() * blocks * cores + lm_head.total_flops() * cores
    return latency, breakdown, stats, flops


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

    def test_what_callers_change_never_reaches_the_cache(self):
        """A run reads its generation entries in place, without copies, so
        what a caller gets must never be an entry: changing a stage
        breakdown of ``run``, a breakdown of ``pass_cost`` or a stats
        field of ``_pass_cost`` leaves a rerun on the warm cache with the
        first run's numbers."""
        system = IanusSystem(SystemConfig.ianus(), pass_cache=PassCostCache())
        model = GPT2_CONFIGS["m"]
        workload = Workload(64, 12)
        stage_pass = StagePass(Stage.GENERATION, 1, 70)  # one of the run's passes
        first = system.run(model, workload, mode="exact")
        expected = (repr(first), repr(system.pass_cost(model, stage_pass)))

        for stage in (first.summarization, first.generation):
            for tag in stage.breakdown:
                stage.breakdown[tag] = -1.0
        system.pass_cost(model, stage_pass).breakdown["FFN+Add"] = -1.0
        for kv in (65, 70, 75):  # the first, a middle and the last KV length
            latency, breakdown, stats, flops = system._pass_cost(
                model, StagePass(Stage.GENERATION, 1, kv)
            )
            breakdown["LM head"] = -1.0
            stats.pim_row_activations += 10**9
            stats.matrix_unit_flops = -1.0
        latency, breakdown, stats, flops = system._pass_cost(
            model, StagePass(Stage.SUMMARIZATION, 64, 64)
        )
        breakdown["Embedding"] = -1.0
        stats.offchip_read_bytes = -1

        rerun = system.run(model, workload, mode="exact")
        assert (repr(rerun), repr(system.pass_cost(model, stage_pass))) == expected
        assert system.pass_cache.misses == 1 + len(workload.generation_kv_lengths())

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

    def test_eviction_respects_maxsize(self):
        cache = PassCostCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("c",), 3)
        assert cache.stats()["size"] == 2
        assert cache.get(("a",)) is None
        assert cache.get(("c",)) == 3

    def test_fingerprint_stability(self):
        a = SystemConfig.ianus()
        b = SystemConfig.ianus()
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(a.variant(num_cores=2))
        assert config_fingerprint(a, 1) != config_fingerprint(a, 2)

    @pytest.mark.parametrize("make_config,devices,model_key", _RANGE_DESIGNS)
    def test_exact_run_prices_each_kv_length_once(self, make_config, devices, model_key):
        """An exact run schedules its KV lengths as columns of one engine
        call, yet each pass keeps its own entry: one miss and one put per
        pass (the summarization and each KV length), as perfbench's
        ``sim.passes_priced`` digests.  A rerun only hits and reports the
        same numbers.  Cached values hold Python numbers and dicts only, so
        the persisted pass-cost section keeps its layout, and each equals
        its pass assembled with the stats' and breakdowns' own methods."""

        class CountingCache(PassCostCache):
            def __init__(self):
                super().__init__()
                self.puts = []

            def put(self, key, value):
                self.puts.append(key)
                super().put(key, value)

        cache = CountingCache()
        system = IanusSystem(make_config(), num_devices=devices, pass_cache=cache)
        model = GPT2_CONFIGS[model_key]
        workload = Workload(128, 256)
        first = system.run(model, workload, mode="exact")
        passes = 1 + len(workload.generation_kv_lengths())
        assert (cache.misses, cache.hits) == (passes, 0)
        assert len(cache.puts) == len(set(cache.puts)) == passes
        second = system.run(model, workload, mode="exact")
        assert (cache.misses, cache.hits, len(cache.puts)) == (passes, passes, passes)
        assert _result_signature(second) == _result_signature(first)
        for key, entry in cache._entries.items():
            stage_pass = StagePass(*key[2:])
            assert repr(entry) == repr(_pass_by_object_methods(system, model, stage_pass))
            latency, breakdown, stats, flops = entry
            assert type(latency) is float and type(flops) is float
            assert type(breakdown) is dict
            assert all(type(value) is float for value in breakdown.values())
            assert [type(value) for value in dataclasses.astuple(stats)] == [
                int, int, int, int, float, float, int, int
            ]

    @pytest.mark.parametrize("make_config,devices,model_key", _RANGE_DESIGNS)
    @pytest.mark.parametrize("missed", [1, MIN_RANGE_COLUMNS - 1, MIN_RANGE_COLUMNS])
    def test_missed_kv_lengths_are_columns_only_in_a_long_range(
        self, missed, make_config, devices, model_key, monkeypatch
    ):
        """Fewer than ``MIN_RANGE_COLUMNS`` missed KV lengths are simulated
        one pass at a time, more as the columns of one ``simulate_range``
        call; either way each length's entry is its pass alone, field for
        field: latency, breakdown in key order, every stats field and FLOPs,
        each of the same type."""
        config = make_config()
        system = IanusSystem(config, num_devices=devices, pass_cache=None)
        model = GPT2_CONFIGS[model_key]
        counts = []
        simulate_range = system.engine.simulate_range

        def counted(stream):
            counts.append(stream.columns)
            return simulate_range(stream)

        monkeypatch.setattr(system.engine, "simulate_range", counted)
        kv_lengths = list(range(200, 200 + 150 * missed, 150))
        if config.memory_policy is MemoryPolicy.PARTITIONED:
            fractions = system.memory_system.non_duplicated_fractions(model, kv_lengths)
            assert len(set(fractions)) == missed and min(fractions) > 0.0
        costs = system._generation_costs(model, kv_lengths)
        assert counts == ([missed] if missed >= MIN_RANGE_COLUMNS else [])
        for kv in kv_lengths:
            alone = IanusSystem(config, num_devices=devices, pass_cache=None)
            latency, breakdown, stats, flops = alone._pass_cost_uncached(
                model, StagePass(Stage.GENERATION, 1, kv)
            )
            assert costs[kv][0] == latency and costs[kv][3] == flops
            assert list(costs[kv][1].items()) == list(breakdown.items())
            assert dataclasses.astuple(costs[kv][2]) == dataclasses.astuple(stats)
            assert repr(costs[kv]) == repr((latency, breakdown, stats, flops))

    def test_fast_mode_prices_its_samples_as_columns(self, monkeypatch):
        """Fast mode's five missed samples are at least ``MIN_RANGE_COLUMNS``
        and ride one range."""
        system = IanusSystem(SystemConfig.ianus(), pass_cache=None)
        counts = []
        simulate_range = system.engine.simulate_range

        def counted(stream):
            counts.append(stream.columns)
            return simulate_range(stream)

        monkeypatch.setattr(system.engine, "simulate_range", counted)
        system.run(GPT2_CONFIGS["m"], Workload(64, 32))
        assert counts == [FAST_MODE_SAMPLES] and FAST_MODE_SAMPLES >= MIN_RANGE_COLUMNS

    def test_exact_pim_attention_run_equals_its_passes_one_by_one(self, monkeypatch):
        """With QK^T and SV on the PIM, a column's durations and DRAM row
        activations follow its own KV length: an exact run priced as
        columns equals the run with every pass compiled and simulated
        alone, pass by pass and in total."""
        config = SystemConfig.ianus(attention_mapping=AttentionMappingPolicy.PIM)
        model = GPT2_CONFIGS["m"]
        workload = Workload(128, 64)
        kv_lengths = workload.generation_kv_lengths()
        columns = IanusSystem(config, pass_cache=None)
        costs = columns._generation_costs(model, kv_lengths)
        alone = IanusSystem(config, pass_cache=None)
        activations = set()
        for kv in kv_lengths:
            cost = alone._pass_cost_uncached(model, StagePass(Stage.GENERATION, 1, kv))
            assert costs[kv] == cost
            assert list(costs[kv][1]) == list(cost[1])
            activations.add(cost[2].pim_row_activations)
        assert len(activations) > 1
        ranged = columns.run(model, workload, mode="exact")
        monkeypatch.setattr(system_module, "MIN_RANGE_COLUMNS", len(kv_lengths) + 1)
        assert ranged == alone.run(model, workload, mode="exact")

    def test_a_range_leaves_python_numbers_for_later_single_passes(self):
        """A range looks its per-column durations up from Python ints.  An
        ``np.int64`` key hashes equal to the ``int`` one in the shared
        DurationModel cache, so numpy numbers cached by a range would reach
        every later single pass at its KV lengths and change its repr."""
        # A configuration of its own, so no other test warmed its cache.
        config = SystemConfig.ianus(name="range-type-boundary")
        model = GPT2_CONFIGS["m"]
        system = IanusSystem(config, pass_cache=None)
        system.run(model, Workload(128, 16), mode="exact")
        cost = system._pass_cost(model, StagePass(Stage.GENERATION, 1, 140))
        latency, breakdown, stats, flops = cost
        assert type(latency) is float and type(flops) is float
        assert all(type(value) is float for value in breakdown.values())
        assert [type(value) for value in dataclasses.astuple(stats)] == [
            int, int, int, int, float, float, int, int
        ]
        script = (
            "from repro.config import SystemConfig\n"
            "from repro.core.system import IanusSystem\n"
            "from repro.models import GPT2_CONFIGS\n"
            "from repro.models.workload import Stage, StagePass\n"
            "system = IanusSystem(SystemConfig.ianus(name='range-type-boundary'),"
            " pass_cache=None)\n"
            "print(repr(system._pass_cost(GPT2_CONFIGS['m'],"
            " StagePass(Stage.GENERATION, 1, 140))))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        fresh = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert fresh == repr(cost) + "\n"

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
        assert third is not first and len(third.commands) == 4

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


def _gemv_both_ways(config, out_features, in_features, fused_gelu, channels):
    """One GEMV estimated by the fused walk and by decoding the macro with
    the PCU and interpreting its micro program over a ``DramBank``."""
    from repro.pim.address_mapping import TileMapping
    from repro.pim.commands import MacroKind, MacroPimCommand
    from repro.pim.controller import PimMemoryController
    from repro.pim.pcu import PimControlUnit

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
    return fused, reference


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
            # The GEMVs paper-exact estimates: the GPT-2 M, XL and 2.5B LM
            # heads and fused-GELU FFNs on the partitioned organisation's
            # four channels and the unified one's eight.
            (50257, 1024, False, 4),
            (50257, 1024, False, 8),
            (50257, 1536, False, 4),
            (50257, 1536, False, 8),
            (50257, 1920, False, 4),
            (50257, 1920, False, 8),
            (4096, 1024, True, 4),
            (6144, 1536, True, 4),
            (6144, 1536, True, 8),
            (7680, 1920, True, 4),
            (7680, 1920, True, 8),
        ],
    )
    def test_fused_path_equals_decode_then_interpret(
        self, out_features, in_features, fused_gelu, channels
    ):
        from repro.config import PimConfig

        fused, reference = _gemv_both_ways(
            PimConfig(), out_features, in_features, fused_gelu, channels
        )
        assert fused == reference  # exact equality, including float timings
        assert repr(fused) == repr(reference)

    @settings(max_examples=150, deadline=None)
    @given(
        channels=st.integers(1, 8),
        full_row_tiles=st.integers(0, 3),
        partial_rows=st.integers(0, 126),
        full_col_tiles=st.integers(0, 3),
        partial_cols=st.integers(1, 1023),
        fused_gelu=st.booleans(),
        timings=st.tuples(*[st.floats(0.1, 100.0)] * 5),
        data_rate_gbps=st.floats(1.0, 32.0),
    )
    def test_fused_path_equals_decode_then_interpret_on_partial_tiles(
        self, channels, full_row_tiles, partial_rows, full_col_tiles,
        partial_cols, fused_gelu, timings, data_rate_gbps,
    ):
        """Partial tiles in both dimensions, under drawn DRAM timings and
        bus rates.  The default timings and bus rate make every partial sum
        exact in binary, so only drawn ones pin the walk's order of float
        operations."""
        from repro.config import DramTimingConfig, PimConfig

        tRCD_RD, tRAS, tRP, tCCD_L, result_read_ns = timings
        config = PimConfig(
            timing=DramTimingConfig(tRCD_RD=tRCD_RD, tRAS=tRAS, tRP=tRP, tCCD_L=tCCD_L),
            result_read_ns=result_read_ns,
            data_rate_gbps=data_rate_gbps,
        )
        tile_rows = config.banks_per_channel * channels
        out_features = full_row_tiles * tile_rows + partial_rows % (tile_rows - 1) + 1
        in_features = full_col_tiles * config.row_elements + partial_cols
        fused, reference = _gemv_both_ways(
            config, out_features, in_features, fused_gelu, channels
        )
        assert fused == reference
        assert repr(fused) == repr(reference)


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


class TestPerfbenchLayers:
    def test_every_traced_entry_point_resolves(self):
        # perfbench's tracer skips a name it cannot find, so an entry point
        # renamed in src/ would make its layer read zero with no error.  It
        # wraps a method through the __dict__ of the named class or of a
        # loaded subclass, so an inherited method does not count.
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", root / "perfbench" / "spans.py"
        )
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)

        def family(cls):
            if cls is None:
                return []
            return [cls] + [o for sub in cls.__subclasses__() for o in family(sub)]

        missing = []
        for _, module_name, class_name, names in spans.LAYERS:
            module = importlib.import_module(module_name)
            owners = family(getattr(module, class_name or "", None))
            for name in names:
                if class_name is None:
                    found = hasattr(module, name)
                else:
                    found = any(name in vars(owner) for owner in owners)
                if not found:
                    missing.append(f"{class_name or module_name}.{name}")
        # The accountant has no can_grow any more; the tracer's list names
        # it until the next change to the benchmark (ROADMAP item 1).
        assert missing == ["KvPageAccountant.can_grow"]
