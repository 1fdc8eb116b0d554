"""Tests for the duration model, the event engine under the PAS and naive
policies, and the timeline checker: one forged timeline per rule, and every
design's compiled blocks as a system schedules them."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler import Compiler
from repro.config import (
    AttentionMappingPolicy,
    MemoryPolicy,
    SchedulerConfig,
    SchedulingPolicy,
    SystemConfig,
)
from repro.core import IanusSystem
from repro.ir import CommandStream, OpKind, PimScope, ReplayedStream, Unit
from repro.models import GPT2_CONFIGS
from repro.models.workload import Stage, StagePass
from repro.scheduling import DurationModel, EventEngine, Timeline, check_timeline
from repro.scheduling.durations import SYNC_LATENCY_S

GEN_PASS = StagePass(Stage.GENERATION, 1, 256)
SUM_PASS = StagePass(Stage.SUMMARIZATION, 128, 128)


class TestDurationModel:
    def test_matrix_unit_duration_matches_unit_model(self, durations):
        stream = CommandStream()
        command = stream.add(Unit.MATRIX_UNIT, OpKind.FC_QKV, dims=(8, 1024, 1024))
        assert durations.duration(command) == pytest.approx(
            durations.npu.matrix_unit.matmul_time(8, 1024, 1024)
        )

    def test_dma_duration_uses_per_core_bandwidth(self, durations, ianus_config):
        stream = CommandStream()
        command = stream.add(Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=2**20)
        per_core = ianus_config.offchip_bandwidth / ianus_config.num_cores
        expected = ianus_config.core.dma.offchip_latency_s + 2**20 / per_core
        assert durations.duration(command) == pytest.approx(expected)

    def test_pim_duration_single_chip_slower_than_all_chips(self, durations):
        stream = CommandStream()
        all_chips = stream.add(
            Unit.PIM, OpKind.PIM_GEMV, dims=(1, 2048, 2048), pim_scope=PimScope.ALL_CHIPS
        )
        one_chip = stream.add(
            Unit.PIM, OpKind.PIM_GEMV, dims=(1, 2048, 2048), pim_scope=PimScope.SINGLE_CHIP
        )
        assert durations.duration(one_chip) > durations.duration(all_chips)

    def test_pim_duration_raises_when_pim_disabled(self, npu_mem_config):
        durations = DurationModel(npu_mem_config)
        stream = CommandStream()
        command = stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 64, 64))
        with pytest.raises(ValueError):
            durations.duration(command)

    def test_sync_duration_is_small_and_fixed(self, durations):
        stream = CommandStream()
        command = stream.add(Unit.SYNC, OpKind.SYNC)
        assert 0 < durations.duration(command) < 5e-6

    def test_host_duration_scales_with_device_count(self, durations):
        stream = CommandStream()
        two = stream.add(Unit.HOST, OpKind.DEVICE_COMM, bytes_moved=4096, dims=(2,))
        eight = stream.add(Unit.HOST, OpKind.DEVICE_COMM, bytes_moved=4096, dims=(8,))
        assert durations.duration(eight) > durations.duration(two)

    def test_vector_unit_kinds_have_distinct_models(self, durations):
        stream = CommandStream()
        softmax = stream.add(Unit.VECTOR_UNIT, OpKind.SOFTMAX, dims=(1, 2048))
        layernorm = stream.add(Unit.VECTOR_UNIT, OpKind.LAYERNORM, dims=(1, 2048))
        assert durations.duration(softmax) != durations.duration(layernorm)

    def test_fc_on_pim_time_infinite_without_pim(self, npu_mem_config):
        durations = DurationModel(npu_mem_config)
        assert durations.fc_on_pim_time(1, 1024, 1024) == float("inf")

    @pytest.mark.parametrize(
        "unit, kind",
        [(Unit.DMA_LOAD, OpKind.WEIGHT_LOAD), (Unit.DMA_STORE, OpKind.KV_STORE)],
        ids=["load", "store"],
    )
    def test_offchip_dma_priced_by_the_dma_model(self, durations, unit, kind):
        """Every normal off-chip access, read or write, streams at the core's
        bandwidth share after one access latency; an empty one is free."""
        stream = CommandStream()
        empty = stream.add(unit, kind, bytes_moved=0)
        two_mib = stream.add(unit, kind, bytes_moved=2 * 2**20)
        assert durations.duration(empty) == 0.0
        assert durations.duration(two_mib) == durations.npu.dma.offchip_time(2 * 2**20)
        assert durations.duration(two_mib) > 2 * 2**20 / durations.config.offchip_bandwidth


class _StreamBuilder:
    """Small synthetic streams for engine-behaviour tests."""

    @staticmethod
    def independent_mu_and_vu() -> CommandStream:
        stream = CommandStream()
        stream.add(Unit.MATRIX_UNIT, OpKind.FC_QKV, dims=(128, 2048, 2048))
        stream.add(Unit.VECTOR_UNIT, OpKind.LAYERNORM, dims=(128, 2048))
        return stream

    @staticmethod
    def pim_and_dma(dependent: bool) -> CommandStream:
        stream = CommandStream()
        pim = stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 2048, 2048),
                         bytes_moved=2048 * 2048 * 2)
        deps = [pim] if dependent else []
        stream.add(Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=2**20, deps=deps)
        return stream


class TestEventEngine:
    def test_independent_commands_overlap(self, ianus_config):
        engine = EventEngine(ianus_config)
        timeline = engine.simulate(_StreamBuilder.independent_mu_and_vu())
        busy_sum = timeline.busy_time(Unit.MATRIX_UNIT) + timeline.busy_time(Unit.VECTOR_UNIT)
        assert timeline.makespan < busy_sum

    def test_dependencies_serialise(self, ianus_config):
        engine = EventEngine(ianus_config)
        stream = CommandStream()
        first = stream.add(Unit.MATRIX_UNIT, OpKind.FC_QKV, dims=(128, 2048, 2048))
        stream.add(Unit.MATRIX_UNIT, OpKind.FC_PROJ, dims=(128, 2048, 2048), deps=[first])
        timeline = engine.simulate(stream)
        assert timeline.commands[1].start >= timeline.commands[0].end

    def test_same_unit_commands_serialise(self, ianus_config):
        engine = EventEngine(ianus_config)
        stream = CommandStream()
        stream.add(Unit.MATRIX_UNIT, OpKind.FC_QKV, dims=(128, 2048, 2048))
        stream.add(Unit.MATRIX_UNIT, OpKind.FC_PROJ, dims=(128, 2048, 2048))
        timeline = engine.simulate(stream)
        assert timeline.commands[1].start >= timeline.commands[0].end

    def test_unified_memory_blocks_dma_during_pim(self, ianus_config):
        """Sec. 4.3: off-chip DMA waits while a PIM macro executes."""
        engine = EventEngine(ianus_config)
        timeline = engine.simulate(_StreamBuilder.pim_and_dma(dependent=False))
        pim_end = timeline.commands[0].end
        assert timeline.commands[1].start >= pim_end

    def test_partitioned_memory_allows_overlap(self):
        config = SystemConfig.partitioned()
        engine = EventEngine(config)
        timeline = engine.simulate(_StreamBuilder.pim_and_dma(dependent=False))
        # The DMA can start while the PIM macro is still executing.
        assert timeline.commands[1].start < timeline.commands[0].end

    def test_naive_policy_makes_pim_a_barrier(self):
        config = SystemConfig.ianus(scheduling=SchedulingPolicy.NAIVE)
        engine = EventEngine(config)
        stream = CommandStream()
        stream.add(Unit.MATRIX_UNIT, OpKind.FC_QKV, dims=(128, 2048, 2048))
        stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 2048, 2048),
                   bytes_moved=2048 * 2048 * 2)
        stream.add(Unit.VECTOR_UNIT, OpKind.LAYERNORM, dims=(1, 2048))
        timeline = engine.simulate(stream)
        # The PIM command starts only after the MU command ends, and the VU
        # command starts only after the PIM command ends.
        assert timeline.commands[1].start >= timeline.commands[0].end
        assert timeline.commands[2].start >= timeline.commands[1].end

    def test_pas_policy_overlaps_pim_with_npu(self, ianus_config):
        engine = EventEngine(ianus_config)
        stream = CommandStream()
        stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 4096, 4096),
                   bytes_moved=4096 * 4096 * 2)
        stream.add(Unit.MATRIX_UNIT, OpKind.QKT, dims=(1, 64, 512))
        timeline = engine.simulate(stream)
        assert timeline.commands[1].start < timeline.commands[0].end

    def test_single_chip_pim_commands_run_concurrently_on_different_chips(self, ianus_config):
        engine = EventEngine(ianus_config)
        stream = CommandStream()
        stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 1536, 64),
                   pim_scope=PimScope.SINGLE_CHIP, pim_chip=0)
        stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 1536, 64),
                   pim_scope=PimScope.SINGLE_CHIP, pim_chip=1)
        timeline = engine.simulate(stream)
        assert timeline.commands[1].start < timeline.commands[0].end

    def test_all_chip_pim_command_waits_for_single_chip_ones(self, ianus_config):
        engine = EventEngine(ianus_config)
        stream = CommandStream()
        stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 1536, 64),
                   pim_scope=PimScope.SINGLE_CHIP, pim_chip=2)
        stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 1536, 1536),
                   pim_scope=PimScope.ALL_CHIPS)
        timeline = engine.simulate(stream)
        assert timeline.commands[1].start >= timeline.commands[0].end

    def test_stats_accumulate_activity(self, ianus_config):
        engine = EventEngine(ianus_config)
        timeline = engine.simulate(_StreamBuilder.pim_and_dma(dependent=True))
        assert timeline.stats.pim_weight_bytes == 2048 * 2048 * 2
        assert timeline.stats.offchip_read_bytes == 2**20
        assert timeline.stats.pim_macro_commands == 1
        assert timeline.stats.pim_row_activations > 0

    def test_breakdown_by_tag_uses_interval_union(self, ianus_config):
        engine = EventEngine(ianus_config)
        stream = CommandStream()
        first = stream.add(Unit.MATRIX_UNIT, OpKind.FC_QKV, dims=(8, 512, 512), tag="A")
        stream.add(Unit.MATRIX_UNIT, OpKind.FC_PROJ, dims=(8, 512, 512), deps=[first], tag="A")
        timeline = engine.simulate(stream)
        breakdown = timeline.breakdown_by_tag()
        assert breakdown["A"] == pytest.approx(timeline.makespan)

    def test_makespan_of_empty_stream_is_zero(self, ianus_config):
        engine = EventEngine(ianus_config)
        assert engine.simulate(CommandStream()).makespan == 0.0

    def test_core_scaling_of_stats(self, ianus_config, gpt2_xl):
        config = ianus_config
        stream = Compiler(config).compile_block(gpt2_xl, GEN_PASS).stream
        timeline = EventEngine(config).simulate(stream)
        scaled = timeline.stats.with_core_scaling(config.num_cores)
        assert scaled.offchip_read_bytes == timeline.stats.offchip_read_bytes * 4
        assert scaled.pim_weight_bytes == timeline.stats.pim_weight_bytes

    def test_unified_policy_consistency(self, ianus_config):
        assert ianus_config.memory_policy is MemoryPolicy.UNIFIED

    def test_ready_commands_start_at_zero(self, ianus_config):
        """A command with no dependency issues at once on its idle unit."""
        timeline = EventEngine(ianus_config).simulate(_StreamBuilder.independent_mu_and_vu())
        assert [c.start for c in timeline.commands] == [0.0, 0.0]

    def test_dependent_command_starts_when_its_dependency_ends(self, ianus_config):
        stream = CommandStream()
        first = stream.add(Unit.MATRIX_UNIT, OpKind.FC_QKV, dims=(128, 2048, 2048))
        stream.add(Unit.VECTOR_UNIT, OpKind.LAYERNORM, dims=(128, 2048), deps=[first])
        timeline = EventEngine(ianus_config).simulate(stream)
        assert timeline.commands[1].start == timeline.commands[0].end

    def test_queue_dimensions_change_no_schedule(self, ianus_config, gpt2_xl):
        """The engine models no issue- or pending-queue capacity: one slot
        of each gives the same block schedule as Table 1's values."""
        core = dataclasses.replace(
            ianus_config.core,
            scheduler=SchedulerConfig(issue_slots_per_unit=1, pending_slots=1),
        )
        one_slot = ianus_config.variant(core=core)
        windows = []
        for config in (ianus_config, one_slot):
            stream = Compiler(config).compile_block(gpt2_xl, GEN_PASS).stream
            timeline = EventEngine(config).simulate(stream)
            windows.append([(c.start, c.end) for c in timeline.commands])
        assert windows[0] == windows[1]

    @pytest.mark.parametrize(
        "unit, kind",
        [(Unit.DMA_LOAD, OpKind.WEIGHT_LOAD), (Unit.DMA_STORE, OpKind.KV_STORE)],
        ids=["load", "store"],
    )
    def test_parked_dma_resumes_when_the_macro_ends(self, ianus_config, unit, kind):
        """PAS parks an independent off-chip DMA, load or store, for exactly
        as long as the PIM macro runs."""
        stream = CommandStream()
        stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 2048, 2048),
                   bytes_moved=2048 * 2048 * 2)
        stream.add(unit, kind, bytes_moved=2**20)
        timeline = EventEngine(ianus_config).simulate(stream)
        assert timeline.commands[1].start == timeline.commands[0].end

    def test_onchip_dma_runs_during_a_pim_macro(self, ianus_config):
        """Only the off-chip interface is shared with the PIM: a
        scratch-pad to scratch-pad move is not parked."""
        stream = CommandStream()
        stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 2048, 2048),
                   bytes_moved=2048 * 2048 * 2)
        stream.add(Unit.DMA_ONCHIP, OpKind.ONCHIP_MOVE, bytes_moved=2**20)
        timeline = EventEngine(ianus_config).simulate(stream)
        assert timeline.commands[1].start == 0.0

    @pytest.mark.parametrize("policy", [MemoryPolicy.UNIFIED, MemoryPolicy.PARTITIONED])
    def test_pim_macro_after_an_offchip_dma(self, policy):
        """A PIM macro waits for an earlier DMA only when both share the
        devices (unified memory)."""
        config = (
            SystemConfig.ianus() if policy is MemoryPolicy.UNIFIED
            else SystemConfig.partitioned()
        )
        stream = CommandStream()
        stream.add(Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=2**20)
        stream.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 2048, 2048),
                   bytes_moved=2048 * 2048 * 2)
        timeline = EventEngine(config).simulate(stream)
        dma_end = timeline.commands[0].end
        expected = dma_end if policy is MemoryPolicy.UNIFIED else 0.0
        assert timeline.commands[1].start == expected

    @pytest.mark.parametrize("stage_pass", [GEN_PASS, SUM_PASS], ids=["generation", "summarization"])
    def test_block_sync_points_each_pay_one_noc_round_trip(
        self, ianus_config, gpt2_xl, stage_pass
    ):
        """Each block waits for its input, then synchronises the cores at
        Fig. 6's four points (heads merged, after the projection, after GELU
        and at the block's end); the NoC is priced by SYNC_LATENCY_S apiece."""
        stream = Compiler(ianus_config).compile_block(gpt2_xl, stage_pass).stream
        timeline = EventEngine(ianus_config).simulate(stream)
        syncs = [c for c in timeline.commands if c.unit is Unit.SYNC]
        assert [c.tag for c in syncs] == [
            "LayerNorm", "Self-attention", "FC for Attention + Add", "FFN+Add", "FFN+Add",
        ]
        assert all(c.end - c.start == pytest.approx(SYNC_LATENCY_S) for c in syncs)


class TestSimulateRange:
    """What ``simulate_range`` and ``compile_range`` accept;
    ``tests/test_properties.py`` holds each column equal to ``simulate`` of
    its pass compiled alone."""

    @staticmethod
    def _range(config, kv_lengths, compiler=None):
        compiler = compiler or Compiler(config, DurationModel.shared(config))
        return compiler.compile_range(
            GPT2_CONFIGS["m"], [StagePass(Stage.GENERATION, 1, kv) for kv in kv_lengths]
        ).stream

    @staticmethod
    def _template():
        template = CommandStream(label="template")
        load = template.add(Unit.DMA_LOAD, OpKind.KV_LOAD, bytes_moved=64)
        template.add(
            Unit.MATRIX_UNIT, OpKind.QKT, flops=1.0, dims=(1, 64, 8), deps=[load]
        )
        return template

    @pytest.mark.parametrize("length", [2, 4])
    def test_a_column_of_the_wrong_length_raises(self, length):
        replay = ReplayedStream(self._template(), columns=3)
        load = replay.add(
            Unit.DMA_LOAD, OpKind.KV_LOAD, bytes_moved=np.arange(3, dtype=np.int64)
        )
        with pytest.raises(ValueError, match=rf"command 1 .* shape \({length},\), not \(3,\)"):
            replay.add(
                Unit.MATRIX_UNIT, OpKind.QKT, flops=1.0,
                dims=(1, 64, np.arange(length, dtype=np.int64)), deps=[load],
            )

    def test_an_empty_range_raises(self, ianus_config):
        with pytest.raises(ValueError, match="at least one pass"):
            self._range(ianus_config, [])
        with pytest.raises(ValueError, match="at least one, got 0"):
            ReplayedStream(self._template(), columns=0)

    def test_a_range_shares_one_stage_and_token_count(self, ianus_config):
        compiler = Compiler(ianus_config, DurationModel.shared(ianus_config))
        passes = [StagePass(Stage.GENERATION, 1, 64), StagePass(Stage.SUMMARIZATION, 1, 65)]
        with pytest.raises(ValueError, match="share their stage and tokens"):
            compiler.compile_range(GPT2_CONFIGS["m"], passes)

    def test_only_a_range_of_columns_is_scheduled_as_one(self, ianus_config):
        stream = self._template()
        with pytest.raises(ValueError, match="not a range of columns"):
            EventEngine(ianus_config).simulate_range(stream)

    def test_a_column_replay_builds_no_commands(self, ianus_config):
        """Commands with array fields would read as one pass: a column
        replay cannot be simulated alone, iterated or indexed."""
        stream = self._range(ianus_config, [64, 100, 77])
        assert stream.columns == 3
        with pytest.raises(ValueError, match="simulate_range"):
            EventEngine(ianus_config).simulate(stream)
        with pytest.raises(ValueError, match="3 passes as columns"):
            list(stream)
        with pytest.raises(TypeError):
            stream[0]
        assert len(EventEngine(ianus_config).simulate_range(stream).makespans) == 3

    def test_a_range_compiles_its_template_once(self, ianus_config):
        """Without a template the first pass builds one; later ranges and
        passes replay it."""
        compiler = Compiler(ianus_config, DurationModel.shared(ianus_config))
        first = self._range(ianus_config, [300, 64], compiler)
        second = self._range(ianus_config, [65], compiler)
        assert first.template is second.template
        assert first.template.label.endswith("/kv300")
        single = compiler.compile_block(GPT2_CONFIGS["m"], StagePass(Stage.GENERATION, 1, 66))
        assert single.stream.template is first.template


def _pim_overlap(timeline: Timeline) -> float:
    """Seconds of non-PIM work that run while a PIM macro executes."""
    commands = timeline.commands
    macros = [c for c in commands if c.unit is Unit.PIM]
    return sum(
        max(0.0, min(macro.end, other.end) - max(macro.start, other.start))
        for macro in macros
        for other in commands
        if other.unit is not Unit.PIM
    )


class TestSchedulingPolicies:
    @pytest.mark.parametrize("key", sorted(GPT2_CONFIGS))
    def test_pas_beats_naive_on_generation_block(self, key):
        model = GPT2_CONFIGS[key]
        makespans = {}
        for policy in SchedulingPolicy:
            config = SystemConfig.ianus(scheduling=policy)
            stream = Compiler(config).compile_block(model, GEN_PASS).stream
            makespans[policy] = EventEngine(config).simulate(stream).makespan
        assert makespans[SchedulingPolicy.PAS] < makespans[SchedulingPolicy.NAIVE]

    @pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
    def test_npu_work_overlaps_pim_only_under_pas(self, gpt2_xl, policy):
        """PAS runs NPU compute beside a PIM macro; the naive policy makes
        every macro a barrier, so nothing overlaps it."""
        config = SystemConfig.ianus(scheduling=policy)
        stream = Compiler(config).compile_block(gpt2_xl, GEN_PASS).stream
        timeline = EventEngine(config).simulate(stream)
        assert timeline.busy_time(Unit.PIM) > 0
        if policy is SchedulingPolicy.PAS:
            assert _pim_overlap(timeline) > 0
        else:
            assert _pim_overlap(timeline) == 0


#: (configuration, devices) of each design a system can be built for.
_SYSTEM_DESIGNS = {
    "ianus": (SystemConfig.ianus(), 1),
    "ianus-naive": (SystemConfig.ianus(scheduling=SchedulingPolicy.NAIVE), 1),
    "ianus-pim-attention": (
        SystemConfig.ianus(attention_mapping=AttentionMappingPolicy.PIM), 1
    ),
    "ianus-x2": (SystemConfig.ianus(), 2),
    "npu-mem": (SystemConfig.npu_mem(), 1),
    "partitioned": (SystemConfig.partitioned(), 1),
    "partitioned-naive": (
        SystemConfig.partitioned(scheduling=SchedulingPolicy.NAIVE), 1
    ),
}


@pytest.mark.parametrize("stage_pass", [GEN_PASS, SUM_PASS], ids=["generation", "summarization"])
@pytest.mark.parametrize("design", sorted(_SYSTEM_DESIGNS))
def test_system_block_timeline_passes_the_checker(design, stage_pass, gpt2_xl):
    """The compiler and engine a system prices passes with build timelines
    that keep every rule of the engine's contract."""
    config, devices = _SYSTEM_DESIGNS[design]
    system = IanusSystem(config, num_devices=devices, pass_cache=None)
    stream = system.compiler.compile_block(gpt2_xl, stage_pass).stream
    timeline = system.engine.simulate(stream)
    assert check_timeline(stream, timeline, config) == []


#: Kind and numbers of the one command the forgery streams put on each unit.
_FORGERY_COMMANDS = {
    Unit.MATRIX_UNIT: (OpKind.FC_QKV, dict(dims=(128, 2048, 2048))),
    Unit.VECTOR_UNIT: (OpKind.LAYERNORM, dict(dims=(128, 2048))),
    Unit.DMA_LOAD: (OpKind.WEIGHT_LOAD, dict(bytes_moved=2**20)),
    Unit.PIM: (OpKind.PIM_GEMV, dict(dims=(1, 2048, 2048), bytes_moved=2048 * 2048 * 2)),
}

_NAIVE = SystemConfig.ianus(scheduling=SchedulingPolicy.NAIVE)

#: (rule, configuration, stream as (unit, deps) pairs): moving the stream's
#: last command to start at 0.0, for its full duration, breaks the rule.
_FORGERIES = {
    "start before a dependency ends": (
        "dependency", SystemConfig.ianus(),
        [(Unit.MATRIX_UNIT, ()), (Unit.VECTOR_UNIT, (0,))],
    ),
    "overlap on one resource": (
        "resource", SystemConfig.ianus(),
        [(Unit.MATRIX_UNIT, ()), (Unit.MATRIX_UNIT, ())],
    ),
    "dma inside a pim macro": (
        "dma-after-pim", SystemConfig.ianus(),
        [(Unit.PIM, ()), (Unit.DMA_LOAD, ())],
    ),
    "pim macro inside a dma": (
        "pim-after-dma", SystemConfig.ianus(),
        [(Unit.DMA_LOAD, ()), (Unit.PIM, ())],
    ),
    "pim macro inside a naive barrier": (
        "naive barrier", _NAIVE,
        [(Unit.MATRIX_UNIT, ()), (Unit.PIM, ())],
    ),
    "command inside a naive barrier": (
        "naive barrier", _NAIVE,
        [(Unit.PIM, ()), (Unit.VECTOR_UNIT, ())],
    ),
}


def _forgery_stream(spec) -> CommandStream:
    stream = CommandStream(label="forgery")
    for unit, deps in spec:
        kind, numbers = _FORGERY_COMMANDS[unit]
        stream.add(unit, kind, deps=deps, **numbers)
    return stream


def _forged(timeline: Timeline, cid: int, **fields) -> Timeline:
    """``timeline`` with the given fields of command ``cid`` replaced."""
    commands = list(timeline.commands)
    commands[cid] = dataclasses.replace(commands[cid], **fields)
    return Timeline(commands, timeline.stats)


class TestCheckTimeline:
    @pytest.mark.parametrize("forgery", sorted(_FORGERIES))
    def test_forged_start_names_the_broken_rule(self, forgery):
        rule, config, spec = _FORGERIES[forgery]
        stream = _forgery_stream(spec)
        timeline = EventEngine(config).simulate(stream)
        assert check_timeline(stream, timeline, config) == []

        last = len(stream) - 1
        duration = DurationModel.shared(config).duration(list(stream)[last])
        forged = _forged(timeline, last, start=0.0, end=duration)
        violations = check_timeline(stream, forged, config)
        assert violations
        assert all(v.startswith(f"{rule}: command {last} ") for v in violations), violations

    def test_idle_start_breaks_greedy(self, ianus_config):
        stream = _forgery_stream([(Unit.MATRIX_UNIT, ()), (Unit.VECTOR_UNIT, (0,))])
        timeline = EventEngine(ianus_config).simulate(stream)
        late = timeline.commands[1].start + 1e-9
        duration = DurationModel.shared(ianus_config).duration(list(stream)[1])
        forged = _forged(timeline, 1, start=late, end=late + duration)
        violations = check_timeline(stream, forged, ianus_config)
        assert len(violations) == 1 and violations[0].startswith("greedy: command 1 ")

    def test_wrong_end_breaks_duration(self, ianus_config):
        stream = _forgery_stream([(Unit.MATRIX_UNIT, ()), (Unit.VECTOR_UNIT, (0,))])
        timeline = EventEngine(ianus_config).simulate(stream)
        forged = _forged(timeline, 1, end=timeline.commands[1].end + 1e-9)
        violations = check_timeline(stream, forged, ianus_config)
        assert len(violations) == 1 and violations[0].startswith("duration: command 1 ")

    def test_wrong_counter_breaks_stats(self, ianus_config):
        stream = _forgery_stream([(Unit.DMA_LOAD, ()), (Unit.PIM, ())])
        timeline = EventEngine(ianus_config).simulate(stream)
        stats = dataclasses.replace(
            timeline.stats, offchip_read_bytes=timeline.stats.offchip_read_bytes + 1
        )
        violations = check_timeline(stream, Timeline(timeline.commands, stats), ianus_config)
        assert len(violations) == 1
        assert violations[0].startswith("stats: offchip_read_bytes ")

    def test_timeline_of_another_stream_is_reported(self, ianus_config):
        stream = _forgery_stream([(Unit.MATRIX_UNIT, ()), (Unit.VECTOR_UNIT, (0,))])
        other = _forgery_stream([(Unit.MATRIX_UNIT, ())])
        timeline = EventEngine(ianus_config).simulate(other)
        violations = check_timeline(stream, timeline, ianus_config)
        assert len(violations) == 1 and violations[0].startswith("commands: ")
