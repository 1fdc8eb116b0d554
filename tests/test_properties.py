"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math
import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import Compiler
from repro.config import (
    AttentionMappingPolicy,
    PimConfig,
    SchedulingPolicy,
    SystemConfig,
)
from repro.core.system import IanusSystem
from repro.functional import PimFunctionalDevice, to_bf16
from repro.functional.reference import softmax
from repro.ir import CommandStream, OpKind, PimScope, ReplayedStream, Unit
from repro.models import get_model
from repro.models.workload import Stage, StagePass
from repro.npu import MatrixUnitModel, VectorUnitModel
from repro.pim import PimDeviceModel, TileMapping
from repro.scheduling import (
    DurationModel, EventEngine, ScheduledCommand, Timeline, check_timeline,
)
from repro.serving.request import CompletionRecord, to_ps, to_s
from repro.serving.simulator import request_aggregates
from repro.serving import trace as trace_module
from repro.serving.trace import (
    ConstantCurve,
    DiurnalCurve,
    FlashCrowdCurve,
    StepCurve,
    TraceCurve,
    get_trace_generator,
)

PIM = PimConfig()


# ----------------------------------------------------------------------
# PIM tiling
# ----------------------------------------------------------------------
@given(
    out_features=st.integers(min_value=1, max_value=4096),
    in_features=st.integers(min_value=1, max_value=4096),
)
@settings(max_examples=100, deadline=None)
def test_tile_mapping_covers_matrix_exactly_once(out_features, in_features):
    """Tiles partition the weight matrix: full coverage, no overlap."""
    mapping = TileMapping(PIM, out_features, in_features)
    covered = sum(tile.used_rows * tile.used_cols for tile in mapping.tiles())
    assert covered == out_features * in_features
    assert mapping.num_tiles == mapping.row_tiles * mapping.col_tiles
    assert 0 < covered * 2 <= mapping.storage_bytes()


@given(
    out_features=st.integers(min_value=1, max_value=2048),
    in_features=st.integers(min_value=1, max_value=2048),
)
@settings(max_examples=60, deadline=None)
def test_pim_gemv_time_monotone_in_matrix_size(out_features, in_features):
    """A strictly larger weight matrix never computes faster on the PIM."""
    device = PimDeviceModel(PIM)
    base = device.gemv_time(out_features, in_features)
    tile_rows = PIM.banks_per_channel * PIM.channels
    larger = device.gemv_time(out_features + tile_rows, in_features)
    assert larger >= base
    assert base > 0


@given(
    out_features=st.integers(min_value=1, max_value=2048),
    in_features=st.integers(min_value=1, max_value=2048),
    channels=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=40, deadline=None)
def test_fewer_pim_channels_never_compute_faster(out_features, in_features, channels):
    """A GEMV priced on part of the PIM (one chip, or the partitioned
    organisation's PIM region) is never faster than on all of it."""
    full = PimDeviceModel(PIM).gemv_time(out_features, in_features)
    part = PimDeviceModel(PIM, compute_channels=channels)
    assert part.gemv_time(out_features, in_features) >= full


# ----------------------------------------------------------------------
# NPU unit models
# ----------------------------------------------------------------------
@given(
    tokens=st.integers(min_value=1, max_value=512),
    d_in=st.integers(min_value=1, max_value=4096),
    d_out=st.integers(min_value=1, max_value=4096),
)
@settings(max_examples=100, deadline=None)
def test_matrix_unit_time_positive_and_monotone_in_tokens(tokens, d_in, d_out):
    mu = MatrixUnitModel(SystemConfig.ianus().core.matrix_unit)
    time = mu.matmul_time(tokens, d_in, d_out)
    assert time > 0
    assert mu.matmul_time(tokens + 128, d_in, d_out) >= time


@given(elements=st.integers(min_value=1, max_value=10**6),
       ops=st.floats(min_value=0.5, max_value=8.0))
@settings(max_examples=100, deadline=None)
def test_vector_unit_time_monotone_in_elements(elements, ops):
    # The operator kernels charge 0.5 (concat) to 5 (softmax) operations
    # an element; the drawn range covers them all.
    vu = VectorUnitModel(SystemConfig.ianus().core.vector_unit)
    assert vu._kernel_cycles(elements, ops) <= vu._kernel_cycles(elements * 2, ops)


#: Every vector-unit operator, as a function of its element count.
VECTOR_KERNELS = {
    "elementwise": lambda vu, n: vu.elementwise_time(n),
    "residual_add": lambda vu, n: vu.residual_add_time(1, n),
    "concat": lambda vu, n: vu.concat_time(n),
    "softmax": lambda vu, n: vu.softmax_time(1, n),
    "gelu": lambda vu, n: vu.gelu_time(1, n),
    "layernorm": lambda vu, n: vu.layernorm_time(1, n),
}


@pytest.mark.parametrize("kernel", sorted(VECTOR_KERNELS))
@given(elements=st.integers(min_value=1, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_vector_kernel_time_positive_and_monotone_in_elements(kernel, elements):
    vu = VectorUnitModel(SystemConfig.ianus().core.vector_unit)
    time = VECTOR_KERNELS[kernel]
    assert 0 < time(vu, elements) <= time(vu, elements * 2)


# ----------------------------------------------------------------------
# Serving metrics
# ----------------------------------------------------------------------
@given(
    latencies=st.lists(
        st.floats(min_value=1e-3, max_value=100.0), min_size=1, max_size=40
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_request_percentiles_ignore_completion_order(latencies, seed):
    """Means and percentiles depend on the latencies, not on the order
    requests completed in."""
    order = list(range(len(latencies)))
    shuffled = list(order)
    random.Random(seed).shuffle(shuffled)
    ticks = [to_ps(latency) for latency in latencies]
    records = []
    for ids in (order, shuffled):
        record = CompletionRecord()
        for i in ids:
            record.append(i, 0, ticks[i] // 2, ticks[i], 16, 4, 0, "")
        records.append(record)
    ours, theirs = (
        request_aggregates(record, None, "m", False) for record in records
    )
    for key in (
        "latency_mean_s", "latency_p50_s", "latency_p99_s",
        "ttft_mean_s", "ttft_p50_s", "ttft_p99_s", "tpot_mean_s",
    ):
        assert ours[key] == theirs[key], key
    assert to_s(min(ticks)) <= ours["latency_p50_s"] <= to_s(max(ticks))


# ----------------------------------------------------------------------
# Event engine invariants
# ----------------------------------------------------------------------
#: (configuration, devices) of each design whose blocks are compiled.  The
#: PIM-attention variant (Fig. 13) makes QK^T and SV, the KV-dependent
#: commands, PIM commands.
_DESIGNS = {
    "ianus": (SystemConfig.ianus(), 1),
    "npu-mem": (SystemConfig.npu_mem(), 1),
    "partitioned": (SystemConfig.partitioned(), 1),
    "partitioned-naive": (
        SystemConfig.partitioned(scheduling=SchedulingPolicy.NAIVE), 1
    ),
    "ianus-x2": (SystemConfig.ianus(), 2),
    "ianus-naive": (SystemConfig.ianus(scheduling=SchedulingPolicy.NAIVE), 1),
    "ianus-pim-attention": (
        SystemConfig.ianus(attention_mapping=AttentionMappingPolicy.PIM), 1
    ),
}

#: The designs with PIM compute, which random streams (with PIM commands)
#: are scheduled under.
_PIM_DESIGNS = sorted(
    name for name, (config, _) in _DESIGNS.items() if config.pim_compute_enabled
)


@st.composite
def random_streams(draw):
    """Random small DAGs of commands across all unit types."""
    stream = CommandStream(label="random")
    length = draw(st.integers(min_value=1, max_value=25))
    units = [
        (Unit.MATRIX_UNIT, OpKind.FC_QKV, (4, 256, 256), {}),
        (Unit.VECTOR_UNIT, OpKind.LAYERNORM, (4, 256), {}),
        (Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, (), {}),
        (Unit.DMA_STORE, OpKind.KV_STORE, (), {}),
        (Unit.DMA_ONCHIP, OpKind.ONCHIP_MOVE, (), {}),
        (Unit.PIM, OpKind.PIM_GEMV, (1, 256, 256), {}),
        (Unit.PIM, OpKind.PIM_GEMV, (1, 256, 64), {"pim_scope": PimScope.SINGLE_CHIP}),
        (Unit.SYNC, OpKind.SYNC, (), {}),
    ]
    for index in range(length):
        unit, kind, dims, scope = draw(st.sampled_from(units))
        if scope:
            scope = {**scope, "pim_chip": draw(st.integers(min_value=0, max_value=7))}
        num_deps = draw(st.integers(min_value=0, max_value=min(3, index)))
        deps = draw(
            st.lists(
                st.integers(min_value=0, max_value=index - 1),
                min_size=num_deps, max_size=num_deps, unique=True,
            )
        ) if index else []
        stream.add(unit, kind, dims=dims, bytes_moved=4096, deps=deps, **scope)
    return stream


@st.composite
def random_design_streams(draw):
    """(configuration, stream): a random stream under a design with PIM."""
    config, _ = _DESIGNS[draw(st.sampled_from(_PIM_DESIGNS))]
    return config, draw(random_streams())


@st.composite
def compiled_blocks(draw):
    """(configuration, stream): a compiled block of one design, GPT-2 size,
    stage and KV length."""
    config, devices = _DESIGNS[draw(st.sampled_from(sorted(_DESIGNS)))]
    model = get_model(draw(st.sampled_from(["gpt2-m", "gpt2-xl", "gpt2-2.5b"])))
    if draw(st.booleans()):
        stage, tokens = Stage.GENERATION, 1
    else:
        stage, tokens = Stage.SUMMARIZATION, draw(st.integers(1, 512))
    kv = draw(st.integers(min_value=tokens, max_value=2048))
    compiler = Compiler(config, DurationModel.shared(config), num_devices=devices)
    return config, compiler.compile_block(model, StagePass(stage, tokens, kv)).stream


@given(case=st.one_of(compiled_blocks(), random_design_streams()))
@settings(max_examples=300, deadline=None)
def test_event_engine_timelines_pass_the_checker(case):
    """Every timeline the engine builds keeps the contract check_timeline
    states.  Both halves are needed: in compiled blocks a compiler
    dependency always gives an off-chip DMA the start the DMA-after-PIM
    wait gives it, so only random streams tell that wait apart."""
    config, stream = case
    timeline = EventEngine(config).simulate(stream)
    assert check_timeline(stream, timeline, config) == []


@given(stream=random_streams())
@settings(max_examples=30, deadline=None)
def test_naive_schedule_never_faster_than_pas(stream):
    from repro.config import SchedulingPolicy

    pas = EventEngine(SystemConfig.ianus()).simulate(stream).makespan
    naive = EventEngine(
        SystemConfig.ianus(scheduling=SchedulingPolicy.NAIVE)
    ).simulate(stream).makespan
    assert naive >= pas - 1e-12


# ----------------------------------------------------------------------
# Event engine columns
# ----------------------------------------------------------------------
def _pim_dims(draw):
    shape = (st.sampled_from([64, 256, 1024]),) * 2
    return (st.integers(1, 4), *shape) if draw(st.booleans()) else shape


#: (unit, kind, draw of its dims' strategies) of every command kind a random
#: template draws from; the PIM kinds only under a design with PIM compute.
_COLUMN_KINDS = [
    (Unit.MATRIX_UNIT, OpKind.FC_QKV, lambda draw: (st.integers(1, 1024),) * 3),
    (Unit.VECTOR_UNIT, OpKind.LAYERNORM,
     lambda draw: (st.integers(1, 8), st.integers(1, 4096))),
    (Unit.VECTOR_UNIT, OpKind.SOFTMAX,
     lambda draw: (st.integers(1, 8), st.integers(1, 4096))),
    (Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, lambda draw: ()),
    (Unit.DMA_STORE, OpKind.KV_STORE, lambda draw: ()),
    (Unit.DMA_ONCHIP, OpKind.ONCHIP_MOVE, lambda draw: ()),
    (Unit.DMA_ONCHIP, OpKind.KEY_TRANSPOSE, lambda draw: ()),
    (Unit.SYNC, OpKind.SYNC, lambda draw: ()),
    (Unit.HOST, OpKind.DEVICE_COMM, lambda draw: (st.integers(2, 4),)),
    (Unit.PIM, OpKind.PIM_GEMV, _pim_dims),
    (Unit.PIM, OpKind.PIM_GEMV_GELU, _pim_dims),
]

_BYTES = st.one_of(st.just(0), st.integers(1, 1 << 22))
_FLOPS = st.floats(min_value=0.0, max_value=1e12)


def _number(draw, strategy, count, dtype):
    """A scalar, or a column of ``count`` numbers, drawn from ``strategy``."""
    if draw(st.booleans()):
        return draw(strategy)
    return np.array([draw(strategy) for _ in range(count)], dtype=dtype)


def _column(number, k):
    """Entry ``k`` of a scalar or a column, as a Python number."""
    return number.tolist()[k] if isinstance(number, np.ndarray) else number


@st.composite
def replayed_templates(draw):
    """(configuration, column replay, passes): a random template of up to
    25 commands under one design, one replay of it with 1-8 columns (each
    FLOPs, bytes and dims entry a scalar or a column: zero bytes included),
    and each column as a replay of Python numbers."""
    config, _ = _DESIGNS[draw(st.sampled_from(sorted(_DESIGNS)))]
    kinds = [
        entry for entry in _COLUMN_KINDS
        if config.pim_compute_enabled or entry[0] is not Unit.PIM
    ]
    shape = []
    for index in range(draw(st.integers(min_value=1, max_value=25))):
        unit, kind, dims = draw(st.sampled_from(kinds))
        deps = draw(st.lists(
            st.integers(0, index - 1), max_size=min(3, index), unique=True
        )) if index else []
        options = {}
        if unit is Unit.PIM:
            options["fused_activation"] = kind is OpKind.PIM_GEMV_GELU
            if draw(st.booleans()):
                options["pim_scope"] = PimScope.SINGLE_CHIP
                options["pim_chip"] = draw(st.integers(0, 7))
        tag = draw(st.sampled_from(["", "A", "B"]))
        shape.append((unit, kind, dims(draw), deps, tag, options))
    template = CommandStream(label="template")
    for unit, kind, dims, deps, tag, options in shape:
        template.add(
            unit, kind, dims=tuple(draw(dim) for dim in dims),
            bytes_moved=draw(_BYTES), flops=draw(_FLOPS),
            deps=deps, tag=tag, **options,
        )
    count = draw(st.integers(min_value=1, max_value=8))
    commands = [
        (
            _number(draw, _FLOPS, count, np.float64),
            _number(draw, _BYTES, count, np.int64),
            tuple(_number(draw, dim, count, np.int64) for dim in dims),
        )
        for _, _, dims, _, _, _ in shape
    ]
    streams = [ReplayedStream(template, "range", columns=count)] + [
        ReplayedStream(template, f"column {k}") for k in range(count)
    ]
    for (unit, kind, _, deps, tag, options), (flops, bytes_moved, dims) in zip(
        shape, commands
    ):
        streams[0].add(
            unit, kind, flops=flops, bytes_moved=bytes_moved, dims=dims,
            deps=deps, tag=tag, **options,
        )
        for k, stream in enumerate(streams[1:]):
            stream.add(
                unit, kind, flops=_column(flops, k),
                bytes_moved=_column(bytes_moved, k),
                dims=tuple(_column(dim, k) for dim in dims),
                deps=deps, tag=tag, **options,
            )
    return config, streams[0], streams[1:]


@st.composite
def compiled_ranges(draw):
    """(configuration, column replay, passes): one design's block of GPT-2
    M/XL/2.5B or Gemma 2B, for either stage, compiled by one compiler as a
    range of 1-8 KV lengths and at each of them alone."""
    config, devices = _DESIGNS[draw(st.sampled_from(sorted(_DESIGNS)))]
    model = get_model(draw(st.sampled_from(["gpt2-m", "gpt2-xl", "gpt2-2.5b", "gemma-2b"])))
    if draw(st.booleans()):
        stage, tokens = Stage.GENERATION, 1
    else:
        stage, tokens = Stage.SUMMARIZATION, draw(st.integers(1, 512))
    kvs = draw(st.lists(st.integers(tokens, 2048), min_size=1, max_size=8, unique=True))
    passes = [StagePass(stage, tokens, kv) for kv in kvs]
    compiler = Compiler(config, DurationModel.shared(config), num_devices=devices)
    return config, compiler.compile_range(model, passes).stream, [
        compiler.compile_block(model, stage_pass).stream for stage_pass in passes
    ]


_STATS_TYPES = [int, int, int, int, float, float, int, int]


@given(case=st.one_of(replayed_templates(), compiled_ranges()))
@settings(max_examples=200, deadline=None)
def test_each_column_equals_its_stream_simulated_alone(case):
    """simulate_range schedules the K passes of one column replay as
    columns; each column equals simulate() of its pass alone with ==, as
    Python numbers, and keeps check_timeline's contract.  Random templates
    are needed: compiled blocks never tell the DMA-after-PIM wait apart (see
    the checker test)."""
    config, columns_stream, streams = case
    durations = DurationModel.shared(config)
    columns = EventEngine(config, durations).simulate_range(columns_stream)
    reference = EventEngine(config, durations)
    assert len(columns.makespans) == len(streams)
    for k, stream in enumerate(streams):
        timeline = reference.simulate(stream)
        starts, ends = columns.starts[k].tolist(), columns.ends[k].tolist()
        assert starts == [c.start for c in timeline.commands]
        assert ends == [c.end for c in timeline.commands]
        assert type(columns.makespans[k]) is float
        assert columns.makespans[k] == timeline.makespan
        breakdown = columns.breakdowns[k]
        assert list(breakdown.items()) == list(timeline.breakdown_by_tag().items())
        assert all(type(value) is float for value in breakdown.values())
        stats = columns.stats[k]
        assert astuple(stats) == astuple(timeline.stats)
        assert [type(value) for value in astuple(stats)] == _STATS_TYPES
        assert type(columns.flops[k]) is float
        assert columns.flops[k] == timeline.total_flops()
        scheduled = Timeline([
            ScheduledCommand(c.cid, c.unit, c.kind, c.tag, start, end, c.flops, c.bytes_moved)
            for c, start, end in zip(stream, starts, ends)
        ], stats)
        assert check_timeline(stream, scheduled, config) == []


@pytest.mark.parametrize("model_name", ["gpt2-m", "gpt2-xl", "gpt2-2.5b", "gemma-2b"])
@pytest.mark.parametrize("design", sorted(_DESIGNS))
@given(kvs=st.lists(st.integers(1, 2048), min_size=1, max_size=16, unique=True))
@settings(max_examples=6, deadline=None)
def test_range_columns_equal_the_passes_compiled_alone(design, model_name, kvs):
    """compile_range runs the generation builders once with the KV lengths
    as a column: entry k of every command's FLOPs, bytes and dims equals
    what compile_block records at the k-th length (any order, any gaps),
    and only KV-dependent numbers are columns."""
    config, devices = _DESIGNS[design]
    model = get_model(model_name)
    compiler = Compiler(config, DurationModel.shared(config), num_devices=devices)
    passes = [StagePass(Stage.GENERATION, 1, kv) for kv in kvs]
    columns = compiler.compile_range(model, passes).stream
    assert columns.columns == len(kvs)
    flops, bytes_moved, dims = columns.numbers()
    for k, stage_pass in enumerate(passes):
        alone = compiler.compile_block(model, stage_pass).stream.numbers()
        assert [_column(value, k) for value in flops] == alone[0]
        assert [_column(value, k) for value in bytes_moved] == alone[1]
        assert [tuple(_column(dim, k) for dim in shape) for shape in dims] == alone[2]
    # A column differs between lengths: every KV-dependent number is affine
    # in the KV length, and no number that is not is held as a column.
    entries = [*flops, *bytes_moved, *(dim for shape in dims for dim in shape)]
    arrays = [entry for entry in entries if isinstance(entry, np.ndarray)]
    assert arrays
    if len(kvs) > 1:
        assert all(len(set(array.tolist())) > 1 for array in arrays)


# ----------------------------------------------------------------------
# Block templates
# ----------------------------------------------------------------------
@st.composite
def block_passes(draw):
    """(model, design, pass, template pass): a generation pass at KV
    1-2048 or a summarization pass with KV >= tokens, and the same (model,
    stage, tokens) at another KV length for the template."""
    model = get_model(draw(st.sampled_from(["gpt2-m", "gpt2-xl", "gpt2-2.5b"])))
    design = draw(st.sampled_from(sorted(_DESIGNS)))
    if draw(st.booleans()):
        stage, tokens = Stage.GENERATION, 1
    else:
        stage, tokens = Stage.SUMMARIZATION, draw(st.integers(1, 512))
    kv = draw(st.integers(min_value=tokens, max_value=2048))
    template_kv = draw(
        st.integers(min_value=tokens, max_value=2048).filter(lambda x: x != kv)
    )
    return (
        model, design, StagePass(stage, tokens, kv),
        StagePass(stage, tokens, template_kv),
    )


@given(case=block_passes())
@settings(max_examples=150, deadline=None)
def test_replayed_block_equals_fresh_compile(case):
    """A block replayed from a template built at another KV length equals
    the block a fresh compiler builds: the same commands, the same schedule
    under a PAS and a naive engine, and the same priced pass."""
    model, design, stage_pass, template_pass = case
    config, devices = _DESIGNS[design]
    durations = DurationModel.shared(config)
    compiler = Compiler(config, durations, num_devices=devices)
    template = compiler.compile_block(model, template_pass)
    replayed = compiler.compile_block(model, stage_pass)
    fresh = Compiler(config, durations, num_devices=devices).compile_block(
        model, stage_pass
    )
    assert isinstance(replayed.stream, ReplayedStream)
    assert replayed.stream.template is template.stream
    assert replayed.partition == fresh.partition
    assert replayed.fc_units == fresh.fc_units
    assert replayed.stream.label == fresh.stream.label
    assert list(replayed.stream) == list(fresh.stream)

    # One stream scheduled on a PAS and a naive engine: each engine prepares
    # the template's structure for itself.
    for policy in SchedulingPolicy:
        engine_config = config.variant(scheduling=policy)
        engine = EventEngine(engine_config)
        engine.simulate(template.stream)
        got = engine.simulate(replayed.stream)
        want = EventEngine(engine_config).simulate(fresh.stream)
        assert got.commands == want.commands
        assert got.stats == want.stats
        assert got.breakdown_by_tag() == want.breakdown_by_tag()
        assert got.total_flops() == want.total_flops()

    system = IanusSystem(config, num_devices=devices, pass_cache=None)
    system._pass_cost(model, template_pass)
    cold = IanusSystem(config, num_devices=devices, pass_cache=None)
    assert system._pass_cost(model, stage_pass) == cold._pass_cost(model, stage_pass)


# ----------------------------------------------------------------------
# Functional numerics
# ----------------------------------------------------------------------
@given(
    rows=st.integers(min_value=1, max_value=80),
    cols=st.integers(min_value=1, max_value=1200),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_pim_functional_gemv_matches_bf16_matmul(rows, cols, seed):
    rng = np.random.default_rng(seed)
    weights = (rng.standard_normal((rows, cols)) * 0.1).astype(np.float32)
    x = rng.standard_normal(cols).astype(np.float32)
    device = PimFunctionalDevice(PIM)
    device.store_weight("w", weights)
    result = device.gemv("w", x)
    reference = to_bf16(weights).astype(np.float32) @ to_bf16(x).astype(np.float32)
    assert np.allclose(result, reference, rtol=3e-2, atol=3e-2)


@given(
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_softmax_is_a_probability_distribution(rows, cols, seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((rows, cols)).astype(np.float32) * 10
    probabilities = softmax(scores)
    assert np.all(probabilities >= 0)
    assert np.allclose(probabilities.sum(axis=-1), 1.0, atol=1e-5)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=50, deadline=None)
def test_bf16_quantisation_idempotent_and_bounded(seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(128) * rng.choice([1e-3, 1.0, 1e3])).astype(np.float32)
    quantised = to_bf16(x)
    assert np.array_equal(to_bf16(quantised), quantised)
    nonzero = np.abs(x) > 0
    relative = np.abs(quantised[nonzero] - x[nonzero]) / np.abs(x[nonzero])
    assert np.all(relative <= 2.0 ** -8)


# ----------------------------------------------------------------------
# Workload expansion
# ----------------------------------------------------------------------
@given(
    input_tokens=st.integers(min_value=1, max_value=2048),
    output_tokens=st.integers(min_value=0, max_value=512),
)
@settings(max_examples=100, deadline=None)
def test_workload_stage_expansion_invariants(input_tokens, output_tokens):
    from repro.models import Stage, Workload

    workload = Workload(input_tokens, output_tokens)
    stages = list(workload.stages())
    assert stages[0].stage is Stage.SUMMARIZATION
    assert len(stages) == 1 + max(0, output_tokens - 1)
    assert sum(s.num_tokens for s in stages) == input_tokens + max(0, output_tokens - 1)
    kv_lengths = [s.kv_length for s in stages]
    assert kv_lengths == sorted(kv_lengths)
    assert kv_lengths[-1] <= workload.total_tokens


# ----------------------------------------------------------------------
# Arrival-curve inversion
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "curve",
    [
        ConstantCurve(scale=1.5),
        DiurnalCurve(period_s=10.0, amplitude=0.6, phase_s=1.0),
        FlashCrowdCurve(start_s=1.0, duration_s=2.0, magnitude=3.0),
        StepCurve(at_s=1.0, before=1.0, after=2.0),
    ],
    ids=lambda curve: curve.name,
)
def test_curve_exposure_integrates_its_multiplier(curve):
    """``exposure`` is the integral of ``multiplier`` and ``min_multiplier``
    bounds it: the definitions the reference inversion below relies on."""
    t0, t1, steps = 0.3, 7.9, 20_000
    width = (t1 - t0) / steps
    rates = [curve.multiplier(t0 + (i + 0.5) * width) for i in range(steps)]
    assert curve.exposure(t0, t1) == pytest.approx(sum(rates) * width, rel=1e-3)
    assert min(rates) >= curve.min_multiplier() > 0.0


def _reference_advance(curve, t0, area):
    """The fixed 100-iteration bisection over ``curve.exposure`` that
    ``TraceCurve.advance`` ran before it stopped early: the oracle that
    every curve's inversion must match bit for bit."""
    if area <= 0.0:
        return t0
    low = t0
    high = t0 + area / curve.min_multiplier()
    for _ in range(100):
        mid = 0.5 * (low + high)
        if curve.exposure(t0, mid) < area:
            low = mid
        else:
            high = mid
    return high


_KNOB = st.floats(min_value=1e-3, max_value=1e3)
_OFFSET = st.floats(min_value=-1e3, max_value=1e4)


@st.composite
def curves_with_edges(draw):
    """A random valid diurnal, flash-crowd or step curve and the instants
    where its multiplier jumps (none for the smooth diurnal curve)."""
    kind = draw(st.sampled_from(["diurnal", "flash-crowd", "step"]))
    if kind == "diurnal":
        curve = DiurnalCurve(
            period_s=draw(st.floats(min_value=1e-3, max_value=1e6)),
            amplitude=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
            phase_s=draw(_OFFSET),
        )
        return curve, []
    if kind == "flash-crowd":
        curve = FlashCrowdCurve(
            start_s=draw(_OFFSET),
            duration_s=draw(st.floats(min_value=1e-3, max_value=1e4)),
            magnitude=draw(_KNOB),
        )
        return curve, [curve.start_s, curve.start_s + curve.duration_s]
    curve = StepCurve(at_s=draw(_OFFSET), before=draw(_KNOB), after=draw(_KNOB))
    return curve, [curve.at_s]


@st.composite
def inversions(draw):
    """(curve, t0, area): ``t0`` is a random instant or a jump edge of the
    curve, exactly or one ulp either side; ``area`` spans 1e-300 to 1e6."""
    curve, edges = draw(curves_with_edges())
    random_t0 = st.floats(min_value=-1e3, max_value=1e5)
    if edges:
        edge = st.sampled_from(edges).flatmap(
            lambda x: st.sampled_from(
                [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
            )
        )
        t0 = draw(st.one_of(random_t0, edge))
    else:
        t0 = draw(random_t0)
    area = draw(
        st.one_of(
            st.floats(min_value=1e-300, max_value=1e6),
            st.floats(min_value=-300.0, max_value=6.0).map(lambda e: 10.0 ** e),
        )
    )
    return curve, t0, area


@given(case=inversions())
@settings(max_examples=400, deadline=None)
def test_curve_advance_equals_fixed_iteration_bisection(case):
    """Stopping once the bracket cannot shrink (and the diurnal curve's
    hoisted loop) returns exactly what 100 iterations return."""
    curve, t0, area = case
    expected = _reference_advance(curve, t0, area)
    assert curve.advance(t0, area) == expected
    assert TraceCurve.advance(curve, t0, area) == expected
    assert curve.advance(t0, 0.0) == t0
    assert curve.advance(t0, -area) == t0


class _ReferenceDiurnal(DiurnalCurve):
    """A diurnal curve inverted by :func:`_reference_advance`."""

    def advance(self, t0, area):
        return _reference_advance(self, t0, area)


#: Diurnal streams of the ``chatbot`` mix: (requests, rate, seed, knobs).
_DIURNAL_STREAMS = {
    # CI's day (``--trace-curve diurnal:period-s=440,amplitude=0.8,
    # phase-s=110``, 3,000 requests at seed 3), its requests over one period.
    "ci-day": (3_000, 3_000 / 440.0, 3, dict(period_s=440.0, amplitude=0.8, phase_s=110.0)),
    # serve-day's shape: one period over the horizon, from the trough.
    "serve-day": (8_000, 20.0, 1, dict(period_s=400.0, amplitude=0.8, phase_s=100.0)),
}


@pytest.mark.parametrize("stream", sorted(_DIURNAL_STREAMS))
def test_diurnal_stream_equals_the_reference_bisection(stream):
    """Every arrival of a diurnal day equals, one by one, the arrival the
    100-iteration bisection gives: the band settles only midpoints whose
    comparison it has proven, at the scale a day runs."""
    requests, rate, seed, knobs = _DIURNAL_STREAMS[stream]
    generator = get_trace_generator("chatbot")
    arrivals = [
        request.arrival_s
        for request in generator.generate(requests, rate, seed=seed, curve=DiurnalCurve(**knobs))
    ]
    expected = [
        request.arrival_s
        for request in generator.generate(
            requests, rate, seed=seed, curve=_ReferenceDiurnal(**knobs)
        )
    ]
    mismatches = [i for i, (a, b) in enumerate(zip(arrivals, expected)) if a != b]
    assert not mismatches, f"{len(mismatches)} arrivals differ, first at {mismatches[0]}"
    assert len(arrivals) == len(expected) == requests


@st.composite
def hard_diurnal_inversions(draw):
    """(curve, t0, area) where the band is hardest to get right: amplitudes
    on both sides of its 0.999 cap; ``t0`` at or within 4 ulps of 0, of
    a power of two, or of a phase crossing up to 1e4 periods on; areas
    from 2**-8 to 2**8 times where the band's gate opens."""
    period = draw(st.floats(min_value=1e-3, max_value=1e6))
    amplitude = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=0.99),
            st.floats(min_value=0.99, max_value=1.0, exclude_max=True),
        )
    )
    phase = draw(_OFFSET)
    t0 = draw(
        st.one_of(
            st.just(0.0),
            st.builds(
                lambda sign, exponent: sign * 2.0**exponent,
                st.sampled_from([-1.0, 1.0]),
                st.integers(min_value=-60, max_value=60),
            ),
            st.integers(min_value=0, max_value=10_000).map(lambda k: phase + k * period),
        )
    )
    direction = draw(st.sampled_from([-math.inf, math.inf]))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        t0 = math.nextafter(t0, direction)
    # The gate opens where 2**16 times the error bound reaches the area:
    # about 2**-36 * swing * (3|theta0| + 4) for a small bracket.
    swing = amplitude * period / (2.0 * math.pi)
    theta0 = 2.0 * math.pi * (t0 - phase) / period
    gate = 2.0**-36 * swing * (3.0 * abs(theta0) + 4.0) + 2.0**-1000
    area = gate * 2.0 ** draw(st.floats(min_value=-8.0, max_value=8.0))
    return DiurnalCurve(period_s=period, amplitude=amplitude, phase_s=phase), t0, area


@given(case=hard_diurnal_inversions())
@settings(max_examples=400, deadline=None)
def test_diurnal_band_holds_in_its_hard_regions(case):
    curve, t0, area = case
    assert curve.advance(t0, area) == _reference_advance(curve, t0, area)


class _CountingMath:
    """The ``math`` module, counting ``cos`` calls."""

    def __init__(self):
        self.cos_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, x):
        self.cos_calls += 1
        return math.cos(x)


def test_diurnal_advance_calls_cos_only_near_the_root(monkeypatch):
    """On CI's day the band engages: ``advance`` averages at most 15
    ``cos`` calls, where evaluating every midpoint takes ~43."""
    requests, rate, seed, knobs = _DIURNAL_STREAMS["ci-day"]
    counting = _CountingMath()
    monkeypatch.setattr(trace_module, "math", counting)
    get_trace_generator("chatbot").generate(
        requests, rate, seed=seed, curve=DiurnalCurve(**knobs)
    )
    # One ``advance`` call per request.
    assert counting.cos_calls <= 15 * requests


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
