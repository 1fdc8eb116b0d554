"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

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
from repro.ir import CommandStream, OpKind, ReplayedStream, Unit
from repro.models import get_model
from repro.models.workload import Stage, StagePass
from repro.npu import MatrixUnitModel, VectorUnitModel
from repro.pim import AddressMapping, PimDeviceModel, TileMapping
from repro.scheduling import DurationModel, EventEngine
from repro.serving.trace import DiurnalCurve, FlashCrowdCurve, StepCurve, TraceCurve

PIM = PimConfig()
MAPPING = AddressMapping(PIM)


# ----------------------------------------------------------------------
# Address mapping and tiling
# ----------------------------------------------------------------------
@given(
    row=st.integers(min_value=0, max_value=MAPPING.num_rows - 1),
    channel=st.integers(min_value=0, max_value=PIM.channels - 1),
    bank=st.integers(min_value=0, max_value=PIM.banks_per_channel - 1),
    column=st.integers(min_value=0, max_value=PIM.row_bytes // 32 - 1),
    offset=st.integers(min_value=0, max_value=31),
)
@settings(max_examples=200, deadline=None)
def test_address_mapping_round_trip(row, channel, bank, column, offset):
    """encode/decode is a bijection over the whole address space."""
    address = MAPPING.encode(row, channel, bank, column, offset)
    decoded = MAPPING.decode(address)
    assert (decoded.row, decoded.channel, decoded.bank, decoded.column, decoded.offset) == (
        row, channel, bank, column, offset,
    )
    assert 0 <= address < MAPPING.capacity_bytes


@given(
    out_features=st.integers(min_value=1, max_value=4096),
    in_features=st.integers(min_value=1, max_value=4096),
)
@settings(max_examples=100, deadline=None)
def test_tile_mapping_covers_matrix_exactly_once(out_features, in_features):
    """Tiles partition the weight matrix: full coverage, no overlap."""
    mapping = TileMapping(PIM, out_features, in_features)
    covered = sum(tile.weight_elements for tile in mapping.tiles())
    assert covered == out_features * in_features
    assert mapping.num_tiles == mapping.row_tiles * mapping.col_tiles
    assert 0 < mapping.utilization() <= 1.0


@given(
    out_features=st.integers(min_value=1, max_value=2048),
    in_features=st.integers(min_value=1, max_value=2048),
)
@settings(max_examples=60, deadline=None)
def test_pim_gemv_time_monotone_in_matrix_size(out_features, in_features):
    """A strictly larger weight matrix never computes faster on the PIM."""
    device = PimDeviceModel(PIM)
    base = device.gemv_time(out_features, in_features)
    larger = device.gemv_time(out_features + PIM.tile_rows, in_features)
    assert larger >= base
    assert base > 0


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
    assert mu.estimate(tokens, d_in, d_out).utilization <= 1.0


@given(elements=st.integers(min_value=1, max_value=10**6),
       ops=st.floats(min_value=0.5, max_value=8.0))
@settings(max_examples=100, deadline=None)
def test_vector_unit_time_monotone_in_elements(elements, ops):
    vu = VectorUnitModel(SystemConfig.ianus().core.vector_unit)
    assert vu.elementwise_time(elements, ops) <= vu.elementwise_time(elements * 2, ops)


# ----------------------------------------------------------------------
# Event engine invariants
# ----------------------------------------------------------------------
@st.composite
def random_streams(draw):
    """Random small DAGs of commands across all unit types."""
    stream = CommandStream(label="random")
    length = draw(st.integers(min_value=1, max_value=25))
    units = [
        (Unit.MATRIX_UNIT, OpKind.FC_QKV, (4, 256, 256)),
        (Unit.VECTOR_UNIT, OpKind.LAYERNORM, (4, 256)),
        (Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, ()),
        (Unit.DMA_STORE, OpKind.KV_STORE, ()),
        (Unit.PIM, OpKind.PIM_GEMV, (1, 256, 256)),
        (Unit.SYNC, OpKind.SYNC, ()),
    ]
    for index in range(length):
        unit, kind, dims = draw(st.sampled_from(units))
        num_deps = draw(st.integers(min_value=0, max_value=min(3, index)))
        deps = draw(
            st.lists(
                st.integers(min_value=0, max_value=index - 1),
                min_size=num_deps, max_size=num_deps, unique=True,
            )
        ) if index else []
        stream.add(unit, kind, dims=dims, bytes_moved=4096, deps=deps)
    return stream


@given(stream=random_streams())
@settings(max_examples=60, deadline=None)
def test_event_engine_respects_dependencies_and_resources(stream):
    engine = EventEngine(SystemConfig.ianus())
    timeline = engine.simulate(stream)
    scheduled = {c.cid: c for c in timeline.commands}
    # Dependencies are respected.
    for command in stream:
        for dep in command.deps:
            assert scheduled[command.cid].start >= scheduled[dep].end - 1e-12
    # Commands on the same single-instance unit never overlap.
    for unit in (Unit.MATRIX_UNIT, Unit.VECTOR_UNIT, Unit.DMA_LOAD, Unit.DMA_STORE):
        windows = sorted(
            (c.start, c.end) for c in timeline.commands if c.unit is unit
        )
        for (s1, e1), (s2, _) in zip(windows, windows[1:]):
            assert s2 >= e1 - 1e-12
    # The makespan bounds every command.
    assert all(c.end <= timeline.makespan + 1e-12 for c in timeline.commands)


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
# Block templates
# ----------------------------------------------------------------------
#: (configuration, devices) of each design whose blocks are replayed.  The
#: PIM-attention variant (Fig. 13) makes QK^T and SV, the KV-dependent
#: commands, PIM commands.
_DESIGNS = {
    "ianus": (SystemConfig.ianus(), 1),
    "npu-mem": (SystemConfig.npu_mem(), 1),
    "partitioned": (SystemConfig.partitioned(), 1),
    "ianus-x2": (SystemConfig.ianus(), 2),
    "ianus-naive": (SystemConfig.ianus(scheduling=SchedulingPolicy.NAIVE), 1),
    "ianus-pim-attention": (
        SystemConfig.ianus(attention_mapping=AttentionMappingPolicy.PIM), 1
    ),
}


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

    # compare_with_naive schedules one stream on a PAS and a naive engine;
    # each engine prepares the template's structure for itself.
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


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
