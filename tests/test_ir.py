"""Tests for the command IR (repro.ir)."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.ir import Command, CommandStream, OpKind, PimScope, ReplayedStream, Unit
from repro.scheduling import EventEngine


def make_stream(stream: CommandStream | None = None, width: int = 8) -> CommandStream:
    stream = CommandStream(label="test") if stream is None else stream
    load = stream.add(
        Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=128 * width, tag="FFN+Add"
    )
    compute = stream.add(
        Unit.MATRIX_UNIT, OpKind.FC_FFN1, flops=12.5 * width, dims=(1, 8, width),
        deps=[load], tag="FFN+Add", which="up",
    )
    stream.add(
        Unit.VECTOR_UNIT, OpKind.GELU, dims=(1, width), deps=[compute], tag="FFN+Add"
    )
    return stream


class TestCommandStreamConstruction:
    def test_ids_are_sequential(self):
        stream = make_stream()
        assert [c.cid for c in stream] == [0, 1, 2]

    def test_deps_accept_commands_and_ids(self):
        stream = CommandStream()
        first = stream.add(Unit.SYNC, OpKind.SYNC)
        second = stream.add(Unit.SYNC, OpKind.SYNC, deps=[first])
        third = stream.add(Unit.SYNC, OpKind.SYNC, deps=[0, second])
        assert second.deps == (0,)
        assert third.deps == (0, 1)

    def test_forward_dependency_rejected(self):
        stream = CommandStream()
        stream.add(Unit.SYNC, OpKind.SYNC)
        with pytest.raises(ValueError):
            stream.add(Unit.SYNC, OpKind.SYNC, deps=[5])

    def test_self_dependency_rejected(self):
        stream = CommandStream()
        stream.add(Unit.SYNC, OpKind.SYNC)
        with pytest.raises(ValueError):
            stream.add(Unit.SYNC, OpKind.SYNC, deps=[1])

    def test_duplicate_deps_are_collapsed(self):
        stream = CommandStream()
        first = stream.add(Unit.SYNC, OpKind.SYNC)
        second = stream.add(Unit.SYNC, OpKind.SYNC, deps=[first, first, 0])
        assert second.deps == (0,)

    def test_barrier_depends_on_everything(self):
        stream = make_stream()
        barrier = stream.barrier()
        assert barrier.deps == (0, 1, 2)
        assert barrier.unit is Unit.SYNC

    def test_metadata_is_stored(self):
        stream = CommandStream()
        command = stream.add(Unit.SYNC, OpKind.SYNC, head=3, which="K")
        assert command.metadata == {"head": 3, "which": "K"}

    def test_validate_passes_for_well_formed_stream(self):
        make_stream().validate()


class TestCommandStreamQueries:
    def test_by_unit(self):
        stream = make_stream()
        assert len(stream.by_unit(Unit.MATRIX_UNIT)) == 1
        assert len(stream.by_unit(Unit.PIM)) == 0

    def test_by_kind_and_tag(self):
        stream = make_stream()
        assert len(stream.by_kind(OpKind.GELU)) == 1
        assert len(stream.by_tag("FFN+Add")) == 3
        assert stream.tags() == {"FFN+Add"}

    def test_totals(self):
        stream = make_stream()
        assert stream.total_flops() == pytest.approx(100.0)
        assert stream.total_offchip_bytes() == 1024
        assert stream.total_pim_bytes() == 0

    def test_dependency_depth(self):
        stream = make_stream()
        assert stream.dependency_depth() == 2

    def test_getitem(self):
        stream = make_stream()
        assert stream[1].unit is Unit.MATRIX_UNIT


class TestCommandProperties:
    def test_offchip_detection(self):
        assert Command(0, Unit.DMA_LOAD, OpKind.WEIGHT_LOAD).is_offchip()
        assert Command(0, Unit.DMA_STORE, OpKind.KV_STORE).is_offchip()
        assert not Command(0, Unit.DMA_ONCHIP, OpKind.ONCHIP_MOVE).is_offchip()
        assert not Command(0, Unit.MATRIX_UNIT, OpKind.FC_QKV).is_offchip()

    def test_pim_detection(self):
        assert Command(0, Unit.PIM, OpKind.PIM_GEMV).is_pim()
        assert not Command(0, Unit.MATRIX_UNIT, OpKind.FC_QKV).is_pim()

    def test_default_pim_scope_is_all_chips(self):
        assert Command(0, Unit.PIM, OpKind.PIM_GEMV).pim_scope is PimScope.ALL_CHIPS


class TestStreamExtend:
    def test_extend_remaps_dependencies(self):
        first = make_stream()
        second = make_stream()
        mapping = first.extend(second)
        assert len(first) == 6
        assert mapping == {0: 3, 1: 4, 2: 5}
        # The extended compute command depends on the extended load command.
        assert first[4].deps == (3,)
        first.validate()


class TestReplayedStream:
    def test_replay_equals_a_fresh_build(self):
        template = make_stream()
        replay = make_stream(ReplayedStream(template, label="wide"), width=16)
        fresh = make_stream(width=16)
        assert replay.template is template
        assert list(replay) == list(fresh)
        assert replay[1] is list(replay)[1]
        assert replay.numbers() == fresh.numbers()
        replay.validate()

    def test_replay_of_a_replay_shares_the_template(self):
        template = make_stream()
        replay = make_stream(ReplayedStream(template), width=16)
        assert ReplayedStream(replay).template is template

    def test_structural_drift_raises(self):
        replay = ReplayedStream(make_stream())
        replay.add(Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=64)
        with pytest.raises(ValueError, match="diverged at command 1"):
            replay.add(Unit.PIM, OpKind.PIM_GEMV, dims=(1, 8, 8))

    def test_extra_command_raises(self):
        replay = make_stream(ReplayedStream(make_stream()))
        with pytest.raises(ValueError, match="has only 3"):
            replay.add(Unit.SYNC, OpKind.SYNC)

    def test_incomplete_replay_is_rejected(self):
        replay = ReplayedStream(make_stream())
        replay.add(Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=64)
        with pytest.raises(ValueError, match="1 of the template's 3"):
            replay.validate()
        with pytest.raises(ValueError, match="1 of its template's 3"):
            EventEngine(SystemConfig.ianus()).simulate(replay)
