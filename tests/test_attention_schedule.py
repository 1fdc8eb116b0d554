"""Direct unit tests of the Fig. 7 multi-head-attention schedule builders."""

from __future__ import annotations

import pytest

from repro.compiler.attention_schedule import (
    AttentionContext,
    build_generation_attention_mu,
    build_generation_attention_pim,
    build_summarization_attention,
)
from repro.config import FcMappingPolicy, SchedulingPolicy, SystemConfig
from repro.ir import CommandStream, OpKind, Unit
from repro.models import GPT2_CONFIGS

from test_compiler import dependency_depth, of_kind, on_unit, with_tag


def make_context(
    *,
    stage_tokens: int,
    kv_length: int,
    qkv_unit: FcMappingPolicy = FcMappingPolicy.PIM,
    scheduling: SchedulingPolicy = SchedulingPolicy.PAS,
    heads: int = 3,
) -> AttentionContext:
    config = SystemConfig.ianus(scheduling=scheduling)
    return AttentionContext(
        model=GPT2_CONFIGS["xl"],
        config=config,
        num_tokens=stage_tokens,
        kv_length=kv_length,
        heads_on_core=heads,
        pim_chip=0,
        qkv_unit=qkv_unit,
    )


def fresh_stream() -> tuple[CommandStream, "object"]:
    stream = CommandStream(label="attention-test")
    root = stream.add(Unit.SYNC, OpKind.SYNC, tag="LayerNorm")
    return stream, root


class TestSummarizationSchedule:
    def test_per_head_operator_counts(self):
        stream, root = fresh_stream()
        ctx = make_context(stage_tokens=128, kv_length=128,
                           qkv_unit=FcMappingPolicy.MATRIX_UNIT, heads=4)
        build_summarization_attention(stream, ctx, root)
        assert len(of_kind(stream, OpKind.QKT)) == 4
        assert len(of_kind(stream, OpKind.SV)) == 4
        assert len(of_kind(stream, OpKind.SOFTMAX)) == 4
        assert len(of_kind(stream, OpKind.KEY_TRANSPOSE)) == 4
        # Q, K, V projections per head, all on the matrix unit.
        assert len(of_kind(stream, OpKind.FC_QKV)) == 12

    def test_returns_merge_sync_depending_on_all_heads(self):
        stream, root = fresh_stream()
        ctx = make_context(stage_tokens=64, kv_length=64,
                           qkv_unit=FcMappingPolicy.MATRIX_UNIT, heads=2)
        merge = build_summarization_attention(stream, ctx, root)
        assert merge.unit is Unit.SYNC
        sv_ids = {c.cid for c in of_kind(stream, OpKind.SV)}
        assert sv_ids <= set(merge.deps)

    def test_pas_prefetches_next_head_weights(self):
        pas_stream, pas_root = fresh_stream()
        ctx = make_context(stage_tokens=64, kv_length=64,
                           qkv_unit=FcMappingPolicy.MATRIX_UNIT, heads=3)
        build_summarization_attention(pas_stream, ctx, pas_root)

        naive_stream, naive_root = fresh_stream()
        naive_ctx = make_context(stage_tokens=64, kv_length=64,
                                 qkv_unit=FcMappingPolicy.MATRIX_UNIT, heads=3,
                                 scheduling=SchedulingPolicy.NAIVE)
        build_summarization_attention(naive_stream, naive_ctx, naive_root)
        # The overlap-aware schedule has a shallower dependency chain because
        # prefetching breaks the serial head-to-head dependency.
        assert dependency_depth(pas_stream) <= dependency_depth(naive_stream)

    def test_stream_is_valid(self):
        stream, root = fresh_stream()
        ctx = make_context(stage_tokens=32, kv_length=32,
                           qkv_unit=FcMappingPolicy.MATRIX_UNIT)
        build_summarization_attention(stream, ctx, root)
        stream.validate()


class TestGenerationScheduleMu:
    def test_qkv_on_pim_and_attention_on_mu(self):
        stream, root = fresh_stream()
        ctx = make_context(stage_tokens=1, kv_length=192)
        build_generation_attention_mu(stream, ctx, root)
        qkv = [c for c in with_tag(stream, "FC for Q,K,V") if c.unit is Unit.PIM]
        assert len(qkv) == 3 * ctx.heads_on_core
        assert all(c.unit is Unit.MATRIX_UNIT for c in of_kind(stream, OpKind.QKT))
        assert all(c.unit is Unit.MATRIX_UNIT for c in of_kind(stream, OpKind.SV))

    def test_kv_concat_on_vector_unit(self):
        stream, root = fresh_stream()
        ctx = make_context(stage_tokens=1, kv_length=192)
        build_generation_attention_mu(stream, ctx, root)
        concats = of_kind(stream, OpKind.KV_CONCAT)
        assert len(concats) == ctx.heads_on_core
        assert all(c.unit is Unit.VECTOR_UNIT for c in concats)

    def test_kv_load_bytes_match_context_length(self):
        stream, root = fresh_stream()
        kv_length = 192
        ctx = make_context(stage_tokens=1, kv_length=kv_length)
        build_generation_attention_mu(stream, ctx, root)
        loads = of_kind(stream, OpKind.KV_LOAD)
        expected = (kv_length - 1) * ctx.head_dim * 2
        assert all(c.bytes_moved == expected for c in loads)

    def test_falls_back_to_mu_projections_when_requested(self):
        stream, root = fresh_stream()
        ctx = make_context(stage_tokens=1, kv_length=64,
                           qkv_unit=FcMappingPolicy.MATRIX_UNIT)
        build_generation_attention_mu(stream, ctx, root)
        assert not on_unit(stream, Unit.PIM)
        assert of_kind(stream, OpKind.FC_QKV)

    def test_naive_variant_emits_same_operators(self):
        pas_stream, pas_root = fresh_stream()
        build_generation_attention_mu(pas_stream, make_context(stage_tokens=1, kv_length=96), pas_root)
        naive_stream, naive_root = fresh_stream()
        build_generation_attention_mu(
            naive_stream,
            make_context(stage_tokens=1, kv_length=96, scheduling=SchedulingPolicy.NAIVE),
            naive_root,
        )
        kinds = lambda s: sorted(c.kind.value for c in s if c.unit is not Unit.SYNC)  # noqa: E731
        pas_kinds = kinds(pas_stream)
        naive_kinds = kinds(naive_stream)
        # The same computation happens; only prefetch loads may differ.
        assert set(naive_kinds) <= set(pas_kinds)

    def test_stream_is_valid(self):
        stream, root = fresh_stream()
        build_generation_attention_mu(stream, make_context(stage_tokens=1, kv_length=128), root)
        stream.validate()


class TestGenerationSchedulePim:
    def test_qkt_and_sv_on_pim(self):
        stream, root = fresh_stream()
        ctx = make_context(stage_tokens=1, kv_length=192)
        build_generation_attention_pim(stream, ctx, root)
        assert all(c.unit is Unit.PIM for c in of_kind(stream, OpKind.QKT))
        assert all(c.unit is Unit.PIM for c in of_kind(stream, OpKind.SV))

    def test_no_kv_cache_loads(self):
        """Fig. 7b avoids loading previously generated keys/values."""
        stream, root = fresh_stream()
        build_generation_attention_pim(stream, make_context(stage_tokens=1, kv_length=192), root)
        assert not of_kind(stream, OpKind.KV_LOAD)

    def test_scores_round_trip_through_memory_for_softmax(self):
        stream, root = fresh_stream()
        ctx = make_context(stage_tokens=1, kv_length=192)
        build_generation_attention_pim(stream, ctx, root)
        assert len(of_kind(stream, OpKind.ACTIVATION_LOAD)) >= ctx.heads_on_core
        assert len(of_kind(stream, OpKind.ACTIVATION_STORE)) == ctx.heads_on_core

    def test_stream_is_valid(self):
        stream, root = fresh_stream()
        build_generation_attention_pim(stream, make_context(stage_tokens=1, kv_length=64), root)
        stream.validate()


class TestContextProperties:
    def test_kv_previous(self):
        ctx = make_context(stage_tokens=1, kv_length=100)
        assert ctx.kv_previous == 99
        summarization = make_context(stage_tokens=64, kv_length=64)
        assert summarization.kv_previous == 0

    def test_overlap_flag_follows_policy(self):
        assert make_context(stage_tokens=1, kv_length=8).overlapped
        assert not make_context(
            stage_tokens=1, kv_length=8, scheduling=SchedulingPolicy.NAIVE
        ).overlapped
