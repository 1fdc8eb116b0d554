"""Tests for the block compiler and the attention schedules (Figs. 6 and 7)."""

from __future__ import annotations

import pytest

from repro.compiler import Compiler
from repro.config import (
    AttentionMappingPolicy,
    FcMappingPolicy,
    SchedulingPolicy,
    SystemConfig,
)
from repro.ir import OpKind, PimScope, Unit
from repro.models import GPT2_CONFIGS, BERT_CONFIGS
from repro.models.workload import Stage, StagePass


GEN_PASS = StagePass(Stage.GENERATION, 1, 192)
SUMM_PASS = StagePass(Stage.SUMMARIZATION, 128, 128)


def of_kind(stream, kind):
    """The commands of ``stream`` of one operation kind."""
    return [c for c in stream if c.kind is kind]


def on_unit(stream, unit):
    """The commands of ``stream`` on one execution unit."""
    return [c for c in stream if c.unit is unit]


def with_tag(stream, tag):
    """The commands of ``stream`` under one breakdown tag."""
    return [c for c in stream if c.tag == tag]


def dependency_depth(stream) -> int:
    """Length of the longest dependency chain of ``stream`` (in commands)."""
    depth = {}
    for command in stream:
        depth[command.cid] = 1 + max((depth[d] for d in command.deps), default=-1)
    return max(depth.values(), default=0)


@pytest.fixture(scope="module")
def ianus_compiler() -> Compiler:
    return Compiler(SystemConfig.ianus())


@pytest.fixture(scope="module")
def npu_mem_compiler() -> Compiler:
    return Compiler(SystemConfig.npu_mem())


class TestBlockStructure:
    def test_stream_is_valid_dag(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        block.stream.validate()
        assert len(block.stream) > 20

    def test_four_sync_points_plus_attention_merge(self, ianus_compiler, gpt2_xl):
        """Fig. 6: sync after MHA, after both residual adds, and after GELU."""
        block = ianus_compiler.compile_block(gpt2_xl, SUMM_PASS)
        syncs = [c for c in on_unit(block.stream, Unit.SYNC) if c.kind is OpKind.SYNC]
        # block-input marker + attention merge + 4 block sync points
        assert len(syncs) >= 5

    def test_two_layernorms_per_block(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        assert len(of_kind(block.stream, OpKind.LAYERNORM)) == 2

    def test_breakdown_tags_cover_fig10_categories(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        tags = {c.tag for c in block.stream if c.tag}
        for category in ("LayerNorm", "Self-attention", "FC for Q,K,V",
                         "FC for Attention + Add", "FFN+Add"):
            assert category in tags

    def test_attention_commands_scale_with_heads_per_core(self, ianus_compiler):
        few_heads = ianus_compiler.compile_block(GPT2_CONFIGS["m"], GEN_PASS)
        many_heads = ianus_compiler.compile_block(GPT2_CONFIGS["xl"], GEN_PASS)
        assert len(many_heads.stream) > len(few_heads.stream)

    def test_bert_block_has_no_kv_concat(self, ianus_compiler):
        block = ianus_compiler.compile_block(BERT_CONFIGS["base"], SUMM_PASS)
        assert not of_kind(block.stream, OpKind.KV_CONCAT)


class TestFcMappingWithinBlocks:
    def test_generation_fcs_map_to_pim(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        assert block.fc_units["qkv"] is FcMappingPolicy.PIM
        assert block.fc_units["ffn1"] is FcMappingPolicy.PIM
        assert block.fc_units["ffn2"] is FcMappingPolicy.PIM

    def test_summarization_fcs_map_to_matrix_unit(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, SUMM_PASS)
        assert block.fc_units["qkv"] is FcMappingPolicy.MATRIX_UNIT
        assert block.fc_units["ffn1"] is FcMappingPolicy.MATRIX_UNIT

    def test_npu_mem_never_uses_pim(self, npu_mem_compiler, gpt2_xl):
        block = npu_mem_compiler.compile_block(gpt2_xl, GEN_PASS)
        assert set(block.fc_units.values()) == {FcMappingPolicy.MATRIX_UNIT}
        assert not on_unit(block.stream, Unit.PIM)

    def test_pim_ffn1_fuses_gelu(self, ianus_compiler, gpt2_xl):
        """Sec. 5.2: when FFN1 maps to PIM, GELU executes inside the PIM."""
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        assert of_kind(block.stream, OpKind.PIM_GEMV_GELU)
        assert not of_kind(block.stream, OpKind.GELU)

    def test_mu_ffn1_uses_vector_unit_gelu(self, npu_mem_compiler, gpt2_xl):
        block = npu_mem_compiler.compile_block(gpt2_xl, GEN_PASS)
        assert of_kind(block.stream, OpKind.GELU)
        assert not of_kind(block.stream, OpKind.PIM_GEMV_GELU)


class TestGenerationAttentionSchedules:
    def test_mu_mapping_keeps_qkt_sv_on_matrix_unit(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        qkt = of_kind(block.stream, OpKind.QKT)
        sv = of_kind(block.stream, OpKind.SV)
        assert qkt and all(c.unit is Unit.MATRIX_UNIT for c in qkt)
        assert sv and all(c.unit is Unit.MATRIX_UNIT for c in sv)

    def test_pim_mapping_moves_qkt_sv_to_pim(self, gpt2_xl):
        compiler = Compiler(
            SystemConfig.ianus(attention_mapping=AttentionMappingPolicy.PIM)
        )
        block = compiler.compile_block(gpt2_xl, GEN_PASS)
        assert all(c.unit is Unit.PIM for c in of_kind(block.stream, OpKind.QKT))
        assert all(c.unit is Unit.PIM for c in of_kind(block.stream, OpKind.SV))

    def test_mu_mapping_loads_previous_keys_and_values(self, ianus_compiler, gpt2_xl):
        """Fig. 7c requires loading K_pre and V_cat from memory."""
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        kv_loads = of_kind(block.stream, OpKind.KV_LOAD)
        assert kv_loads
        assert all(c.unit is Unit.DMA_LOAD for c in kv_loads)

    def test_pim_mapping_avoids_kv_loads(self, gpt2_xl):
        """Fig. 7b: keys/values stay in PIM, so no K_pre / V_cat loads."""
        compiler = Compiler(
            SystemConfig.ianus(attention_mapping=AttentionMappingPolicy.PIM)
        )
        block = compiler.compile_block(gpt2_xl, GEN_PASS)
        assert not of_kind(block.stream, OpKind.KV_LOAD)

    def test_qkv_gemvs_target_a_single_chip(self, ianus_compiler, gpt2_xl):
        """Head-wise partitioning: each head's projections use one PIM chip."""
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        qkv_gemvs = [
            c for c in on_unit(block.stream, Unit.PIM)
            if c.tag == "FC for Q,K,V"
        ]
        assert qkv_gemvs
        assert all(c.pim_scope is PimScope.SINGLE_CHIP for c in qkv_gemvs)

    def test_column_partitioned_fcs_broadcast_to_all_chips(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        ffn_gemvs = [c for c in on_unit(block.stream, Unit.PIM) if c.tag == "FFN+Add"]
        assert ffn_gemvs
        assert all(c.pim_scope is PimScope.ALL_CHIPS for c in ffn_gemvs)

    def test_key_transpose_happens_on_chip(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        transposes = of_kind(block.stream, OpKind.KEY_TRANSPOSE)
        assert transposes
        assert all(c.unit is Unit.DMA_ONCHIP for c in transposes)

    def test_naive_schedule_has_fewer_overlap_edges(self, gpt2_xl):
        """The PAS schedule issues prefetches that the naive one omits."""
        pas = Compiler(SystemConfig.ianus()).compile_block(gpt2_xl, GEN_PASS)
        naive = Compiler(
            SystemConfig.ianus(scheduling=SchedulingPolicy.NAIVE)
        ).compile_block(gpt2_xl, GEN_PASS)
        assert dependency_depth(naive.stream) >= dependency_depth(pas.stream)


class TestSummarizationAttentionSchedule:
    def test_kv_cache_is_stored(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, SUMM_PASS)
        assert of_kind(block.stream, OpKind.KV_STORE)

    def test_weight_loads_match_qkv_projections(self, ianus_compiler, gpt2_m):
        block = ianus_compiler.compile_block(gpt2_m, SUMM_PASS)
        weight_loads = [
            c for c in of_kind(block.stream, OpKind.WEIGHT_LOAD) if c.tag == "FC for Q,K,V"
        ]
        projections = [
            c for c in of_kind(block.stream, OpKind.FC_QKV) if c.unit is Unit.MATRIX_UNIT
        ]
        # With inter-head prefetching there may be more loads than projections
        # of the current head, but never fewer.
        assert len(weight_loads) >= len(projections)

    def test_softmax_per_head(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, SUMM_PASS)
        assert len(of_kind(block.stream, OpKind.SOFTMAX)) == block.partition.heads_on_core


class TestEmbeddingAndLmHead:
    def test_embedding_stream(self, ianus_compiler, gpt2_m):
        stream = ianus_compiler.compile_embedding(gpt2_m, num_tokens=64)
        assert of_kind(stream, OpKind.ACTIVATION_LOAD)
        assert of_kind(stream, OpKind.EMBEDDING)

    def test_lm_head_maps_to_pim_when_available(self, ianus_compiler, gpt2_xl):
        lm_head = ianus_compiler.compile_lm_head(gpt2_xl)
        assert lm_head.fc_units["lm_head"] is FcMappingPolicy.PIM

    def test_lm_head_on_npu_mem_uses_matrix_unit(self, npu_mem_compiler, gpt2_xl):
        lm_head = npu_mem_compiler.compile_lm_head(gpt2_xl)
        assert lm_head.fc_units["lm_head"] is FcMappingPolicy.MATRIX_UNIT


class TestMultiDeviceCompilation:
    def test_device_communication_commands_added(self, gpt2_xl):
        compiler = Compiler(SystemConfig.ianus(), num_devices=4)
        block = compiler.compile_block(gpt2_xl, GEN_PASS)
        comms = of_kind(block.stream, OpKind.DEVICE_COMM)
        assert len(comms) == 2
        assert all(c.unit is Unit.HOST for c in comms)

    def test_single_device_has_no_communication(self, ianus_compiler, gpt2_xl):
        block = ianus_compiler.compile_block(gpt2_xl, GEN_PASS)
        assert not of_kind(block.stream, OpKind.DEVICE_COMM)

    def test_pim_gemv_dims_shrink_with_devices(self, gpt2_xl):
        single = Compiler(SystemConfig.ianus(), num_devices=1).compile_block(gpt2_xl, GEN_PASS)
        quad = Compiler(SystemConfig.ianus(), num_devices=4).compile_block(gpt2_xl, GEN_PASS)
        single_ffn = [c for c in on_unit(single.stream, Unit.PIM) if c.kind is OpKind.PIM_GEMV_GELU]
        quad_ffn = [c for c in on_unit(quad.stream, Unit.PIM) if c.kind is OpKind.PIM_GEMV_GELU]
        assert single_ffn and quad_ffn
        assert quad_ffn[0].dims[2] == single_ffn[0].dims[2] // 4

    def test_invalid_device_count_rejected(self):
        with pytest.raises(ValueError):
            Compiler(SystemConfig.ianus(), num_devices=0)
