"""Block/stage compiler: lowers transformer blocks to command streams.

The compiler mirrors the execution flow of Fig. 6: layer normalisation and
residual additions run on the vector unit, the Q/K/V projections are
partitioned head-wise (across cores and PIM chips), the remaining FC layers
are partitioned column-wise across cores, and synchronisation happens four
times per block (after multi-head attention, after each residual addition,
and after GELU).

The compiler produces the command stream of the *representative core*
(core 0): every core executes an identical stream on its own partition of the
work, so the representative stream — with per-core output slices, a per-core
share of the off-chip bandwidth, and explicit synchronisation commands —
determines the block latency.  FC layers that execute on the PIM appear once
in the stream (all chips operate under a single broadcast macro command) and
are followed by the small activation load that returns their output to the
core's scratch-pad.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (
    AttentionMappingPolicy,
    BYTES_PER_ELEMENT,
    FcMappingPolicy,
    SchedulingPolicy,
    SystemConfig,
)
from repro.compiler.attention_schedule import (
    AttentionContext,
    build_generation_attention_mu,
    build_generation_attention_pim,
    build_summarization_attention,
)
from repro.compiler.mapping import AdaptiveMapper
from repro.compiler.partitioner import WeightPartitioner, WorkPartition
from repro.ir.command import (
    Command,
    CommandStream,
    OpKind,
    PimScope,
    ReplayedStream,
    Unit,
)
from repro.models.flops import fc_flops, gelu_flops, layernorm_flops, residual_add_flops
from repro.models.transformer import ModelConfig
from repro.models.workload import Stage, StagePass
from repro.scheduling.durations import DurationModel

__all__ = ["CompiledBlock", "Compiler"]

TAG_LAYERNORM = "LayerNorm"
TAG_ATTENTION = "Self-attention"
TAG_QKV = "FC for Q,K,V"
TAG_PROJ = "FC for Attention + Add"
TAG_FFN = "FFN+Add"
TAG_LM_HEAD = "LM head"
TAG_EMBEDDING = "Embedding"


@dataclass(frozen=True)
class CompiledBlock:
    """A compiled block stream plus the mapping decisions taken."""

    stream: CommandStream
    partition: WorkPartition
    fc_units: dict[str, FcMappingPolicy]

    @property
    def uses_pim(self) -> bool:
        return any(unit is FcMappingPolicy.PIM for unit in self.fc_units.values())


class Compiler:
    """Lowers model blocks and heads/embeddings into command streams."""

    def __init__(
        self,
        config: SystemConfig,
        durations: DurationModel | None = None,
        num_devices: int = 1,
    ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.config = config
        self.durations = durations or DurationModel(config)
        self.mapper = AdaptiveMapper(config, self.durations)
        self.num_devices = num_devices
        # One block template per (model, stage, tokens) for a fixed
        # configuration/device count; the embedding and LM head do not depend
        # on the KV length at all, so their streams are memoized whole.
        self._templates: dict[tuple, CompiledBlock] = {}
        self._embedding_cache: dict[tuple, CommandStream] = {}
        self._lm_head_cache: dict[ModelConfig, CompiledBlock] = {}

    # ------------------------------------------------------------------
    # Block compilation
    # ------------------------------------------------------------------
    def compile_block(self, model: ModelConfig, stage_pass: StagePass) -> CompiledBlock:
        """Compile one transformer block for one pass of one stage.

        A block's commands, dependencies and mapping decisions depend on the
        model, the stage and the number of tokens, never on the KV length.
        The first pass of each (model, stage, tokens) plans the block and
        builds its stream command by command: that block is the template.
        Every later KV length re-runs the same builders into a
        :class:`~repro.ir.ReplayedStream` of the template, which records only
        the commands' FLOPs, bytes and dimensions.
        """
        key = (model, stage_pass.stage, stage_pass.num_tokens)
        label = (
            f"{model.name}/{stage_pass.stage.value}/n{stage_pass.num_tokens}"
            f"/kv{stage_pass.kv_length}"
        )
        template = self._templates.get(key)
        if template is None:
            partition, fc_units = self._plan_block(model, stage_pass.num_tokens)
            stream = CommandStream(label=label)
        else:
            partition, fc_units = template.partition, template.fc_units
            stream = ReplayedStream(template.stream, label)
        self._build_block(stream, model, stage_pass, partition, fc_units)
        stream.validate()
        block = CompiledBlock(stream=stream, partition=partition, fc_units=fc_units)
        if template is None:
            self._templates[key] = block
        return block

    def _plan_block(
        self, model: ModelConfig, num_tokens: int
    ) -> tuple[WorkPartition, dict[str, FcMappingPolicy]]:
        """The block's work partition and the unit of each of its four FCs.

        Algorithm 1 overlaps an FC's weight loads with the preceding
        vector-unit command: the layer normalisation before the Q/K/V and
        FFN1 layers, the GELU before FFN2 (none when the PIM fuses GELU into
        FFN1).
        """
        partition = WeightPartitioner(
            self.config, model, num_devices=self.num_devices
        ).partition()
        n = num_tokens
        d = model.embedding_dim
        d_ff = model.ffn_dim
        ln_time = self.durations.duration_of(
            Unit.VECTOR_UNIT, OpKind.LAYERNORM, (n, d)
        )
        fc_units = {
            "qkv": self.mapper.choose(
                n, d, model.head_dim,
                prefetch_window_s=ln_time,
                single_chip=True,
            ).unit,
            "projection": self.mapper.choose(
                n, d, d,
                mu_cols=partition.projection_cols_per_core,
                pim_cols=self._pim_cols(d),
            ).unit,
            "ffn1": self.mapper.choose(
                n, d, d_ff,
                mu_cols=partition.ffn1_cols_per_core,
                pim_cols=self._pim_cols(d_ff),
                prefetch_window_s=ln_time, fused_gelu=True,
            ).unit,
        }
        gelu_time = 0.0
        if fc_units["ffn1"] is not FcMappingPolicy.PIM:
            gelu_time = self.durations.duration_of(
                Unit.VECTOR_UNIT, OpKind.GELU, (n, partition.ffn1_cols_per_core)
            )
        fc_units["ffn2"] = self.mapper.choose(
            n, d_ff, d,
            mu_cols=partition.ffn2_cols_per_core,
            pim_cols=self._pim_cols(d),
            prefetch_window_s=gelu_time,
        ).unit
        return partition, fc_units

    def _build_block(
        self,
        stream: CommandStream,
        model: ModelConfig,
        stage_pass: StagePass,
        partition: WorkPartition,
        fc_units: dict[str, FcMappingPolicy],
    ) -> None:
        """Append the commands of one block, mapped as ``fc_units`` says."""
        n = stage_pass.num_tokens
        d = model.embedding_dim
        d_ff = model.ffn_dim

        # ---- first layer normalisation -----------------------------------
        block_input = stream.add(
            Unit.SYNC, OpKind.SYNC, tag=TAG_LAYERNORM, note="block input ready"
        )
        ln1 = stream.add(
            Unit.VECTOR_UNIT, OpKind.LAYERNORM,
            flops=layernorm_flops(n, d), dims=(n, d),
            deps=[block_input], tag=TAG_LAYERNORM,
        )

        # ---- multi-head attention -----------------------------------------
        attention_out = self._build_attention(
            stream, model, stage_pass, partition, ln1, fc_units["qkv"]
        )

        # ---- attention output projection + residual add --------------------
        proj = self._build_fc(
            stream, kind=OpKind.FC_PROJ, num_tokens=n, d_in=d, d_out=d,
            mu_cols=partition.projection_cols_per_core,
            unit=fc_units["projection"], deps=[attention_out], tag=TAG_PROJ,
        )
        add1 = stream.add(
            Unit.VECTOR_UNIT, OpKind.RESIDUAL_ADD,
            flops=residual_add_flops(n, d), dims=(n, d),
            deps=[proj, block_input], tag=TAG_PROJ,
        )
        comm1 = self._device_communication(stream, n, d, deps=[add1], tag=TAG_PROJ)
        sync1 = stream.add(Unit.SYNC, OpKind.SYNC, deps=[comm1], tag=TAG_PROJ)

        # ---- second layer normalisation ------------------------------------
        ln2 = stream.add(
            Unit.VECTOR_UNIT, OpKind.LAYERNORM,
            flops=layernorm_flops(n, d), dims=(n, d),
            deps=[sync1], tag=TAG_LAYERNORM,
        )

        # ---- feed-forward network -------------------------------------------
        ffn1_on_pim = fc_units["ffn1"] is FcMappingPolicy.PIM
        ffn1 = self._build_fc(
            stream, kind=OpKind.FC_FFN1, num_tokens=n, d_in=d, d_out=d_ff,
            mu_cols=partition.ffn1_cols_per_core,
            unit=fc_units["ffn1"], deps=[ln2], tag=TAG_FFN,
            fused_gelu=ffn1_on_pim,
        )
        if ffn1_on_pim:
            # GELU executes inside the PIM right after the FC (Sec. 5.2).
            gelu_out = ffn1
        else:
            gelu_out = stream.add(
                Unit.VECTOR_UNIT, OpKind.GELU,
                flops=gelu_flops(n, partition.ffn1_cols_per_core),
                dims=(n, partition.ffn1_cols_per_core),
                deps=[ffn1], tag=TAG_FFN,
            )
        sync_gelu = stream.add(Unit.SYNC, OpKind.SYNC, deps=[gelu_out], tag=TAG_FFN)

        ffn2 = self._build_fc(
            stream, kind=OpKind.FC_FFN2, num_tokens=n, d_in=d_ff, d_out=d,
            mu_cols=partition.ffn2_cols_per_core,
            unit=fc_units["ffn2"], deps=[sync_gelu], tag=TAG_FFN,
        )
        add2 = stream.add(
            Unit.VECTOR_UNIT, OpKind.RESIDUAL_ADD,
            flops=residual_add_flops(n, d), dims=(n, d),
            deps=[ffn2, sync1], tag=TAG_FFN,
        )
        comm2 = self._device_communication(stream, n, d, deps=[add2], tag=TAG_FFN)
        stream.add(Unit.SYNC, OpKind.SYNC, deps=[comm2], tag=TAG_FFN)

    def _device_communication(
        self,
        stream: CommandStream,
        num_tokens: int,
        dim: int,
        *,
        deps: list[Command],
        tag: str,
    ) -> Command:
        """All-gather of the partial activations across IANUS devices.

        With a single device this degenerates to the dependency it was given;
        with ``D`` devices each device exchanges its ``1/D`` output slice with
        every other device over the PCIe host interface (Sec. 7.1).
        """
        if self.num_devices <= 1:
            return deps[-1]
        exchanged = int(
            num_tokens * dim * BYTES_PER_ELEMENT
            * (self.num_devices - 1) / self.num_devices
        )
        return stream.add(
            Unit.HOST, OpKind.DEVICE_COMM, bytes_moved=exchanged,
            dims=(self.num_devices,), deps=deps, tag=tag,
        )


    def _pim_cols(self, d_out: int) -> int:
        """Output columns this device's PIM computes for a column-split FC."""
        return max(1, -(-d_out // self.num_devices))

    # ------------------------------------------------------------------
    def _build_attention(
        self,
        stream: CommandStream,
        model: ModelConfig,
        stage_pass: StagePass,
        partition: WorkPartition,
        ln1: Command,
        qkv_unit: FcMappingPolicy,
    ) -> Command:
        ctx = AttentionContext(
            model=model,
            config=self.config,
            num_tokens=stage_pass.num_tokens,
            kv_length=stage_pass.kv_length,
            heads_on_core=partition.heads_on_core,
            pim_chip=partition.pim_chip_for_core,
            qkv_unit=qkv_unit,
        )
        generation_like = (
            stage_pass.stage is Stage.GENERATION
            or qkv_unit is FcMappingPolicy.PIM
        ) and model.is_decoder
        if not generation_like:
            return build_summarization_attention(stream, ctx, ln1)
        if (
            self.config.attention_mapping is AttentionMappingPolicy.PIM
            and self.config.pim_compute_enabled
        ):
            return build_generation_attention_pim(stream, ctx, ln1)
        return build_generation_attention_mu(stream, ctx, ln1)

    # ------------------------------------------------------------------
    def _build_fc(
        self,
        stream: CommandStream,
        *,
        kind: OpKind,
        num_tokens: int,
        d_in: int,
        d_out: int,
        mu_cols: int,
        unit: FcMappingPolicy,
        deps: list[Command],
        tag: str,
        fused_gelu: bool = False,
    ) -> Command:
        """Append one column-partitioned FC on the chosen unit."""
        if unit is FcMappingPolicy.PIM and self.config.pim_compute_enabled:
            # With multiple IANUS devices the layer's output columns are also
            # split across devices; each device's PIM computes its slice.
            pim_out = max(1, -(-d_out // self.num_devices))
            # The input activations are written to memory (they feed the PIM
            # global buffers) and the output slice is read back afterwards.
            act_store = stream.add(
                Unit.DMA_STORE, OpKind.ACTIVATION_STORE,
                bytes_moved=num_tokens * d_in * BYTES_PER_ELEMENT,
                deps=deps, tag=tag,
            )
            gemv = stream.add(
                Unit.PIM,
                OpKind.PIM_GEMV_GELU if fused_gelu else OpKind.PIM_GEMV,
                flops=fc_flops(num_tokens, d_in, pim_out),
                bytes_moved=d_in * pim_out * BYTES_PER_ELEMENT,
                dims=(num_tokens, d_in, pim_out),
                deps=[*deps, act_store], tag=tag,
                pim_scope=PimScope.ALL_CHIPS,
                fused_activation=fused_gelu,
            )
            out_cols = min(mu_cols, d_out)
            return stream.add(
                Unit.DMA_LOAD, OpKind.ACTIVATION_LOAD,
                bytes_moved=num_tokens * out_cols * BYTES_PER_ELEMENT,
                deps=[gemv], tag=tag,
            )
        weight_load = stream.add(
            Unit.DMA_LOAD, OpKind.WEIGHT_LOAD,
            bytes_moved=d_in * mu_cols * BYTES_PER_ELEMENT,
            deps=deps, tag=tag,
        )
        return stream.add(
            Unit.MATRIX_UNIT, kind,
            flops=fc_flops(num_tokens, d_in, mu_cols),
            dims=(num_tokens, d_in, mu_cols),
            deps=[*deps, weight_load], tag=tag,
        )

    # ------------------------------------------------------------------
    # Embedding and LM head
    # ------------------------------------------------------------------
    def compile_embedding(self, model: ModelConfig, num_tokens: int) -> CommandStream:
        """Token + position embedding lookup (a gather from main memory)."""
        key = (model, num_tokens)
        cached = self._embedding_cache.get(key)
        if cached is not None:
            return cached
        stream = CommandStream(label=f"{model.name}/embedding/n{num_tokens}")
        load = stream.add(
            Unit.DMA_LOAD, OpKind.ACTIVATION_LOAD,
            bytes_moved=num_tokens * model.embedding_dim * BYTES_PER_ELEMENT,
            tag=TAG_EMBEDDING,
        )
        stream.add(
            Unit.VECTOR_UNIT, OpKind.EMBEDDING,
            flops=float(num_tokens * model.embedding_dim),
            dims=(num_tokens, model.embedding_dim),
            deps=[load], tag=TAG_EMBEDDING,
        )
        stream.validate()
        self._embedding_cache[key] = stream
        return stream

    def compile_lm_head(self, model: ModelConfig) -> CompiledBlock:
        """LM head: logits of the last token (matrix-vector with the vocab)."""
        cached = self._lm_head_cache.get(model)
        if cached is not None:
            return cached
        partition = WeightPartitioner(
            self.config, model, num_devices=self.num_devices
        ).partition()
        stream = CommandStream(label=f"{model.name}/lm-head")
        final_ln = stream.add(
            Unit.VECTOR_UNIT, OpKind.LAYERNORM,
            flops=layernorm_flops(1, model.embedding_dim),
            dims=(1, model.embedding_dim), tag=TAG_LM_HEAD,
        )
        decision = self.mapper.choose(
            1, model.embedding_dim, model.vocab_size,
            mu_cols=partition.lm_head_cols_per_core,
            pim_cols=self._pim_cols(model.vocab_size),
        )
        self._build_fc(
            stream, kind=OpKind.LM_HEAD, num_tokens=1,
            d_in=model.embedding_dim, d_out=model.vocab_size,
            mu_cols=partition.lm_head_cols_per_core,
            unit=decision.unit, deps=[final_ln], tag=TAG_LM_HEAD,
        )
        stream.validate()
        block = CompiledBlock(
            stream=stream, partition=partition, fc_units={"lm_head": decision.unit}
        )
        self._lm_head_cache[model] = block
        return block
