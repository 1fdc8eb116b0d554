"""Unified-memory-aware multi-head-attention schedules (Sec. 5.3, Fig. 7).

Three schedules are generated, matching the three timelines of Fig. 7:

* :func:`build_summarization_attention` — Fig. 7a.  The Q/K/V projections are
  matrix-matrix products on the matrix unit.  Key generation is prioritised so
  the on-chip key transpose overlaps with value generation, keys/values are
  stored to the KV cache during computation, values move to the weight
  scratch-pad during softmax, and the next head's weights are prefetched
  (inter-head pipelining).

* :func:`build_generation_attention_mu` — Fig. 7c (the mapping IANUS uses).
  The Q/K/V projections are matrix-vector products on the PIM (head-wise, one
  chip per core), key concatenation runs on the vector unit concurrently with
  query generation on PIM, QK^T and softmax overlap with value generation,
  and the previously generated keys of the *next* head are prefetched during
  SV.

* :func:`build_generation_attention_pim` — Fig. 7b.  QK^T and SV are also
  mapped to the PIM: the loads of previously generated keys/values disappear,
  but almost everything serialises on the PIM and each PIM operation is
  inefficient because only ``head_dim`` elements of a 1024-element DRAM row
  carry useful data.

With the naive scheduling policy the same operators are emitted but the
dependency structure is serial (no transpose-during-value-generation, no
prefetching, no on-chip move during softmax), which — combined with the
PIM-as-barrier rule in the engine — reproduces the "w/o scheduling" bars of
Fig. 13.

The builders are generic over the KV length: an ``int`` for one pass, or an
int64 array of K lengths for a range compiled at once
(:meth:`repro.compiler.Compiler.compile_range`), in which case every number
computed from it is a length-K array of the per-pass numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import BYTES_PER_ELEMENT, FcMappingPolicy, SchedulingPolicy, SystemConfig
from repro.ir.command import (
    TAG_ATTENTION,
    TAG_QKV,
    Command,
    CommandStream,
    OpKind,
    PimScope,
    Unit,
)
from repro.models.flops import (
    attention_context_flops,
    attention_score_flops,
    fc_flops,
    softmax_flops,
)
from repro.models.transformer import ModelConfig

__all__ = [
    "AttentionContext",
    "build_summarization_attention",
    "build_generation_attention_mu",
    "build_generation_attention_pim",
]


@dataclass(frozen=True)
class AttentionContext:
    """Everything the attention builders need to know about one block pass."""

    model: ModelConfig
    config: SystemConfig
    num_tokens: int
    #: One pass's KV length, or an int64 array of K of them.
    kv_length: "int | np.ndarray"
    heads_on_core: int
    pim_chip: int
    qkv_unit: FcMappingPolicy

    @property
    def head_dim(self) -> int:
        return self.model.head_dim

    @property
    def embedding_dim(self) -> int:
        return self.model.embedding_dim

    @property
    def overlapped(self) -> bool:
        """True when the PAS overlap-enabling dependencies should be built."""
        return self.config.scheduling is SchedulingPolicy.PAS

    @property
    def kv_previous(self) -> "int | np.ndarray":
        """Context tokens generated before this pass (existing KV entries)."""
        previous = self.kv_length - self.num_tokens
        if isinstance(previous, np.ndarray):
            return np.maximum(previous, 0)
        return max(0, previous)


def _head_weight_bytes(ctx: AttentionContext) -> int:
    return ctx.embedding_dim * ctx.head_dim * BYTES_PER_ELEMENT


# ----------------------------------------------------------------------
# Summarization stage (Fig. 7a)
# ----------------------------------------------------------------------
def build_summarization_attention(
    stream: CommandStream, ctx: AttentionContext, input_ready: Command
) -> Command:
    """Append the summarization-stage multi-head attention of one core.

    Returns the command after which the attention output (all heads of this
    core, already merged by construction of the output addresses) is ready.
    """
    n = ctx.num_tokens
    d = ctx.embedding_dim
    hd = ctx.head_dim
    w_bytes = _head_weight_bytes(ctx)
    serial = not ctx.overlapped

    head_outputs: list[Command] = []
    prev_sv: Command | None = None
    prefetched_wk: Command | None = None

    for head in range(ctx.heads_on_core):
        # --- weight loads (the next head's W_K is prefetched during SV). ----
        wk_deps: list[Command] = []
        if serial and prev_sv is not None:
            wk_deps.append(prev_sv)
        if prefetched_wk is not None:
            load_wk = prefetched_wk
        else:
            load_wk = stream.add(
                Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=w_bytes,
                deps=wk_deps, tag=TAG_QKV, head=head, which="K",
            )
        # --- key generation first, so the transpose overlaps with V gen. ----
        mu_k = stream.add(
            Unit.MATRIX_UNIT, OpKind.FC_QKV,
            flops=fc_flops(n, d, hd), dims=(n, d, hd),
            deps=[input_ready, load_wk], tag=TAG_QKV, head=head, which="K",
        )
        transpose = stream.add(
            Unit.DMA_ONCHIP, OpKind.KEY_TRANSPOSE,
            bytes_moved=n * hd * BYTES_PER_ELEMENT,
            deps=[mu_k], tag=TAG_ATTENTION, head=head,
        )
        load_wq = stream.add(
            Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=w_bytes,
            deps=[mu_k] if serial else [load_wk], tag=TAG_QKV, head=head, which="Q",
        )
        mu_q = stream.add(
            Unit.MATRIX_UNIT, OpKind.FC_QKV,
            flops=fc_flops(n, d, hd), dims=(n, d, hd),
            deps=[input_ready, load_wq, mu_k], tag=TAG_QKV, head=head, which="Q",
        )
        load_wv = stream.add(
            Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=w_bytes,
            deps=[mu_q] if serial else [load_wq], tag=TAG_QKV, head=head, which="V",
        )
        mu_v = stream.add(
            Unit.MATRIX_UNIT, OpKind.FC_QKV,
            flops=fc_flops(n, d, hd), dims=(n, d, hd),
            deps=[input_ready, load_wv, mu_q], tag=TAG_QKV, head=head, which="V",
        )
        # --- keys and values are stored to the KV cache during compute. -----
        kv_store = stream.add(
            Unit.DMA_STORE, OpKind.KV_STORE,
            bytes_moved=2 * n * hd * BYTES_PER_ELEMENT,
            deps=[mu_k, mu_v], tag=TAG_ATTENTION, head=head,
        )
        # --- attention proper. ----------------------------------------------
        qkt_deps = [mu_q, transpose]
        if serial:
            qkt_deps.append(mu_v)
        qkt = stream.add(
            Unit.MATRIX_UNIT, OpKind.QKT,
            flops=attention_score_flops(n, ctx.kv_length, hd),
            dims=(n, hd, ctx.kv_length),
            deps=qkt_deps, tag=TAG_ATTENTION, head=head,
        )
        softmax = stream.add(
            Unit.VECTOR_UNIT, OpKind.SOFTMAX,
            flops=softmax_flops(n, ctx.kv_length), dims=(n, ctx.kv_length),
            deps=[qkt], tag=TAG_ATTENTION, head=head,
        )
        # Values move to the weight scratch-pad during softmax (Fig. 7a (3)).
        move_v = stream.add(
            Unit.DMA_ONCHIP, OpKind.ONCHIP_MOVE,
            bytes_moved=n * hd * BYTES_PER_ELEMENT,
            deps=[mu_v] if not serial else [mu_v, softmax],
            tag=TAG_ATTENTION, head=head,
        )
        sv = stream.add(
            Unit.MATRIX_UNIT, OpKind.SV,
            flops=attention_context_flops(n, ctx.kv_length, hd),
            dims=(n, ctx.kv_length, hd),
            deps=[softmax, move_v], tag=TAG_ATTENTION, head=head,
        )
        head_outputs.append(sv)
        head_outputs.append(kv_store)
        prev_sv = sv
        # Inter-head pipelining: prefetch the next head's W_K during SV.
        prefetched_wk = None
        if ctx.overlapped and head + 1 < ctx.heads_on_core:
            prefetched_wk = stream.add(
                Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=w_bytes,
                deps=[softmax], tag=TAG_QKV, head=head + 1, which="K",
            )

    return stream.add(
        Unit.SYNC, OpKind.SYNC, deps=head_outputs, tag=TAG_ATTENTION,
        note="attention heads merged",
    )


# ----------------------------------------------------------------------
# Generation stage with QK^T / SV on the matrix unit (Fig. 7c)
# ----------------------------------------------------------------------
def build_generation_attention_mu(
    stream: CommandStream, ctx: AttentionContext, input_ready: Command
) -> Command:
    """Append the generation-stage attention with QK^T and SV on the MU."""
    n = ctx.num_tokens
    d = ctx.embedding_dim
    hd = ctx.head_dim
    kv = ctx.kv_length
    kv_prev = ctx.kv_previous
    serial = not ctx.overlapped
    qkv_on_pim = ctx.qkv_unit is FcMappingPolicy.PIM and ctx.config.pim_compute_enabled
    w_bytes = _head_weight_bytes(ctx)

    head_outputs: list[Command] = []
    prev_softmax: Command | None = None
    prev_sv: Command | None = None
    prefetched_kpre: Command | None = None

    for head in range(ctx.heads_on_core):
        serial_dep = [prev_sv] if (serial and prev_sv is not None) else []
        # --- previously generated keys (prefetched during the previous SV). -
        if prefetched_kpre is not None:
            load_kpre = prefetched_kpre
        else:
            load_kpre = stream.add(
                Unit.DMA_LOAD, OpKind.KV_LOAD,
                bytes_moved=kv_prev * hd * BYTES_PER_ELEMENT,
                deps=serial_dep, tag=TAG_ATTENTION, head=head, which="K_pre",
            )
        # --- key generation. --------------------------------------------
        gen_k = _qkv_projection(
            stream, ctx, which="K", head=head, num_tokens=n,
            deps=[input_ready, *serial_dep], on_pim=qkv_on_pim, weight_bytes=w_bytes,
        )
        # Key concatenation in the vector unit (Fig. 7c (1)) overlaps with
        # query generation on the PIM.
        concat = stream.add(
            Unit.VECTOR_UNIT, OpKind.KV_CONCAT,
            flops=kv * hd * 1.0, dims=(kv * hd,),
            deps=[gen_k, load_kpre], tag=TAG_ATTENTION, head=head,
        )
        transpose = stream.add(
            Unit.DMA_ONCHIP, OpKind.KEY_TRANSPOSE,
            bytes_moved=kv * hd * BYTES_PER_ELEMENT,
            deps=[concat], tag=TAG_ATTENTION, head=head,
        )
        gen_q = _qkv_projection(
            stream, ctx, which="Q", head=head, num_tokens=n,
            deps=[input_ready, gen_k] if serial else [input_ready],
            on_pim=qkv_on_pim, weight_bytes=w_bytes,
        )
        qkt = stream.add(
            Unit.MATRIX_UNIT, OpKind.QKT,
            flops=attention_score_flops(n, kv, hd), dims=(n, hd, kv),
            deps=[gen_q, transpose], tag=TAG_ATTENTION, head=head,
        )
        gen_v = _qkv_projection(
            stream, ctx, which="V", head=head, num_tokens=n,
            deps=[input_ready, gen_q] if serial else [input_ready, gen_q],
            on_pim=qkv_on_pim, weight_bytes=w_bytes,
        )
        softmax = stream.add(
            Unit.VECTOR_UNIT, OpKind.SOFTMAX,
            flops=softmax_flops(n, kv), dims=(n, kv),
            deps=[qkt], tag=TAG_ATTENTION, head=head,
        )
        # New keys/values are stored and the concatenated values are loaded
        # during softmax (Fig. 7c (3)).
        kv_store = stream.add(
            Unit.DMA_STORE, OpKind.KV_STORE,
            bytes_moved=2 * n * hd * BYTES_PER_ELEMENT,
            deps=[gen_k, gen_v], tag=TAG_ATTENTION, head=head,
        )
        vcat_deps = [gen_v] if not serial else [gen_v, softmax]
        load_vcat = stream.add(
            Unit.DMA_LOAD, OpKind.KV_LOAD,
            bytes_moved=kv_prev * hd * BYTES_PER_ELEMENT,
            deps=vcat_deps, tag=TAG_ATTENTION, head=head, which="V_cat",
        )
        sv = stream.add(
            Unit.MATRIX_UNIT, OpKind.SV,
            flops=attention_context_flops(n, kv, hd), dims=(n, kv, hd),
            deps=[softmax, load_vcat], tag=TAG_ATTENTION, head=head,
        )
        head_outputs.extend([sv, kv_store])
        prev_softmax = softmax
        prev_sv = sv
        # Inter-head pipelining: prefetch the next head's previously
        # generated keys during SV (Fig. 7c (4)).
        prefetched_kpre = None
        if ctx.overlapped and head + 1 < ctx.heads_on_core:
            prefetched_kpre = stream.add(
                Unit.DMA_LOAD, OpKind.KV_LOAD,
                bytes_moved=kv_prev * hd * BYTES_PER_ELEMENT,
                deps=[prev_softmax], tag=TAG_ATTENTION, head=head + 1, which="K_pre",
            )

    return stream.add(
        Unit.SYNC, OpKind.SYNC, deps=head_outputs, tag=TAG_ATTENTION,
        note="attention heads merged",
    )


# ----------------------------------------------------------------------
# Generation stage with QK^T / SV on the PIM (Fig. 7b)
# ----------------------------------------------------------------------
def build_generation_attention_pim(
    stream: CommandStream, ctx: AttentionContext, input_ready: Command
) -> Command:
    """Append the generation-stage attention with QK^T and SV on the PIM."""
    n = ctx.num_tokens
    hd = ctx.head_dim
    kv = ctx.kv_length
    serial = not ctx.overlapped
    qkv_on_pim = ctx.config.pim_compute_enabled
    w_bytes = _head_weight_bytes(ctx)

    head_outputs: list[Command] = []
    prev_tail: Command | None = None

    for head in range(ctx.heads_on_core):
        serial_dep = [prev_tail] if (serial and prev_tail is not None) else []
        gen_k = _qkv_projection(
            stream, ctx, which="K", head=head, num_tokens=n,
            deps=[input_ready, *serial_dep], on_pim=qkv_on_pim, weight_bytes=w_bytes,
        )
        gen_q = _qkv_projection(
            stream, ctx, which="Q", head=head, num_tokens=n,
            deps=[input_ready, gen_k] if serial else [input_ready],
            on_pim=qkv_on_pim, weight_bytes=w_bytes,
        )
        # QK^T in PIM: keys stay in memory, but only head_dim useful elements
        # per 1024-element row, so efficiency is poor (Sec. 5.3).
        qkt = stream.add(
            Unit.PIM, OpKind.QKT,
            flops=attention_score_flops(n, kv, hd),
            bytes_moved=kv * hd * BYTES_PER_ELEMENT,
            dims=(n, hd, kv),
            deps=[gen_q, gen_k], tag=TAG_ATTENTION, head=head,
            pim_scope=PimScope.SINGLE_CHIP, pim_chip=ctx.pim_chip,
        )
        score_load = stream.add(
            Unit.DMA_LOAD, OpKind.ACTIVATION_LOAD,
            bytes_moved=n * kv * BYTES_PER_ELEMENT,
            deps=[qkt], tag=TAG_ATTENTION, head=head,
        )
        softmax = stream.add(
            Unit.VECTOR_UNIT, OpKind.SOFTMAX,
            flops=softmax_flops(n, kv), dims=(n, kv),
            deps=[score_load], tag=TAG_ATTENTION, head=head,
        )
        score_store = stream.add(
            Unit.DMA_STORE, OpKind.ACTIVATION_STORE,
            bytes_moved=n * kv * BYTES_PER_ELEMENT,
            deps=[softmax], tag=TAG_ATTENTION, head=head,
        )
        gen_v = _qkv_projection(
            stream, ctx, which="V", head=head, num_tokens=n,
            deps=[input_ready, gen_q] if serial else [input_ready],
            on_pim=qkv_on_pim, weight_bytes=w_bytes,
        )
        sv = stream.add(
            Unit.PIM, OpKind.SV,
            flops=attention_context_flops(n, kv, hd),
            bytes_moved=kv * hd * BYTES_PER_ELEMENT,
            dims=(n, kv, hd),
            deps=[score_store, gen_v], tag=TAG_ATTENTION, head=head,
            pim_scope=PimScope.SINGLE_CHIP, pim_chip=ctx.pim_chip,
        )
        out_load = stream.add(
            Unit.DMA_LOAD, OpKind.ACTIVATION_LOAD,
            bytes_moved=n * hd * BYTES_PER_ELEMENT,
            deps=[sv], tag=TAG_ATTENTION, head=head,
        )
        head_outputs.append(out_load)
        prev_tail = out_load

    return stream.add(
        Unit.SYNC, OpKind.SYNC, deps=head_outputs, tag=TAG_ATTENTION,
        note="attention heads merged",
    )


# ----------------------------------------------------------------------
# Shared helper
# ----------------------------------------------------------------------
def _qkv_projection(
    stream: CommandStream,
    ctx: AttentionContext,
    *,
    which: str,
    head: int,
    num_tokens: int,
    deps: list[Command],
    on_pim: bool,
    weight_bytes: int,
) -> Command:
    """Append one per-head Q/K/V projection on the chosen unit."""
    d = ctx.embedding_dim
    hd = ctx.head_dim
    flops = fc_flops(num_tokens, d, hd)
    if on_pim:
        return stream.add(
            Unit.PIM, OpKind.PIM_GEMV,
            flops=flops, bytes_moved=weight_bytes, dims=(num_tokens, d, hd),
            deps=deps, tag=TAG_QKV, head=head, which=which,
            pim_scope=PimScope.SINGLE_CHIP, pim_chip=ctx.pim_chip,
        )
    load = stream.add(
        Unit.DMA_LOAD, OpKind.WEIGHT_LOAD, bytes_moved=weight_bytes,
        deps=deps, tag=TAG_QKV, head=head, which=which,
    )
    return stream.add(
        Unit.MATRIX_UNIT, OpKind.FC_QKV,
        flops=flops, dims=(num_tokens, d, hd),
        deps=[*deps, load], tag=TAG_QKV, head=head, which=which,
    )
