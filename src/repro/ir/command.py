"""Command intermediate representation.

The compiler lowers every transformer block (for a given stage and KV length)
into a :class:`CommandStream`: a dependency DAG of :class:`Command` objects,
each bound to an execution unit (matrix unit, vector unit, the DMA engines,
the PIM, or a synchronisation point).  The event engine
(:mod:`repro.scheduling.events`) then assigns start and end times to every
command using the per-unit timing models.

The command granularity follows Sec. 4.3 of the paper: the NPU command
scheduler tracks dependencies between compute, DMA and (macro) PIM commands,
and a macro PIM command represents a full operation such as one matrix-vector
multiplication.

A block's structure (units, kinds, dependencies, tags) does not depend on the
KV length, only some of its numbers do.  The builders that produced a stream
can re-run into a :class:`ReplayedStream` of it, which checks each command
against that template, keeps only the new FLOPs, bytes and dimensions, and
builds :class:`Command` objects only when asked for them.  A replay can also
stand for K passes at once, its ``columns``: the builders run once with the
KV length as an int64 array of K lengths, and each FLOPs, bytes or
dimension entry is a Python number where it does not depend on the KV length
and a length-K array (column k for the k-th length) where it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

__all__ = ["Unit", "OpKind", "PimScope", "Command", "CommandStream", "ReplayedStream"]

#: The breakdown categories a command's ``tag`` books it under (Figs. 2
#: and 10), one definition for the compiler, the GPU baseline and the
#: reports.
TAG_LAYERNORM = "LayerNorm"
TAG_ATTENTION = "Self-attention"
TAG_QKV = "FC for Q,K,V"
TAG_PROJ = "FC for Attention + Add"
TAG_FFN = "FFN+Add"
TAG_LM_HEAD = "LM head"
TAG_EMBEDDING = "Embedding"


class Unit(str, Enum):
    """Execution unit a command occupies."""

    MATRIX_UNIT = "mu"
    VECTOR_UNIT = "vu"
    DMA_LOAD = "dma_load"
    DMA_STORE = "dma_store"
    DMA_ONCHIP = "dma_onchip"
    PIM = "pim"
    SYNC = "sync"
    HOST = "host"


#: Units whose commands move data over the off-chip memory interface and are
#: therefore subject to the unified-memory exclusion with PIM computation.
OFFCHIP_UNITS = frozenset({Unit.DMA_LOAD, Unit.DMA_STORE})


class OpKind(str, Enum):
    """Operator a command implements (used for breakdowns and energy)."""

    # Fully-connected layers.
    FC_QKV = "fc_qkv"
    FC_PROJ = "fc_proj"
    FC_FFN1 = "fc_ffn1"
    FC_FFN2 = "fc_ffn2"
    LM_HEAD = "lm_head"
    EMBEDDING = "embedding"
    # Self-attention.
    QKT = "qkt"
    SV = "sv"
    SOFTMAX = "softmax"
    KEY_TRANSPOSE = "key_transpose"
    KV_CONCAT = "kv_concat"
    # Vector operations.
    LAYERNORM = "layernorm"
    RESIDUAL_ADD = "residual_add"
    GELU = "gelu"
    # Data movement.
    WEIGHT_LOAD = "weight_load"
    KV_LOAD = "kv_load"
    KV_STORE = "kv_store"
    ACTIVATION_LOAD = "activation_load"
    ACTIVATION_STORE = "activation_store"
    ONCHIP_MOVE = "onchip_move"
    # PIM macro operations.
    PIM_GEMV = "pim_gemv"
    PIM_GEMV_GELU = "pim_gemv_gelu"
    # Control.
    SYNC = "sync"
    DEVICE_COMM = "device_comm"


class PimScope(str, Enum):
    """How many PIM chips a macro PIM command occupies.

    QKV projections are partitioned head-wise across PIM chips (Fig. 6), so a
    per-head GEMV occupies a single chip and different heads can proceed in
    parallel; column-wise partitioned FC layers (attention output, FFN, LM
    head) are broadcast across all chips.
    """

    ALL_CHIPS = "all"
    SINGLE_CHIP = "single"


@dataclass(slots=True)
class Command:
    """One schedulable unit of work.

    Attributes
    ----------
    cid:
        Identifier, unique and monotonically increasing within a stream.
    unit:
        Execution unit the command occupies.
    kind:
        Operator implemented by the command.
    flops:
        Floating point work performed (0 for pure data movement).
    bytes_moved:
        Bytes transferred over the relevant interface (off-chip bytes for DMA
        commands, weight bytes streamed through the bank PUs for PIM
        commands, scratch-pad bytes for on-chip moves).
    dims:
        Operator dimensions, e.g. ``(n_tokens, d_in, d_out)`` for an FC.
    deps:
        Identifiers of commands that must complete before this one starts.
    tag:
        Breakdown category (Fig. 10), one of the ``TAG_*`` constants above:
        ``"LayerNorm"``, ``"Self-attention"``, ``"FC for Q,K,V"``,
        ``"FC for Attention + Add"``, ``"FFN+Add"``, ...
    pim_scope / pim_chip:
        For PIM commands, whether the macro occupies all chips or one chip
        (and which one).
    """

    cid: int
    unit: Unit
    kind: OpKind
    flops: float = 0.0
    bytes_moved: int = 0
    dims: tuple[int, ...] = ()
    deps: tuple[int, ...] = ()
    tag: str = ""
    pim_scope: PimScope = PimScope.ALL_CHIPS
    pim_chip: int = 0
    fused_activation: bool = False
    metadata: dict = field(default_factory=dict)

    def is_offchip(self) -> bool:
        """True if the command uses the off-chip memory interface."""
        return self.unit in OFFCHIP_UNITS

    def is_pim(self) -> bool:
        return self.unit is Unit.PIM


class CommandStream:
    """An append-only DAG of commands with validation helpers.

    Commands may only depend on previously added commands, which guarantees
    the stream is acyclic and lets the engine process it in a single forward
    pass.
    """

    #: How many passes the numbers stand for as columns: ``None`` for a
    #: stream of Python numbers (see :class:`ReplayedStream`).
    columns: int | None = None

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._commands: list[Command] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        unit: Unit,
        kind: OpKind,
        *,
        flops: float = 0.0,
        bytes_moved: int = 0,
        dims: tuple[int, ...] = (),
        deps: Iterable["Command | int"] = (),
        tag: str = "",
        pim_scope: PimScope = PimScope.ALL_CHIPS,
        pim_chip: int = 0,
        fused_activation: bool = False,
        **metadata,
    ) -> Command:
        """Append a command and return it.

        ``deps`` may contain :class:`Command` objects or raw identifiers;
        references to commands that are not part of this stream raise
        ``ValueError``.
        """
        cid = len(self._commands)
        dep_ids = []
        for dep in deps:
            dep_id = dep.cid if isinstance(dep, Command) else int(dep)
            if not 0 <= dep_id < cid:
                raise ValueError(
                    f"command {cid} depends on {dep_id}, which is not an "
                    f"earlier command of this stream"
                )
            dep_ids.append(dep_id)
        command = Command(
            cid=cid,
            unit=unit,
            kind=kind,
            flops=flops,
            bytes_moved=bytes_moved,
            dims=tuple(dims),
            deps=tuple(sorted(set(dep_ids))),
            tag=tag,
            pim_scope=pim_scope,
            pim_chip=pim_chip,
            fused_activation=fused_activation,
            metadata=dict(metadata),
        )
        self._commands.append(command)
        return command

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._commands)

    def __iter__(self) -> Iterator[Command]:
        return iter(self._commands)

    @property
    def template(self) -> "CommandStream":
        """The stream whose structure this one shares (itself here)."""
        return self

    def numbers(self) -> tuple[list[float], list[int], list[tuple[int, ...]]]:
        """Per-command FLOPs, bytes moved and dimensions, in command order."""
        commands = self._commands
        return (
            [c.flops for c in commands],
            [c.bytes_moved for c in commands],
            [c.dims for c in commands],
        )

    def validate(self) -> None:
        """Check structural invariants (identifiers, dependency ordering)."""
        for index, command in enumerate(self._commands):
            if command.cid != index:
                raise ValueError(
                    f"command at position {index} has identifier {command.cid}"
                )
            for dep in command.deps:
                if dep >= command.cid:
                    raise ValueError(
                        f"command {command.cid} depends on later command {dep}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(label={self.label!r}, commands={len(self)})"


class ReplayedStream(CommandStream):
    """A stream rebuilt with the structure of an earlier one, its template.

    The builders that produced the template run again with new inputs, and
    every command must keep the template's unit, kind, dependencies, tag,
    PIM scope and chip, fused flag and metadata: only FLOPs, bytes and
    dimensions may change.  :meth:`add` checks the unit and kind against the
    template, so a builder whose structure drifts raises, and records the
    three numbers; :class:`Command` objects are built only when something
    iterates the stream.

    With ``columns=K`` the replay stands for K passes at once: each number
    is a Python scalar where it is the same in every pass, or a length-K
    array where it is not (as the builders compute it from a column of K
    KV lengths); :meth:`add` rejects an array of any other shape.  Such a
    replay is priced by
    :meth:`repro.scheduling.EventEngine.simulate_range`, one column per
    pass; it builds no :class:`Command`, and iterating it raises.
    """

    def __init__(
        self, template: CommandStream, label: str = "", columns: int | None = None
    ) -> None:
        if columns is not None and columns < 1:
            raise ValueError(f"a range of columns needs at least one, got {columns}")
        template = template.template
        self.label = label
        self.columns = columns
        self._template = template
        self._structure = template._commands
        self._flops: list[float] = []
        self._bytes: list[int] = []
        self._dims: list[tuple[int, ...]] = []
        self._materialized: list[Command] = []

    def add(
        self,
        unit: Unit,
        kind: OpKind,
        *,
        flops: float = 0.0,
        bytes_moved: int = 0,
        dims: tuple[int, ...] = (),
        deps: Iterable["Command | int"] = (),
        tag: str = "",
        pim_scope: PimScope = PimScope.ALL_CHIPS,
        pim_chip: int = 0,
        fused_activation: bool = False,
        **metadata,
    ) -> Command:
        """Record the next command's numbers and return the template's command.

        The returned command stands for the new one as a dependency (same
        identifier); its numbers are the template's.
        """
        cid = len(self._flops)
        if cid >= len(self._structure):
            raise ValueError(
                f"replay of {self._template.label!r} adds command {cid}, but "
                f"the template has only {len(self._structure)}"
            )
        expected = self._structure[cid]
        if expected.unit is not unit or expected.kind is not kind:
            raise ValueError(
                f"replay of {self._template.label!r} diverged at command {cid}: "
                f"the template has {expected.unit.value}/{expected.kind.value}, "
                f"the builder added {unit.value}/{kind.value}"
            )
        if self.columns is not None:
            for number in (flops, bytes_moved, *dims):
                if isinstance(number, np.ndarray) and number.shape != (self.columns,):
                    raise ValueError(
                        f"command {cid} of {self.label!r} has a column of shape "
                        f"{number.shape}, not ({self.columns},)"
                    )
        self._flops.append(flops)
        self._bytes.append(bytes_moved)
        self._dims.append(tuple(dims))
        return expected

    def __len__(self) -> int:
        return len(self._flops)

    def __iter__(self) -> Iterator[Command]:
        return iter(self._built())

    @property
    def template(self) -> CommandStream:
        return self._template

    def numbers(self) -> tuple[list[float], list[int], list[tuple[int, ...]]]:
        return self._flops, self._bytes, self._dims

    def validate(self) -> None:
        """Check that the replay rebuilt every command of its template."""
        if len(self) != len(self._structure):
            raise ValueError(
                f"replay of {self._template.label!r} has {len(self)} of the "
                f"template's {len(self._structure)} commands"
            )

    def _built(self) -> list[Command]:
        """The commands recorded so far, each built once on first access."""
        if self.columns is not None:
            raise ValueError(
                f"replay {self.label!r} holds {self.columns} passes as columns "
                f"and has no commands of its own"
            )
        built = self._materialized
        for cid in range(len(built), len(self)):
            shape = self._structure[cid]
            built.append(Command(
                cid=cid,
                unit=shape.unit,
                kind=shape.kind,
                flops=self._flops[cid],
                bytes_moved=self._bytes[cid],
                dims=self._dims[cid],
                deps=shape.deps,
                tag=shape.tag,
                pim_scope=shape.pim_scope,
                pim_chip=shape.pim_chip,
                fused_activation=shape.fused_activation,
                metadata=dict(shape.metadata),
            ))
        return built
