"""Event-driven execution of command streams.

The engine assigns a start and end time to every command of a
:class:`repro.ir.CommandStream`, respecting

* dependencies between commands,
* in-order issue per execution unit (matrix unit, vector unit, the three DMA
  engines, the PIM chips), matching how the NPU command scheduler issues
  commands to a unit's issue queue,
* the scheduling policy: PIM Access Scheduling (PAS) parks off-chip DMA
  commands while a PIM macro executes on the unified memory (and vice versa),
  while the naive policy treats every PIM macro as a global barrier,
* the memory organisation: the partitioned system allows PIM computation and
  normal accesses to overlap.

The result is a :class:`Timeline` with the makespan, per-unit busy times, a
per-tag interval union used for the Fig. 10 latency breakdown, and the
activity statistics consumed by the energy model.
:func:`repro.scheduling.check_timeline` states these rules once more,
declaratively, and checks a finished timeline against them.

Fast path
---------
The engine splits the work of simulating a stream in two:

* a *structure* record — resource keys, dependency tuples, policy flags and
  validation — computed once per (engine, template stream).  A stream built
  command by command is its own template; a :class:`repro.ir.ReplayedStream`
  (a compiled block at another KV length) shares its template's record;
* per stream, only what its numbers decide: the durations (through
  :class:`DurationModel`'s cache) and the :class:`ActivityStats`, before the
  one schedule loop.

The finished :class:`Timeline` is cached per stream object (weakly keyed,
guarded by the stream length so an appended-to stream is re-simulated).

:class:`Timeline` is lazy: the engine stores parallel arrays of start/end
times and only materializes :class:`ScheduledCommand` objects when a caller
asks for ``timeline.commands`` (the Gantt renderer, a handful of tests).
Makespan, per-unit busy times, per-tag breakdowns and FLOP totals are
computed from the arrays on first use and cached.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass

from repro.config import MemoryPolicy, SchedulingPolicy, SystemConfig
from repro.ir.command import Command, CommandStream, OpKind, PimScope, Unit
from repro.scheduling.durations import DurationModel

__all__ = ["ScheduledCommand", "ActivityStats", "Timeline", "EventEngine"]


@dataclass(frozen=True, slots=True)
class ScheduledCommand:
    """A command with its assigned execution window."""

    cid: int
    unit: Unit
    kind: OpKind
    tag: str
    start: float
    end: float
    flops: float
    bytes_moved: int


@dataclass(slots=True)
class ActivityStats:
    """Aggregate activity counts used by the energy model."""

    offchip_read_bytes: int = 0
    offchip_write_bytes: int = 0
    pim_weight_bytes: int = 0
    pim_row_activations: int = 0
    matrix_unit_flops: float = 0.0
    vector_unit_flops: float = 0.0
    onchip_bytes: int = 0
    pim_macro_commands: int = 0

    def merge(self, other: "ActivityStats") -> "ActivityStats":
        return ActivityStats(
            offchip_read_bytes=self.offchip_read_bytes + other.offchip_read_bytes,
            offchip_write_bytes=self.offchip_write_bytes + other.offchip_write_bytes,
            pim_weight_bytes=self.pim_weight_bytes + other.pim_weight_bytes,
            pim_row_activations=self.pim_row_activations + other.pim_row_activations,
            matrix_unit_flops=self.matrix_unit_flops + other.matrix_unit_flops,
            vector_unit_flops=self.vector_unit_flops + other.vector_unit_flops,
            onchip_bytes=self.onchip_bytes + other.onchip_bytes,
            pim_macro_commands=self.pim_macro_commands + other.pim_macro_commands,
        )

    def scaled(self, factor: float) -> "ActivityStats":
        # Byte and event counters are rounded, not truncated: fast-mode
        # interpolation scales by fractional weights, and truncation would
        # systematically undercount the energy model's inputs.
        return ActivityStats(
            offchip_read_bytes=round(self.offchip_read_bytes * factor),
            offchip_write_bytes=round(self.offchip_write_bytes * factor),
            pim_weight_bytes=round(self.pim_weight_bytes * factor),
            pim_row_activations=round(self.pim_row_activations * factor),
            matrix_unit_flops=self.matrix_unit_flops * factor,
            vector_unit_flops=self.vector_unit_flops * factor,
            onchip_bytes=round(self.onchip_bytes * factor),
            pim_macro_commands=round(self.pim_macro_commands * factor),
        )

    def with_core_scaling(self, num_cores: int) -> "ActivityStats":
        """Scale the representative core's activity up to all NPU cores.

        The command stream models one representative core, so DMA traffic and
        NPU compute must be multiplied by the core count; PIM activity is
        already system-wide (a macro command drives every participating chip)
        and stays unchanged.
        """
        return ActivityStats(
            offchip_read_bytes=self.offchip_read_bytes * num_cores,
            offchip_write_bytes=self.offchip_write_bytes * num_cores,
            pim_weight_bytes=self.pim_weight_bytes,
            pim_row_activations=self.pim_row_activations,
            matrix_unit_flops=self.matrix_unit_flops * num_cores,
            vector_unit_flops=self.vector_unit_flops * num_cores,
            onchip_bytes=self.onchip_bytes * num_cores,
            pim_macro_commands=self.pim_macro_commands,
        )


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    total = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    total += current_end - current_start
    return total


class Timeline:
    """Execution schedule of one command stream.

    The engine constructs timelines from parallel arrays
    (:meth:`from_arrays`); derived quantities — makespan, busy times, tag
    breakdowns, FLOP totals and the ``commands`` list itself — are computed
    on first access and cached.  Constructing a timeline directly from a list
    of :class:`ScheduledCommand` remains supported for tests and tools.
    """

    __slots__ = (
        "label",
        "stats",
        "_commands",
        "_cids",
        "_units",
        "_kinds",
        "_tags",
        "_starts",
        "_ends",
        "_flops",
        "_bytes",
        "_makespan",
        "_busy_by_unit",
        "_breakdown_by_tag",
        "_total_flops",
    )

    def __init__(
        self,
        commands: list[ScheduledCommand] | None = None,
        stats: ActivityStats | None = None,
        label: str = "",
    ) -> None:
        self.label = label
        self.stats = stats if stats is not None else ActivityStats()
        commands = list(commands) if commands is not None else []
        self._commands: list[ScheduledCommand] | None = commands
        self._cids = [c.cid for c in commands]
        self._units = [c.unit for c in commands]
        self._kinds = [c.kind for c in commands]
        self._tags = [c.tag for c in commands]
        self._starts = [c.start for c in commands]
        self._ends = [c.end for c in commands]
        self._flops = [c.flops for c in commands]
        self._bytes = [c.bytes_moved for c in commands]
        self._makespan: float | None = None
        self._busy_by_unit: dict = {}
        self._breakdown_by_tag: dict[str, float] | None = None
        self._total_flops: float | None = None

    @classmethod
    def from_arrays(
        cls,
        *,
        label: str,
        stats: ActivityStats,
        cids: list[int],
        units: list[Unit],
        kinds: list[OpKind],
        tags: list[str],
        starts: list[float],
        ends: list[float],
        flops: list[float],
        bytes_moved: list[int],
    ) -> "Timeline":
        """Build a lazy timeline without materializing ScheduledCommands."""
        timeline = cls.__new__(cls)
        timeline.label = label
        timeline.stats = stats
        timeline._commands = None
        timeline._cids = cids
        timeline._units = units
        timeline._kinds = kinds
        timeline._tags = tags
        timeline._starts = starts
        timeline._ends = ends
        timeline._flops = flops
        timeline._bytes = bytes_moved
        timeline._makespan = None
        timeline._busy_by_unit = {}
        timeline._breakdown_by_tag = None
        timeline._total_flops = None
        return timeline

    # ------------------------------------------------------------------
    @property
    def commands(self) -> list[ScheduledCommand]:
        """The full schedule (materialized on first access)."""
        if self._commands is None:
            self._commands = [
                ScheduledCommand(
                    cid=self._cids[i],
                    unit=self._units[i],
                    kind=self._kinds[i],
                    tag=self._tags[i],
                    start=self._starts[i],
                    end=self._ends[i],
                    flops=self._flops[i],
                    bytes_moved=self._bytes[i],
                )
                for i in range(len(self._starts))
            ]
        return self._commands

    @property
    def makespan(self) -> float:
        if self._makespan is None:
            self._makespan = max(self._ends, default=0.0)
        return self._makespan

    def busy_time(self, unit: Unit) -> float:
        cached = self._busy_by_unit.get(unit)
        if cached is None:
            units = self._units
            cached = _interval_union(
                [
                    (self._starts[i], self._ends[i])
                    for i in range(len(units))
                    if units[i] is unit
                ]
            )
            self._busy_by_unit[unit] = cached
        return cached

    def breakdown_by_tag(self) -> dict[str, float]:
        """Latency attributed to each breakdown tag (interval union per tag)."""
        if self._breakdown_by_tag is None:
            by_tag: dict[str, list[tuple[float, float]]] = defaultdict(list)
            units = self._units
            tags = self._tags
            for i in range(len(units)):
                tag = tags[i]
                if tag and units[i] is not Unit.SYNC:
                    by_tag[tag].append((self._starts[i], self._ends[i]))
            self._breakdown_by_tag = {
                tag: _interval_union(spans) for tag, spans in by_tag.items()
            }
        return dict(self._breakdown_by_tag)

    def total_flops(self) -> float:
        if self._total_flops is None:
            self._total_flops = sum(self._flops)
        return self._total_flops

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Timeline(label={self.label!r}, commands={len(self._starts)})"


class _Structure:
    """Per-(engine, template) precomputation: everything that depends only
    on a stream's structure, shared by the streams replayed from it."""

    __slots__ = (
        "length",
        "resources",
        "deps",
        "is_pim",
        "is_offchip",
        "cids",
        "units",
        "kinds",
        "tags",
        "scopes",
        "fused",
    )

    def __init__(self, engine: "EventEngine", stream: CommandStream) -> None:
        stream.validate()
        num_chips = engine.config.pim.num_chips
        commands = list(stream)
        self.length = len(commands)
        self.resources = [tuple(engine._resources(c, num_chips)) for c in commands]
        self.deps = [c.deps for c in commands]
        self.is_pim = [c.is_pim() for c in commands]
        self.is_offchip = [c.is_offchip() for c in commands]
        self.cids = [c.cid for c in commands]
        self.units = [c.unit for c in commands]
        self.kinds = [c.kind for c in commands]
        self.tags = [c.tag for c in commands]
        self.scopes = [c.pim_scope for c in commands]
        self.fused = [c.fused_activation for c in commands]


class EventEngine:
    """Assigns execution windows to a command stream's commands."""

    def __init__(self, config: SystemConfig, durations: DurationModel | None = None) -> None:
        self.config = config
        self.durations = durations or DurationModel(config)
        self._structure_cache: "weakref.WeakKeyDictionary[CommandStream, _Structure]" = (
            weakref.WeakKeyDictionary()
        )
        self._timeline_cache: "weakref.WeakKeyDictionary[CommandStream, tuple[int, Timeline]]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    def simulate(self, stream: CommandStream) -> Timeline:
        cached = self._timeline_cache.get(stream)
        if cached is not None and cached[0] == len(stream):
            return cached[1]

        structure = self._structure(stream.template)
        length = structure.length
        if len(stream) != length:
            raise ValueError(
                f"stream {stream.label!r} has {len(stream)} of its template's "
                f"{length} commands"
            )
        flops, bytes_moved, dims = stream.numbers()
        durations = list(map(
            self.durations.duration_of, structure.units, structure.kinds, dims,
            bytes_moved, structure.scopes, structure.fused,
        ))

        config = self.config
        unified = config.memory_policy is MemoryPolicy.UNIFIED
        naive = config.scheduling is SchedulingPolicy.NAIVE
        pim_blocks_offchip = unified and config.pim_compute_enabled

        ends: list[float] = [0.0] * length
        starts: list[float] = [0.0] * length
        unit_free: dict[object, float] = {}
        unit_free_get = unit_free.get

        #: End of the latest PIM macro scheduled so far; off-chip DMA commands
        #: issued after a PIM macro wait for it under the unified organisation.
        last_pim_end = 0.0
        #: End of the latest off-chip DMA scheduled so far; a PIM macro waits
        #: for in-flight normal accesses under the unified organisation.
        last_offchip_end = 0.0
        #: With naive scheduling each PIM macro is a global barrier.
        barrier_time = 0.0
        #: Running maximum end time (needed for the naive barrier semantics).
        max_end = 0.0

        resources = structure.resources
        deps = structure.deps
        is_pim = structure.is_pim
        is_offchip = structure.is_offchip

        for i in range(length):
            start = barrier_time
            for dep in deps[i]:
                dep_end = ends[dep]
                if dep_end > start:
                    start = dep_end

            keys = resources[i]
            for key in keys:
                free = unit_free_get(key, 0.0)
                if free > start:
                    start = free

            if is_pim[i]:
                if unified and last_offchip_end > start:
                    start = last_offchip_end
                if naive and max_end > start:
                    start = max_end
            elif is_offchip[i] and pim_blocks_offchip and last_pim_end > start:
                start = last_pim_end

            end = start + durations[i]
            for key in keys:
                unit_free[key] = end
            starts[i] = start
            ends[i] = end
            if end > max_end:
                max_end = end
            if is_pim[i]:
                if end > last_pim_end:
                    last_pim_end = end
                if naive and end > barrier_time:
                    barrier_time = end
            elif is_offchip[i] and end > last_offchip_end:
                last_offchip_end = end

        timeline = Timeline.from_arrays(
            label=stream.label,
            stats=self._activity(structure, flops, bytes_moved, dims),
            cids=structure.cids,
            units=structure.units,
            kinds=structure.kinds,
            tags=structure.tags,
            starts=starts,
            ends=ends,
            flops=flops,
            bytes_moved=bytes_moved,
        )
        self._timeline_cache[stream] = (length, timeline)
        return timeline

    def _structure(self, template: CommandStream) -> _Structure:
        structure = self._structure_cache.get(template)
        if structure is None or structure.length != len(template):
            structure = _Structure(self, template)
            self._structure_cache[template] = structure
        return structure

    # ------------------------------------------------------------------
    def _resources(self, command: Command, num_chips: int) -> list[object]:
        """Resource instances a command occupies (empty for pure sync)."""
        if command.unit is Unit.SYNC:
            return []
        if command.unit is Unit.PIM:
            if command.pim_scope is PimScope.SINGLE_CHIP:
                return [("pim", command.pim_chip % max(1, num_chips))]
            return [("pim", chip) for chip in range(num_chips)]
        return [(command.unit,)]

    def _activity(
        self,
        structure: _Structure,
        flops: list[float],
        bytes_moved: list[int],
        dims: list[tuple[int, ...]],
    ) -> ActivityStats:
        """Activity counts of one stream, accumulated in command order."""
        stats = ActivityStats()
        pim = self.durations.pim
        for i, unit in enumerate(structure.units):
            if unit is Unit.DMA_LOAD:
                stats.offchip_read_bytes += bytes_moved[i]
            elif unit is Unit.DMA_STORE:
                stats.offchip_write_bytes += bytes_moved[i]
            elif unit is Unit.DMA_ONCHIP:
                stats.onchip_bytes += bytes_moved[i]
            elif unit is Unit.PIM:
                stats.pim_weight_bytes += bytes_moved[i]
                stats.pim_macro_commands += 1
                if pim is not None and len(dims[i]) >= 2:
                    n, d_in, d_out = dims[i] if len(dims[i]) == 3 else (1, *dims[i])
                    single = structure.scopes[i] is PimScope.SINGLE_CHIP
                    device = self.durations.pim_single_chip if single else pim
                    estimate = device.gemv(d_out, d_in, structure.fused[i])
                    stats.pim_row_activations += estimate.row_activations * max(1, n)
            elif unit is Unit.MATRIX_UNIT:
                stats.matrix_unit_flops += flops[i]
            elif unit is Unit.VECTOR_UNIT:
                stats.vector_unit_flops += flops[i]
        return stats
