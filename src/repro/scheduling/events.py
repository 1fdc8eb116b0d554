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

:meth:`EventEngine.simulate_range` schedules K passes of one template at
once (a generation run prices its missed KV lengths this way): the stream is
one column replay (:class:`repro.ir.ReplayedStream` with ``columns=K``, from
:meth:`repro.compiler.Compiler.compile_range`), whose numbers are Python
scalars where no pass differs and length-K arrays where they do.  A command
whose dims and bytes are scalars has one duration, looked up once; one whose
dims or bytes vary is looked up once per column, and so are the DRAM row
activations of a PIM command whose dims vary.  The same schedule loop then
runs over rows of K numbers, with ``np.maximum`` where a single stream uses
the builtin ``max``.  The reductions follow the single-stream rules column
by column: the makespan is the largest end; a tag's interval union sorts
the (start, end) pairs lexicographically, takes the running maximum of the
ends and adds the merged segments' lengths in order (adding 0.0 is exact, so
a column with fewer segments still matches); counters and FLOPs add in
command order.  So each column equals :meth:`EventEngine.simulate` of its
pass compiled alone, bit for bit.  Every number crosses into the duration
model as a Python ``int`` (``.tolist()``): an ``np.int64`` key would hash
equal to the ``int`` one in :class:`DurationModel`'s shared cache and leave
``np.float64`` durations there for later single passes to read.  A range
pays numpy's per-operation cost on every command and tag, which only
several columns repay: a single stream stays on Python floats, and
:class:`repro.core.IanusSystem` prices fewer than
:data:`~repro.core.system.MIN_RANGE_COLUMNS` passes one at a time.

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

import numpy as np

from repro.config import MemoryPolicy, SchedulingPolicy, SystemConfig
from repro.ir.command import Command, CommandStream, OpKind, PimScope, Unit
from repro.scheduling.durations import DurationModel

__all__ = [
    "ScheduledCommand", "ActivityStats", "Timeline", "TimelineColumns", "EventEngine",
]


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


def _column_union(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """:func:`_interval_union` of each row's (start, end) pairs, all rows at
    once: the same sort, merges and additions in the same order.

    A pair opens a merged segment when it starts after the running maximum
    of the ends before it; the segment's length is that maximum at its last
    pair less its first pair's start.  The lengths are added in order, with
    0.0 at every pair that closes no segment.
    """
    order = np.lexsort((ends, starts))
    starts = np.take_along_axis(starts, order, axis=1)
    reach = np.maximum.accumulate(np.take_along_axis(ends, order, axis=1), axis=1)
    opens = np.ones(starts.shape, dtype=bool)
    opens[:, 1:] = starts[:, 1:] > reach[:, :-1]
    closes = np.ones(starts.shape, dtype=bool)
    closes[:, :-1] = opens[:, 1:]
    first = np.maximum.accumulate(np.where(opens, starts, -np.inf), axis=1)
    lengths = np.where(closes, reach - first, 0.0)
    return np.add.accumulate(lengths, axis=1)[:, -1]


def _added(numbers, rows, total):
    """``total`` plus ``numbers[i]`` for each of ``rows``, one after another:
    the order every counter, and a timeline's FLOPs, add in.  ``numbers``
    holds a number per command or a row of K columns per command."""
    for i in rows:
        total = total + numbers[i]
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
        """Every command's FLOPs, added one after another in command order.

        Not the builtin ``sum``: it compensates float sums from Python 3.12,
        which a column of :meth:`EventEngine.simulate_range` cannot follow.
        """
        if self._total_flops is None:
            self._total_flops = _added(self._flops, range(len(self._flops)), 0.0)
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
        "unit_rows",
        "tag_rows",
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
        #: The rows of each unit's commands, and of each breakdown tag's
        #: (sync points aside) in order of first appearance, as
        #: :meth:`Timeline.breakdown_by_tag` groups them.
        self.unit_rows: dict[Unit, list[int]] = {unit: [] for unit in Unit}
        self.tag_rows: dict[str, list[int]] = {}
        for i, command in enumerate(commands):
            self.unit_rows[command.unit].append(i)
            if command.tag and command.unit is not Unit.SYNC:
                self.tag_rows.setdefault(command.tag, []).append(i)


@dataclass(frozen=True, slots=True)
class TimelineColumns:
    """K passes of one template, scheduled as the columns of one schedule
    loop by :meth:`EventEngine.simulate_range`.

    ``starts`` and ``ends`` hold one row per pass and one column per
    command.  The lists hold, per pass and as Python numbers, what its
    :class:`Timeline` reports: ``makespan``, ``breakdown_by_tag()``,
    ``stats`` and ``total_flops()``.
    """

    starts: np.ndarray
    ends: np.ndarray
    makespans: list[float]
    breakdowns: list[dict[str, float]]
    stats: list[ActivityStats]
    flops: list[float]


def _per_column(number, count: int) -> list:
    """A scalar or a length-``count`` column as ``count`` Python numbers."""
    if isinstance(number, np.ndarray):
        return number.tolist()
    return [number] * count


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
        if stream.columns is not None:
            raise ValueError(
                f"stream {stream.label!r} holds {stream.columns} passes as "
                f"columns; schedule it with simulate_range"
            )

        structure = self._structure(stream)
        flops, bytes_moved, dims = stream.numbers()
        durations = self.durations.durations_of(
            structure.units, structure.kinds, dims, bytes_moved,
            structure.scopes, structure.fused,
        )
        starts, ends = self._schedule(structure, durations, 0.0, max)
        activations = sum(
            self._row_activations(structure, i, dims[i])
            for i in structure.unit_rows[Unit.PIM]
        )
        timeline = Timeline.from_arrays(
            label=stream.label,
            stats=ActivityStats(*self._counters(
                structure, flops, bytes_moved, activations, 0, 0.0,
            )),
            cids=structure.cids,
            units=structure.units,
            kinds=structure.kinds,
            tags=structure.tags,
            starts=starts,
            ends=ends,
            flops=flops,
            bytes_moved=bytes_moved,
        )
        self._timeline_cache[stream] = (structure.length, timeline)
        return timeline

    def simulate_range(self, stream: CommandStream) -> TimelineColumns:
        """Schedule the K passes of a column replay as the columns of one
        schedule loop.

        ``stream`` has ``columns=K`` (see
        :meth:`repro.compiler.Compiler.compile_range`); each FLOPs, bytes
        and dims entry is a scalar or a length-K array.  Column k equals
        :meth:`simulate` of pass k compiled alone: the makespan, every start
        and end, the tag breakdown, the stats and the FLOPs.
        """
        count = stream.columns
        if count is None:
            raise ValueError(f"stream {stream.label!r} is not a range of columns")
        structure = self._structure(stream)
        flops, bytes_moved, dims = stream.numbers()
        length = structure.length
        units, kinds = structure.units, structure.kinds
        scopes, fused = structure.scopes, structure.fused

        # One duration (and, for a PIM macro, one count of row activations)
        # per command whose dims and bytes are scalars; one per column where
        # they vary, from each column's numbers as Python ints.
        durations = []
        activations = np.zeros(count, dtype=np.int64)
        for i in range(length):
            if not isinstance(bytes_moved[i], np.ndarray) and not any(
                isinstance(dim, np.ndarray) for dim in dims[i]
            ):
                durations.append(self.durations.duration_of(
                    units[i], kinds[i], dims[i], bytes_moved[i], scopes[i], fused[i]
                ))
                if units[i] is Unit.PIM:
                    activations += self._row_activations(structure, i, dims[i])
                continue
            column_dims = list(zip(*(_per_column(dim, count) for dim in dims[i])))
            column_dims = column_dims or [()] * count
            durations.append(np.array(self.durations.durations_of(
                [units[i]] * count, [kinds[i]] * count, column_dims,
                _per_column(bytes_moved[i], count), [scopes[i]] * count,
                [fused[i]] * count,
            )))
            if units[i] is Unit.PIM:
                activations += np.array([
                    self._row_activations(structure, i, column) for column in column_dims
                ])

        zeros = np.zeros(count)
        starts, ends = self._schedule(structure, durations, zeros, np.maximum)
        # One row per pass, one column per command.
        starts = np.array(starts).T.copy()
        ends = np.array(ends).T.copy()
        breakdowns: list[dict[str, float]] = [{} for _ in range(count)]
        for tag, rows in structure.tag_rows.items():
            union = _column_union(starts[:, rows], ends[:, rows])
            for breakdown, value in zip(breakdowns, union.tolist()):
                breakdown[tag] = value
        counters = self._counters(
            structure, flops, bytes_moved, activations,
            np.zeros(count, dtype=np.int64), zeros,
        )
        return TimelineColumns(
            starts=starts,
            ends=ends,
            makespans=ends.max(axis=1, initial=0.0).tolist(),
            breakdowns=breakdowns,
            stats=[
                ActivityStats(*fields)
                for fields in zip(*(counter.tolist() for counter in counters))
            ],
            flops=_added(flops, range(length), zeros).tolist(),
        )

    def _structure(self, stream: CommandStream) -> _Structure:
        """The structure of ``stream``'s template, which it must replay whole."""
        template = stream.template
        structure = self._structure_cache.get(template)
        if structure is None or structure.length != len(template):
            structure = _Structure(self, template)
            self._structure_cache[template] = structure
        if len(stream) != structure.length:
            raise ValueError(
                f"stream {stream.label!r} has {len(stream)} of its template's "
                f"{structure.length} commands"
            )
        return structure

    # ------------------------------------------------------------------
    def _schedule(self, structure: _Structure, durations: list, zero, maximum):
        """Start and end of every command: the one schedule loop.

        Generic over its element: a float per command, with ``zero`` 0.0
        and the builtin ``max``, for one stream; a row of K floats per
        command, with a row of zeros and ``np.maximum``, for K replays as
        columns.  ``maximum(start, wait)`` keeps ``start`` unless the wait
        ends later, in both.
        """
        config = self.config
        unified = config.memory_policy is MemoryPolicy.UNIFIED
        naive = config.scheduling is SchedulingPolicy.NAIVE
        pim_blocks_offchip = unified and config.pim_compute_enabled

        length = structure.length
        ends = [zero] * length
        starts = [zero] * length
        unit_free: dict = {}
        unit_free_get = unit_free.get

        #: End of the latest PIM macro scheduled so far; off-chip DMA commands
        #: issued after a PIM macro wait for it under the unified organisation.
        last_pim_end = zero
        #: End of the latest off-chip DMA scheduled so far; a PIM macro waits
        #: for in-flight normal accesses under the unified organisation.
        last_offchip_end = zero
        #: With naive scheduling each PIM macro is a global barrier.
        barrier_time = zero
        #: Running maximum end time (needed for the naive barrier semantics).
        max_end = zero

        resources = structure.resources
        deps = structure.deps
        is_pim = structure.is_pim
        is_offchip = structure.is_offchip

        for i in range(length):
            start = barrier_time
            for dep in deps[i]:  # dependency
                start = maximum(start, ends[dep])
            keys = resources[i]
            for key in keys:  # resource
                start = maximum(start, unit_free_get(key, zero))
            if is_pim[i]:
                if unified:  # pim-after-dma
                    start = maximum(start, last_offchip_end)
                if naive:  # naive barrier
                    start = maximum(start, max_end)
            elif is_offchip[i] and pim_blocks_offchip:  # dma-after-pim
                start = maximum(start, last_pim_end)

            end = start + durations[i]
            for key in keys:
                unit_free[key] = end
            starts[i] = start
            ends[i] = end
            max_end = maximum(max_end, end)
            if is_pim[i]:
                last_pim_end = maximum(last_pim_end, end)
                if naive:
                    barrier_time = maximum(barrier_time, end)
            elif is_offchip[i]:
                last_offchip_end = maximum(last_offchip_end, end)
        return starts, ends

    def _resources(self, command: Command, num_chips: int) -> list[object]:
        """Resource instances a command occupies (empty for pure sync)."""
        if command.unit is Unit.SYNC:
            return []
        if command.unit is Unit.PIM:
            if command.pim_scope is PimScope.SINGLE_CHIP:
                return [("pim", command.pim_chip % max(1, num_chips))]
            return [("pim", chip) for chip in range(num_chips)]
        return [(command.unit,)]

    def _counters(
        self, structure: _Structure, flops, bytes_moved, row_activations, zero, zero_flops
    ) -> tuple:
        """The :class:`ActivityStats` fields, in field order, of one stream
        (numbers per command, ``zero`` 0 and ``zero_flops`` 0.0) or of K
        replays (rows of K columns per command, rows of zeros).  Each
        counter adds its unit's commands in command order."""
        rows = structure.unit_rows
        return (
            _added(bytes_moved, rows[Unit.DMA_LOAD], zero),
            _added(bytes_moved, rows[Unit.DMA_STORE], zero),
            _added(bytes_moved, rows[Unit.PIM], zero),
            row_activations,
            _added(flops, rows[Unit.MATRIX_UNIT], zero_flops),
            _added(flops, rows[Unit.VECTOR_UNIT], zero_flops),
            _added(bytes_moved, rows[Unit.DMA_ONCHIP], zero),
            zero + len(rows[Unit.PIM]),
        )

    def _row_activations(
        self, structure: _Structure, row: int, dims: tuple[int, ...]
    ) -> int:
        """DRAM row activations of the PIM macro at ``row``, with these dims."""
        pim = self.durations.pim
        if pim is None or len(dims) < 2:
            return 0
        n, d_in, d_out = dims if len(dims) == 3 else (1, *dims)
        single = structure.scopes[row] is PimScope.SINGLE_CHIP
        device = self.durations.pim_single_chip if single else pim
        return device.gemv(d_out, d_in, structure.fused[row]).row_activations * max(1, n)
