"""Dense decode-cost lookup tables for the serving run.

Pricing a decode pass through
:meth:`repro.serving.simulator.PassCostProvider.decode` costs a dict
lookup, a bisect over the anchor grid and a
:func:`~repro.core.costmodel.lerp_pass_cost` per *new* KV length.  That is
fast enough at hundreds of requests but it is still a Python call per
token; a run instead materializes the
whole ``kv -> cost`` function as a :class:`DecodeCostTable`: five dense
integer columns (latency in picoseconds, the three dynamic-energy
components in picojoules, FLOPs) indexed by ``kv - kv_lo``.

One form, one copy
------------------
A table is the only form its numbers take.  :func:`build_decode_table`
computes everything the engine reads — the columns and the exclusive
prefix sums of latency, energy and FLOPs as tuples of Python ints, the
columns again as one read-only int64 matrix for the decode runs, each
column's prefix sums as one for the arrival absorber, the ``c(1)`` base
and the flags that gate the fast paths — once per (backend fingerprint,
model fingerprint, anchor grid, KV range) per process.  The process-wide
decode-table cache (:func:`repro.perf.cache.global_decode_table_cache`)
holds the table as it is, every run, replica and weight swap installs it
by reference, and the persistent layer pickles it across processes.

Bit-exactness contract
----------------------
``table[kv]`` equals ``cost_tuple(provider.decode(kv, (kv_lo, kv_hi)))``
**bit for bit** for every KV length in ``[kv_lo, kv_hi]``: a table prices a
run whose KV bounds are its own range, over that range's
:func:`~repro.serving.simulator.anchor_grid`.  The interpolation runs in
floats, as the provider's does, and each row converts to integers through
the same function as :func:`~repro.serving.simulator.cost_tuple`.

* anchor evaluations go through the provider's own ``_decode_exact`` (and
  with it the backend's shared, persistently cacheable pass-cost cache —
  the PR 2 disk cache), so the anchors cost nothing when warm;
* between anchors the table applies the *same* IEEE-754 operations as
  :func:`~repro.core.costmodel.lerp_pass_cost` — ``a + w * (b - a)`` with
  ``w = (kv - low) / (high - low)`` — vectorized over the segment; the
  ``weight <= 0`` / ``weight >= 1`` early returns are reproduced with
  explicit masks (``a + 1.0 * (b - a)`` is *not* always ``b`` in floating
  point, so the masks are load-bearing).

The table also precomputes whether the fused-batch cost floors can ever
bind on it (:attr:`DecodeCostTable.floor_free`): when every column value is
at least the rounded ``base = c(1)`` component, ``sum - shared >= max``
holds for every batch drawn from the table — a batch of ``B`` never
shares more than ``B - 1`` rounded bases
(:func:`~repro.serving.simulator.shared_floor`) — so the array engine
may price whole runs of decode iterations from prefix-sum differences
instead of per-iteration maxes.  Integer prefix sums make such a
difference equal to the sum of the iterations it stands for.

The prefix sums are Python ints, which never overflow; their int64
matrices are checked on the way in, and a table whose prefix sums pass
int64 raises ``OverflowError`` instead of wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.serving.simulator import anchor_grid, cost_row, cost_tuple, floor_ticks

__all__ = ["DecodeCostTable", "build_decode_table", "check_int64"]

_INT64_MAX = np.iinfo(np.int64).max


def check_int64(bound: int, what: str) -> None:
    """Raise ``OverflowError`` when ``bound`` (a Python int bounding every
    number a numpy int64 computation makes) passes int64, which numpy
    would silently wrap."""
    if bound > _INT64_MAX:
        raise OverflowError(
            f"{what} reach {bound}, past the int64 range numpy computes in "
            f"({_INT64_MAX}, about 106 days in picoseconds)"
        )


def _int64_matrix(rows, what: str) -> np.ndarray:
    """A read-only int64 matrix of Python-int rows, checked to fit."""
    check_int64(max(map(max, rows)), what)
    matrix = np.array(rows, dtype=np.int64)
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class DecodeCostTable:
    """Dense per-KV-length decode costs over ``[kv_lo, kv_hi]``, in every
    form the array engine reads (see the module docstring).

    ``latency[kv - kv_lo]`` (etc.) is bit-identical to the matching entry
    of ``cost_tuple(provider.decode(kv, (kv_lo, kv_hi)))``: integer
    picoseconds, picojoules and FLOPs.  ``prefix_*`` are exclusive prefix
    sums (``prefix[j]`` = sum of the first ``j`` entries) of latency, of
    the three energies together and of FLOPs, so the engine's hot loops
    aggregate iteration runs with two tuple indexings per total.
    ``columns`` and ``prefix_matrix`` hold the columns and their prefix
    sums as int64 matrices, for the paths that price many iterations at
    once.  Built only by :func:`build_decode_table`;
    immutable, so one table serves every run priced over its range.
    """

    kv_lo: int
    kv_hi: int
    latency: tuple
    energy_memory: tuple
    energy_pim: tuple
    energy_npu: tuple
    flops: tuple
    prefix_latency: tuple
    prefix_energy: tuple
    prefix_flops: tuple
    #: ``floor_ticks`` of the shared c(1) floor (unrounded ticks).
    base: tuple
    #: True when no fused-batch floor can bind on any batch from this
    #: table (every value >= its rounded base component and latencies
    #: positive); the precondition of pricing a decode run from prefix
    #: sums.
    floor_free: bool
    #: Largest single-iteration latency: a per-step cost never exceeds
    #: ``batch * latency_max - floor``, so a run's budget above that bound
    #: is dismissed with one multiply.
    latency_max: int
    #: No value (nor the base) is negative, so a fused pass costs at least
    #: its largest member, a decode run's clock never decreases, its
    #: budget stop may search it, and its totals are bounded by its
    #: members' summed costs.
    nonnegative: bool
    #: The five columns as one read-only ``(n, 5)`` int64 matrix, a row per
    #: KV offset in ``cost_tuple`` order, for the decode runs, which price
    #: a batch from slices of it.
    columns: np.ndarray = field(compare=False, repr=False)
    #: The prefix sums as one read-only ``(n + 1, 5)`` int64 matrix, a row
    #: per KV offset and a column per cost component, for the arrival
    #: absorber, which prices whole windows of decode runs at once.
    prefix_matrix: np.ndarray = field(compare=False, repr=False)


def _interpolate_column(
    kv: np.ndarray, anchors: np.ndarray, anchor_values: np.ndarray
) -> np.ndarray:
    """Vectorized ``lerp_pass_cost`` over one scalar cost component.

    Reproduces ``PassCostProvider.decode`` exactly: bracket each KV length
    with ``bisect_left`` semantics (``searchsorted(side="left")`` clipped
    to ``[1, len - 1]``), mix with ``low + w * (high - low)``, and return
    the anchor value verbatim when the weight falls outside ``(0, 1)``.
    """
    position = np.searchsorted(anchors, kv, side="left")
    position = np.clip(position, 1, len(anchors) - 1)
    low_kv = anchors[position - 1]
    high_kv = anchors[position]
    low_value = anchor_values[position - 1]
    high_value = anchor_values[position]
    weight = (kv - low_kv) / (high_kv - low_kv)
    mixed = low_value + weight * (high_value - low_value)
    return np.where(weight <= 0.0, low_value, np.where(weight >= 1.0, high_value, mixed))


def build_decode_table(provider, kv_lo: int, kv_hi: int) -> DecodeCostTable:
    """Materialize ``cost_tuple(provider.decode(kv, (kv_lo, kv_hi)))`` over
    ``[kv_lo, kv_hi]`` (see the module docstring)."""
    if kv_hi < kv_lo:
        raise ValueError("kv_hi must be at least kv_lo")

    # One row per KV length, one column per cost component, in
    # cost_tuple order.
    if kv_lo == kv_hi:
        # Single-value KV range (e.g. prompt == max context): its one
        # length is an anchor of a grid that may hold no other, so the
        # table is one row, priced through the provider's decode path.
        rows = [cost_tuple(provider.decode(kv_lo, (kv_lo, kv_hi)))]
    else:
        anchors = np.asarray(anchor_grid((kv_lo, kv_hi)), dtype=np.int64)
        # The anchors' costs as floats, interpolated as the provider does.
        anchor_costs = np.asarray(
            [
                (
                    cost.latency_s,
                    cost.energy.normal_memory_j,
                    cost.energy.pim_op_j,
                    cost.energy.npu_cores_j,
                    cost.flops,
                )
                for cost in map(provider._decode_exact, anchors.tolist())
            ],
            dtype=np.float64,
        )
        kv = np.arange(kv_lo, kv_hi + 1, dtype=np.int64)
        matrix = np.stack(
            [
                _interpolate_column(kv, anchors, anchor_costs[:, component])
                for component in range(5)
            ],
            axis=1,
        )
        rows = [cost_row(*row) for row in matrix.tolist()]

    base = floor_ticks(provider.base())
    columns = list(zip(*rows))
    latency = columns[0]
    floor_free = min(latency) > 0 and all(
        min(column) >= round(floor) for column, floor in zip(columns, base)
    )
    # Python ints: exact at any length, so a prefix-sum difference is the
    # sum of the entries it spans.
    prefixes = [tuple(accumulate(column, initial=0)) for column in columns]
    return DecodeCostTable(
        kv_lo,
        kv_hi,
        *columns,
        prefix_latency=prefixes[0],
        prefix_energy=tuple(map(sum, zip(*prefixes[1:4]))),
        prefix_flops=prefixes[4],
        base=base,
        floor_free=floor_free,
        latency_max=max(latency),
        nonnegative=min(map(min, columns)) >= 0 and min(base) >= 0,
        columns=_int64_matrix(rows, "decode table costs"),
        prefix_matrix=_int64_matrix(list(zip(*prefixes)), "decode table prefix sums"),
    )


def table_matches_provider(table: DecodeCostTable, provider, sample: int = 64) -> bool:
    """Spot-check the bit-exactness contract (used by tests and benches)."""
    span = table.kv_hi - table.kv_lo + 1
    step = max(1, span // sample)
    checked = list(range(table.kv_lo, table.kv_hi + 1, step)) + [table.kv_hi]
    bounds = (table.kv_lo, table.kv_hi)
    for kv in checked:
        index = kv - table.kv_lo
        row = (
            table.latency[index],
            table.energy_memory[index],
            table.energy_pim[index],
            table.energy_npu[index],
            table.flops[index],
        )
        if row != cost_tuple(provider.decode(kv, bounds)):
            return False
    return True
