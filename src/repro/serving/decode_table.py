"""Dense decode-cost lookup tables for the vectorized serving engine.

The object engine prices every decode pass through
:meth:`repro.serving.simulator.PassCostProvider.decode` — a dict lookup, a
bisect over the anchor grid and a :func:`~repro.core.costmodel.lerp_pass_cost`
per *new* KV length.  That is fast enough at hundreds of requests but it is
still a Python call per token; the array engine instead materializes the
whole ``kv -> cost`` function as a :class:`DecodeCostTable`: five dense
columns (latency, the three dynamic-energy components, FLOPs) indexed by
``kv - kv_lo``.

One form, one copy
------------------
A table is the only form its numbers take.  :func:`build_decode_table`
computes everything the engine reads — the columns and their exclusive
prefix sums as tuples of Python floats, the columns again as one
read-only numpy matrix for the decode runs, the prefix sums again as one
for the arrival absorber, the ``c(1)`` base and the flags that gate the
fast paths — once per (backend fingerprint, model fingerprint, anchor
grid, KV range) per process.  The process-wide decode-table cache
(:func:`repro.perf.cache.global_decode_table_cache`) holds the table as
it is, every run, replica and weight swap installs it by reference, and
the persistent layer pickles it across processes.

Bit-exactness contract
----------------------
``table[kv]`` equals ``provider.decode(kv, (kv_lo, kv_hi))`` **bit for
bit** for every KV length in ``[kv_lo, kv_hi]``: a table prices a run whose
KV bounds are its own range, over that range's
:func:`~repro.serving.simulator.anchor_grid`.

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
at least the ``base = c(1)`` component, ``sum - shared >= max`` holds for
every batch drawn from the table, so the array engine may aggregate whole
runs of decode iterations with prefix sums instead of per-iteration maxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serving.simulator import anchor_grid, cost_tuple

__all__ = ["DecodeCostTable", "build_decode_table"]


@dataclass(frozen=True)
class DecodeCostTable:
    """Dense per-KV-length decode costs over ``[kv_lo, kv_hi]``, in every
    form the array engine reads (see the module docstring).

    ``latency[kv - kv_lo]`` (etc.) is bit-identical to
    ``provider.decode(kv, (kv_lo, kv_hi))``.  ``prefix_*`` are the
    columns' exclusive prefix sums (``prefix[j]`` = sum of the first ``j``
    entries), so the engine's hot loops aggregate iteration runs with two
    tuple indexings per column.  ``columns`` and ``prefix_matrix`` hold
    the same floats as numpy matrices, for the paths that price many
    iterations at once.  Built only by :func:`build_decode_table`;
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
    prefix_energy_memory: tuple
    prefix_energy_pim: tuple
    prefix_energy_npu: tuple
    prefix_flops: tuple
    #: ``(latency, mem_j, pim_j, npu_j, flops)`` of the shared c(1) floor.
    base: tuple
    #: True when no fused-batch floor can bind on any batch from this
    #: table (every value >= its base component and latencies positive);
    #: the precondition of the array engine's prefix-sum macro stepping.
    floor_free: bool
    #: Largest single-iteration latency: a per-step cost never exceeds
    #: ``batch * latency_max - shared``, so a macro-step budget above that
    #: bound is dismissed with one multiply.
    latency_max: float
    #: No latency is negative, so a fused pass costs at least its largest
    #: member, a decode run's clock never decreases and its budget stop
    #: may search it.
    latency_nonnegative: bool
    #: The five columns as one read-only ``(n, 5)`` matrix, a row per KV
    #: offset in ``cost_tuple`` order (the very floats of the column
    #: tuples), for the decode runs, which price a batch from slices of it.
    columns: np.ndarray = field(compare=False, repr=False)
    #: The prefix sums as one read-only ``(n + 1, 5)`` matrix, a row per
    #: KV offset and a column per cost component (the very floats of the
    #: ``prefix_*`` tuples), for the arrival absorber, which prices whole
    #: windows of decode runs at once.
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
    """Materialize ``provider.decode(kv, (kv_lo, kv_hi))`` over
    ``[kv_lo, kv_hi]`` (see the module docstring)."""
    if kv_hi < kv_lo:
        raise ValueError("kv_hi must be at least kv_lo")

    # One row per KV length, one column per cost component, in
    # cost_tuple order.
    if kv_lo == kv_hi:
        # Single-value KV range (e.g. prompt == max context): its one
        # length is an anchor of a grid that may hold no other, so the
        # table is one row, priced through the provider's decode path.
        matrix = np.asarray(
            [cost_tuple(provider.decode(kv_lo, (kv_lo, kv_hi)))], dtype=np.float64
        )
    else:
        anchors = np.asarray(anchor_grid((kv_lo, kv_hi)), dtype=np.int64)
        anchor_costs = np.asarray(
            [cost_tuple(provider._decode_exact(int(anchor))) for anchor in anchors],
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

    base = cost_tuple(provider.base())
    floor_free = bool(
        np.all(matrix[:, 0] > 0.0) and np.all(matrix[:, :4] >= np.asarray(base[:4]))
    )
    # numpy's cumsum adds sequentially, so ``prefix[b] - prefix[a]``
    # reproduces the left-to-right partial sums the object engine would
    # have accumulated, up to the subtraction's last-bit rounding (why
    # macro-stepped metrics are pinned to 1e-9, not bit-identical).
    prefix = np.zeros((len(matrix) + 1, 5))
    np.cumsum(matrix, axis=0, out=prefix[1:])
    matrix.setflags(write=False)
    prefix.setflags(write=False)
    latency = matrix[:, 0].tolist()
    return DecodeCostTable(
        kv_lo,
        kv_hi,
        # The five columns, then their prefix sums, in cost_tuple order.
        *map(tuple, matrix.T.tolist()),
        *map(tuple, prefix.T.tolist()),
        base=base,
        floor_free=floor_free,
        latency_max=max(latency),
        latency_nonnegative=min(latency) >= 0.0,
        columns=matrix,
        prefix_matrix=prefix,
    )


def table_matches_provider(table: DecodeCostTable, provider, sample: int = 64) -> bool:
    """Spot-check the bit-exactness contract (used by tests and benches)."""
    span = table.kv_hi - table.kv_lo + 1
    step = max(1, span // sample)
    checked = list(range(table.kv_lo, table.kv_hi + 1, step)) + [table.kv_hi]
    bounds = (table.kv_lo, table.kv_hi)
    for kv in checked:
        cost = provider.decode(kv, bounds)
        index = kv - table.kv_lo
        if (
            table.latency[index] != cost.latency_s
            or table.energy_memory[index] != cost.energy.normal_memory_j
            or table.energy_pim[index] != cost.energy.pim_op_j
            or table.energy_npu[index] != cost.energy.npu_cores_j
            or table.flops[index] != cost.flops
        ):
            return False
    return True
