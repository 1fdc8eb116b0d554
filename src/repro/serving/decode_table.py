"""Dense decode-cost lookup tables for the vectorized serving engine.

The object engine prices every decode pass through
:meth:`repro.serving.simulator.PassCostProvider.decode` — a dict lookup, a
bisect over the anchor grid and a :func:`~repro.core.costmodel.lerp_pass_cost`
per *new* KV length.  That is fast enough at hundreds of requests but it is
still a Python call per token; the array engine instead materializes the
whole ``kv -> cost`` function once per (model, backend, anchor grid) as a
:class:`DecodeCostTable`: five dense float64 columns (latency, the three
dynamic-energy components, FLOPs) indexed by ``kv - kv_lo``.

Bit-exactness contract
----------------------
``table[kv]`` equals ``provider.decode(kv)`` **bit for bit** for every KV
length in ``[kv_lo, kv_hi]``:

* anchor evaluations go through the provider's own ``_decode_exact`` (and
  with it the backend's shared, persistently cacheable pass-cost cache —
  the PR 2 disk cache), so the anchors cost nothing when warm;
* between anchors the table applies the *same* IEEE-754 operations as
  :func:`~repro.core.costmodel.lerp_pass_cost` — ``a + w * (b - a)`` with
  ``w = (kv - low) / (high - low)`` — vectorized over the segment; the
  ``weight <= 0`` / ``weight >= 1`` early returns are reproduced with
  explicit masks (``a + 1.0 * (b - a)`` is *not* always ``b`` in floating
  point, so the masks are load-bearing);
* KV lengths the provider has already priced exactly (``_exact_costs``,
  which ``prepare()`` deliberately keeps) override the interpolated value,
  mirroring the ``decode()`` lookup order.

The table also precomputes whether the fused-batch cost floors can ever
bind on it (:attr:`DecodeCostTable.floor_free`): when every column value is
at least the ``base = c(1)`` component, ``sum - shared >= max`` holds for
every batch drawn from the table, so the array engine may aggregate whole
runs of decode iterations with prefix sums instead of per-iteration maxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.simulator import cost_tuple

__all__ = [
    "DecodeCostTable",
    "build_decode_table",
    "table_to_payload",
    "table_from_payload",
]


@dataclass(frozen=True)
class DecodeCostTable:
    """Dense per-KV-length decode costs over ``[kv_lo, kv_hi]``.

    ``latency[kv - kv_lo]`` (etc.) is bit-identical to
    ``provider.decode(kv)`` — see the module docstring for the contract.
    ``base`` is the ``c(1)`` floor as plain floats in the same column
    order; ``prefix_*`` are exclusive prefix sums (``prefix[j] = sum of the
    first j entries``) exposed as Python float lists so the engine's hot
    loop aggregates iteration runs with two list indexings per column.
    """

    kv_lo: int
    kv_hi: int
    latency: np.ndarray
    energy_memory: np.ndarray
    energy_pim: np.ndarray
    energy_npu: np.ndarray
    flops: np.ndarray
    #: ``(latency, mem_j, pim_j, npu_j, flops)`` of the shared c(1) floor.
    base: tuple[float, float, float, float, float]
    #: True when no fused-batch floor can bind on any batch from this
    #: table (every value >= its base component and latencies positive);
    #: the precondition of the array engine's prefix-sum macro stepping.
    floor_free: bool

    def __post_init__(self) -> None:
        size = self.kv_hi - self.kv_lo + 1
        for column in (
            self.latency,
            self.energy_memory,
            self.energy_pim,
            self.energy_npu,
            self.flops,
        ):
            if len(column) != size:
                raise ValueError(
                    f"column length {len(column)} does not cover "
                    f"[{self.kv_lo}, {self.kv_hi}]"
                )

    def columns(self) -> "tuple[list, list, list, list, list]":
        """The five columns as Python float lists (scalar hot-loop form)."""
        return (
            self.latency.tolist(),
            self.energy_memory.tolist(),
            self.energy_pim.tolist(),
            self.energy_npu.tolist(),
            self.flops.tolist(),
        )

    def prefix_sums(self) -> "tuple[list, list, list, list, list]":
        """Exclusive prefix sums of the columns as Python float lists.

        ``numpy.cumsum`` accumulates sequentially, so ``prefix[b] -
        prefix[a]`` reproduces the left-to-right partial sums the object
        engine would have accumulated (up to the subtraction's last-bit
        rounding, which is why macro-stepped metrics are pinned to 1e-9
        rather than bit-identical).
        """
        out = []
        for column in (
            self.latency,
            self.energy_memory,
            self.energy_pim,
            self.energy_npu,
            self.flops,
        ):
            prefix = np.empty(len(column) + 1, dtype=np.float64)
            prefix[0] = 0.0
            np.cumsum(column, out=prefix[1:])
            out.append(prefix.tolist())
        return tuple(out)


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
    """Materialize ``provider.decode`` over ``[kv_lo, kv_hi]`` (see module doc).

    The provider must have its anchor grid prepared
    (:meth:`~repro.serving.simulator.PassCostProvider.prepare`) and must
    not be in ``exact`` mode — exact decoding has no anchor structure to
    densify, so the array engine prices those passes one by one instead.
    """
    if kv_hi < kv_lo:
        raise ValueError("kv_hi must be at least kv_lo")
    if provider.exact:
        raise ValueError("exact providers price per KV length; no table to build")
    if kv_lo < kv_hi and len(provider._anchors) < 2:
        raise ValueError("provider has no anchor grid; call prepare() first")

    # Column names in cost_tuple order.
    names = ("latency", "energy_memory", "energy_pim", "energy_npu", "flops")
    columns = {}
    if kv_lo == kv_hi:
        # Single-value KV range (e.g. prompt == max context, so every
        # decode pass runs at one length): no interpolation structure is
        # needed or available — price the one length through the
        # provider's own decode path and emit a 1-row table.  A grid with
        # fewer than two anchors is fine here; decode() falls back to
        # exact pricing for it, and so do we.
        for name, value in zip(names, cost_tuple(provider.decode(kv_lo))):
            columns[name] = np.asarray([value], dtype=np.float64)
    else:
        anchors = np.asarray(provider._anchors, dtype=np.int64)
        anchor_costs = [
            cost_tuple(provider._decode_exact(int(anchor))) for anchor in anchors
        ]
        kv = np.arange(kv_lo, kv_hi + 1, dtype=np.int64)
        for name, values in zip(names, zip(*anchor_costs)):
            columns[name] = _interpolate_column(
                kv, anchors, np.asarray(values, dtype=np.float64)
            )

    # decode() consults _exact_costs before interpolating, and prepare()
    # deliberately keeps exact prices across grids — mirror that override
    # so a reused provider tables out exactly what decode() would return.
    for exact_kv, cost in provider._exact_costs.items():
        if kv_lo <= exact_kv <= kv_hi:
            index = exact_kv - kv_lo
            for name, value in zip(names, cost_tuple(cost)):
                columns[name][index] = value

    base = cost_tuple(provider.base())
    floor_free = bool(
        np.all(columns["latency"] > 0.0)
        and np.all(columns["latency"] >= base[0])
        and np.all(columns["energy_memory"] >= base[1])
        and np.all(columns["energy_pim"] >= base[2])
        and np.all(columns["energy_npu"] >= base[3])
    )
    return DecodeCostTable(
        kv_lo=kv_lo,
        kv_hi=kv_hi,
        latency=columns["latency"],
        energy_memory=columns["energy_memory"],
        energy_pim=columns["energy_pim"],
        energy_npu=columns["energy_npu"],
        flops=columns["flops"],
        base=base,
        floor_free=floor_free,
    )


def table_to_payload(table: DecodeCostTable) -> dict:
    """Plain-Python form of a table for the persistent cache layer.

    The disk cache compares cached values with ``!=`` when merging and
    pickles whole sections, so payloads stay numpy-free: five float lists,
    the base tuple and the floor flag.  Round-trips bit-exactly —
    ``float64 -> Python float -> float64`` is lossless.
    """
    return {
        "kv_lo": table.kv_lo,
        "kv_hi": table.kv_hi,
        "latency": table.latency.tolist(),
        "energy_memory": table.energy_memory.tolist(),
        "energy_pim": table.energy_pim.tolist(),
        "energy_npu": table.energy_npu.tolist(),
        "flops": table.flops.tolist(),
        "base": tuple(table.base),
        "floor_free": table.floor_free,
    }


def table_from_payload(payload: dict) -> "DecodeCostTable | None":
    """Rebuild a table from :func:`table_to_payload` output.

    Returns ``None`` on any structural mismatch (wrong type, missing key,
    column length inconsistent with the KV range) — a stale or corrupted
    cache entry must degrade to a rebuild, never to a crash.
    """
    try:
        table = DecodeCostTable(
            kv_lo=int(payload["kv_lo"]),
            kv_hi=int(payload["kv_hi"]),
            latency=np.asarray(payload["latency"], dtype=np.float64),
            energy_memory=np.asarray(payload["energy_memory"], dtype=np.float64),
            energy_pim=np.asarray(payload["energy_pim"], dtype=np.float64),
            energy_npu=np.asarray(payload["energy_npu"], dtype=np.float64),
            flops=np.asarray(payload["flops"], dtype=np.float64),
            base=tuple(payload["base"]),
            floor_free=bool(payload["floor_free"]),
        )
    except Exception:  # noqa: BLE001 - corrupt cache entry means "rebuild"
        return None
    if len(table.base) != 5:
        return None
    return table


def table_matches_provider(table: DecodeCostTable, provider, sample: int = 64) -> bool:
    """Spot-check the bit-exactness contract (used by tests and benches)."""
    span = table.kv_hi - table.kv_lo + 1
    step = max(1, span // sample)
    checked = list(range(table.kv_lo, table.kv_hi + 1, step)) + [table.kv_hi]
    for kv in checked:
        cost = provider.decode(kv)
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
