"""Unified main-memory organisation (the IANUS approach, Sec. 3.2).

In the unified memory system the PIM devices *are* the NPU's main memory:

* FC parameters are stored exactly once and are visible both to normal NPU
  loads and to the PIM processing units — no duplication and no movement of
  shared data (about a 2x footprint reduction versus partitioned memory);
* all eight channels' processing units participate in PIM compute;
* normal memory accesses and PIM computation cannot proceed concurrently on
  the same devices, which is the scheduling challenge PAS addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.models.transformer import ModelConfig

__all__ = ["MemoryPlacement", "UnifiedMemorySystem", "MemoryCapacityError"]


class MemoryCapacityError(RuntimeError):
    """Raised when a model does not fit in the memory organisation."""


@dataclass(frozen=True)
class MemoryPlacement:
    """How a model's data is laid out in main memory."""

    #: Bytes of FC parameters stored once and shared by NPU and PIM.
    shared_fc_bytes: int
    #: Bytes of FC parameters stored twice (partitioned organisation only).
    duplicated_fc_bytes: int
    #: FC parameter bytes that could *not* be duplicated for capacity reasons
    #: and therefore execute on the matrix unit with cross-region transfers.
    non_duplicated_fc_bytes: int
    #: Non-FC bytes (embeddings, norms, KV cache budget).
    other_bytes: int
    #: Total bytes occupied in main memory.
    total_bytes: int
    #: Capacity of the memory region(s) considered.
    capacity_bytes: int

    @property
    def fits(self) -> bool:
        return self.total_bytes <= self.capacity_bytes


class UnifiedMemorySystem:
    """Capacity accounting of the unified organisation.

    Its concurrency rule (PIM computation and normal accesses exclude each
    other) is applied by :class:`~repro.scheduling.events.EventEngine` from
    ``config.memory_policy``.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    def place(self, model: ModelConfig, max_sequence_length: int) -> MemoryPlacement:
        """Compute the memory layout of a model plus its KV-cache budget."""
        fc_bytes = model.fc_param_bytes
        other = model.param_bytes - model.num_blocks * model.fc_params_per_block * 2
        kv_budget = model.kv_cache_bytes(max_sequence_length)
        total = fc_bytes + other + kv_budget
        capacity = self.config.memory_capacity_bytes
        placement = MemoryPlacement(
            shared_fc_bytes=fc_bytes,
            duplicated_fc_bytes=0,
            non_duplicated_fc_bytes=0,
            other_bytes=other + kv_budget,
            total_bytes=total,
            capacity_bytes=capacity,
        )
        if not placement.fits:
            raise MemoryCapacityError(
                f"{model.name} needs {total / 2**30:.2f} GiB but the unified "
                f"memory provides {capacity / 2**30:.2f} GiB"
            )
        return placement
