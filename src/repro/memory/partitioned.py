"""Partitioned main-memory organisation (the baseline of Fig. 13).

Systems that pair a host (CPU/GPU/NPU) with commercial PIM traditionally
dedicate part of main memory to the PIM accelerator and the rest to the host.
For LLMs this is wasteful because the FC parameters — about 91% of GPT-2 —
are needed by both sides and must be duplicated to avoid data movement.

The partitioned configuration evaluated in the paper keeps the total capacity
at 8 GB (4 GB of plain DRAM for the NPU plus 4 GB of PIM), duplicates as many
FC parameters as fit, and executes the FCs whose parameters could not be
duplicated on the matrix unit, moving them from the PIM region when needed.
Normal accesses and PIM computation *can* overlap (they target different
devices), but only half of the PIM compute throughput is available.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.models.transformer import ModelConfig
from repro.memory.unified import MemoryCapacityError, MemoryPlacement

__all__ = ["PartitionedMemorySystem"]


class PartitionedMemorySystem:
    """Capacity accounting of the partitioned organisation.

    Its concurrency rule (normal accesses and PIM computation target
    different devices, so they may overlap) is applied by
    :class:`~repro.scheduling.events.EventEngine` from
    ``config.memory_policy``.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    @property
    def npu_region_bytes(self) -> int:
        return self.config.pim.capacity_bytes // 2

    @property
    def pim_region_bytes(self) -> int:
        return self.config.pim.capacity_bytes // 2

    def place(self, model: ModelConfig, max_sequence_length: int) -> MemoryPlacement:
        """Compute the duplicated / non-duplicated split of the FC parameters.

        Non-FC data (embeddings, norms, KV cache) lives in the NPU region;
        FC parameters live in the PIM region and are duplicated into the NPU
        region as capacity allows (the paper duplicates everything for
        GPT-2 M/L/XL; for 2.5B the parameters no longer fit twice).
        """
        fc_bytes, fc_in_pim, weights, room = self._fixed_terms(model)
        kv_bytes = model.kv_cache_bytes(max_sequence_length)
        duplicated = self._duplicated(model, fc_in_pim, room - kv_bytes)
        other = weights + kv_bytes
        return MemoryPlacement(
            shared_fc_bytes=0,
            duplicated_fc_bytes=duplicated,
            non_duplicated_fc_bytes=fc_bytes - duplicated,
            other_bytes=other,
            total_bytes=fc_bytes + duplicated + other,
            capacity_bytes=self.config.pim.capacity_bytes,
        )

    def non_duplicated_fractions(
        self, model: ModelConfig, max_sequence_lengths: list[int]
    ) -> list[float]:
        """Fraction of FC bytes that could not be duplicated (0 when all fit)
        at each sequence length, with :meth:`place`'s terms that do not
        depend on it taken once.  Raises :class:`MemoryCapacityError` where
        :meth:`place` would."""
        fc_bytes, fc_in_pim, _, room = self._fixed_terms(model)
        fractions = []
        for length in max_sequence_lengths:
            duplicated = self._duplicated(
                model, fc_in_pim, room - model.kv_cache_bytes(length)
            )
            fractions.append((fc_bytes - duplicated) / fc_bytes if fc_bytes else 0.0)
        return fractions

    def _fixed_terms(self, model: ModelConfig) -> tuple[int, int, int, int]:
        """The placement's bytes that do not depend on the sequence length:
        the FC parameters, those the PIM region holds, the non-FC weights,
        and the NPU region's room for the KV cache and the duplicates."""
        fc_bytes = model.fc_param_bytes
        weights = model.param_bytes - model.num_blocks * model.fc_params_per_block * 2
        # FC parameters live in the PIM region; whatever exceeds it spills to
        # the NPU region (where it is not PIM-computable).
        fc_in_pim = min(fc_bytes, self.pim_region_bytes)
        fc_spill = fc_bytes - fc_in_pim
        return fc_bytes, fc_in_pim, weights, self.npu_region_bytes - weights - fc_spill

    def _duplicated(self, model: ModelConfig, fc_in_pim: int, free: int) -> int:
        """FC bytes duplicated into the NPU region given the ``free`` bytes
        left there by everything else: the one capacity rule."""
        if free < 0:
            raise MemoryCapacityError(
                f"{model.name}: model data does not fit in the partitioned "
                f"organisation ({self.config.pim.capacity_bytes / 2**30:.0f} GiB total)"
            )
        return min(fc_in_pim, free)
