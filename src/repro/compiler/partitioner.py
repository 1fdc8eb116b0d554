"""Workload partitioning across NPU cores and PIM chips (Sec. 5.1, Fig. 6).

Two forms of parallelism are exploited:

* **attention-head parallelism** — the Q/K/V projection weights are
  partitioned head-wise across the PIM chips, and the attention heads are
  distributed across the NPU cores, so each core (and its associated PIM
  chip) processes its own heads independently;
* **intra-layer parallelism** — the remaining FC layers (attention output
  projection, the two FFN matrices, the LM head) are partitioned column-wise
  across cores, which keeps each core's output slice private and limits
  synchronisation to four points per block: after multi-head attention, after
  each residual addition, and after GELU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.models.transformer import ModelConfig

__all__ = ["WorkPartition", "WeightPartitioner"]


@dataclass(frozen=True)
class WorkPartition:
    """Static division of one block's work across cores and PIM chips."""

    #: Attention heads processed by the representative core (core 0).
    heads_on_core: int
    #: Output-feature slice of column-wise partitioned FC layers per core.
    projection_cols_per_core: int
    ffn1_cols_per_core: int
    ffn2_cols_per_core: int
    lm_head_cols_per_core: int
    #: PIM chip that stores the representative core's head-wise weights.
    pim_chip_for_core: int


class WeightPartitioner:
    """Computes the per-core / per-chip work division for a model.

    ``num_devices`` extends the same partitioning across multiple IANUS
    devices (Sec. 7.1): heads and FC columns are divided across
    ``num_devices * num_cores`` workers, and each device's PIM computes only
    its column slice of the column-partitioned layers.
    """

    def __init__(
        self, config: SystemConfig, model: ModelConfig, num_devices: int = 1
    ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.config = config
        self.model = model
        self.num_devices = num_devices

    def partition(self) -> WorkPartition:
        model = self.model
        workers = self.config.num_cores * self.num_devices
        heads_on_core = max(1, math.ceil(model.num_heads / workers))
        return WorkPartition(
            heads_on_core=heads_on_core,
            projection_cols_per_core=math.ceil(model.embedding_dim / workers),
            ffn1_cols_per_core=math.ceil(model.ffn_dim / workers),
            ffn2_cols_per_core=math.ceil(model.embedding_dim / workers),
            lm_head_cols_per_core=math.ceil(model.vocab_size / workers),
            pim_chip_for_core=0,
        )
