"""Tests for the unified and partitioned memory organisations: model placement,
capacity limits and the FC-parameter duplication of Fig. 13."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.core import IanusSystem
from repro.ir import Unit
from repro.memory import (
    MemoryCapacityError,
    PartitionedMemorySystem,
    UnifiedMemorySystem,
    make_memory_system,
)
from repro.models import GPT2_CONFIGS, LARGE_GPT_CONFIGS
from repro.models.workload import Stage, StagePass

#: A GPT-2 M generation pass: its QKV GEMVs run on the PIM while the
#: attention's KV traffic needs the off-chip interface.
_GENERATION = StagePass(Stage.GENERATION, num_tokens=1, kv_length=128)


def _pim_dma_overlaps(config: SystemConfig) -> tuple[int, int, int]:
    """(overlapping PIM/DMA pairs, PIM macros, off-chip DMAs) of one block."""
    timeline = IanusSystem(config).block_timeline(GPT2_CONFIGS["m"], _GENERATION)
    pim = [(c.start, c.end) for c in timeline.commands if c.unit is Unit.PIM]
    dma = [
        (c.start, c.end)
        for c in timeline.commands
        if c.unit in (Unit.DMA_LOAD, Unit.DMA_STORE)
    ]
    overlaps = sum(1 for a in pim for b in dma if a[0] < b[1] and b[0] < a[1])
    return overlaps, len(pim), len(dma)


class TestUnifiedMemorySystem:
    def test_gpt2_models_fit(self):
        system = UnifiedMemorySystem(SystemConfig.ianus())
        for model in GPT2_CONFIGS.values():
            placement = system.place(model, max_sequence_length=1024)
            assert placement.fits
            assert placement.duplicated_fc_bytes == 0
            assert placement.shared_fc_bytes == model.fc_param_bytes

    def test_large_models_do_not_fit_one_device(self):
        system = UnifiedMemorySystem(SystemConfig.ianus())
        with pytest.raises(MemoryCapacityError):
            system.place(LARGE_GPT_CONFIGS["6.7b"], max_sequence_length=1024)

    def test_no_concurrent_pim_and_dma(self):
        """Sec. 4.3: PIM computation and normal accesses share the devices,
        so the event engine never runs the two at once."""
        overlaps, pim, dma = _pim_dma_overlaps(SystemConfig.ianus())
        assert pim > 0 and dma > 0
        assert overlaps == 0

    def test_footprint_reduction_is_about_2x(self):
        """Sec. 3.2: unified memory roughly halves the footprint."""
        model = GPT2_CONFIGS["xl"]
        unified = UnifiedMemorySystem(SystemConfig.ianus()).place(model, 1024)
        partitioned = PartitionedMemorySystem(SystemConfig.partitioned()).place(
            model, 1024
        )
        assert 1.7 <= partitioned.total_bytes / unified.total_bytes <= 2.0


class TestPartitionedMemorySystem:
    def test_small_models_fully_duplicate(self):
        system = PartitionedMemorySystem(SystemConfig.partitioned())
        for key in ("m", "l", "xl"):
            placement = system.place(GPT2_CONFIGS[key], max_sequence_length=768)
            assert placement.non_duplicated_fc_bytes == 0
            assert placement.duplicated_fc_bytes == GPT2_CONFIGS[key].fc_param_bytes

    def test_gpt2_2_5b_cannot_fully_duplicate(self):
        """Sec. 6.2: the 2.5B model's FC parameters no longer fit twice."""
        system = PartitionedMemorySystem(SystemConfig.partitioned())
        [fraction] = system.non_duplicated_fractions(GPT2_CONFIGS["2.5b"], [768])
        assert fraction > 0.1

    def test_concurrent_pim_and_dma_allowed(self):
        """Normal accesses and PIM computation target different devices, so
        the event engine overlaps them."""
        overlaps, pim, dma = _pim_dma_overlaps(SystemConfig.partitioned())
        assert pim > 0 and dma > 0
        assert overlaps > 0

    def test_partitioned_footprint_larger_than_unified(self):
        unified = UnifiedMemorySystem(SystemConfig.ianus())
        partitioned = PartitionedMemorySystem(SystemConfig.partitioned())
        model = GPT2_CONFIGS["m"]
        assert (
            partitioned.place(model, 512).total_bytes
            > unified.place(model, 512).total_bytes
        )

    def test_model_larger_than_pim_region_rejected(self):
        system = PartitionedMemorySystem(SystemConfig.partitioned())
        with pytest.raises(MemoryCapacityError):
            system.place(LARGE_GPT_CONFIGS["6.7b"], max_sequence_length=512)


#: Each organisation, built with the configuration that selects it.
_SYSTEMS = {
    "unified": lambda: UnifiedMemorySystem(SystemConfig.ianus()),
    "partitioned": lambda: PartitionedMemorySystem(SystemConfig.partitioned()),
}


class TestPlacementAccounting:
    @pytest.mark.parametrize("key", sorted(GPT2_CONFIGS))
    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_every_fc_byte_is_placed_once_plus_its_duplicates(self, system, key):
        """Each FC byte is shared (unified) or lives in the PIM region,
        duplicated or not (partitioned); the NPU-region duplicates and the
        other data (non-FC parameters, KV cache) make up the rest."""
        model = GPT2_CONFIGS[key]
        placement = _SYSTEMS[system]().place(model, max_sequence_length=1024)
        assert placement.fits
        assert (
            placement.shared_fc_bytes
            + placement.duplicated_fc_bytes
            + placement.non_duplicated_fc_bytes
        ) == model.fc_param_bytes
        assert placement.total_bytes == (
            model.fc_param_bytes + placement.duplicated_fc_bytes + placement.other_bytes
        )
        assert placement.other_bytes > model.kv_cache_bytes(1024)

    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_kv_cache_budget_grows_with_sequence_length(self, system):
        memory = _SYSTEMS[system]()
        model = GPT2_CONFIGS["xl"]
        short = memory.place(model, max_sequence_length=256)
        long = memory.place(model, max_sequence_length=2048)
        assert long.other_bytes - short.other_bytes == (
            model.kv_cache_bytes(2048) - model.kv_cache_bytes(256)
        )
        assert long.total_bytes > short.total_bytes

    @pytest.mark.parametrize("key", sorted(LARGE_GPT_CONFIGS))
    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_large_models_rejected_by_name(self, system, key):
        model = LARGE_GPT_CONFIGS[key]
        with pytest.raises(MemoryCapacityError, match=model.name):
            _SYSTEMS[system]().place(model, max_sequence_length=1024)


class TestFactory:
    def test_factory_selects_policy(self):
        assert isinstance(make_memory_system(SystemConfig.ianus()), UnifiedMemorySystem)
        assert isinstance(
            make_memory_system(SystemConfig.partitioned()), PartitionedMemorySystem
        )
