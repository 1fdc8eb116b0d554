"""Tests for the PIM weight-tile layout (Figs. 4 and 5)."""

from __future__ import annotations

import pytest

from repro.config import PimConfig
from repro.pim import TileMapping


@pytest.fixture
def pim() -> PimConfig:
    return PimConfig()


class TestTileMapping:
    def test_tile_counts_for_aligned_matrix(self, pim):
        mapping = TileMapping(pim, out_features=1024, in_features=1024)
        assert mapping.tile_rows == 128
        assert mapping.row_tiles == 8
        assert mapping.col_tiles == 1
        assert mapping.num_tiles == 8

    def test_tile_counts_for_ragged_matrix(self, pim):
        """GPT-2 L's d=1280 needs two column tiles per row tile (Sec. 6.2)."""
        mapping = TileMapping(pim, out_features=1280, in_features=1280)
        assert mapping.col_tiles == 2
        assert mapping.row_tiles == 10

    def test_every_weight_element_is_covered_exactly_once(self, pim):
        mapping = TileMapping(pim, out_features=300, in_features=1500)
        covered = 0
        for tile in mapping.tiles():
            assert 0 < tile.used_rows <= mapping.tile_rows
            assert 0 < tile.used_cols <= mapping.tile_cols
            covered += tile.used_rows * tile.used_cols
        assert covered == 300 * 1500

    def test_tiles_have_distinct_row_addresses(self, pim):
        """Fig. 5: each tile gets its own DRAM row address."""
        mapping = TileMapping(pim, out_features=512, in_features=4096)
        addresses = [tile.row_address for tile in mapping.tiles()]
        assert len(addresses) == len(set(addresses))

    def test_bank_coordinates_spread_rows_across_channels_and_banks(self, pim):
        mapping = TileMapping(pim, out_features=128, in_features=1024)
        coordinates = {mapping.bank_coordinates(r) for r in range(128)}
        # 128 tile rows land on 128 distinct (channel, bank) pairs.
        assert len(coordinates) == 128

    def test_reduced_channel_count_shrinks_tiles(self, pim):
        full = TileMapping(pim, 1024, 1024, compute_channels=8)
        half = TileMapping(pim, 1024, 1024, compute_channels=4)
        assert half.tile_rows == full.tile_rows // 2
        assert half.num_tiles == 2 * full.num_tiles

    def test_utilization_perfect_for_aligned_shapes(self, pim):
        aligned = TileMapping(pim, 1024, 1024)
        assert aligned.storage_bytes() == 1024 * 1024 * 2

    def test_utilization_degrades_for_ragged_shapes(self, pim):
        ragged = TileMapping(pim, 1280, 1280)
        assert 1280 * 1280 * 2 / ragged.storage_bytes() < 0.7

    def test_mac_commands_per_tile(self, pim):
        mapping = TileMapping(pim, 128, 1024)
        (tile,) = mapping.tiles()
        assert mapping.mac_commands_per_tile(tile) == 1024 // pim.elements_per_mac

    def test_invalid_dimensions_rejected(self, pim):
        with pytest.raises(ValueError):
            TileMapping(pim, 0, 10)
