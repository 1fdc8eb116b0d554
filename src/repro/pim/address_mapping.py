"""DRAM address mapping and PIM-aware weight tiling (Figs. 4 and 5).

IANUS maps physical addresses as (MSB) Row - Channel - Bank - Column (LSB) so
that:

* all elements of one weight-matrix *tile* share a single row address —
  no row conflicts occur while computing one tile;
* the rows of a tile are spread across every channel and bank, so all
  processing units compute in parallel;
* the columns of a tile map to consecutive column addresses within one bank,
  so a single processing unit performs the MAC over a full DRAM row.

A tile covers ``channels * banks_per_channel`` weight-matrix rows by
``row_elements`` (1024 BF16) columns.  :class:`TileMapping` computes the tile
decomposition of an arbitrary weight matrix and is shared by the timing model
(which needs activation counts) and the functional model (which needs to know
which weight elements live in which bank row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import PimConfig

__all__ = ["Tile", "TileMapping"]


@dataclass(frozen=True, slots=True)
class Tile:
    """One PIM weight tile (Fig. 4).

    A tile covers ``used_rows`` weight-matrix rows (each mapped to the same
    DRAM row address of a distinct (channel, bank)) by ``used_cols`` weight
    elements stored along one DRAM row.
    """

    index: int
    row_address: int
    row_start: int
    col_start: int
    used_rows: int
    used_cols: int


class TileMapping:
    """Row-major tiling of a weight matrix onto PIM tiles.

    The weight matrix of an FC layer computing ``y = W x`` has ``out_features``
    rows (one per output element) and ``in_features`` columns.  Each tile
    covers up to ``tile_rows`` output rows and ``row_elements`` input columns;
    the paper assumes row-major tile ordering (Sec. 4.2.3).
    """

    def __init__(self, config: PimConfig, out_features: int, in_features: int,
                 compute_channels: int | None = None) -> None:
        if out_features <= 0 or in_features <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.config = config
        self.out_features = out_features
        self.in_features = in_features
        self.compute_channels = compute_channels or config.channels
        self.tile_rows = config.banks_per_channel * self.compute_channels
        self.tile_cols = config.row_elements

    # ------------------------------------------------------------------
    @property
    def row_tiles(self) -> int:
        """Tiles along the output (row) dimension."""
        return math.ceil(self.out_features / self.tile_rows)

    @property
    def col_tiles(self) -> int:
        """Tiles along the input (column) dimension."""
        return math.ceil(self.in_features / self.tile_cols)

    @property
    def num_tiles(self) -> int:
        return self.row_tiles * self.col_tiles

    def tiles(self) -> list[Tile]:
        """Enumerate all tiles in row-major order."""
        result: list[Tile] = []
        index = 0
        for rt in range(self.row_tiles):
            row_start = rt * self.tile_rows
            used_rows = min(self.tile_rows, self.out_features - row_start)
            for ct in range(self.col_tiles):
                col_start = ct * self.tile_cols
                used_cols = min(self.tile_cols, self.in_features - col_start)
                result.append(
                    Tile(
                        index=index,
                        row_address=index,
                        row_start=row_start,
                        col_start=col_start,
                        used_rows=used_rows,
                        used_cols=used_cols,
                    )
                )
                index += 1
        return result

    # ------------------------------------------------------------------
    def bank_coordinates(self, matrix_row: int) -> tuple[int, int]:
        """(channel, bank) that stores a given weight-matrix row within its tile."""
        within = matrix_row % self.tile_rows
        channel = within % self.compute_channels
        bank = within // self.compute_channels
        return channel, bank

    def storage_bytes(self) -> int:
        """Bytes of DRAM rows reserved by the tiling (including padding)."""
        return self.num_tiles * self.tile_rows * self.config.row_bytes

    def mac_commands_per_tile(self, tile: Tile) -> int:
        """Per-bank MAC micro commands needed to cover one tile's columns."""
        return math.ceil(tile.used_cols / self.config.elements_per_mac)
