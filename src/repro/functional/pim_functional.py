"""Functional model of the PIM GEMV dataflow.

This module stores a weight matrix in the bank/row layout of Fig. 4 (via
:class:`repro.pim.address_mapping.TileMapping`), broadcasts input-vector
segments into the per-channel global buffers, and executes the matrix-vector
product exactly the way the bank processing units do: per tile, every bank
multiplies its 1024-element row chunk against the matching global-buffer
segment in ``elements_per_mac``-wide MAC commands and accumulates in FP32.

Running the GEMV this way and getting the same answer as ``weights @ x`` is
the functional-correctness property the FPGA prototype demonstrates; the
property-based tests exercise it across matrix shapes, including the ragged
tiles of models whose dimensions are not multiples of 1024.
"""

from __future__ import annotations

import numpy as np

from repro.config import PimConfig
from repro.functional.tensors import to_bf16
from repro.pim.address_mapping import TileMapping
from repro.pim.global_buffer import GlobalBuffer
from repro.pim.processing_unit import gelu_lookup_table, gelu_via_lut

__all__ = ["PimFunctionalDevice"]


class PimFunctionalDevice:
    """Bank-level functional execution of PIM matrix-vector products."""

    def __init__(self, config: PimConfig | None = None, compute_channels: int | None = None) -> None:
        self.config = config or PimConfig()
        self.compute_channels = compute_channels or self.config.channels
        self.global_buffers = [GlobalBuffer(self.config) for _ in range(self.compute_channels)]
        self._gelu_table = gelu_lookup_table()
        #: bank storage: {(channel, bank): {row_address: row_data}}
        self._banks: dict[tuple[int, int], dict[int, np.ndarray]] = {}
        self._layouts: dict[str, TileMapping] = {}
        self._shapes: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Weight placement (Fig. 4 / Fig. 5)
    # ------------------------------------------------------------------
    def store_weight(self, name: str, weights: np.ndarray) -> TileMapping:
        """Store a ``[out_features, in_features]`` weight matrix into the banks."""
        weights = to_bf16(np.asarray(weights, dtype=np.float32))
        out_features, in_features = weights.shape
        mapping = TileMapping(
            self.config, out_features, in_features, compute_channels=self.compute_channels
        )
        self._layouts[name] = mapping
        self._shapes[name] = (out_features, in_features)
        row_elements = self.config.row_elements
        for tile in mapping.tiles():
            for local_row in range(tile.used_rows):
                matrix_row = tile.row_start + local_row
                channel, bank = mapping.bank_coordinates(matrix_row)
                row_data = np.zeros(row_elements, dtype=np.float32)
                chunk = weights[matrix_row, tile.col_start : tile.col_start + tile.used_cols]
                row_data[: tile.used_cols] = chunk
                bank_rows = self._banks.setdefault((channel, bank), {})
                # The tile index is the DRAM row address (Fig. 5): the name
                # spaces of different layers are kept separate per layer name.
                bank_rows[(name, tile.row_address)] = row_data
        return mapping

    def stored_bytes(self, name: str) -> int:
        """DRAM bytes reserved for one stored weight matrix (with padding)."""
        return self._layouts[name].storage_bytes()

    # ------------------------------------------------------------------
    # Matrix-vector execution
    # ------------------------------------------------------------------
    def gemv(self, name: str, x: np.ndarray, fused_gelu: bool = False) -> np.ndarray:
        """Compute ``W x`` for a stored weight matrix using the PIM dataflow."""
        if name not in self._layouts:
            raise KeyError(f"no weight matrix named {name!r} stored in the PIM")
        mapping = self._layouts[name]
        out_features, in_features = self._shapes[name]
        x = to_bf16(np.asarray(x, dtype=np.float32)).reshape(-1)
        if x.shape[0] != in_features:
            raise ValueError(
                f"input vector has {x.shape[0]} elements, expected {in_features}"
            )

        accumulators = np.zeros(out_features, dtype=np.float32)
        elements_per_mac = self.config.elements_per_mac
        for tile in mapping.tiles():
            segment = x[tile.col_start : tile.col_start + tile.used_cols]
            # Broadcast the input segment to every participating channel's
            # global buffer (a single WR_GB micro command per tile).
            for buffer in self.global_buffers:
                buffer.write(segment)
            for local_row in range(tile.used_rows):
                matrix_row = tile.row_start + local_row
                channel, bank = mapping.bank_coordinates(matrix_row)
                row_data = self._banks[(channel, bank)][(name, tile.row_address)]
                buffer = self.global_buffers[channel]
                accumulator = 0.0
                for start in range(0, tile.used_cols, elements_per_mac):
                    count = min(elements_per_mac, tile.used_cols - start)
                    weights_chunk = row_data[start : start + count]
                    inputs_chunk = buffer.read(start, count)
                    accumulator += float(
                        np.dot(weights_chunk.astype(np.float32), inputs_chunk.astype(np.float32))
                    )
                accumulators[matrix_row] += accumulator

        if fused_gelu:
            accumulators = gelu_via_lut(accumulators, self._gelu_table)
        return to_bf16(accumulators)

    def gemm_as_repeated_gemv(self, name: str, xs: np.ndarray, fused_gelu: bool = False) -> np.ndarray:
        """FC over multiple tokens, executed as one GEMV per token (Sec. 6.2)."""
        xs = np.atleast_2d(xs)
        return np.stack([self.gemv(name, row, fused_gelu=fused_gelu) for row in xs])
