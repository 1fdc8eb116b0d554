"""NPU substrate: timing models of the matrix unit, vector unit and DMA engines."""

from repro.npu.core import NpuCoreModel
from repro.npu.dma import DmaModel
from repro.npu.matrix_unit import MatrixUnitModel
from repro.npu.vector_unit import VectorUnitModel

__all__ = [
    "NpuCoreModel",
    "DmaModel",
    "MatrixUnitModel",
    "VectorUnitModel",
]
