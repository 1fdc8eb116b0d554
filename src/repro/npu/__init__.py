"""NPU substrate: timing models of the matrix unit, vector unit and DMA engines."""

from repro.npu.core import NpuCoreModel
from repro.npu.dma import DmaModel
from repro.npu.matrix_unit import MatrixUnitEstimate, MatrixUnitModel
from repro.npu.vector_unit import VectorUnitEstimate, VectorUnitModel

__all__ = [
    "NpuCoreModel",
    "DmaModel",
    "MatrixUnitEstimate",
    "MatrixUnitModel",
    "VectorUnitEstimate",
    "VectorUnitModel",
]
