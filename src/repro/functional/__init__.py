"""Functional (numerical) simulation of the IANUS dataflow."""

from repro.functional.npu_functional import (
    MatrixUnitFunctional,
    VectorUnitFunctional,
    onchip_transpose,
)
from repro.functional.pim_functional import PimFunctionalDevice
from repro.functional.reference import (
    ReferenceTransformer,
    TransformerWeights,
    gelu,
    layer_norm,
    softmax,
)
from repro.functional.tensors import BF16_EPSILON, to_bf16
from repro.functional.verify import (
    FunctionalComparison,
    IanusFunctionalBackend,
    compare_backends,
)

__all__ = [
    "MatrixUnitFunctional",
    "VectorUnitFunctional",
    "onchip_transpose",
    "PimFunctionalDevice",
    "ReferenceTransformer",
    "TransformerWeights",
    "gelu",
    "layer_norm",
    "softmax",
    "BF16_EPSILON",
    "to_bf16",
    "FunctionalComparison",
    "IanusFunctionalBackend",
    "compare_backends",
]
