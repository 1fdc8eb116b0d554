"""The IANUS system model: cost models, end-to-end simulation, results, scaling."""

from repro.core.costmodel import (
    BACKEND_NAMES,
    CostModel,
    PassCost,
    lerp_pass_cost,
    make_cost_model,
)
from repro.core.results import InferenceResult, StageResult, merge_breakdowns
from repro.core.system import IanusSystem, devices_required

__all__ = [
    "BACKEND_NAMES",
    "CostModel",
    "PassCost",
    "lerp_pass_cost",
    "make_cost_model",
    "devices_required",
    "InferenceResult",
    "StageResult",
    "merge_breakdowns",
    "IanusSystem",
]
