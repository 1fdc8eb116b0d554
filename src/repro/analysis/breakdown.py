"""Latency-breakdown categories and helpers (Figs. 2 and 10).

The paper reports decoder latency split into the categories used by Fig. 10:
layer normalisation, self-attention, the FC that generates Q/K/V, the FC that
projects the attention output (measured together with its residual addition),
and the FFN (measured together with its residual addition).  The compiler
tags every command with one of those categories; this module fixes the
canonical ordering the experiments report them in.
"""

from __future__ import annotations

from repro.ir.command import TAG_ATTENTION, TAG_FFN, TAG_LAYERNORM, TAG_PROJ, TAG_QKV

__all__ = ["BREAKDOWN_CATEGORIES", "ordered_breakdown"]

#: Canonical category order, matching the Fig. 10 legend.
BREAKDOWN_CATEGORIES: tuple[str, ...] = (
    TAG_LAYERNORM,
    TAG_ATTENTION,
    TAG_PROJ,
    TAG_FFN,
    TAG_QKV,
)

def ordered_breakdown(breakdown: dict[str, float]) -> dict[str, float]:
    """Return the decoder categories of a breakdown in canonical order."""
    return {
        category: breakdown.get(category, 0.0) for category in BREAKDOWN_CATEGORIES
    }
