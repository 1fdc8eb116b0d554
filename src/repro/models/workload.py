"""Inference workloads: input/output token configurations and stages.

The paper evaluates end-to-end inference as a *summarization* stage that
processes all input tokens at once, followed by a *generation* stage that
produces output tokens one at a time (Sec. 2.1).  A :class:`Workload` captures
the (input size, output size) pairs swept in Figs. 8, 9, 13 and 17, and
expands into the sequence of :class:`StagePass` objects that the system model
simulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

__all__ = [
    "Stage",
    "StagePass",
    "Workload",
    "PAPER_GPT2_WORKLOADS",
    "PAPER_DFX_WORKLOADS",
    "PAPER_BERT_INPUT_SIZES",
    "PAPER_SCALABILITY_WORKLOADS",
]


class Stage(str, Enum):
    """Inference stage."""

    SUMMARIZATION = "summarization"
    GENERATION = "generation"


@dataclass(frozen=True)
class StagePass:
    """One pass through the model.

    Attributes
    ----------
    stage:
        Which stage this pass belongs to.
    num_tokens:
        Number of tokens processed in this pass (all input tokens for the
        summarization pass, exactly one for each generation pass).
    kv_length:
        Number of tokens in the attention context *after* this pass, i.e. the
        length of the concatenated key/value tensors used by self-attention.
    token_index:
        Index of the generated token (0-based) for generation passes; ``None``
        for the summarization pass.
    """

    stage: Stage
    num_tokens: int
    kv_length: int
    token_index: int | None = None


@dataclass(frozen=True)
class Workload:
    """An inference request: ``input_tokens`` in, ``output_tokens`` out.

    The paper evaluates batch size 1 throughout (Sec. 6.1) because datacenter
    NLP services prefer non-batched requests; batching is modelled by the
    serving layer (:mod:`repro.serving`).
    """

    input_tokens: int
    output_tokens: int = 1

    def __post_init__(self) -> None:
        if self.input_tokens <= 0:
            raise ValueError("input_tokens must be positive")
        if self.output_tokens < 0:
            raise ValueError("output_tokens must be non-negative")

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens

    @property
    def num_generation_passes(self) -> int:
        """Generation passes needed after the summarization pass.

        The summarization pass already produces the first output token, so a
        request for ``N`` output tokens performs ``N - 1`` generation passes
        (and none when only one output token is requested, matching the
        "(input, 1)" summarization-only configurations in the paper).
        """
        return max(0, self.output_tokens - 1)

    def stages(self) -> Iterator[StagePass]:
        """Expand the workload into its per-pass structure."""
        yield StagePass(
            stage=Stage.SUMMARIZATION,
            num_tokens=self.input_tokens,
            kv_length=self.input_tokens,
        )
        for i in range(self.num_generation_passes):
            yield StagePass(
                stage=Stage.GENERATION,
                num_tokens=1,
                kv_length=self.input_tokens + i + 1,
                token_index=i,
            )

    def generation_kv_lengths(self) -> list[int]:
        """KV lengths seen by each generation pass, in order."""
        return [
            self.input_tokens + i + 1 for i in range(self.num_generation_passes)
        ]

    def label(self) -> str:
        """Workload label in the paper's ``(input, output)`` notation."""
        return f"({self.input_tokens},{self.output_tokens})"


#: The (input, output) sweep of Fig. 8: inputs 128/256/512, outputs 1/8/64/512.
PAPER_GPT2_WORKLOADS: list[Workload] = [
    Workload(input_tokens=i, output_tokens=o)
    for i in (128, 256, 512)
    for o in (1, 8, 64, 512)
]

#: The (input, output) sweep of Fig. 9 (taken from the DFX paper).
PAPER_DFX_WORKLOADS: list[Workload] = [
    Workload(input_tokens=i, output_tokens=o)
    for i in (32, 64, 128)
    for o in (1, 16, 256)
]

#: BERT input sizes of Fig. 14 (summarization-only workloads).
PAPER_BERT_INPUT_SIZES: list[int] = [128, 256, 512]

#: The (input, output) sweep of Fig. 17 (scalability analysis).
PAPER_SCALABILITY_WORKLOADS: list[Workload] = [
    Workload(input_tokens=256, output_tokens=o) for o in (1, 8, 64, 512)
]
