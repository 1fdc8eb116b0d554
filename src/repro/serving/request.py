"""Serving requests and their per-request latency metrics.

A :class:`Request` is one inference job in a multi-user trace: it arrives at
``arrival_s``, carries ``input_tokens`` of prompt and wants ``output_tokens``
of completion.  It is the serving-level counterpart of
:class:`repro.models.workload.Workload` (which describes the *shape* of a
request with no notion of time).

:class:`RequestMetrics` is what the simulator records once a request
completes: the three timestamps every serving study cares about (arrival,
first token, completion) plus the token counts, from which the standard
derived metrics follow — TTFT (time to first token), TPOT (time per output
token after the first) and end-to-end latency.

Requests carry a ``priority_class`` (0 = most important) for the
class-aware schedulers, and completed metrics carry the latency SLO target
the simulator assigned to that class (``slo_s``; 0 means no target), from
which per-class SLO attainment is aggregated.

Requests may also declare a shared prompt prefix (``prefix_id`` names the
group, ``prefix_tokens`` its length): every member of a group opens with
the same system prefix, and the KV page accountant stores those pages once,
reference-counted (:mod:`repro.serving.kv_memory`).

A run keeps its completed requests in one :class:`CompletionRecord`:
parallel columns that the simulator reduces to its aggregate metrics and,
when the caller asks for per-request detail, turns into
:class:`RequestMetrics` rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import attrgetter

__all__ = ["Request", "RequestMetrics", "CompletionRecord"]

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class Request:
    """One inference request of a serving trace."""

    request_id: int
    arrival_s: float
    input_tokens: int
    output_tokens: int = 1
    #: Scheduling class, 0 = most important (priority-class policies).
    priority_class: int = 0
    #: Shared-prefix group (-1 = no sharing).  Requests of one group open
    #: with the same system prefix and the KV accountant stores its whole
    #: pages once, reference-counted.
    prefix_id: int = -1
    #: Length of the shared prefix in tokens (part of ``input_tokens``).
    prefix_tokens: int = 0
    #: Model the request targets, by name ("" = the simulator's default
    #: model).  Replicas co-hosting a model set pay a weight swap when
    #: the active model changes (:mod:`repro.serving.simulator`).
    model: str = ""

    def __post_init__(self) -> None:
        # A chained range check also rejects NaN, which fails every
        # comparison (a NaN arrival would stall the event loop).
        if not 0.0 <= self.arrival_s < _INF:
            raise ValueError("arrival_s must be finite and non-negative")
        if self.input_tokens <= 0:
            raise ValueError("input_tokens must be positive")
        if self.output_tokens < 1:
            raise ValueError("output_tokens must be at least 1")
        if self.priority_class < 0:
            raise ValueError("priority_class must be non-negative")
        if self.prefix_id < -1:
            raise ValueError("prefix_id must be -1 (none) or a group id >= 0")
        if not 0 <= self.prefix_tokens <= self.input_tokens:
            raise ValueError("prefix_tokens must be in [0, input_tokens]")
        if self.prefix_tokens > 0 and self.prefix_id < 0:
            raise ValueError("prefix_tokens > 0 requires a prefix_id >= 0")

    # ------------------------------------------------------------------
    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass(frozen=True, slots=True)
class RequestMetrics:
    """Timestamps and token counts of one completed request."""

    request_id: int
    arrival_s: float
    first_token_s: float
    completion_s: float
    input_tokens: int
    output_tokens: int
    #: Scheduling class of the request (0 = most important).
    priority_class: int = 0
    #: Latency SLO target assigned by the simulator; 0 means no target.
    slo_s: float = 0.0
    #: Model the request was served by ("" = the simulator's default).
    model: str = ""

    # ------------------------------------------------------------------
    @property
    def ttft_s(self) -> float:
        """Time to first token: queueing delay plus the prefill pass."""
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end request latency (arrival to last token)."""
        return self.completion_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Mean time per output token after the first (0 for 1-token requests)."""
        if self.output_tokens <= 1:
            return 0.0
        return (self.completion_s - self.first_token_s) / (self.output_tokens - 1)

    @property
    def slo_met(self) -> "bool | None":
        """Whether the latency SLO was met (``None`` when no target was set)."""
        if self.slo_s <= 0.0:
            return None
        return self.latency_s <= self.slo_s

    def to_dict(self) -> dict:
        """JSON-stable representation (used by reports and determinism tests).

        The ``model`` key appears only for requests that named a model, so
        single-model traces keep their pre-multi-model representation byte
        for byte.
        """
        document = {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "first_token_s": self.first_token_s,
            "completion_s": self.completion_s,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "priority_class": self.priority_class,
            "slo_s": self.slo_s,
            "slo_met": self.slo_met,
            "ttft_s": self.ttft_s,
            "latency_s": self.latency_s,
            "tpot_s": self.tpot_s,
        }
        if self.model:
            document["model"] = self.model
        return document


class CompletionRecord:
    """A run's completed requests as parallel columns, in completion order.

    Both serving engines append every completion here, one at a time or
    (the array engine's arrival absorber) a window at once; the numeric
    columns are typed arrays (:mod:`array`), which numpy reads without a
    copy.  The aggregate metrics are reduced from the columns whether or
    not the caller wants per-request detail, and :meth:`rows` builds the
    :class:`RequestMetrics` only when it does.
    """

    __slots__ = (
        "request_id",
        "arrival_s",
        "first_token_s",
        "completion_s",
        "input_tokens",
        "output_tokens",
        "priority_class",
        "model",
    )

    def __init__(self) -> None:
        self.request_id = array("q")
        self.arrival_s = array("d")
        self.first_token_s = array("d")
        self.completion_s = array("d")
        self.input_tokens = array("q")
        self.output_tokens = array("q")
        self.priority_class = array("q")
        self.model: list[str] = []

    def __len__(self) -> int:
        return len(self.request_id)

    def append(
        self,
        request_id: int,
        arrival_s: float,
        first_token_s: float,
        completion_s: float,
        input_tokens: int,
        output_tokens: int,
        priority_class: int,
        model: str,
    ) -> None:
        """Record one completed request."""
        self.request_id.append(request_id)
        self.arrival_s.append(arrival_s)
        self.first_token_s.append(first_token_s)
        self.completion_s.append(completion_s)
        self.input_tokens.append(input_tokens)
        self.output_tokens.append(output_tokens)
        self.priority_class.append(priority_class)
        self.model.append(model)

    def extend(self, other: "CompletionRecord") -> None:
        """Append every completion of ``other`` (a cluster pools its
        replicas' records this way)."""
        for column in self.__slots__:
            getattr(self, column).extend(getattr(other, column))

    def rows(self, slo_targets: "tuple[float, ...] | None") -> "list[RequestMetrics]":
        """The completions as :class:`RequestMetrics`, in request-id order.

        Class ``c`` carries the SLO target ``slo_targets[min(c, len - 1)]``,
        or 0.0 (no target) without targets.
        """
        last = len(slo_targets) - 1 if slo_targets else -1
        rows = [
            RequestMetrics(
                request_id=request_id,
                arrival_s=arrival_s,
                first_token_s=first_token_s,
                completion_s=completion_s,
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                priority_class=priority_class,
                slo_s=slo_targets[min(priority_class, last)] if last >= 0 else 0.0,
                model=model,
            )
            for (
                request_id, arrival_s, first_token_s, completion_s,
                input_tokens, output_tokens, priority_class, model,
            ) in zip(
                self.request_id, self.arrival_s, self.first_token_s,
                self.completion_s, self.input_tokens, self.output_tokens,
                self.priority_class, self.model,
            )
        ]
        rows.sort(key=attrgetter("request_id"))
        return rows
