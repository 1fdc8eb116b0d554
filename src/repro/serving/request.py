"""Serving requests and their per-request latency metrics.

A :class:`Request` is one inference job in a multi-user trace: it arrives at
``arrival_s``, carries ``input_tokens`` of prompt and wants ``output_tokens``
of completion.  It is the serving-level counterpart of
:class:`repro.models.workload.Workload` (which describes the *shape* of a
request with no notion of time).

:class:`RequestMetrics` is what the simulator records once a request
completes: the three timestamps every serving study cares about (arrival,
first token, completion), the token counts and the standard derived
metrics — TTFT (time to first token), TPOT (time per output token after
the first) and end-to-end latency.

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

Simulated units
---------------
Inside a run time is integer picoseconds and energy integer picojoules,
as OMNeT++ and ns-3 keep time in integer ticks.  Integer addition is
associative, so every execution path that adds the same passes reports
the same numbers.  One function per unit converts at each boundary:
:func:`to_ps` and :func:`to_pj` where a float enters (a pass cost, an
arrival, a caller's instant), :func:`to_s` and :func:`to_j` where a
metric is reported.  A day is 8.64e16 ps; int64 holds 9.2e18.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

__all__ = ["Request", "RequestMetrics", "CompletionRecord"]
__all__ += ["to_ps", "to_pj", "to_s", "to_j"]

_INF = float("inf")

#: Picoseconds per second and picojoules per joule.
PS_PER_S = PJ_PER_J = 10**12


def to_ps(seconds: float) -> int:
    """A time in seconds as the nearest whole picosecond (ties to even)."""
    return round(seconds * 1e12)


def to_pj(joules: float) -> int:
    """An energy in joules as the nearest whole picojoule (ties to even)."""
    return round(joules * 1e12)


def to_s(picoseconds):
    """Picoseconds (an int or an integer numpy array) in seconds; a Python
    int converts correctly rounded."""
    return picoseconds / PS_PER_S


def to_j(picojoules):
    """Picojoules (an int or an integer numpy array) in joules."""
    return picojoules / PJ_PER_J


def _seconds(picoseconds: np.ndarray) -> np.ndarray:
    """:func:`to_s` of each entry of an int64 array, rounded as for a
    Python int: numpy converts an entry past 2**53 to float inexactly
    before it divides, so such an array converts entry by entry."""
    if picoseconds.size and int(np.abs(picoseconds).max()) >= 1 << 53:
        return np.array([to_s(ticks) for ticks in picoseconds.tolist()])
    return to_s(picoseconds)


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
    """Timestamps, token counts and durations of one completed request: a
    row of :meth:`CompletionRecord.rows`, whose durations are measured in
    integer ticks (:meth:`CompletionRecord.durations`), not taken from
    the instants in seconds."""

    request_id: int
    arrival_s: float
    first_token_s: float
    completion_s: float
    input_tokens: int
    output_tokens: int
    #: Time to first token: queueing delay plus the prefill pass.
    ttft_s: float
    #: End-to-end request latency (arrival to last token).
    latency_s: float
    #: Mean time per output token after the first (0 for 1-token requests).
    tpot_s: float
    #: Scheduling class of the request (0 = most important).
    priority_class: int = 0
    #: Latency SLO target assigned by the simulator; 0 means no target.
    slo_s: float = 0.0
    #: Model the request was served by ("" = the simulator's default).
    model: str = ""

    # ------------------------------------------------------------------
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

    A serving run appends every completion here, one at a time or (the
    arrival absorber) a window at once; the numeric
    columns are typed arrays (:mod:`array`), which numpy reads without a
    copy, and the three instants (``arrival``, ``first_token``,
    ``completion``) are picoseconds.  The aggregate metrics are reduced
    from the columns whether or not the caller wants per-request detail,
    and :meth:`rows` builds the :class:`RequestMetrics` only when it does.
    """

    __slots__ = (
        "request_id",
        "arrival",
        "first_token",
        "completion",
        "input_tokens",
        "output_tokens",
        "priority_class",
        "model",
    )

    def __init__(self) -> None:
        self.request_id = array("q")
        self.arrival = array("q")
        self.first_token = array("q")
        self.completion = array("q")
        self.input_tokens = array("q")
        self.output_tokens = array("q")
        self.priority_class = array("q")
        self.model: list[str] = []

    def __len__(self) -> int:
        return len(self.request_id)

    def append(
        self,
        request_id: int,
        arrival: int,
        first_token: int,
        completion: int,
        input_tokens: int,
        output_tokens: int,
        priority_class: int,
        model: str,
    ) -> None:
        """Record one completed request (instants in picoseconds)."""
        self.request_id.append(request_id)
        self.arrival.append(arrival)
        self.first_token.append(first_token)
        self.completion.append(completion)
        self.input_tokens.append(input_tokens)
        self.output_tokens.append(output_tokens)
        self.priority_class.append(priority_class)
        self.model.append(model)

    def extend(self, other: "CompletionRecord") -> None:
        """Append every completion of ``other`` (a cluster pools its
        replicas' records this way)."""
        for column in self.__slots__:
            getattr(self, column).extend(getattr(other, column))

    def durations(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Every completion's latency, TTFT and TPOT (0.0 for one token)
        in seconds, in record order, each from an integer difference of
        two instants: what :meth:`rows` and the aggregate metrics read."""
        arrival = np.asarray(self.arrival)
        first = np.asarray(self.first_token)
        completion = np.asarray(self.completion)
        after_first = np.asarray(self.output_tokens) - 1
        tpot = _seconds(completion - first) / np.maximum(after_first, 1)
        return (
            _seconds(completion - arrival),
            _seconds(first - arrival),
            np.where(after_first > 0, tpot, 0.0),
        )

    def rows(self, slo_targets: "tuple[float, ...] | None") -> "list[RequestMetrics]":
        """The completions as :class:`RequestMetrics` (instants in
        seconds, durations from :meth:`durations`), in request-id order.

        Class ``c`` carries the SLO target ``slo_targets[min(c, len - 1)]``,
        or 0.0 (no target) without targets.
        """
        last = len(slo_targets) - 1 if slo_targets else -1
        latencies, ttfts, tpots = (seconds.tolist() for seconds in self.durations())
        rows = [
            RequestMetrics(
                request_id=request_id,
                arrival_s=to_s(arrival),
                first_token_s=to_s(first_token),
                completion_s=to_s(completion),
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                priority_class=priority_class,
                slo_s=slo_targets[min(priority_class, last)] if last >= 0 else 0.0,
                model=model,
                ttft_s=ttft,
                latency_s=latency,
                tpot_s=tpot,
            )
            for (
                request_id, arrival, first_token, completion,
                input_tokens, output_tokens, priority_class, model,
                latency, ttft, tpot,
            ) in zip(
                self.request_id, self.arrival, self.first_token,
                self.completion, self.input_tokens, self.output_tokens,
                self.priority_class, self.model, latencies, ttfts, tpots,
            )
        ]
        rows.sort(key=attrgetter("request_id"))
        return rows
