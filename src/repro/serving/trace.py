"""Deterministic seeded trace generators for the serving simulator.

A :class:`TraceGenerator` turns a *workload mix* (a tuple of
:class:`~repro.models.workload.Workload` shapes, sampled uniformly) into a
stream of :class:`~repro.serving.request.Request` objects with Poisson
arrivals.  Determinism is the whole point:

* the RNG is seeded from ``f"{name}/{seed}"`` through :class:`random.Random`,
  which hashes strings with SHA-512 — stable across processes and immune to
  ``PYTHONHASHSEED``, so the same (generator, seed) always yields the same
  trace, in every worker of a sharded sweep;
* inter-arrival gaps are drawn at **unit rate** and divided by the requested
  rate, and the workload-mix draws interleave with the gap draws in a fixed
  order — so sweeping the arrival rate rescales the *same* normalized
  arrival pattern over the *same* request sequence.  A load sweep therefore
  compares like with like: higher load means the identical work arriving
  faster, which is what makes measured throughput–latency curves monotone
  instead of noisy.

The registry :data:`TRACES` names the mixes the experiments (and
``repro serve --trace``) use: the paper's GPT-2 and DFX evaluation grids
plus an interactive chatbot mix and a summarization-only mix.

Non-stationary arrival-rate curves
----------------------------------
Production traffic is not a stationary Poisson process: it has diurnal
cycles, flash crowds and permanent steps.  A :class:`TraceCurve` is a
dimensionless rate *multiplier* over time layered on top of the stationary
machinery: arrivals follow an inhomogeneous Poisson process of rate
``rate_rps * curve.multiplier(t)``, generated by **inversion** of the
integrated rate — the very same unit-rate exponential gap stream is mapped
through the curve's cumulative exposure, so the normalized arrival pattern
(and the workload-mix sequence) of a ``(name, seed)`` pair is *identical*
across rates and curves.  A load sweep over a diurnal day therefore
compares like with like, exactly as the stationary sweeps do, and the
``constant`` curve at scale 1 reproduces the stationary trace **byte for
byte**.  The registry :data:`TRACE_CURVES` names the shapes
(``constant``, ``diurnal``, ``flash-crowd``, ``step``);
:func:`make_trace_curve` is the validated construction point (same idiom
as ``make_policy`` / ``make_router``).

The inversion (:meth:`TraceCurve.advance`) bisects the exposure to full
double precision, and its path defines the arrival instants.  The diurnal
curve, the one a simulated day runs, walks that same path but calls
``cos`` only at the midpoints where the comparison could go either way:
a proven bound on the float exposure's rounding error settles every
midpoint outside a narrow band around the root, in the manner of the
floating-point filters of exact geometric predicates (Shewchuk, "Adaptive
Precision Floating-Point Arithmetic and Fast Robust Geometric
Predicates", 1997).  Its arrivals are the plain bisection's, bit for bit,
at about a quarter of the ``cos`` calls.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from operator import add

from repro.models.workload import PAPER_DFX_WORKLOADS, PAPER_GPT2_WORKLOADS, Workload
from repro.serving.request import Request

__all__ = [
    "TraceGenerator",
    "TRACES",
    "get_trace_generator",
    "TraceCurve",
    "ConstantCurve",
    "DiurnalCurve",
    "FlashCrowdCurve",
    "StepCurve",
    "TRACE_CURVES",
    "make_trace_curve",
]

#: Cap on the bisection iterations of the curve inversion — enough to
#: reach full double precision on any bracket.  The loop stops earlier,
#: once the bracket cannot shrink (after 28-53, median 42, on perfbench's
#: serve-day diurnal curves).  Every iteration counts against the cap,
#: whether it evaluates the curve or a proven band settles its midpoint
#: (:meth:`DiurnalCurve.advance`).
_INVERT_ITERATIONS = 100

#: The diurnal inversion's band (:meth:`DiurnalCurve.advance`).  Above
#: this amplitude the exposure's slope, at least ``1 - amplitude``, is too
#: flat for a narrow band, and every midpoint is evaluated.
_BAND_MAX_AMPLITUDE = 0.999
#: The band is built only when the error bound is at most this share of
#: the area: a wider band leaves too few midpoints to settle to repay the
#: Newton steps and the two edge checks.
_BAND_GATE = 2.0**-16
#: Newton steps allowed to reach the band's centre before giving up.
_BAND_NEWTON_STEPS = 8
#: A bracket inside ``(-_BAND_SPAN, _BAND_SPAN)`` keeps ``low + high``
#: finite, so every midpoint lies in the bracket.
_BAND_SPAN = 2.0**1020
#: The band that settles no midpoint: ``mid <= -inf`` and ``mid >= inf``
#: are false for every finite midpoint.
_UNSETTLED = (-math.inf, math.inf)


def _check_finite(name: str, value: float, positive: bool = False) -> None:
    """Reject a non-finite curve knob (and, if ``positive``, one <= 0),
    naming it.  ``not 0 < x < inf`` also rejects NaN, which fails every
    comparison; an infinite knob would make the exposure NaN or pile
    every arrival onto one instant."""
    if positive:
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    elif not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


class TraceCurve:
    """A dimensionless arrival-rate multiplier over time.

    ``multiplier(t)`` scales the trace's base rate at instant ``t`` (it
    must stay positive and bounded away from zero); ``exposure(t0, t1)``
    is its integral over ``[t0, t1]``.  ``advance(t0, area)`` inverts the
    exposure — the smallest ``t >= t0`` with ``exposure(t0, t) == area`` —
    which is how the generator maps unit-rate exponential gaps onto
    inhomogeneous-Poisson arrival instants.  The default inversion is a
    bisection (exposure is continuous and strictly increasing) that stops
    once the bracket cannot shrink: its midpoint rounds to an endpoint.
    ``exposure`` is pure and ``exposure(t0, t0)`` is 0, so no later
    iteration could move ``high``, the value returned: the result is
    bit-identical to a fixed :data:`_INVERT_ITERATIONS`-iteration
    bisection (unless ``low + high`` overflows), and deterministic on
    every platform.  A subclass may skip evaluating the exposure at a
    midpoint whose comparison it has proven, as :class:`DiurnalCurve`
    does, but it must walk this path and return this ``high``.
    """

    name = "curve"

    def multiplier(self, t: float) -> float:
        raise NotImplementedError

    def exposure(self, t0: float, t1: float) -> float:
        raise NotImplementedError

    def min_multiplier(self) -> float:
        """A positive lower bound of the multiplier (brackets the inversion)."""
        raise NotImplementedError

    def advance(self, t0: float, area: float) -> float:
        """The instant ``t >= t0`` at which ``exposure(t0, t)`` reaches
        ``area``: the bisection this class's docstring describes, on the
        bracket ``[t0, t0 + area / min_multiplier()]``."""
        if area <= 0.0:
            return t0
        low = t0
        high = t0 + area / self.min_multiplier()
        for _ in range(_INVERT_ITERATIONS):
            mid = 0.5 * (low + high)
            if mid == low or mid == high:
                break
            if self.exposure(t0, mid) < area:
                low = mid
            else:
                high = mid
        return high

    def describe(self) -> str:
        return self.name


class ConstantCurve(TraceCurve):
    """Stationary traffic: the identity curve (``scale`` sweeps the level).

    At ``scale=1`` this reproduces the plain stationary trace byte for
    byte — ``advance`` is exact arithmetic, not bisection, so the float
    operations match the legacy path exactly.
    """

    name = "constant"

    def __init__(self, scale: float = 1.0) -> None:
        _check_finite("scale", scale, positive=True)
        self.scale = scale

    def multiplier(self, t):
        return self.scale

    def exposure(self, t0, t1):
        return (t1 - t0) * self.scale

    def min_multiplier(self):
        return self.scale

    def advance(self, t0, area):
        return t0 + area / self.scale

    def describe(self) -> str:
        return f"stationary rate x{self.scale:g}"


class DiurnalCurve(TraceCurve):
    """Diurnal sinusoid: ``1 + amplitude * sin(2*pi*(t - phase)/period)``.

    One period models a day (pass ``period_s=86400`` for wall-clock days,
    or compress the day to the simulated horizon).  ``amplitude`` in
    ``[0, 1)`` keeps the rate positive; the mean multiplier over a whole
    period is exactly 1, so a diurnal sweep offers the same total load as
    the stationary one.
    """

    name = "diurnal"

    def __init__(
        self,
        period_s: float = 86400.0,
        amplitude: float = 0.5,
        phase_s: float = 0.0,
    ) -> None:
        _check_finite("period_s", period_s, positive=True)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1) to keep the rate positive")
        _check_finite("phase_s", phase_s)
        self.period_s = period_s
        self.amplitude = amplitude
        self.phase_s = phase_s

    def _angle(self, t: float) -> float:
        return 2.0 * math.pi * (t - self.phase_s) / self.period_s

    def multiplier(self, t):
        return 1.0 + self.amplitude * math.sin(self._angle(t))

    def exposure(self, t0, t1):
        swing = self.amplitude * self.period_s / (2.0 * math.pi)
        return (t1 - t0) + swing * (
            math.cos(self._angle(t0)) - math.cos(self._angle(t1))
        )

    def min_multiplier(self):
        return 1.0 - self.amplitude

    def advance(self, t0, area):
        """The base-class bisection, calling ``cos`` only at the midpoints
        that a proven error bound cannot settle.

        The loop is the base class's with ``exposure(t0, mid)`` inlined and
        its ``t0`` half, ``cos0``, computed once per call: the same float
        operations in the same order, so the same bits.  Write ``g_f(x)``
        for the float value of its expression, ``(x - t0) + swing * (cos0 -
        cos(2pi * (x - phase) / period))``, and ``g(x)`` for that expression
        in exact arithmetic over the same float constants (``2pi`` is
        ``2.0 * math.pi``; ``swing`` and ``cos0`` are the floats computed
        below).  Let u = 2**-53, ``[t0, high]`` the initial bracket,
        W = high - t0, theta(x) = 2pi * (x - phase) / period, theta0 =
        theta(t0) and k = swing * 2pi / period.

        *g increases.*  g'(x) = 1 + k * sin(theta(x)) >= 1 - k, and
        ``swing`` rounds amplitude * period / 2pi twice, so
        k <= amplitude * (1 + u)**2 < 1 for an amplitude up to
        :data:`_BAND_MAX_AMPLITUDE`.

        *The bound.*  For every float x in the bracket, |g_f(x) - g(x)| is
        at most, to first order in u, one term per rounding:

        - u * W for ``x - t0``;
        - swing * 3u * |theta| for the angle's subtraction, product and
          quotient (each off by a relative u at most; cos is 1-Lipschitz),
          with |theta| <= |theta0| + 2pi * W / period on the bracket:
          at most swing * 3u * |theta0| + 3u * k * W;
        - swing * 4u for libm's ``cos``, 2 ulp of a value in [-1, 1];
        - u * k * W for ``cos0 - cos``, whose operands differ by at most
          2pi * W / period plus the errors above;
        - u * k * W for the product with ``swing``;
        - u * (1 + k) * W for the final sum, as |g| <= (1 + k) * W.

        With k < 1 they add up to less than u * (8W + swing * (3|theta0| +
        4)).  :meth:`_band` takes E = 2u * (8W + area + swing * (3|theta0|
        + 4)) + 2**-1022: twice that sum, which covers the second-order
        terms and E's own rounding; 2u * area for the rounding of the
        thresholds ``area -+ 2E`` below; and 2**-1022 for the absolute
        error of any underflow.

        *The band.*  Newton steps estimate the root of g(x) = area, and
        floats a < b around it, inside ``(t0, high)``, are kept only if
        g_f(a) < area - 2E and g_f(b) >= area + 2E.  Then every float
        x <= a of the bracket has g_f(x) <= g(x) + E <= g(a) + E <=
        g_f(a) + 2E < area, so the bisection would set ``low = x``, and
        every x >= b has g_f(x) >= g(b) - E >= g_f(b) - 2E >= area, so it
        would set ``high = x`` (the last step of each chain holds for the
        float thresholds too: E's 2u * area term covers their rounding).  The loop settles those midpoints without
        ``cos`` and evaluates the rest as before: it walks the base
        class's path, every iteration counting against
        :data:`_INVERT_ITERATIONS`, and returns its ``high``.  Every
        midpoint lies in the bracket, since the band needs a bracket
        inside ``(-_BAND_SPAN, _BAND_SPAN)``, where ``low + high`` cannot
        overflow.  Where a precondition fails (the amplitude, a non-finite
        or empty bracket, E above :data:`_BAND_GATE` of the area, Newton
        leaving the bracket or not converging, an edge that does not
        check) the band is :data:`_UNSETTLED` and every midpoint is
        evaluated.
        """
        if area <= 0.0:
            return t0
        low = t0
        high = t0 + area / self.min_multiplier()
        phase, period = self.phase_s, self.period_s
        twopi = 2.0 * math.pi
        swing = self.amplitude * period / twopi
        cos = math.cos
        cos0 = cos(twopi * (t0 - phase) / period)
        below, above = self._band(t0, area, high, swing, cos0)
        for _ in range(_INVERT_ITERATIONS):
            mid = 0.5 * (low + high)
            if mid == low or mid == high:
                break
            if mid <= below:
                low = mid
            elif mid >= above:
                high = mid
            elif (mid - t0) + swing * (
                cos0 - cos(twopi * (mid - phase) / period)
            ) < area:
                low = mid
            else:
                high = mid
        return high

    def _band(self, t0, area, high, swing, cos0):
        """The floats ``(a, b)`` of :meth:`advance`'s proof, checked, or
        :data:`_UNSETTLED` where a precondition fails."""
        if not (
            self.amplitude <= _BAND_MAX_AMPLITUDE
            and -_BAND_SPAN < t0 < high < _BAND_SPAN
        ):
            return _UNSETTLED
        phase, period = self.phase_s, self.period_s
        twopi = 2.0 * math.pi
        omega = twopi / period
        k = swing * omega
        theta = twopi * (t0 - phase) / period
        error = 2.0**-52 * (
            8.0 * (high - t0) + area + swing * (3.0 * abs(theta) + 4.0)
        ) + 2.0**-1022
        if not error <= area * _BAND_GATE:
            return _UNSETTLED
        cos, sin = math.cos, math.sin
        # Newton from the second-order Taylor estimate at t0 (``cos0`` for
        # cos(theta0)).  A step of s leaves g about s**2 * k * omega / (1 - k)
        # from the area at most, so the steps stop once that is below E.
        slope = 1.0 + k * sin(theta)
        x = area / slope
        x = t0 + x * (1.0 - 0.5 * k * omega * cos0 * x / slope)
        curvature = k * omega / (1.0 - k)
        for _ in range(_BAND_NEWTON_STEPS):
            if not t0 < x < high:
                return _UNSETTLED
            theta = twopi * (x - phase) / period
            slope = 1.0 + k * sin(theta)
            step = ((x - t0) + swing * (cos0 - cos(theta)) - area) / slope
            x -= step
            if step * step * curvature <= error:
                break
        else:
            return _UNSETTLED
        # Wide enough that the edges check even when the estimate is E off.
        half = 4.0 * error / slope
        a, b = x - half, x + half
        if (
            t0 < a < b < high
            and (a - t0) + swing * (cos0 - cos(twopi * (a - phase) / period))
            < area - 2.0 * error
            and (b - t0) + swing * (cos0 - cos(twopi * (b - phase) / period))
            >= area + 2.0 * error
        ):
            return a, b
        return _UNSETTLED

    def describe(self) -> str:
        return (
            f"sinusoid, period {self.period_s:g}s, "
            f"amplitude {self.amplitude:g}"
        )


class FlashCrowdCurve(TraceCurve):
    """A flash crowd: baseline 1, times ``magnitude`` during the spike."""

    name = "flash-crowd"

    def __init__(
        self,
        start_s: float = 1.0,
        duration_s: float = 1.0,
        magnitude: float = 4.0,
    ) -> None:
        _check_finite("start_s", start_s)
        _check_finite("duration_s", duration_s, positive=True)
        _check_finite("magnitude", magnitude, positive=True)
        self.start_s = start_s
        self.duration_s = duration_s
        self.magnitude = magnitude

    def multiplier(self, t):
        if self.start_s <= t < self.start_s + self.duration_s:
            return self.magnitude
        return 1.0

    def exposure(self, t0, t1):
        end = self.start_s + self.duration_s
        overlap = max(0.0, min(t1, end) - max(t0, self.start_s))
        return (t1 - t0) + (self.magnitude - 1.0) * overlap

    def min_multiplier(self):
        return min(1.0, self.magnitude)

    def describe(self) -> str:
        return (
            f"x{self.magnitude:g} spike over "
            f"[{self.start_s:g}s, {self.start_s + self.duration_s:g}s)"
        )


class StepCurve(TraceCurve):
    """A permanent rate change: ``before`` until ``at_s``, ``after`` from then on."""

    name = "step"

    def __init__(
        self, at_s: float = 1.0, before: float = 1.0, after: float = 2.0
    ) -> None:
        _check_finite("at_s", at_s)
        _check_finite("before", before, positive=True)
        _check_finite("after", after, positive=True)
        self.at_s = at_s
        self.before = before
        self.after = after

    def multiplier(self, t):
        return self.before if t < self.at_s else self.after

    def exposure(self, t0, t1):
        below = max(0.0, min(t1, self.at_s) - min(t0, self.at_s))
        above = max(0.0, t1 - max(t0, self.at_s))
        return self.before * below + self.after * above

    def min_multiplier(self):
        return min(self.before, self.after)

    def describe(self) -> str:
        return f"x{self.before:g} -> x{self.after:g} at {self.at_s:g}s"


#: Trace-curve registry: CLI/experiment name -> class, in presentation order.
TRACE_CURVES: dict[str, type[TraceCurve]] = {
    "constant": ConstantCurve,
    "diurnal": DiurnalCurve,
    "flash-crowd": FlashCrowdCurve,
    "step": StepCurve,
}


def make_trace_curve(name: str, **kwargs) -> TraceCurve:
    """Instantiate an arrival-rate curve by name — the single validation point.

    Unknown names raise with the list of known curves; keyword arguments
    the named curve does not accept raise instead of being dropped (the
    same validated construction path as ``make_policy`` / ``make_router``).
    """
    from repro.serving.simulator import _validated_construct

    return _validated_construct("trace curve", TRACE_CURVES, name, kwargs)


@dataclass(frozen=True)
class TraceGenerator:
    """A named workload mix with Poisson arrivals.

    ``workloads`` is the mix sampled uniformly per request.  ``generate`` is
    pure: identical arguments produce identical traces (see the module
    docstring for how rate sweeps stay comparable).
    """

    name: str
    description: str
    workloads: tuple[Workload, ...]

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError(f"trace generator {self.name!r} needs a non-empty mix")

    def _resolve_prefix(self, prefix_tokens: "int | None") -> int:
        """The shared prefix length of a sharing trace: the default, or
        ``prefix_tokens`` if every prompt of the mix can hold it."""
        shortest = self.min_input_tokens
        if prefix_tokens is None:
            # Half the shortest prompt of the mix: shareable by every
            # request, long enough to span whole pages at default size.
            prefix_tokens = max(1, shortest // 2)
        if prefix_tokens > shortest:
            raise ValueError(
                f"prefix_tokens must be in [1, {shortest}] (the shortest "
                f"prompt of the {self.name!r} mix) so every member of a "
                f"prefix group shares the same prefix length"
            )
        return prefix_tokens

    @staticmethod
    def _resolve_model_mix(model_mix):
        """Validate a model mix; returns (names, cumulative weights).

        ``model_mix`` is a sequence of model names (drawn uniformly) or of
        ``(name, weight)`` pairs (drawn with the given relative weights).
        """
        names: list[str] = []
        weights: list[float] = []
        for entry in model_mix:
            if isinstance(entry, str):
                name, weight = entry, 1.0
            else:
                name, weight = entry
                weight = float(weight)
            if not name:
                raise ValueError("model_mix names must be non-empty strings")
            if not weight > 0.0 or not math.isfinite(weight):
                raise ValueError(
                    f"model_mix weight for {name!r} must be positive and "
                    f"finite, got {weight!r}"
                )
            names.append(name)
            weights.append(weight)
        if not names:
            raise ValueError("model_mix must name at least one model")
        # Left to right, as accumulate adds (the last cumulative weight is
        # exactly 1.0), on every Python: the builtin sum compensates float
        # sums from 3.12 on.
        total = reduce(add, weights, 0.0)
        cumulative = tuple(weight / total for weight in accumulate(weights))
        return tuple(names), cumulative

    # ------------------------------------------------------------------
    def generate(
        self,
        num_requests: int,
        rate_rps: float,
        seed: int = 0,
        start_s: float = 0.0,
        num_classes: int = 1,
        curve: "TraceCurve | str | None" = None,
        prefix_share: float = 0.0,
        prefix_tokens: "int | None" = None,
        prefix_groups: int = 1,
        model_mix=None,
    ) -> tuple[Request, ...]:
        """A trace of ``num_requests`` Poisson arrivals at ``rate_rps``.

        ``num_classes`` > 1 additionally assigns each request a uniform
        priority class in ``[0, num_classes)``.  Classes are drawn from a
        *separate* RNG stream (seeded ``f"{name}/{seed}/classes"``), so the
        arrival pattern and workload-mix sequence of a (name, seed) pair
        are identical whether or not classes are requested.

        ``prefix_share`` > 0 makes that fraction of requests (in
        expectation) open with a shared system prefix of ``prefix_tokens``
        tokens (default: half the shortest prompt of the mix), spread
        uniformly over ``prefix_groups`` distinct prefixes.  Like classes,
        the prefix draws live on their own RNG stream (seeded
        ``f"{name}/{seed}/prefix"``), so arrivals and shapes are
        byte-identical whether or not sharing is requested — at
        ``prefix_share=0`` the trace is exactly the legacy one.

        ``curve`` (a :class:`TraceCurve` or a registered curve name) makes
        the arrivals an inhomogeneous Poisson process of instantaneous rate
        ``rate_rps * curve.multiplier(t)``: each unit-rate exponential gap
        is mapped through the curve's inverse cumulative exposure.  The
        same gap stream drives every curve, so traces with different
        curves (or no curve at all) contain the *same* request shapes in
        the same order — only the arrival instants move.

        ``model_mix`` names the models of a co-hosted set — a sequence of
        model names (uniform draw) or ``(name, weight)`` pairs — and
        assigns each request's ``model`` field from its own RNG stream
        (seeded ``f"{name}/{seed}/models"``).  Arrivals, shapes, classes
        and prefixes are byte-identical whether or not a mix is requested.
        """
        return tuple(
            chain.from_iterable(
                self.generate_stream(
                    num_requests,
                    rate_rps,
                    seed=seed,
                    start_s=start_s,
                    num_classes=num_classes,
                    curve=curve,
                    chunk_requests=max(num_requests, 1),
                    prefix_share=prefix_share,
                    prefix_tokens=prefix_tokens,
                    prefix_groups=prefix_groups,
                    model_mix=model_mix,
                )
            )
        )

    def generate_stream(
        self,
        num_requests: int,
        rate_rps: float,
        seed: int = 0,
        start_s: float = 0.0,
        num_classes: int = 1,
        curve: "TraceCurve | str | None" = None,
        chunk_requests: int = 4096,
        prefix_share: float = 0.0,
        prefix_tokens: "int | None" = None,
        prefix_groups: int = 1,
        model_mix=None,
    ):
        """:meth:`generate` as a chunked iterator — O(chunk) memory.

        Yields tuples of at most ``chunk_requests`` requests.  This is the
        one draw loop — one gap draw then one mix draw per request,
        classes, prefixes and models on their separate streams — and
        :meth:`generate` is its chunks concatenated, so the chunks are
        byte-identical to the materialized trace for every curve, seed and
        chunk size (the streaming property test pins this).  A
        million-request day never exists in memory at once; feed the
        chunks to :meth:`ServingSimulator.simulate_stream`.

        Arguments are validated eagerly (this returns a generator only
        after the checks), so a bad rate fails at call time, not first
        ``next()``.
        """
        if num_requests < 0:
            raise ValueError("num_requests must be non-negative")
        # Chained range checks also reject NaN, which fails every comparison.
        if not 0.0 < rate_rps < math.inf:
            raise ValueError("rate_rps must be positive and finite")
        if not 0.0 <= start_s < math.inf:
            raise ValueError(
                f"start_s must be finite and non-negative, got {start_s!r}"
            )
        if not 0.0 <= prefix_share <= 1.0:
            raise ValueError(f"prefix_share must be in [0, 1], got {prefix_share!r}")
        if prefix_tokens is not None and prefix_tokens < 1:
            raise ValueError("prefix_tokens must be at least 1")
        if prefix_groups < 1:
            raise ValueError("prefix_groups must be at least 1")
        if num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        if chunk_requests < 1:
            raise ValueError("chunk_requests must be at least 1")
        if isinstance(curve, str):
            curve = make_trace_curve(curve)
        if prefix_share > 0.0:
            prefix_tokens = self._resolve_prefix(prefix_tokens)
        mix = (
            self._resolve_model_mix(model_mix) if model_mix is not None else None
        )

        def chunks():
            # Bound-method and attribute hoisting: this loop runs once per
            # request of a megatrace.  Every trace is drawn here, so the
            # RNG calls and their order define the traces of a seed.
            rng = random.Random(f"{self.name}/{seed}")
            class_rng = (
                random.Random(f"{self.name}/{seed}/classes")
                if num_classes > 1
                else None
            )
            prefix_rng = (
                random.Random(f"{self.name}/{seed}/prefix")
                if prefix_share > 0.0
                else None
            )
            model_rng = (
                random.Random(f"{self.name}/{seed}/models")
                if mix is not None
                else None
            )
            expovariate = rng.expovariate
            randrange = rng.randrange
            workloads = self.workloads
            num_workloads = len(workloads)
            advance = None if curve is None else curve.advance
            clock = start_s
            chunk = []
            append = chunk.append
            for request_id in range(num_requests):
                gap = expovariate(1.0) / rate_rps
                if advance is None:
                    clock += gap
                else:
                    clock = advance(clock, gap)
                workload = workloads[randrange(num_workloads)]
                prefix_id = -1
                shared_tokens = 0
                if prefix_rng is not None and prefix_rng.random() < prefix_share:
                    prefix_id = (
                        prefix_rng.randrange(prefix_groups)
                        if prefix_groups > 1
                        else 0
                    )
                    shared_tokens = prefix_tokens
                model_name = ""
                if model_rng is not None:
                    names, cumulative = mix
                    pick = bisect_right(cumulative, model_rng.random())
                    model_name = names[min(pick, len(names) - 1)]
                append(
                    Request(
                        request_id=request_id,
                        arrival_s=clock,
                        input_tokens=workload.input_tokens,
                        output_tokens=workload.output_tokens,
                        priority_class=(
                            class_rng.randrange(num_classes) if class_rng else 0
                        ),
                        prefix_id=prefix_id,
                        prefix_tokens=shared_tokens,
                        model=model_name,
                    )
                )
                if len(chunk) >= chunk_requests:
                    yield tuple(chunk)
                    chunk = []
                    append = chunk.append
            if chunk:
                yield tuple(chunk)

        return chunks()

    # ------------------------------------------------------------------
    @property
    def min_input_tokens(self) -> int:
        """Shortest prompt of the mix (upper bound of a shared prefix)."""
        return min(workload.input_tokens for workload in self.workloads)

    def describe(self) -> str:
        shapes = ", ".join(workload.label() for workload in self.workloads[:4])
        if len(self.workloads) > 4:
            shapes += f", ... ({len(self.workloads)} shapes)"
        return f"{self.description} [{shapes}]"


#: Named trace generators, in presentation order (``repro list`` prints these).
TRACES: dict[str, TraceGenerator] = {
    generator.name: generator
    for generator in (
        TraceGenerator(
            name="gpt2-paper",
            description="the Fig. 8 GPT-2 evaluation grid as a request mix",
            workloads=tuple(PAPER_GPT2_WORKLOADS),
        ),
        TraceGenerator(
            name="dfx-paper",
            description="the Fig. 9 DFX-comparison grid as a request mix",
            workloads=tuple(PAPER_DFX_WORKLOADS),
        ),
        TraceGenerator(
            name="chatbot",
            description="interactive chat: moderate prompts, mid-length replies",
            workloads=(
                Workload(128, 64),
                Workload(256, 64),
                Workload(256, 128),
                Workload(512, 128),
                Workload(512, 256),
            ),
        ),
        TraceGenerator(
            name="summarize",
            description="summarization-only: long prompts, single-token output",
            workloads=(Workload(128, 1), Workload(256, 1), Workload(512, 1)),
        ),
        TraceGenerator(
            name="skewed",
            description=(
                "heavy-tailed mix: mostly short chats, a tail of long jobs "
                "(stresses request routing across replicas)"
            ),
            # Duplicated shapes weight the uniform draw: 6/10 short,
            # 2/10 medium, 2/10 heavy.  The tail carries ~2/3 of the
            # total tokens, so per-request routing decisions dominate
            # replica load balance.
            workloads=(
                (Workload(64, 16),) * 6
                + (Workload(128, 64),) * 2
                + (Workload(512, 256), Workload(768, 384))
            ),
        ),
    )
}


def get_trace_generator(name: str) -> TraceGenerator:
    """Look up a registered trace generator by name."""
    try:
        return TRACES[name]
    except KeyError:
        raise KeyError(
            f"unknown trace generator {name!r}; known: {', '.join(TRACES)}"
        ) from None
