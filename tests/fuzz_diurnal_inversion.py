"""Fuzz the diurnal curve's inversion at the scale it runs.

``DiurnalCurve.advance`` settles most bisection midpoints from a proven
error bound instead of evaluating the curve there.  This script compares
it, with ``==``, against ``_reference_advance`` (the fixed 100-iteration
bisection kept in ``test_properties.py``) on:

* every arrival of perfbench's serve-day and fleet-chaos workloads at
  seeds 1 and 7, generated as the workloads generate them;
* 200,000 random cases drawn like the property tests' (random knobs, and
  the band's hard regions: amplitudes near 1, ``t0`` within 4 ulps of 0,
  of a power of two or of a phase crossing, areas around the band's
  gate).

It prints one line per source and exits 1 on any mismatch.  From the
repository root::

    PYTHONPATH=src:. python tests/fuzz_diurnal_inversion.py [seed]
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_properties import _reference_advance  # noqa: E402

from perfbench.workloads import FleetChaos, ServeDay  # noqa: E402
from repro.models import get_model  # noqa: E402
from repro.serving.trace import DiurnalCurve  # noqa: E402

RANDOM_CASES = 200_000


class _Checked(DiurnalCurve):
    """A diurnal curve that checks every inversion against the reference."""

    calls = 0
    mismatches: list = []

    def advance(self, t0, area):
        got = super().advance(t0, area)
        _Checked.calls += 1
        expected = _reference_advance(self, t0, area)
        if got != expected:
            _Checked.mismatches.append(
                (self.period_s, self.amplitude, self.phase_s, t0, area, got, expected)
            )
        return got


def _serve_day(seed: int) -> None:
    """serve-day's four streamed days, as ``ServeDay.run`` generates them."""
    inputs, context = ServeDay.inputs(seed), ServeDay._context()
    rate = inputs["load"] / context["service_s"]
    horizon = inputs["requests"] / rate
    for op in inputs["ops"]:
        for _ in context["generator"].generate_stream(
            inputs["requests"], rate, seed=op["trace_seed"],
            chunk_requests=inputs["chunk_requests"],
            curve=_Checked(
                period_s=horizon, amplitude=inputs["amplitude"], phase_s=horizon / 4.0
            ),
        ):
            pass


def _fleet_chaos(seed: int) -> None:
    """fleet-chaos's eight traces, as ``FleetChaos.run`` generates them."""
    inputs, context = FleetChaos.inputs(seed), FleetChaos._context()
    rate = inputs["replicas"] * inputs["load"] / context["service_s"]
    horizon = inputs["requests"] / rate
    models = [get_model(name) for name in FleetChaos.model_names]
    for op in inputs["ops"]:
        context["generator"].generate(
            inputs["requests"], rate, seed=op["trace_seed"],
            num_classes=inputs["num_classes"],
            model_mix=[(model.name, 1.0) for model in models],
            curve=_Checked(
                period_s=horizon, amplitude=inputs["amplitude"], phase_s=horizon / 4.0
            ),
        )


def _random_case(rng: random.Random):
    """One (curve, t0, area), like ``inversions`` or ``hard_diurnal_inversions``."""
    period = 10.0 ** rng.uniform(-3.0, 6.0)
    phase = rng.uniform(-1e3, 1e4)
    if rng.random() < 0.5:
        amplitude = rng.random()
        t0 = rng.uniform(-1e3, 1e5)
        if rng.random() < 0.5:
            area = rng.uniform(1e-300, 1e6)
        else:
            area = 10.0 ** rng.uniform(-300.0, 6.0)
        return _Checked(period, amplitude, phase), t0, area
    amplitude = rng.uniform(0.0, 0.99) if rng.random() < 0.5 else rng.uniform(0.99, 1.0)
    amplitude = min(amplitude, math.nextafter(1.0, 0.0))
    anchor = rng.randrange(3)
    if anchor == 0:
        t0 = 0.0
    elif anchor == 1:
        t0 = rng.choice([-1.0, 1.0]) * 2.0 ** rng.randrange(-60, 61)
    else:
        t0 = phase + rng.randrange(10_001) * period
    direction = rng.choice([-math.inf, math.inf])
    for _ in range(rng.randrange(5)):
        t0 = math.nextafter(t0, direction)
    swing = amplitude * period / (2.0 * math.pi)
    theta0 = 2.0 * math.pi * (t0 - phase) / period
    gate = 2.0**-36 * swing * (3.0 * abs(theta0) + 4.0) + 2.0**-1000
    return _Checked(period, amplitude, phase), t0, gate * 2.0 ** rng.uniform(-8.0, 8.0)


def _random(seed: int) -> None:
    rng = random.Random(f"fuzz-diurnal/{seed}")
    for _ in range(RANDOM_CASES):
        curve, t0, area = _random_case(rng)
        curve.advance(t0, area)


def main(argv: list[str]) -> int:
    seed = int(argv[1]) if len(argv) > 1 else 0
    sources = [
        *((f"serve-day seed {s}", _serve_day, s) for s in (1, 7)),
        *((f"fleet-chaos seed {s}", _fleet_chaos, s) for s in (1, 7)),
        (f"{RANDOM_CASES:,} random cases, seed {seed}", _random, seed),
    ]
    failed = False
    for name, run, source_seed in sources:
        _Checked.calls, _Checked.mismatches = 0, []
        start = time.perf_counter()
        run(source_seed)
        elapsed = time.perf_counter() - start
        print(f"{name}: {_Checked.calls:,} inversions, "
              f"{len(_Checked.mismatches)} mismatches ({elapsed:.1f} s)")
        for mismatch in _Checked.mismatches[:5]:
            print("  period, amplitude, phase, t0, area, got, expected =",
                  ", ".join(map(repr, mismatch)))
        failed = failed or bool(_Checked.mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
