"""Benchmark-harness configuration.

Each ``bench_*.py`` module times one serving scenario or runner mode with
pytest-benchmark and asserts the claims that scenario exists to show; a CI
step runs every one of them (at a capped size where its module reads a
``REPRO_BENCH_*_REQUESTS`` cap).  Run the whole harness with::

    pytest benchmarks/ --benchmark-only

Per-experiment timing comes from ``repro bench <ids> [--jobs N] [--json PATH]``.
"""
