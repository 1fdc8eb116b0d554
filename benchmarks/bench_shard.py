"""Cell-sharding smoke benchmark: Fig. 8 serial vs ``--jobs N`` sharded.

The pytest entry point times the sharded regeneration of the Fig. 8 sweep
(48 model x workload cells over a 2-worker pool) and asserts the rows are
byte-identical to the serial path — the equivalence the cell-sharding design
guarantees.  Run with::

    pytest benchmarks/bench_shard.py --benchmark-only -q

Running this module as a script regenerates ``BENCH_shard_pr2.json``, the
PR-over-PR evidence file: the fig08+fig15+fig17 sweep in all four modes
(serial/sharded x cold/warm persistent cache), each in a fresh subprocess so
cold really means a cold process *and* a cold disk cache::

    PYTHONPATH=src python benchmarks/bench_shard.py [output.json]
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from repro.perf import run_many

SWEEP_FIGURES = ("fig08", "fig15", "fig17")
#: PR 1's measured single-process wall clock for the same three-figure sweep
#: (fast mode, cold cache) — the bar the sharded/warm paths must beat.
PR1_SERIAL_SECONDS = 0.231


def test_fig08_sharded_matches_serial_benchmark(benchmark):
    serial = run_many(["fig08"], fast=True, jobs=1)
    outcome = benchmark.pedantic(
        run_many,
        args=(["fig08"],),
        kwargs={"fast": True, "jobs": 2},
        rounds=1,
        iterations=1,
    )
    assert outcome.report.sharded
    assert all(t.ok for t in outcome.report.timings)
    assert outcome.results["fig08"].rows == serial.results["fig08"].rows
    (timing,) = outcome.report.timings
    assert timing.cells == 48
    print()
    print(outcome.report.to_text())


# ----------------------------------------------------------------------
# BENCH_shard_pr2.json generator (script mode)
# ----------------------------------------------------------------------
_CHILD_SCRIPT = """
import json, sys
from repro.perf import run_many

jobs = int(sys.argv[1])
outcome = run_many(
    {figures!r}, fast=True, jobs=jobs, disk_cache=True,
)
report = outcome.report
print(json.dumps({{
    "total_seconds": report.total_seconds,
    "cells": sum(t.cells for t in report.timings),
    "ok": all(t.ok for t in report.timings),
    "cache_stats": report.cache_stats,
}}))
"""


def _run_child(jobs: int, cache_dir: Path) -> dict:
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    script = _CHILD_SCRIPT.format(figures=list(SWEEP_FIGURES))
    process = subprocess.run(
        [sys.executable, "-c", script, str(jobs)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(process.stdout)


def generate_report(path: Path) -> dict:
    """Measure the four modes in fresh subprocesses and write the report."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-shard-") as tmp:
        warm_dir = Path(tmp) / "warm"
        cold_dir = Path(tmp) / "cold-sharded"
        modes = [
            ("serial-cold", 1, warm_dir),    # populates warm_dir
            ("sharded-cold", 4, cold_dir),   # separate dir: stays cold
            ("serial-warm", 1, warm_dir),
            ("sharded-warm", 4, warm_dir),
        ]
        measurements = {}
        for name, jobs, cache_dir in modes:
            measurements[name] = (_run_child(jobs, cache_dir), jobs)

    benchmarks = []
    for name, (measurement, jobs) in measurements.items():
        seconds = measurement["total_seconds"]
        benchmarks.append(
            {
                "name": f"fig08+fig15+fig17::{name}",
                "fullname": f"bench_shard::{name}",
                "group": "shard-modes",
                "extra_info": {
                    "figures": list(SWEEP_FIGURES),
                    "jobs": jobs,
                    "cells": measurement["cells"],
                    "ok": measurement["ok"],
                    "cache_stats": measurement["cache_stats"],
                    "pr1_serial_seconds": PR1_SERIAL_SECONDS,
                    "speedup_vs_pr1": PR1_SERIAL_SECONDS / seconds,
                },
                "stats": {
                    "min": seconds, "max": seconds, "mean": seconds,
                    "median": seconds, "stddev": 0.0,
                    "rounds": 1, "iterations": 1, "total": seconds,
                },
            }
        )
    document = {
        "machine_info": {
            "python_version": platform.python_version(),
            "python_implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
        },
        "datetime": datetime.now(timezone.utc).isoformat(),
        "version": "repro-bench-1.1",
        "commit_info": {},
        "benchmarks": benchmarks,
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    return document


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent / "BENCH_shard_pr2.json"
    document = generate_report(path)
    print(f"{'mode':<14} {'seconds':>9} {'vs PR1 serial':>14}")
    for entry in document["benchmarks"]:
        name = entry["name"].split("::")[1]
        seconds = entry["stats"]["total"]
        print(f"{name:<14} {seconds:>9.3f} {entry['extra_info']['speedup_vs_pr1']:>13.1f}x")
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
