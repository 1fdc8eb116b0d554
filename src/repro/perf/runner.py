"""Parallel experiment runner with cell-level sharding and timing reports.

``run_many`` drives any subset of :data:`repro.experiments.registry.EXPERIMENTS`
either serially or over a :class:`concurrent.futures.ProcessPoolExecutor`,
times the work, and packages the timings into a :class:`TimingReport` whose
JSON serialisation follows pytest-benchmark's ``BENCH_*.json`` layout (a
top-level ``benchmarks`` list with per-entry ``stats``), so existing
benchmark-diffing tooling can consume it directly.

Sharding granularity: experiments that declare a sweep grid
(:data:`repro.experiments.registry.SWEEPS`) are fanned out one task per
*cell* — the pool's shared task queue work-steals over all cells of all
requested experiments, so one big sweep (e.g. Fig. 8's 48 model x workload
cells) no longer pins a single worker while the rest idle.  Experiments
without a declared grid still run as one task.  Per-cell wall times are
rolled up into the report (min/mean/median/max/stddev per experiment).

Determinism: cells are pure and reduction happens in the parent in declared
cell order, so serial and sharded runs produce byte-identical experiment
rows/claims, with or without the persistent cache (``disk_cache=True``
installs :class:`repro.perf.cache.PersistentPassCostCache` under both global
caches, pre-loads it before the pool forks so workers inherit the warm
entries, and flushes it on completion).
"""

from __future__ import annotations

import concurrent.futures
import json
import platform
import statistics
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from repro.experiments.base import ExperimentResult, Sweep

__all__ = [
    "ExperimentTiming",
    "TimingReport",
    "RunManyResult",
    "run_many",
    "write_report",
]

#: Cache counters tracked per run (and per sharded cell task).
_COUNTER_KEYS = ("hits", "misses", "disk_loads", "disk_saves")


def _cache_counters() -> dict:
    """Current absolute counters of both global caches."""
    from repro.perf.cache import global_baseline_cache, global_pass_cache

    counters = {}
    for name, cache in (("pass", global_pass_cache()),
                        ("baseline", global_baseline_cache())):
        stats = cache.stats()
        counters[name] = {key: stats.get(key, 0) for key in _COUNTER_KEYS}
    return counters


def _counter_delta(before: dict, after: dict) -> dict:
    return {
        name: {
            key: after[name][key] - before[name][key] for key in _COUNTER_KEYS
        }
        for name in after
    }


def _merge_counters(total: dict, delta: dict) -> dict:
    for name, keys in delta.items():
        bucket = total.setdefault(name, {key: 0 for key in _COUNTER_KEYS})
        for key, value in keys.items():
            bucket[key] += value
    return total


@dataclass(frozen=True, slots=True)
class ExperimentTiming:
    """Wall-clock timing of one experiment run.

    When the experiment was sharded, ``seconds`` is the summed cell time
    (comparable across jobs counts), ``cells`` the grid size and
    ``cell_seconds`` the per-cell wall times in completion-independent
    declared-cell order.
    """

    experiment_id: str
    seconds: float
    rows: int
    ok: bool = True
    error: str = ""
    cells: int = 1
    cell_seconds: tuple = ()


@dataclass
class TimingReport:
    """Per-experiment timings of one ``run_many`` invocation."""

    timings: list[ExperimentTiming] = field(default_factory=list)
    total_seconds: float = 0.0
    jobs: int = 1
    fast: bool = True
    sharded: bool = False
    #: Aggregated pass-cost / baseline cache counter deltas for this run
    #: (summed over workers when sharded).
    cache_stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """pytest-benchmark-compatible JSON document (``BENCH_*.json``)."""
        benchmarks = []
        for timing in self.timings:
            if timing.cell_seconds:
                samples = list(timing.cell_seconds)
                stats = {
                    "min": min(samples),
                    "max": max(samples),
                    "mean": statistics.fmean(samples),
                    "median": statistics.median(samples),
                    "stddev": statistics.stdev(samples) if len(samples) > 1 else 0.0,
                    "rounds": len(samples),
                    "iterations": 1,
                    "total": timing.seconds,
                }
            else:
                stats = {
                    "min": timing.seconds,
                    "max": timing.seconds,
                    "mean": timing.seconds,
                    "median": timing.seconds,
                    "stddev": 0.0,
                    "rounds": 1,
                    "iterations": 1,
                    "total": timing.seconds,
                }
            benchmarks.append(
                {
                    "name": timing.experiment_id,
                    "fullname": f"repro bench::{timing.experiment_id}",
                    "group": "experiments",
                    "extra_info": {
                        "rows": timing.rows,
                        "ok": timing.ok,
                        "error": timing.error,
                        "fast": self.fast,
                        "jobs": self.jobs,
                        "cells": timing.cells,
                        "sharded": self.sharded,
                    },
                    "stats": stats,
                }
            )
        return {
            "machine_info": {
                "python_version": platform.python_version(),
                "python_implementation": platform.python_implementation(),
                "machine": platform.machine(),
                "system": platform.system(),
            },
            "datetime": datetime.now(timezone.utc).isoformat(),
            "version": "repro-bench-1.1",
            "commit_info": {},
            "benchmarks": benchmarks,
            "total_seconds": self.total_seconds,
            "cache_stats": self.cache_stats,
        }

    def to_text(self) -> str:
        lines = [f"{'experiment':<26} {'seconds':>9} {'cells':>6}  status"]
        for timing in self.timings:
            status = "ok" if timing.ok else f"FAILED: {timing.error}"
            lines.append(
                f"{timing.experiment_id:<26} {timing.seconds:>9.3f} "
                f"{timing.cells:>6}  {status}"
            )
        mode = f"jobs={self.jobs}" + (" (cell-sharded)" if self.sharded else "")
        lines.append(
            f"{'total (wall clock)':<26} {self.total_seconds:>9.3f} "
            f"{sum(t.cells for t in self.timings):>6}  {mode}"
        )
        return "\n".join(lines)

    def cache_summary(self) -> str:
        """Human-readable cache counters (one line per cache family)."""
        if not self.cache_stats:
            return "cache statistics unavailable"
        labels = {"pass": "pass-cost cache", "baseline": "baseline cache"}
        lines = []
        for name in ("pass", "baseline"):
            counters = self.cache_stats.get(name)
            if counters is None:
                continue
            total = counters["hits"] + counters["misses"]
            rate = counters["hits"] / total if total else 0.0
            line = (
                f"{labels[name]}: {counters['hits']} hits / "
                f"{counters['misses']} misses ({rate:.0%} hit rate)"
            )
            if counters.get("disk_loads") or counters.get("disk_saves"):
                line += (
                    f", disk: {counters['disk_loads']} loaded / "
                    f"{counters['disk_saves']} saved"
                )
            lines.append(line)
        return "\n".join(lines)


@dataclass
class RunManyResult:
    """Results plus timings of one multi-experiment run."""

    results: dict[str, ExperimentResult]
    report: TimingReport


# ----------------------------------------------------------------------
# Worker bodies (must stay module-level and picklable)
# ----------------------------------------------------------------------
#: Worker-side memo of sweep grids, keyed by (experiment id, fast) — cells
#: are dispatched by id, so each worker re-derives the grid once.
_WORKER_SWEEPS: dict = {}


def _worker_sweep(experiment_id: str, fast: bool) -> Sweep:
    key = (experiment_id, fast)
    grid = _WORKER_SWEEPS.get(key)
    if grid is None:
        from repro.experiments.registry import get_sweep

        grid = get_sweep(experiment_id, fast=fast)
        if grid is None:
            raise KeyError(f"{experiment_id} has no declared sweep")
        _WORKER_SWEEPS[key] = grid
    return grid


def _worker_init(cache_dir) -> None:
    """Pool initializer: persistent caches + flush-at-exit in each worker.

    With the default ``fork`` start method the worker inherits the parent's
    already-warm persistent caches; installing again is a no-op thanks to
    ``install_disk_caches`` idempotency.  The exit hook flushes whatever the
    worker computed when the pool shuts down — multiprocessing children
    leave via ``os._exit`` and never run :mod:`atexit` handlers, so the hook
    must go through ``multiprocessing.util.Finalize`` (which the worker's
    ``_exit_function`` does run).
    """
    from multiprocessing.util import Finalize

    from repro.perf.cache import flush_disk_caches, install_disk_caches

    install_disk_caches(cache_dir)
    Finalize(None, flush_disk_caches, exitpriority=10)


def _timed_run(experiment_id: str, fast: bool):
    """Whole-experiment worker body: run one experiment and time it."""
    from repro.experiments.registry import run_experiment

    before = _cache_counters()
    start = time.perf_counter()
    try:
        result = run_experiment(experiment_id, fast=fast)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        elapsed = time.perf_counter() - start
        return experiment_id, elapsed, None, f"{type(exc).__name__}: {exc}", \
            _counter_delta(before, _cache_counters())
    elapsed = time.perf_counter() - start
    return experiment_id, elapsed, result, "", _counter_delta(before, _cache_counters())


def _timed_cell(experiment_id: str, cell_id: str, fast: bool):
    """Cell worker body: evaluate one grid cell and time it."""
    before = _cache_counters()
    start = time.perf_counter()
    try:
        grid = _worker_sweep(experiment_id, fast)
        output = grid.run_cell_by_id(cell_id)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        elapsed = time.perf_counter() - start
        return experiment_id, cell_id, elapsed, None, \
            f"{type(exc).__name__}: {exc}", _counter_delta(before, _cache_counters())
    elapsed = time.perf_counter() - start
    return experiment_id, cell_id, elapsed, output, "", \
        _counter_delta(before, _cache_counters())


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_many(
    experiment_ids: Sequence[str] | Iterable[str],
    fast: bool = True,
    jobs: int = 1,
    disk_cache: bool = False,
    cache_dir=None,
) -> RunManyResult:
    """Run several registered experiments, optionally sharded over a pool.

    Parameters
    ----------
    experiment_ids:
        Identifiers from :data:`repro.experiments.registry.EXPERIMENTS`.
    fast:
        Forwarded to every experiment's ``run`` / ``sweep``.
    jobs:
        ``1`` runs serially in-process (sharing the process-wide caches
        across experiments); ``N > 1`` fans out over ``N`` worker processes,
        one task per grid *cell* of each sweep-declaring experiment
        (work-stealing across all cells of all experiments) and one task
        per experiment without a grid.  Reduction happens in the parent in
        declared cell order, so results equal a serial run's.
    disk_cache:
        Install the persistent pass-cost cache (both the simulator and the
        baseline sections) for this run: load it before running — and before
        the pool forks, so workers inherit the warm entries — and flush it
        afterwards.
    cache_dir:
        Directory for the persistent cache file (default:
        ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).

    Results are returned in the requested order regardless of completion
    order, and a failing experiment (or cell) is reported in the timing
    report instead of aborting the remaining ones.
    """
    from repro.experiments.registry import EXPERIMENTS, get_sweep

    ids = list(experiment_ids)
    unknown = [identifier for identifier in ids if identifier not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {unknown}; known: {sorted(EXPERIMENTS)}"
        )
    if jobs < 1:
        raise ValueError("jobs must be at least 1")

    if disk_cache:
        from repro.perf.cache import install_disk_caches

        pass_cache, baseline_cache = install_disk_caches(cache_dir)
    counters_before = _cache_counters()
    if disk_cache:
        disk_sizes_before = {
            name: len(section) if isinstance(section, dict) else 0
            for name, section in pass_cache.disk.load_sections().items()
        }
        # Eager load: (a) serial runs start warm, (b) forked workers inherit
        # the warm entries through copy-on-write memory instead of each
        # re-reading (or worse, recomputing) them.
        pass_cache.load()
        baseline_cache.load()

    wall_start = time.perf_counter()
    sharded = jobs > 1
    if sharded:
        outcomes, cell_meta, worker_counters = _run_sharded(ids, fast, jobs, disk_cache, cache_dir)
    else:
        outcomes = _run_serial(ids, fast)
        cell_meta = {
            identifier: len(grid.cells)
            for identifier in ids
            if (grid := get_sweep(identifier, fast=fast)) is not None
        }
        worker_counters: dict = {}
    total = time.perf_counter() - wall_start

    if disk_cache:
        from repro.perf.cache import flush_disk_caches

        flush_disk_caches()

    # The parent's own counter movement (serial hits/misses, eager disk loads,
    # final flush) plus the per-task deltas reported by pool workers.
    cache_stats = _counter_delta(counters_before, _cache_counters())
    _merge_counters(cache_stats, worker_counters)
    if disk_cache and jobs > 1:
        # Pool workers flush via their exit hook *after* the last per-task
        # delta is reported, so their disk saves never reach the counters.
        # The on-disk growth of each section is the ground truth for how
        # many entries this run persisted — use it for sharded runs.
        sections_after = pass_cache.disk.load_sections()
        for counter_name, section_name in (("pass", pass_cache.section),
                                           ("baseline", baseline_cache.section)):
            section = sections_after.get(section_name)
            size_after = len(section) if isinstance(section, dict) else 0
            growth = size_after - disk_sizes_before.get(section_name, 0)
            bucket = cache_stats.setdefault(
                counter_name, {key: 0 for key in _COUNTER_KEYS}
            )
            bucket["disk_saves"] = max(bucket["disk_saves"], growth)

    report = TimingReport(
        jobs=jobs, fast=fast, total_seconds=total, sharded=sharded,
        cache_stats=cache_stats,
    )
    results: dict[str, ExperimentResult] = {}
    for identifier in ids:
        elapsed, result, error, cell_seconds = outcomes[identifier]
        ok = error == "" and result is not None
        rows = len(result.rows) if result is not None else 0
        report.timings.append(
            ExperimentTiming(
                experiment_id=identifier,
                seconds=elapsed,
                rows=rows,
                ok=ok,
                error=error,
                cells=cell_meta.get(identifier, len(cell_seconds) or 1),
                cell_seconds=tuple(cell_seconds),
            )
        )
        if result is not None:
            results[identifier] = result
    return RunManyResult(results=results, report=report)


def _run_serial(ids, fast):
    """In-process path: one timed ``run_experiment`` per id."""
    outcomes = {}
    for identifier in ids:
        _, elapsed, result, error, _ = _timed_run(identifier, fast)
        outcomes[identifier] = (elapsed, result, error, ())
    return outcomes


def _run_sharded(ids, fast, jobs, disk_cache, cache_dir):
    """Cell-granular pool path: work-steal over all cells of all sweeps."""
    from repro.experiments.registry import get_sweep

    sweeps: dict[str, Sweep] = {}
    tasks: list[tuple] = []  # (experiment_id, cell_id or None)
    for identifier in ids:
        grid = get_sweep(identifier, fast=fast)
        if grid is not None:
            sweeps[identifier] = grid
            tasks.extend((identifier, cell.cell_id) for cell in grid.cells)
        else:
            tasks.append((identifier, None))

    cell_outputs: dict[str, dict] = {identifier: {} for identifier in sweeps}
    cell_times: dict[str, dict] = {identifier: {} for identifier in sweeps}
    cell_errors: dict[str, list] = {identifier: [] for identifier in sweeps}
    outcomes: dict = {}
    totals: dict = {}
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)) or 1,
        initializer=_worker_init if disk_cache else None,
        initargs=(cache_dir,) if disk_cache else (),
    ) as pool:
        futures = {}
        for identifier, cell_id in tasks:
            if cell_id is None:
                future = pool.submit(_timed_run, identifier, fast)
            else:
                future = pool.submit(_timed_cell, identifier, cell_id, fast)
            futures[future] = (identifier, cell_id)
        for future in concurrent.futures.as_completed(futures):
            identifier, cell_id = futures[future]
            if cell_id is None:
                _, elapsed, result, error, delta = future.result()
                outcomes[identifier] = (elapsed, result, error, ())
            else:
                _, _, elapsed, output, error, delta = future.result()
                cell_times[identifier][cell_id] = elapsed
                if error:
                    cell_errors[identifier].append(f"{cell_id}: {error}")
                else:
                    cell_outputs[identifier][cell_id] = output
            _merge_counters(totals, delta)

    # Deterministic reduction in the parent, in declared cell order.
    for identifier, grid in sweeps.items():
        times = cell_times[identifier]
        ordered_times = tuple(
            times.get(cell.cell_id, 0.0) for cell in grid.cells
        )
        elapsed = sum(ordered_times)
        if cell_errors[identifier]:
            error = "; ".join(sorted(cell_errors[identifier]))
            outcomes[identifier] = (elapsed, None, error, ordered_times)
            continue
        try:
            result = grid.reduce(cell_outputs[identifier])
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            outcomes[identifier] = (
                elapsed, None, f"{type(exc).__name__}: {exc}", ordered_times
            )
            continue
        outcomes[identifier] = (elapsed, result, "", ordered_times)

    cell_meta = {identifier: len(grid.cells) for identifier, grid in sweeps.items()}
    return outcomes, cell_meta, totals


def write_report(report: TimingReport, path: str | Path) -> Path:
    """Serialise a timing report to a ``BENCH_*.json``-compatible file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return path
