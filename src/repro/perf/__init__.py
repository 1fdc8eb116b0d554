"""Simulation performance subsystem: caching and a parallel experiment runner.

The experiments regenerate the paper's figures by driving
:meth:`repro.core.system.IanusSystem.run` hundreds of times with
near-identical inputs (Fig. 8 sweeps 12 workloads x 4 models on one
configuration, Fig. 15 sweeps 12 configurations, Fig. 17/18 sweep device
counts).  This package makes those sweeps fast without changing a single
number:

:mod:`repro.perf.cache`
    The pass-cost cache.  One entry memoizes the full result of
    ``IanusSystem._pass_cost`` — ``(latency, breakdown, ActivityStats,
    flops)`` for one pass of one stage — keyed by

    ``(config fingerprint, num_devices, model, stage, num_tokens, kv_length)``

    where the *config fingerprint* is a digest of every field of the frozen
    :class:`repro.config.SystemConfig` (see
    :func:`repro.perf.cache.config_fingerprint`).  Because every input that
    influences a pass cost is part of the key, a hit returns exactly the
    bytes a recomputation would produce; the cache can therefore stay global
    (shared by every :class:`~repro.core.system.IanusSystem` in the process)
    and survive across experiments.

    Invalidation is explicit: :meth:`PassCostCache.clear` empties the cache,
    :meth:`PassCostCache.invalidate` drops every entry of one configuration
    fingerprint.  There is no implicit invalidation to reason about because
    every key ingredient is immutable (frozen dataclasses and ints).  Hit and
    miss counters (:meth:`PassCostCache.stats`) make cache behaviour
    observable from the CLI (``repro bench``) and the tests.

    Two cache *layers* exist since PR 2.  In-process, two shared
    :class:`PassCostCache` instances memoize the simulator
    (:func:`global_pass_cache`) and the analytical A100/DFX baselines
    (:func:`global_baseline_cache`) separately, so ``repro bench`` can report
    their hit rates side by side.  On disk,
    :class:`~repro.perf.cache.PersistentPassCostCache` backs both with one
    versioned, atomically-written pickle file under ``$REPRO_CACHE_DIR``
    (default ``~/.cache/repro``) — loaded on first miss, flushed on
    completion — so repeated CLI invocations start warm.  Version mismatch
    and corruption fall back to an empty cache
    (:data:`~repro.perf.cache.CACHE_SCHEMA_VERSION` gates every load).

:mod:`repro.perf.runner`
    ``run_many`` — a parallel experiment runner over
    :data:`repro.experiments.registry.EXPERIMENTS` built on
    :mod:`concurrent.futures`, with per-experiment wall-clock timing and a
    machine-readable timing report compatible with pytest-benchmark's JSON
    layout (``BENCH_*.json``), so perf regressions can be diffed across PRs.
    Experiments that declare a sweep grid
    (:class:`repro.experiments.base.Sweep`) are sharded at *cell*
    granularity: the pool work-steals over all cells of all requested
    experiments, and the parent reduces each grid deterministically in
    declared cell order, so serial and sharded runs emit byte-identical
    rows.

The third layer of the fast path lives where the hot loops are:
:mod:`repro.compiler.compiler` keeps one block template per ``(model,
stage, tokens)`` and replays it for every KV length, recording only the
numbers that change; :mod:`repro.scheduling.events` prepares resource keys
and dependencies once per template, prices only each stream's durations
and activity, and builds lazy :class:`Timeline` objects (makespan,
breakdowns and activity stats without materializing ``ScheduledCommand``
objects).
"""

from __future__ import annotations

from repro.perf.cache import (
    CACHE_SCHEMA_VERSION,
    DiskCacheFile,
    PassCostCache,
    PersistentPassCostCache,
    config_fingerprint,
    default_cache_dir,
    flush_disk_caches,
    global_baseline_cache,
    global_decode_table_cache,
    global_pass_cache,
    install_disk_caches,
    resolve_pass_cache,
    set_global_baseline_cache,
    set_global_decode_table_cache,
    set_global_pass_cache,
)
from repro.perf.runner import (
    ExperimentTiming,
    RunManyResult,
    TimingReport,
    run_many,
    write_report,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DiskCacheFile",
    "PassCostCache",
    "PersistentPassCostCache",
    "config_fingerprint",
    "default_cache_dir",
    "flush_disk_caches",
    "global_baseline_cache",
    "global_decode_table_cache",
    "global_pass_cache",
    "install_disk_caches",
    "resolve_pass_cache",
    "set_global_baseline_cache",
    "set_global_decode_table_cache",
    "set_global_pass_cache",
    "ExperimentTiming",
    "TimingReport",
    "RunManyResult",
    "run_many",
    "write_report",
]
