"""One benchmark sample: a fresh interpreter that sets up, times, checks.

Usage (``run.py`` launches it)::

    python3 perfbench/worker.py SPEC.json RESULT.json

``SPEC.json`` holds ``{"workload", "inputs", "trace"}``.  The worker sets
the workload up, times each of its operations in turn, then checks every
outcome, and writes to ``RESULT.json``: the monotonic instant of the first
timed call (the driver subtracts its launch instant to get ``setup_s``),
the wall seconds of each operation, the reference-kernel times taken
after each operation, peak resident memory, the output checks, the
simulated-statistics digest and, when traced, the per-layer spans.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

from workloads import SIM_STATS, WORKLOADS, pass_cache_misses

#: Seconds one :func:`reference_kernel` call takes at the reference host
#: speed (its median on a quiet 2-vCPU Xeon virtual machine, Python 3.11).
REFERENCE_S = 0.0055


def reference_kernel() -> float:
    """Best of three timings of a fixed piece of interpreter work.

    Shared virtual machines slow down by tens of percent for minutes at a
    time.  The driver divides the run's median of these timings into
    :data:`REFERENCE_S` to rescale host seconds to the reference speed, so
    such swings cancel between runs while a change to the simulator does
    not.  The work mixes a tight arithmetic loop with allocating, indexing
    and sorting ~20k small objects, like the simulator's own mix of array
    loops and object-heavy compilation.  The collector is paused meanwhile:
    a collection would scan the workload's heap and tie the time to the
    simulator's memory.
    """
    best = math.inf
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            table: dict = {}
            total = 0.0
            for i in range(4_000):
                key = i % 257
                table[key] = table.get(key, 0) + i
                total += math.sqrt(i)
            nodes = [(i, i * 0.5, f"k{i % 509}") for i in range(6_000)]
            groups: dict = {}
            for node in nodes:
                groups.setdefault(node[2], []).append(node)
            nodes.sort(key=lambda node: (node[1] % 7.0, node[0]))
            total += sum(len(group) for group in groups.values())
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def _cache_state() -> dict:
    """Which caches this process prices through, and how warm they are."""
    from repro.perf import cache

    directory = os.environ.get("REPRO_CACHE_DIR", "")
    return {
        "disk_cache_installed": isinstance(
            cache.global_pass_cache(), cache.PersistentPassCostCache
        ),
        "cache_dir": directory,
        "cache_dir_empty": not (
            directory and os.path.isdir(directory) and os.listdir(directory)
        ),
        "pass_cache_entries": len(cache.global_pass_cache()),
        "decode_table_cache_entries": len(cache.global_decode_table_cache()),
    }


def _hit_rates() -> dict:
    from repro.perf import cache

    return {
        "perf.pass_cache.hit_rate": cache.global_pass_cache().stats()["hit_rate"],
        "perf.decode_table_cache.hit_rate":
            cache.global_decode_table_cache().stats()["hit_rate"],
    }


def _combine(stats: list) -> dict:
    """Run-level simulated statistics from the per-operation ones."""
    total = {name: sum(s[name] for s in stats) for name in SIM_STATS}
    passes = total["decode_passes"]
    weighted = sum(s["mean_decode_batch"] * s["decode_passes"] for s in stats)
    total["mean_decode_batch"] = weighted / passes if passes else 0.0
    total["kv_peak_pages"] = max((s["kv_peak_pages"] for s in stats), default=0)
    return total


def digest(payload) -> str:
    """Stable hash of the deterministic simulated statistics."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as handle:
        spec = json.load(handle)
    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    cold = _cache_state()
    state = workload.setup(spec["inputs"])
    root_s = tracer.root_s if tracer is not None else 0.0
    first_call = time.monotonic()
    op_walls, outcomes, reference = [], [], []
    for op in range(len(spec["inputs"]["ops"])):
        start = time.perf_counter()
        try:
            outcomes.append(workload.run(state, op))
        except Exception:  # noqa: BLE001 - a raising operation has failed
            outcomes.append(traceback.format_exc(limit=8))
        op_walls.append(time.perf_counter() - start)
        reference.append(reference_kernel())
    result = {
        "first_call_monotonic": first_call,
        "op_wall_s": op_walls,
        "reference_s": reference,
        "cache_at_start": cold,
        "hit_rates": _hit_rates(),
    }
    passes_priced = pass_cache_misses()
    if tracer is not None:
        result["spans"] = tracer.snapshot()
        result["spans"]["timed_root_s"] = tracer.root_s - root_s
    checked = []
    for op, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            checked.append({"attempted": 1, "failed": 1, "errors": [outcome],
                            "requests": 0, "passes": 0, "sim": None, "payload": None})
        else:
            checked.append(workload.check(state, op, outcome))
    sim = None
    if all(c["sim"] is not None for c in checked):
        sim = _combine([c["sim"] for c in checked])
        sim["passes_priced"] = passes_priced
    result.update(
        attempted=sum(c["attempted"] for c in checked),
        failed=sum(c["failed"] for c in checked),
        errors=[error for c in checked for error in c["errors"]],
        requests=sum(c["requests"] for c in checked),
        passes=sum(c["passes"] for c in checked),
        sim=sim,
        digest=digest({"sim": sim, "ops": [c["payload"] for c in checked]}),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
