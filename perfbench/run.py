"""Canonical benchmark of the IANUS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload serve-kv --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload, both tables

Each sample is a fresh single-threaded interpreter (``worker.py``) with a
private, empty cache directory and the on-disk pass cache not installed,
so no sample reads a cache left by an earlier one.  The driver launches
samples back to back for ``--seconds`` (at least three untraced, or one
untraced and one traced with ``--trace 1``) and reports medians.  Setup
and wall times are rescaled to a reference host speed measured by a fixed
loop after every operation (see ``worker.reference_kernel``), so slow
spells of a shared host cancel.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics of the
traced ones, the tracing overhead (traced minus untraced ``wall_s``) and
the check that both simulated the same thing (equal digests).  The human
report comes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from worker import REFERENCE_S  # noqa: E402
from workloads import SIM_STATS, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SCHEMA = "perfbench-1"
#: Samples the medians need at the least, whatever ``--seconds`` says.
MIN_UNTRACED = 3
MIN_TRACED_PAIRS = 1
#: A sample that takes longer than this is killed and counted as failed.
SAMPLE_TIMEOUT_S = 100.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("passes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    counted = {"compiler", "scheduling", "core.pass_cost", "serving.kv_memory",
               "serving.cluster.route", "serving.autoscale"}
    for layer in spans.layer_names():
        if layer in counted:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units[spans.TRACE_REQUESTS] = "count"
    units[spans.DECODE_TABLE_BUILDS] = "count"
    units[spans.VALIDATE_EVENTS] = "count"
    units["perf.pass_cache.hit_rate"] = "ratio"
    units["perf.decode_table_cache.hit_rate"] = "ratio"
    units["unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    for stat in SIM_STATS:
        units[f"sim.{stat}"] = "count"
    return units


# ----------------------------------------------------------------------
def provenance(name: str, seed: int, inputs: dict) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "schema": SCHEMA,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": name,
        "seed": seed,
        "input_size": WORKLOADS[name].size(inputs),
    }


def launch(work: Path, index: int, name: str, inputs: dict, traced: bool) -> dict:
    """Run one sample in a fresh interpreter and return its measurements."""
    spec_path = work / f"spec-{index}.json"
    result_path = work / f"result-{index}.json"
    spec_path.write_text(json.dumps({"workload": name, "inputs": inputs,
                                     "trace": traced}))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
        # Fixed hash seed: set iteration order cannot change float sums
        # between samples, so every sample's digest must agree.
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(work / f"cache-{index}"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [sys.executable, str(HERE / "worker.py"), str(spec_path),
               str(result_path)]
    launched = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": f"timed out after {SAMPLE_TIMEOUT_S} s",
                "duration_s": time.monotonic() - launched}
    duration = time.monotonic() - launched
    if done.returncode != 0 or not result_path.exists():
        return {"traced": traced, "duration_s": duration,
                "crashed": f"exit {done.returncode}: {done.stderr[-2000:]}"}
    sample = json.loads(result_path.read_text())
    sample.update(traced=traced, duration_s=duration,
                  setup_s=sample["first_call_monotonic"] - launched)
    return sample


def collect(name: str, inputs: dict, seconds: float, trace: bool, work: Path) -> list:
    """Launch samples back to back until ``seconds`` have been measured."""
    deadline = time.monotonic() + seconds
    samples: list[dict] = []
    need = MIN_TRACED_PAIRS if trace else MIN_UNTRACED
    while True:
        traced = trace and len(samples) % 2 == 1
        sample = launch(work, len(samples), name, inputs, traced)
        samples.append(sample)
        if "crashed" in sample:
            break
        if trace and not traced:
            continue  # a traced run always follows its untraced twin
        untraced = sum(1 for s in samples if not s["traced"])
        # Stop once another sample (or pair) would run past the deadline.
        step = sum(s["duration_s"] for s in samples[-2 if trace else -1:])
        if untraced >= need and time.monotonic() + step > deadline:
            break
    return samples


def _usable(samples: list, traced: bool) -> list:
    return [s for s in samples
            if s["traced"] == traced and "crashed" not in s and s["sim"] is not None]


def timed_wall(samples: list, rescale: bool = False) -> float:
    """Seconds of the timed work: each operation's median over the samples,
    summed, so a burst of host noise during one operation of one sample
    does not move the figure.  With ``rescale`` each operation's host
    seconds are first converted to the reference speed measured right
    after it."""
    per_op = zip(*(
        [wall * REFERENCE_S / ref for wall, ref in zip(s["op_wall_s"], s["reference_s"])]
        if rescale else s["op_wall_s"]
        for s in samples
    ))
    return sum(statistics.median(walls) for walls in per_op)


def speed_factor(samples: list) -> float:
    """Reference-speed seconds per host second during these samples."""
    measured = statistics.median(t for s in samples for t in s["reference_s"])
    return REFERENCE_S / measured


def end_to_end(samples: list) -> dict:
    """The end-to-end metrics; times are rescaled to the reference speed."""
    untraced = _usable(samples, traced=False)
    if not untraced:
        return {}
    wall = timed_wall(untraced, rescale=True)
    values = {
        "setup_s": statistics.median(
            s["setup_s"] * REFERENCE_S / statistics.median(s["reference_s"])
            for s in untraced
        ),
        "wall_s": wall,
        "sim_req_per_s": statistics.median(s["requests"] for s in untraced) / wall,
        "passes_per_s": statistics.median(s["passes"] for s in untraced) / wall,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(samples: list) -> dict:
    traced = _usable(samples, traced=True)
    untraced = _usable(samples, traced=False)
    if not traced or not untraced:
        return {}
    rows: dict[str, list] = {}
    for sample in traced:
        taken = sample["spans"]
        row = {}
        for layer, calls in taken["calls"].items():
            row[f"{layer}.calls"] = calls
        for layer, seconds in taken["self_s"].items():
            row[f"{layer}.self_s"] = seconds
        row.update(taken["counts"])
        row.update(sample["hit_rates"])
        row["unattributed_s"] = sum(sample["op_wall_s"]) - taken["timed_root_s"]
        for stat, value in sample["sim"].items():
            row[f"sim.{stat}"] = value
        for metric, value in row.items():
            rows.setdefault(metric, []).append(value)
    rows["trace.overhead_s"] = [
        timed_wall(traced, rescale=True) - timed_wall(untraced, rescale=True)
    ]
    return {
        metric: {"value": statistics.median(rows[metric]), "unit": unit}
        for metric, unit in per_layer_units().items()
    }


def verdict(samples: list) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, problems) over every sample."""
    attempted = failed = 0
    problems = []
    for index, sample in enumerate(samples):
        if "crashed" in sample:
            attempted += 1
            failed += 1
            problems.append(f"sample {index}: {sample['crashed']}")
            continue
        attempted += sample["attempted"]
        failed += sample["failed"]
        problems.extend(f"sample {index}: {error}" for error in sample["errors"])
    digests = {s.get("digest") for s in samples if "crashed" not in s}
    if len(digests) > 1:
        problems.append(f"samples simulated differently: digests {sorted(map(str, digests))}")
    return failed == 0 and not problems, attempted, failed, problems


# ----------------------------------------------------------------------
def report(name, seed, seconds, trace, inputs, samples, metrics_e2e, metrics_layer,
           problems) -> None:
    untraced = [s for s in samples if not s["traced"] and "crashed" not in s]
    traced = [s for s in samples if s["traced"] and "crashed" not in s]
    print(f"== perfbench {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print("provenance: " + json.dumps(provenance(name, seed, inputs), sort_keys=True))
    print("inputs: " + json.dumps(inputs, sort_keys=True))
    if samples and "cache_at_start" in samples[0]:
        print("cache at start of sample 0: "
              + json.dumps(samples[0]["cache_at_start"], sort_keys=True))
    digests = sorted({str(s.get("digest")) for s in untraced + traced})
    print(f"samples: {len(untraced)} untraced, {len(traced)} traced; "
          f"simulated digest {', '.join(digests)}")
    usable = _usable(samples, traced=False)
    if usable:
        print(f"host seconds: wall {timed_wall(usable):.6g}, setup "
              f"{statistics.median(s['setup_s'] for s in usable):.6g}; reference "
              f"kernel {statistics.median(t for s in usable for t in s['reference_s']):.6g} s "
              f"(nominal {REFERENCE_S:g} s, speed factor {speed_factor(usable):.4f})")
    for title, count, metrics in (("end-to-end", len(untraced), metrics_e2e),
                                  ("per-layer", len(traced), metrics_layer)):
        if metrics:
            kind = "untraced" if title == "end-to-end" else "traced"
            print(f"{title} (median of {count} {kind} samples):")
            for metric, entry in metrics.items():
                print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    for problem in problems:
        print(f"FAILED: {problem}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = WORKLOADS[name].inputs(seed)
    work = ROOT / ".perfbench-work" / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        samples = collect(name, inputs, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    correct, attempted, failed, problems = verdict(samples)
    metrics_e2e = end_to_end(samples)
    metrics_layer = per_layer(samples) if trace else {}
    report(name, seed, seconds, trace, inputs, samples, metrics_e2e,
           metrics_layer, problems)
    expected = per_layer_units() if trace else dict(END_TO_END)
    metrics = metrics_layer if trace else metrics_e2e
    if set(metrics) != set(expected):
        correct = False
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}:{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
