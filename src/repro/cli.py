"""Command-line interface for the IANUS reproduction.

Three sub-commands cover the common workflows without writing any Python:

``python -m repro simulate``
    Simulate one inference request on a chosen backend and print the latency,
    per-stage breakdown and energy (optionally with an ASCII Gantt chart of
    one decoder block).

``python -m repro experiment``
    Run one or more of the registered paper experiments (``fig08``,
    ``table1``, ...) and print the regenerated rows next to the paper's
    claims.

``python -m repro serve``
    Simulate request-level serving: a seeded Poisson trace of concurrent
    requests against one backend under a scheduling policy (FCFS,
    interleaved continuous batching, SRPT, or priority classes), with
    paged-KV admission control against the backend's memory capacity and
    optional chunked prefill.  ``--replicas N`` serves the trace on a
    cluster of N identical replicas behind a request router
    (``--router``); ``--admission optimistic`` (or its shorthand
    ``--preempt``) commits only prompt pages and grows on demand with
    preempt-and-recompute.  ``--prefix-share`` makes a fraction of the
    trace share a common prompt prefix whose KV pages are reference-
    counted across requests, and ``--swap`` preempts to host DRAM over a
    modeled PCIe link (``--link-gbps``) instead of discarding and
    recomputing.  Reports TTFT / TPOT / latency percentiles /
    tokens/s / utilization / KV-pool peak / preemption counts / SLO
    attainment plus pass-cost cache statistics.  ``--validate`` replays
    the event log(s) through the scheduling-invariant checker (with exact
    page-ledger replay) and exits nonzero on any violation.

    Production-ops knobs: ``--trace-curve`` modulates the Poisson arrival
    rate with a named non-stationary curve (``diurnal``, ``flash-crowd``,
    ``step``), ``--failures`` injects a seeded replica-failure schedule
    (``single``, ``seeded``) with failover to the surviving replicas, and
    ``--autoscaler`` turns on a causal scaling policy (``queue-depth``,
    ``slo-attainment``, ``kv-pressure``) that pays a modeled warm-up per
    spawned replica.  All three take ``name:key=value,key=value`` specs,
    e.g. ``--failures single:at-s=2,recover-after-s=5``; ``--failures`` or
    ``--autoscaler`` routes through the cluster simulator even with
    ``--replicas 1``.

``python -m repro list``
    List the available models, backends, experiments, sweep grids (with
    cell counts), serving trace generators, trace curves, failure
    schedules and autoscalers.

``python -m repro bench``
    Run experiments through the parallel runner (``--jobs N`` shards sweep
    *cells* across the pool), print per-experiment wall-clock timings, cell
    counts and pass-cost / baseline cache statistics, and optionally dump a
    machine-readable ``BENCH_*.json`` timing report (``--json PATH``) for
    diffing performance across PRs.

``bench`` and ``experiment`` persist the pass-cost cache to disk between
invocations (``--cache-dir PATH`` overrides the location, ``--no-disk-cache``
opts out), so repeated runs start warm.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.trace import render_gantt
from repro.core.costmodel import ALL_BACKEND_NAMES
from repro.core.costmodel import BACKEND_NAMES as BACKENDS
from repro.core.costmodel import make_cost_model as _make_backend
from repro.models import ALL_MODELS, Workload, get_model
from repro.serving.cluster import ROUTERS as SERVING_ROUTERS
from repro.serving.simulator import ADMISSION_MODES
from repro.serving.simulator import POLICIES as SERVING_POLICIES

__all__ = ["main", "build_parser"]


def _coerce_spec_value(value: str):
    """``key=value`` values: int if it parses, else float, else the string
    (``none`` maps to None so ``recover-after-s=none`` works)."""
    if value.lower() in ("none", "null"):
        return None
    for parse in (int, float):
        try:
            return parse(value)
        except ValueError:
            continue
    return value


def _parse_spec(kind: str, text: str) -> "tuple[str, dict]":
    """Parse a ``name:key=value,key=value`` CLI spec.

    Keys are kebab-case on the command line and mapped to the Python
    keyword (``recover-after-s`` -> ``recover_after_s``).  Malformed specs
    raise ValueError; unknown names and unknown keys are left to the
    registry factories, which already raise with the known spellings.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(
            f"bad {kind} spec {text!r}: expected name[:key=value,...]"
        )
    kwargs: dict = {}
    if rest.strip():
        for part in rest.split(","):
            key, equals, value = part.partition("=")
            key = key.strip()
            if not equals or not key:
                raise ValueError(
                    f"bad {kind} spec {text!r}: expected name[:key=value,...] "
                    f"but got segment {part.strip()!r}"
                )
            kwargs[key.replace("-", "_")] = _coerce_spec_value(value.strip())
    return name, kwargs


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """Persistent-cache flags shared by ``experiment`` and ``bench``."""
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="directory of the persistent pass-cost cache "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="do not load or persist the on-disk pass-cost cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IANUS (ASPLOS 2024) reproduction - simulator and experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="simulate one inference request on one backend"
    )
    simulate.add_argument("--model", default="gpt2-xl", help="model name (see `repro list`)")
    simulate.add_argument("--backend", default="ianus",
                          help="backend name, e.g. ianus, a100, ianus-x4 "
                               "(see `repro list`)")
    simulate.add_argument("--input-tokens", type=int, default=128)
    simulate.add_argument("--output-tokens", type=int, default=64)
    simulate.add_argument("--devices", type=int, default=1,
                          help="number of IANUS devices (simulator backends only)")
    simulate.add_argument("--mode", choices=("fast", "exact"), default="fast")
    simulate.add_argument("--gantt", action="store_true",
                          help="print an ASCII Gantt chart of one block of the "
                               "last pass priced (simulator backends only)")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one or more paper tables/figures"
    )
    experiment.add_argument("ids", nargs="+", help="experiment identifiers, e.g. fig08")
    experiment.add_argument("--full", action="store_true",
                            help="run the slower, more exhaustive variants")
    _add_cache_flags(experiment)

    bench = subparsers.add_parser(
        "bench", help="time experiment regeneration (optionally in parallel)"
    )
    bench.add_argument("ids", nargs="*",
                       help="experiment identifiers (default: all registered)")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process; >1 shards sweep "
                            "cells across the pool)")
    bench.add_argument("--full", action="store_true",
                       help="run the slower, more exhaustive variants")
    bench.add_argument("--json", metavar="PATH", default=None,
                       help="write a BENCH_*.json-compatible timing report")
    bench.add_argument("--show-tables", action="store_true",
                       help="also print every regenerated table")
    _add_cache_flags(bench)

    serve = subparsers.add_parser(
        "serve", help="simulate request-level serving of a trace on one backend"
    )
    serve.add_argument("--model", default="gpt2-xl", help="model name (see `repro list`)")
    serve.add_argument("--models", metavar="NAME[,NAME,...]", default=None,
                       help="co-hosted model set served from one replica's "
                            "memory; --model must be a member (it stays the "
                            "default for requests that name no model). "
                            "Arrivals draw a model uniformly from the set, "
                            "and changing the active model prices a weight "
                            "swap over the host link")
    serve.add_argument("--backend", default="ianus",
                       help="per-replica backend name, e.g. ianus, a100, "
                            "ianus-x4 (see `repro list`)")
    serve.add_argument("--devices", type=int, default=1,
                       help="number of IANUS devices (simulator backends only)")
    serve.add_argument("--replicas", type=int, default=1,
                       help="number of identical replicas behind the router "
                            "(default 1 = single device, no routing)")
    serve.add_argument("--router", choices=tuple(SERVING_ROUTERS),
                       default="round-robin",
                       help="request router for --replicas > 1")
    serve.add_argument("--admission", choices=ADMISSION_MODES, default=None,
                       help="KV admission: commit worst-case pages up front "
                            "(default) or grow optimistically with "
                            "preemption")
    serve.add_argument("--preempt", action="store_true",
                       help="shorthand for --admission optimistic (on-demand "
                            "KV growth with preempt-and-recompute)")
    serve.add_argument("--no-preempt", action="store_true",
                       help="with optimistic admission, stall instead of "
                            "preempting when the KV pool is exhausted")
    serve.add_argument("--policy", choices=tuple(SERVING_POLICIES),
                       default="interleaved")
    serve.add_argument("--trace", default="gpt2-paper",
                       help="trace generator name (see `repro list`)")
    serve.add_argument("--trace-curve", metavar="SPEC", default=None,
                       help="non-stationary arrival-rate curve as "
                            "name:key=value,... — e.g. "
                            "diurnal:period-s=60,amplitude=0.6 "
                            "(see `repro list` for curves)")
    serve.add_argument("--failures", metavar="SPEC", default=None,
                       help="replica-failure schedule as name:key=value,... "
                            "— e.g. single:at-s=2,recover-after-s=5 or "
                            "seeded:mtbf-s=20 (forces the cluster path; "
                            "see `repro list` for schedules)")
    serve.add_argument("--autoscaler", metavar="SPEC", default=None,
                       help="causal scaling policy as name:key=value,... "
                            "— e.g. queue-depth:high=4,max-replicas=6 "
                            "(forces the cluster path; see `repro list` "
                            "for autoscalers)")
    serve.add_argument("--requests", type=int, default=32,
                       help="number of requests in the trace")
    serve.add_argument("--prefix-share", type=float, default=0.0,
                       metavar="FRACTION",
                       help="fraction of requests sharing a common prompt "
                            "prefix whose KV pages are reference-counted "
                            "across requests (default 0 = no sharing)")
    serve.add_argument("--prefix-tokens", type=int, default=None,
                       help="length of each shared prefix in tokens "
                            "(default: the trace generator's mean prompt)")
    serve.add_argument("--prefix-groups", type=int, default=1,
                       help="number of distinct shared prefixes sharing "
                            "requests are spread over (default 1)")
    serve.add_argument("--swap", action="store_true",
                       help="preempt by swapping cold KV pages to host DRAM "
                            "over a modeled PCIe link instead of discarding "
                            "and recomputing (implies --admission optimistic)")
    serve.add_argument("--link-gbps", type=float, default=16.0,
                       help="host link bandwidth in Gbit/s for --swap "
                            "transfers (default 16)")
    serve.add_argument("--seed", type=int, default=0, help="trace seed")
    serve.add_argument("--classes", type=int, default=1,
                       help="priority classes assigned uniformly by the "
                            "trace generator (default 1 = single class)")
    serve.add_argument("--tenant-slo", metavar="SHARE0[,SHARE1,...]",
                       default=None,
                       help="per-class admission shares for tenant isolation "
                            "(fractions of --max-batch reserved per priority "
                            "class, e.g. 0.5,0.25); requires --policy "
                            "priority")
    serve.add_argument("--slo", metavar="S0[,S1,...]", default=None,
                       help="comma-separated per-class latency SLO targets "
                            "in seconds (enables SLO-attainment metrics)")
    rate_group = serve.add_mutually_exclusive_group()
    rate_group.add_argument("--rate", type=float, default=None,
                            help="Poisson arrival rate in requests/s")
    rate_group.add_argument("--load", type=float, default=0.5,
                            help="offered load as a fraction of the backend's "
                                 "nominal capacity (default 0.5)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="decode-batch cap of the interleaved policy")
    serve.add_argument("--exact", action="store_true",
                       help="price every decode KV length exactly instead of "
                            "interpolating over sampled anchors")
    serve.add_argument("--batch-share", type=float, default=1.0,
                       help="fraction of the decode cost floor shared across "
                            "a fused batch (default 1.0)")
    serve.add_argument("--kv-fraction", type=float, default=1.0,
                       help="fraction of the backend's weight-free memory "
                            "granted to the paged-KV pool (default 1.0)")
    serve.add_argument("--page-tokens", type=int, default=16,
                       help="tokens per KV page (default 16)")
    serve.add_argument("--chunk-tokens", type=int, default=0,
                       help="prefill chunk size in tokens; chunks piggyback "
                            "decode tokens (default 0 = whole-prompt prefill)")
    serve.add_argument("--engine", default="object",
                       help="simulation engine: 'object' (reference, "
                            "per-iteration) or 'array' (vectorized megatrace "
                            "core; same metrics, much faster)")
    serve.add_argument("--profile", action="store_true",
                       help="print per-phase wall time (trace generation, "
                            "admit, prefill, decode, metrics; absorb on the "
                            "array engine, route on clusters)")
    serve.add_argument("--validate", action="store_true",
                       help="replay the event log through the scheduling-"
                            "invariant checker; exit nonzero on violation")
    serve.add_argument("--per-request", action="store_true",
                       help="also print one line per completed request")
    serve.add_argument("--json", metavar="PATH", default=None,
                       help="write the serving metrics as JSON")
    _add_cache_flags(serve)

    subparsers.add_parser(
        "list",
        help="list models, backends, experiments, sweeps and trace generators",
    )
    return parser


def _run_simulate(args: argparse.Namespace) -> int:
    try:
        model = get_model(args.model)
        workload = Workload(args.input_tokens, args.output_tokens)
        backend = _make_backend(args.backend, args.devices)
    except (KeyError, ValueError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.gantt and not hasattr(backend, "block_timeline"):
        print(f"--gantt needs a simulator backend (ianus, npu-mem, partitioned "
              f"or their -xN spellings); {args.backend!r} is an analytical "
              f"model with no command schedule", file=sys.stderr)
        return 2
    result = backend.run(model, workload, mode=args.mode)

    print(f"backend      : {result.backend}")
    print(f"model        : {model.describe()}")
    print(f"workload     : {workload.label()}")
    print(f"total        : {result.total_latency_ms:.2f} ms")
    print(f"summarization: {result.summarization.latency_ms:.2f} ms")
    print(f"generation   : {result.generation.latency_ms:.2f} ms "
          f"({result.generation.latency_per_token_ms:.3f} ms/token)")
    print(f"energy       : {result.energy.total_mj:.1f} mJ")
    print("breakdown    :")
    for tag, seconds in sorted(result.breakdown.items(), key=lambda item: -item[1]):
        print(f"  {tag:<26} {seconds * 1e3:10.2f} ms")

    if args.gantt:
        # The last pass the run priced: its final generation pass, or the
        # summarization pass when it has none (one output token, or an
        # encoder model, which never generates).
        passes = list(workload.stages())
        stage_pass = passes[-1] if model.is_decoder else passes[0]
        timeline = backend.block_timeline(model, stage_pass)
        print()
        print(f"One block of the last pass priced: {stage_pass.stage.value} "
              f"stage, KV length {stage_pass.kv_length} (representative core):")
        print(render_gantt(timeline))
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS, run_experiment
    from repro.perf import flush_disk_caches, install_disk_caches

    unknown = [identifier for identifier in args.ids if identifier not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        print(f"known experiments: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    if not args.no_disk_cache:
        install_disk_caches(args.cache_dir)
    try:
        for identifier in args.ids:
            result = run_experiment(identifier, fast=not args.full)
            print("=" * 80)
            print(result.to_text())
            print()
    finally:
        if not args.no_disk_cache:
            flush_disk_caches()
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS
    from repro.perf import run_many, write_report

    ids = args.ids or list(EXPERIMENTS)
    unknown = [identifier for identifier in ids if identifier not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        print(f"known experiments: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2

    outcome = run_many(
        ids,
        fast=not args.full,
        jobs=args.jobs,
        disk_cache=not args.no_disk_cache,
        cache_dir=args.cache_dir,
    )
    print(outcome.report.to_text())
    print(outcome.report.cache_summary())

    if args.show_tables:
        for identifier in ids:
            result = outcome.results.get(identifier)
            if result is not None:
                print("=" * 80)
                print(result.to_text())
                print()

    if args.json:
        try:
            path = write_report(outcome.report, args.json)
        except OSError as error:
            print(f"cannot write timing report to {args.json}: {error}", file=sys.stderr)
            return 1
        print(f"timing report written to {path}")

    return 0 if all(t.ok for t in outcome.report.timings) else 1


def _run_serve(args: argparse.Namespace) -> int:
    import json

    from time import perf_counter

    from repro.perf import flush_disk_caches, install_disk_caches
    from repro.serving import (
        ENGINES,
        ClusterSimulator,
        ServingSimulator,
        check_invariants,
        get_trace_generator,
        make_autoscaler,
        make_failure_schedule,
        make_trace_curve,
        mean_service_time_s,
    )

    try:
        model = get_model(args.model)
    except KeyError:
        print(f"unknown model {args.model!r}; see `repro list`", file=sys.stderr)
        return 2
    model_set = None
    if args.models is not None:
        names = [part.strip() for part in args.models.split(",") if part.strip()]
        if not names:
            print("--models must name at least one model", file=sys.stderr)
            return 2
        unknown = sorted(set(names) - set(ALL_MODELS))
        if unknown:
            print(
                f"unknown model(s) in --models: {', '.join(unknown)}; "
                f"known models: {', '.join(sorted(ALL_MODELS))}",
                file=sys.stderr,
            )
            return 2
        if len(set(names)) != len(names):
            print("--models lists a model more than once", file=sys.stderr)
            return 2
        if args.model not in names:
            print(
                f"--model {args.model!r} must be a member of the --models "
                f"set ({', '.join(names)})",
                file=sys.stderr,
            )
            return 2
        model_set = tuple(get_model(name) for name in names)
    tenant_shares = None
    if args.tenant_slo is not None:
        if args.policy != "priority":
            print("--tenant-slo reserves admission slots per priority class; "
                  "it requires --policy priority", file=sys.stderr)
            return 2
        try:
            tenant_shares = tuple(
                float(part) for part in args.tenant_slo.split(",")
            )
        except ValueError:
            tenant_shares = ()
        if not tenant_shares:
            print("--tenant-slo must be comma-separated fractions in [0, 1]",
                  file=sys.stderr)
            return 2
    if args.requests < 1:
        print("--requests must be at least 1", file=sys.stderr)
        return 2
    if args.replicas < 1:
        print("--replicas must be at least 1", file=sys.stderr)
        return 2
    # ``not 0 < x < inf`` also rejects NaN, which fails every comparison.
    if args.rate is not None and not 0.0 < args.rate < float("inf"):
        print("--rate must be positive and finite", file=sys.stderr)
        return 2
    if args.rate is None and not 0.0 < args.load < float("inf"):
        print("--load must be positive and finite", file=sys.stderr)
        return 2
    if args.max_batch < 1:
        print("--max-batch must be at least 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.batch_share <= 1.0:
        print("--batch-share must be in [0, 1]", file=sys.stderr)
        return 2
    if not 0.0 < args.kv_fraction <= 1.0:
        print("--kv-fraction must be in (0, 1]", file=sys.stderr)
        return 2
    if args.page_tokens < 1:
        print("--page-tokens must be at least 1", file=sys.stderr)
        return 2
    if args.chunk_tokens < 0:
        print("--chunk-tokens must be non-negative", file=sys.stderr)
        return 2
    if not 0.0 <= args.prefix_share <= 1.0:
        print("--prefix-share must be in [0, 1]", file=sys.stderr)
        return 2
    if args.prefix_tokens is not None and args.prefix_tokens < 1:
        print("--prefix-tokens must be at least 1", file=sys.stderr)
        return 2
    if args.prefix_groups < 1:
        print("--prefix-groups must be at least 1", file=sys.stderr)
        return 2
    if not 0.0 < args.link_gbps < float("inf"):
        # Catches nan (every comparison false) and +/-inf as well as <= 0.
        print("--link-gbps must be a positive finite bandwidth in Gbit/s",
              file=sys.stderr)
        return 2
    if args.classes < 1:
        print("--classes must be at least 1", file=sys.stderr)
        return 2
    if args.engine not in ENGINES:
        print(
            f"unknown engine {args.engine!r}; known engines: "
            + ", ".join(ENGINES),
            file=sys.stderr,
        )
        return 2
    slo_targets = None
    if args.slo is not None:
        # Parse only: the simulator validates the targets themselves.
        try:
            slo_targets = tuple(float(part) for part in args.slo.split(","))
        except ValueError:
            print("--slo must be comma-separated seconds", file=sys.stderr)
            return 2
    try:
        generator = get_trace_generator(args.trace)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    curve = failures = autoscaler = None
    try:
        if args.trace_curve is not None:
            name, kwargs = _parse_spec("trace curve", args.trace_curve)
            curve = make_trace_curve(name, **kwargs)
        if args.failures is not None:
            name, kwargs = _parse_spec("failure schedule", args.failures)
            failures = make_failure_schedule(name, **kwargs)
        if args.autoscaler is not None:
            name, kwargs = _parse_spec("autoscaler", args.autoscaler)
            autoscaler = make_autoscaler(name, **kwargs)
    except (TypeError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.preempt and args.admission == "worst-case":
        print("--preempt implies optimistic admission; it contradicts "
              "--admission worst-case", file=sys.stderr)
        return 2
    if args.preempt and args.no_preempt:
        print("--preempt and --no-preempt contradict each other",
              file=sys.stderr)
        return 2
    if args.swap and args.admission == "worst-case":
        print("--swap needs optimistic admission (worst-case never "
              "oversubscribes, so there is nothing to swap); it "
              "contradicts --admission worst-case", file=sys.stderr)
        return 2
    admission = args.admission or (
        "optimistic" if (args.preempt or args.swap) else "worst-case"
    )
    if not args.no_disk_cache:
        install_disk_caches(args.cache_dir)
    try:
        try:
            backend = _make_backend(args.backend, args.devices)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        if args.rate is not None:
            rate_rps = args.rate
        else:
            service_s = mean_service_time_s(
                backend, model, generator.workloads, exact=args.exact
            )
            rate_rps = args.replicas * args.load / service_s
            print(f"nominal capacity : {args.replicas / service_s:.3f} requests/s "
                  f"({args.replicas} replica(s)) "
                  f"-> load {args.load} = {rate_rps:.3f} requests/s")
        if tenant_shares is not None:
            from repro.serving import make_policy

            try:
                policy = make_policy(
                    "priority", max_batch=args.max_batch,
                    class_shares=tenant_shares,
                )
            except ValueError as error:
                print(f"--tenant-slo: {error}", file=sys.stderr)
                return 2
        else:
            policy = args.policy
        simulator_kwargs = dict(
            policy=policy,
            max_batch=args.max_batch,
            exact=args.exact,
            batch_share=args.batch_share,
            kv_fraction=args.kv_fraction,
            page_tokens=args.page_tokens,
            chunk_tokens=args.chunk_tokens,
            slo_targets=slo_targets,
            admission=admission,
            preempt=not args.no_preempt,
            swap=args.swap,
            link_gbps=args.link_gbps,
            engine=args.engine,
            models=model_set,
            num_classes=args.classes,
        )
        cluster = None
        # Failure injection and autoscaling live in the cluster simulator,
        # so either flag routes through it even for a single replica.
        use_cluster = (
            args.replicas > 1 or failures is not None or autoscaler is not None
        )
        try:
            trace_start = perf_counter()
            trace = generator.generate(
                args.requests, rate_rps, seed=args.seed,
                num_classes=args.classes, curve=curve,
                prefix_share=args.prefix_share,
                prefix_tokens=args.prefix_tokens,
                prefix_groups=args.prefix_groups,
                model_mix=(
                    [(member.name, 1.0) for member in model_set]
                    if model_set is not None
                    else None
                ),
            )
            trace_gen_s = perf_counter() - trace_start
            if use_cluster:
                cluster = ClusterSimulator(
                    backend, model,
                    num_replicas=args.replicas,
                    router=args.router,
                    failures=failures,
                    autoscaler=autoscaler,
                    profile=args.profile,
                    **simulator_kwargs,
                )
                metrics = cluster.simulate(trace, record_events=True)
            else:
                simulator = ServingSimulator(
                    backend, model, profile=args.profile, **simulator_kwargs
                )
                metrics = simulator.simulate(trace, record_events=args.validate)
        except ValueError as error:  # e.g. bad prefix, encoder trace, model too large
            print(str(error), file=sys.stderr)
            return 2
    finally:
        if not args.no_disk_cache:
            flush_disk_caches()

    curve_note = f", curve {curve.describe()}" if curve is not None else ""
    print(f"trace           : {args.trace} x{args.requests} @ "
          f"{rate_rps:.3f} req/s (seed {args.seed}{curve_note})")
    print(metrics.summary())
    if args.profile:
        if cluster is not None:
            phases = cluster.pooled_phase_s()
            scope = f"{args.engine}, pooled x{metrics.num_replicas}"
        else:
            phases = simulator.last_run.phase_s
            scope = args.engine
        names = [
            name
            for name in ("route", "admit", "absorb", "prefill", "decode", "metrics")
            if name in phases
        ]
        breakdown = " | ".join(f"{name} {phases[name]:.3f}s" for name in names)
        total = trace_gen_s + sum(phases.values())
        print(f"profile [{scope}] : trace-gen {trace_gen_s:.3f}s | "
              f"{breakdown} | total {total:.3f}s")
    stats = backend.cache_stats()
    if stats:
        print(f"pass-cost cache : {stats.get('hits', 0)} hits / "
              f"{stats.get('misses', 0)} misses "
              f"({stats.get('hit_rate', 0.0):.0%} hit rate)")
    violations: list[str] = []
    if args.validate:
        if cluster is not None:
            violations = cluster.validate_invariants()
            checked = sum(len(events) for events in cluster.events)
        else:
            violations = check_invariants(
                simulator.events, trace,
                page_tokens=args.page_tokens, admission=admission,
                default_model=model.name,
            )
            checked = len(simulator.events)
        if violations:
            print(f"INVARIANT VIOLATIONS ({len(violations)}):", file=sys.stderr)
            for violation in violations:
                print(f"  - {violation}", file=sys.stderr)
        else:
            print(f"invariants      : OK ({checked} events checked)")
    if args.per_request:
        print()
        print(f"{'id':>4} {'arrival':>9} {'TTFT':>9} {'latency':>9} {'TPOT':>8}  (in,out)")
        for req in metrics.per_request:
            print(f"{req.request_id:>4} {req.arrival_s:>8.3f}s {req.ttft_s:>8.3f}s "
                  f"{req.latency_s:>8.3f}s {req.tpot_s * 1e3:>6.2f}ms  "
                  f"({req.input_tokens},{req.output_tokens})")
    if args.json:
        try:
            with open(args.json, "w") as handle:
                json.dump(metrics.to_dict(), handle, indent=2)
                handle.write("\n")
        except OSError as error:
            print(f"cannot write serving metrics to {args.json}: {error}",
                  file=sys.stderr)
            return 1
        print(f"serving metrics written to {args.json}")
    # Violations exit nonzero, but only after the metrics report (and any
    # --json file a CI script wants for diagnosis) has been emitted.
    return 1 if violations else 0


def _run_list() -> int:
    from repro.experiments.registry import EXPERIMENTS, SWEEPS, get_sweep
    from repro.serving import (
        AUTOSCALERS,
        FAILURE_SCHEDULES,
        TRACE_CURVES,
        TRACES,
    )

    print("models:")
    for key, model in ALL_MODELS.items():
        print(f"  {key:<12} {model.describe()}")
    print()
    print("backends:")
    for backend in ALL_BACKEND_NAMES:
        note = " (multi-device)" if backend not in BACKENDS else ""
        print(f"  {backend}{note}")
    print("  (<simulator backend>-xN works for any device count N)")
    print()
    print("routers (`repro serve --replicas N --router`):")
    for router in SERVING_ROUTERS:
        print(f"  {router}")
    print()
    print("experiments:")
    for identifier, (description, _) in EXPERIMENTS.items():
        print(f"  {identifier:<26} {description}")
    print()
    print("sweeps (shardable under `repro bench --jobs N`):")
    for identifier in SWEEPS:
        fast_cells = len(get_sweep(identifier, fast=True).cells)
        full_cells = len(get_sweep(identifier, fast=False).cells)
        cells = (
            f"{fast_cells} cells"
            if fast_cells == full_cells
            else f"{fast_cells} cells ({full_cells} with --full)"
        )
        print(f"  {identifier:<26} {cells}")
    print()
    print("serving traces (`repro serve --trace`):")
    for name, generator in TRACES.items():
        print(f"  {name:<26} {generator.describe()}")
    print()
    print("trace curves (`repro serve --trace-curve NAME[:key=value,...]`):")
    for name, curve_cls in TRACE_CURVES.items():
        print(f"  {name:<26} {curve_cls().describe()}")
    print()
    print("failure schedules (`repro serve --failures NAME[:key=value,...]`):")
    for name, schedule_cls in FAILURE_SCHEDULES.items():
        print(f"  {name:<26} {schedule_cls().describe()}")
    print()
    print("autoscalers (`repro serve --autoscaler NAME[:key=value,...]`):")
    for name in AUTOSCALERS:
        print(f"  {name}")
    print()
    print("serving engines (`repro serve --engine`) x feature support:")
    rows = [
        ("feature", "object", "array"),
        ("registered policies", "yes", "yes"),
        ("custom Policy subclass", "yes", "no (object engine only)"),
        ("exact pricing (--exact)", "yes", "yes (per-iteration, no macro steps)"),
        ("cluster (--replicas/--router)", "yes", "yes"),
        ("failure injection (--failures)", "yes", "yes"),
        ("autoscaling (--autoscaler)", "yes", "yes"),
        ("event log (--validate)", "yes", "yes (disables macro/batched fast paths)"),
        ("prefix sharing (--prefix-share)", "yes", "yes (per-iteration, fast paths stand down)"),
        ("host-DRAM swap (--swap)", "yes", "yes (per-iteration, fast paths stand down)"),
        ("co-hosted model set (--models)", "yes", "yes (per-iteration, fast paths stand down)"),
        ("tenant shares (--tenant-slo)", "yes", "yes"),
        (
            "arrival-batched underload path", "no",
            "yes (events off, no --chunk-tokens, no sharing/swap, no --models)",
        ),
        ("phase profile (--profile)", "yes", "yes"),
    ]
    width = max(len(row[0]) for row in rows)
    for feature, object_support, array_support in rows:
        print(f"  {feature:<{width}}  {object_support:<8} {array_support}")
    print("  (unsupported combinations fall back or raise with the reason; "
          "the array engine matches the object engine bit-for-bit with "
          "events recorded, 1e-9 pooled on its fast paths)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "list":
        return _run_list()
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
