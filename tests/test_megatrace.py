"""Tests for the megatrace serving core (PR 7).

Pins the vectorized array engine to the reference object engine
(bit-identical event logs, per-request and pooled metrics on every path:
simulated time and energy are integers, so the prefix-sum decode runs and
the arrival absorber add up to what stepping does), the streaming trace
iterator to ``generate()``
(byte-identical arrivals for every curve, seed and chunk size), the
dense decode-cost table to ``PassCostProvider.decode`` (bit for bit),
and the CLI/cluster/experiment surfaces of the ``engine`` knob.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter

import pytest

from repro.cli import main
from repro.core.costmodel import make_cost_model
from repro.models import GPT2_CONFIGS
from repro.perf import cache
from repro.serving import (
    ENGINES,
    ClusterSimulator,
    DecodeCostTable,
    ServingPolicy,
    ServingSimulator,
    build_decode_table,
    decode_kv_bounds,
    get_trace_generator,
    mean_service_time_s,
)
from repro.serving import decode_table
from repro.serving import simulator as simulator_module
from repro.serving.decode_table import table_matches_provider
from repro.serving.request import CompletionRecord
from repro.serving.simulator import _percentile_sorted, cost_tuple, request_aggregates
from repro.serving.trace import TRACE_CURVES
from repro.serving.validate import check_invariants, expand_runs

from test_decode_runs import FLEET_MODELS, _fleet

MODEL = GPT2_CONFIGS["m"]

POOLED_FIELDS = (
    "num_requests", "makespan_s", "busy_s", "utilization", "output_tokens",
    "tokens_per_s", "requests_per_s", "latency_mean_s", "latency_p50_s",
    "latency_p99_s", "ttft_mean_s", "ttft_p50_s", "ttft_p99_s",
    "tpot_mean_s", "energy_j", "flops", "prefill_passes", "decode_passes",
    "mean_decode_batch", "admissions", "peak_active", "preemptions",
    "recomputed_tokens", "kv_peak_pages", "slo_attainment",
)


def _simulate(engine, trace, record_events, detail=True, **kwargs):
    simulator = ServingSimulator(
        make_cost_model("ianus"), MODEL, engine=engine,
        per_request_detail=detail, **kwargs,
    )
    metrics = simulator.simulate(trace, record_events=record_events)
    return metrics, simulator.events


def _assert_pooled_close(reference, candidate):
    """Every pooled field equal, with ``==``, whichever path ran."""
    for field in POOLED_FIELDS:
        expected = getattr(reference, field)
        actual = getattr(candidate, field)
        assert expected == actual, f"{field}: {expected!r} != {actual!r}"


class TestEngineSelection:
    def test_registry(self):
        assert ENGINES == ("object", "array")

    def test_unknown_engine_lists_known(self):
        with pytest.raises(ValueError, match="unknown engine 'warp'"):
            ServingSimulator(make_cost_model("ianus"), MODEL, engine="warp")
        with pytest.raises(ValueError, match="object"):
            ServingSimulator(make_cost_model("ianus"), MODEL, engine="warp")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_custom_policy_runs_and_matches_the_policy_it_copies(self, engine):
        """A policy outside the registry runs the per-iteration loop under
        either engine value, replays clean, and serves exactly as the
        registered policy it copies (whose fast paths run on the array
        engine: expanded, its log is the copy's)."""

        class ShortestFirst(ServingPolicy):
            """``srpt``, written against the public hooks."""

            name = "shortest-first"
            arrival_order = False

            def __init__(self, max_batch):
                self.max_batch = max_batch

            def admit_index(self, waiting, keys):
                totals = [keys.queued_total(entry) for entry in waiting]
                return totals.index(min(totals))

            def prefill_index(self, prefilling, keys):
                remaining = [keys.live_remaining(entry) for entry in prefilling]
                return remaining.index(min(remaining))

            def decode_batch(self, decodable, keys):
                return sorted(decodable, key=keys.live_remaining)[: self.max_batch]

        trace = get_trace_generator("chatbot").generate(48, 20.0, seed=5)
        kwargs = dict(admission="optimistic", kv_fraction=0.02)
        runs = {}
        for policy in (ShortestFirst(4), "srpt"):
            simulator = ServingSimulator(
                make_cost_model("ianus"), MODEL, policy=policy, max_batch=4,
                engine=engine, **kwargs,
            )
            metrics = simulator.simulate(trace, record_events=True)
            assert simulator.validate_invariants() == []
            runs[simulator.policy.name] = (metrics.to_dict(), simulator.events)
        copy, copy_log = runs["shortest-first"]
        registered, registered_log = runs["srpt"]
        assert copy["preemptions"] > 0
        assert copy.pop("policy") == "shortest-first"
        assert registered.pop("policy") == "srpt"
        assert copy == registered
        assert not any(event.kind == "decode_run" for event in copy_log)
        assert expand_runs(registered_log) == copy_log
        if engine == "array":
            assert any(event.kind == "decode_run" for event in registered_log)

    def test_default_engine_is_array(self):
        simulator = ServingSimulator(make_cost_model("ianus"), MODEL)
        assert simulator.engine == "array"


class TestStreamingTraces:
    """generate_stream is generate() chunked — byte-identical arrivals."""

    @pytest.mark.parametrize("curve", [None, *sorted(TRACE_CURVES)])
    def test_every_curve_matches_generate(self, curve):
        generator = get_trace_generator("chatbot")
        full = generator.generate(96, 7.0, seed=5, num_classes=3, curve=curve)
        streamed = [
            request
            for chunk in generator.generate_stream(
                96, 7.0, seed=5, num_classes=3, curve=curve, chunk_requests=17
            )
            for request in chunk
        ]
        assert tuple(streamed) == full

    @pytest.mark.parametrize("chunk_requests", [1, 7, 1000])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_chunk_size_never_changes_draws(self, chunk_requests, seed):
        for name in ("chatbot", "summarize"):
            generator = get_trace_generator(name)
            full = generator.generate(40, 4.0, seed=seed, num_classes=2)
            chunks = list(generator.generate_stream(
                40, 4.0, seed=seed, num_classes=2,
                chunk_requests=chunk_requests,
            ))
            assert all(len(chunk) <= chunk_requests for chunk in chunks)
            assert tuple(request for chunk in chunks for request in chunk) == full

    def test_stream_validates_like_generate(self):
        generator = get_trace_generator("chatbot")
        with pytest.raises(ValueError):
            list(generator.generate_stream(4, 0.0))
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rate_rps"):
                generator.generate_stream(4, rate)
            with pytest.raises(ValueError, match="rate_rps"):
                generator.generate(4, rate)
        with pytest.raises(ValueError):
            list(generator.generate_stream(8, 1.0, chunk_requests=0))
        # Checked before the generator is returned, not at first next().
        for kwargs, name in [
            ({"prefix_share": float("nan")}, "prefix_share"),
            ({"prefix_share": 1.5}, "prefix_share"),
            ({"start_s": float("nan")}, "start_s"),
            ({"start_s": float("inf")}, "start_s"),
            ({"start_s": -1.0}, "start_s"),
            # Lower bounds hold with or without sharing.
            ({"prefix_tokens": 0}, "prefix_tokens"),
            ({"prefix_groups": 0}, "prefix_groups"),
            ({"prefix_share": 0.5, "prefix_tokens": -1}, "prefix_tokens"),
        ]:
            with pytest.raises(ValueError, match=name):
                generator.generate_stream(4, 1.0, **kwargs)
            with pytest.raises(ValueError, match=name):
                generator.generate(4, 1.0, curve="diurnal", **kwargs)
        # The upper bound (the mix's shortest prompt) binds only a sharing
        # trace, since nothing else uses the prefix length.
        assert generator.generate(4, 1.0, prefix_tokens=100_000) == (
            generator.generate(4, 1.0)
        )
        with pytest.raises(ValueError, match="prefix_tokens must be in"):
            generator.generate(4, 1.0, prefix_share=0.5, prefix_tokens=100_000)

    def test_simulate_stream_equals_simulate(self):
        generator = get_trace_generator("chatbot")
        trace = generator.generate(64, 8.0, seed=2)
        bounds = decode_kv_bounds(generator.workloads)
        expected, _ = _simulate("array", trace, False)
        simulator = ServingSimulator(
            make_cost_model("ianus"), MODEL, engine="array"
        )
        streamed = simulator.simulate_stream(
            generator.generate_stream(64, 8.0, seed=2, chunk_requests=9),
            kv_bounds=bounds,
        )
        assert streamed.num_requests == expected.num_requests
        _assert_pooled_close(expected, streamed)


class TestDecodeTable:
    def test_bit_exact_against_provider(self):
        simulator = ServingSimulator(make_cost_model("ianus"), MODEL)
        table = build_decode_table(simulator.provider, 1, 600)
        assert isinstance(table, DecodeCostTable)
        assert (table.kv_hi - table.kv_lo + 1) == 600
        for kv in itertools.chain(range(1, 40), (128, 256, 555, 600)):
            cost = simulator.provider.decode(kv, (1, 600))
            index = kv - table.kv_lo
            assert (
                table.latency[index],
                table.energy_memory[index],
                table.energy_pim[index],
                table.energy_npu[index],
                table.flops[index],
            ) == cost_tuple(cost)
            assert table.columns[index].tolist() == list(cost_tuple(cost))
        assert table_matches_provider(table, simulator.provider)

    def test_tables_are_memoized_per_range(self):
        provider = ServingSimulator(make_cost_model("ianus"), MODEL).provider
        first = provider.decode_table(1, 300)
        assert provider.decode_table(1, 300) is first
        other = provider.decode_table(1, 400)
        assert other is not first
        assert (other.kv_lo, other.kv_hi) == (1, 400)
        assert provider.decode_table(1, 300) is first

    def test_exact_run_holds_no_table(self):
        simulator = ServingSimulator(
            make_cost_model("ianus"), MODEL, engine="array", exact=True
        )
        run = simulator.begin(kv_bounds=(1, 64))
        assert run.kv_bounds is None
        assert run._table is None

    def test_runs_of_one_simulator_share_one_table(self):
        # Every form of a table is built once; a run installs it by
        # reference and converts nothing.
        simulator = ServingSimulator(make_cost_model("ianus"), MODEL, engine="array")
        first, second = (simulator.begin(kv_bounds=(1, 300)) for _ in range(2))
        assert first._table is second._table
        assert first._table.columns is second._table.columns
        table = first._table
        assert isinstance(table.latency, tuple)
        # The matrix holds the very floats of the column tuples.
        assert table.columns.T.tolist() == [
            list(column) for column in (
                table.latency, table.energy_memory, table.energy_pim,
                table.energy_npu, table.flops,
            )
        ]
        assert not first._table.columns.flags.writeable
        assert not first._table.prefix_matrix.flags.writeable

    def test_fleet_builds_one_table_per_model(self, monkeypatch):
        # Three co-hosted models, failures and spawned replicas: each
        # model's table is built once, and every replica and weight swap
        # prices from that one object.
        builds = Counter()
        build = decode_table.build_decode_table

        def counted(provider, kv_lo, kv_hi):
            builds[provider.model.name] += 1
            return build(provider, kv_lo, kv_hi)

        monkeypatch.setattr(decode_table, "build_decode_table", counted)
        monkeypatch.setattr(
            cache, "_GLOBAL_DECODE_TABLE_CACHE", cache.PassCostCache(maxsize=64)
        )
        cluster, trace = _fleet()
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.scale_ups > 0 and metrics.model_swaps > 0
        assert builds == Counter(model.name for model in FLEET_MODELS)
        runs = cluster._last_runs
        assert len(runs) == 3 + metrics.scale_ups
        for model in FLEET_MODELS:
            tables = [run._tables[model.name] for run in runs]
            assert all(table is tables[0] for table in tables)
            assert all(table.columns is tables[0].columns for table in tables)

    def test_prefix_sums_cover_columns(self):
        simulator = ServingSimulator(make_cost_model("ianus"), MODEL)
        table = simulator.provider.decode_table(1, 200)
        prefix_lat = table.prefix_latency
        assert prefix_lat[0] == 0
        assert len(prefix_lat) == (table.kv_hi - table.kv_lo + 1) + 1
        span = prefix_lat[(table.kv_hi - table.kv_lo + 1)] - prefix_lat[0]
        assert span == sum(table.latency)
        assert table.prefix_matrix[:, 0].tolist() == list(prefix_lat)
        # One prefix of the three energies together.
        energies = (table.energy_memory, table.energy_pim, table.energy_npu)
        assert table.prefix_energy[-1] == sum(map(sum, energies))
        assert table.prefix_matrix[:, 1:4].sum(axis=1).tolist() == list(
            table.prefix_energy
        )


class TestArrayEngineDifferential:
    """The tentpole contract: array == object, across the config lattice."""

    CASES = list(itertools.product(
        ["chatbot", "gpt2-paper", "skewed"],
        ["fcfs", "interleaved", "srpt", "priority"],
        ["worst-case", "optimistic"],
        [0, 64],
    ))

    @pytest.mark.parametrize(
        "trace_name,policy,admission,chunk_tokens", CASES
    )
    def test_event_log_and_requests_bit_identical(
        self, trace_name, policy, admission, chunk_tokens
    ):
        seed = len(trace_name) + chunk_tokens
        trace = get_trace_generator(trace_name).generate(
            48, 6.0, seed=seed,
            num_classes=3 if policy == "priority" else 1,
        )
        kwargs = dict(
            policy=policy, admission=admission, chunk_tokens=chunk_tokens,
            slo_targets=(0.5, 2.0, 8.0) if policy == "priority" else None,
        )
        object_metrics, object_events = _simulate(
            "object", trace, True, **kwargs
        )
        array_metrics, array_events = _simulate("array", trace, True, **kwargs)
        # The array log aggregates its decode runs; expanded, it is the
        # object engine's per-iteration log.
        assert any(event.kind == "decode_run" for event in array_events)
        assert object_events == expand_runs(array_events)
        assert object_metrics.per_request == array_metrics.per_request
        for field in POOLED_FIELDS:
            assert getattr(object_metrics, field) == getattr(
                array_metrics, field
            ), field

    @pytest.mark.parametrize("trace_name,policy", [
        ("chatbot", "interleaved"),
        ("summarize", "fcfs"),
        ("skewed", "srpt"),
        ("dfx-paper", "priority"),
    ])
    def test_fast_paths_pool_exactly(self, trace_name, policy):
        trace = get_trace_generator(trace_name).generate(
            60, 9.0, seed=11, num_classes=3 if policy == "priority" else 1,
        )
        kwargs = dict(
            policy=policy,
            slo_targets=(0.5, 2.0, 8.0) if policy == "priority" else None,
        )
        reference, _ = _simulate("object", trace, True, **kwargs)
        fast, _ = _simulate("array", trace, False, **kwargs)
        _assert_pooled_close(reference, fast)
        assert fast.per_request == reference.per_request
        pooled_only, _ = _simulate("array", trace, False, detail=False, **kwargs)
        assert pooled_only.per_request == ()
        _assert_pooled_close(reference, pooled_only)

    def test_tight_kv_budget_with_preemption(self):
        trace = get_trace_generator("chatbot").generate(40, 8.0, seed=4)
        kwargs = dict(admission="optimistic", kv_fraction=0.02)
        object_metrics, object_events = _simulate(
            "object", trace, True, **kwargs
        )
        array_metrics, array_events = _simulate("array", trace, True, **kwargs)
        assert any(event.kind == "decode_run" for event in array_events)
        assert object_events == expand_runs(array_events)
        assert object_metrics.per_request == array_metrics.per_request
        assert array_metrics.preemptions == object_metrics.preemptions

    def test_array_event_log_replays_clean(self):
        """The invariant checker accepts an array-engine event log as-is."""
        trace = get_trace_generator("chatbot").generate(48, 8.0, seed=6)
        simulator = ServingSimulator(
            make_cost_model("ianus"), MODEL, engine="array",
            admission="optimistic", kv_fraction=0.05,
        )
        simulator.simulate(trace, record_events=True)
        violations = check_invariants(
            simulator.events, trace,
            page_tokens=simulator.page_tokens, admission="optimistic",
        )
        assert violations == []

    def test_error_parity_on_oversized_request(self):
        trace = get_trace_generator("summarize").generate(8, 2.0, seed=0)
        failures = {}
        for engine in ENGINES:
            with pytest.raises(ValueError) as info:
                _simulate(engine, trace, False, kv_fraction=0.001)
            failures[engine] = str(info.value)
        assert failures["object"] == failures["array"]

    def test_cluster_without_detail_returns_no_rows(self):
        trace = get_trace_generator("chatbot").generate(40, 10.0, seed=9)
        results = {}
        for detail in (True, False):
            cluster = ClusterSimulator(
                make_cost_model("ianus"), MODEL, num_replicas=2,
                engine="array", per_request_detail=detail,
            )
            results[detail] = cluster.simulate(trace, record_events=False)
        assert len(results[True].per_request) == 40
        assert results[False].per_request == ()
        assert results[True].to_dict(include_requests=False) == results[
            False
        ].to_dict(include_requests=False)

    def test_cluster_replicas_run_array_engine(self):
        trace = get_trace_generator("chatbot").generate(40, 10.0, seed=9)
        results = {}
        for engine in ENGINES:
            cluster = ClusterSimulator(
                make_cost_model("ianus"), MODEL, num_replicas=2,
                router="round-robin", engine=engine,
            )
            results[engine] = cluster.simulate(trace, record_events=True)
            assert cluster.validate_invariants() == []
        assert (
            results["object"].per_request == results["array"].per_request
        )
        for field in ("num_requests", "makespan_s", "tokens_per_s",
                      "latency_p99_s", "ttft_p99_s", "energy_j"):
            assert getattr(results["object"], field) == getattr(
                results["array"], field
            ), field


class TestPercentileSortOnce:
    def test_percentile_does_not_require_presorted_input(self):
        # Completed requests arrive in request-id order, not latency order.
        latencies = [5, 1, 4, 2, 3]
        completed = CompletionRecord()
        for i, latency in enumerate(latencies):
            completed.append(
                i, 0, latency * 10**12 // 2, latency * 10**12, 16, 4, 0, ""
            )
        aggregates = request_aggregates(completed, None, MODEL.name, False)
        assert aggregates["latency_p50_s"] == 3.0
        assert aggregates["latency_p99_s"] == pytest.approx(4.96)
        assert aggregates["ttft_p50_s"] == 1.5
        # Sort-once micro-assert: the record's columns are left untouched.
        assert list(completed.completion) == [
            latency * 10**12 for latency in latencies
        ]

    def test_rows_carry_the_aggregates_durations(self):
        # Each latency lands exactly on its class's SLO target.  At a
        # day-scale arrival the float difference of the two converted
        # instants falls short of the 30.123456789 ms measured, and numpy
        # converts a latency past 2**53 ps to a larger float than the
        # correctly rounded one; either would flip a verdict.
        arrival = 86_399_123_456_789_123
        short, long = 30_123_456_789, 2**53 + 11
        completed = CompletionRecord()
        completed.append(0, arrival, arrival + 10**9, arrival + short, 16, 4, 0, "")
        completed.append(1, 0, 10**9, long, 16, 4, 1, "")
        targets = (short / 10**12, long / 10**12)
        aggregates = request_aggregates(completed, targets, MODEL.name, False)
        rows = completed.rows(targets)
        assert [row.latency_s for row in rows] == list(targets)
        assert [row.slo_met for row in rows] == [True, True]
        assert aggregates["slo_attainment"] == 1.0
        latencies = sorted(row.latency_s for row in rows)
        ttfts = sorted(row.ttft_s for row in rows)
        assert aggregates["latency_p99_s"] == _percentile_sorted(latencies, 99)
        assert aggregates["ttft_p50_s"] == _percentile_sorted(ttfts, 50)
        assert aggregates["tpot_mean_s"] == math.fsum(row.tpot_s for row in rows) / 2

    def test_finalize_percentiles_match_manual(self):
        trace = get_trace_generator("chatbot").generate(32, 6.0, seed=1)
        metrics, _ = _simulate("object", trace, False)
        latencies = [request.latency_s for request in metrics.per_request]
        assert metrics.latency_p50_s == _percentile_sorted(sorted(latencies), 50)
        assert metrics.latency_p99_s == _percentile_sorted(sorted(latencies), 99)


class TestServeCliEngine:
    ARGS = ["serve", "--requests", "24", "--rate", "8", "--trace", "chatbot",
            "--no-disk-cache"]

    def test_unknown_engine_exits_2_listing_known(self, capsys):
        code = main([*self.ARGS, "--engine", "warp"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'warp'" in err
        assert "object" in err and "array" in err

    def test_array_engine_serves_and_validates(self, capsys):
        code = main([*self.ARGS, "--engine", "array", "--validate"])
        assert code == 0
        assert "invariants      : OK" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ENGINES)
    def test_profile_prints_phase_breakdown(self, engine, capsys):
        code = main([*self.ARGS, "--engine", engine, "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"profile [{engine}]" in out
        for phase in ("trace-gen", "admit", "absorb", "prefill", "decode",
                      "metrics"):
            assert f"{phase} " in out

    @pytest.mark.parametrize("engine", ENGINES)
    def test_profile_covers_cluster_runs(self, engine, capsys):
        code = main([*self.ARGS, "--engine", engine, "--profile",
                     "--replicas", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"profile [{engine}, pooled x2]" in out
        for phase in ("trace-gen", "route", "admit", "absorb", "prefill",
                      "decode", "metrics"):
            assert f"{phase} " in out

    def test_engines_agree_from_the_cli(self, capsys):
        def report(engine):
            main([*self.ARGS, "--engine", engine])
            return [
                line for line in capsys.readouterr().out.splitlines()
                # The pass-cost cache warms across invocations; its
                # hit/miss line is process state, not a metric.
                if not line.startswith("pass-cost cache")
            ]

        # Identical metric reports, line for line.
        assert report("object") == report("array")


class TestExperimentEngineKnob:
    def test_serving_cell_matches_the_reference_engine(self, monkeypatch):
        from repro.experiments import serving_throughput

        params = dict(
            backend="ianus", policy="interleaved", chunk_tokens=0,
            kv_fraction=1.0, load=0.6, num_requests=16, seed=0,
        )
        fast = serving_throughput._run_cell(dict(params))
        # The cells run the default engine; the same cell on the
        # per-iteration reference reports the same metrics.
        monkeypatch.setattr(
            simulator_module, "ServingSimulator",
            functools.partial(ServingSimulator, engine="object"),
        )
        reference = serving_throughput._run_cell(dict(params))
        assert fast["violations"] == reference["violations"] == 0
        assert fast["metrics"] == reference["metrics"]


class TestPhaseProfiler:
    """``profile=True`` only times phases, from outside the loops: the
    simulated output stays the unprofiled run's, byte for byte."""

    BASE_PHASES = {"admit", "prefill", "decode", "metrics"}
    #: Every run books the same phases; ``absorb`` stays 0 with the fast
    #: paths off.
    PHASES = BASE_PHASES | {"absorb"}

    def _trace(self):
        return get_trace_generator("chatbot").generate(32, 8.0, seed=4)

    @pytest.mark.parametrize("record_events", [False, True])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_replica_output_unchanged(self, engine, record_events):
        trace = self._trace()
        outputs = {}
        for profile in (False, True):
            simulator = ServingSimulator(
                make_cost_model("ianus"), MODEL, engine=engine,
                profile=profile,
            )
            metrics = simulator.simulate(trace, record_events=record_events)
            outputs[profile] = (
                json.dumps(metrics.to_dict(), sort_keys=True),
                repr(simulator.events),
            )
            phases = simulator.last_run.phase_s
            if not profile:
                assert phases == {}
        assert outputs[True] == outputs[False]
        assert set(phases) == self.PHASES
        # Without an event log the array engine absorbs this underloaded
        # trace in closed form; with one it steps every pass.
        absorbed = engine == "array" and not record_events
        for phase in {"absorb", "metrics"} if absorbed else self.BASE_PHASES:
            assert phases[phase] > 0.0

    def test_phases_sum_to_at_most_the_wall_time(self, monkeypatch):
        # The burst runner steps from inside _absorb_arrivals; each phase
        # books only its self time, so no second is counted twice.  The
        # clock ticks once per read, so the sums are exact.
        ticks = itertools.count()
        monkeypatch.setattr(
            simulator_module, "perf_counter", lambda: float(next(ticks))
        )
        backend = make_cost_model("ianus")
        generator = get_trace_generator("chatbot")
        rate = 0.9 / mean_service_time_s(backend, MODEL, generator.workloads)
        simulator = ServingSimulator(backend, MODEL, engine="array", profile=True)
        start = next(ticks)
        simulator.simulate(generator.generate(200, rate, seed=3))
        wall = next(ticks) - start
        phases = simulator.last_run.phase_s
        assert phases["absorb"] > 0 and phases["prefill"] > 0
        assert sum(phases.values()) <= wall

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cluster_output_unchanged_and_route_booked(self, engine):
        trace = self._trace()
        outputs = {}
        for profile in (False, True):
            cluster = ClusterSimulator(
                make_cost_model("ianus"), MODEL, num_replicas=2,
                engine=engine, profile=profile,
            )
            metrics = cluster.simulate(trace, record_events=True)
            outputs[profile] = (
                json.dumps(metrics.to_dict(), sort_keys=True),
                repr(cluster.events),
            )
            phases = cluster.pooled_phase_s()
            if not profile:
                assert phases == {"route": 0.0}
        assert outputs[True] == outputs[False]
        assert set(phases) == self.PHASES | {"route"}
        for phase in self.BASE_PHASES | {"route"}:
            assert phases[phase] > 0.0
