"""Tests for the request-level serving subsystem (:mod:`repro.serving`).

Covers trace-generator determinism (same seed → identical trace; rate
sweeps rescale one normalized arrival pattern), the simulator's exactness
for a one-request trace against ``IanusSystem.run``, metric/scheduling
invariants of both policies, the fused-decode batching cost model, and the
``serving`` experiment's cell determinism and fast grid.  Its claims are
pinned by ``test_experiments.py`` and its sharded run by ``test_sweep.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.core.costmodel import make_cost_model
from repro.core.system import IanusSystem
from repro.energy.model import EnergyBreakdown
from repro.models import BERT_CONFIGS, GPT2_CONFIGS, Workload
from repro.serving import (
    Request,
    ServingSimulator,
    TRACES,
    get_trace_generator,
    make_policy,
    mean_service_time_s,
    percentile,
)
from repro.serving.request import RequestMetrics
from repro.serving.simulator import cost_tuple, fused_pass

MODEL = GPT2_CONFIGS["m"]


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request(0, -1.0, 128, 8)
        # NaN fails every comparison; it used to slip through and stall
        # the object engine's event loop.
        for arrival_s in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="arrival_s"):
                Request(0, arrival_s, 128, 8)
        with pytest.raises(ValueError):
            Request(0, 0.0, 0, 8)
        with pytest.raises(ValueError):
            Request(0, 0.0, 128, 0)

    def test_workload_roundtrip(self):
        request = Request(3, 1.5, 128, 64)
        assert request.workload() == Workload(128, 64)
        assert request.num_generation_passes == 63
        assert request.total_tokens == 192

    def test_metrics_derivations(self):
        metrics = RequestMetrics(
            request_id=0, arrival_s=1.0, first_token_s=1.5,
            completion_s=3.5, input_tokens=128, output_tokens=5,
        )
        assert metrics.ttft_s == pytest.approx(0.5)
        assert metrics.latency_s == pytest.approx(2.5)
        assert metrics.tpot_s == pytest.approx(0.5)
        single = RequestMetrics(0, 0.0, 0.25, 0.25, 128, 1)
        assert single.tpot_s == 0.0


class TestTraceGenerators:
    def test_registry_names_resolve(self):
        assert set(TRACES) == {
            "gpt2-paper", "dfx-paper", "chatbot", "summarize", "skewed"
        }
        for name, generator in TRACES.items():
            assert generator.name == name
            assert generator.max_total_tokens > 0
        with pytest.raises(KeyError, match="unknown trace generator"):
            get_trace_generator("nope")

    def test_same_seed_is_byte_identical(self):
        generator = get_trace_generator("gpt2-paper")
        first = generator.generate(32, 2.0, seed=7)
        second = generator.generate(32, 2.0, seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        generator = get_trace_generator("gpt2-paper")
        assert generator.generate(32, 2.0, seed=0) != generator.generate(32, 2.0, seed=1)

    def test_rate_rescales_one_normalized_pattern(self):
        generator = get_trace_generator("chatbot")
        slow = generator.generate(24, 1.0, seed=3)
        fast = generator.generate(24, 4.0, seed=3)
        for a, b in zip(slow, fast):
            # Same request shapes, arrivals compressed by exactly the ratio.
            assert (a.input_tokens, a.output_tokens) == (b.input_tokens, b.output_tokens)
            assert b.arrival_s == pytest.approx(a.arrival_s / 4.0, rel=1e-12)

    def test_arrivals_are_sorted_and_positive(self):
        trace = get_trace_generator("summarize").generate(16, 5.0, seed=0)
        arrivals = [request.arrival_s for request in trace]
        assert arrivals == sorted(arrivals)
        assert all(arrival > 0 for arrival in arrivals)

    def test_invalid_arguments_rejected(self):
        generator = get_trace_generator("chatbot")
        with pytest.raises(ValueError):
            generator.generate(-1, 1.0)
        with pytest.raises(ValueError):
            generator.generate(4, 0.0)


class TestPercentile:
    def test_basics(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([], 101)


class TestOneRequestExactness:
    """A one-request trace reproduces single-request ``run`` latency."""

    def test_generation_request_matches_exact_mode(self):
        system = IanusSystem(SystemConfig.ianus())
        reference = system.run(MODEL, Workload(128, 32), mode="exact").total_latency_s
        simulator = ServingSimulator(system, MODEL, policy="fcfs", exact=True)
        metrics = simulator.simulate([Request(0, 0.0, 128, 32)])
        assert metrics.latency_mean_s == pytest.approx(reference, rel=1e-12)
        assert metrics.per_request[0].latency_s == metrics.latency_mean_s
        assert metrics.output_tokens == 32

    def test_summarization_only_request_matches_exactly(self):
        system = IanusSystem(SystemConfig.ianus())
        reference = system.run(MODEL, Workload(256, 1), mode="exact").total_latency_s
        simulator = ServingSimulator(system, MODEL, policy="fcfs", exact=True)
        metrics = simulator.simulate([Request(0, 0.0, 256, 1)])
        assert metrics.latency_mean_s == reference

    def test_ttft_is_the_prefill_latency_for_an_idle_server(self):
        system = IanusSystem(SystemConfig.ianus())
        prefill = system.pass_cost(
            MODEL, Workload(128, 8).stages().__next__()
        ).latency_s
        metrics = ServingSimulator(system, MODEL, policy="fcfs", exact=True).simulate(
            [Request(0, 0.0, 128, 8)]
        )
        assert metrics.ttft_mean_s == pytest.approx(prefill, rel=1e-12)


class TestSimulatorInvariants:
    def _trace(self, rate=4.0, n=12, name="chatbot", seed=0):
        return get_trace_generator(name).generate(n, rate, seed=seed)

    def test_empty_trace_gives_zero_metrics(self):
        metrics = ServingSimulator(make_cost_model("ianus"), MODEL).simulate([])
        assert metrics.num_requests == 0
        assert metrics.makespan_s == 0.0
        assert metrics.tokens_per_s == 0.0

    @pytest.mark.parametrize("policy", ("fcfs", "interleaved"))
    def test_conservation_and_bounds(self, policy):
        trace = self._trace()
        metrics = ServingSimulator(
            make_cost_model("ianus"), MODEL, policy=policy
        ).simulate(trace)
        assert metrics.num_requests == len(trace)
        assert metrics.output_tokens == sum(r.output_tokens for r in trace)
        assert metrics.prefill_passes == len(trace)
        assert 0.0 < metrics.utilization <= 1.0
        assert metrics.busy_s <= metrics.makespan_s
        for request_metrics in metrics.per_request:
            assert request_metrics.arrival_s < request_metrics.first_token_s
            assert request_metrics.first_token_s <= request_metrics.completion_s
        assert metrics.latency_p99_s >= metrics.latency_p50_s >= 0.0

    def test_fcfs_completes_in_arrival_order(self):
        metrics = ServingSimulator(
            make_cost_model("ianus"), MODEL, policy="fcfs"
        ).simulate(self._trace())
        completions = [m.completion_s for m in metrics.per_request]
        assert completions == sorted(completions)

    def test_interleaved_improves_ttft_under_load(self):
        trace = self._trace(rate=8.0, n=16)
        fcfs = ServingSimulator(
            make_cost_model("ianus"), MODEL, policy="fcfs"
        ).simulate(trace)
        interleaved = ServingSimulator(
            make_cost_model("ianus"), MODEL, policy="interleaved"
        ).simulate(trace)
        assert interleaved.ttft_mean_s < fcfs.ttft_mean_s
        assert interleaved.mean_decode_batch > 1.0

    def test_simulation_is_deterministic(self):
        trace = self._trace()
        first = ServingSimulator(
            make_cost_model("ianus"), MODEL, policy="interleaved"
        ).simulate(trace)
        second = ServingSimulator(
            make_cost_model("ianus"), MODEL, policy="interleaved"
        ).simulate(trace)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_reused_simulator_matches_a_fresh_one(self):
        # prepare() must drop interpolated costs from the previous trace's
        # anchor grid, so a reused simulator is byte-identical to a fresh one.
        wide = get_trace_generator("gpt2-paper").generate(10, 4.0, seed=2)
        narrow = self._trace()
        reused = ServingSimulator(make_cost_model("a100"), MODEL, policy="interleaved")
        reused.simulate(wide)
        second = reused.simulate(narrow)
        fresh = ServingSimulator(
            make_cost_model("a100"), MODEL, policy="interleaved"
        ).simulate(narrow)
        assert json.dumps(second.to_dict()) == json.dumps(fresh.to_dict())

    def test_encoder_models_reject_generation_traces(self):
        bert = BERT_CONFIGS["base"]
        simulator = ServingSimulator(make_cost_model("ianus"), bert)
        with pytest.raises(ValueError, match="not a decoder"):
            simulator.simulate([Request(0, 0.0, 128, 8)])
        summary_only = simulator.simulate([Request(0, 0.0, 128, 1)])
        assert summary_only.num_requests == 1

    def test_policy_and_parameter_validation(self):
        # Unknown names raise with the full list of known policies.
        with pytest.raises(ValueError, match="fcfs, interleaved, srpt, priority"):
            make_policy("nope")
        # Kwargs a policy does not take raise instead of being dropped.
        with pytest.raises(ValueError, match="does not accept max_batch"):
            make_policy("fcfs", max_batch=4)
        with pytest.raises(ValueError, match="does not accept chunk"):
            make_policy("srpt", chunk=8)
        with pytest.raises(ValueError, match="max_batch"):
            make_policy("interleaved", max_batch=0)
        with pytest.raises(ValueError, match="batch_share"):
            ServingSimulator(make_cost_model("ianus"), MODEL, batch_share=1.5)
        with pytest.raises(ValueError, match="chunk_tokens"):
            ServingSimulator(make_cost_model("ianus"), MODEL, chunk_tokens=-1)
        with pytest.raises(ValueError, match="slo_targets"):
            ServingSimulator(make_cost_model("ianus"), MODEL, slo_targets=(0.0,))
        # FCFS ignores the cap, but the simulator still owns its range.
        with pytest.raises(ValueError, match="max_batch"):
            ServingSimulator(
                make_cost_model("ianus"), MODEL, policy="fcfs", max_batch=0
            )
        # An explicit budget overrides kv_fraction without excusing it, and
        # the error names the simulator's keyword, not the helper's.
        for budget in (None, 1 << 30):
            for fraction in (0.0, 1.5, float("nan")):
                with pytest.raises(ValueError, match=r"kv_fraction must be in \(0, 1\]"):
                    ServingSimulator(
                        make_cost_model("ianus"), MODEL,
                        kv_fraction=fraction, kv_budget=budget,
                    )

    def test_every_registered_policy_constructs(self):
        from repro.serving import POLICIES

        assert list(POLICIES) == ["fcfs", "interleaved", "srpt", "priority"]
        for name in POLICIES:
            assert make_policy(name).name == name
        # The batching policies accept the cap; the simulator forwards it
        # only to them (FCFS is unbatched by definition).
        for name in ("interleaved", "srpt", "priority"):
            assert make_policy(name, max_batch=3).max_batch == 3
        for name in POLICIES:
            simulator = ServingSimulator(
                make_cost_model("ianus"), MODEL, policy=name, max_batch=3
            )
            assert simulator.policy.name == name


class TestFusedDecodeCostModel:
    def _simulator(self, **kwargs):
        return ServingSimulator(make_cost_model("ianus"), MODEL, **kwargs)

    def _costs(self, simulator, kvs):
        simulator.provider.prepare(min(kvs), max(kvs))
        return [simulator.provider.decode(kv) for kv in kvs]

    def _fused_decode(self, simulator, costs):
        """(latency, energy, FLOPs) of a pure fused decode iteration,
        priced by the rule both engines share."""
        latency, mem_j, pim_j, npu_j, flops = fused_pass(
            None,
            [cost_tuple(cost) for cost in costs],
            simulator.batch_share,
            lambda: cost_tuple(simulator.provider.base()),
        )
        return latency, EnergyBreakdown(mem_j, pim_j, npu_j), flops

    def test_batch_of_one_is_exactly_the_single_pass(self):
        simulator = self._simulator()
        (cost,) = self._costs(simulator, [200])
        latency, energy, flops = self._fused_decode(simulator, [cost])
        assert latency == cost.latency_s
        assert energy == cost.energy
        assert flops == cost.flops

    def test_fused_batch_is_cheaper_than_serial_but_not_free(self):
        simulator = self._simulator()
        costs = self._costs(simulator, [150, 200, 250, 300])
        latency, _, flops = self._fused_decode(simulator, costs)
        serial = sum(cost.latency_s for cost in costs)
        slowest = max(cost.latency_s for cost in costs)
        assert slowest <= latency < serial
        assert flops == sum(cost.flops for cost in costs)  # math is not shared

    def test_share_zero_recovers_serial_decoding(self):
        simulator = self._simulator(batch_share=0.0)
        costs = self._costs(simulator, [150, 250])
        latency, _, _ = self._fused_decode(simulator, costs)
        assert latency == sum(cost.latency_s for cost in costs)

    def test_mean_service_time_matches_fcfs_run_to_completion(self):
        backend = make_cost_model("ianus")
        workloads = (Workload(128, 8),)
        service = mean_service_time_s(backend, MODEL, workloads, exact=True)
        metrics = ServingSimulator(backend, MODEL, policy="fcfs", exact=True).simulate(
            [Request(0, 0.0, 128, 8)]
        )
        assert service == pytest.approx(metrics.latency_mean_s, rel=1e-12)


class TestServingExperiment:
    def test_cells_are_byte_identical_across_evaluations(self):
        from repro.experiments.serving_throughput import sweep

        grid = sweep(fast=True)
        cell = grid.cells[3]
        first = grid.run_cell(cell.params)
        second = grid.run_cell(cell.params)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_fast_grid_has_one_clean_row_per_cell(self, experiment_result):
        # The claims are pinned by test_experiments.py; this pins the grid.
        result = experiment_result("serving")
        # One row per cell of the 2 backends x 2 loads x 4 policies x
        # 2 chunkings x 2 KV budgets grid.
        assert len(result.rows) == 64
        # The violation column is all zeros.
        violations = result.column("viol")
        assert set(violations) == {0}
