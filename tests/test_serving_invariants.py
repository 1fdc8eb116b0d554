"""Property-style invariant and metamorphic tests for the serving scheduler.

The serving simulator's contract is a set of invariants that must hold for
*every* (seed, trace, policy, chunking, KV budget) combination — not just
the configurations the experiments happen to sweep:

* no KV over-subscription at any event time;
* work conservation (the device never idles while an admitted request has
  a runnable pass);
* per-request token conservation (prefill chunks sum to the prompt length,
  decode steps to ``output_tokens - 1``);
* every request of the trace completes exactly once.

This suite replays recorded event logs through
:func:`repro.serving.validate.check_invariants` over a randomized grid of
combinations (a fast synthetic cost model keeps it cheap), proves the
checker itself catches violations by tampering with sound logs, pins the
chunked-prefill no-op case against ``IanusSystem.run(mode="exact")``, and
checks the cross-policy metamorphic relations (SRPT vs FCFS, chunked vs
monolithic prefill, priority classes under overload) on the real IANUS
cost model.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import SystemConfig
from repro.core.costmodel import PassCost, make_cost_model
from repro.core.system import IanusSystem
from repro.energy.model import EnergyBreakdown
from repro.models import GPT2_CONFIGS, Workload
from repro.models.workload import Stage
from repro.serving import (
    DEFAULT_KV_BUDGET_BYTES,
    KvPageAccountant,
    Request,
    ServingSimulator,
    check_invariants,
    get_trace_generator,
    kv_budget_bytes,
    mean_service_time_s,
)
from repro.serving.request import to_ps
from repro.serving.simulator import _percentile_sorted

from test_serving import _pass_seconds

MODEL = GPT2_CONFIGS["m"]


class LinearCostModel:
    """Fast synthetic backend: affine-plus-quadratic prefill, affine decode.

    Monotone in tokens and KV length (so incremental chunk costs are
    positive) and deterministic — invariants that hold here hold for any
    monotone cost model, and the suite stays fast enough to sweep dozens
    of combinations.  Exposes no ``config``, so the KV pool uses the
    fixed-budget fallback unless a test overrides ``kv_budget``.
    """

    name = "linear-stub"

    def pass_cost(self, model, stage_pass) -> PassCost:
        if stage_pass.stage is Stage.SUMMARIZATION:
            n = stage_pass.num_tokens
            latency = 500e-6 + 5e-6 * n + 1e-9 * n * n
        else:
            latency = 200e-6 + 1e-7 * stage_pass.kv_length
        return PassCost(
            latency_s=latency,
            breakdown={"stub": latency},
            energy=EnergyBreakdown(
                normal_memory_j=latency * 0.5, pim_op_j=0.0, npu_cores_j=0.0
            ),
            flops=1e6 * max(stage_pass.num_tokens, 1),
        )

    def cache_stats(self) -> dict:
        return {}


class DroppingPrefillCostModel(LinearCostModel):
    """A non-monotone backend: past 64 tokens a prompt prefills at half
    of :class:`LinearCostModel`'s latency, energy and FLOPs."""

    name = "dropping-stub"

    def pass_cost(self, model, stage_pass) -> PassCost:
        cost = super().pass_cost(model, stage_pass)
        if stage_pass.stage is not Stage.SUMMARIZATION or stage_pass.num_tokens <= 64:
            return cost
        latency = cost.latency_s / 2
        return PassCost(
            latency_s=latency,
            breakdown={"stub": latency},
            energy=EnergyBreakdown(
                normal_memory_j=latency * 0.5, pim_op_j=0.0, npu_cores_j=0.0
            ),
            flops=cost.flops / 2,
        )


def _simulate(policy, seed, chunk_tokens=0, num_requests=10, rate=30.0,
              trace_name="chatbot", kv_budget=None, **kwargs):
    generator = get_trace_generator(trace_name)
    trace = generator.generate(num_requests, rate, seed=seed, num_classes=2)
    simulator = ServingSimulator(
        LinearCostModel(), MODEL, policy=policy, chunk_tokens=chunk_tokens,
        kv_budget=kv_budget, **kwargs,
    )
    metrics = simulator.simulate(trace, record_events=True)
    return trace, simulator, metrics


class TestInvariantSuite:
    """The invariants hold over a grid of (seed, policy, chunking) combos."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("policy", ("fcfs", "interleaved", "srpt", "priority"))
    @pytest.mark.parametrize("chunk_tokens", (0, 96))
    @pytest.mark.parametrize("trace_name", ("chatbot", "gpt2-paper"))
    def test_random_traces_are_sound(self, seed, policy, chunk_tokens, trace_name):
        trace, simulator, metrics = _simulate(
            policy, seed, chunk_tokens, trace_name=trace_name
        )
        assert check_invariants(simulator.events, trace) == []
        assert metrics.num_requests == len(trace)
        assert metrics.output_tokens == sum(r.output_tokens for r in trace)
        assert metrics.busy_s <= metrics.makespan_s * (1 + 1e-12)
        assert metrics.kv_peak_pages <= metrics.kv_pages_total

    @pytest.mark.parametrize("seed", (3, 4))
    @pytest.mark.parametrize("policy", ("interleaved", "srpt", "priority"))
    def test_tight_kv_budget_stays_sound(self, seed, policy):
        # A pool of ~2 worst-case requests forces admission to block on
        # pages, not the batch cap; the invariants must survive that too.
        accountant = KvPageAccountant.for_backend(LinearCostModel(), MODEL)
        worst = accountant.token_bytes * max(
            w.total_tokens for w in get_trace_generator("chatbot").workloads
        )
        trace, simulator, metrics = _simulate(
            policy, seed, chunk_tokens=64, kv_budget=2 * worst
        )
        assert check_invariants(simulator.events, trace) == []
        assert metrics.num_requests == len(trace)
        # The tight pool really binds: its peak is a large fraction.
        assert metrics.kv_peak_pages >= metrics.kv_pages_total * 0.5

    def test_real_backend_trace_is_sound(self):
        trace = get_trace_generator("gpt2-paper").generate(8, 8.0, seed=5)
        simulator = ServingSimulator(
            make_cost_model("ianus"), MODEL, policy="interleaved", chunk_tokens=128
        )
        simulator.simulate(trace, record_events=True)
        assert check_invariants(simulator.events, trace) == []

    def test_unservable_request_raises(self):
        accountant = KvPageAccountant.for_backend(LinearCostModel(), MODEL)
        with pytest.raises(ValueError, match="can never be served"):
            _simulate("interleaved", 0, kv_budget=accountant.token_bytes * 64)

    def test_events_not_recorded_by_default(self):
        trace = get_trace_generator("chatbot").generate(4, 10.0, seed=0)
        simulator = ServingSimulator(LinearCostModel(), MODEL)
        simulator.simulate(trace)
        assert simulator.events is None


class TestValidatorCatchesViolations:
    """Tampered event logs are rejected — the oracle itself is tested."""

    @pytest.fixture()
    def sound(self):
        trace, simulator, _ = _simulate("interleaved", 7, chunk_tokens=96)
        events = list(simulator.events)
        assert check_invariants(events, trace) == []
        return trace, events

    def _first_index(self, events, kind):
        return next(i for i, e in enumerate(events) if e.kind == kind)

    def test_oversubscription_detected(self, sound):
        trace, events = sound
        index = self._first_index(events, "step")
        events[index] = dataclasses.replace(
            events[index], kv_reserved_pages=events[index].kv_total_pages + 1
        )
        assert any("over-subscription" in v for v in check_invariants(events, trace))

    def test_idle_device_detected(self, sound):
        trace, events = sound
        index = self._first_index(events, "step")
        # Stretch the clock without work: the next step starts late.
        tampered = [
            e if i <= index else dataclasses.replace(e, clock=e.clock + to_ps(0.5))
            for i, e in enumerate(events)
        ]
        assert any("idle gap" in v for v in check_invariants(tampered, trace))

    def test_lost_completion_detected(self, sound):
        trace, events = sound
        index = self._first_index(events, "complete")
        del events[index]
        violations = check_invariants(events, trace)
        assert any("never completed" in v for v in violations)
        assert any("requests completed" in v for v in violations)

    def test_token_miscount_detected(self, sound):
        trace, events = sound
        index = self._first_index(events, "step")
        events[index] = dataclasses.replace(events[index], tokens=events[index].tokens + 1)
        assert any("prefill" in v for v in check_invariants(events, trace))

    def test_decode_before_prefill_detected(self, sound):
        trace, events = sound
        admit = self._first_index(events, "admit")
        rid = events[admit].request_id
        index = admit + 1
        events[index] = dataclasses.replace(
            events[index], decode_ids=events[index].decode_ids + (rid,)
        )
        assert any(
            "before its prefill completed" in v or "expected" in v
            for v in check_invariants(events, trace)
        )


class TestValidateInvariants:
    """``ServingSimulator.validate_invariants`` replays the last
    ``simulate`` configured from the simulator itself."""

    def test_needs_a_simulate_that_recorded_events(self):
        trace = get_trace_generator("chatbot").generate(4, 10.0, seed=0)
        simulator = ServingSimulator(LinearCostModel(), MODEL)
        with pytest.raises(RuntimeError, match=r"simulate\(\) first"):
            simulator.validate_invariants()
        simulator.simulate(trace)
        with pytest.raises(RuntimeError, match=r"record_events=True"):
            simulator.validate_invariants()
        # A streamed run keeps no trace to replay a log against.
        simulator.simulate_stream([trace])
        with pytest.raises(RuntimeError, match=r"simulate\(\) first"):
            simulator.validate_invariants()

    def test_replays_the_page_ledger_and_resident_model(self):
        trace, simulator, _ = _simulate(
            "interleaved", 7, chunk_tokens=96, admission="optimistic",
            page_tokens=8,
        )
        events = simulator.events
        assert simulator.validate_invariants() == []
        assert simulator.validate_invariants() == check_invariants(
            events, trace, page_tokens=8, admission="optimistic",
            default_model=MODEL.name,
        )
        # One reservation misreported by a page passes the checker without
        # a ledger, but not the ledger the simulator configures.
        index = next(
            i for i, e in enumerate(events)
            if e.kind == "step" and e.kv_reserved_pages > 0
        )
        events[index] = dataclasses.replace(
            events[index], kv_reserved_pages=events[index].kv_reserved_pages - 1
        )
        assert check_invariants(events, trace) == []
        assert any(
            "page ledger mismatch" in v for v in simulator.validate_invariants()
        )


class TestChunkedPrefillExactness:
    """Chunking is cost-conserving: chunk costs telescope to the whole pass."""

    def test_chunk_covering_the_prompt_is_a_noop(self):
        # Regression pin: with chunking enabled but chunk >= prompt, the
        # one-request trace still reproduces its hardware passes exactly
        # and is byte-identical to the unchunked simulation.
        system = IanusSystem(SystemConfig.ianus())
        reference = _pass_seconds(system, Workload(128, 32))
        unchunked = ServingSimulator(system, MODEL, policy="fcfs", exact=True)
        chunked = ServingSimulator(
            system, MODEL, policy="fcfs", exact=True, chunk_tokens=128
        )
        trace = [Request(0, 0.0, 128, 32)]
        baseline = unchunked.simulate(trace)
        noop = chunked.simulate(trace)
        assert noop.latency_mean_s == reference
        base_dict = baseline.to_dict()
        noop_dict = noop.to_dict()
        assert base_dict.pop("chunk_tokens") == 0
        assert noop_dict.pop("chunk_tokens") == 128
        assert json.dumps(base_dict) == json.dumps(noop_dict)

    def test_multi_chunk_prefill_telescopes(self):
        # Four 32-token chunks of a lone 128-token prompt cost exactly the
        # monolithic pass (incremental integer costs telescope; no decodes
        # can interleave with a single request in flight).
        system = IanusSystem(SystemConfig.ianus())
        reference = _pass_seconds(system, Workload(128, 8))
        chunked = ServingSimulator(
            system, MODEL, policy="interleaved", exact=True, chunk_tokens=32
        )
        metrics = chunked.simulate([Request(0, 0.0, 128, 8)], record_events=True)
        assert metrics.prefill_passes == 4
        assert metrics.latency_mean_s == reference
        assert check_invariants(chunked.events, [Request(0, 0.0, 128, 8)]) == []

    def test_a_cheaper_longer_prefix_prices_its_chunk_at_zero(self):
        # Where the prefill cost drops as the prompt grows, the chunk that
        # crosses the drop is floored at zero in every component instead
        # of moving the clock backwards or booking negative energy.
        provider = ServingSimulator(
            DroppingPrefillCostModel(), MODEL, chunk_tokens=32
        ).provider
        assert provider.prefill_chunk(64, 32) == (0, 0, 0, 0, 0)
        latency, memory, _, _, flops = provider.prefill_chunk(96, 32)
        assert min(latency, memory, flops) > 0
        assert provider.prefill_chunk(32, 32) == tuple(
            whole - head
            for whole, head in zip(
                provider.prefill_chunk(0, 64), provider.prefill_chunk(0, 32)
            )
        )

    def test_chunking_conserves_total_prefill_work(self):
        # Across a whole multi-request trace the summed busy time moves
        # only by the decode/prefill interleaving, not by chunk overhead:
        # pure prefill work telescopes.
        trace, _, unchunked = _simulate("fcfs", 11, chunk_tokens=0)
        _, _, chunked = _simulate("fcfs", 11, chunk_tokens=64)
        # FCFS runs one request at a time, so no decode piggybacking ever
        # happens, and integer chunk costs telescope: the totals agree.
        assert chunked.busy_s == unchunked.busy_s
        assert chunked.latency_mean_s == unchunked.latency_mean_s


class TestCrossPolicyMetamorphic:
    """Relations between policies on identical traces (real IANUS costs)."""

    @pytest.fixture(scope="class")
    def backend(self):
        cost_model = make_cost_model("ianus")
        generator = get_trace_generator("gpt2-paper")
        service_s = mean_service_time_s(cost_model, MODEL, generator.workloads)
        return cost_model, generator, service_s

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_srpt_mean_latency_never_exceeds_fcfs(self, backend, seed):
        cost_model, generator, service_s = backend
        trace = generator.generate(24, 2.0 / service_s, seed=seed)
        fcfs = ServingSimulator(cost_model, MODEL, policy="fcfs").simulate(trace)
        srpt = ServingSimulator(cost_model, MODEL, policy="srpt").simulate(trace)
        assert srpt.latency_mean_s <= fcfs.latency_mean_s * (1 + 1e-9)

    def test_chunked_prefill_does_not_worsen_ttft_p99_at_high_load(self, backend):
        # At sustained overload with a tight KV pool, admission wait
        # dominates the TTFT tail; chunking completes requests sooner
        # (decodes ride along with prefill chunks), freeing pages earlier.
        # Pool the per-request TTFTs of several seeds so the p99 is over a
        # real tail, not three samples.
        cost_model, generator, service_s = backend
        pooled: dict[int, list[float]] = {0: [], 128: []}
        for seed in (0, 1, 2, 3, 4):
            trace = generator.generate(48, 6.0 / service_s, seed=seed)
            for chunk in pooled:
                metrics = ServingSimulator(
                    cost_model, MODEL, policy="interleaved",
                    chunk_tokens=chunk, kv_fraction=0.05,
                ).simulate(trace)
                pooled[chunk].extend(r.ttft_s for r in metrics.per_request)
        assert _percentile_sorted(sorted(pooled[128]), 99.0) <= _percentile_sorted(
            sorted(pooled[0]), 99.0
        ) * (
            1 + 1e-9
        )

    def test_priority_protects_class_zero_under_overload(self, backend):
        # Two relations: (a) against the class-blind interleaved policy,
        # priority never lowers class 0's SLO attainment on any seed;
        # (b) pooled over seeds, class 0 attains at least class 1 (both
        # scored against the same target, so only scheduling differs).
        cost_model, generator, service_s = backend
        slo = (4.0 * service_s,)
        met: dict[tuple[str, int], list[bool]] = {}
        for seed in (0, 1, 2, 3, 4):
            trace = generator.generate(48, 6.0 / service_s, seed=seed, num_classes=2)
            results = {}
            for policy in ("interleaved", "priority"):
                metrics = ServingSimulator(
                    cost_model, MODEL, policy=policy, slo_targets=slo
                ).simulate(trace)
                results[policy] = metrics
                for request_metrics in metrics.per_request:
                    met.setdefault(
                        (policy, request_metrics.priority_class), []
                    ).append(bool(request_metrics.slo_met))
            assert results["priority"].slo_by_class["0"] >= (
                results["interleaved"].slo_by_class["0"] - 1e-9
            )
        attain = lambda key: sum(met[key]) / len(met[key])  # noqa: E731
        assert attain(("priority", 0)) >= attain(("priority", 1)) - 1e-9


class TestKvAccounting:
    """Unit coverage of the paged-KV accountant and budget derivation."""

    def test_budget_derivation_per_backend(self):
        ianus = make_cost_model("ianus")
        a100 = make_cost_model("a100")
        expected_ianus = (
            ianus.config.npu_visible_capacity_bytes - MODEL.param_bytes
        )
        assert kv_budget_bytes(ianus, MODEL) == expected_ianus
        assert kv_budget_bytes(ianus, MODEL, 0.25) == int(expected_ianus * 0.25)
        assert kv_budget_bytes(a100, MODEL) == (
            a100.config.memory_capacity_bytes - MODEL.param_bytes
        )
        # Backends without a capacity attribute fall back to the fixed budget.
        assert kv_budget_bytes(LinearCostModel(), MODEL) == DEFAULT_KV_BUDGET_BYTES
        with pytest.raises(ValueError, match="fraction"):
            kv_budget_bytes(ianus, MODEL, 0.0)

    def test_model_larger_than_memory_rejected(self):
        from repro.models import LARGE_GPT_CONFIGS

        with pytest.raises(ValueError, match="do not fit"):
            kv_budget_bytes(make_cost_model("dfx"), LARGE_GPT_CONFIGS["30b"])

    def test_multi_device_scales_the_simulator_budget(self):
        one = kv_budget_bytes(make_cost_model("ianus"), MODEL)
        four = kv_budget_bytes(make_cost_model("ianus", num_devices=4), MODEL)
        config = make_cost_model("ianus").config
        assert four - one == 3 * config.npu_visible_capacity_bytes

    def test_page_arithmetic_and_reservations(self):
        accountant = KvPageAccountant(
            budget_bytes=10 * 1024, token_bytes=64, page_tokens=4
        )
        assert accountant.page_bytes == 256
        assert accountant.total_pages == 40
        assert accountant.pages_for(0) == 0
        assert accountant.pages_for(1) == 1
        assert accountant.pages_for(4) == 1
        assert accountant.pages_for(5) == 2
        assert accountant.reserve(0, 17) == 5
        assert accountant.reserved_pages == 5
        assert accountant.free_pages == 35
        assert accountant.can_reserve(35 * 4)
        assert not accountant.can_reserve(35 * 4 + 1)
        with pytest.raises(ValueError, match="already holds"):
            accountant.reserve(0, 4)
        with pytest.raises(ValueError, match="over-subscription"):
            accountant.reserve(1, 36 * 4)
        accountant.release(0)
        assert accountant.reserved_pages == 0
        assert accountant.peak_reserved_pages == 5
        with pytest.raises(ValueError, match="no reservation"):
            accountant.release(0)

    def test_invalid_pool_configurations_rejected(self):
        with pytest.raises(ValueError, match="budget_bytes"):
            KvPageAccountant(budget_bytes=0, token_bytes=64)
        with pytest.raises(ValueError, match="page_tokens"):
            KvPageAccountant(budget_bytes=1024, token_bytes=64, page_tokens=0)
        with pytest.raises(ValueError, match="smaller than one"):
            KvPageAccountant(budget_bytes=100, token_bytes=64, page_tokens=4)

    def test_simulator_reports_pool_metrics(self):
        _, _, metrics = _simulate("interleaved", 1, chunk_tokens=0)
        assert metrics.kv_budget_bytes == DEFAULT_KV_BUDGET_BYTES
        assert metrics.kv_pages_total > 0
        assert 0 < metrics.kv_peak_pages <= metrics.kv_pages_total
        assert 0.0 < metrics.kv_peak_fraction <= 1.0
        data = metrics.to_dict(include_requests=False)
        for key in ("kv_page_tokens", "kv_pages_total", "kv_peak_pages",
                    "kv_budget_bytes", "slo_attainment", "slo_by_class",
                    "chunk_tokens"):
            assert key in data


class TestSloMetrics:
    """SLO targets flow from simulator config to per-request/aggregate metrics."""

    def test_targets_are_assigned_per_class(self):
        trace = get_trace_generator("chatbot").generate(
            12, 20.0, seed=3, num_classes=3
        )
        simulator = ServingSimulator(
            LinearCostModel(), MODEL, slo_targets=(0.5, 2.0)
        )
        metrics = simulator.simulate(trace)
        for request_metrics in metrics.per_request:
            expected = (0.5, 2.0)[min(request_metrics.priority_class, 1)]
            assert request_metrics.slo_s == expected
            assert request_metrics.slo_met == (
                request_metrics.latency_s <= expected
            )
        assert metrics.slo_attainment is not None
        assert set(metrics.slo_by_class) <= {"0", "1", "2"}

    def test_no_targets_means_no_attainment(self):
        trace = get_trace_generator("chatbot").generate(4, 10.0, seed=0)
        metrics = ServingSimulator(LinearCostModel(), MODEL).simulate(trace)
        assert metrics.slo_attainment is None
        assert metrics.slo_by_class == {}
        assert all(m.slo_met is None for m in metrics.per_request)

    def test_class_draw_does_not_perturb_arrivals(self):
        generator = get_trace_generator("chatbot")
        plain = generator.generate(16, 5.0, seed=9)
        classed = generator.generate(16, 5.0, seed=9, num_classes=4)
        assert [r.arrival_s for r in plain] == [r.arrival_s for r in classed]
        assert [r.input_tokens for r in plain] == [r.input_tokens for r in classed]
        assert {r.priority_class for r in plain} == {0}
        assert len({r.priority_class for r in classed}) > 1
