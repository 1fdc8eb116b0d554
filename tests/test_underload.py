"""PR 8: arrival-batched macro admission (the underload fast path).

Property tests pinning the array engine's arrival absorber to the
per-arrival reference path it replaces:

* detail mode must be **byte-identical** with absorption on vs off across
  every trace curve x policy x seed combination (the absorber reproduces
  the per-arrival float-operation sequence exactly);
* pooled (detail-less) mode must agree to 1e-9;
* a preemption-heavy tight-KV corner must force the exact-path fallback
  and still agree;
* the decode-table single-value KV range regression (a 1-row table, not
  an error) and its round trip through the persistent cache payloads.
"""

import pytest

from repro.core.costmodel import make_cost_model
from repro.models import GPT2_CONFIGS
from repro.serving.array_engine import ArraySimulationRun
from repro.serving.decode_table import build_decode_table, table_matches_provider
from repro.serving.simulator import (
    PassCostProvider,
    ServingSimulator,
    mean_service_time_s,
)
from repro.serving.trace import TRACE_CURVES, TRACES

MODEL = GPT2_CONFIGS["m"]
BACKEND = "ianus"
POLICIES = ("interleaved", "fcfs", "srpt", "priority")
CURVES = tuple(TRACE_CURVES)  # constant / diurnal / flash-crowd / step


@pytest.fixture(scope="module")
def cost_model():
    return make_cost_model(BACKEND)


@pytest.fixture(scope="module")
def underload_rate(cost_model):
    """0.3x the backend's nominal capacity — the ISSUE's underload point."""
    generator = TRACES["chatbot"]
    service = mean_service_time_s(cost_model, MODEL, generator.workloads)
    return 0.3 / service


def _no_absorption(self, until):
    return False


def _simulate(cost_model, trace, *, batching, detail=True, **kwargs):
    """One array-engine run; ``batching=False`` pins the per-arrival
    reference path by switching off ``_absorb_arrivals``."""
    simulator = ServingSimulator(
        cost_model, MODEL, engine="array", max_batch=4,
        per_request_detail=detail, **kwargs,
    )
    with pytest.MonkeyPatch.context() as patch:
        if not batching:
            patch.setattr(ArraySimulationRun, "_absorb_arrivals", _no_absorption)
        return simulator.simulate(trace)


def _rows(metrics):
    return [m.to_dict() for m in metrics.per_request]


class TestArrivalBatchedByteIdentity:
    @pytest.mark.parametrize("curve", CURVES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_detail_byte_identical_across_curves(
        self, cost_model, underload_rate, curve, policy
    ):
        trace = TRACES["chatbot"].generate(
            600, underload_rate, seed=11, curve=TRACE_CURVES[curve]()
        )
        reference = _simulate(cost_model, trace, batching=False, policy=policy)
        batched = _simulate(cost_model, trace, batching=True, policy=policy)
        assert _rows(batched) == _rows(reference)

    @pytest.mark.parametrize("seed", (1, 7, 23))
    @pytest.mark.parametrize("admission", ("worst-case", "optimistic"))
    def test_detail_byte_identical_across_seeds(
        self, cost_model, underload_rate, seed, admission
    ):
        trace = TRACES["chatbot"].generate(
            500, underload_rate, seed=seed, curve=TRACE_CURVES["diurnal"]()
        )
        reference = _simulate(
            cost_model, trace, batching=False, admission=admission
        )
        batched = _simulate(
            cost_model, trace, batching=True, admission=admission
        )
        assert _rows(batched) == _rows(reference)

    @pytest.mark.parametrize("policy", ("fcfs", "interleaved"))
    def test_pooled_within_1e9(self, cost_model, underload_rate, policy):
        trace = TRACES["chatbot"].generate(
            2000, underload_rate, seed=3, curve=TRACE_CURVES["diurnal"]()
        )
        reference = _simulate(
            cost_model, trace, batching=False, detail=False, policy=policy
        )
        batched = _simulate(
            cost_model, trace, batching=True, detail=False, policy=policy
        )
        for field in (
            "num_requests", "makespan_s", "busy_s", "output_tokens",
            "latency_mean_s", "latency_p99_s", "ttft_p99_s", "energy_j",
            "flops", "admissions", "kv_peak_pages",
        ):
            expected = getattr(reference, field)
            actual = getattr(batched, field)
            scale = max(abs(expected), abs(actual), 1.0)
            assert abs(expected - actual) / scale <= 1e-9, field

    def test_events_disable_absorption_and_match_object_engine(
        self, cost_model, underload_rate
    ):
        """Event-recorded runs take the per-iteration path and stay
        byte-identical to the object engine even with batching enabled."""
        trace = TRACES["chatbot"].generate(300, underload_rate, seed=5)
        array_sim = ServingSimulator(
            cost_model, MODEL, engine="array", max_batch=4
        )
        array_metrics = array_sim.simulate(trace, record_events=True)
        object_sim = ServingSimulator(
            cost_model, MODEL, engine="object", max_batch=4
        )
        object_metrics = object_sim.simulate(trace, record_events=True)
        assert _rows(array_metrics) == _rows(object_metrics)

    def test_fcfs_queue_carries_across_window_boundaries(
        self, cost_model, underload_rate
    ):
        """The pooled window absorber's Lindley recursion must seed from
        the clock: under a queued fcfs load the first request of a
        columnar window can arrive while the previous window's tail is
        still in service.  A shrunken window makes the boundary cheap to
        cross many times; regression for a drift that only surfaced past
        ``_ABSORB_WINDOW`` pending requests."""
        saved = ArraySimulationRun._ABSORB_WINDOW
        ArraySimulationRun._ABSORB_WINDOW = 64
        try:
            # 0.9x capacity: queues form, so windows start mid-service.
            trace = TRACES["chatbot"].generate(
                2000, 3.0 * underload_rate, seed=7,
                curve=TRACE_CURVES["diurnal"](),
            )
            reference = _simulate(
                cost_model, trace, batching=False, detail=False,
                policy="fcfs",
            )
            batched = _simulate(
                cost_model, trace, batching=True, detail=False,
                policy="fcfs",
            )
        finally:
            ArraySimulationRun._ABSORB_WINDOW = saved
        for field in ("latency_mean_s", "latency_p99_s", "ttft_p99_s",
                      "makespan_s", "busy_s"):
            expected = getattr(reference, field)
            actual = getattr(batched, field)
            scale = max(abs(expected), abs(actual), 1.0)
            assert abs(expected - actual) / scale <= 1e-9, field

    @pytest.mark.parametrize("load", (0.3, 0.6, 0.9))
    def test_completion_record_stays_in_clock_order(self, cost_model, load):
        """Absorbed stretches join the completion record before the burst
        after them runs, so the record stays in clock order (the cluster's
        causal SLO window walks it with cursors)."""
        generator = TRACES["chatbot"]
        service = mean_service_time_s(cost_model, MODEL, generator.workloads)
        trace = generator.generate(3000, load / service, seed=3)
        simulator = ServingSimulator(
            cost_model, MODEL, engine="array", policy="interleaved",
            max_batch=8,
        )
        simulator.simulate(trace)
        completion = simulator.last_run.completions.completion_s
        assert all(a <= b for a, b in zip(completion, completion[1:]))

    def test_tight_kv_forces_fallback_and_stays_identical(
        self, cost_model, underload_rate
    ):
        """A KV pool small enough to block admissions (and preempt under
        optimistic grants) keeps the absorber out of closed form; the
        fallback must reproduce the reference exactly."""
        trace = TRACES["chatbot"].generate(
            400, 4.0 * underload_rate, seed=13,
            curve=TRACE_CURVES["flash-crowd"](),
        )
        for admission in ("worst-case", "optimistic"):
            kwargs = dict(admission=admission, kv_fraction=0.01)
            reference = _simulate(cost_model, trace, batching=False, **kwargs)
            batched = _simulate(cost_model, trace, batching=True, **kwargs)
            assert _rows(batched) == _rows(reference)
            if admission == "optimistic":
                assert reference.preemptions > 0, (
                    "corner must actually preempt to exercise the fallback"
                )


class TestSingleValueKvTable:
    def test_single_value_range_builds_one_row(self, cost_model):
        provider = PassCostProvider(cost_model, MODEL)
        provider.prepare(513, 513)
        table = build_decode_table(provider, 513, 513)
        assert (table.kv_hi - table.kv_lo + 1) == 1
        assert table_matches_provider(table, provider)

    def test_single_anchor_grid_builds_one_row(self, cost_model):
        """kv range collapsing onto the base anchor leaves a 1-anchor
        grid; the table must still build (the pre-PR 8 code raised)."""
        provider = PassCostProvider(cost_model, MODEL)
        provider.prepare(1, 1)
        assert len(provider._anchors) == 1
        table = build_decode_table(provider, 1, 1)
        assert (table.kv_hi - table.kv_lo + 1) == 1
        assert table_matches_provider(table, provider)

    def test_single_value_trace_serves_on_both_engines(self, cost_model):
        from repro.serving.request import Request

        trace = [
            Request(
                request_id=i, arrival_s=0.5 * i,
                input_tokens=512, output_tokens=2,
            )
            for i in range(6)
        ]
        results = {}
        for engine in ("object", "array"):
            simulator = ServingSimulator(
                cost_model, MODEL, engine=engine, max_batch=4
            )
            results[engine] = _rows(simulator.simulate(trace))
        assert results["array"] == results["object"]
