"""Production-ops tests: trace curves, failure injection, failover,
autoscaling — and the extended invariant checker as a tamper-proof oracle.

The differential backbone mirrors ``test_cluster.py``: the ops machinery
must be *free* when inert (byte-identical to the plain simulator) and
*exactly replayable* when active (same seed + schedule => same bytes).
Failover must lose nothing — every request completes exactly once across
the fleet and output tokens are conserved against the trace — and every
new event kind (``fail`` / ``recover`` / ``scale``) must be caught by the
checker when forged, moved or deleted.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmodel import make_cost_model
from repro.models import GPT2_CONFIGS
from repro.models.workload import Stage, StagePass
from repro.serving import (
    AUTOSCALERS,
    ENGINES,
    FAILURE_SCHEDULES,
    TRACE_CURVES,
    Autoscaler,
    AutoscalerSignal,
    ClusterSimulator,
    ConstantCurve,
    DiurnalCurve,
    FailureEvent,
    FlashCrowdCurve,
    KvPageAccountant,
    NoFailures,
    Request,
    SeededFailures,
    ServingSimulator,
    ServingStall,
    SingleFailure,
    StepCurve,
    check_cluster_invariants,
    get_trace_generator,
    make_autoscaler,
    make_failure_schedule,
    make_trace_curve,
    replica_warmup_s,
)
from repro.serving.autoscale import WEIGHT_LINK_BYTES_PER_S
from repro.serving.cluster import ReplicaSnapshot, _OpsState
from repro.serving.request import to_ps, to_s
from repro.serving.simulator import mean_service_time_s
from repro.serving.validate import expand_runs

from test_serving_invariants import MODEL, LinearCostModel


def _snapshot(index=0, outstanding_requests=0, free=100, total=100):
    return ReplicaSnapshot(
        index=index,
        outstanding_requests=outstanding_requests,
        outstanding_tokens=outstanding_requests * 64,
        free_kv_pages=free,
        total_kv_pages=total,
    )


def _signal(clock_s=0.0, depths=(0,), provisioned=None, attainment=None):
    snapshots = tuple(
        _snapshot(index=i, outstanding_requests=d) for i, d in enumerate(depths)
    )
    return AutoscalerSignal(
        clock_s=clock_s,
        snapshots=snapshots,
        provisioned_replicas=(
            len(snapshots) if provisioned is None else provisioned
        ),
        slo_attainment=attainment,
    )


# ======================================================================
class TestTraceCurves:
    def test_constant_curve_is_byte_identical_to_legacy(self):
        gen = get_trace_generator("chatbot")
        plain = gen.generate(40, 25.0, seed=3, num_classes=2)
        curved = gen.generate(
            40, 25.0, seed=3, num_classes=2, curve=ConstantCurve()
        )
        assert [dataclasses.astuple(r) for r in plain] == [
            dataclasses.astuple(r) for r in curved
        ]

    def test_string_curve_resolves_through_registry(self):
        gen = get_trace_generator("chatbot")
        by_name = gen.generate(16, 25.0, seed=3, curve="constant")
        by_object = gen.generate(16, 25.0, seed=3, curve=ConstantCurve())
        assert [r.arrival_s for r in by_name] == [r.arrival_s for r in by_object]

    def test_curved_traces_are_deterministic(self):
        gen = get_trace_generator("chatbot")
        for curve in (
            DiurnalCurve(period_s=4.0, amplitude=0.7),
            FlashCrowdCurve(start_s=0.5, duration_s=0.5, magnitude=5.0),
            StepCurve(at_s=1.0, before=1.0, after=3.0),
        ):
            first = gen.generate(60, 30.0, seed=7, curve=curve)
            second = gen.generate(60, 30.0, seed=7, curve=curve)
            assert [r.arrival_s for r in first] == [r.arrival_s for r in second]

    def test_curves_modulate_rate_but_conserve_workloads(self):
        # Same seed => same workload sequence; only arrival instants move.
        gen = get_trace_generator("chatbot")
        plain = gen.generate(60, 30.0, seed=7)
        spiky = gen.generate(
            60, 30.0, seed=7,
            curve=FlashCrowdCurve(start_s=0.5, duration_s=0.5, magnitude=5.0),
        )
        assert [(r.input_tokens, r.output_tokens) for r in plain] == [
            (r.input_tokens, r.output_tokens) for r in spiky
        ]
        assert [r.arrival_s for r in plain] != [r.arrival_s for r in spiky]

    def test_flash_crowd_concentrates_arrivals_in_the_spike(self):
        gen = get_trace_generator("chatbot")
        curve = FlashCrowdCurve(start_s=1.0, duration_s=1.0, magnitude=8.0)
        trace = gen.generate(200, 20.0, seed=0, curve=curve)
        in_spike = sum(1 for r in trace if 1.0 <= r.arrival_s < 2.0)
        before = sum(1 for r in trace if 0.0 <= r.arrival_s < 1.0)
        assert in_spike > 3 * max(before, 1)

    def test_step_curve_raises_density_after_the_step(self):
        gen = get_trace_generator("chatbot")
        curve = StepCurve(at_s=2.0, before=1.0, after=4.0)
        trace = gen.generate(200, 20.0, seed=0, curve=curve)
        first = sum(1 for r in trace if r.arrival_s < 2.0)
        window_after = sum(1 for r in trace if 2.0 <= r.arrival_s < 4.0)
        assert window_after > 2 * first / 2.0 / 2.0  # ~4x the density

    def test_diurnal_exposure_matches_advance_inversion(self):
        curve = DiurnalCurve(period_s=3.0, amplitude=0.8, phase_s=0.4)
        t0 = 0.7
        for area in (0.01, 0.3, 2.5):
            t1 = curve.advance(t0, area)
            assert curve.exposure(t0, t1) == pytest.approx(area, rel=1e-9)

    def test_diurnal_mean_multiplier_is_one_over_a_period(self):
        curve = DiurnalCurve(period_s=5.0, amplitude=0.6)
        assert curve.exposure(0.0, 5.0) == pytest.approx(5.0)

    def test_registry_and_bad_kwargs(self):
        assert set(TRACE_CURVES) == {"constant", "diurnal", "flash-crowd", "step"}
        with pytest.raises(ValueError, match="unknown trace curve.*known"):
            make_trace_curve("sinusoid")
        with pytest.raises(ValueError, match="does not accept"):
            make_trace_curve("diurnal", wavelength=3.0)
        with pytest.raises(ValueError):
            DiurnalCurve(amplitude=1.0)  # rate would touch zero
        with pytest.raises(ValueError):
            StepCurve(before=0.0)


# ======================================================================
class TestSpecKnobsRejectNan:
    """Every float knob of a trace curve, failure schedule or autoscaler
    rejects NaN at construction, naming the knob (NaN fails every
    comparison, so an ``x <= 0`` check lets it through).  Trace-curve
    knobs also reject +inf, and the curve offsets -inf: an infinite knob
    makes the exposure NaN or piles every arrival onto one instant."""

    KNOBS = [
        (make_trace_curve, "constant", "scale"),
        (make_trace_curve, "diurnal", "period_s"),
        (make_trace_curve, "diurnal", "amplitude"),
        (make_trace_curve, "diurnal", "phase_s"),
        (make_trace_curve, "flash-crowd", "start_s"),
        (make_trace_curve, "flash-crowd", "duration_s"),
        (make_trace_curve, "flash-crowd", "magnitude"),
        (make_trace_curve, "step", "at_s"),
        (make_trace_curve, "step", "before"),
        (make_trace_curve, "step", "after"),
        (make_failure_schedule, "single", "at_s"),
        (make_failure_schedule, "single", "recover_after_s"),
        (make_failure_schedule, "seeded", "mtbf_s"),
        (make_failure_schedule, "seeded", "horizon_s"),
        (make_failure_schedule, "seeded", "recover_after_s"),
        (make_autoscaler, "queue-depth", "cooldown_s"),
        (make_autoscaler, "queue-depth", "window_s"),
        (make_autoscaler, "queue-depth", "high"),
        (make_autoscaler, "queue-depth", "low"),
        (make_autoscaler, "kv-pressure", "high"),
        (make_autoscaler, "kv-pressure", "low"),
        (make_autoscaler, "slo-attainment", "low"),
        (make_autoscaler, "slo-attainment", "high"),
        (make_autoscaler, "slo-attainment", "drain_depth"),
    ]

    @pytest.mark.parametrize(
        "factory, name, knob", KNOBS,
        ids=[f"{name}:{knob}" for _, name, knob in KNOBS],
    )
    def test_nan_knob_raises_naming_it(self, factory, name, knob):
        with pytest.raises(ValueError, match=knob):
            factory(name, **{knob: float("nan")})

    INFINITE_CURVE_KNOBS = [
        (name, knob, math.inf)
        for factory, name, knob in KNOBS
        if factory is make_trace_curve
    ] + [
        ("diurnal", "phase_s", -math.inf),
        ("flash-crowd", "start_s", -math.inf),
        ("step", "at_s", -math.inf),
    ]

    @pytest.mark.parametrize(
        "name, knob, value", INFINITE_CURVE_KNOBS,
        ids=[f"{name}:{knob}={value}" for name, knob, value in INFINITE_CURVE_KNOBS],
    )
    def test_infinite_curve_knob_raises_naming_it(self, name, knob, value):
        with pytest.raises(ValueError, match=knob):
            make_trace_curve(name, **{knob: value})


# ======================================================================
@pytest.mark.parametrize("engine", ["object", "array"])
class TestSteppingApiEdgeCases:
    """The lifecycle guards every run inherits, on both engines."""

    def _run(self, engine):
        return ServingSimulator(
            LinearCostModel(), MODEL, policy="fcfs", engine=engine
        ).begin()

    def test_offer_after_finish_raises_value_error(self, engine):
        run = self._run(engine)
        run.offer(Request(0, 0.0, 16, 4))
        run.finish()
        with pytest.raises(ValueError, match="finished run"):
            run.offer(Request(1, 1.0, 16, 4))

    def test_backwards_advance_until_raises_value_error(self, engine):
        run = self._run(engine)
        run.offer(Request(0, 0.0, 16, 4))
        run.advance_until(1.0)
        with pytest.raises(ValueError, match="moved backwards"):
            run.advance_until(0.5)

    def test_nan_advance_until_raises_value_error(self, engine):
        run = self._run(engine)
        run.offer(Request(0, 0.0, 16, 4))
        run.advance_until(1.0)
        with pytest.raises(ValueError, match="must be a number"):
            run.advance_until(float("nan"))

    def test_double_finish_raises_value_error(self, engine):
        run = self._run(engine)
        run.offer(Request(0, 0.0, 16, 4))
        run.finish()
        with pytest.raises(ValueError, match="finish\\(\\) called twice"):
            run.finish()

    def test_advance_after_finish_raises_value_error(self, engine):
        run = self._run(engine)
        run.finish()
        with pytest.raises(ValueError, match="finished run"):
            run.advance_until(2.0)

    def test_failing_a_failed_replica_raises(self, engine):
        run = self._run(engine)
        run.fail(0.0)
        with pytest.raises(ValueError, match="already dead"):
            run.fail(1.0)

    def test_recovering_a_live_replica_raises(self, engine):
        run = self._run(engine)
        with pytest.raises(ValueError, match="not dead"):
            run.recover(0.0)

    def test_work_for_a_failed_replica_raises(self, engine):
        run = self._run(engine)
        run.fail(0.0)
        request = Request(0, 0.0, 16, 4)
        with pytest.raises(ValueError, match="offer a request to a failed"):
            run.offer(request)
        with pytest.raises(ValueError, match="offer a request to a failed"):
            run.offer_many([request])
        with pytest.raises(ValueError, match="resubmit a request to a failed"):
            run.resubmit(request)
        run.recover(1.0)
        run.resubmit(request)
        assert run.finish().num_requests == 1

    def test_failing_or_recovering_a_finished_run_raises(self, engine):
        run = self._run(engine)
        run.offer(Request(0, 0.0, 16, 4))
        run.finish()
        with pytest.raises(ValueError, match="cannot fail a finished run"):
            run.fail(1.0)
        with pytest.raises(ValueError, match="cannot recover a finished run"):
            run.recover(1.0)
        with pytest.raises(ValueError, match="resubmit a request to a finished"):
            run.resubmit(Request(1, 1.0, 16, 4))

    def test_wedge_error_names_the_stuck_request(self, engine):
        # The preempt-disabled exhaustion error must identify the wedged
        # request and the page arithmetic, not just announce the wedge.
        accountant = KvPageAccountant.for_backend(LinearCostModel(), MODEL)
        budget = 32 * accountant.page_bytes
        simulator = ServingSimulator(
            LinearCostModel(), MODEL, policy="interleaved",
            admission="optimistic", preempt=False, kv_budget=budget,
            engine=engine,
        )
        trace = [Request(0, 0.0, 16, 400), Request(1, 0.0, 16, 400)]
        with pytest.raises(ServingStall) as excinfo:
            simulator.simulate(trace)
        message = str(excinfo.value)
        assert "KV pool exhausted with preemption disabled" in message
        assert "request 0" in message or "request 1" in message
        assert "holds" in message and "needs" in message
        assert "of 32 pool page(s)" in message


# ======================================================================
class TestFailureSchedules:
    def test_registry_and_unknown_name(self):
        assert set(FAILURE_SCHEDULES) == {"none", "single", "seeded"}
        with pytest.raises(ValueError, match="unknown failure schedule.*known"):
            make_failure_schedule("meteor")
        with pytest.raises(ValueError, match="does not accept"):
            make_failure_schedule("single", when=1.0)

    def test_none_schedule_is_empty(self):
        assert NoFailures().events(4) == ()

    def test_single_failure_with_recovery(self):
        schedule = SingleFailure(replica=1, at_s=2.0, recover_after_s=3.0)
        assert schedule.events(2) == (
            FailureEvent(2.0, 1, "fail"),
            FailureEvent(5.0, 1, "recover"),
        )

    def test_single_failure_out_of_range_raises(self):
        with pytest.raises(ValueError, match="replica 3.*2 replica"):
            SingleFailure(replica=3).events(2)

    def test_seeded_schedule_is_deterministic(self):
        schedule = SeededFailures(seed=5, mtbf_s=1.0, horizon_s=10.0)
        assert schedule.events(4) == schedule.events(4)
        assert schedule.events(4) != SeededFailures(
            seed=6, mtbf_s=1.0, horizon_s=10.0
        ).events(4)

    def test_seeded_schedule_never_orphans_the_fleet(self):
        # Aggressive chaos without recovery: at most num_replicas - 1 die.
        for seed in range(8):
            schedule = SeededFailures(
                seed=seed, mtbf_s=0.1, horizon_s=50.0, recover_after_s=None
            )
            events = schedule.events(3)
            assert sum(1 for e in events if e.kind == "fail") <= 2

    def test_seeded_schedule_needs_a_finite_horizon(self):
        # events() draws failures until the horizon; an infinite one
        # never ends the loop.
        with pytest.raises(ValueError, match="horizon_s must be positive and finite"):
            SeededFailures(horizon_s=float("inf"))

    def test_seeded_events_are_sorted_and_bounded(self):
        schedule = SeededFailures(
            seed=1, mtbf_s=0.5, horizon_s=5.0, max_failures=3
        )
        events = schedule.events(4)
        assert list(events) == sorted(events)
        assert sum(1 for e in events if e.kind == "fail") <= 3
        assert all(e.time_s <= 5.0 for e in events if e.kind == "fail")


# ======================================================================
class TestAutoscalerUnits:
    def test_registry_and_unknown_name(self):
        assert set(AUTOSCALERS) == {
            "fixed", "queue-depth", "slo-attainment", "kv-pressure"
        }
        with pytest.raises(ValueError, match="unknown autoscaler.*known"):
            make_autoscaler("predictive")
        with pytest.raises(ValueError, match="does not accept"):
            make_autoscaler("queue-depth", hysteresis=2.0)

    def test_fixed_never_scales(self):
        scaler = make_autoscaler("fixed")
        assert scaler.evaluate(_signal(depths=(50, 50))) == 0

    def test_queue_depth_thresholds(self):
        scaler = make_autoscaler("queue-depth", high=2.0, low=0.5)
        assert scaler.evaluate(_signal(depths=(3, 4))) == 1
        scaler.reset()
        assert scaler.evaluate(_signal(depths=(0, 0), provisioned=2)) == -1
        scaler.reset()
        assert scaler.evaluate(_signal(depths=(1, 1))) == 0

    def test_kv_pressure_thresholds(self):
        scaler = make_autoscaler("kv-pressure", high=0.7, low=0.2)
        full = AutoscalerSignal(
            0.0, (_snapshot(free=10, total=100),), 1, None
        )
        empty = AutoscalerSignal(
            0.0, (_snapshot(free=95, total=100),), 2, None
        )
        assert scaler.evaluate(full) == 1
        scaler.reset()
        assert scaler.evaluate(empty) == -1

    def test_slo_attainment_thresholds_and_none_inertness(self):
        scaler = make_autoscaler("slo-attainment", low=0.9, high=0.99)
        assert scaler.evaluate(_signal(depths=(5,), attainment=0.5)) == 1
        scaler.reset()
        assert scaler.evaluate(_signal(depths=(0, 0), attainment=1.0)) == -1
        scaler.reset()
        assert scaler.evaluate(_signal(depths=(5,), attainment=None)) == 0

    def test_clamping_to_min_and_max(self):
        scaler = make_autoscaler(
            "queue-depth", high=1.0, low=0.2, min_replicas=2, max_replicas=3
        )
        assert scaler.evaluate(_signal(depths=(9, 9, 9), provisioned=3)) == 0
        assert scaler.evaluate(_signal(depths=(0, 0), provisioned=2)) == 0

    def test_cooldown_gates_consecutive_changes(self):
        scaler = make_autoscaler("queue-depth", high=1.0, low=0.2, cooldown_s=5.0)
        assert scaler.evaluate(_signal(clock_s=0.0, depths=(9,))) == 1
        assert scaler.evaluate(_signal(clock_s=2.0, depths=(9, 9))) == 0
        assert scaler.evaluate(_signal(clock_s=6.0, depths=(9, 9))) == 1

    def test_warmup_streams_the_weights_then_primes_one_pass(self):
        model = GPT2_CONFIGS["m"]
        cost_model = LinearCostModel()
        prime = cost_model.pass_cost(model, StagePass(Stage.GENERATION, 1, 1))
        assert replica_warmup_s(cost_model, model) == (
            model.param_bytes / WEIGHT_LINK_BYTES_PER_S + prime.latency_s
        )

    def test_warmup_is_priced_through_the_cost_model(self):
        model = GPT2_CONFIGS["m"]
        warmup = replica_warmup_s(LinearCostModel(), model)
        assert warmup > model.param_bytes / 16e9  # load + a priming pass

    def test_subclasses_must_reject_unknown_kwargs(self):
        with pytest.raises(ValueError, match="does not accept"):
            make_autoscaler("slo-attainment", target=0.99)


# ======================================================================
def _trace(num=30, rate=40.0, seed=3, curve=None):
    return get_trace_generator("chatbot").generate(
        num, rate, seed=seed, num_classes=2, curve=curve
    )


def _cluster(**kwargs):
    defaults = dict(
        policy="fcfs", slo_targets=(0.5, 1.0), admission="worst-case"
    )
    defaults.update(kwargs)
    return ClusterSimulator(LinearCostModel(), MODEL, **defaults)


class TestInertOpsDifferential:
    def test_inert_cluster_is_byte_identical_to_plain_simulator(self):
        trace = _trace()
        single = ServingSimulator(
            LinearCostModel(), MODEL, policy="fcfs", slo_targets=(0.5, 1.0)
        )
        single_metrics = single.simulate(trace, record_events=True)
        cluster = _cluster(num_replicas=1, failures="none", autoscaler="fixed")
        cluster_metrics = cluster.simulate(trace, record_events=True)
        assert json.dumps(cluster_metrics.per_replica[0].to_dict()) == (
            json.dumps(single_metrics.to_dict())
        )
        # The cluster advances its replica to every arrival, which splits
        # decode runs there; expanded, the two logs are the same steps.
        assert expand_runs(cluster.events[0]) == expand_runs(single.events)
        assert cluster_metrics.failure_schedule == "none"
        assert cluster_metrics.autoscaler == "fixed"
        assert cluster_metrics.replica_seconds == cluster_metrics.makespan_s
        assert cluster.validate_invariants() == []


class TestFailover:
    def _chaos_pair(self, num=40, rate=60.0):
        trace = _trace(num=num, rate=rate)
        schedule = SingleFailure(replica=0, at_s=0.15, recover_after_s=0.2)
        cluster = _cluster(num_replicas=2, failures=schedule)
        metrics = cluster.simulate(trace, record_events=True)
        return trace, schedule, cluster, metrics

    def test_failover_loses_nothing(self):
        trace, _, cluster, metrics = self._chaos_pair()
        assert metrics.num_requests == len(trace)
        assert metrics.output_tokens == sum(r.output_tokens for r in trace)
        assert metrics.failures == 1
        assert metrics.recoveries == 1
        assert metrics.rerouted_requests > 0
        assert metrics.dropped_kv_pages > 0
        assert cluster.validate_invariants() == []

    def test_failover_is_deterministic(self):
        trace, schedule, _, metrics = self._chaos_pair()
        again = _cluster(num_replicas=2, failures=schedule)
        assert json.dumps(metrics.to_dict()) == json.dumps(
            again.simulate(trace, record_events=True).to_dict()
        )

    def test_rerouted_requests_keep_their_original_arrival(self):
        trace, _, _, metrics = self._chaos_pair()
        by_id = {r.request_id: r for r in trace}
        for request in metrics.per_request:
            # The original arrival, on the picosecond grid every run keeps.
            original = by_id[request.request_id].arrival_s
            assert request.arrival_s == to_s(to_ps(original))
            assert request.latency_s > 0

    def test_routed_requests_count_every_route(self):
        # A request failover re-routes counts at each replica it was
        # routed to, as in routed_tokens and the routing record.
        trace = get_trace_generator("chatbot").generate(64, 40.0, seed=3)
        cluster = ClusterSimulator(
            make_cost_model("ianus"), GPT2_CONFIGS["m"], num_replicas=2,
            engine="array",
            failures=SingleFailure(replica=0, at_s=0.4, recover_after_s=0.5),
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.rerouted_requests > 0
        assert metrics.routed_requests == tuple(map(len, cluster.assignments))
        assert sum(metrics.routed_requests) == (
            len(trace) + metrics.rerouted_requests
        )
        assert metrics.routed_tokens == tuple(
            sum(request.total_tokens for request in assigned)
            for assigned in cluster.assignments
        )

    def test_failure_without_recovery_finishes_on_survivor(self):
        trace = _trace(num=24, rate=60.0)
        cluster = _cluster(
            num_replicas=2,
            failures=SingleFailure(replica=1, at_s=0.1, recover_after_s=None),
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.num_requests == len(trace)
        assert metrics.failures == 1 and metrics.recoveries == 0
        assert cluster.validate_invariants() == []

    def test_seeded_chaos_conserves_every_request(self):
        trace = _trace(num=50, rate=80.0)
        cluster = _cluster(
            num_replicas=3,
            failures=SeededFailures(
                seed=2, mtbf_s=0.15, horizon_s=1.0, recover_after_s=0.2
            ),
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.num_requests == len(trace)
        assert metrics.output_tokens == sum(r.output_tokens for r in trace)
        assert metrics.failures > 0
        assert cluster.validate_invariants() == []

    @pytest.mark.parametrize("autoscaler", [None, "fixed"])
    def test_killing_the_only_replica_raises(self, autoscaler):
        # A fixed fleet the schedule empties would die mid-run; it is
        # refused up front, naming both knobs — even when the replica
        # would come back later.  The fixed autoscaler never spawns a
        # replica, so its fleet is a fixed fleet too.
        for recover_after_s in (None, 0.5):
            with pytest.raises(ValueError, match="failures=.*num_replicas=1"):
                _cluster(
                    num_replicas=1,
                    failures=SingleFailure(
                        replica=0, at_s=0.05, recover_after_s=recover_after_s
                    ),
                    autoscaler=autoscaler,
                )
        # A survivor to fail over to makes the same schedule valid.
        _cluster(
            num_replicas=2,
            failures=SingleFailure(replica=0, at_s=0.05),
            autoscaler=autoscaler,
        )


class TestAutoscaling:
    def test_scale_up_under_load_and_clean_invariants(self):
        trace = _trace(num=60, rate=150.0)
        cluster = _cluster(
            num_replicas=1,
            autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                       max_replicas=4),
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.scale_ups > 0
        assert metrics.peak_replicas > 1
        assert metrics.num_requests == len(trace)
        assert metrics.warmup_s > 0
        assert cluster.validate_invariants() == []

    def test_spawned_replica_log_opens_with_scale_marker(self):
        trace = _trace(num=60, rate=150.0)
        cluster = _cluster(
            num_replicas=1,
            autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                       max_replicas=4),
        )
        cluster.simulate(trace, record_events=True)
        spawned_logs = cluster.events[1:]
        assert spawned_logs
        for log in spawned_logs:
            assert log[0].kind == "scale" and log[0].tokens == 1

    def test_autoscaled_run_is_deterministic(self):
        trace = _trace(num=60, rate=150.0)

        def run():
            cluster = _cluster(
                num_replicas=1,
                autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                           max_replicas=4),
            )
            return json.dumps(cluster.simulate(trace).to_dict())

        assert run() == run()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reused_autoscaled_fleet_is_deterministic(self, engine):
        # The fleet is one simulator: the replicas one simulate() spawns
        # are runs of it and leave nothing behind for the next one.
        trace = _trace(num=60, rate=150.0)
        cluster = _cluster(
            num_replicas=1, engine=engine,
            autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                       max_replicas=4),
        )
        first = cluster.simulate(trace)
        second = cluster.simulate(trace)
        assert first.scale_ups > 0
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_chaos_and_autoscaling_together(self):
        trace = _trace(
            num=70, rate=100.0, curve=DiurnalCurve(period_s=1.0, amplitude=0.6)
        )
        cluster = _cluster(
            num_replicas=2,
            failures=SeededFailures(
                seed=1, mtbf_s=0.3, horizon_s=1.0, recover_after_s=0.25
            ),
            autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                       max_replicas=5),
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert metrics.num_requests == len(trace)
        assert metrics.output_tokens == sum(r.output_tokens for r in trace)
        assert cluster.validate_invariants() == []


def _scanned_attainment(ops, now: float, window_s: float) -> "float | None":
    """The SLO window as a scan of every completion of every run: the
    oracle that ``_OpsState._window_attainment``'s cursors must match."""
    targets = ops.cluster.simulator.slo_targets
    last = len(targets) - 1
    start, now = to_ps(now - window_s), to_ps(now)
    met = total = 0
    for run in ops.runs:
        record = run.completions
        for arrival, completion, cls in zip(
            record.arrival, record.completion, record.priority_class
        ):
            if start <= completion <= now:
                total += 1
                if to_s(completion - arrival) <= targets[min(cls, last)]:
                    met += 1
    return None if total == 0 else met / total


@given(
    engine=st.sampled_from(ENGINES),
    record_events=st.booleans(),
    autoscaler=st.sampled_from(("queue-depth", "slo-attainment", "kv-pressure")),
    policy=st.sampled_from(("fcfs", "interleaved", "srpt")),
    router=st.sampled_from(("round-robin", "least-outstanding-tokens")),
    failures=st.booleans(),
    window=st.sampled_from((0.05, 0.2, 1.0)),
    load=st.sampled_from((0.5, 1.0, 2.0)),
    requests=st.integers(min_value=20, max_value=80),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_slo_window_cursors_match_the_scan(
    engine, record_events, autoscaler, policy, router, failures, window, load,
    requests, seed,
):
    """Every autoscaler signal's SLO attainment equals the scan's, on both
    engines, with and without events (without them the array engine's
    absorbers and bursts append completions a window at a time), with
    and without replica failures."""
    cost_model = make_cost_model("ianus")
    model = GPT2_CONFIGS["m"]
    generator = get_trace_generator("chatbot")
    rate = 2 * load / mean_service_time_s(cost_model, model, generator.workloads)
    horizon = requests / rate
    trace = generator.generate(requests, rate, seed=seed, num_classes=2)
    cluster = ClusterSimulator(
        cost_model, model, num_replicas=2, engine=engine, router=router,
        policy=policy, slo_targets=(0.03 * horizon, 2.0), num_classes=2,
        failures=SeededFailures(
            seed=seed, mtbf_s=horizon / 4, horizon_s=horizon,
            recover_after_s=horizon / 8, max_failures=1,
        ) if failures else None,
        autoscaler=make_autoscaler(
            autoscaler, max_replicas=4, window_s=window * horizon,
            cooldown_s=horizon / 10,
        ),
    )
    calls = []
    cursors = _OpsState._window_attainment

    def checked(ops, now, window_s):
        attainment = cursors(ops, now, window_s)
        calls.append((attainment, _scanned_attainment(ops, now, window_s)))
        return attainment

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_OpsState, "_window_attainment", checked)
        cluster.simulate(trace, record_events=record_events)
    assert len(calls) == requests
    assert [got for got, _ in calls] == [expected for _, expected in calls]


class _ScriptedAutoscaler(Autoscaler):
    """Returns ``script[k]`` at its k-th evaluation (0 when unscripted)."""

    name = "scripted"

    def __init__(self, script):
        super().__init__(max_replicas=4)
        self.script = script
        self.calls = 0

    def reset(self):
        super().reset()
        self.calls = 0

    def decide(self, signal):
        delta = self.script.get(self.calls, 0)
        self.calls += 1
        return delta


class TestRouteTimeCandidates:
    """Arrivals choose candidates by failover's rule: eligible replicas,
    else cancelled drains, else replicas still warming up.

    A replica killed while it holds no work has nothing to fail over, so
    the next arrival is the first to find no eligible replica.
    """

    def test_arrival_cancels_a_drain(self):
        trace = [Request(0, 0.0, 16, 4), Request(1, 0.5, 16, 4),
                 Request(2, 1.0, 16, 4)]
        for engine in ("object", "array"):
            # Drain at the second arrival (the idle newest replica, 1),
            # then kill idle replica 0 before the third arrives.
            cluster = _cluster(
                num_replicas=2, engine=engine,
                failures=SingleFailure(replica=0, at_s=0.7),
                autoscaler=_ScriptedAutoscaler({1: -1}),
            )
            metrics = cluster.simulate(trace, record_events=True)
            assert metrics.num_requests == len(trace)
            assert metrics.scale_downs == 0  # the drain was cancelled
            assert [r.request_id for r in cluster.assignments[1]] == [2]
            assert cluster.validate_invariants() == []

    def test_arrival_waits_for_a_warming_replica(self):
        warmup = replica_warmup_s(LinearCostModel(), MODEL)
        trace = [Request(0, 0.0, 16, 2), Request(1, warmup / 2, 16, 2)]
        for engine in ("object", "array"):
            # Spawn at the first arrival, then kill the only warm replica
            # (idle by then) while the spawned one still warms up.
            cluster = _cluster(
                num_replicas=1, engine=engine,
                failures=SingleFailure(replica=0, at_s=warmup / 4),
                autoscaler=_ScriptedAutoscaler({0: +1}),
            )
            metrics = cluster.simulate(trace, record_events=True)
            assert metrics.num_requests == len(trace)
            assert metrics.routed_requests == (1, 1)
            assert metrics.per_request[1].first_token_s >= warmup
            assert cluster.validate_invariants() == []

    @pytest.fixture(scope="class")
    def ianus(self):
        return make_cost_model("ianus")

    @pytest.mark.parametrize("autoscaler", ("queue-depth", "kv-pressure"))
    @pytest.mark.parametrize("replicas", (2, 3))
    def test_grid_completes_and_engines_agree(self, ianus, replicas, autoscaler):
        model = GPT2_CONFIGS["xl"]
        generator = get_trace_generator("skewed")
        rate = replicas / mean_service_time_s(ianus, model, generator.workloads)
        for seed in range(80, 90):
            trace = generator.generate(28, rate, seed=seed)
            reports = {}
            for engine in ("object", "array"):
                cluster = ClusterSimulator(
                    ianus, model, num_replicas=replicas, failures="single",
                    autoscaler=autoscaler, admission="optimistic",
                    kv_fraction=0.25, engine=engine,
                )
                metrics = cluster.simulate(trace, record_events=True)
                assert metrics.num_requests == 28, (seed, engine)
                assert cluster.validate_invariants() == [], (seed, engine)
                reports[engine] = json.dumps(metrics.to_dict())
            assert reports["object"] == reports["array"], seed


# ======================================================================
class TestTamperedOpsLogs:
    """Every new event kind must be caught when forged or deleted."""

    def _failover_logs(self):
        trace = _trace(num=40, rate=60.0)
        cluster = _cluster(
            num_replicas=2,
            failures=SingleFailure(replica=0, at_s=0.15, recover_after_s=0.2),
        )
        cluster.simulate(trace, record_events=True)
        assert cluster.validate_invariants() == []
        replica = cluster.simulator
        return (
            [list(log) for log in cluster.events],
            trace,
            dict(routed=cluster.assignments, page_tokens=replica.page_tokens,
                 admission=replica.admission, initial_replicas=2),
        )

    def _find(self, log, kind):
        for index, event in enumerate(log):
            if event.kind == kind:
                return index
        raise AssertionError(f"no {kind!r} event recorded")

    def test_sound_failover_logs_pass(self):
        logs, trace, kwargs = self._failover_logs()
        assert check_cluster_invariants(logs, trace, **kwargs) == []

    def test_forged_fail_page_count_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[0], "fail")
        logs[0][index] = dataclasses.replace(
            logs[0][index], tokens=logs[0][index].tokens + 1
        )
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("failure dropped" in v and "page" in v for v in violations)

    def test_forged_fail_victim_list_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[0], "fail")
        event = logs[0][index]
        logs[0][index] = dataclasses.replace(
            event, decode_ids=tuple(event.decode_ids) + (9999,)
        )
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("in flight" in v for v in violations)

    def test_deleted_fail_event_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[0], "fail")
        del logs[0][index]
        assert check_cluster_invariants(logs, trace, **kwargs) != []

    def test_deleted_recover_event_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[0], "recover")
        del logs[0][index]
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("failed replica before its recovery" in v for v in violations)

    def test_recover_without_failure_is_caught(self):
        logs, trace, kwargs = self._failover_logs()
        index = self._find(logs[1], "complete")
        logs[1].insert(
            index,
            dataclasses.replace(logs[1][index], kind="recover", tokens=0,
                                request_id=None, decode_ids=()),
        )
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("recovery without a preceding failure" in v
                   for v in violations)

    def test_first_routes_alone_do_not_explain_failover(self):
        logs, trace, kwargs = self._failover_logs()
        routed = kwargs["routed"]
        routes = Counter(r.request_id for assigned in routed for r in assigned)
        rerouted = {rid for rid, count in routes.items() if count > 1}
        assert rerouted
        # Only replica 0 fails, so every re-routed request was first
        # routed there: drop its later routes.
        first_only = [routed[0]] + [
            [r for r in assigned if r.request_id not in rerouted]
            for assigned in routed[1:]
        ]
        assert check_cluster_invariants(logs, trace, **kwargs) == []
        assert check_cluster_invariants(
            logs, trace, **dict(kwargs, routed=first_only)
        ) != []

    def test_routing_record_must_cover_every_log(self):
        logs, trace, kwargs = self._failover_logs()
        with pytest.raises(ValueError, match="routing record"):
            check_cluster_invariants(
                logs, trace, **dict(kwargs, routed=kwargs["routed"][:1])
            )

    def test_dropped_completion_is_caught_globally(self):
        logs, trace, kwargs = self._failover_logs()
        for log in logs:
            for index, event in enumerate(log):
                if event.kind == "complete":
                    del log[index]
                    break
            else:
                continue
            break
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("never completed" in v or "left in flight" in v
                   for v in violations)

    def _autoscaled_logs(self):
        trace = _trace(num=60, rate=150.0)
        cluster = _cluster(
            num_replicas=1,
            autoscaler=make_autoscaler("queue-depth", high=2.0, low=0.3,
                                       max_replicas=4),
        )
        cluster.simulate(trace, record_events=True)
        assert cluster.validate_invariants() == []
        replica = cluster.simulator
        return (
            [list(log) for log in cluster.events],
            trace,
            dict(routed=cluster.assignments, page_tokens=replica.page_tokens,
                 admission=replica.admission, initial_replicas=1),
        )

    def test_sound_autoscaled_logs_pass(self):
        logs, trace, kwargs = self._autoscaled_logs()
        assert check_cluster_invariants(logs, trace, **kwargs) == []

    def test_deleted_scale_up_marker_is_caught(self):
        logs, trace, kwargs = self._autoscaled_logs()
        assert logs[1][0].kind == "scale"
        del logs[1][0]
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("scale-up marker" in v for v in violations)

    def test_misplaced_scale_up_marker_is_caught(self):
        logs, trace, kwargs = self._autoscaled_logs()
        marker = logs[1].pop(0)
        logs[1].insert(2, marker)
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("scale-up marker must be the replica's first event" in v
                   for v in violations)

    def test_forged_scale_delta_is_caught(self):
        logs, trace, kwargs = self._autoscaled_logs()
        logs[1][0] = dataclasses.replace(logs[1][0], tokens=2)
        violations = check_cluster_invariants(logs, trace, **kwargs)
        assert any("must carry +1 (spawn) or -1 (drain)" in v
                   for v in violations)


class TestRoutingRecord:
    """Every fleet, fixed or not, is held to its routing record."""

    @pytest.mark.parametrize(
        "ops",
        ({}, dict(failures="single", autoscaler="queue-depth")),
        ids=("fixed", "failover-autoscaled"),
    )
    def test_request_moved_between_replicas_is_caught(self, ops):
        cost_model = make_cost_model("ianus")
        model = GPT2_CONFIGS["m"]
        generator = get_trace_generator("chatbot")
        service_s = mean_service_time_s(cost_model, model, generator.workloads)
        trace = generator.generate(120, 1.6 / service_s, seed=3)
        cluster = ClusterSimulator(
            cost_model, model, num_replicas=2, engine="array", **ops
        )
        metrics = cluster.simulate(trace, record_events=True)
        assert (metrics.rerouted_requests > 0) == bool(ops)
        assert cluster.validate_invariants() == []
        routes = Counter(
            r.request_id for assigned in cluster.assignments for r in assigned
        )
        moved = next(
            r for r in cluster.assignments[0] if routes[r.request_id] == 1
        )
        first, second, *spawned = cluster.assignments
        cluster.assignments = [
            tuple(r for r in first if r is not moved), (*second, moved),
            *spawned,
        ]
        assert cluster.validate_invariants() != []

    def test_forged_failure_cannot_explain_a_second_admission(self):
        # A fixed fleet re-routes nothing, so a forged fail + recover that
        # balances a re-admission in the global books is still caught.
        cluster = _cluster(num_replicas=2)
        cluster.simulate(_trace(num=40, rate=60.0), record_events=True)
        assert cluster.validate_invariants() == []
        log = cluster.events[0]
        index, admit = next(
            (i, e) for i, e in enumerate(log)
            if e.kind == "admit" and e.active == 1
        )
        fail = dataclasses.replace(
            admit, kind="fail", request_id=None,
            tokens=admit.kv_reserved_pages, decode_ids=(admit.request_id,),
            active=0, kv_reserved_pages=0,
        )
        recover = dataclasses.replace(fail, kind="recover", tokens=0,
                                      decode_ids=())
        cluster.events[0] = log[:index + 1] + [fail, recover] + log[index:]
        assert cluster.validate_invariants() == [
            f"request {admit.request_id}: 1 failure drop(s) but 0 "
            "re-route(s) — failover re-routes every request a failure drops"
        ]


# ======================================================================
class TestChaosExperimentWiring:
    def test_registry_knows_chaos(self):
        from repro.experiments.registry import EXPERIMENTS, SWEEPS, get_sweep

        assert "chaos" in EXPERIMENTS
        assert "chaos" in SWEEPS
        sweep = get_sweep("chaos", fast=True)
        cell_ids = {cell.cell_id for cell in sweep.cells}
        assert "diff/inert-cluster" in cell_ids
        assert "failover/single" in cell_ids
        assert any(cid.startswith("frontier/") for cid in cell_ids)


class TestOpsCli:
    def test_serve_with_ops_flags_validates_clean(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--model", "gpt2-m", "--backend", "ianus",
            "--replicas", "2", "--trace", "chatbot", "--requests", "12",
            "--rate", "30", "--slo", "0.5",
            "--failures", "single:at-s=0.1,recover-after-s=0.2",
            "--autoscaler", "queue-depth:high=3,max-replicas=3",
            "--trace-curve", "step:at-s=0.2,after=2",
            "--validate", "--no-disk-cache",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "invariants      : OK" in output
        assert "ops             :" in output

    @pytest.mark.parametrize("engine", ("object", "array"))
    def test_arrival_after_idle_failure_mid_drain_validates_clean(
        self, capsys, engine
    ):
        # Replica 1 is draining when replica 0 dies holding no work; the
        # next arrival must cancel the drain rather than find no replica.
        from repro.cli import main

        code = main([
            "serve", "--model", "gpt2-xl", "--trace", "skewed",
            "--requests", "28", "--seed", "85", "--load", "1.0",
            "--replicas", "2", "--failures", "single",
            "--autoscaler", "queue-depth", "--engine", engine,
            "--validate", "--no-disk-cache",
        ])
        assert code == 0
        assert "invariants      : OK" in capsys.readouterr().out

    def test_ops_flags_force_cluster_path_at_one_replica(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--model", "gpt2-m", "--backend", "ianus",
            "--trace", "chatbot", "--requests", "8", "--rate", "20",
            "--autoscaler", "fixed", "--validate", "--no-disk-cache",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "cluster" in output

    def test_bad_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "--requests", "4", "--rate", "10",
            "--failures", "meteor:at-s=1", "--no-disk-cache",
        ]) == 2
        assert "unknown failure schedule" in capsys.readouterr().err

        assert main([
            "serve", "--requests", "4", "--rate", "10",
            "--failures", "single:at-s", "--no-disk-cache",
        ]) == 2
        assert "expected name" in capsys.readouterr().err

        assert main([
            "serve", "--requests", "4", "--rate", "10",
            "--autoscaler", "queue-depth:bogus=1", "--no-disk-cache",
        ]) == 2
        assert (
            "autoscaler 'queue-depth' does not accept bogus"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag, spec, knob",
        [
            ("--trace-curve", "diurnal:period-s=nan", "period_s"),
            ("--trace-curve", "constant:scale=inf", "scale"),
            ("--failures", "single:at-s=nan", "at_s"),
            ("--autoscaler", "queue-depth:cooldown-s=nan", "cooldown_s"),
        ],
    )
    def test_nan_spec_knob_exits_2(self, flag, spec, knob, capsys):
        from repro.cli import main

        assert main([
            "serve", "--requests", "4", "--rate", "10", flag, spec,
            "--no-disk-cache",
        ]) == 2
        assert knob in capsys.readouterr().err

    @pytest.mark.parametrize(
        "autoscaler", [[], ["--autoscaler", "fixed"]], ids=["none", "fixed"]
    )
    def test_failures_that_empty_a_fixed_fleet_exit_2(self, autoscaler, capsys):
        from repro.cli import main

        assert main([
            "serve", "--replicas", "1", "--failures", "single", *autoscaler,
            "--requests", "4", "--rate", "10", "--no-disk-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "failures=" in err and "num_replicas=1" in err

    def test_list_shows_ops_registries(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "failure schedules" in output
        assert "autoscalers" in output
        assert "trace curves" in output
        for name in ("single", "seeded", "queue-depth", "slo-attainment",
                     "diurnal", "flash-crowd"):
            assert name in output
