"""Multi-model, multi-tenant serving (PR 10).

Covers the co-hosted model-set tentpole — weight-swap pricing, model-aware
routing, per-(model, class) attainment — and the bugfix sweep riding along:
the num_classes/slo_targets construction check, the unified replica-seconds
definition (including the fast-recovery double-billing case), and the
finite load-imbalance ratio for starved replicas.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.costmodel import make_cost_model
from repro.models import get_model
from repro.serving import (
    ENGINES,
    ROUTERS,
    ClusterSimulator,
    ServingSimulator,
    check_invariants,
    get_trace_generator,
    make_policy,
)
from repro.serving.cluster import ModelAwareRouter, ReplicaSnapshot
from repro.serving.failures import SingleFailure
from repro.serving.request import Request, to_ps, to_s
from repro.serving.validate import expand_runs

BACKEND = "ianus"
DEFAULT = "gpt2-xl"
SECOND = "gemma-1b"
MODEL_MIX = [(DEFAULT, 0.6), (SECOND, 0.4)]


@pytest.fixture(scope="module")
def cost_model():
    return make_cost_model(BACKEND)


@pytest.fixture(scope="module")
def plain_trace():
    return get_trace_generator("chatbot").generate(40, 20.0, seed=3)


@pytest.fixture(scope="module")
def mixed_trace():
    return get_trace_generator("chatbot").generate(
        60, 30.0, seed=5, model_mix=MODEL_MIX
    )


def _model_set():
    return (get_model(DEFAULT), get_model(SECOND))


# ----------------------------------------------------------------------
# Tentpole: single-member set is the legacy path, byte for byte
# ----------------------------------------------------------------------
class TestSingleModelByteIdentity:
    @pytest.mark.parametrize("engine", tuple(ENGINES))
    def test_singleton_set_matches_legacy_simulator(
        self, cost_model, plain_trace, engine
    ):
        model = get_model(DEFAULT)
        legacy = ServingSimulator(cost_model, model, engine=engine)
        legacy_metrics = legacy.simulate(plain_trace, record_events=True)
        singleton = ServingSimulator(
            cost_model, model, engine=engine, models=(model,)
        )
        singleton_metrics = singleton.simulate(plain_trace, record_events=True)
        assert not singleton.multi_model
        assert legacy.events == singleton.events
        assert legacy_metrics.to_dict() == singleton_metrics.to_dict()

    def test_single_model_dict_has_no_multi_model_keys(
        self, cost_model, plain_trace
    ):
        model = get_model(DEFAULT)
        simulator = ServingSimulator(cost_model, model, models=(model,))
        data = simulator.simulate(plain_trace).to_dict()
        for key in ("models", "model_swaps", "model_swap_s",
                    "slo_by_model_class"):
            assert key not in data
        assert all("model" not in row for row in data["per_request"])

    @pytest.mark.parametrize("router", tuple(ROUTERS))
    @pytest.mark.parametrize("engine", tuple(ENGINES))
    def test_singleton_set_matches_legacy_cluster(
        self, cost_model, plain_trace, router, engine
    ):
        model = get_model(DEFAULT)

        def simulate(models):
            cluster = ClusterSimulator(
                cost_model, model, num_replicas=2, router=router,
                engine=engine, models=models,
            )
            metrics = cluster.simulate(plain_trace, record_events=True)
            return metrics, cluster.events

        legacy_metrics, legacy_events = simulate(None)
        singleton_metrics, singleton_events = simulate((model,))
        assert legacy_events == singleton_events
        assert legacy_metrics.to_dict() == singleton_metrics.to_dict()
        for key in ("models", "model_swaps", "model_swap_s",
                    "slo_by_model_class"):
            assert key not in legacy_metrics.to_dict()


# ----------------------------------------------------------------------
# Tentpole: engines agree on real model sets; swap events replay clean
# ----------------------------------------------------------------------
class TestMultiModelEngines:
    @pytest.mark.parametrize("policy", ("fcfs", "interleaved", "srpt", "priority"))
    def test_engines_byte_identical_with_model_set(
        self, cost_model, mixed_trace, policy
    ):
        runs = {}
        for engine in ENGINES:
            simulator = ServingSimulator(
                cost_model, get_model(DEFAULT), engine=engine,
                models=_model_set(), policy=policy,
            )
            metrics = simulator.simulate(mixed_trace, record_events=True)
            runs[engine] = (metrics.to_dict(), simulator.events)
        reference_dict, reference_events = runs["object"]
        assert reference_dict["model_swaps"] > 0
        # The array log aggregates its decode runs; expanded, it is the
        # object engine's per-iteration log.
        assert any(event.kind == "decode_run" for event in runs["array"][1])
        for engine, (data, events) in runs.items():
            assert data == reference_dict, engine
            assert expand_runs(events) == reference_events, engine

    def test_swap_costs_stretch_the_makespan(self, cost_model, mixed_trace):
        mixed = ServingSimulator(
            cost_model, get_model(DEFAULT), models=_model_set()
        ).simulate(mixed_trace)
        assert mixed.model_swap_s > 0.0
        # The same arrivals with every request served by the default model
        # pay no swaps and finish sooner.
        single = ServingSimulator(cost_model, get_model(DEFAULT)).simulate(
            tuple(replace(request, model="") for request in mixed_trace)
        )
        assert single.makespan_s < mixed.makespan_s

    def test_model_swap_events_replay_clean(self, cost_model, mixed_trace):
        simulator = ServingSimulator(
            cost_model, get_model(DEFAULT), models=_model_set()
        )
        simulator.simulate(mixed_trace, record_events=True)
        assert any(e.kind == "model_swap" for e in simulator.events)
        assert check_invariants(
            simulator.events, mixed_trace, default_model=DEFAULT
        ) == []


class TestModelSwapTampering:
    @pytest.fixture()
    def events_and_trace(self, cost_model, mixed_trace):
        simulator = ServingSimulator(
            cost_model, get_model(DEFAULT), models=_model_set()
        )
        simulator.simulate(mixed_trace, record_events=True)
        return list(simulator.events), mixed_trace

    def _violations(self, events, trace):
        return check_invariants(events, trace, default_model=DEFAULT)

    def test_retargeted_swap_is_caught(self, events_and_trace):
        events, trace = events_and_trace
        index = next(
            i for i, e in enumerate(events) if e.kind == "model_swap"
        )
        other = SECOND if events[index].model == DEFAULT else DEFAULT
        events[index] = replace(events[index], model=other)
        assert self._violations(events, trace)

    def test_deleted_swap_is_caught(self, events_and_trace):
        events, trace = events_and_trace
        index = next(
            i for i, e in enumerate(events) if e.kind == "model_swap"
        )
        del events[index]
        assert self._violations(events, trace)

    def test_zero_byte_swap_is_caught(self, events_and_trace):
        events, trace = events_and_trace
        index = next(
            i for i, e in enumerate(events) if e.kind == "model_swap"
        )
        events[index] = replace(events[index], tokens=0)
        assert self._violations(events, trace)

    def test_no_op_swap_is_caught(self, events_and_trace):
        events, trace = events_and_trace
        index = next(
            i for i, e in enumerate(events) if e.kind == "model_swap"
        )
        # A second swap to the already-resident model streams bytes for
        # nothing — the checker rejects it.
        events.insert(index + 1, events[index])
        assert self._violations(events, trace)


# ----------------------------------------------------------------------
# Tentpole: model-aware routing
# ----------------------------------------------------------------------
class TestModelAwareRouter:
    def test_registered(self):
        assert ROUTERS["model-aware"] is ModelAwareRouter

    def _snapshot(self, index, resident_model, outstanding=0, free=100):
        return ReplicaSnapshot(
            index=index, outstanding_requests=0,
            outstanding_tokens=outstanding, free_kv_pages=free,
            total_kv_pages=100, resident_model=resident_model,
        )

    def test_prefers_resident_match_over_load(self):
        router = ModelAwareRouter()
        request = Request(0, 0.0, 16, 4, model=SECOND)
        snapshots = [
            self._snapshot(0, "", outstanding=0),
            self._snapshot(1, SECOND, outstanding=500),
        ]
        assert router.select(snapshots, request) == 1

    def test_breaks_ties_on_outstanding_tokens(self):
        router = ModelAwareRouter()
        request = Request(0, 0.0, 16, 4)  # wants the default model
        snapshots = [
            self._snapshot(0, "", outstanding=300),
            self._snapshot(1, "", outstanding=10),
        ]
        assert router.select(snapshots, request) == 1

    def test_cluster_beats_model_blind_baseline(self, cost_model):
        models = (get_model(DEFAULT), get_model(SECOND), get_model("gemma-2b"))
        trace = get_trace_generator("chatbot").generate(
            90, 16.0, seed=11, num_classes=2,
            model_mix=[(member.name, 1.0) for member in models],
        )
        results = {}
        for router in ("round-robin", "model-aware"):
            cluster = ClusterSimulator(
                cost_model, models[0], num_replicas=3, router=router,
                models=models, slo_targets=(0.5, 2.0), num_classes=2,
            )
            results[router] = cluster.simulate(trace)
        assert (
            results["model-aware"].slo_attainment
            > results["round-robin"].slo_attainment
        )

    def test_cluster_reports_per_model_class_attainment(self, cost_model):
        trace = get_trace_generator("chatbot").generate(
            40, 20.0, seed=7, num_classes=2, model_mix=MODEL_MIX
        )
        cluster = ClusterSimulator(
            cost_model, get_model(DEFAULT), num_replicas=2,
            router="model-aware", models=_model_set(),
            slo_targets=(0.5, 2.0), num_classes=2,
        )
        metrics = cluster.simulate(trace)
        data = metrics.to_dict(include_requests=False, include_replicas=False)
        assert data["models"] == [DEFAULT, SECOND]
        assert set(data["slo_by_model_class"]) <= {
            f"{name}/{cls}" for name in (DEFAULT, SECOND) for cls in (0, 1)
        }
        assert data["slo_by_model_class"]
        for value in data["slo_by_model_class"].values():
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("engine", tuple(ENGINES))
    def test_attainment_shares_are_python_floats(self, cost_model, engine):
        # NumPy counts would make each share a numpy.float64, and a
        # comparison of two of them a numpy.bool that json rejects.
        trace = get_trace_generator("chatbot").generate(
            40, 20.0, seed=7, num_classes=2, model_mix=MODEL_MIX
        )
        single = ServingSimulator(
            cost_model, get_model(DEFAULT), engine=engine,
            slo_targets=(0.5, 2.0), num_classes=2,
        ).simulate([replace(request, model="") for request in trace])
        fleet = ClusterSimulator(
            cost_model, get_model(DEFAULT), num_replicas=2, engine=engine,
            router="model-aware", models=_model_set(),
            slo_targets=(0.5, 2.0), num_classes=2,
        ).simulate(trace)
        assert fleet.slo_by_model_class
        for metrics in (single, fleet):
            shares = [
                metrics.slo_attainment,
                *metrics.slo_by_class.values(),
                *metrics.slo_by_model_class.values(),
            ]
            assert all(type(share) is float for share in shares), shares


# ----------------------------------------------------------------------
# Tenant isolation: per-class admission shares
# ----------------------------------------------------------------------
class TestClassShares:
    def _flood_trace(self):
        # A sustained class-0 flood with sparse class-1 work behind it:
        # strict priority admits class 0 first at every freed slot, so
        # without reservations the premium tenant starves class 1 of
        # admission entirely until its flood drains.
        requests = [
            Request(i, 0.02 * i, 128, 64, priority_class=0)
            for i in range(40)
        ]
        requests += [
            Request(40 + i, 0.1 + 0.3 * i, 128, 8, priority_class=1)
            for i in range(6)
        ]
        return tuple(sorted(requests, key=lambda r: r.arrival_s))

    def test_reservation_protects_the_reserved_class(self, cost_model):
        trace = self._flood_trace()
        model = get_model(DEFAULT)

        def mean_ttft(policy):
            metrics = ServingSimulator(
                cost_model, model, policy=policy, max_batch=8
            ).simulate(trace)
            by_class = {}
            for cls in (0, 1):
                rows = [m for m in metrics.per_request if m.priority_class == cls]
                by_class[cls] = sum(m.ttft_s for m in rows) / len(rows)
            return by_class

        without = mean_ttft(make_policy("priority", max_batch=8))
        shared = mean_ttft(
            make_policy("priority", max_batch=8, class_shares=(0.5, 0.25))
        )
        # The reserved lower class stops waiting behind the whole flood...
        assert shared[1] < without[1] / 2
        # ...without the premium class losing its strict-priority service
        # (it pays at most the two reserved slots).
        assert shared[0] < without[0] * 1.5

    def test_shares_validated_at_construction(self):
        with pytest.raises(ValueError, match="sum"):
            make_policy("priority", max_batch=8, class_shares=(0.9, 0.9))
        with pytest.raises(ValueError, match="fraction"):
            make_policy("priority", max_batch=8, class_shares=(1.5,))

    @pytest.mark.parametrize("engine", tuple(ENGINES))
    def test_engines_agree_under_shares(self, cost_model, engine):
        trace = self._flood_trace()
        model = get_model(DEFAULT)
        reference = ServingSimulator(
            cost_model, model, engine="object",
            policy=make_policy("priority", max_batch=8, class_shares=(0.5, 0.25)),
        )
        reference_metrics = reference.simulate(trace, record_events=True)
        candidate = ServingSimulator(
            cost_model, model, engine=engine,
            policy=make_policy("priority", max_batch=8, class_shares=(0.5, 0.25)),
        )
        candidate_metrics = candidate.simulate(trace, record_events=True)
        if engine == "array":
            assert any(event.kind == "decode_run" for event in candidate.events)
        assert reference.events == expand_runs(candidate.events)
        assert reference_metrics.to_dict() == candidate_metrics.to_dict()


# ----------------------------------------------------------------------
# Bugfix sweep
# ----------------------------------------------------------------------
class TestSloTargetsValidation:
    def test_mismatched_targets_rejected_at_construction(self, cost_model):
        with pytest.raises(ValueError, match="3 target"):
            ServingSimulator(
                cost_model, get_model(DEFAULT),
                slo_targets=(0.5, 1.0, 2.0), num_classes=2,
            )

    def test_shared_single_target_allowed(self, cost_model):
        ServingSimulator(
            cost_model, get_model(DEFAULT), slo_targets=(1.0,), num_classes=3
        )

    def test_one_target_per_class_allowed(self, cost_model):
        ServingSimulator(
            cost_model, get_model(DEFAULT),
            slo_targets=(0.5, 2.0), num_classes=2,
        )

    def test_nan_target_rejected_at_construction(self, cost_model):
        # NaN fails every comparison, so a ``<= 0`` check lets it through.
        with pytest.raises(ValueError, match="slo_targets"):
            ServingSimulator(
                cost_model, get_model(DEFAULT), engine="array",
                slo_targets=(0.5, float("nan")),
            )


class TestReplicaSecondsAccounting:
    def test_inert_autoscaler_matches_fixed_fleet(self, cost_model):
        trace = get_trace_generator("chatbot").generate(120, 30.0, seed=3)
        model = get_model(DEFAULT)
        fixed = ClusterSimulator(cost_model, model, num_replicas=3).simulate(
            trace
        )
        metered = ClusterSimulator(
            cost_model, model, num_replicas=3, autoscaler="fixed"
        ).simulate(trace)
        # One meter bills every fleet: a fixed fleet's reads exactly
        # R x makespan in picoseconds (the makespan round-trips exactly at
        # this scale), and the inert autoscaler's fleet reads the same.
        assert fixed.replica_seconds == to_s(3 * to_ps(fixed.makespan_s))
        assert metered.replica_seconds == fixed.replica_seconds
        assert metered.utilization == fixed.utilization

    def test_fast_recovery_does_not_double_bill(self, cost_model):
        # Long prefills keep the straddling pass running past a 0.1 ms
        # recovery: the billing segment reopened inside the already-billed
        # window used to count the overlap twice.
        model = get_model(DEFAULT)
        trace = (Request(0, 0.0, 2048, 64), Request(1, 0.0, 2048, 64))
        schedule = SingleFailure(replica=1, at_s=0.07, recover_after_s=1e-4)
        metrics = ClusterSimulator(
            cost_model, model, num_replicas=2, failures=schedule
        ).simulate(trace)
        assert metrics.failures == 1 and metrics.recoveries == 1
        ceiling = len(metrics.per_replica) * metrics.makespan_s
        assert metrics.replica_seconds <= ceiling + 1e-9


class TestLoadImbalance:
    def test_single_survivor_failover_is_finite(self, cost_model):
        # Replica 1 dies before any arrival: every request lands on the
        # survivor and the dead replica routed nothing.  The skew ratio
        # is over participating replicas — never inf.
        trace = get_trace_generator("chatbot").generate(30, 10.0, seed=1)
        schedule = SingleFailure(replica=1, at_s=0.0)
        metrics = ClusterSimulator(
            cost_model, get_model(DEFAULT), num_replicas=2,
            failures=schedule, router="least-outstanding-tokens",
        ).simulate(trace)
        assert 0 in metrics.routed_tokens
        assert metrics.load_imbalance == 1.0

    def test_balanced_fleet_ratio_unchanged(self, cost_model):
        trace = get_trace_generator("chatbot").generate(40, 20.0, seed=2)
        metrics = ClusterSimulator(
            cost_model, get_model(DEFAULT), num_replicas=2
        ).simulate(trace)
        tokens = metrics.routed_tokens
        assert metrics.load_imbalance == max(tokens) / min(tokens)


# ----------------------------------------------------------------------
# CLI validation
# ----------------------------------------------------------------------
class TestCliValidation:
    def test_unknown_model_in_models_lists_the_zoo(self, capsys):
        from repro.cli import main
        from repro.models import ALL_MODELS

        assert main(["serve", "--models", "gpt2-xl,not-a-model"]) == 2
        err = capsys.readouterr().err
        assert "not-a-model" in err
        for name in ALL_MODELS:
            assert name in err

    def test_default_model_must_be_in_the_set(self, capsys):
        from repro.cli import main

        assert main(["serve", "--model", "gpt2-m",
                     "--models", "gpt2-xl,gemma-1b"]) == 2
        assert "must be a member" in capsys.readouterr().err

    def test_tenant_slo_requires_priority_policy(self, capsys):
        from repro.cli import main

        assert main(["serve", "--tenant-slo", "0.5,0.25"]) == 2
        assert "priority" in capsys.readouterr().err

    def test_tenant_slo_rejects_unparseable_shares(self, capsys):
        from repro.cli import main

        assert main(["serve", "--policy", "priority",
                     "--tenant-slo", "half"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_tenant_slo_rejects_oversubscribed_shares(self, capsys):
        from repro.cli import main

        assert main(["serve", "--policy", "priority",
                     "--tenant-slo", "0.9,0.9", "--rate", "5",
                     "--requests", "2"]) == 2
        assert "sum" in capsys.readouterr().err

    def test_multi_model_serve_runs_end_to_end(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--models", "gpt2-xl,gemma-1b", "--requests", "12",
            "--rate", "10", "--engine", "array", "--validate",
            "--no-disk-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "model set" in out
        assert "invariants      : OK" in out
