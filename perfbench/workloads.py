"""The benchmark's four workloads.

A workload is a fixed list of independent *operations* (one exact-mode
inference, one simulated day, one fleet simulation, ...), split the same
way for every workload:

* ``inputs(seed)`` runs in the benchmark driver and turns the seed into
  the plain-data inputs the program receives: per-operation seeds for the
  program's own trace generator and failure schedule, sizes and relative
  loads.  It imports nothing from the simulator.
* ``setup(inputs)`` runs in a fresh interpreter before the timer starts:
  backend and simulator construction plus load calibration.
* ``run(state, op)`` is the timed work of one operation.  Every workload
  runs the production array engine.
* ``check(state, op, outcome)`` runs after the timer and returns
  ``attempted``/``failed``/``errors``, the simulated requests and passes,
  the deterministic simulated statistics, and the payload that is digested
  to show two commits simulate identically.

Several smaller independent operations rather than one large one keep the
simulated work of a run nearly independent of the seed (a single fleet
simulation's failures and scaling decisions swing its work by ~10% from
seed to seed; eight independent ones average that out) and let the driver
take a median per operation.  Why each workload exists, and which layer
it loads, is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import random

#: Relative tolerance between exact and fast mode on ``paper-exact`` (the
#: bound the system tests pin for the fast-mode integration).
FAST_MODE_TOLERANCE = 0.02

#: Simulated statistics every workload reports (zero where not exercised).
#: Over a run's operations they are summed, except ``mean_decode_batch``
#: (decode-pass weighted mean) and ``kv_peak_pages`` (maximum);
#: ``passes_priced`` counts the distinct passes the process priced.
SIM_STATS = (
    "decode_passes",
    "mean_decode_batch",
    "preemptions",
    "swap_outs",
    "recomputed_tokens",
    "model_swaps",
    "kv_peak_pages",
    "rerouted_requests",
    "scale_ups",
    "passes_priced",
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def pass_cache_misses() -> int:
    """Distinct passes priced so far in this process."""
    from repro.perf.cache import global_pass_cache

    return global_pass_cache().misses


def _sim_stats(**values) -> dict:
    stats = dict.fromkeys(SIM_STATS, 0)
    stats.update(values)
    return stats


def _served(metrics, replicas, trace_requests, trace_tokens, errors) -> dict:
    """The check record of one serving operation."""
    if metrics.num_requests != trace_requests:
        errors.append(f"completed {metrics.num_requests} of {trace_requests} requests")
    if metrics.output_tokens != trace_tokens:
        errors.append(
            f"produced {metrics.output_tokens} of {trace_tokens} output tokens"
        )
    decode_passes = sum(replica.decode_passes for replica in replicas)
    decoded = sum(r.mean_decode_batch * r.decode_passes for r in replicas)
    return {
        "attempted": 1,
        "failed": 1 if errors else 0,
        "errors": errors,
        "requests": metrics.num_requests,
        "passes": sum(r.prefill_passes + r.decode_passes for r in replicas),
        "sim": _sim_stats(
            decode_passes=decode_passes,
            mean_decode_batch=decoded / decode_passes if decode_passes else 0.0,
            preemptions=metrics.preemptions,
            swap_outs=sum(replica.swap_outs for replica in replicas),
            recomputed_tokens=metrics.recomputed_tokens,
            model_swaps=metrics.model_swaps,
            kv_peak_pages=metrics.kv_peak_pages,
            rerouted_requests=getattr(metrics, "rerouted_requests", 0),
            scale_ups=getattr(metrics, "scale_ups", 0),
        ),
        "payload": metrics.to_dict(include_requests=False),
    }


# ----------------------------------------------------------------------
class PaperExact:
    """Exact-mode single-request inference over the paper's GPT-2 sizes
    and the three memory organisations: compile → schedule → timeline.
    One operation is one (model, design) ``run``."""

    name = "paper-exact"
    models = ("gpt2-m", "gpt2-xl", "gpt2-2.5b")
    designs = ("ianus", "npu-mem", "partitioned")

    @classmethod
    def inputs(cls, seed: int) -> dict:
        return {
            "ops": [{"model": m, "design": d} for m in cls.models for d in cls.designs],
            # Distinct prompt lengths per seed make every decode KV length
            # a distinct pass across seeds too.
            "input_tokens": 128 + _rng(cls.name, seed).randrange(32),
            "output_tokens": 256,
        }

    @staticmethod
    def size(inputs: dict) -> dict:
        return {
            "operations": len(inputs["ops"]),
            "input_tokens": inputs["input_tokens"],
            "output_tokens": inputs["output_tokens"],
        }

    @staticmethod
    def setup(inputs: dict) -> dict:
        from repro.core.costmodel import make_cost_model
        from repro.models import get_model
        from repro.models.workload import Workload

        ops = inputs["ops"]
        return {
            "systems": {op["design"]: make_cost_model(op["design"]) for op in ops},
            "models": {op["model"]: get_model(op["model"]) for op in ops},
            "workload": Workload(inputs["input_tokens"], inputs["output_tokens"]),
            "ops": ops,
        }

    @staticmethod
    def run(state: dict, op: int) -> dict:
        spec = state["ops"][op]
        misses = pass_cache_misses()
        result = state["systems"][spec["design"]].run(
            state["models"][spec["model"]], state["workload"], mode="exact"
        )
        return {"result": result, "passes": pass_cache_misses() - misses}

    @staticmethod
    def check(state: dict, op: int, outcome: dict) -> dict:
        spec = state["ops"][op]
        exact = outcome["result"]
        fast = state["systems"][spec["design"]].run(
            state["models"][spec["model"]], state["workload"]
        )
        errors = []
        drift = abs(fast.total_latency_s - exact.total_latency_s)
        if drift > FAST_MODE_TOLERANCE * exact.total_latency_s:
            errors.append(
                f"{spec['model']}/{spec['design']}: exact "
                f"{exact.total_latency_s!r} s vs fast {fast.total_latency_s!r} s"
            )
        return {
            "attempted": 1,
            "failed": 1 if errors else 0,
            "errors": errors,
            "requests": 1,
            "passes": outcome["passes"],
            "sim": _sim_stats(
                decode_passes=exact.generation.num_tokens,
                mean_decode_batch=1.0,
            ),
            "payload": {
                "summarization_s": exact.summarization.latency_s,
                "generation_s": exact.generation.latency_s,
                "energy_j": exact.energy.total_j,
                "flops": exact.total_flops,
                "breakdown": exact.breakdown,
            },
        }


# ----------------------------------------------------------------------
class _Serving:
    """Shared set-up of the serving workloads (GPT-2 XL ``chatbot`` mix on
    IANUS, offered load relative to the mix's calibrated capacity)."""

    trace_name = "chatbot"
    backend = "ianus"
    model_name = "gpt2-xl"
    operations = 4

    @classmethod
    def _ops(cls, seed: int, names=("trace_seed",)) -> list:
        """Per-operation seeds of the program's own random streams."""
        rng = _rng(cls.name, seed)
        return [
            {name: rng.randrange(2**31) for name in names}
            for _ in range(cls.operations)
        ]

    @classmethod
    def _context(cls) -> dict:
        from repro.core.costmodel import make_cost_model
        from repro.models import get_model
        from repro.serving import get_trace_generator
        from repro.serving.simulator import mean_service_time_s

        cost_model = make_cost_model(cls.backend)
        model = get_model(cls.model_name)
        generator = get_trace_generator(cls.trace_name)
        return {
            "cost_model": cost_model,
            "model": model,
            "generator": generator,
            "service_s": mean_service_time_s(cost_model, model, generator.workloads),
        }

    @staticmethod
    def size(inputs: dict) -> dict:
        return {
            "operations": len(inputs["ops"]),
            "requests_per_operation": inputs["requests"],
        }


class ServeDay(_Serving):
    """Streamed diurnal days on one GPT-2 XL replica (fast paths).  One
    operation is one day compressed to its trace's horizon."""

    name = "serve-day"

    @classmethod
    def inputs(cls, seed: int) -> dict:
        return {
            "ops": cls._ops(seed),
            "requests": 8_000,
            # Mean offered load 1.0x capacity swinging 0.2x -> 1.8x,
            # starting at the trough.
            "load": 1.0,
            "amplitude": 0.8,
            "max_batch": 16,
            "chunk_requests": 2048,
        }

    @classmethod
    def setup(cls, inputs: dict) -> dict:
        from repro.serving import ServingSimulator

        state = cls._context()
        state["simulator"] = ServingSimulator(
            state["cost_model"], state["model"], engine="array",
            policy="interleaved", max_batch=inputs["max_batch"],
            per_request_detail=False,
        )
        state["inputs"] = inputs
        return state

    @staticmethod
    def run(state: dict, op: int) -> dict:
        from repro.serving import decode_kv_bounds
        from repro.serving.trace import DiurnalCurve

        inputs = state["inputs"]
        generator = state["generator"]
        rate_rps = inputs["load"] / state["service_s"]
        horizon_s = inputs["requests"] / rate_rps
        offered = {"requests": 0, "tokens": 0}

        def counted(chunks):
            for chunk in chunks:
                offered["requests"] += len(chunk)
                offered["tokens"] += sum(request.output_tokens for request in chunk)
                yield chunk

        stream = generator.generate_stream(
            inputs["requests"], rate_rps, seed=inputs["ops"][op]["trace_seed"],
            chunk_requests=inputs["chunk_requests"],
            curve=DiurnalCurve(
                period_s=horizon_s, amplitude=inputs["amplitude"],
                phase_s=horizon_s / 4.0,
            ),
        )
        metrics = state["simulator"].simulate_stream(
            counted(stream), kv_bounds=decode_kv_bounds(generator.workloads)
        )
        return {"metrics": metrics, "offered": offered}

    @staticmethod
    def check(state: dict, op: int, outcome: dict) -> dict:
        metrics = outcome["metrics"]
        offered = outcome["offered"]
        return _served(metrics, [metrics], offered["requests"], offered["tokens"], [])


class ServeKv(_Serving):
    """Overloaded GPT-2 XL with shared prefixes and host swap, which keeps
    the array engine on its exact per-iteration KV path.  One operation
    is one trace."""

    name = "serve-kv"
    operations = 8

    @classmethod
    def inputs(cls, seed: int) -> dict:
        return {
            "ops": cls._ops(seed),
            "requests": 375,
            "load": 2.0,
            "prefix_share": 0.5,
            "prefix_tokens": 64,
            "prefix_groups": 2,
            "kv_fraction": 0.06,
            "max_batch": 8,
            "link_gbps": 16.0,
        }

    @classmethod
    def setup(cls, inputs: dict) -> dict:
        from repro.serving import ServingSimulator

        state = cls._context()
        state["simulator"] = ServingSimulator(
            state["cost_model"], state["model"], engine="array",
            policy="interleaved", max_batch=inputs["max_batch"],
            kv_fraction=inputs["kv_fraction"], admission="optimistic",
            swap=True, link_gbps=inputs["link_gbps"],
        )
        state["inputs"] = inputs
        return state

    @staticmethod
    def run(state: dict, op: int) -> dict:
        inputs = state["inputs"]
        trace = state["generator"].generate(
            inputs["requests"], inputs["load"] / state["service_s"],
            seed=inputs["ops"][op]["trace_seed"],
            prefix_share=inputs["prefix_share"],
            prefix_tokens=inputs["prefix_tokens"],
            prefix_groups=inputs["prefix_groups"],
        )
        return {"metrics": state["simulator"].simulate(trace), "trace": trace}

    @staticmethod
    def check(state: dict, op: int, outcome: dict) -> dict:
        metrics = outcome["metrics"]
        trace = outcome["trace"]
        return _served(
            metrics, [metrics], len(trace),
            sum(request.output_tokens for request in trace), [],
        )


class FleetChaos(_Serving):
    """A three-model co-hosting fleet under diurnal traffic, seeded
    replica failures and a queue-depth autoscaler, replayed through the
    invariant checker.  One operation is one fleet simulation."""

    name = "fleet-chaos"
    operations = 8
    model_names = ("gpt2-xl", "gemma-1b", "gemma-2b")

    @classmethod
    def inputs(cls, seed: int) -> dict:
        return {
            "ops": cls._ops(seed, ("trace_seed", "failure_seed")),
            "requests": 200,
            "replicas": 3,
            # The autoscaler never drains below max_failures + 1 serving
            # replicas, so the failures always leave one to route to (the
            # cluster raises when every replica is down, draining or
            # warming).  Replicas left after a drain are warm: a spawn's
            # ~0.2 s warm-up is far shorter than the cooldown.
            "min_replicas": 3,
            "max_replicas": 5,
            "router": "model-aware",
            # Offered load per initial replica, swinging +-60% over the
            # trace's horizon.
            "load": 0.8,
            "amplitude": 0.6,
            "num_classes": 2,
            "slo_targets": [0.5, 2.0],
            "class_shares": [0.5, 0.25],
            "max_batch": 8,
            # Mean time between failures and recovery delay as fractions
            # of the horizon; at most two failures per fleet.
            "mtbf": 1.0 / 6.0,
            "recover_after": 1.0 / 8.0,
            "max_failures": 2,
        }

    @classmethod
    def setup(cls, inputs: dict) -> dict:
        from repro.models import get_model
        from repro.serving import ClusterSimulator
        from repro.serving.autoscale import make_autoscaler
        from repro.serving.failures import SeededFailures
        from repro.serving.simulator import make_policy

        state = cls._context()
        models = tuple(get_model(name) for name in cls.model_names)
        rate_rps = inputs["replicas"] * inputs["load"] / state["service_s"]
        horizon_s = inputs["requests"] / rate_rps
        state["clusters"] = [
            ClusterSimulator(
                state["cost_model"], models[0], num_replicas=inputs["replicas"],
                router=inputs["router"], models=models, engine="array",
                policy=make_policy(
                    "priority", max_batch=inputs["max_batch"],
                    class_shares=tuple(inputs["class_shares"]),
                ),
                slo_targets=tuple(inputs["slo_targets"]),
                num_classes=inputs["num_classes"],
                failures=SeededFailures(
                    seed=op["failure_seed"],
                    mtbf_s=inputs["mtbf"] * horizon_s,
                    horizon_s=horizon_s,
                    recover_after_s=inputs["recover_after"] * horizon_s,
                    max_failures=inputs["max_failures"],
                ),
                autoscaler=make_autoscaler(
                    "queue-depth", high=1.0, low=0.3,
                    min_replicas=inputs["min_replicas"],
                    max_replicas=inputs["max_replicas"],
                    cooldown_s=horizon_s / 16.0, window_s=horizon_s / 8.0,
                ),
            )
            for op in inputs["ops"]
        ]
        state.update(inputs=inputs, models=models, rate_rps=rate_rps,
                     horizon_s=horizon_s)
        return state

    @staticmethod
    def run(state: dict, op: int) -> dict:
        from repro.serving.trace import DiurnalCurve

        inputs = state["inputs"]
        horizon_s = state["horizon_s"]
        trace = state["generator"].generate(
            inputs["requests"], state["rate_rps"],
            seed=inputs["ops"][op]["trace_seed"],
            num_classes=inputs["num_classes"],
            model_mix=[(model.name, 1.0) for model in state["models"]],
            curve=DiurnalCurve(
                period_s=horizon_s, amplitude=inputs["amplitude"],
                phase_s=horizon_s / 4.0,
            ),
        )
        cluster = state["clusters"][op]
        metrics = cluster.simulate(trace, record_events=True)
        violations = cluster.validate_invariants()
        return {"metrics": metrics, "trace": trace, "violations": violations}

    @staticmethod
    def check(state: dict, op: int, outcome: dict) -> dict:
        metrics = outcome["metrics"]
        trace = outcome["trace"]
        errors = [f"invariant: {v}" for v in outcome["violations"][:5]]
        return _served(
            metrics, metrics.per_replica, len(trace),
            sum(request.output_tokens for request in trace), errors,
        )


WORKLOADS = {cls.name: cls for cls in (PaperExact, ServeDay, ServeKv, FleetChaos)}
