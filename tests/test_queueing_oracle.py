"""An exact queueing oracle for one-at-a-time serving.

Every other serving check compares one part of the simulator with another
(fast paths with stepping, a run's log with its replay).  This module
reads only the trace and the pass prices, and shares no code with the
simulator's loops or its closed forms.

``fcfs`` serves one request at a time, run to completion, so a run is a
single-server FCFS queue.  A request's service is its prefill pass (or its
chunk passes) plus one decode pass per later token, each in the run's
integer ticks: :class:`~repro.serving.simulator.PassCostProvider` priced
over the run's ``decode_kv_bounds``.  Lindley's recursion (Lindley, "The
theory of queues with a single server", 1952) then gives every request's
first token and completion::

    F_i = max(A_i, C_{i-1}) + prefill_i
    C_i = max(A_i, C_{i-1}) + S_i

``PriorityPolicy(max_batch=1)`` is the non-preemptive priority queue: at
each completion the device serves the lowest waiting class, in arrival
order.  Both must equal every entry of the run's completion record with
``==``, on both engine values, with events on and off, across ``until``
splits and with chunked prefill.
"""

from __future__ import annotations

import random

import pytest

from repro.core.costmodel import make_cost_model
from repro.models import GPT2_CONFIGS
from repro.serving import (
    ENGINES,
    PassCostProvider,
    PriorityPolicy,
    ServingSimulator,
    decode_kv_bounds,
    get_trace_generator,
    mean_service_time_s,
)
from repro.serving.request import to_ps

COST_MODEL = make_cost_model("ianus")
MODEL = GPT2_CONFIGS["m"]
PROVIDER = PassCostProvider(COST_MODEL, MODEL)


def _arrival(request) -> tuple:
    return to_ps(request.arrival_s), request.request_id


def _prices(request, bounds, chunk_tokens: int) -> tuple:
    """``(prefill, service)`` ticks of ``request`` served alone."""
    prompt = request.input_tokens
    step = chunk_tokens or prompt
    prefill = sum(
        PROVIDER.prefill_chunk(done, min(step, prompt - done))[0]
        for done in range(0, prompt, step)
    )
    decode = sum(
        to_ps(PROVIDER.decode(kv, bounds).latency_s)
        for kv in range(prompt + 1, prompt + request.output_tokens)
    )
    return prefill, prefill + decode


def lindley(trace, bounds, chunk_tokens: int) -> dict:
    """``{request id: (first token, completion)}`` of an FCFS queue."""
    expected, done = {}, 0
    for request in sorted(trace, key=_arrival):
        start = max(to_ps(request.arrival_s), done)
        prefill, service = _prices(request, bounds, chunk_tokens)
        done = start + service
        expected[request.request_id] = (start + prefill, done)
    return expected


def nonpreemptive_priority(trace, bounds, chunk_tokens: int) -> dict:
    """The same for a non-preemptive priority queue: at each completion,
    the lowest waiting class in arrival order."""
    queue = sorted(trace, key=_arrival)
    expected, waiting, clock, index = {}, [], 0, 0
    while index < len(queue) or waiting:
        if not waiting:
            clock = max(clock, to_ps(queue[index].arrival_s))
        while index < len(queue) and to_ps(queue[index].arrival_s) <= clock:
            waiting.append(queue[index])
            index += 1
        request = min(waiting, key=lambda r: (r.priority_class, *_arrival(r)))
        waiting.remove(request)
        prefill, service = _prices(request, bounds, chunk_tokens)
        expected[request.request_id] = (clock + prefill, clock + service)
        clock += service
    return expected


def _served(record) -> dict:
    rows = zip(record.request_id, record.first_token, record.completion)
    return {request_id: (first, done) for request_id, first, done in rows}


def _trace(name: str, load: float, seed: int, classes: int = 1) -> tuple:
    generator = get_trace_generator(name)
    rate = load / mean_service_time_s(COST_MODEL, MODEL, generator.workloads)
    return generator.generate(40, rate, seed=seed, num_classes=classes)


def _run(trace, policy, engine, record_events, chunk_tokens, exact, splits):
    """The run's completion record, offered whole or in ``splits`` chunks,
    each followed by an ``advance_until`` to a random instant before the
    next chunk's first arrival."""
    simulator = ServingSimulator(
        COST_MODEL, MODEL, policy=policy, engine=engine,
        chunk_tokens=chunk_tokens, exact=exact,
    )
    ordered = sorted(trace, key=_arrival)
    if not splits:
        simulator.simulate(ordered, record_events=record_events)
        return simulator.last_run.completions, simulator.last_run.kv_bounds
    run = simulator.begin(
        record_events=record_events, kv_bounds=decode_kv_bounds(ordered)
    )
    rng = random.Random(splits)
    cuts = sorted(rng.sample(range(1, len(ordered)), splits - 1))
    for start, stop in zip([0, *cuts], cuts):
        run.offer_many(ordered[start:stop])
        run.advance_until(
            rng.uniform(ordered[stop - 1].arrival_s, ordered[stop].arrival_s)
        )
    run.offer_many(ordered[cuts[-1]:])
    run.finish()
    return run.completions, run.kv_bounds


CASES = [
    # (trace, load, chunk tokens, exact, until splits)
    ("chatbot", 0.9, 0, False, 0),
    ("chatbot", 1.5, 48, False, 0),
    ("gpt2-paper", 0.7, 0, True, 0),
    ("gpt2-paper", 1.2, 0, False, 7),
    ("chatbot", 0.5, 64, False, 5),
]


@pytest.mark.parametrize("record_events", [False, True])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,load,chunk_tokens,exact,splits", CASES)
def test_fcfs_is_lindleys_recursion(
    name, load, chunk_tokens, exact, splits, engine, record_events
):
    trace = _trace(name, load, seed=len(name) + splits)
    record, bounds = _run(
        trace, "fcfs", engine, record_events, chunk_tokens, exact, splits
    )
    assert bounds == (None if exact else decode_kv_bounds(trace))
    expected = lindley(trace, bounds, chunk_tokens)
    assert list(record.arrival) == sorted(to_ps(r.arrival_s) for r in trace)
    assert _served(record) == expected
    # The queue serves in arrival order, so completions never decrease.
    assert list(record.completion) == sorted(done for _, done in expected.values())


@pytest.mark.parametrize("record_events", [False, True])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,load,chunk_tokens,exact,splits", CASES[1:4])
def test_priority_of_one_is_the_nonpreemptive_priority_queue(
    name, load, chunk_tokens, exact, splits, engine, record_events
):
    trace = _trace(name, load, seed=3 + splits, classes=3)
    record, bounds = _run(
        trace, PriorityPolicy(max_batch=1), engine, record_events,
        chunk_tokens, exact, splits,
    )
    expected = nonpreemptive_priority(trace, bounds, chunk_tokens)
    assert _served(record) == expected
    # At these loads a later, higher-priority arrival overtakes someone.
    assert expected != lindley(trace, bounds, chunk_tokens)
