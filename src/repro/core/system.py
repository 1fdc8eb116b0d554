"""End-to-end IANUS system model.

:class:`IanusSystem` composes the compiler, the PIM access scheduler (event
engine), the memory-system model and the energy model into the object the
experiments use: ``run(model, workload)`` returns an
:class:`repro.core.results.InferenceResult` with the end-to-end latency, the
per-stage breakdowns of Fig. 10, and the dynamic-energy split of Fig. 11.

Simulation strategy
-------------------
Every block of the model executes the same command stream for a given pass,
so one block is simulated and scaled by the number of blocks.  For the
generation stage the per-token latency grows linearly with the KV length;
``mode="fast"`` (the default) simulates a handful of sampled KV lengths and
integrates the piecewise-linear latency curve over all generated tokens,
while ``mode="exact"`` prices every token's pass at its own KV length.  The
two agree within a small tolerance (covered by the test suite) and the fast
mode makes the full Fig. 8 sweep tractable in pure Python.

Every KV length keeps its own pass-cache entry, so a warm cache hits per
token.  When a run misses at least :data:`MIN_RANGE_COLUMNS` lengths (exact
mode's per-token lengths, fast mode's five samples) it compiles them once,
as the columns of one :meth:`~repro.compiler.Compiler.compile_range` replay,
and schedules them in one
:meth:`~repro.scheduling.EventEngine.simulate_range` call, each column equal
to that pass compiled and simulated alone.  Fewer missed lengths, and single
passes (the summarization pass, the serving layer's anchors), are compiled
and simulated one at a time, on Python floats.

One pass assembly (``IanusSystem._assembled``) turns a range's columns, or a
single pass as a range of one, into pass-cache entries.  The embedding, the
LM head and the partitioned organisation's placement terms do not depend on
the KV length, so it fetches them once per range, and a missed KV length
builds nothing but its entry: one breakdown dict and one
:class:`~repro.scheduling.events.ActivityStats`.  A run reads its entries in
place and adds them into running totals; only ``IanusSystem._pass_cost``,
which hands a pass to its caller (:meth:`IanusSystem.pass_cost`, the
summarization pass), copies one.  Every total is added left to right in a
fixed order, never with the builtin ``sum`` (which compensates from Python
3.12), ``math.fsum`` or ``np.sum``, so each number is the same on every
Python.
"""

from __future__ import annotations

import bisect
from dataclasses import fields, replace
from operator import add, attrgetter

from repro.compiler.compiler import Compiler
from repro.config import MemoryPolicy, SystemConfig
from repro.core.costmodel import PassCost
from repro.core.results import InferenceResult, StageResult
from repro.energy.model import EnergyModel
from repro.memory import make_memory_system
from repro.memory.unified import MemoryCapacityError
from repro.models.transformer import ModelConfig
from repro.models.workload import Stage, StagePass, Workload
from repro.perf.cache import (
    PassCostCache,
    config_fingerprint,
    global_pass_cache,
    resolve_pass_cache,
)
from repro.scheduling.durations import DurationModel
from repro.scheduling.events import ActivityStats, EventEngine, Timeline

__all__ = ["IanusSystem", "devices_required"]

#: Number of KV-length sample points used by the fast generation mode.
FAST_MODE_SAMPLES = 5

#: Fewest missed KV lengths a generation run compiles and schedules as the
#: columns of one range.  A range pays numpy's per-operation cost on every
#: command, so fewer lengths are cheaper one pass at a time: pricing GPT-2 M
#: to 2.5B and Gemma 2B generation passes under ianus, npu-mem and
#: partitioned as columns took 3.3-3.7x the single passes' time at one
#: length, 1.8-2.3x at two, 1.24-1.34x at three, 0.96-1.02x at four,
#: 0.81-0.88x at five and 0.54-0.58x at eight (pass cache off, the fastest
#: of 40 repetitions each).  Fast mode's five samples ride the columns.
MIN_RANGE_COLUMNS = 5

#: Sequence length whose KV cache :func:`devices_required` budgets for.
MAX_SEQUENCE = 1024


#: An :class:`ActivityStats`' fields as a tuple, in declaration order.
_stats_fields = attrgetter(*(field.name for field in fields(ActivityStats)))


def _copied(cost: tuple) -> tuple:
    """A pass cost with fresh copies of its mutable pieces, so a caller and
    the pass cache never alias (and corrupt) one entry."""
    latency, breakdown, stats, flops = cost
    return latency, dict(breakdown), replace(stats), flops


def _merge_into(total: dict[str, float], breakdown: dict[str, float]) -> None:
    """Add ``breakdown`` into ``total`` tag by tag, new tags last:
    :func:`~repro.core.results.merge_breakdowns` of the two, in place."""
    for tag, value in breakdown.items():
        total[tag] = total.get(tag, 0.0) + value


def devices_required(model: ModelConfig, config: SystemConfig) -> int:
    """Smallest power-of-two device count whose aggregate memory fits the model.

    The paper selects two, four and eight devices for the 6.7B, 13B and 30B
    models respectively (Sec. 7.1); this reproduces that selection from the
    model footprint (weights plus a :data:`MAX_SEQUENCE`-token KV cache) and
    the per-device capacity.
    """
    footprint = model.memory_footprint_bytes(MAX_SEQUENCE)
    capacity = config.npu_visible_capacity_bytes
    devices = 1
    while devices * capacity < footprint:
        devices *= 2
    return devices


class IanusSystem:
    """Simulator facade for one IANUS device (or one device of many).

    Parameters
    ----------
    config:
        System configuration; use :meth:`SystemConfig.ianus`,
        :meth:`SystemConfig.npu_mem` or :meth:`SystemConfig.partitioned` for
        the configurations evaluated in the paper.
    num_devices:
        Number of IANUS devices cooperating on the model (Sec. 7.1).  Work is
        partitioned across devices the same way it is partitioned across
        cores, and activations are exchanged over the PCIe host interface at
        the block synchronisation points.
    pass_cache:
        Pass-cost cache policy: ``True`` (default) shares the process-wide
        cache of :func:`repro.perf.cache.global_pass_cache`, ``None``/``False``
        disables caching, and a :class:`repro.perf.cache.PassCostCache`
        instance is used as-is.  Cached and uncached runs produce identical
        results — the cache key covers every input of a pass simulation.
    """

    def __init__(
        self,
        config: SystemConfig,
        num_devices: int = 1,
        pass_cache: "PassCostCache | bool | None" = True,
    ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.config = config
        self.num_devices = num_devices
        self.durations = DurationModel.shared(config)
        self.compiler = Compiler(config, self.durations, num_devices=num_devices)
        self.engine = EventEngine(config, self.durations)
        self.energy_model = EnergyModel(config.energy)
        self.memory_system = make_memory_system(config)
        self.pass_cache = resolve_pass_cache(pass_cache, global_pass_cache)
        self.config_fingerprint = config_fingerprint(config, num_devices)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        suffix = f" x{self.num_devices}" if self.num_devices > 1 else ""
        return f"{self.config.name}{suffix}"

    @property
    def npu_peak_flops(self) -> float:
        return self.config.peak_npu_flops * self.num_devices

    @property
    def tdp_w(self) -> float:
        return self.config.tdp_w * self.num_devices

    # ------------------------------------------------------------------
    def check_capacity(self, model: ModelConfig, workload: Workload) -> None:
        """Raise :class:`MemoryCapacityError` when the model does not fit."""
        max_sequence = workload.total_tokens
        if self.num_devices == 1:
            self.memory_system.place(model, max_sequence)
            return
        per_device_bytes = model.memory_footprint_bytes(max_sequence) / self.num_devices
        capacity = self.config.npu_visible_capacity_bytes
        if per_device_bytes > capacity:
            raise MemoryCapacityError(
                f"{model.name} needs {per_device_bytes / 2**30:.2f} GiB per device "
                f"but each device provides {capacity / 2**30:.2f} GiB"
            )

    # ------------------------------------------------------------------
    def run(
        self, model: ModelConfig, workload: Workload, mode: str = "fast"
    ) -> InferenceResult:
        """Simulate end-to-end inference of ``model`` under ``workload``."""
        if mode not in ("fast", "exact"):
            raise ValueError(f"mode must be 'fast' or 'exact', got {mode!r}")
        self.check_capacity(model, workload)

        summarization = self._run_summarization(model, workload)
        generation = self._run_generation(model, workload, mode)
        energy = summarization.energy + generation.energy
        return InferenceResult(
            backend=self.name,
            model=model,
            workload=workload,
            summarization=summarization,
            generation=generation,
            energy=energy,
        )

    # ------------------------------------------------------------------
    # Summarization stage
    # ------------------------------------------------------------------
    def _run_summarization(self, model: ModelConfig, workload: Workload) -> StageResult:
        stage_pass = StagePass(
            stage=Stage.SUMMARIZATION,
            num_tokens=workload.input_tokens,
            kv_length=workload.input_tokens,
        )
        latency, breakdown, stats, flops = self._pass_cost(model, stage_pass)
        return StageResult(
            latency_s=latency,
            breakdown=breakdown,
            energy=self.energy_model.from_stats(stats),
            flops=flops,
            num_tokens=workload.input_tokens,
        )

    # ------------------------------------------------------------------
    # Generation stage
    # ------------------------------------------------------------------
    def _run_generation(
        self, model: ModelConfig, workload: Workload, mode: str
    ) -> StageResult:
        kv_lengths = workload.generation_kv_lengths()
        if not kv_lengths or not model.is_decoder:
            return StageResult(latency_s=0.0, num_tokens=0)

        if mode == "exact" or len(kv_lengths) <= FAST_MODE_SAMPLES:
            samples = kv_lengths
        else:
            first, last = kv_lengths[0], kv_lengths[-1]
            step = (last - first) / (FAST_MODE_SAMPLES - 1)
            samples = sorted({int(round(first + i * step)) for i in range(FAST_MODE_SAMPLES)})

        sample_results = self._generation_costs(model, samples)

        # Running totals, added to left to right in the order below: each
        # stats field (without building an ActivityStats per pass), and
        # each tag in order of first appearance.
        total_latency = 0.0
        total_flops = 0.0
        total_stats = list(_stats_fields(ActivityStats()))
        breakdown_acc: dict[str, float] = {}
        sample_kvs = sorted(sample_results)

        # Tokens whose KV length is a sample are charged the simulated pass
        # directly; the remaining tokens of each inter-sample segment share
        # the same two bracketing samples, so the piecewise-linear integral is
        # evaluated per segment (count and summed interpolation weight) rather
        # than per token.
        segment_counts: dict[int, int] = {}
        segment_weights: dict[int, float] = {}
        for kv in kv_lengths:
            sampled = sample_results.get(kv)
            if sampled is not None:
                latency, breakdown, stats, flops = sampled
                total_latency += latency
                total_flops += flops
                total_stats = list(map(add, total_stats, _stats_fields(stats)))
                _merge_into(breakdown_acc, breakdown)
                continue
            position = bisect.bisect_left(sample_kvs, kv)
            position = min(max(position, 1), len(sample_kvs) - 1)
            low, high = sample_kvs[position - 1], sample_kvs[position]
            weight = (kv - low) / (high - low) if high != low else 0.0
            segment_counts[position] = segment_counts.get(position, 0) + 1
            segment_weights[position] = segment_weights.get(position, 0.0) + weight

        for position, count in segment_counts.items():
            weight_sum = segment_weights[position]
            low, high = sample_kvs[position - 1], sample_kvs[position]
            lat_l, brk_l, stats_l, flops_l = sample_results[low]
            lat_h, brk_h, stats_h, flops_h = sample_results[high]
            total_latency += count * lat_l + weight_sum * (lat_h - lat_l)
            total_flops += count * flops_l + weight_sum * (flops_h - flops_l)
            segment_breakdown = {
                tag: count * brk_l.get(tag, 0.0)
                + weight_sum * (brk_h.get(tag, 0.0) - brk_l.get(tag, 0.0))
                for tag in dict.fromkeys([*brk_l, *brk_h])
            }
            _merge_into(breakdown_acc, segment_breakdown)
            for stats, scale in ((stats_l, count - weight_sum), (stats_h, weight_sum)):
                total_stats = list(map(add, total_stats, _stats_fields(stats.scaled(scale))))

        return StageResult(
            latency_s=total_latency,
            breakdown=breakdown_acc,
            energy=self.energy_model.from_stats(ActivityStats(*total_stats)),
            flops=total_flops,
            num_tokens=len(kv_lengths),
        )

    # ------------------------------------------------------------------
    # One full pass through the model (all blocks + embedding + LM head)
    # ------------------------------------------------------------------
    def pass_cost(self, model: ModelConfig, stage_pass: StagePass) -> PassCost:
        """One pass priced through the :class:`~repro.core.costmodel.CostModel`
        protocol: the memoized event-engine simulation of :meth:`_pass_cost`
        with the activity statistics converted to dynamic energy."""
        latency, breakdown, stats, flops = self._pass_cost(model, stage_pass)
        return PassCost(
            latency_s=latency,
            breakdown=breakdown,
            energy=self.energy_model.from_stats(stats),
            flops=flops,
        )

    def cache_stats(self) -> dict:
        """Counters of the pass-cost cache this system routes through."""
        return self.pass_cache.stats() if self.pass_cache is not None else {}

    def _pass_cost(self, model: ModelConfig, stage_pass: StagePass):
        """Latency, breakdown, activity and FLOPs of one full model pass.

        Memoized in :attr:`pass_cache` under the configuration fingerprint
        plus every pass input; see :mod:`repro.perf` for the key design.
        """
        cache = self.pass_cache
        if cache is None:
            return self._pass_cost_uncached(model, stage_pass)
        key = self._pass_key(model, stage_pass)
        hit = cache.get(key)
        if hit is not None:
            return _copied(hit)
        cost = self._pass_cost_uncached(model, stage_pass)
        cache.put(key, _copied(cost))
        return cost

    def _generation_costs(self, model: ModelConfig, kv_lengths: list[int]) -> dict:
        """The pass-cache entry of the generation pass at each KV length.

        Each length keeps its own entry and counts one miss when it has
        none.  At least :data:`MIN_RANGE_COLUMNS` missed lengths are
        compiled as the columns of one
        :meth:`~repro.compiler.Compiler.compile_range` replay and scheduled in
        one :meth:`~repro.scheduling.EventEngine.simulate_range` call; fewer
        are priced one pass at a time.  The entries are the cache's own, not
        copies: only :meth:`_run_generation` reads them, and it must not
        change them.
        """
        cache = self.pass_cache
        costs = {}
        missed = []
        keys = []
        for kv in kv_lengths:
            stage_pass = StagePass(stage=Stage.GENERATION, num_tokens=1, kv_length=kv)
            key = self._pass_key(model, stage_pass)
            hit = None if cache is None else cache.get(key)
            if hit is None:
                missed.append(stage_pass)
                keys.append(key)
            else:
                costs[kv] = hit
        if len(missed) < MIN_RANGE_COLUMNS:
            priced = [self._pass_cost_uncached(model, p) for p in missed]
        else:
            block = self.compiler.compile_range(model, missed)
            columns = self.engine.simulate_range(block.stream)
            priced = self._assembled(
                model, missed, columns.makespans, columns.breakdowns,
                columns.stats, columns.flops,
            )
        for stage_pass, key, cost in zip(missed, keys, priced):
            if cache is not None:
                cache.put(key, cost)
            costs[stage_pass.kv_length] = cost
        return costs

    def _pass_key(self, model: ModelConfig, stage_pass: StagePass) -> tuple:
        return (
            self.config_fingerprint,
            model,
            stage_pass.stage,
            stage_pass.num_tokens,
            stage_pass.kv_length,
        )

    def _pass_cost_uncached(self, model: ModelConfig, stage_pass: StagePass):
        block = self.compiler.compile_block(model, stage_pass)
        timeline = self.engine.simulate(block.stream)
        [cost] = self._assembled(
            model, [stage_pass], [timeline.makespan], [timeline.breakdown_by_tag()],
            [timeline.stats], [timeline.total_flops()],
        )
        return cost

    def _pass_ends(self, model: ModelConfig, num_tokens: int) -> tuple:
        """What a pass of ``num_tokens`` tokens adds around its blocks, the
        same at every KV length: the makespan, breakdown and stats fields
        of the embedding and, for a decoder, of the LM head with its
        activity scaled to all cores; and the LM head's FLOPs scaled to all
        cores (``None`` for an encoder)."""
        embedding = self.engine.simulate(
            self.compiler.compile_embedding(model, num_tokens)
        )
        ends = [(embedding.makespan, embedding.breakdown_by_tag(),
                 _stats_fields(embedding.stats))]
        if not model.is_decoder:
            return ends, None
        timeline = self.engine.simulate(self.compiler.compile_lm_head(model).stream)
        cores = self.config.num_cores
        ends.append((
            timeline.makespan,
            timeline.breakdown_by_tag(),
            _stats_fields(timeline.stats.with_core_scaling(cores)),
        ))
        return ends, timeline.total_flops() * cores

    def _assembled(
        self,
        model: ModelConfig,
        stage_passes: list[StagePass],
        makespans: list[float],
        breakdowns: list[dict[str, float]],
        stats: list[ActivityStats],
        flops: list[float],
    ) -> list[tuple]:
        """Each full pass, ``(latency, breakdown, stats, FLOPs)``, around its
        block's schedule: one pass, or the columns of a range, which share
        one token count.

        Every block (with the partitioned organisation's penalty) comes
        first, then the embedding and, for a decoder, the LM head, fetched
        once from :meth:`_pass_ends`.  Each pass builds one breakdown and
        one :class:`ActivityStats`, adding left to right:

        - latency: ``blocks * (makespan + penalty)``, plus the embedding's
          makespan, plus the LM head's;
        - breakdown: each block tag times ``blocks``, then the embedding's
          tags added, then the LM head's (``merge_breakdowns``' order);
        - stats: ``with_core_scaling(cores).scaled(blocks)`` of the block's,
          field by field, then the embedding's fields added, then the LM
          head's;
        - FLOPs: ``block * blocks * cores``, plus the LM head's.
        """
        ends, lm_flops = self._pass_ends(model, stage_passes[0].num_tokens)
        blocks, cores = model.num_blocks, self.config.num_cores
        costs = []
        for penalty, makespan, block_breakdown, block_stats, block_flops in zip(
            self._partitioned_penalties(model, stage_passes),
            makespans, breakdowns, stats, flops,
        ):
            latency = blocks * (makespan + penalty)
            breakdown = {tag: value * blocks for tag, value in block_breakdown.items()}
            read, write, pim_weights, activations, matrix, vector, onchip, macros = (
                _stats_fields(block_stats)
            )
            counters = [
                round(read * cores * blocks),
                round(write * cores * blocks),
                round(pim_weights * blocks),
                round(activations * blocks),
                matrix * cores * blocks,
                vector * cores * blocks,
                round(onchip * cores * blocks),
                round(macros * blocks),
            ]
            for end_makespan, end_breakdown, end_counters in ends:
                latency += end_makespan
                _merge_into(breakdown, end_breakdown)
                counters = list(map(add, counters, end_counters))
            total_flops = block_flops * blocks * cores
            if lm_flops is not None:
                total_flops += lm_flops
            costs.append((latency, breakdown, ActivityStats(*counters), total_flops))
        return costs

    # ------------------------------------------------------------------
    def _partitioned_penalties(
        self, model: ModelConfig, stage_passes: list[StagePass]
    ) -> list[float]:
        """Extra per-block time of each pass in the partitioned organisation
        (Fig. 13).

        FC parameters that could not be duplicated into the NPU region must be
        moved from the PIM region when the matrix unit needs them; the
        movement competes with PIM computation, so it is exposed latency
        (Sec. 6.2: for GPT-2 2.5B the parameters no longer fit twice).  The
        placement's terms that do not depend on the KV length are taken once
        for all the passes.
        """
        if self.config.memory_policy is not MemoryPolicy.PARTITIONED:
            return [0.0] * len(stage_passes)
        fractions = self.memory_system.non_duplicated_fractions(
            model, [stage_pass.kv_length for stage_pass in stage_passes]
        )
        bandwidth = self.config.offchip_bandwidth
        return [
            0.0 if fraction <= 0.0
            else fraction * model.fc_params_per_block * 2 / bandwidth
            for fraction in fractions
        ]

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and examples
    # ------------------------------------------------------------------
    def block_timeline(self, model: ModelConfig, stage_pass: StagePass) -> Timeline:
        """Simulate one block and return its full timeline (for inspection)."""
        block = self.compiler.compile_block(model, stage_pass)
        return self.engine.simulate(block.stream)

    def fc_mapping_for(self, model: ModelConfig, stage_pass: StagePass) -> dict[str, str]:
        """Which unit each FC of a block maps to under the current policy."""
        block = self.compiler.compile_block(model, stage_pass)
        return {name: unit.value for name, unit in block.fc_units.items()}
