"""The event engine's contract, checked on a finished timeline.

:func:`check_timeline` states once each rule :class:`EventEngine` promises
and returns one violation per broken instance, led by the rule's name (an
empty list means the timeline is sound), as
:func:`repro.serving.validate.check_invariants` does for the serving log.

dependency
    Every dependency ends before its consumer starts.
resource
    Each resource (the matrix unit, the vector unit, each DMA engine, the
    host interface, or one PIM chip) runs its commands in issue order,
    without overlap.  An all-chip PIM macro occupies every chip.
pim-after-dma
    Under unified memory, a PIM macro starts after every earlier off-chip
    DMA ends: normal accesses and PIM computation cannot share the devices.
dma-after-pim
    Under unified memory with PIM compute on, an off-chip DMA starts after
    every earlier PIM macro ends: PAS parks it while the macro runs.
naive barrier
    Under naive scheduling, a PIM macro starts after every earlier command
    ends, and every later command starts after the macro ends.
greedy
    Each command starts at 0.0 or at the end of a command it must wait for.
    With the rules above, this pins each start to the latest of its waits.
duration
    Each command ends its :class:`DurationModel` duration after its start.
stats
    The byte and FLOP counters and ``pim_macro_commands`` of
    ``timeline.stats`` equal the sums over the stream in command order.
"""

from __future__ import annotations

from repro.config import MemoryPolicy, SchedulingPolicy, SystemConfig
from repro.ir.command import Command, CommandStream, PimScope, Unit
from repro.scheduling.durations import DurationModel
from repro.scheduling.events import Timeline

__all__ = ["check_timeline"]

#: Each re-derived :class:`ActivityStats` counter: the unit whose commands
#: it sums, and the field it sums (``None`` counts the commands).
_COUNTERS = {
    "offchip_read_bytes": (Unit.DMA_LOAD, "bytes_moved"),
    "offchip_write_bytes": (Unit.DMA_STORE, "bytes_moved"),
    "onchip_bytes": (Unit.DMA_ONCHIP, "bytes_moved"),
    "pim_weight_bytes": (Unit.PIM, "bytes_moved"),
    "pim_macro_commands": (Unit.PIM, None),
    "matrix_unit_flops": (Unit.MATRIX_UNIT, "flops"),
    "vector_unit_flops": (Unit.VECTOR_UNIT, "flops"),
}


def _resources(command: Command, num_chips: int) -> tuple:
    """The resources a command occupies (none for a sync point)."""
    if command.unit is Unit.SYNC:
        return ()
    if command.unit is Unit.PIM:
        if command.pim_scope is PimScope.SINGLE_CHIP:
            return (("pim", command.pim_chip % num_chips),)
        return tuple(("pim", chip) for chip in range(num_chips))
    return (command.unit,)


def _name(command: Command) -> str:
    return f"command {command.cid} ({command.unit.value}/{command.kind.value})"


def check_timeline(
    stream: CommandStream, timeline: Timeline, config: SystemConfig
) -> list[str]:
    """Check ``timeline`` against the engine's rules for ``stream`` under
    ``config``; returns violations (empty = sound)."""
    commands = list(stream)
    scheduled = timeline.commands
    if [(c.cid, c.unit, c.kind, c.tag, c.flops, c.bytes_moved) for c in scheduled] != [
        (c.cid, c.unit, c.kind, c.tag, c.flops, c.bytes_moved) for c in commands
    ]:
        return [
            f"commands: timeline {timeline.label!r} does not schedule the "
            f"{len(commands)} commands of stream {stream.label!r} in order"
        ]

    unified = config.memory_policy is MemoryPolicy.UNIFIED
    naive = config.scheduling is SchedulingPolicy.NAIVE
    dma_waits_for_pim = unified and config.pim_compute_enabled
    num_chips = max(1, config.pim.num_chips)
    durations = DurationModel.shared(config)
    ends = [c.end for c in scheduled]

    violations: list[str] = []
    last_on: dict = {}  # resource -> the latest command issued on it
    # The earlier command that ends last: any, off-chip DMA, PIM macro.
    latest = latest_dma = latest_pim = None
    for i, command in enumerate(commands):
        keys = _resources(command, num_chips)
        # (rule, earlier command) for each command this one must wait for.
        waits = [("dependency", j) for j in command.deps]
        waits += [("resource", last_on[key]) for key in keys if key in last_on]
        if command.is_pim():
            if unified:
                waits.append(("pim-after-dma", latest_dma))
            if naive:
                waits.append(("naive barrier", latest))
        elif command.is_offchip() and dma_waits_for_pim:
            waits.append(("dma-after-pim", latest_pim))
        if naive:
            waits.append(("naive barrier", latest_pim))

        start = scheduled[i].start
        bounds = {0.0}
        for rule, j in waits:
            if j is not None:
                bounds.add(ends[j])
                if start < ends[j]:
                    violations.append(
                        f"{rule}: {_name(command)} starts at {start!r} s, "
                        f"before {_name(commands[j])} ends at {ends[j]!r} s"
                    )
        if start not in bounds:
            violations.append(
                f"greedy: {_name(command)} starts at {start!r} s, neither at 0 "
                f"nor at the end of a command it waits for"
            )
        duration = durations.duration(command)
        if ends[i] != start + duration:
            violations.append(
                f"duration: {_name(command)} runs from {start!r} s to "
                f"{ends[i]!r} s, but lasts {duration!r} s"
            )

        for key in keys:
            last_on[key] = i
        if latest is None or ends[i] > ends[latest]:
            latest = i
        if command.is_offchip() and (latest_dma is None or ends[i] > ends[latest_dma]):
            latest_dma = i
        if command.is_pim() and (latest_pim is None or ends[i] > ends[latest_pim]):
            latest_pim = i

    for counter, (unit, field) in _COUNTERS.items():
        # Added one at a time, as the engine does (sum() may compensate).
        expected = 0.0 if field == "flops" else 0
        for c in commands:
            if c.unit is unit:
                expected += 1 if field is None else getattr(c, field)
        actual = getattr(timeline.stats, counter)
        if actual != expected:
            violations.append(
                f"stats: {counter} is {actual!r}, but the stream's commands "
                f"sum to {expected!r}"
            )
    return violations
