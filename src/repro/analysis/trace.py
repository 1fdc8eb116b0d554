"""ASCII Gantt rendering of schedules.

The event engine produces :class:`repro.scheduling.Timeline` objects;
:func:`render_gantt` draws one as a fixed-width chart with one lane per
execution unit, which makes the PAS overlaps (and the serialisation the
naive policy suffers) directly visible in a terminal.
"""

from __future__ import annotations

from collections import defaultdict

from repro.ir.command import Unit
from repro.scheduling.events import Timeline

__all__ = ["render_gantt"]

#: Characters per line of the Gantt chart.
GANTT_WIDTH = 80

#: Lane order used by the Gantt rendering (sync commands are omitted).
_LANE_ORDER = [
    Unit.MATRIX_UNIT,
    Unit.VECTOR_UNIT,
    Unit.DMA_LOAD,
    Unit.DMA_STORE,
    Unit.DMA_ONCHIP,
    Unit.PIM,
    Unit.HOST,
]

_LANE_LABELS = {
    Unit.MATRIX_UNIT: "matrix unit",
    Unit.VECTOR_UNIT: "vector unit",
    Unit.DMA_LOAD: "dma load",
    Unit.DMA_STORE: "dma store",
    Unit.DMA_ONCHIP: "dma on-chip",
    Unit.PIM: "pim",
    Unit.HOST: "host (pcie)",
}


def render_gantt(timeline: Timeline) -> str:
    """Render a fixed-width ASCII Gantt chart, one lane per execution unit.

    Each lane shows ``#`` where the unit is busy; the time axis spans the
    timeline's makespan.  Sync commands are not drawn (they carry no work).
    Numbers are never cut: the header's run of dots shrinks to fit the
    makespan, and each lane ends with its full busy time.
    """
    makespan = timeline.makespan
    if makespan <= 0:
        return "(empty timeline)"

    label_width = max(len(label) for label in _LANE_LABELS.values()) + 2
    chart_width = GANTT_WIDTH - label_width
    lines = []
    end_label = f"{makespan * 1e6:,.1f} us"
    dots = "." * max(1, chart_width - len(end_label) - 3)
    lines.append(" " * label_width + f"0 {dots} {end_label}")

    by_unit: dict[Unit, list] = defaultdict(list)
    for command in timeline.commands:
        if command.unit in _LANE_LABELS:
            by_unit[command.unit].append(command)

    for unit in _LANE_ORDER:
        commands = by_unit.get(unit)
        if not commands:
            continue
        lane = [" "] * chart_width
        for command in commands:
            start = int(command.start / makespan * (chart_width - 1))
            end = max(start, int(command.end / makespan * (chart_width - 1)))
            for position in range(start, min(end + 1, chart_width)):
                lane[position] = "#"
        busy = timeline.busy_time(unit)
        label = f"{_LANE_LABELS[unit]:<{label_width - 2}}"
        lines.append(f"{label}  {''.join(lane)}  ({busy * 1e6:,.1f} us busy)")
    return "\n".join(lines)
