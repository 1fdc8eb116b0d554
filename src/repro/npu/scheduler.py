"""NPU command scheduler (Sec. 4.3).

The command scheduler checks dependencies between commands and the status of
each compute, DMA and PIM unit, pushing ready commands into each unit's
"issue" queue and parking commands whose dependencies are unresolved (or
whose unit has no free issue slot) in the "pending" queue.  When a PIM macro
command becomes ready, the scheduler forwards it to the PIM control unit and
puts DMA commands that target off-chip memory into a "wait" state so PIM
execution is not interrupted.

This module implements the queue bookkeeping as a standalone model of the
queue-capacity behaviour (Table 1: four issue slots per unit, 256 pending
slots), unit tested on its own.  Nothing in the simulation drives it: the
event engine in :mod:`repro.scheduling.events` assigns every command its
execution window without it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.config import SchedulerConfig
from repro.ir.command import Command, Unit

__all__ = ["CommandSchedulerState", "SchedulerFullError"]


class SchedulerFullError(RuntimeError):
    """Raised when the pending queue overflows (Table 1: 256 slots)."""


@dataclass
class CommandSchedulerState:
    """Bookkeeping of the per-unit issue queues and the pending queue."""

    config: SchedulerConfig
    issue_queues: dict[Unit, deque] = field(default_factory=dict)
    pending: deque = field(default_factory=deque)
    completed: set = field(default_factory=set)
    #: Commands the scheduler parked because a PIM macro is in flight.
    waiting_for_pim: list = field(default_factory=list)

    def __post_init__(self) -> None:
        for unit in Unit:
            self.issue_queues.setdefault(unit, deque())

    # ------------------------------------------------------------------
    def is_ready(self, command: Command) -> bool:
        """True when all of a command's dependencies have completed."""
        return all(dep in self.completed for dep in command.deps)

    def has_issue_slot(self, unit: Unit) -> bool:
        if unit is Unit.SYNC:
            return True
        return len(self.issue_queues[unit]) < self.config.issue_slots_per_unit

    def submit(self, command: Command) -> bool:
        """Submit a command: issue it if possible, otherwise park it.

        Returns True when the command went straight to an issue queue.
        Raises :class:`SchedulerFullError` when the pending queue is full,
        matching the back-pressure a real command stream would experience.
        """
        if self.is_ready(command) and self.has_issue_slot(command.unit):
            self.issue_queues[command.unit].append(command)
            return True
        if len(self.pending) >= self.config.pending_slots:
            raise SchedulerFullError(
                f"pending queue full ({self.config.pending_slots} slots)"
            )
        self.pending.append(command)
        return False

    def complete(self, command: Command) -> list[Command]:
        """Mark a command complete and promote newly-ready pending commands.

        Returns the commands that moved from the pending queue to an issue
        queue as a result.
        """
        self.completed.add(command.cid)
        queue = self.issue_queues[command.unit]
        if command in queue:
            queue.remove(command)
        promoted: list[Command] = []
        still_pending: deque = deque()
        for pending_command in self.pending:
            if self.is_ready(pending_command) and self.has_issue_slot(
                pending_command.unit
            ):
                self.issue_queues[pending_command.unit].append(pending_command)
                promoted.append(pending_command)
            else:
                still_pending.append(pending_command)
        self.pending = still_pending
        return promoted

    # ------------------------------------------------------------------
    def park_offchip_dma(self, commands: list[Command]) -> None:
        """Move off-chip DMA commands to the PIM wait state (Sec. 4.3)."""
        self.waiting_for_pim.extend(c for c in commands if c.is_offchip())

    def release_offchip_dma(self) -> list[Command]:
        """Release parked DMA commands once the PIM macro completes."""
        released = list(self.waiting_for_pim)
        self.waiting_for_pim.clear()
        return released

    # ------------------------------------------------------------------
    def occupancy(self) -> dict[str, int]:
        return {
            "pending": len(self.pending),
            **{unit.value: len(queue) for unit, queue in self.issue_queues.items()},
        }
