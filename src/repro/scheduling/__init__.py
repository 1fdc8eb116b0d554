"""Command scheduling: the duration model, the event engine that applies the
PAS and naive policies, and the checker of the engine's timelines."""

from repro.scheduling.check import check_timeline
from repro.scheduling.durations import DurationModel
from repro.scheduling.events import ActivityStats, EventEngine, ScheduledCommand, Timeline

__all__ = [
    "check_timeline",
    "DurationModel",
    "ActivityStats",
    "EventEngine",
    "ScheduledCommand",
    "Timeline",
]
