"""Command intermediate representation shared by the compiler and schedulers."""

from repro.ir.command import Command, CommandStream, OpKind, PimScope, ReplayedStream, Unit

__all__ = ["Command", "CommandStream", "OpKind", "PimScope", "ReplayedStream", "Unit"]
