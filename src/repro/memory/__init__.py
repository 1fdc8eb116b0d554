"""Memory-system models: capacity accounting of the unified and partitioned
organisations."""

from repro.config import MemoryPolicy, SystemConfig
from repro.memory.partitioned import PartitionedMemorySystem
from repro.memory.unified import MemoryCapacityError, MemoryPlacement, UnifiedMemorySystem

__all__ = [
    "PartitionedMemorySystem",
    "MemoryCapacityError",
    "MemoryPlacement",
    "UnifiedMemorySystem",
    "make_memory_system",
]


def make_memory_system(config: SystemConfig):
    """Build the memory-system model selected by ``config.memory_policy``."""
    if config.memory_policy is MemoryPolicy.UNIFIED:
        return UnifiedMemorySystem(config)
    return PartitionedMemorySystem(config)
