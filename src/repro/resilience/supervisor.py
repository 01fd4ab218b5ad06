"""The shard supervisor under its original import path.

The engine has one supervisor, :class:`repro.fabric.FabricSupervisor`,
whose only setting is the worker count (``--workers N``).
``ShardSupervisor`` is the same class object, kept so code that
imports or wraps it by this name keeps working.
"""

from repro.fabric.supervisor import FabricSupervisor as ShardSupervisor
from repro.resilience.policy import ShardFailure

__all__ = ["ShardFailure", "ShardSupervisor"]
