"""The shard supervisor under its original import path.

The engine has one supervisor, :class:`repro.fabric.FabricSupervisor`
(``--workers N`` runs it with the ``pool`` backend, ``--fabric`` with
any spec).  ``ShardSupervisor`` is the same class object, kept so code
that imports or wraps it by this name keeps working.
"""

from repro.fabric.supervisor import FabricSupervisor as ShardSupervisor
from repro.resilience.policy import ShardFailure

__all__ = ["ShardFailure", "ShardSupervisor"]
