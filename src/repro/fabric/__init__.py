"""The shard supervisor: N workers, lease-based stealing.

Every Monte-Carlo task of :class:`~repro.sim.engine.MonteCarloEngine`
runs its shard plan through :class:`~repro.fabric.supervisor.FabricSupervisor`,
the engine's one supervisor.  Its only setting is the worker count:
``MonteCarloEngine(workers=N)`` (``--workers N`` on the CLI) runs one
in-process worker for ``N == 1`` and N single-process subprocess pools
otherwise.  It drives them through a lease-based shard queue with
heartbeat failure detection, work stealing, epoch fencing,
poisoned-shard quarantine, and journal checkpointing; the lease,
heartbeat and quarantine thresholds are fixed constants.  The
load-bearing contract:

> any schedule of worker crashes, stalls, blackouts, and corrupt
> results yields results **bit-identical** to a fault-free run, at
> every worker count — and a killed coordinator resumes from its
> journal byte-for-byte.

See ``docs/ENGINE.md`` ("Shard supervision").
"""

from repro.fabric.supervisor import (
    CoordinatorKilled,
    CorruptResult,
    FabricStalled,
    FabricSupervisor,
    LeaseLost,
    ShardQuarantined,
)
from repro.fabric.workers import (
    FabricCall,
    InProcessWorker,
    PoolWorker,
    decode_result,
    encode_result,
    execute_fabric_call,
    open_envelope,
    seal_envelope,
)

__all__ = [
    "CoordinatorKilled",
    "CorruptResult",
    "FabricCall",
    "FabricStalled",
    "FabricSupervisor",
    "InProcessWorker",
    "LeaseLost",
    "PoolWorker",
    "ShardQuarantined",
    "decode_result",
    "encode_result",
    "execute_fabric_call",
    "open_envelope",
    "seal_envelope",
]
