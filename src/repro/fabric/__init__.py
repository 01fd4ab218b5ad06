"""The shard supervisor: N pluggable workers, lease-based stealing.

Every Monte-Carlo task of :class:`~repro.sim.engine.MonteCarloEngine`
runs its shard plan through :class:`~repro.fabric.supervisor.FabricSupervisor`,
the engine's one supervisor.  It drives N independent workers behind
the :class:`~repro.fabric.workers.Worker` protocol — in-process, or one
single-process subprocess pool per worker — through a lease-based
shard queue with heartbeat failure detection, work stealing, epoch
fencing, poisoned-shard quarantine, and journal checkpointing.  The
load-bearing contract:

> any schedule of worker crashes, stalls, blackouts, and corrupt
> results yields results **bit-identical** to a fault-free run, at
> every worker count — and a killed coordinator resumes from its
> journal byte-for-byte.

``MonteCarloEngine(workers=N)`` (``--workers N`` on the CLI) is
shorthand for ``FabricSpec(workers=N, backend="pool")``, or
``backend="inproc"`` when ``N == 1``.  An explicit spec —
``MonteCarloEngine(fabric="workers=4,backend=inproc")`` or ``--fabric``
— takes precedence and also sets the lease knobs; see
``docs/ENGINE.md`` ("Shard supervision").
"""

from repro.fabric.supervisor import (
    CoordinatorKilled,
    CorruptResult,
    FabricSpec,
    FabricStalled,
    FabricSupervisor,
    LeaseLost,
    ShardQuarantined,
    parse_fabric_spec,
)
from repro.fabric.workers import (
    WORKER_BACKENDS,
    FabricCall,
    InProcessWorker,
    PoolWorker,
    Worker,
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
    "FabricSpec",
    "FabricStalled",
    "FabricSupervisor",
    "InProcessWorker",
    "LeaseLost",
    "PoolWorker",
    "ShardQuarantined",
    "WORKER_BACKENDS",
    "Worker",
    "decode_result",
    "encode_result",
    "execute_fabric_call",
    "open_envelope",
    "parse_fabric_spec",
    "seal_envelope",
]
