"""Fault-tolerant execution layer for the Monte-Carlo engine.

The paper bounds congestion under *malicious* access patterns; this
package bounds the damage of *execution-level* faults — killed
workers, crashed or hung shards, torn cache writes, interrupted
sweeps — while preserving the repository's load-bearing contract:

> a fixed seed produces bit-identical results for every worker count,
> every cache state, **and every recoverable fault schedule**.

The supervisor that enforces it lives in :mod:`repro.fabric`
(:class:`~repro.fabric.FabricSupervisor`, the one shard supervisor for
every worker count); this package holds its retry policy, the chaos
harness that tests it, and the sweep journal.

Modules
-------
:mod:`repro.resilience.policy`
    :class:`RetryPolicy` — retries, per-shard timeouts, exponential
    backoff with deterministic jitter — and :class:`ShardFailure`, the
    error a shard raises once that budget is spent.
:mod:`repro.resilience.faults`
    The deterministic chaos harness: :class:`FaultPlan` schedules and
    the builtin plans the property tests run.
:mod:`repro.resilience.journal`
    :class:`SweepJournal` — checksummed checkpoint/resume journal for
    long sweeps (``--resume``).
"""

from repro.resilience.faults import (
    BUILTIN_FAULT_PLANS,
    BUILTIN_WORKER_FAULT_PLANS,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    ShardFault,
    SimulatedTimeout,
    WorkerFault,
    WorkerKilled,
    builtin_fault_plan,
    builtin_worker_fault_plan,
)
from repro.resilience.journal import (
    JournalError,
    JournalMismatch,
    JournalReport,
    SweepJournal,
    record_checksum,
    tail_records,
    verify_journal,
)
from repro.resilience.policy import RetryPolicy, ShardFailure, deterministic_jitter

__all__ = [
    "BUILTIN_FAULT_PLANS",
    "BUILTIN_WORKER_FAULT_PLANS",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "JournalError",
    "JournalMismatch",
    "JournalReport",
    "RetryPolicy",
    "ShardFailure",
    "ShardFault",
    "SimulatedTimeout",
    "SweepJournal",
    "WorkerFault",
    "WorkerKilled",
    "builtin_fault_plan",
    "builtin_worker_fault_plan",
    "deterministic_jitter",
    "record_checksum",
    "tail_records",
    "verify_journal",
]
