"""The shard supervisor: lease-based coordination over N workers.

:class:`FabricSupervisor` is the engine's one shard supervisor.  Every
:class:`~repro.sim.engine.MonteCarloEngine` task hands its shard plan
to ``run(body, payloads, label)``.  The worker count is its only
setting: ``workers == 1`` runs one
:class:`~repro.fabric.workers.InProcessWorker`, ``workers > 1`` runs
that many :class:`~repro.fabric.workers.PoolWorker` subprocesses.  It
drives them through a lease-based shard queue whose shape is fixed by
three module constants (:data:`LEASE_TICKS`, :data:`HEARTBEAT_TICKS`,
:data:`QUARANTINE_AFTER`):

* **Leases.** A worker claims the lowest pending shard in its own
  partition (``shard % workers == worker_id``) first, then *steals*
  the lowest pending shard overall.  Every claim bumps the shard's
  **epoch** and grants a lease that expires ``LEASE_TICKS`` later.
* **Heartbeats and failure detection.**  Each virtual tick, live
  workers heartbeat; a worker silent for ``HEARTBEAT_TICKS`` is
  declared dead and its leases expire immediately.  Workers whose
  backend raises (``BrokenProcessPool``, an injected
  :class:`~repro.resilience.faults.WorkerKilled`) or that overruns
  ``policy.timeout`` on the wall clock are declared dead on the spot.
  The next ``run`` rebuilds their backends (a recorded pool respawn).
* **Fencing.**  A delivery is accepted only if the shard is still
  leased to that worker *at the same epoch* and the attempt was never
  orphaned.  A zombie — a stale worker finishing after its lease was
  stolen — is fenced: its envelope is discarded, never merged.
* **Retry budgets and quarantine.**  Every failed attempt consumes
  the shard's :class:`~repro.resilience.policy.RetryPolicy` budget
  (with the policy's deterministic backoff).  Failures *caused by the
  shard itself* (crashes, corrupt results — not worker deaths) are
  attributed to the worker they ran on; a shard that fails on
  ``QUARANTINE_AFTER`` distinct workers is poisoned and raises
  :class:`ShardQuarantined` instead of being retried forever.
* **Degradation.**  If every worker has died, the remaining shards run
  serially on an in-process fallback worker — the run still completes.

Determinism
-----------
All coordination — lease grants, heartbeat deadlines, steal choices,
fault injection — runs in **virtual time**: an integer tick counter,
never the wall clock (the one exception is the ``policy.timeout`` guard
on a real subprocess, which only decides *that* a worker hung).  A
fault-free attempt costs one tick; ``slow`` faults cost more; blackout
windows are tick intervals.  The schedule is therefore a pure function
of ``(shards, workers, plan, policy)``, which is what makes the chaos
suite's counter assertions meaningful.
Real execution is dispatched when an attempt's virtual cost elapses:
every attempt completing on the same tick is submitted to its backend
first and collected in worker-id order, so subprocess backends still
run in parallel.  Results themselves never depend on any of this —
each shard re-derives its stream from its own ``SeedSequence``, so any
schedule of crashes, stalls, steals, and fenced zombies yields results
bit-identical to a fault-free run at any worker count (enforced by
``tests/test_fabric.py`` and ``tests/test_chaos.py``).

Checkpointing
-------------
With a :class:`~repro.resilience.journal.SweepJournal` attached, every
accepted shard result is recorded under ``{label}/shard={i}`` before
the run proceeds; a coordinator killed mid-run (including via the
``kill_coordinator_after`` chaos fault) resumes by replaying recorded
shards and recomputing only the remainder — byte-identically, because
replayed and recomputed shards carry the same bits.
"""

from __future__ import annotations

from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.fabric.workers import (
    FabricCall,
    InProcessWorker,
    PoolWorker,
    decode_result,
    encode_result,
    open_envelope,
)
from repro.resilience.faults import FaultPlan, SimulatedTimeout, WorkerKilled
from repro.resilience.policy import RetryPolicy, ShardFailure

if TYPE_CHECKING:  # pragma: no cover
    from repro.report.run_stats import RunStatsCollector
    from repro.resilience.journal import SweepJournal

__all__ = [
    "CoordinatorKilled",
    "CorruptResult",
    "FabricStalled",
    "FabricSupervisor",
    "HEARTBEAT_TICKS",
    "LEASE_TICKS",
    "LeaseLost",
    "QUARANTINE_AFTER",
    "ShardQuarantined",
]

#: Virtual ticks a lease lasts before its shard may be stolen.
LEASE_TICKS = 4
#: Ticks without a heartbeat before a worker is declared dead.
HEARTBEAT_TICKS = 2
#: Distinct workers a shard must fail on to be quarantined.
QUARANTINE_AFTER = 3


class CoordinatorKilled(RuntimeError):
    """The coordinator died mid-run (the ``kill_coordinator_after``
    chaos fault).  Everything completed so far is in the journal; a
    rerun against the same journal resumes byte-identically."""

    def __init__(self, label: str, completions: int):
        super().__init__(
            f"coordinator killed after {completions} shard completion(s) of "
            f"task {label!r} (resume from the journal to continue)"
        )
        self.label = label
        self.completions = completions


class FabricStalled(RuntimeError):
    """The coordinator's tick budget ran out — a scheduling bug, not a
    recoverable fault (every recoverable schedule terminates well
    inside the budget)."""


class CorruptResult(RuntimeError):
    """A result envelope failed its checksum and was rejected."""


class LeaseLost(RuntimeError):
    """A shard's lease expired (worker death or deadline overrun); the
    attempt is accounted as failed and the shard requeued."""


class ShardQuarantined(ShardFailure):
    """A poisoned shard: it failed on ``QUARANTINE_AFTER`` distinct
    workers, so the fault travels with the shard, not the worker.
    Reported (with the workers it failed on) instead of burning the
    whole retry budget on every worker in turn.

    Attributes
    ----------
    failed_workers:
        Sorted ids of the workers the shard failed on.
    """

    def __init__(
        self,
        label: str,
        shard: int,
        attempts: int,
        failed_workers: list[int],
        cause: BaseException,
    ):
        super().__init__(label, shard, attempts, cause)
        self.failed_workers = failed_workers
        self.args = (
            f"shard {shard} of task {label!r} quarantined: failed on "
            f"{len(failed_workers)} distinct workers {failed_workers} "
            f"({attempts} attempt(s)); last error: {cause!r}",
        )


# -- internal per-run state ------------------------------------------------

_PENDING, _LEASED, _DONE = "pending", "leased", "done"


@dataclass
class _Shard:
    index: int
    status: str = _PENDING
    attempts: int = 0
    epoch: int = 0
    owner: int | None = None
    deadline: int | None = None
    failed_workers: set = field(default_factory=set)


@dataclass
class _Inflight:
    shard: int
    attempt: int
    epoch: int
    remaining: int
    live: bool = True


@dataclass
class _Slot:
    id: int
    backend: InProcessWorker | PoolWorker
    alive: bool = True
    killed: bool = False
    last_heartbeat: int = 0
    inflight: _Inflight | None = None


class FabricSupervisor:
    """The lease/steal coordinator (see the module docstring).

    Every :class:`repro.sim.engine.MonteCarloEngine` task (congestion
    cells, ``map_seeded``, ``map_trial_batches``) routes through
    :meth:`run`; ``repro.resilience.supervisor.ShardSupervisor`` names
    this same class.

    Parameters
    ----------
    workers:
        Worker count (>= 1): one in-process worker for ``1``, else one
        single-process subprocess pool per worker.
    policy:
        Per-shard retry/backoff/timeout budget; ``policy.timeout`` is
        also the *real* wall-clock guard on each backend collect.
    collector:
        :class:`~repro.report.run_stats.RunStatsCollector` receiving
        per-worker fabric events (steals, lease expiries, fencings,
        deaths, quarantines).
    plan:
        Optional chaos :class:`~repro.resilience.faults.FaultPlan`.
    journal:
        Optional :class:`~repro.resilience.journal.SweepJournal`;
        accepted shard results checkpoint under ``{label}/shard={i}``.
    """

    def __init__(
        self,
        workers: int,
        policy: RetryPolicy,
        collector: "RunStatsCollector",
        plan: FaultPlan | None = None,
        journal: "SweepJournal | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._worker_cls = InProcessWorker if workers == 1 else PoolWorker
        self.policy = policy
        self.collector = collector
        self.plan = plan
        self.journal = journal
        self._backends: dict[int, InProcessWorker | PoolWorker] = {}
        self._dropped: set[int] = set()

    # -- lifecycle --------------------------------------------------------

    def _backend(self, worker_id: int) -> InProcessWorker | PoolWorker:
        if worker_id not in self._backends:
            self._backends[worker_id] = self._worker_cls(worker_id)
            self.collector.fabric_worker(worker_id, self._worker_cls.kind)
            if worker_id in self._dropped:
                self._dropped.discard(worker_id)
                self.collector.record_pool_respawn()
        return self._backends[worker_id]

    def _drop_backend(self, worker_id: int) -> None:
        """Abandon a dead or hung worker without waiting for it."""
        backend = self._backends.pop(worker_id, None)
        if backend is not None:
            backend.close()
            self._dropped.add(worker_id)

    def close(self) -> None:
        """Close every worker backend and reap its processes (idempotent)."""
        backends, self._backends = self._backends, {}
        self._dropped.clear()
        for backend in backends.values():
            backend.close(wait=True)

    # -- public -----------------------------------------------------------

    def run(self, body: Callable, payloads: Sequence, label: str) -> list:
        """Execute every payload through ``body``, in shard order.

        Returns a list indexed like ``payloads``; raises
        :class:`~repro.resilience.policy.ShardFailure` (or
        :class:`ShardQuarantined`) when a shard cannot complete.
        """
        n = len(payloads)
        if n == 0:
            return []
        plan = self.plan
        shards = [_Shard(i) for i in range(n)]
        results: dict[int, object] = {}

        # Journal replay: shards checkpointed by an earlier (killed)
        # coordinator are loaded, not re-executed.
        if self.journal is not None:
            for shard in shards:
                recorded = self.journal.get(self._journal_key(label, shard.index))
                if recorded is not None:
                    results[shard.index] = decode_result(recorded)
                    shard.status = _DONE

        slots = [_Slot(w, self._backend(w)) for w in range(self.workers)]
        completions = 0
        tick = 0
        # Generous stall budget: every recoverable schedule terminates
        # in O(shards * attempts * max-cost) ticks plus blackouts.
        max_ticks = 1000 + 64 * n * (self.policy.max_retries + 2)

        def remaining_shards() -> list[_Shard]:
            return [s for s in shards if s.status != _DONE]

        def requeue(slot: _Slot, fl: _Inflight) -> _Shard | None:
            """Void a lost attempt; the shard (if still ours) goes back
            to pending and is returned for failure accounting."""
            fl.live = False
            shard = shards[fl.shard]
            if (
                shard.status == _LEASED
                and shard.owner == slot.id
                and shard.epoch == fl.epoch
            ):
                shard.status = _PENDING
                shard.owner = None
                shard.deadline = None
                return shard
            return None

        def expire_lease(slot: _Slot, reason: str, exc: BaseException) -> None:
            fl = slot.inflight
            if fl is None or not fl.live:
                return
            shard = requeue(slot, fl)
            if shard is not None:
                self.collector.record_lease_expiry(slot.id)
                self._account_failure(label, shard, reason, exc)

        def kill_slot(slot: _Slot) -> None:
            slot.killed = True
            slot.alive = False
            self.collector.record_worker_death(slot.id)
            self._drop_backend(slot.id)

        def claim_for(slot: _Slot) -> _Shard | None:
            def eligible(shard: _Shard) -> bool:
                if slot.id not in shard.failed_workers:
                    return True
                # Last resort: no other live worker is left that this
                # shard has not already failed on.
                return not any(
                    other.id != slot.id
                    and other.alive
                    and not other.killed
                    and other.id not in shard.failed_workers
                    for other in slots
                )

            pending = [s for s in shards if s.status == _PENDING and eligible(s)]
            for shard in pending:
                if shard.index % len(slots) == slot.id:
                    return shard
            return pending[0] if pending else None

        def accept(slot_id: int, fl: _Inflight, value: object) -> None:
            nonlocal completions
            shard = shards[fl.shard]
            shard.status = _DONE
            shard.owner = None
            shard.deadline = None
            results[shard.index] = value
            self.collector.record_fabric_shard(slot_id)
            if self.journal is not None:
                self.journal.record(
                    self._journal_key(label, shard.index), encode_result(value)
                )
            completions += 1
            if (
                plan is not None
                and plan.kill_coordinator_after is not None
                and completions >= plan.kill_coordinator_after
            ):
                raise CoordinatorKilled(label, completions)

        def collect(slot: _Slot, fl: _Inflight, error: BaseException | None) -> None:
            try:
                if error is not None:
                    raise error
                envelope = slot.backend.result(timeout=self.policy.timeout)
            except (BrokenProcessPool, WorkerKilled, FutureTimeout) as exc:
                # The *worker* died (or hung past the real wall-clock
                # guard): not the shard's fault — no quarantine strike.
                kill_slot(slot)
                shard = requeue(slot, fl)
                if shard is not None:
                    self.collector.record_lease_expiry(slot.id)
                    reason = (
                        "timeout" if isinstance(exc, FutureTimeout) else "worker-died"
                    )
                    self._account_failure(label, shard, reason, exc)
                return
            except Exception as exc:
                # The shard's own execution failed on this worker.
                shard = requeue(slot, fl)
                if shard is not None:
                    reason = (
                        "timeout" if isinstance(exc, SimulatedTimeout) else "crash"
                    )
                    self._account_failure(
                        label, shard, reason, exc, fault_worker=slot.id
                    )
                return
            ok, value = open_envelope(envelope)
            if not ok:
                shard = requeue(slot, fl)
                if shard is not None:
                    self._account_failure(
                        label,
                        shard,
                        "corrupt-result",
                        CorruptResult(
                            f"shard {fl.shard} attempt {fl.attempt} from worker "
                            f"{slot.id}: envelope failed checksum"
                        ),
                        fault_worker=slot.id,
                    )
                return
            shard = shards[fl.shard]
            if (
                not fl.live
                or shard.status != _LEASED
                or shard.owner != slot.id
                or shard.epoch != fl.epoch
            ):
                # Zombie delivery: the lease moved on. Fence it.
                self.collector.record_fenced(slot.id)
                return
            accept(slot.id, fl, value)

        while remaining_shards():
            tick += 1
            if tick > max_ticks:
                raise FabricStalled(
                    f"task {label!r} stalled after {tick} ticks with "
                    f"{len(remaining_shards())} shard(s) unfinished"
                )

            # Degrade when the whole fabric is gone.
            if all(slot.killed for slot in slots):
                self.collector.record_degraded()
                self._run_degraded(body, payloads, label, shards, results, accept)
                break

            # 1. Heartbeats (blacked-out workers stay silent) + rejoin.
            for slot in slots:
                if slot.killed:
                    continue
                if plan is not None and plan.blacked_out(slot.id, tick):
                    continue
                slot.last_heartbeat = tick
                if not slot.alive:
                    slot.alive = True
                    self.collector.record_worker_rejoin(slot.id)

            # 2. Failure detection: missed heartbeats => declared dead,
            #    leases orphaned (the worker may still be computing — a
            #    partition, not a crash — so its delivery gets fenced).
            for slot in slots:
                if slot.killed or not slot.alive:
                    continue
                if tick - slot.last_heartbeat >= HEARTBEAT_TICKS:
                    slot.alive = False
                    self.collector.record_worker_death(slot.id)
                    expire_lease(
                        slot,
                        "worker-died",
                        LeaseLost(
                            f"worker {slot.id} missed heartbeats at tick {tick}"
                        ),
                    )

            # 3. Lease-deadline expiry for live-but-overrunning workers.
            for slot in slots:
                fl = slot.inflight
                if fl is None or not fl.live:
                    continue
                shard = shards[fl.shard]
                if (
                    shard.status == _LEASED
                    and shard.owner == slot.id
                    and shard.deadline is not None
                    and tick > shard.deadline
                ):
                    expire_lease(
                        slot,
                        "lease-expired",
                        LeaseLost(
                            f"lease on shard {shard.index} expired at tick {tick} "
                            f"(worker {slot.id} overran)"
                        ),
                    )

            # 4. Assignment: idle live workers claim their own partition
            #    first, then steal the lowest pending shard.
            for slot in slots:
                if slot.killed or not slot.alive or slot.inflight is not None:
                    continue
                shard = claim_for(slot)
                if shard is None:
                    continue
                if shard.index % len(slots) != slot.id:
                    self.collector.record_steal(slot.id)
                shard.status = _LEASED
                shard.owner = slot.id
                shard.epoch += 1
                shard.deadline = tick + LEASE_TICKS
                cost = (
                    plan.attempt_cost(slot.id, shard.index, shard.attempts)
                    if plan is not None
                    else 1
                )
                slot.inflight = _Inflight(
                    shard.index, shard.attempts, shard.epoch, remaining=cost
                )

            # 5. Progress + delivery: submit every attempt completing
            #    this tick (so subprocess backends overlap), then
            #    collect in worker-id order — deterministic accounting,
            #    real parallelism.
            completing: list[tuple[_Slot, _Inflight]] = []
            for slot in slots:
                fl = slot.inflight
                if fl is None:
                    continue
                if fl.remaining > 0:
                    fl.remaining -= 1
                if fl.remaining == 0 and not (
                    plan is not None and plan.blacked_out(slot.id, tick)
                ):
                    completing.append((slot, fl))
            submit_errors: dict[int, BaseException] = {}
            for slot, fl in completing:
                call = FabricCall(
                    body=body,
                    payload=payloads[fl.shard],
                    shard=fl.shard,
                    attempt=fl.attempt,
                    worker=slot.id,
                    plan=plan,
                    timeout=self.policy.timeout,
                )
                try:
                    slot.backend.submit(call)
                except (BrokenProcessPool, OSError, RuntimeError) as exc:
                    submit_errors[slot.id] = exc
            for slot, fl in completing:
                slot.inflight = None
                collect(slot, fl, submit_errors.get(slot.id))

        return [results[i] for i in range(n)]

    # -- degraded serial path ---------------------------------------------

    def _run_degraded(
        self,
        body: Callable,
        payloads: Sequence,
        label: str,
        shards: list[_Shard],
        results: dict[int, object],
        accept: Callable,
    ) -> None:
        """Finish the remaining shards on an in-process fallback worker.

        ``kill_worker`` faults are stripped first — there is no fabric
        left to kill, the same way ``break_pool`` is a no-op in serial
        mode — but crash/corrupt injection still applies, so retry
        counters stay schedule-faithful even here.
        """
        plan = self.plan
        if plan is not None and plan.worker_faults:
            plan = replace(
                plan,
                worker_faults=tuple(
                    f for f in plan.worker_faults if f.kind != "kill_worker"
                ),
            )
        fallback = InProcessWorker(self.workers)
        self.collector.fabric_worker(fallback.worker_id, "inproc-fallback")
        for shard in shards:
            if shard.status == _DONE:
                continue
            shard.status = _PENDING
            shard.owner = None
            shard.deadline = None
            while True:
                fl = _Inflight(shard.index, shard.attempts, shard.epoch, 0)
                fallback.submit(
                    FabricCall(
                        body=body,
                        payload=payloads[shard.index],
                        shard=shard.index,
                        attempt=shard.attempts,
                        worker=fallback.worker_id,
                        plan=plan,
                        timeout=self.policy.timeout,
                    )
                )
                try:
                    envelope = fallback.result(timeout=self.policy.timeout)
                except Exception as exc:
                    reason = (
                        "timeout" if isinstance(exc, SimulatedTimeout) else "crash"
                    )
                    self._account_failure(
                        label, shard, reason, exc, fault_worker=fallback.worker_id
                    )
                    continue
                ok, value = open_envelope(envelope)
                if not ok:
                    self._account_failure(
                        label,
                        shard,
                        "corrupt-result",
                        CorruptResult(
                            f"shard {shard.index} attempt {fl.attempt} from "
                            f"fallback worker: envelope failed checksum"
                        ),
                        fault_worker=fallback.worker_id,
                    )
                    continue
                shard.status = _LEASED
                shard.owner = fallback.worker_id
                accept(fallback.worker_id, fl, value)
                break

    # -- shared accounting -------------------------------------------------

    @staticmethod
    def _journal_key(label: str, shard: int) -> str:
        return f"{label}/shard={shard}"

    def _account_failure(
        self,
        label: str,
        shard: _Shard,
        reason: str,
        exc: BaseException,
        fault_worker: int | None = None,
    ) -> None:
        """Record one failed attempt; raise when a limit is crossed.

        ``fault_worker`` attributes the failure to the shard itself (a
        quarantine strike on that worker); worker deaths pass ``None``
        so a flaky *fabric* never quarantines a healthy shard.
        """
        failed_attempt = shard.attempts
        shard.attempts += 1
        if fault_worker is not None:
            shard.failed_workers.add(fault_worker)
            if len(shard.failed_workers) >= QUARANTINE_AFTER:
                self.collector.record_quarantine(label, shard.index)
                raise ShardQuarantined(
                    label,
                    shard.index,
                    shard.attempts,
                    sorted(shard.failed_workers),
                    exc,
                ) from exc
        if shard.attempts > self.policy.max_retries:
            raise ShardFailure(label, shard.index, shard.attempts, exc) from exc
        self.collector.record_retry(label, shard.index, reason)
        self.policy.wait(label, shard.index, failed_attempt)
