"""Execution instrumentation for the Monte-Carlo engine.

The engine records one :class:`ShardRecord` per executed shard (chunk
of trials) and one counter tick per cache lookup; :class:`RunStatsCollector`
aggregates them into the throughput summary printed by
``python -m repro <experiment> --stats``.  Pure bookkeeping — nothing
here affects simulation results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FabricWorkerStats", "RetryRecord", "RunStatsCollector", "ShardRecord"]


@dataclass
class FabricWorkerStats:
    """Per-worker accounting for one fabric worker.

    Attributes
    ----------
    worker:
        Fabric worker id (the degraded-mode fallback worker uses the
        first id past the configured worker count).
    backend:
        Backend kind (``inproc``/``pool``/``inproc-fallback``).
    shards:
        Shard results this worker delivered and the coordinator
        accepted.
    steals:
        Shards this worker claimed from outside its own partition.
    lease_expiries:
        Leases this worker lost — to a missed-heartbeat death, a
        deadline overrun, or its own crash.
    fenced:
        Stale (zombie) deliveries from this worker the coordinator
        discarded.
    deaths:
        Times the coordinator declared this worker dead (a killed
        worker dies once; a blacked-out worker can die and rejoin).
    rejoins:
        Times a declared-dead worker resumed heartbeating.
    """

    worker: int
    backend: str = ""
    shards: int = 0
    steals: int = 0
    lease_expiries: int = 0
    fenced: int = 0
    deaths: int = 0
    rejoins: int = 0


@dataclass(frozen=True)
class RetryRecord:
    """One retried shard attempt.

    Attributes
    ----------
    task:
        The supervised task's label.
    shard:
        Which shard of the task was retried.
    reason:
        ``"crash"`` (the attempt raised) or ``"timeout"`` (the attempt
        exceeded the policy's per-shard budget).
    """

    task: str
    shard: int
    reason: str


@dataclass(frozen=True)
class ShardRecord:
    """Wall-clock accounting for one executed shard.

    Attributes
    ----------
    task:
        Human-readable task label, e.g. ``"matrix:RAS/stride/w=32"``.
    trials:
        Mapping draws the shard simulated.
    seconds:
        Wall time of the shard body (measured inside the worker, so
        pool scheduling overhead is excluded).
    """

    task: str
    trials: int
    seconds: float

    @property
    def trials_per_sec(self) -> float:
        return self.trials / self.seconds if self.seconds > 0 else float("inf")


@dataclass
class RunStatsCollector:
    """Accumulates shard timings and cache hit/miss counters."""

    shards: list[ShardRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    retries: list[RetryRecord] = field(default_factory=list)
    pool_respawns: int = 0
    degraded_runs: int = 0
    fabric_workers: dict[int, FabricWorkerStats] = field(default_factory=dict)
    quarantined: list[tuple[str, int]] = field(default_factory=list)

    def record_shard(self, task: str, trials: int, seconds: float) -> None:
        self.shards.append(ShardRecord(task, trials, seconds))

    def record_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    # -- resilience events (see repro.resilience.supervisor) -------------

    def record_retry(self, task: str, shard: int, reason: str) -> None:
        """One shard attempt failed and was retried."""
        self.retries.append(RetryRecord(task, shard, reason))

    def record_pool_respawn(self) -> None:
        """A BrokenProcessPool was recovered by rebuilding the pool."""
        self.pool_respawns += 1

    def record_degraded(self) -> None:
        """Pool recovery gave up; a run finished serially in-process."""
        self.degraded_runs += 1

    # -- fabric events (see repro.fabric.supervisor) ----------------------

    def fabric_worker(self, worker: int, backend: str = "") -> FabricWorkerStats:
        """Get-or-create the per-worker stats row for ``worker``."""
        stats = self.fabric_workers.get(worker)
        if stats is None:
            stats = FabricWorkerStats(worker=worker, backend=backend)
            self.fabric_workers[worker] = stats
        elif backend and not stats.backend:
            stats.backend = backend
        return stats

    def record_fabric_shard(self, worker: int) -> None:
        """The coordinator accepted one shard result from ``worker``."""
        self.fabric_worker(worker).shards += 1

    def record_steal(self, worker: int) -> None:
        """``worker`` claimed a shard outside its own partition."""
        self.fabric_worker(worker).steals += 1

    def record_lease_expiry(self, worker: int) -> None:
        """``worker`` lost a lease (death, deadline overrun, or crash)."""
        self.fabric_worker(worker).lease_expiries += 1

    def record_fenced(self, worker: int) -> None:
        """A stale delivery from ``worker`` was fenced (discarded)."""
        self.fabric_worker(worker).fenced += 1

    def record_worker_death(self, worker: int) -> None:
        """The coordinator declared ``worker`` dead."""
        self.fabric_worker(worker).deaths += 1

    def record_worker_rejoin(self, worker: int) -> None:
        """A declared-dead ``worker`` resumed heartbeating."""
        self.fabric_worker(worker).rejoins += 1

    def record_quarantine(self, task: str, shard: int) -> None:
        """A shard was quarantined (failed on K distinct workers)."""
        self.quarantined.append((task, shard))

    @property
    def retry_counts(self) -> dict[str, int]:
        """Retries per failure reason (``{"crash": 2, "timeout": 1}``).

        Note: execution-fault retries are worker-count-independent for
        a fixed fault schedule (enforced by ``tests/test_chaos.py``);
        ``pool_respawns``/``degraded_runs`` are infrastructure events
        that only exist when a pool does.
        """
        counts: dict[str, int] = {}
        for record in self.retries:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return counts

    # -- aggregation -----------------------------------------------------

    @property
    def total_trials(self) -> int:
        return sum(record.trials for record in self.shards)

    @property
    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.shards)

    def by_task(self) -> dict[str, tuple[int, int, float]]:
        """``task -> (shards, trials, seconds)`` in first-seen order."""
        grouped: dict[str, tuple[int, int, float]] = {}
        for record in self.shards:
            n, trials, seconds = grouped.get(record.task, (0, 0, 0.0))
            grouped[record.task] = (
                n + 1, trials + record.trials, seconds + record.seconds
            )
        return grouped

    def summary(self, top: int = 15) -> str:
        """Render the run as an ASCII table plus cache totals.

        Parameters
        ----------
        top:
            Show at most this many tasks (slowest first); the rest are
            folded into an "(other)" row so wide sweeps stay readable.
        """
        from repro.report.tables import format_grid

        grouped = sorted(
            self.by_task().items(), key=lambda kv: kv[1][2], reverse=True
        )
        shown, rest = grouped[:top], grouped[top:]
        rows = [
            [
                task,
                str(n),
                str(trials),
                f"{seconds:.3f}",
                f"{trials / seconds:.0f}" if seconds > 0 else "inf",
            ]
            for task, (n, trials, seconds) in shown
        ]
        if rest:
            n = sum(v[0] for _, v in rest)
            trials = sum(v[1] for _, v in rest)
            seconds = sum(v[2] for _, v in rest)
            rows.append(
                [
                    f"(other x{len(rest)})",
                    str(n),
                    str(trials),
                    f"{seconds:.3f}",
                    f"{trials / seconds:.0f}" if seconds > 0 else "inf",
                ]
            )
        lines = [
            format_grid(
                ["task", "shards", "trials", "wall s", "trials/s"],
                rows,
                title="Engine run stats",
            )
            if rows
            else "Engine run stats: no shards executed",
        ]
        lookups = self.cache_hits + self.cache_misses
        if lookups:
            lines.append(
                f"cache: {self.cache_hits} hit / {self.cache_misses} miss "
                f"({self.cache_hits / lookups:.0%} hit rate)"
            )
        else:
            lines.append("cache: disabled or unused")
        if self.retries or self.pool_respawns or self.degraded_runs:
            reasons = ", ".join(
                f"{n} {reason}" for reason, n in sorted(self.retry_counts.items())
            )
            lines.append(
                f"resilience: {len(self.retries)} shard retries"
                + (f" ({reasons})" if reasons else "")
                + f", {self.pool_respawns} pool respawns"
                + (
                    f", {self.degraded_runs} degraded to serial"
                    if self.degraded_runs
                    else ""
                )
            )
        if self.fabric_workers:
            rows = [
                [
                    str(stats.worker),
                    stats.backend or "?",
                    str(stats.shards),
                    str(stats.steals),
                    str(stats.lease_expiries),
                    str(stats.fenced),
                    str(stats.deaths),
                    str(stats.rejoins),
                ]
                for _, stats in sorted(self.fabric_workers.items())
            ]
            lines.append(
                format_grid(
                    [
                        "worker",
                        "backend",
                        "shards",
                        "steals",
                        "leases lost",
                        "fenced",
                        "deaths",
                        "rejoins",
                    ],
                    rows,
                    title="Fabric workers",
                )
            )
            if self.quarantined:
                cells = ", ".join(
                    f"{task} shard {shard}" for task, shard in self.quarantined
                )
                lines.append(f"quarantined: {cells}")
        total = self.total_seconds
        lines.append(
            f"total: {self.total_trials} trials in {total:.3f}s worker time"
            + (f" ({self.total_trials / total:.0f} trials/s)" if total > 0 else "")
        )
        return "\n".join(lines)
