"""Parallel Monte-Carlo execution engine with result caching.

The table generators and sweeps all reduce to the same shape of work:
*estimate the expected congestion of one (mapping, pattern, width)
cell from ``trials`` independent mapping redraws*.  The engine turns
each such task into a deterministic shard plan:

1. The task's trials are split into a **fixed number of shards**
   (default :data:`DEFAULT_SHARDS`, independent of the worker count).
2. Each shard gets its own child :class:`~numpy.random.SeedSequence`
   via ``SeedSequence.spawn`` — non-overlapping streams by
   construction, picklable across process boundaries.
3. Shards run on the shard supervisor's workers: one in-process
   worker (``workers=1``) or one subprocess each (``workers > 1``).
4. Per-shard :class:`~repro.sim.congestion_sim.RunningStats` partials
   are merged **in shard order** with Chan's exact pairwise combine.

Because the shard plan, the per-shard streams, and the merge order
depend only on ``(task, trials, seed, shards)`` — never on the worker
count or on which process ran which shard — a fixed seed produces
**bit-identical** :class:`~repro.sim.congestion_sim.CongestionStats`
for any ``workers``.  The on-disk :class:`~repro.sim.cache.ResultCache`
stores the finished stats losslessly, so cache-warm results are
bit-identical to cache-cold ones as well; both invariants are enforced
by ``tests/test_engine.py``.

Shards execute under :class:`repro.fabric.FabricSupervisor`, the one
shard supervisor, whose only setting is ``workers``.  It
leases shards to workers, retries failed attempts with deterministic
backoff, drops dead or hung workers (rebuilding them for the next
task), and degrades to an in-process fallback if every worker dies.
A retried shard re-derives its stream from its own spawned
``SeedSequence``, so a run that survives faults stays bit-identical to
a fault-free run — the determinism contract doubles as a *recovery*
contract (``tests/test_chaos.py``, ``tests/test_fabric.py``).

Matrix cells whose value a proof already gives never reach a shard:
when :func:`repro.analysis.absint.prove_pattern_forall_w` certifies a
(pattern, family) cell *exactly* — the same congestion under every
draw at every width ``w >= w0`` — :meth:`MonteCarloEngine._run`
returns that closed form directly (no supervisor, cache, or RNG).  It
is bit-identical to the simulation: all-equal integer samples give
Welford mean ``c`` and ``M2 = 0`` exactly, and each cell owns its
spawned seed, so skipping one moves no other cell's stream
(``tests/test_certified_cells.py`` compares every such cell against
the simulator).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.report.run_stats import RunStatsCollector
    from repro.resilience.journal import SweepJournal

from repro.fabric import FabricSupervisor
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.sim.cache import ResultCache
from repro.sim.congestion_sim import (
    CongestionStats,
    RunningStats,
    _accumulate_matrix,
    _accumulate_nd,
    _accumulate_nd_fast,
)
from repro.util.rng import SeedLike, as_generator, seed_fingerprint, spawn_seed_sequences
from repro.util.validation import check_positive_int

__all__ = ["DEFAULT_SHARDS", "MonteCarloEngine", "resolve_workers"]

#: Shards per task.  Fixed (not ``= workers``) so the RNG stream
#: partition — and therefore every result bit — is identical whether
#: the shards run on 1 worker or 16.  Small enough that per-shard
#: chunking still amortizes, large enough to keep 8 cores busy.
DEFAULT_SHARDS = 8

#: The in-process simulator bodies, by task kind.  Each maps
#: ``(params..., trials, rng) -> RunningStats``.
_SHARD_BODIES: dict[str, Callable[..., RunningStats]] = {
    "matrix": _accumulate_matrix,
    "nd": _accumulate_nd,
    "nd_fast": _accumulate_nd_fast,
}


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request (``None``/``0`` -> all cores)."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    return workers


def _run_shard(task: tuple) -> tuple[RunningStats, float]:
    """Worker entry point: run one shard, return (partial, wall time).

    Module-level so it pickles under every multiprocessing start
    method; the wall time is measured here, inside the worker, so the
    instrumentation reports simulation cost rather than dispatch latency.
    """
    kind, params, trials, seed_seq = task
    start = perf_counter()
    stats = _SHARD_BODIES[kind](*params, trials, as_generator(seed_seq))
    return stats, perf_counter() - start


def _shard_sizes(trials: int, shards: int) -> list[int]:
    """Balanced shard sizes: ``shards`` parts of ``trials`` (no zeros)."""
    k = min(trials, shards)
    base, extra = divmod(trials, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


class MonteCarloEngine:
    """Executes congestion-simulation tasks over supervised workers + cache.

    Matrix cells that a for-all-w proof closes exactly (contiguous
    under every family, stride under RAW and RAP, diagonal under RAW,
    ...) return their closed form without simulating; every other
    task runs its fixed shard plan.

    Parameters
    ----------
    workers:
        Worker count, the shard supervisor's only setting.  ``1``
        (default) runs shards on one in-process worker — no
        subprocess — but through the *same* shard plan, so results
        match any other worker count bit for bit; ``N > 1`` runs one
        subprocess per worker.  ``None`` or ``0`` uses every core.
    cache:
        A :class:`ResultCache`, ``True`` for one rooted at the default
        directory, or ``None``/``False`` to disable caching.
    shards:
        Shards per task (default :data:`DEFAULT_SHARDS`).  Part of the
        result's RNG identity: changing it changes the streams, so it
        is folded into the cache key.
    collector:
        Optional :class:`RunStatsCollector`; one is created if omitted.
    policy:
        Optional :class:`~repro.resilience.policy.RetryPolicy` for the
        shard supervisor (retries, per-shard timeout, backoff).
        Defaults cover transient worker loss without affecting results.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` — the
        deterministic chaos harness.  Production runs leave this
        ``None``.
    fabric_journal:
        Optional :class:`~repro.resilience.journal.SweepJournal` the
        supervisor checkpoints accepted shards into (per-shard resume
        for a killed coordinator).

    Examples
    --------
    >>> engine = MonteCarloEngine(workers=2, cache=False)
    >>> stats = engine.matrix_congestion("RAS", "stride", 32, trials=100, seed=7)
    >>> engine.close()
    """

    def __init__(
        self,
        workers: int | None = 1,
        cache: ResultCache | bool | None = None,
        shards: int | None = None,
        collector: "RunStatsCollector | None" = None,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        fabric_journal: "SweepJournal | None" = None,
    ) -> None:
        # Imported here, not at module level: repro.report's package
        # init pulls in the table renderers, which import
        # repro.sim.experiments, which imports this module.
        from repro.report.run_stats import RunStatsCollector

        self.workers = resolve_workers(workers)
        if cache is True:
            cache = ResultCache()
        elif cache is False:
            cache = None
        self.cache = cache
        self.shards = check_positive_int(shards or DEFAULT_SHARDS, "shards")
        self.collector = collector if collector is not None else RunStatsCollector()
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults
        self._supervisor = FabricSupervisor(
            workers=self.workers,
            policy=self.policy,
            collector=self.collector,
            plan=self.faults,
            journal=fabric_journal,
        )

    def close(self) -> None:
        """Shut the workers down and reap their processes (idempotent).

        Cancels queued work so an ``__exit__`` during pending work
        (e.g. after a shard failure propagated) returns promptly
        instead of draining the backlog.
        """
        self._supervisor.close()

    def __enter__(self) -> "MonteCarloEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public task API -------------------------------------------------

    def matrix_congestion(
        self,
        mapping_name: str,
        pattern: str,
        w: int,
        trials: int = 2000,
        seed: SeedLike = None,
    ) -> CongestionStats:
        """Parallel/cached :func:`~repro.sim.congestion_sim.simulate_matrix_congestion`."""
        check_positive_int(w, "w")
        check_positive_int(trials, "trials")
        return self._run("matrix", (mapping_name, pattern, w), trials, seed)

    def nd_congestion(
        self,
        scheme: str,
        pattern: str,
        w: int,
        trials: int = 500,
        seed: SeedLike = None,
        fast: bool = True,
    ) -> CongestionStats:
        """Parallel/cached Table IV sampler (fast path by default)."""
        check_positive_int(w, "w")
        check_positive_int(trials, "trials")
        kind = "nd_fast" if fast else "nd"
        return self._run(kind, (scheme, pattern, w), trials, seed)

    def map_trial_batches(
        self,
        func: Callable,
        params: tuple,
        trials: int,
        seed: SeedLike,
    ) -> list:
        """Run ``func(params, n, rng)`` over the fixed shard plan of ``trials``.

        The trial-batch sibling of :meth:`map_seeded`, for worker
        bodies that vectorize over whole trial blocks (e.g. the batched
        DMM app-timing sweep).  ``trials`` is split with the same fixed
        shard plan as the congestion tasks, each shard gets its own
        spawned child stream, and the per-shard return values come back
        **in shard order** — concatenating them yields a result that is
        bit-identical for every worker count.  ``func`` must be a
        module-level callable (picklable) and is invoked as
        ``func(params, n, rng)`` with ``n`` the shard's trial count.
        Not cached: arbitrary callables have no stable cache identity.
        """
        check_positive_int(trials, "trials")
        sizes = _shard_sizes(trials, self.shards)
        seqs = spawn_seed_sequences(seed, len(sizes))
        payloads = [(func, params, size, seq) for size, seq in zip(sizes, seqs)]
        # Supervised, in shard order: part of the bit-identity contract
        # shared with _run.
        label = f"batches:{getattr(func, '__name__', '?')}"
        return self._supervisor.run(_call_trial_batch, payloads, label)

    def map_seeded(
        self,
        func: Callable,
        items: Sequence,
        seed: SeedLike,
    ) -> list:
        """Run ``func(item, rng)`` per item with independent child streams.

        Escape hatch for task shapes the congestion API does not cover
        (e.g. Table III's DMM transposes).  ``func`` must be a
        module-level callable and its results picklable; items are
        dispatched to the supervisor's workers and results return
        in item order, so output is worker-count-independent as long as
        ``func`` itself is deterministic given its rng.  Not cached:
        arbitrary callables have no stable cache identity.
        """
        seqs = spawn_seed_sequences(seed, len(items))
        payloads = [(func, item, seq) for item, seq in zip(items, seqs)]
        label = f"seeded:{getattr(func, '__name__', '?')}"
        return self._supervisor.run(_call_seeded, payloads, label)

    # -- core ------------------------------------------------------------

    def _run(
        self, kind: str, params: tuple, trials: int, seed: SeedLike
    ) -> CongestionStats:
        label = f"{kind}:{'/'.join(map(str, params[:-1]))}/w={params[-1]}"
        if kind == "matrix":
            certified = _certified_matrix_cell(*params, trials)
            if certified is not None:
                self.collector.record_certified(label, trials)
                return certified
        seed_fp = seed_fingerprint(seed)

        key = None
        if self.cache is not None and seed_fp is not None:
            key = ResultCache.make_key(kind, params, trials, seed_fp, self.shards)
            cached = self.cache.get(key)
            self.collector.record_cache(hit=cached is not None)
            if cached is not None:
                return cached

        sizes = _shard_sizes(trials, self.shards)
        seqs = spawn_seed_sequences(seed, len(sizes))
        tasks = [
            (kind, params, size, seq) for size, seq in zip(sizes, seqs)
        ]

        # Supervised execution, collected in shard order: merge order is
        # part of the bit-identity contract, and a retried shard
        # re-derives the same stream from its own SeedSequence, so the
        # contract survives faults too.
        partials = self._supervisor.run(_run_shard, tasks, label)

        merged = RunningStats()
        for partial, seconds in partials:
            merged.merge(partial)
            self.collector.record_shard(label, partial.trials, seconds)
        stats = merged.finish()

        if key is not None:
            self.cache.put(key, stats)
        return stats


def _certified_matrix_cell(
    mapping_name: str, pattern: str, w: int, trials: int
) -> CongestionStats | None:
    """The closed form of a matrix cell every draw gives the same value.

    ``None`` unless the pattern is one the simulator knows *and* has a
    width-generic affine template, the family is RAW/RAS/RAP, and the
    for-all-w certificate is ``"exact"`` at this width — ``"worst"``
    certificates bound a supremum, not the mean, so those cells (and
    ``random``) still simulate.  The stats are what the simulator would
    accumulate from ``trials * w`` samples all equal to the certified
    congestion.
    """
    from repro.access.patterns import PATTERN_NAMES
    from repro.analysis.absint import (
        ABSINT_FAMILIES,
        KIND_EXACT,
        prove_pattern_forall_w,
    )
    from repro.analysis.affine import AFFINE_PATTERNS

    family, name = mapping_name.upper(), pattern.lower()
    if (
        family not in ABSINT_FAMILIES
        or name not in AFFINE_PATTERNS
        or name not in PATTERN_NAMES
    ):
        return None
    cert = prove_pattern_forall_w(name, family)
    if cert.kind != KIND_EXACT or w < cert.w0:
        return None
    c = cert.congestion_at(w)
    return CongestionStats(
        mean=float(c),
        std=0.0,
        minimum=c,
        maximum=c,
        n_samples=trials * w,
        n_trials=trials,
    )


def _call_seeded(payload: tuple) -> object:
    """Shard body for :meth:`MonteCarloEngine.map_seeded`."""
    func, item, seq = payload
    return func(item, as_generator(seq))


def _call_trial_batch(payload: tuple) -> object:
    """Shard body for :meth:`MonteCarloEngine.map_trial_batches`."""
    func, params, n, seq = payload
    return func(params, n, as_generator(seq))
