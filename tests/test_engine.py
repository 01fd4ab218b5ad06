"""Tests for the parallel Monte-Carlo engine, its cache, and the
mergeable statistics that make both exact.

The load-bearing contract: for a fixed seed, engine results are
bit-identical regardless of worker count and cache state.
"""

import numpy as np
import pytest

from repro.report.run_stats import RunStatsCollector
from repro.sim.cache import ResultCache, code_fingerprint
from repro.sim.congestion_sim import (
    CongestionStats,
    RunningStats,
    simulate_matrix_congestion,
)
from repro.sim.engine import DEFAULT_SHARDS, MonteCarloEngine, resolve_workers
from repro.util.rng import (
    as_generator,
    as_seed_sequence,
    seed_fingerprint,
    spawn_generators,
    spawn_seed_sequences,
)


class TestRunningStats:
    def test_empty_chunk_is_noop(self):
        """Regression: ``add`` used to crash on ``values.min()`` of a
        zero-size array."""
        stats = RunningStats()
        stats.add(np.array([]))  # must not raise
        stats.add(np.array([2.0, 4.0]))
        stats.add(np.array([]))
        assert stats.n == 2
        assert stats.minimum == 2 and stats.maximum == 4

    def test_empty_only_finish_raises(self):
        stats = RunningStats()
        stats.add(np.array([]))
        with pytest.raises(ValueError):
            stats.finish()

    def test_matches_numpy_moments(self):
        rng = as_generator(0)
        values = rng.normal(5.0, 2.0, size=10_000)
        stats = RunningStats()
        for chunk in np.array_split(values, 7):
            stats.add(chunk)
        out = stats.finish()
        assert out.mean == pytest.approx(values.mean(), rel=1e-12)
        assert out.std == pytest.approx(values.std(), rel=1e-12)

    def test_welford_resists_catastrophic_cancellation(self):
        """E[x^2]-mean^2 collapses for near-constant samples with a
        large mean; Welford/Chan must not."""
        base = 1e9
        values = base + np.tile(np.array([0.0, 1e-3]), 50_000)
        stats = RunningStats()
        for chunk in np.array_split(values, 11):
            stats.add(chunk)
        out = stats.finish()
        # Accurate two-pass reference on the same (quantized) data.
        two_pass_var = float(np.square(values - values.mean()).mean())
        assert out.std == pytest.approx(np.sqrt(two_pass_var), rel=1e-9)
        # The naive single-pass formula loses every significant digit
        # here (~56-bit cancellation), which is why it was replaced.
        naive_var = float((values**2).mean() - values.mean() ** 2)
        assert abs(naive_var - two_pass_var) > two_pass_var

    def test_merge_equals_sequential(self):
        rng = as_generator(1)
        a_vals = rng.integers(1, 9, size=1000)
        b_vals = rng.integers(1, 9, size=300)
        a, b, both = RunningStats(), RunningStats(), RunningStats()
        a.add(a_vals)
        b.add(b_vals)
        both.add(a_vals)
        both.add(b_vals)
        merged = a.merge(b)
        assert merged.n == both.n
        assert merged.mean == both.mean  # bit-identical, not approx
        assert merged.m2 == both.m2
        assert merged.minimum == both.minimum
        assert merged.maximum == both.maximum

    def test_merge_empty_sides(self):
        a, b = RunningStats(), RunningStats()
        b.add(np.array([3, 5]))
        b.trials = 2
        a.merge(b)
        assert a.n == 2 and a.trials == 2
        a.merge(RunningStats())  # empty right side is a no-op
        assert a.n == 2

    def test_trials_tracked_through_simulate(self):
        s = simulate_matrix_congestion("RAS", "stride", 8, trials=10, seed=0)
        assert s.n_trials == 10
        assert s.n_samples == 80


class TestConservativeInterval:
    def test_wider_than_sem_interval(self):
        s = simulate_matrix_congestion("RAS", "stride", 32, trials=50, seed=0)
        lo_c, hi_c = s.conservative_interval()
        lo_o, hi_o = s.confidence_interval()
        assert (hi_c - lo_c) > (hi_o - lo_o)  # n_trials < n_samples

    def test_ratio_is_sqrt_w(self):
        """Effective n drops by w, so the CI widens by sqrt(w)."""
        s = simulate_matrix_congestion("RAS", "stride", 16, trials=40, seed=1)
        lo_c, hi_c = s.conservative_interval()
        lo_o, hi_o = s.confidence_interval()
        assert (hi_c - lo_c) / (hi_o - lo_o) == pytest.approx(4.0)

    def test_falls_back_to_n_samples(self):
        s = CongestionStats(mean=3.0, std=1.0, minimum=1, maximum=5, n_samples=100)
        assert s.conservative_interval() == s.confidence_interval()

    def test_rejects_bad_z(self):
        s = CongestionStats(3.0, 1.0, 1, 5, 100, 10)
        with pytest.raises(ValueError):
            s.conservative_interval(0)


class TestEngineDeterminism:
    """Same seed => bit-identical stats for workers in {1, 2, 4}."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_matrix_worker_count_invariant(self, workers):
        serial = MonteCarloEngine(workers=1).matrix_congestion(
            "RAS", "stride", 32, trials=64, seed=11
        )
        with MonteCarloEngine(workers=workers) as engine:
            parallel = engine.matrix_congestion(
                "RAS", "stride", 32, trials=64, seed=11
            )
        assert parallel == serial

    @pytest.mark.parametrize("workers", [2, 4])
    def test_nd_worker_count_invariant(self, workers):
        serial = MonteCarloEngine(workers=1).nd_congestion(
            "3P", "random", 8, trials=48, seed=12
        )
        with MonteCarloEngine(workers=workers) as engine:
            parallel = engine.nd_congestion("3P", "random", 8, trials=48, seed=12)
        assert parallel == serial

    def test_nd_slow_path_worker_count_invariant(self):
        """w2P falls back to the per-trial sampler inside each shard."""
        serial = MonteCarloEngine(workers=1).nd_congestion(
            "w2P", "random", 6, trials=24, seed=13
        )
        with MonteCarloEngine(workers=2) as engine:
            parallel = engine.nd_congestion("w2P", "random", 6, trials=24, seed=13)
        assert parallel == serial

    def test_single_trial_task(self):
        a = MonteCarloEngine().matrix_congestion("RAW", "stride", 16, trials=1, seed=0)
        assert a.mean == 16

    def test_seed_sequence_seed_accepted(self):
        seq = spawn_seed_sequences(5, 3)[1]
        a = MonteCarloEngine().matrix_congestion("RAS", "stride", 16, trials=20, seed=seq)
        b = MonteCarloEngine().matrix_congestion(
            "RAS", "stride", 16, trials=20, seed=spawn_seed_sequences(5, 3)[1]
        )
        assert a == b

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestEngineCache:
    def test_cold_vs_warm_bit_identical(self, tmp_path):
        engine = MonteCarloEngine(workers=1, cache=ResultCache(tmp_path))
        cold = engine.matrix_congestion("RAS", "diagonal", 16, trials=40, seed=3)
        warm = engine.matrix_congestion("RAS", "diagonal", 16, trials=40, seed=3)
        assert warm == cold
        assert engine.cache.hits == 1 and engine.cache.misses == 1
        assert len(engine.cache) == 1

    def test_warm_across_engine_instances(self, tmp_path):
        a = MonteCarloEngine(cache=ResultCache(tmp_path)).matrix_congestion(
            "RAP", "diagonal", 16, trials=30, seed=9
        )
        second = MonteCarloEngine(cache=ResultCache(tmp_path))
        b = second.matrix_congestion("RAP", "diagonal", 16, trials=30, seed=9)
        assert a == b
        assert second.cache.hits == 1

    def test_cache_agrees_with_parallel_run(self, tmp_path):
        cached_engine = MonteCarloEngine(cache=ResultCache(tmp_path))
        first = cached_engine.matrix_congestion("RAS", "stride", 16, trials=32, seed=4)
        warm = cached_engine.matrix_congestion("RAS", "stride", 16, trials=32, seed=4)
        with MonteCarloEngine(workers=2, cache=None) as parallel_engine:
            parallel = parallel_engine.matrix_congestion(
                "RAS", "stride", 16, trials=32, seed=4
            )
        assert first == warm == parallel

    def test_key_varies_with_params(self, tmp_path):
        engine = MonteCarloEngine(cache=ResultCache(tmp_path))
        engine.matrix_congestion("RAS", "stride", 16, trials=10, seed=1)
        engine.matrix_congestion("RAS", "stride", 16, trials=11, seed=1)
        engine.matrix_congestion("RAS", "stride", 16, trials=10, seed=2)
        assert engine.cache.misses == 3 and len(engine.cache) == 3

    def test_unseeded_runs_skip_cache(self, tmp_path):
        engine = MonteCarloEngine(cache=ResultCache(tmp_path))
        engine.matrix_congestion("RAS", "stride", 16, trials=10, seed=None)
        assert engine.cache.hits == 0 and engine.cache.misses == 0
        assert len(engine.cache) == 0

    def test_generator_seed_skips_cache(self, tmp_path):
        engine = MonteCarloEngine(cache=ResultCache(tmp_path))
        engine.matrix_congestion(
            "RAS", "stride", 16, trials=10, seed=as_generator(0)
        )
        assert len(engine.cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = MonteCarloEngine(cache=cache)
        fresh = engine.matrix_congestion("RAS", "stride", 16, trials=10, seed=1)
        for path in cache.root.glob("*.json"):
            path.write_text("{not json")
        again = engine.matrix_congestion("RAS", "stride", 16, trials=10, seed=1)
        assert again == fresh

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        MonteCarloEngine(cache=cache).matrix_congestion(
            "RAS", "stride", 16, trials=10, seed=1
        )
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 20


class TestEngineInstrumentation:
    def test_shards_recorded(self):
        collector = RunStatsCollector()
        engine = MonteCarloEngine(collector=collector)
        engine.matrix_congestion("RAS", "stride", 16, trials=32, seed=0)
        assert len(collector.shards) == min(32, DEFAULT_SHARDS)
        assert collector.total_trials == 32
        assert all(record.seconds >= 0 for record in collector.shards)

    def test_summary_renders(self):
        collector = RunStatsCollector()
        collector.record_shard("matrix:RAS/stride/w=16", 10, 0.5)
        collector.record_cache(hit=True)
        collector.record_cache(hit=False)
        out = collector.summary()
        assert "matrix:RAS/stride/w=16" in out
        assert "1 hit / 1 miss" in out

    def test_summary_empty(self):
        assert "no shards" in RunStatsCollector().summary()
        assert "certified" not in RunStatsCollector().summary()

    def test_summary_counts_certified_cells(self):
        collector = RunStatsCollector()
        engine = MonteCarloEngine(collector=collector)
        engine.matrix_congestion("RAS", "stride", 16, trials=32, seed=0)
        engine.matrix_congestion("RAP", "stride", 16, trials=32, seed=0)
        engine.matrix_congestion("RAW", "contiguous", 16, trials=5, seed=0)
        out = collector.summary()
        assert "certified: 2 cells closed by proof (37 trials not simulated)" in out
        assert "matrix:RAS/stride/w=16" in out
        assert "matrix:RAP/stride/w=16" not in out

    def test_summary_all_certified_run(self):
        collector = RunStatsCollector()
        MonteCarloEngine(collector=collector).matrix_congestion(
            "RAP", "contiguous", 16, trials=10, seed=0
        )
        out = collector.summary()
        assert "Engine run stats: no shards executed" in out
        assert "certified: 1 cells closed by proof (10 trials not simulated)" in out


class TestSpawnedStreamsNeverOverlap:
    """`spawn_generators` children must not replay the parent stream."""

    def test_children_disjoint_from_parent(self):
        parent = as_generator(123)
        children = spawn_generators(123, 4)
        parent_bytes = parent.integers(0, 1 << 63, size=4096).tobytes()
        for child in children:
            child_bytes = child.integers(0, 1 << 63, size=256).tobytes()
            assert parent_bytes.find(child_bytes) == -1

    def test_children_pairwise_distinct(self):
        children = spawn_generators(7, 4)
        draws = [c.integers(0, 1 << 63, size=256) for c in children]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_seed_sequences_match_generators(self):
        """spawn_seed_sequences is the picklable twin of spawn_generators."""
        gens = spawn_generators(42, 3)
        seqs = spawn_seed_sequences(42, 3)
        for gen, seq in zip(gens, seqs):
            assert np.array_equal(
                gen.integers(0, 1 << 30, size=8),
                as_generator(seq).integers(0, 1 << 30, size=8),
            )


class TestSeedPlumbing:
    def test_as_seed_sequence_is_spawn_pure(self):
        seq = as_seed_sequence(5)
        seq.spawn(3)  # consume some children
        rebuilt = as_seed_sequence(seq)
        assert [c.entropy for c in rebuilt.spawn(2)] == [
            c.entropy for c in as_seed_sequence(5).spawn(2)
        ]

    def test_fingerprint_reproducible_seeds(self):
        assert seed_fingerprint(7) == seed_fingerprint(7) == "int:7"
        assert seed_fingerprint([1, 2]) == "seq:1,2"
        seq = spawn_seed_sequences(9, 2)[1]
        assert seed_fingerprint(seq) == seed_fingerprint(spawn_seed_sequences(9, 2)[1])
        assert seed_fingerprint(seq) != seed_fingerprint(spawn_seed_sequences(9, 2)[0])

    def test_fingerprint_unreproducible_seeds(self):
        assert seed_fingerprint(None) is None
        assert seed_fingerprint(as_generator(0)) is None


class TestExperimentsThroughEngine:
    """The wired table generators inherit the determinism contract."""

    def test_table2_worker_count_invariant(self):
        from repro.sim.experiments import table2

        serial = table2(widths=(16,), trials=24, seed=5, engine=MonteCarloEngine())
        with MonteCarloEngine(workers=2) as engine:
            parallel = table2(widths=(16,), trials=24, seed=5, engine=engine)
        assert serial.stats == parallel.stats

    def test_table4_worker_count_invariant(self):
        from repro.sim.experiments import table4

        serial = table4(w=6, trials=16, seed=5, engine=MonteCarloEngine())
        with MonteCarloEngine(workers=2) as engine:
            parallel = table4(w=6, trials=16, seed=5, engine=engine)
        assert serial.stats == parallel.stats
        assert serial.random_numbers == parallel.random_numbers

    def test_table3_worker_count_invariant(self):
        from repro.sim.experiments import table3

        serial = table3(trials=4, seed=5, engine=MonteCarloEngine())
        with MonteCarloEngine(workers=2) as engine:
            parallel = table3(trials=4, seed=5, engine=engine)
        assert serial.rows == parallel.rows

    def test_growth_sweep_worker_count_invariant(self):
        from repro.sim.sweep import growth_sweep

        serial = growth_sweep(widths=(8, 16), trials=20, seed=5,
                              engine=MonteCarloEngine())
        with MonteCarloEngine(workers=2) as engine:
            parallel = growth_sweep(widths=(8, 16), trials=20, seed=5, engine=engine)
        assert serial.series == parallel.series

    def test_table2_cache_round_trip(self, tmp_path):
        from repro.sim.experiments import table2

        cold_engine = MonteCarloEngine(cache=ResultCache(tmp_path))
        cold = table2(widths=(16,), trials=24, seed=5, engine=cold_engine)
        warm_engine = MonteCarloEngine(cache=ResultCache(tmp_path))
        warm = table2(widths=(16,), trials=24, seed=5, engine=warm_engine)
        assert cold.stats == warm.stats
        assert warm_engine.cache.hits > 0 and warm_engine.cache.misses == 0
