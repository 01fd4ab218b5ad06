"""Cells closed by proof: the engine's closed form against the simulator.

``MonteCarloEngine`` answers a Table II cell from its for-all-w
certificate when the certificate is exact, and simulates the rest.
These tests never trust the proof: every certified cell at small widths
goes through both the engine and the independent serial simulator
(:func:`~repro.sim.congestion_sim.simulate_matrix_congestion`, which is
never routed), and the two payloads must be equal.  Every other cell
must equal the engine's shard plan replayed by hand, so the routing
provably leaves it alone.  Goldens computed before the routing existed
pin whole tables byte for byte.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.absint import KIND_EXACT, prove_pattern_forall_w
from repro.report.run_stats import RunStatsCollector
from repro.resilience.supervisor import ShardFailure
from repro.sim.cache import ResultCache
from repro.sim.congestion_sim import (
    RunningStats,
    _accumulate_matrix,
    simulate_matrix_congestion,
)
from repro.sim.engine import DEFAULT_SHARDS, MonteCarloEngine, _shard_sizes
from repro.sim.experiments import table2
from repro.sim.sweep import growth_sweep
from repro.util.rng import as_generator, spawn_seed_sequences

TABLE2_PATTERNS = ("contiguous", "stride", "diagonal", "random")
FAMILIES = ("RAW", "RAS", "RAP")
WIDTHS = (2, 3, 5, 8, 16, 24)
TRIALS = 8


def is_certified(pattern: str, family: str) -> bool:
    if pattern == "random":
        return False
    return prove_pattern_forall_w(pattern, family).kind == KIND_EXACT


def shard_plan_reference(family, pattern, w, trials, seed):
    """The engine's shard plan, replayed serially without the engine."""
    sizes = _shard_sizes(trials, DEFAULT_SHARDS)
    merged = RunningStats()
    for size, seq in zip(sizes, spawn_seed_sequences(seed, len(sizes))):
        merged.merge(_accumulate_matrix(family, pattern, w, size, as_generator(seq)))
    return merged.finish()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("pattern", TABLE2_PATTERNS)
def test_engine_matches_simulation_on_every_table2_cell(pattern, family):
    for w in WIDTHS:
        collector = RunStatsCollector()
        engine = MonteCarloEngine(cache=False, collector=collector)
        got = engine.matrix_congestion(family, pattern, w, trials=TRIALS, seed=w)
        if is_certified(pattern, family):
            want = simulate_matrix_congestion(
                family, pattern, w, trials=TRIALS, seed=w
            )
            assert collector.shards == []
            assert collector.certified == [
                (f"matrix:{family}/{pattern}/w={w}", TRIALS)
            ]
        else:
            want = shard_plan_reference(family, pattern, w, TRIALS, w)
            assert len(collector.shards) == min(TRIALS, DEFAULT_SHARDS)
            assert collector.certified == []
        assert got.to_payload() == want.to_payload(), (pattern, family, w)


def test_certified_table2_cells_are_the_expected_ones():
    certified = {
        (p, f) for p in TABLE2_PATTERNS for f in FAMILIES if is_certified(p, f)
    }
    assert certified == {
        ("contiguous", "RAW"),
        ("contiguous", "RAS"),
        ("contiguous", "RAP"),
        ("stride", "RAW"),
        ("stride", "RAP"),
        ("diagonal", "RAW"),
    }


def test_closed_form_skips_the_cache(tmp_path):
    engine = MonteCarloEngine(cache=ResultCache(tmp_path))
    engine.matrix_congestion("RAP", "stride", 16, trials=20, seed=1)
    assert engine.cache.hits == 0 and engine.cache.misses == 0
    assert len(engine.cache) == 0


@pytest.mark.parametrize(
    "mapping, pattern, w",
    [
        ("RAS", "pairwise", 8),  # no affine template
        ("RAW", "stride", 1),  # below the certificate's w0
    ],
)
def test_uncertified_shapes_still_simulate(mapping, pattern, w):
    collector = RunStatsCollector()
    engine = MonteCarloEngine(cache=False, collector=collector)
    got = engine.matrix_congestion(mapping, pattern, w, trials=4, seed=3)
    want = shard_plan_reference(mapping, pattern, w, 4, 3)
    assert got.to_payload() == want.to_payload()
    assert collector.certified == [] and len(collector.shards) == 4


def test_unknown_pattern_still_raises():
    # "antidiagonal" has an affine template but no simulator grid.
    with pytest.raises(ShardFailure):
        MonteCarloEngine(cache=False).matrix_congestion(
            "RAW", "antidiagonal", 8, trials=2, seed=0
        )


def test_table2_matches_golden():
    """Byte-identical to the table the pre-routing engine produced."""
    stats = table2(
        widths=(16, 24, 32),
        trials=40,
        seed=2014,
        engine=MonteCarloEngine(workers=1, cache=False),
    ).stats
    payload = {
        "/".join(map(str, k)): s.to_payload() for k, s in sorted(stats.items())
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == "69fc955b6b653991b55a9289c2662c737f49fbf2d6d3353cb92ecc1f929c443b"


def test_growth_sweep_matches_golden():
    series = growth_sweep(
        widths=(8, 12, 16, 32),
        trials=40,
        seed=2014,
        engine=MonteCarloEngine(workers=1, cache=False),
    ).series
    digest = hashlib.sha256(json.dumps(series, sort_keys=True).encode()).hexdigest()
    assert digest == "bf0111131a05d233def238bc396731d93bf914dab8dda7da0f2833df7cb9b597"
