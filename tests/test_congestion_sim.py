"""Unit tests for repro.sim.congestion_sim — the Monte-Carlo engine."""

import numpy as np
import pytest

import repro.sim.congestion_sim as congestion_sim
from repro.access.patterns import PATTERN_NAMES
from repro.core.congestion import congestion_batch
from repro.core.mappings import sample_shift_batch
from repro.sim.congestion_sim import (
    CongestionStats,
    RunningStats,
    simulate_matrix_congestion,
    simulate_nd_congestion,
)
from repro.util.rng import as_generator


class TestCongestionStats:
    def test_sem(self):
        s = CongestionStats(mean=3.0, std=1.0, minimum=1, maximum=5, n_samples=100)
        assert s.sem == pytest.approx(0.1)

    def test_frozen(self):
        s = CongestionStats(3.0, 1.0, 1, 5, 100)
        with pytest.raises(AttributeError):
            s.mean = 4.0


class TestMatrixSimDeterministicCells:
    """Cells of Table II that are exact, not statistical."""

    @pytest.mark.parametrize("mapping", ["RAW", "RAS", "RAP"])
    def test_contiguous_always_one(self, mapping):
        s = simulate_matrix_congestion(mapping, "contiguous", 16, trials=20, seed=0)
        assert s.mean == 1.0 and s.minimum == 1 and s.maximum == 1

    def test_stride_raw_is_w(self, width):
        s = simulate_matrix_congestion("RAW", "stride", width, trials=1, seed=0)
        assert s.mean == width

    def test_stride_rap_always_one(self, width):
        s = simulate_matrix_congestion("RAP", "stride", width, trials=50, seed=0)
        assert s.maximum == 1

    def test_diagonal_raw_is_one(self, width):
        s = simulate_matrix_congestion("RAW", "diagonal", width, trials=1, seed=0)
        assert s.mean == 1.0

    def test_malicious_raw_is_w(self):
        s = simulate_matrix_congestion("RAW", "malicious", 32, trials=1, seed=0)
        assert s.mean == 32.0

    def test_malicious_rap_is_one(self):
        s = simulate_matrix_congestion("RAP", "malicious", 32, trials=50, seed=0)
        assert s.maximum == 1


class TestMatrixSimStatisticalCells:
    """Statistical cells must converge to the paper's Table II values."""

    def test_stride_ras_w32(self):
        s = simulate_matrix_congestion("RAS", "stride", 32, trials=3000, seed=1)
        assert s.mean == pytest.approx(3.53, abs=0.1)

    def test_diagonal_ras_w32(self):
        s = simulate_matrix_congestion("RAS", "diagonal", 32, trials=3000, seed=2)
        assert s.mean == pytest.approx(3.53, abs=0.1)

    def test_random_w32(self):
        s = simulate_matrix_congestion("RAW", "random", 32, trials=3000, seed=3)
        assert s.mean == pytest.approx(3.44, abs=0.1)

    def test_random_same_for_all_mappings(self):
        """Random access cannot tell the mappings apart (Section V)."""
        means = [
            simulate_matrix_congestion(m, "random", 32, trials=4000, seed=4).mean
            for m in ("RAW", "RAS", "RAP")
        ]
        assert max(means) - min(means) < 0.08

    def test_diagonal_rap_exceeds_ras(self):
        """The 1/(w-1) vs 1/w collision-probability effect."""
        rap = simulate_matrix_congestion("RAP", "diagonal", 32, trials=8000, seed=5)
        ras = simulate_matrix_congestion("RAS", "diagonal", 32, trials=8000, seed=6)
        assert rap.mean > ras.mean

    def test_merging_lowers_random_below_stride_ras(self):
        """Duplicate addresses merge only in the random pattern."""
        rand = simulate_matrix_congestion("RAW", "random", 32, trials=8000, seed=7)
        stride = simulate_matrix_congestion("RAS", "stride", 32, trials=8000, seed=8)
        assert rand.mean < stride.mean


class TestMatrixSimMechanics:
    def test_deterministic_seeding(self):
        a = simulate_matrix_congestion("RAS", "stride", 16, trials=100, seed=9)
        b = simulate_matrix_congestion("RAS", "stride", 16, trials=100, seed=9)
        assert a.mean == b.mean

    def test_sample_count(self):
        s = simulate_matrix_congestion("RAS", "stride", 8, trials=10, seed=0)
        assert s.n_samples == 10 * 8  # trials x warps

    def test_chunking_consistency(self):
        """Large-w runs split into chunks; results must be identical in
        distribution (same seed -> same stream -> same values)."""
        s = simulate_matrix_congestion("RAS", "stride", 128, trials=64, seed=10)
        assert s.n_samples == 64 * 128
        assert 1 <= s.minimum <= s.maximum <= 128

    def test_unknown_mapping(self):
        with pytest.raises(ValueError):
            simulate_matrix_congestion("XYZ", "stride", 8)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            simulate_matrix_congestion("RAW", "knightmove", 8)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate_matrix_congestion("RAW", "stride", 8, trials=0)


def per_warp_reference(mapping, pattern, w, trials, rng) -> RunningStats:
    """Every warp through ``congestion_batch`` — no translation classes.

    Same chunking and shift draws as ``_accumulate_matrix``, so the two
    consume one RNG stream and must fold identical samples.
    """
    stats = RunningStats()
    chunk = max(1, min(trials, congestion_sim._CHUNK_BYTES // (w * w * 8)))
    ii, jj = congestion_sim.pattern_logical(pattern, w)
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        shifts = sample_shift_batch(mapping, w, t, rng)
        addresses = ii * w + (jj + shifts[:, ii]) % w
        stats.add(congestion_batch(addresses.reshape(-1, w), w))
        stats.trials += t
        done += t
    return stats


def accumulator_state(s: RunningStats) -> tuple:
    return (s.n, s.mean, s.m2, s.minimum, s.maximum, s.trials)


class TestTranslationClasses:
    """One warp per translation class == every warp, bit for bit."""

    @pytest.mark.parametrize("w", [3, 6, 8, 12])
    @pytest.mark.parametrize("mapping", ["RAW", "RAS", "RAP"])
    @pytest.mark.parametrize(
        "pattern", [p for p in PATTERN_NAMES if p != "random"]
    )
    def test_state_bit_equal_to_per_warp_loop(
        self, monkeypatch, pattern, mapping, w
    ):
        trials = 10
        # Three trials per chunk: one call spans four chunks.
        monkeypatch.setattr(congestion_sim, "_CHUNK_BYTES", 3 * w * w * 8)
        got = congestion_sim._accumulate_matrix(
            mapping, pattern, w, trials, as_generator(w)
        )
        want = per_warp_reference(mapping, pattern, w, trials, as_generator(w))
        assert accumulator_state(got) == accumulator_state(want)

    @pytest.mark.parametrize("mapping", ["RAS", "RAP"])
    def test_mixed_classes_match_per_warp_loop(self, monkeypatch, mapping):
        """Several multi-warp classes whose congestions differ.

        No named pattern has that shape (each is one class, or every
        warp has congestion 1), so this grid is the case that tells a
        wrong class key or a wrong class-to-warp expansion apart.
        """
        w, trials = 12, 10
        rng = as_generator(5)
        base_ii = rng.integers(0, w, size=(4, w))
        base_jj = rng.integers(0, w, size=(4, w))
        pick = rng.integers(0, 4, size=w)
        offset = rng.integers(0, w, size=(w, 1))
        grids = base_ii[pick], (base_jj[pick] + offset) % w
        monkeypatch.setattr(congestion_sim, "pattern_logical", lambda name, w: grids)
        monkeypatch.setattr(congestion_sim, "_CHUNK_BYTES", 3 * w * w * 8)

        got = congestion_sim._accumulate_matrix(
            mapping, "mixed", w, trials, as_generator(1)
        )
        want = per_warp_reference(mapping, "mixed", w, trials, as_generator(1))
        assert accumulator_state(got) == accumulator_state(want)
        assert got.minimum < got.maximum  # the classes really differ


class TestNDSim:
    def test_contiguous_always_one(self):
        for scheme in ("RAW", "1P", "R1P", "3P"):
            s = simulate_nd_congestion(scheme, "contiguous", 8, trials=10, seed=0)
            assert s.maximum == 1

    def test_stride1_raw_is_w(self):
        s = simulate_nd_congestion("RAW", "stride1", 8, trials=1, seed=0)
        assert s.mean == 8.0

    def test_stride2_1p_is_w(self):
        s = simulate_nd_congestion("1P", "stride2", 8, trials=10, seed=0)
        assert s.mean == 8.0

    def test_stride2_r1p_is_one(self):
        s = simulate_nd_congestion("R1P", "stride2", 8, trials=20, seed=0)
        assert s.maximum == 1

    def test_stride3_3p_is_one(self):
        s = simulate_nd_congestion("3P", "stride3", 8, trials=20, seed=0)
        assert s.maximum == 1

    def test_malicious_r1p_amplified(self):
        r1p = simulate_nd_congestion("R1P", "malicious", 12, trials=100, seed=1)
        threep = simulate_nd_congestion("3P", "malicious", 12, trials=100, seed=2)
        assert r1p.mean >= 6.0
        assert threep.mean < r1p.mean / 1.5

    def test_deterministic_seeding(self):
        a = simulate_nd_congestion("3P", "random", 8, trials=50, seed=3)
        b = simulate_nd_congestion("3P", "random", 8, trials=50, seed=3)
        assert a.mean == b.mean

    def test_sample_count(self):
        s = simulate_nd_congestion("3P", "random", 8, trials=25, seed=0)
        assert s.n_samples == 25


class TestConfidenceInterval:
    def test_contains_mean(self):
        s = simulate_matrix_congestion("RAS", "stride", 16, trials=200, seed=0)
        lo, hi = s.confidence_interval()
        assert lo <= s.mean <= hi

    def test_wider_at_higher_z(self):
        s = simulate_matrix_congestion("RAS", "stride", 16, trials=200, seed=0)
        lo95, hi95 = s.confidence_interval(1.96)
        lo99, hi99 = s.confidence_interval(2.58)
        assert lo99 < lo95 and hi99 > hi95

    def test_deterministic_cell_zero_width(self):
        s = simulate_matrix_congestion("RAP", "stride", 16, trials=50, seed=0)
        lo, hi = s.confidence_interval()
        assert lo == hi == 1.0

    def test_rejects_bad_z(self):
        s = simulate_matrix_congestion("RAP", "stride", 8, trials=10, seed=0)
        with pytest.raises(ValueError):
            s.confidence_interval(0)

    def test_paper_value_inside_ci(self):
        """The paper's 3.53 must fall inside a generous CI of our
        stride-RAS estimate."""
        s = simulate_matrix_congestion("RAS", "stride", 32, trials=4000, seed=1)
        # Conservative: effective n = trials (warps are correlated).
        import numpy as np
        half = 2.58 * s.std / np.sqrt(4000)
        assert s.mean - half <= 3.5358 <= s.mean + half
