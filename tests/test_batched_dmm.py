"""Tests for the batched DMM executor and its consumers.

The load-bearing contract is *exactness*: the batched engine is a pure
performance transform, so every observable of the scalar
:class:`~repro.dmm.machine.DiscreteMemoryMachine` — per-step
congestion multisets, dispatch sets, per-step and total time units,
final registers, final memory — must be reproduced bit for bit, per
trial, for every builtin app under every mapping family.
"""

import numpy as np
import pytest

from repro.analysis.plan import compile_plan
from repro.apps import BUILTIN_PROGRAMS, build_app_program
from repro.core.congestion import congestion_batch, warp_congestion
from repro.core.mappings import (
    MAPPING_NAMES,
    RAWMapping,
    mapping_from_shifts,
    sample_shift_batch,
)
from repro.dmm import BatchedDMM
from repro.dmm.machine import DiscreteMemoryMachine
from repro.dmm.trace import INACTIVE, MemoryProgram, read
from repro.gpu.kernel import KernelStep, SharedMemoryKernel
from repro.util.rng import as_generator

W = 8
TRIALS = 4
SEED = 123


# ---------------------------------------------------------------------------
# congestion_batch with INACTIVE-aware semantics
# ---------------------------------------------------------------------------


class TestMaskedCongestionBatch:
    def test_inactive_lanes_issue_no_request(self):
        rows = np.array([[0, 1, INACTIVE, INACTIVE]])
        assert congestion_batch(rows, 4, inactive=INACTIVE).tolist() == [1]

    def test_duplicates_merge(self):
        # Four lanes, one address: CRCW merge -> one request.
        rows = np.array([[5, 5, 5, 5]])
        assert congestion_batch(rows, 4, inactive=INACTIVE).tolist() == [1]

    def test_duplicates_and_inactive_mixed(self):
        # 0 and 4 share bank 0 (distinct addresses -> serialize);
        # the duplicate 4 merges; the inactive lane vanishes.
        rows = np.array([[0, 4, 4, INACTIVE]])
        assert congestion_batch(rows, 4, inactive=INACTIVE).tolist() == [2]

    def test_all_inactive_row_is_zero(self):
        rows = np.full((3, 4), INACTIVE)
        rows[1] = [0, 1, 2, 3]
        assert congestion_batch(rows, 4, inactive=INACTIVE).tolist() == [0, 1, 0]

    def test_matches_scalar_on_random_masked_rows(self):
        rng = as_generator(7)
        rows = rng.integers(0, 64, size=(50, W))
        mask = rng.random((50, W)) < 0.6
        rows = np.where(mask, rows, INACTIVE)
        got = congestion_batch(rows, W, inactive=INACTIVE)
        for row, g in zip(rows, got):
            active = row[row != INACTIVE]
            assert g == warp_congestion(active, W)

    def test_inactive_none_keeps_legacy_semantics(self):
        rng = as_generator(8)
        rows = rng.integers(0, 64, size=(20, W))
        with_sentinel = congestion_batch(rows, W, inactive=INACTIVE)
        without = congestion_batch(rows, W)
        assert np.array_equal(with_sentinel, without)


# ---------------------------------------------------------------------------
# vectorized scalar _execute: exact congestion tuples under partial masks
# ---------------------------------------------------------------------------


class TestScalarExecuteVectorized:
    def _machine(self, latency=3):
        return DiscreteMemoryMachine(W, latency=latency, memory_size=W * W)

    def test_partially_masked_trace_is_exact(self):
        # Warp 0 fully active (stride down a column: congestion W),
        # warp 1 half active, warps 2.. fully inactive.
        addresses = np.full(W * W, INACTIVE, dtype=np.int64)
        addresses[:W] = np.arange(W) * W  # one bank -> congestion W
        addresses[W : W + W // 2] = np.arange(W // 2)  # distinct banks
        program = MemoryProgram(p=W * W, instructions=[read(addresses)])
        result = self._machine().run(program)
        trace = result.traces[0]
        assert trace.dispatched_warps == (0, 1)
        assert trace.congestions == (W, 1)
        # time = sum of congestions + latency - 1
        assert trace.time_units == W + 1 + 3 - 1

    def test_all_inactive_instruction_takes_zero_time(self):
        addresses = np.full(W * W, INACTIVE, dtype=np.int64)
        program = MemoryProgram(p=W * W, instructions=[read(addresses)])
        result = self._machine().run(program)
        assert result.traces[0].dispatched_warps == ()
        assert result.traces[0].congestions == ()
        assert result.traces[0].time_units == 0

    def test_masked_congestions_match_per_warp_recount(self):
        rng = as_generator(11)
        addresses = rng.integers(0, W * W, size=W * W)
        mask = rng.random(W * W) < 0.5
        addresses = np.where(mask, addresses, INACTIVE)
        program = MemoryProgram(p=W * W, instructions=[read(addresses)])
        trace = self._machine().run(program).traces[0]
        expected = []
        for warp in addresses.reshape(-1, W):
            active = warp[warp != INACTIVE]
            if active.size:
                expected.append(warp_congestion(active, W))
        assert trace.congestions == tuple(expected)


# ---------------------------------------------------------------------------
# the exactness contract: batched == scalar for all apps x mappings
# ---------------------------------------------------------------------------


def _assert_trial_matches(res, t, scalar_result, scalar_machine):
    assert int(res.time_units[t]) == scalar_result.time_units
    for bt, st in zip(res.traces, scalar_result.traces):
        assert bt.trial_congestions(t) == st.congestions
        assert bt.trial_dispatched(t) == st.dispatched_warps
        assert int(bt.time_units[t]) == st.time_units
    bregs = res.trial_registers(t)
    assert set(bregs) == set(scalar_result.registers)
    for reg, values in scalar_result.registers.items():
        assert np.array_equal(values, bregs[reg])
    assert np.array_equal(res.memory.trial(t), scalar_machine.memory.store)


@pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
@pytest.mark.parametrize("app", sorted(BUILTIN_PROGRAMS))
def test_batched_matches_scalar_exactly(app, mapping_name):
    """Per trial: congestion tuples, dispatch, timing, registers, memory."""
    rng = as_generator(SEED)
    shifts = sample_shift_batch(mapping_name, W, TRIALS, rng)
    kernel = build_app_program(app, RAWMapping(W), seed=SEED)
    res = kernel.run_batch(shifts, latency=4)
    for t in range(TRIALS):
        mapping = mapping_from_shifts(mapping_name, shifts[t])
        scalar_kernel = build_app_program(app, mapping, seed=SEED)
        machine = scalar_kernel.make_machine(latency=4)
        scalar_result = machine.run(scalar_kernel.program())
        _assert_trial_matches(res, t, scalar_result, machine)


# ---------------------------------------------------------------------------
# hand-written KernelStep batches: the semantic corner cases
# ---------------------------------------------------------------------------


def _grid(rng, shape=(W, W)):
    return rng.integers(0, W, size=shape)


def _assert_kernel_matches_scalar(steps, arrays, family, trials, seed, latency=2):
    """run_batch and numpy run_plan vs the scalar machine, per trial."""
    shifts = sample_shift_batch(family, W, trials, as_generator(seed))
    kernel = SharedMemoryKernel(W, steps, arrays=arrays)
    plan = compile_plan(kernel, family)
    results = [
        kernel.run_batch(shifts, latency=latency),
        kernel.run_plan(shifts, plan, latency=latency),
    ]
    for t in range(trials):
        scalar_kernel = SharedMemoryKernel(
            W, steps, arrays=arrays, mapping=mapping_from_shifts(family, shifts[t])
        )
        machine = scalar_kernel.make_machine(latency=latency)
        scalar_result = machine.run(scalar_kernel.program())
        for res in results:
            _assert_trial_matches(res, t, scalar_result, machine)
    return results


class TestKernelStepBatches:
    @pytest.mark.parametrize("family", MAPPING_NAMES)
    def test_single_step_matches_scalar(self, family):
        # The minimal batch: one immediate write with colliding lanes.
        rng = as_generator(31)
        steps = [KernelStep("write", "a", _grid(rng), _grid(rng), immediate=True)]
        (res, _) = _assert_kernel_matches_scalar(steps, ("a",), family, 3, 31)
        assert len(res.traces) == 1

    def test_all_masked_warp_has_zero_congestion_everywhere(self):
        # One warp entirely masked off: it must dispatch nothing and
        # contribute zero congestion, in every trial.
        rng = as_generator(32)
        mask = np.ones((W, W), dtype=bool)
        mask[1] = False  # second warp fully inactive
        steps = [KernelStep("read", "a", _grid(rng), _grid(rng), register="r", mask=mask)]
        for res in _assert_kernel_matches_scalar(steps, ("a",), "RAP", 3, 32):
            assert np.array_equal(
                res.traces[0].congestions[:, 1], np.zeros(3, dtype=np.int64)
            )
            for t in range(3):
                assert 1 not in res.traces[0].trial_dispatched(t)

    @pytest.mark.parametrize("family", MAPPING_NAMES)
    def test_masked_read_keeps_old_register_values(self, family):
        # Fill a, read it into r, then a masked read of b (all zeros)
        # must overwrite only the active lanes of r.
        rng = as_generator(21)
        mask = rng.random((W, W)) < 0.6
        ii, jj = np.indices((W, W))
        steps = [
            KernelStep("write", "a", ii, jj, immediate=True),
            KernelStep("read", "a", _grid(rng), _grid(rng), register="r"),
            KernelStep("read", "b", _grid(rng), _grid(rng), register="r", mask=mask),
            KernelStep("write", "b", _grid(rng), _grid(rng), register="r"),
        ]
        for res in _assert_kernel_matches_scalar(steps, ("a", "b"), family, 4, 21):
            reg = res.trial_registers(0)["r"]
            assert (reg[~mask.ravel()] != 0).any()
            assert (reg[mask.ravel()] == 0).all()

    @pytest.mark.parametrize("family", MAPPING_NAMES)
    def test_immediate_writes_match_scalar(self, family):
        # Immediate writes race (duplicate (i, j) in a warp) and
        # overwrite each other; a masked immediate write leaves the
        # masked words alone.
        rng = as_generator(41)
        mask = rng.random((W, W)) < 0.5
        steps = [
            KernelStep("write", "a", _grid(rng), _grid(rng), immediate=True),
            KernelStep("write", "a", _grid(rng), _grid(rng), immediate=True, mask=mask),
            KernelStep("read", "a", _grid(rng), _grid(rng), register="x"),
        ]
        _assert_kernel_matches_scalar(steps, ("a",), family, 4, 41)

    def test_trial_count_must_match_machine(self):
        shifts = sample_shift_batch("RAP", W, 2, as_generator(5))
        kernel = build_app_program("transpose_crsw", RAWMapping(W), seed=SEED)
        staged = kernel.program_batch(shifts)
        machine = kernel.make_batched_machine(
            sample_shift_batch("RAP", W, 3, as_generator(5))
        )
        with pytest.raises(ValueError, match="trials"):
            machine.run(staged)


class TestStagedLogicalFlow:
    def test_memory_size_mismatch_rejected(self):
        """Masked lanes are staged at scratch word S = memory size; on a
        machine of any other size that index would alias a real word,
        so the machine must refuse the program."""
        shifts = sample_shift_batch("RAP", W, 2, as_generator(5))
        kernel = build_app_program("transpose_crsw", RAWMapping(W), seed=SEED)
        staged = kernel.program_batch(shifts)
        size = kernel.make_batched_machine(shifts).memory.size
        assert staged.memory_size == size
        for other in (size + W, size + W * W):
            machine = BatchedDMM(W, latency=1, memory_size=other, shifts=shifts)
            with pytest.raises(ValueError, match="memory size"):
                machine.run(staged)
        smaller = BatchedDMM(W, latency=1, memory_size=size - W, shifts=shifts)
        with pytest.raises(IndexError, match="memory size"):
            smaller.run(staged)

    def test_foreign_shift_draws_rejected(self):
        shifts = sample_shift_batch("RAP", W, 2, as_generator(5))
        kernel = build_app_program("transpose_crsw", RAWMapping(W), seed=SEED)
        staged = kernel.program_batch(shifts)
        machine = kernel.make_batched_machine(np.roll(shifts, 1, axis=1))
        with pytest.raises(ValueError, match="shift draws"):
            machine.run(staged)

    @pytest.mark.parametrize("app", ["fft", "sort", "transpose_drdw"])
    def test_staged_addresses_do_not_scale_with_trials(self, app):
        """Values move once: the staged index tables are (p,) per step,
        so their summed bytes are the same at T=1 and T=16."""
        kernel = build_app_program(app, RAWMapping(W), seed=SEED)
        plan = compile_plan(kernel, "RAP", app)
        for staged_plan in (None, plan):
            nbytes = [
                sum(
                    instr.addresses.nbytes
                    for instr in kernel.program_batch(
                        sample_shift_batch("RAP", W, trials, as_generator(SEED)),
                        plan=staged_plan,
                    )
                )
                for trials in (1, 16)
            ]
            assert nbytes[0] == nbytes[1] > 0

    def test_padded_mapping_rejected(self):
        """Logical flow needs each array to fill exactly w*w words."""
        from repro.core.padded import PaddedMapping

        kernel = build_app_program("transpose_crsw", RAWMapping(W), seed=SEED)
        padded = SharedMemoryKernel(
            W, kernel.steps, arrays=kernel.arrays, mapping=PaddedMapping(W)
        )
        with pytest.raises(ValueError, match="64-word arrays"):
            padded.program_batch(np.zeros((2, W), dtype=np.int64))


# ---------------------------------------------------------------------------
# engine + experiments wiring
# ---------------------------------------------------------------------------


class TestTrialBatchSharding:
    def test_results_identical_for_any_worker_count(self):
        from repro.sim.engine import MonteCarloEngine
        from repro.sim.experiments import _app_time_shard

        params = ("scan", "RAP", W, 1, True, SEED)
        with MonteCarloEngine(workers=1, cache=False) as serial, MonteCarloEngine(
            workers=3, cache=False
        ) as parallel:
            a = serial.map_trial_batches(_app_time_shard, params, 11, seed=42)
            b = parallel.map_trial_batches(_app_time_shard, params, 11, seed=42)
        assert np.array_equal(np.concatenate(a), np.concatenate(b))

    def test_shard_plan_concatenates_to_trials(self):
        from repro.sim.engine import MonteCarloEngine

        def sizes(params, n, rng):
            return np.full(n, params[0])

        chunks = MonteCarloEngine(cache=False).map_trial_batches(
            sizes, (1,), 11, seed=0
        )
        assert sum(c.size for c in chunks) == 11

    def test_app_time_sweep_batched_equals_scalar(self):
        from repro.sim.experiments import app_time_sweep

        batched = app_time_sweep(
            apps=("transpose_crsw",), mappings=("RAS", "RAP"), w=W,
            trials=9, seed=3,
        )
        scalar = app_time_sweep(
            apps=("transpose_crsw",), mappings=("RAS", "RAP"), w=W,
            trials=9, seed=3, batched=False,
        )
        for key, res in batched.items():
            assert np.array_equal(res.time_units, scalar[key].time_units)
            assert res.trials == 9
            assert res.mean_time == pytest.approx(res.time_units.mean())


# ---------------------------------------------------------------------------
# bench-dmm CLI
# ---------------------------------------------------------------------------


class TestBenchDmmCLI:
    def test_smoke_and_gate(self, capsys, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main(
            [
                "bench-dmm", "--apps", "transpose_drdw", "--w", "8",
                "--trials", "4", "--repeats", "1",
                "--json", str(out), "--min-speedup", "0.0001",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert "transpose_drdw" in payload["apps"]
        entry = payload["apps"]["transpose_drdw"]
        assert entry["speedup"] == pytest.approx(
            entry["scalar_s"] / entry["batched_s"], rel=0.01
        )
        assert "speedup" in capsys.readouterr().out

    def test_floor_failure_exits_nonzero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "bench-dmm", "--apps", "transpose_drdw", "--w", "8",
                "--trials", "4", "--repeats", "1", "--min-speedup", "1e9",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err


class TestBenchResultEdges:
    """Zero-duration and invalid-input behavior of BenchResult rates."""

    @staticmethod
    def _result(scalar_s, batched_s, trials=4):
        from repro.sim.bench import BenchResult

        return BenchResult(
            app="transpose_drdw", w=8, trials=trials, mapping="RAP",
            latency=1, steps=2, repeats=1,
            scalar_s=scalar_s, batched_s=batched_s,
        )

    def test_zero_batched_duration_saturates_to_inf(self):
        import math

        r = self._result(scalar_s=0.5, batched_s=0.0)
        assert r.speedup == math.inf
        assert r.batched_trials_per_s == math.inf
        assert r.scalar_trials_per_s == pytest.approx(8.0)

    def test_both_zero_durations_mean_no_measured_difference(self):
        import math

        r = self._result(scalar_s=0.0, batched_s=0.0)
        assert r.speedup == 1.0
        assert r.scalar_trials_per_s == math.inf
        assert r.batched_trials_per_s == math.inf

    def test_zero_work_in_zero_time_is_zero_rate(self):
        r = self._result(scalar_s=0.0, batched_s=0.0, trials=0)
        assert r.scalar_trials_per_s == 0.0
        assert r.batched_trials_per_s == 0.0

    def test_as_dict_stays_strict_json(self):
        import json

        r = self._result(scalar_s=0.5, batched_s=0.0)
        payload = r.as_dict()
        assert payload["speedup"] is None
        assert payload["batched_trials_per_s"] is None
        assert payload["scalar_trials_per_s"] == pytest.approx(8.0)
        json.dumps(payload, allow_nan=False)  # no bare inf/nan leaks

    def test_ordinary_durations_unchanged(self):
        r = self._result(scalar_s=1.0, batched_s=0.25)
        assert r.speedup == pytest.approx(4.0)
        assert r.as_dict()["speedup"] == pytest.approx(4.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_nonfinite_or_negative_durations_rejected(self, bad):
        with pytest.raises(ValueError, match="finite non-negative"):
            self._result(scalar_s=bad, batched_s=0.5)
        with pytest.raises(ValueError, match="finite non-negative"):
            self._result(scalar_s=0.5, batched_s=bad)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            self._result(scalar_s=0.5, batched_s=0.5, trials=-1)
