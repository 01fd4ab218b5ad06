"""Differential test of the batched executor on generated kernels.

Both fast paths — ``run_batch`` and ``run_plan`` — must reproduce the
scalar :class:`~repro.dmm.machine.DiscreteMemoryMachine` per trial:
congestion tuples, dispatch sets, per-step and total time, registers,
and the physical memory image ``memory.trial(t)``.

The kernels come from a seeded generator rather than the builtin apps,
so they exercise what the apps rarely do: duplicate ``(i, j)`` lanes
inside a warp (CRCW read merges and write races), random masks
including fully masked warps and steps, one to three arrays,
immediate writes mixed with register writes, and steps that repeat an
earlier step's array, grids and mask (pooled into one staged table by
the plan).
"""

import numpy as np
import pytest

from repro.analysis.plan import compile_plan
from repro.core.mappings import mapping_from_shifts, sample_shift_batch
from repro.gpu.kernel import KernelStep, SharedMemoryKernel
from repro.util.rng import as_generator

ARRAYS = ("a", "b", "c")
REGISTERS = ("r0", "r1")
SEEDS = (0, 1, 2)


def _index_grid(rng, w):
    """A ``(w, w)`` index grid with frequent in-warp duplicates."""
    kind = rng.integers(3)
    if kind == 0:  # uniform: duplicates by chance
        return rng.integers(0, w, size=(w, w))
    if kind == 1:  # two values only: heavy duplication
        return rng.integers(0, 2, size=(w, w))
    # constant along each warp: row-local (statically resolved) warps
    return np.repeat(rng.integers(0, w, size=(w, 1)), w, axis=1)


def _mask(rng, w):
    roll = rng.random()
    if roll < 0.35:
        return None
    if roll < 0.42:
        return np.zeros((w, w), dtype=bool)  # fully masked step
    mask = rng.random((w, w)) < rng.choice([0.3, 0.7])
    if rng.random() < 0.5:
        mask[rng.integers(w)] = False  # one fully masked warp
    return mask


def generate_kernel(w, seed):
    """A random straight-line kernel over 1-3 ``w x w`` arrays."""
    rng = as_generator(seed)
    arrays = ARRAYS[: rng.integers(1, 4)]
    steps = []
    loaded: list[str] = []
    for _ in range(rng.integers(2, 9)):
        if steps and rng.random() < 0.3:
            # Same array, grids and mask as an earlier step: the plan
            # pools the two into one staged table.
            prev = steps[rng.integers(len(steps))]
            array, ii, jj, mask = prev.array, prev.ii, prev.jj, prev.mask
        else:
            array = arrays[rng.integers(len(arrays))]
            ii, jj, mask = _index_grid(rng, w), _index_grid(rng, w), _mask(rng, w)
        if rng.random() < 0.5:
            register = REGISTERS[rng.integers(len(REGISTERS))]
            steps.append(KernelStep("read", array, ii, jj, register=register, mask=mask))
            loaded.append(register)
        elif not loaded or rng.random() < 0.35:
            steps.append(KernelStep("write", array, ii, jj, mask=mask, immediate=True))
        else:
            register = loaded[rng.integers(len(loaded))]
            steps.append(KernelStep("write", array, ii, jj, register=register, mask=mask))
    return SharedMemoryKernel(w, steps, arrays=arrays)


def _assert_trial_matches(res, t, scalar_result, scalar_machine):
    assert int(res.time_units[t]) == scalar_result.time_units
    assert len(res.traces) == len(scalar_result.traces)
    for bt, st in zip(res.traces, scalar_result.traces):
        assert bt.trial_congestions(t) == st.congestions
        assert bt.trial_dispatched(t) == st.dispatched_warps
        assert int(bt.time_units[t]) == st.time_units
    bregs = res.trial_registers(t)
    assert set(bregs) == set(scalar_result.registers)
    for reg, values in scalar_result.registers.items():
        assert np.array_equal(values, bregs[reg])
    assert np.array_equal(res.memory.trial(t), scalar_machine.memory.store)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", [1, 5])
@pytest.mark.parametrize("family", ["RAW", "RAS", "RAP"])
@pytest.mark.parametrize("w", [4, 8, 16])
def test_generated_kernel_matches_scalar(w, family, trials, seed):
    kernel = generate_kernel(w, seed=(w, seed))
    shifts = sample_shift_batch(family, w, trials, as_generator((w, seed, 7)))
    plan = compile_plan(kernel, family)
    latency = 1 + seed
    results = {
        "run_batch": kernel.run_batch(shifts, latency=latency),
        "run_plan": kernel.run_plan(shifts, plan, latency=latency),
    }
    for t in range(trials):
        scalar_kernel = SharedMemoryKernel(
            w,
            kernel.steps,
            arrays=kernel.arrays,
            mapping=mapping_from_shifts(family, shifts[t]),
        )
        machine = scalar_kernel.make_machine(latency=latency)
        scalar_result = machine.run(scalar_kernel.program())
        for path, res in results.items():
            try:
                _assert_trial_matches(res, t, scalar_result, machine)
            except AssertionError as exc:
                raise AssertionError(f"{path}, trial {t}: {exc}") from exc


def test_generator_covers_the_corner_cases():
    """The generated population really contains what the test claims."""
    seen = {"dup": False, "masked_warp": False, "masked_step": False,
            "immediate": False, "register_write": False, "three_arrays": False,
            "pooled": False}
    for w in (4, 8, 16):
        for seed in SEEDS:
            kernel = generate_kernel(w, seed=(w, seed))
            seen["three_arrays"] |= len(kernel.arrays) == 3
            plan = compile_plan(kernel, "RAP")
            seen["pooled"] |= plan.tables < len(plan.steps)
            for step in kernel.steps:
                pos = (step.ii * w + step.jj)
                live = np.ones((w, w), dtype=bool) if step.mask is None else step.mask
                for warp in range(w):
                    lanes = pos[warp][live[warp]]
                    seen["dup"] |= lanes.size > np.unique(lanes).size
                seen["masked_warp"] |= bool((~live).all(axis=1).any())
                seen["masked_step"] |= not live.any()
                seen["immediate"] |= step.op == "write" and step.immediate
                seen["register_write"] |= step.op == "write" and not step.immediate
    assert all(seen.values()), seen
