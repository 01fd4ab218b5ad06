"""Tests for the staging call shape in :mod:`repro.dmm.backends`.

The one backend executes a staged plan with
:meth:`repro.dmm.batched.BatchedDMM.run`, so a program staged for one
memory size must be refused by a machine too small to hold it.
"""

import pytest

from repro.apps import build_app_program
from repro.core.mappings import RAWMapping, sample_shift_batch
from repro.dmm.backends import NUMPY, StagedPlan
from repro.dmm.batched import BatchedDMM
from repro.util.rng import as_generator

W = 8
TRIALS = 4
SEED = 123


class TestStageExecuteContract:
    def test_stage_validates_program(self):
        shifts = sample_shift_batch("RAP", W, TRIALS, as_generator(SEED))
        kernel = build_app_program("gather", RAWMapping(W), seed=SEED)
        wrong = BatchedDMM(W, latency=1, memory_size=W, shifts=shifts)
        staged = StagedPlan(machine=wrong, program=kernel.program_batch(shifts))
        with pytest.raises(IndexError, match="memory size"):
            NUMPY.execute(staged)
