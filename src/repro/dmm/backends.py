"""The staging call shape the plan benchmark workloads use.

There is one executor, :meth:`repro.dmm.batched.BatchedDMM.run`.  This
module exists only so that the benchmark harness's existing call shape
keeps working::

    resolution, staged = stage_compiled(kernel, shifts, plan, backend="numpy")
    result = resolution.backend.execute(staged)

:func:`repro.analysis.plan.stage_compiled` builds the
:class:`StagedPlan`; :data:`NUMPY` is the only backend, and its
``execute`` is ``staged.machine.run(staged.program)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dmm.batched import BatchedDMM, BatchedExecutionResult, BatchedProgram

__all__ = ["NUMPY", "Resolution", "StagedPlan"]


@dataclass(frozen=True)
class StagedPlan:
    """A plan-staged program and the machine sized for it."""

    machine: BatchedDMM
    program: BatchedProgram


class _Executor:
    name = "numpy"

    def execute(self, staged: StagedPlan) -> BatchedExecutionResult:
        return staged.machine.run(staged.program)


#: the one backend name :func:`~repro.analysis.plan.stage_compiled` accepts.
NUMPY = _Executor()


@dataclass(frozen=True)
class Resolution:
    """Which backend runs a staged plan: always :data:`NUMPY`."""

    backend: _Executor = NUMPY
    fell_back: bool = False
