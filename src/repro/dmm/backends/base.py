"""The ``PlanBackend`` protocol and the shared instruction-loop core.

A *backend* is an execution strategy for staged batched programs (the
:class:`~repro.dmm.batched.BatchedProgram` that
:meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch` produces,
with or without a compiled plan's static verdicts).  Every backend
implements the same two-phase contract:

``stage(machine, program) -> StagedPlan``
    One-time preparation: validate the program against the machine
    and compile whatever kernels the backend needs.  Staging may be
    paid once and the result executed later.

``execute(staged) -> BatchedExecutionResult``
    Run the staged program.  The result must be **bit-identical** to
    the reference numpy path — per-trial congestion matrices, dispatch
    sets, completion times, final registers, and final memory — which
    in turn is pinned to the scalar machine.  A backend is a
    wall-clock transform, never a semantic one.

:class:`InstructionLoopBackend` is the one loop every backend shares:
the statically-resolved closed form, the residual congestion count,
the timing arithmetic, and the data movement.  Data moves once per
instruction on the memory's logical image, because the value flow is
the same under every draw (see :mod:`repro.dmm.batched`); only
congestion carries a trial axis, so :meth:`_congestions` is the one
primitive a subclass replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Protocol, runtime_checkable

import numpy as np

from repro.dmm.mmu import batch_completion_times

if TYPE_CHECKING:  # pragma: no cover
    from repro.dmm.batched import (
        BatchedDMM,
        BatchedExecutionResult,
        BatchedInstruction,
        BatchedProgram,
    )
    from repro.dmm.memory import BatchedMemory

__all__ = [
    "BackendUnavailable",
    "StagedPlan",
    "PlanBackend",
    "InstructionLoopBackend",
]


class BackendUnavailable(RuntimeError):
    """Raised when a backend is asked to stage/execute without its deps."""


@dataclass
class StagedPlan:
    """A program prepared by one backend, ready to execute.

    Attributes
    ----------
    backend:
        Name of the backend that staged this plan; :meth:`execute`
        refuses a plan staged by a different backend.
    machine:
        The :class:`~repro.dmm.batched.BatchedDMM` holding the run's
        memory and timing parameters.
    program:
        The staged instruction blocks.
    state:
        Backend-private preparation (compiled kernels);
        ``None`` for backends that execute the program in place.
    """

    backend: str
    machine: "BatchedDMM"
    program: "BatchedProgram"
    state: Any = None


@runtime_checkable
class PlanBackend(Protocol):
    """Execution backend for staged batched programs."""

    #: registry name (``"numpy"``, ``"numba"``, ...).
    name: str

    def available(self) -> bool:
        """Can this backend execute here (deps importable)?"""

    def unavailable_reason(self) -> Optional[str]:
        """Why :meth:`available` is False (``None`` when available)."""

    def stage(self, machine: "BatchedDMM", program: "BatchedProgram") -> StagedPlan:
        """Prepare ``program`` for execution on ``machine``."""

    def execute(self, staged: StagedPlan) -> "BatchedExecutionResult":
        """Run a staged plan; bit-identical to the reference path."""


class InstructionLoopBackend:
    """The shared host-side instruction loop (numpy reference semantics).

    * a statically *resolved* instruction (plan-certified constant
      per-warp congestion, empty dynamic-warp set) settles its
      congestion matrix and completion time in closed form;
    * every other instruction counts congestion (planned matrix, or
      static congestions plus pre-staged bank keys, counted once per
      plan-pooled table) and runs the vectorized timing arithmetic;
    * every instruction then moves its ``(p,)`` lanes on the logical
      image: one gather or one CRCW last-lane-wins scatter.

    Subclasses override :meth:`_congestions` to swap in compiled
    kernels; the loop structure — and therefore the exactness
    contract — stays shared.
    """

    name = "abstract"

    def available(self) -> bool:
        return True

    def unavailable_reason(self) -> Optional[str]:
        return None

    def stage(self, machine: "BatchedDMM", program: "BatchedProgram") -> StagedPlan:
        machine._check_program(program)
        return StagedPlan(
            backend=self.name,
            machine=machine,
            program=program,
            state=self._prepare(machine, program),
        )

    def _prepare(self, machine: "BatchedDMM", program: "BatchedProgram") -> Any:
        """Backend-private staging hook (default: nothing to prepare)."""
        return None

    def execute(self, staged: StagedPlan) -> "BatchedExecutionResult":
        from repro.dmm.batched import (
            BatchedExecutionResult,
            BatchedInstructionTrace,
        )

        if staged.backend != self.name:
            raise ValueError(
                f"staged plan belongs to backend {staged.backend!r}, "
                f"this is {self.name!r}"
            )
        machine = staged.machine
        registers: dict[str, np.ndarray] = {}
        time_units = np.zeros(machine.trials, dtype=np.int64)
        traces: list[BatchedInstructionTrace] = []
        # Plan-pooled steps share one staged key block (same array, grids
        # and mask), so their congestion is counted once per run.
        counted: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        for instr in staged.program:
            static = instr.static_congestions
            dyn = instr.dynamic_warps
            pooled = (id(instr.bank_keys), id(static), id(dyn))
            if static is not None and dyn is not None and dyn.size == 0:
                # Statically resolved: the certified constant vector,
                # and StageSchedule's closed form on its total.
                cong = np.broadcast_to(
                    static[None, :], (machine.trials, static.size)
                )
                total = int(static.sum())
                per_trial = total + machine.latency - 1 if total > 0 else 0
                times = np.full(machine.trials, per_trial, dtype=np.int64)
            elif instr.bank_keys is not None and pooled in counted:
                cong, times = counted[pooled]
            else:
                cong = self._congestions(machine, instr, staged)
                times = batch_completion_times(
                    cong.sum(axis=1), machine.latency
                )
                if instr.bank_keys is not None:
                    counted[pooled] = cong, times
            _move_data(machine.memory, instr, registers)
            traces.append(
                BatchedInstructionTrace(
                    op=instr.op, congestions=cong, time_units=times
                )
            )
            time_units += times
        shape = (machine.trials, staged.program.p)
        return BatchedExecutionResult(
            time_units=time_units,
            traces=traces,
            registers={
                name: np.broadcast_to(reg, shape)
                for name, reg in registers.items()
            },
            memory=machine.memory,
        )

    def _congestions(
        self,
        machine: "BatchedDMM",
        instr: "BatchedInstruction",
        staged: StagedPlan,
    ) -> np.ndarray:
        """Per-trial, per-warp congestion of one non-resolved instruction."""
        from repro.dmm.batched import instruction_congestions

        return instruction_congestions(instr, machine.w, machine.trials)


def _move_data(
    memory: "BatchedMemory",
    instr: "BatchedInstruction",
    registers: dict[str, np.ndarray],
) -> None:
    """The data half of one instruction, on the logical image.

    Masked lanes address the scratch word: a masked read gathers
    garbage that the mask keeps out of the register, and a masked
    write lands outside every addressable word, so last-lane-wins
    resolution among the active lanes is the scalar machine's.
    """
    if instr.op == "read":
        gathered = memory.read_flat(instr.addresses)
        if instr.mask is None:
            registers[instr.register] = gathered
        else:
            reg = registers.setdefault(
                instr.register, np.zeros(instr.p, dtype=memory.dtype)
            )
            np.copyto(reg, gathered, where=instr.mask)
    else:
        if instr.values is not None:
            source = instr.values
        elif instr.register in registers:
            source = registers[instr.register]
        else:
            raise KeyError(
                f"write from register {instr.register!r} before any read into it"
            )
        memory.write_flat(instr.addresses, source)
