"""Batched DMM execution: one program skeleton, many mapping draws.

Estimating an app's expected running time under RAS/RAP (Section V)
means executing the *same* access skeleton under many independent
shift draws.  The scalar :class:`~repro.dmm.machine.DiscreteMemoryMachine`
pays the full build-compile-execute pipeline per draw; this module
executes ``T`` draws at once.

Every shifted-row draw rotates each matrix row, so it is a bijection on
each array's region (paper Section III); warp dispatch depends only on
lane activity, and CRCW writes resolve by lane order.  The *logical*
value flow of a skeleton is therefore the same under every draw, and
only bank keys, congestion and timing depend on it.  The executor
splits along that line:

* data moves once: every instruction carries one ``(p,)`` table of
  logical word indices, registers are ``(p,)`` arrays, and memory is a
  :class:`~repro.dmm.memory.BatchedMemory` holding one logical image
  (masked lanes point at its scratch word);
* congestion keeps the trial axis: per instruction it is a
  ``(T, n_warps)`` matrix — a plan-certified constant, the plan's
  evaluated closed form, or one sort over bank keys pre-staged by
  :meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch`;
* :class:`~repro.dmm.mmu.StageSchedule` timing arithmetic runs as
  ``(T,)`` vector ops (:func:`~repro.dmm.mmu.batch_completion_times`).

The contract is exactness, not approximation: for every trial ``t``,
per-step congestions, total time units, final memory (``memory.trial(t)``,
the logical image permuted by draw ``t``), and final registers equal
what the scalar machine produces for trial ``t``'s mapping
(``tests/test_batched_dmm.py`` pins this for every builtin app under
RAW, RAS, and RAP, and on generated kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Union

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover
    from repro.dmm.backends import PlanBackend

from repro.core.congestion import max_run_lengths
from repro.dmm.memory import BatchedMemory
from repro.dmm.trace import INACTIVE
from repro.util.validation import check_latency, check_positive_int

__all__ = [
    "BatchedInstruction",
    "BatchedProgram",
    "BatchedInstructionTrace",
    "BatchedExecutionResult",
    "BatchedDMM",
    "warp_congestion_block",
    "instruction_congestions",
]


def warp_congestion_block(bank_keys: np.ndarray, w: int) -> np.ndarray:
    """Congestion of many staged warps at once — the executor's hot path.

    ``bank_keys`` holds one warp per ``w`` consecutive entries: each
    lane's bank in ``[0, w)``, or a per-lane sentinel in ``[w, 2w)``
    for lanes that issue no countable request (inactive lanes and
    CRCW-merged duplicates).  Returns one congestion per warp row —
    the longest run of equal bank values after an in-row sort, which
    is exactly the max-over-banks distinct-address count because
    sentinels are unique per lane and can never form a run.

    This is the kernel both :class:`BatchedDMM` and the adversarial
    pattern search (:mod:`repro.adversary`) score congestion with.
    """
    keys = bank_keys.reshape(-1, w)
    return max_run_lengths(np.sort(keys, axis=1))


def instruction_congestions(
    instr: "BatchedInstruction", w: int, trials: int
) -> np.ndarray:
    """Per-trial, per-warp congestion of one staged instruction.

    Preference order: ``planned_congestions`` (the plan compiler's
    exact per-trial matrix, already evaluated), then the pre-staged
    static congestions plus a bank-key count over the dynamic warps.
    An instruction carrying neither was not staged by
    :meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch`; its
    logical addresses say nothing about banks, so it is refused.
    Shape ``(trials, n_warps)``.
    """
    if instr.planned_congestions is not None:
        return instr.planned_congestions
    if instr.static_congestions is None:
        raise ValueError(
            "instruction carries no staged congestion (planned matrix or "
            "static congestions plus bank keys)"
        )
    cong = np.empty((trials, instr.p // w), dtype=np.int64)
    cong[:] = instr.static_congestions
    dyn = instr.dynamic_warps
    if dyn is not None and dyn.size:
        assert instr.bank_keys is not None
        cong[:, dyn] = warp_congestion_block(instr.bank_keys, w).reshape(
            trials, dyn.size
        )
    return cong


@dataclass
class BatchedInstruction:
    """One SIMD memory instruction staged across ``T`` draws.

    Data fields are shared by every draw; congestion fields carry the
    trial axis.

    Attributes
    ----------
    op:
        ``"read"`` or ``"write"``.
    addresses:
        Shape ``(p,)`` integer array of *logical* word indices
        (``base + i*w + j`` for element ``(i, j)`` of the array at
        ``base``), shared by every trial.  Lanes that sit the
        instruction out hold the memory's scratch index (``size``, as
        staged) or :data:`~repro.dmm.trace.INACTIVE` (``-1``), which
        names the same scratch word.
    register:
        Per-thread register read into / written from.
    values:
        Optional ``(p,)`` immediate values for a write.
    static_congestions:
        Optional pre-resolved congestion per warp, shape ``(n_warps,)``:
        the trial-independent part of the count.  A warp whose active
        lanes all sit in one matrix row of a shifted-row mapping has
        congestion exactly 1 for *every* shift draw (distinct columns
        of one row land in distinct banks), and a warp with no active
        lane has congestion 0; only the remaining warps need per-trial
        counting.
    dynamic_warps:
        With ``static_congestions``: indices of the warps whose
        congestion is shift-dependent, in warp order.
    bank_keys:
        With ``static_congestions``: pre-staged congestion keys for the
        dynamic warps only, shape ``(T, len(dynamic_warps) * w)``: each
        lane's bank in ``[0, w)``, or a per-lane sentinel in ``[w, 2w)``
        for lanes that issue no countable request (inactive, or
        statically merged duplicates).  One bank sort and a run-length
        pass give every trial's dynamic-warp congestion.  Produced by
        :meth:`repro.gpu.kernel.SharedMemoryKernel.program_batch`,
        which knows the duplicate structure statically.
    planned_congestions:
        Optional fully evaluated congestion matrix, shape
        ``(T, n_warps)``: the plan compiler's exact closed form of the
        draw (absint coset steps).  When set it supersedes every other
        congestion source.
    """

    op: str
    addresses: np.ndarray
    register: str = "r0"
    values: Optional[np.ndarray] = None
    static_congestions: Optional[np.ndarray] = None
    dynamic_warps: Optional[np.ndarray] = None
    bank_keys: Optional[np.ndarray] = None
    planned_congestions: Optional[np.ndarray] = None
    #: ``None`` (all lanes active) or the ``(p,)`` active-lane mask.
    #: Derived from ``addresses``; consumers never pass it.
    mask: Optional[np.ndarray] = field(default=None, init=False)
    #: Largest real address staged, for one bounds check per run
    #: instead of one per access.
    max_address: int = field(default=INACTIVE, init=False)

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {self.op!r}")
        addresses = np.asarray(self.addresses)
        if not np.issubdtype(addresses.dtype, np.integer):
            raise ValueError(
                f"addresses must be integers, got dtype {addresses.dtype}"
            )
        # Normalize narrow staging dtypes up front: at w = 1024 a word
        # index reaches 2 w^2, which wraps int16 silently.
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if addresses.ndim != 1:
            raise ValueError(f"addresses must be (p,), got shape {addresses.shape}")
        if (addresses < INACTIVE).any():
            raise ValueError(
                "addresses must be >= 0, or -1 for inactive lanes"
            )
        self.addresses = addresses
        active = addresses != INACTIVE
        self.mask = None if active.all() else active
        self.max_address = int(addresses.max(initial=INACTIVE))
        if self.values is not None:
            if self.op == "read":
                raise ValueError("read instructions cannot carry immediate values")
            values = np.ascontiguousarray(self.values)
            if values.shape != addresses.shape:
                raise ValueError(
                    f"values shape {values.shape} must match addresses "
                    f"{addresses.shape}"
                )
            self.values = values

    @classmethod
    def staged(
        cls,
        op: str,
        addresses: np.ndarray,
        register: str,
        values: Optional[np.ndarray],
        static_congestions: Optional[np.ndarray],
        dynamic_warps: Optional[np.ndarray],
        bank_keys: Optional[np.ndarray],
        mask: Optional[np.ndarray],
        max_address: int,
        planned_congestions: Optional[np.ndarray] = None,
    ) -> "BatchedInstruction":
        """Trusted construction for staging layers that guarantee the
        invariants themselves (int64 ``(p,)`` addresses, masked lanes
        at the scratch word, ``max_address`` a valid upper bound over
        the active lanes), skipping the validation scans of
        ``__post_init__``.
        """
        instr = cls.__new__(cls)
        instr.op = op
        instr.addresses = addresses
        instr.register = register
        instr.values = values
        instr.static_congestions = static_congestions
        instr.dynamic_warps = dynamic_warps
        instr.bank_keys = bank_keys
        instr.planned_congestions = planned_congestions
        instr.mask = mask
        instr.max_address = max_address
        return instr

    @property
    def p(self) -> int:
        return int(self.addresses.shape[0])


@dataclass
class BatchedProgram:
    """A straight-line instruction sequence staged for ``T`` draws.

    The batched analogue of :class:`~repro.dmm.trace.MemoryProgram`:
    same ops, registers, and barrier-between-instructions semantics.

    Attributes
    ----------
    p:
        Thread count.
    shifts:
        The ``(T, w)`` shift batch the congestion fields were staged
        for; the machine's memory must model the same draws.
    memory_size:
        Logical words the staging assumed.  Masked lanes address the
        scratch word ``memory_size``, which on a machine of any other
        size would alias a real word, so the machine refuses a mismatch.
    """

    p: int
    shifts: np.ndarray
    memory_size: int
    instructions: list[BatchedInstruction] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_positive_int(self.p, "p")
        check_positive_int(self.memory_size, "memory_size")
        self.shifts = np.ascontiguousarray(self.shifts, dtype=np.int64)
        if self.shifts.ndim != 2 or self.shifts.shape[0] < 1:
            raise ValueError(
                f"shifts must be (trials, w), got shape {self.shifts.shape}"
            )
        for instr in self.instructions:
            self._check(instr)

    @property
    def trials(self) -> int:
        return int(self.shifts.shape[0])

    def _check(self, instr: BatchedInstruction) -> None:
        if instr.p != self.p:
            raise ValueError(
                f"instruction has {instr.p} lanes, program has {self.p}"
            )

    def append(self, instr: BatchedInstruction) -> "BatchedProgram":
        self._check(instr)
        self.instructions.append(instr)
        return self

    def max_address(self) -> int:
        """Largest address staged by any instruction (INACTIVE if none)."""
        return max(
            (instr.max_address for instr in self.instructions),
            default=INACTIVE,
        )

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[BatchedInstruction]:
        return iter(self.instructions)


@dataclass(frozen=True)
class BatchedInstructionTrace:
    """Timing record of one instruction across all trials.

    Attributes
    ----------
    op:
        ``"read"`` or ``"write"``.
    congestions:
        Shape ``(T, n_warps)`` int array; entry ``[t, r]`` is warp
        ``r``'s congestion in trial ``t``, or 0 when the warp was not
        dispatched.
    time_units:
        Shape ``(T,)`` completion time of the instruction per trial.
    """

    op: str
    congestions: np.ndarray
    time_units: np.ndarray

    def trial_dispatched(self, t: int) -> tuple[int, ...]:
        """Dispatch order of trial ``t`` (warps with congestion > 0)."""
        return tuple(int(r) for r in np.flatnonzero(self.congestions[t]))

    def trial_congestions(self, t: int) -> tuple[int, ...]:
        """Trial ``t``'s per-dispatched-warp congestions, dispatch order."""
        row = self.congestions[t]
        return tuple(int(c) for c in row[row > 0])


@dataclass
class BatchedExecutionResult:
    """Outcome of one batched run.

    Attributes
    ----------
    time_units:
        Shape ``(T,)`` total time units per trial.
    traces:
        One :class:`BatchedInstructionTrace` per instruction.
    registers:
        Final register files, ``registers[name]`` of shape ``(T, p)``:
        read-only broadcast views of the one ``(p,)`` register file
        every draw shares.
    memory:
        The machine's :class:`~repro.dmm.memory.BatchedMemory` after
        the run (``memory.trial(t)`` builds one trial's image).
    """

    time_units: np.ndarray
    traces: list[BatchedInstructionTrace] = field(default_factory=list)
    registers: dict[str, np.ndarray] = field(default_factory=dict)
    memory: Optional[BatchedMemory] = None

    def trial_registers(self, t: int) -> dict[str, np.ndarray]:
        """Trial ``t``'s register file (copies)."""
        return {name: reg[t].copy() for name, reg in self.registers.items()}


class BatchedDMM:
    """A DMM executing one skeleton under ``T`` shift draws.

    Parameters
    ----------
    w:
        Width: banks == threads per warp (shared by all trials).
    latency:
        Memory pipeline depth ``l``.
    memory_size:
        Addressable words of shared memory (a whole number of rows).
    shifts:
        The ``(T, w)`` shift batch, one draw per trial.
    dtype:
        Backing-store dtype (default float64, as in the scalar machine).
    """

    def __init__(
        self,
        w: int,
        latency: int,
        memory_size: int,
        shifts: np.ndarray,
        dtype: "npt.DTypeLike" = np.float64,
    ) -> None:
        self.w = check_positive_int(w, "w")
        self.latency = check_latency(latency)
        self.memory = BatchedMemory(w, memory_size, shifts, dtype=dtype)

    @property
    def trials(self) -> int:
        """Number of draws ``T``."""
        return self.memory.trials

    def _check_program(self, program: BatchedProgram) -> None:
        if program.trials != self.trials:
            raise ValueError(
                f"program stages {program.trials} trials, machine has {self.trials}"
            )
        if not np.array_equal(program.shifts, self.memory.shifts):
            raise ValueError("program was staged for different shift draws")
        if program.p % self.w != 0:
            raise ValueError(
                f"p={program.p} is not a multiple of warp width {self.w}"
            )
        top = program.max_address()
        if top >= self.memory.size:
            raise IndexError(
                f"program touches address {top}, memory size {self.memory.size}"
            )
        if program.memory_size != self.memory.size:
            raise ValueError(
                f"program staged for memory size {program.memory_size}, "
                f"machine has {self.memory.size}"
            )

    def run(self, program: BatchedProgram) -> BatchedExecutionResult:
        """Execute the batch; returns per-trial data and exact timing.

        The numpy reference loop, i.e. :meth:`execute_plan` with the
        default backend: a program staged without a plan simply has no
        resolved steps.
        """
        return self.execute_plan(program)

    def execute_plan(
        self,
        program: BatchedProgram,
        backend: Union[str, "PlanBackend", None] = None,
    ) -> BatchedExecutionResult:
        """Execute a staged batch, skipping resolved-step simulation.

        The plan compiler (:func:`repro.analysis.plan.compile_plan`)
        stages statically resolved instructions with an empty
        ``dynamic_warps`` set: their per-warp congestion is a certified
        constant for every draw of the mapping family, so the loop
        settles their congestion tuple and completion time in closed
        form — no bank counting, no key sort, only the data movement.
        Absint-resolved instructions carry ``planned_congestions`` (the
        coset closed form, already evaluated from the shift draws),
        which :func:`instruction_congestions` serves without counting.
        Residual instructions count their pre-staged bank keys.

        ``backend`` selects *where* the loop runs: ``None`` keeps the
        numpy reference path, a registered name (``"numba"``,
        ``"auto"``) or a :class:`~repro.dmm.backends.PlanBackend`
        instance routes through
        :func:`repro.dmm.backends.resolve_backend`.  Every backend is
        bit-identical to the reference; the choice only moves
        wall-clock.
        """
        from repro.dmm.backends import resolve_backend

        chosen = resolve_backend(
            "numpy" if backend is None else backend
        ).backend
        return chosen.execute(chosen.stage(self, program))
