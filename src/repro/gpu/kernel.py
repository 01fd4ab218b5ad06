"""Shared-memory kernel abstraction — CUDA-block-shaped programs.

A :class:`SharedMemoryKernel` is the library's stand-in for a CUDA
kernel operating on matrices in one streaming multiprocessor's shared
memory: a grid of ``p = w^2`` threads, named matrices laid out under
one address mapping, and a straight-line list of logical read/write
steps.  It compiles to a :class:`~repro.dmm.trace.MemoryProgram`, runs
on the cycle-accurate DMM, and feeds the
:class:`~repro.gpu.timing.GPUTimingModel` to produce a nanosecond
estimate — the full Table III path, but open to *user-defined* access
patterns too (see ``examples/custom_kernel.py``).

This is where a downstream user gets the paper's punchline as an API:
write your kernel against logical indices, pick
``mapping="RAP"``, and bank conflicts are handled for you.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.mappings import AddressMapping, mapping_by_name
from repro.dmm.batched import (
    BatchedDMM,
    BatchedExecutionResult,
    BatchedInstruction,
    BatchedProgram,
)
from repro.dmm.machine import DiscreteMemoryMachine, ExecutionResult
from repro.dmm.trace import INACTIVE, MemoryProgram, read, write
from repro.gpu.timing import GPUTimingModel
from repro.util.rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.absint import CosetRecipe
    from repro.analysis.plan import CompiledPlan
    from repro.analysis.verify import VerificationReport

__all__ = ["KernelStep", "KernelReport", "SharedMemoryKernel", "transpose_kernel"]


@dataclass(frozen=True)
class KernelStep:
    """One SIMD step: every thread reads or writes one logical element.

    Attributes
    ----------
    op:
        ``"read"`` or ``"write"``.
    array:
        Name of the shared-memory matrix this step touches.
    ii, jj:
        ``(w, w)`` logical index grids — axis 0 is the warp, axis 1 the
        lane (same convention as :mod:`repro.access.patterns`).  All
        entries must lie in ``[0, w)``; out-of-range grids are rejected
        here, at construction, instead of failing deep inside address
        mapping or DMM execution.
    register:
        Per-thread register carrying the value between steps.
    mask:
        Optional ``(w, w)`` boolean grid of active lanes; masked-out
        lanes compile to the :data:`~repro.dmm.trace.INACTIVE` sentinel
        (index values under a ``False`` mask entry are ignored).
    immediate:
        Writes only: the written values are computed host-side between
        steps rather than taken from ``register`` (the value itself is
        irrelevant to the DMM cost model, so the access skeleton stays
        statically analysable).  Immediate steps compile with distinct
        per-lane sentinel values, so the static race check stays sound.
    """

    op: str
    array: str
    ii: np.ndarray
    jj: np.ndarray
    register: str = "r0"
    mask: Optional[np.ndarray] = None
    immediate: bool = False

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {self.op!r}")
        label = f"KernelStep({self.op} {self.array!r})"
        ii = np.ascontiguousarray(self.ii, dtype=np.int64)
        jj = np.ascontiguousarray(self.jj, dtype=np.int64)
        if ii.shape != jj.shape or ii.ndim != 2:
            raise ValueError(
                f"{label}: ii/jj must be matching 2-D grids, "
                f"got {ii.shape} and {jj.shape}"
            )
        if ii.shape[0] != ii.shape[1]:
            raise ValueError(
                f"{label}: index grids must be square (w, w), got {ii.shape}"
            )
        w = ii.shape[0]
        mask = self.mask
        if mask is not None:
            mask = np.ascontiguousarray(mask, dtype=bool)
            if mask.shape != ii.shape:
                raise ValueError(
                    f"{label}: mask shape {mask.shape} must match the "
                    f"index grids {ii.shape}"
                )
            if mask.all():
                mask = None  # a full mask is no mask
        live = mask if mask is not None else slice(None)
        for name, grid in (("ii", ii), ("jj", jj)):
            vals = grid[live]
            if vals.size and ((vals < 0) | (vals >= w)).any():
                bad = int(vals[(vals < 0) | (vals >= w)][0])
                raise ValueError(
                    f"{label}: {name} entries must lie in [0, {w}), "
                    f"found {bad}"
                )
        if self.immediate and self.op != "write":
            raise ValueError(f"{label}: immediate=True is only valid for writes")
        object.__setattr__(self, "ii", ii)
        object.__setattr__(self, "jj", jj)
        object.__setattr__(self, "mask", mask)

    @property
    def w(self) -> int:
        """Grid side length (warp width the step was built for)."""
        return self.ii.shape[0]

    @classmethod
    def from_positions(
        cls,
        op: str,
        array: str,
        positions: np.ndarray,
        w: int,
        register: str = "r0",
        immediate: bool = False,
    ) -> "KernelStep":
        """Lift flat logical positions into a ``(w, w)`` step.

        ``positions`` holds up to ``w^2`` row-major element positions in
        ``[0, w^2)`` — thread ``t`` touches element
        ``(positions[t] // w, positions[t] % w)``.  Entries of ``-1``
        mark inactive lanes, and short vectors are padded with inactive
        lanes, mirroring how the app kernels pad partial steps.
        """
        positions = np.asarray(positions, dtype=np.int64).ravel()
        p = w * w
        if positions.size > p:
            raise ValueError(
                f"KernelStep({op} {array!r}): {positions.size} positions "
                f"exceed the w^2 = {p} thread grid"
            )
        full = np.full(p, -1, dtype=np.int64)
        full[: positions.size] = positions
        if (full < -1).any() or (full >= p).any():
            bad = int(full[(full < -1) | (full >= p)][0])
            raise ValueError(
                f"KernelStep({op} {array!r}): positions must lie in "
                f"[0, {p}) or be -1 (inactive), found {bad}"
            )
        mask = (full >= 0).reshape(w, w)
        safe = np.where(full >= 0, full, 0)
        return cls(
            op,
            array,
            (safe // w).reshape(w, w),
            (safe % w).reshape(w, w),
            register=register,
            mask=None if mask.all() else mask,
            immediate=immediate,
        )


@dataclass(frozen=True)
class KernelReport:
    """Everything measured from one kernel execution.

    Attributes
    ----------
    time_units:
        Exact DMM completion time (with the machine's latency).
    total_stages:
        Total pipeline stages occupied (the timing model's regressor).
    overhead_ops:
        Address-computation ALU ops implied by the mapping.
    predicted_ns:
        Timing-model estimate, if a model was supplied.
    execution:
        Full per-instruction machine trace.
    """

    time_units: int
    total_stages: int
    overhead_ops: int
    predicted_ns: Optional[float]
    execution: ExecutionResult


class SharedMemoryKernel:
    """A CUDA-like kernel over mapped shared-memory matrices.

    Parameters
    ----------
    w:
        Matrix side == warp width (``p = w^2`` threads).
    steps:
        The logical access steps, executed in order.
    arrays:
        Names of the shared matrices; each gets ``w^2`` words, packed
        consecutively in the address space in the order given.
    mapping:
        An :class:`~repro.core.mappings.AddressMapping` instance, or a
        name (``"RAW"``/``"RAS"``/``"RAP"``) to draw one.
    seed:
        Seed used when ``mapping`` is a name.
    inputs:
        Arrays assumed preloaded (via :meth:`load_array`) before the
        kernel runs; reads of anything else must be preceded by a
        write, or :meth:`verify` reports an uninitialized read.
        ``None`` (the default) infers the inputs: every array whose
        first access is a read is assumed preloaded.
    """

    def __init__(
        self,
        w: int,
        steps: Sequence[KernelStep],
        arrays: Sequence[str] = ("a", "b"),
        mapping: AddressMapping | str = "RAW",
        seed: SeedLike = None,
        inputs: Optional[Sequence[str]] = None,
    ) -> None:
        if isinstance(mapping, str):
            mapping = mapping_by_name(mapping, w, seed)
        if mapping.w != w:
            raise ValueError(f"mapping width {mapping.w} != kernel width {w}")
        self.w = w
        self.mapping = mapping
        self.arrays = tuple(arrays)
        if len(set(self.arrays)) != len(self.arrays):
            raise ValueError(f"duplicate array names in {self.arrays}")
        words = self.mapping.storage_words
        self.bases = {name: idx * words for idx, name in enumerate(self.arrays)}
        self.steps = list(steps)
        for step in self.steps:
            self._check(step)
        if inputs is None:
            self.inputs = self._inferred_inputs()
        else:
            self.inputs = tuple(inputs)
            for name in self.inputs:
                if name not in self.bases:
                    raise ValueError(
                        f"input array {name!r} not declared; arrays: {self.arrays}"
                    )

    def _inferred_inputs(self) -> tuple[str, ...]:
        """Arrays whose first access is a read: assumed preloaded."""
        first_op: dict[str, str] = {}
        for step in self.steps:
            first_op.setdefault(step.array, step.op)
        return tuple(n for n in self.arrays if first_op.get(n) == "read")

    def _check(self, step: KernelStep) -> None:
        if step.array not in self.bases:
            raise ValueError(
                f"step touches unknown array {step.array!r}; declared: {self.arrays}"
            )
        if step.ii.shape != (self.w, self.w):
            raise ValueError(
                f"step index grids must be ({self.w}, {self.w}), got {step.ii.shape}"
            )

    # -- compilation / execution ----------------------------------------
    def program(self, verify: bool = False) -> MemoryProgram:
        """Compile the steps into a DMM memory program.

        With ``verify=True`` the sanitizer of
        :mod:`repro.analysis.verify` runs first and a
        :class:`~repro.analysis.verify.VerificationError` is raised if
        it reports any diagnostic — compile-time checking in place of
        an undefined run.
        """
        if verify:
            from repro.analysis.verify import VerificationError

            report = self.verify(certify=False)
            if not report.ok:
                raise VerificationError(report.sanitizer)
        p = self.w * self.w
        prog = MemoryProgram(p=p)
        for step in self.steps:
            addr = self.bases[step.array] + self.mapping.address(step.ii, step.jj)
            flat = addr.ravel()
            if step.mask is not None:
                flat = np.where(step.mask.ravel(), flat, INACTIVE)
            if step.op == "read":
                prog.append(read(flat, register=step.register))
            elif step.immediate:
                # Host-computed values are unknown statically; distinct
                # per-lane sentinels keep the CRCW race check sound.
                prog.append(write(flat, values=np.arange(p, dtype=np.float64)))
            else:
                prog.append(write(flat, register=step.register))
        return prog

    def program_batch(
        self, shifts: np.ndarray, plan: Optional[object] = None
    ) -> BatchedProgram:
        """Stage the kernel under ``T`` shift draws for the batched DMM.

        ``shifts`` is a ``(T, w)`` matrix (one
        :class:`~repro.core.mappings.ShiftedRowMapping` shift vector
        per trial, e.g. from
        :func:`~repro.core.mappings.sample_shift_batch`); trial ``t``
        is the kernel compiled under ``mapping_from_shifts(name,
        shifts[t])`` — the kernel's own mapping supplies only the array
        bases, which every shifted-row mapping shares.

        Every draw is a rotation of each matrix row, so the value flow
        is the same in every trial: each step stages one ``(p,)`` table
        of *logical* word indices ``base + i*w + j``, shared by all
        trials, with masked lanes at the scratch word ``size`` (the
        machine's memory size).  Only congestion keeps the trial axis,
        and two things make it cheap:

        * the bank of lane ``(i, j)`` is a per-trial table lookup
          ``(j + shifts[t, i]) mod w``, so all ``T`` bank rows of a step
          are one fancy gather; and
        * whether two lanes of a warp collide on an *address* depends
          only on their logical indices (``i*w + (j+s) mod w`` is
          injective per trial), so the CRCW duplicate-merge structure
          is static across trials.  Each instruction therefore carries
          pre-staged ``bank_keys`` — bank values with merged/inactive
          lanes replaced by sentinels at build time — letting the
          executor skip the per-trial address sort on its hot path.

        With ``plan`` (a :class:`~repro.analysis.plan.CompiledPlan` or
        its step sequence, compiled from this kernel), staging gets two
        further static wins:

        * steps the plan *resolved* carry the certified per-warp
          congestion vector and an empty dynamic-warp set — no
          duplicate-merge pass, no bank-key gather, and
          :meth:`~repro.dmm.batched.BatchedDMM.run` settles
          their timing in closed form; absint-resolved steps instead
          carry their :class:`~repro.analysis.absint.CosetRecipe`
          evaluated here against ``shifts`` (one sort over rows, not
          addresses) as a pre-planned ``(T, n_warps)`` congestion
          matrix; and
        * steps sharing a plan ``table`` id (same array, same index
          grids, same mask) share one staged index table and key block
          instead of re-gathering them per step.

        Raises ``ValueError`` unless the kernel's mapping stores each
        array in exactly ``w*w`` words: that is what makes every draw a
        row-wise bijection of each array's region.

        ``shifts`` must be draws of the plan's family — that contract
        is checked by :meth:`run_plan`, not here.
        """
        shifts = np.ascontiguousarray(shifts, dtype=np.int64)
        if shifts.ndim != 2 or shifts.shape[1] != self.w:
            raise ValueError(
                f"shifts must be (trials, {self.w}), got {shifts.shape}"
            )
        if ((shifts < 0) | (shifts >= self.w)).any():
            raise ValueError(f"shifts must lie in [0, {self.w})")
        w = self.w
        p = w * w
        if self.mapping.storage_words != p:
            # Logical data flow needs every draw to be a row-wise
            # bijection of each array's w*w region.
            raise ValueError(
                f"batched staging needs {p}-word arrays, mapping "
                f"{self.mapping.name} stores {self.mapping.storage_words}"
            )
        trials = shifts.shape[0]
        size = len(self.arrays) * p
        # Bank values and sentinels both fit comfortably in int16 for
        # any realistic width; the narrow dtype roughly halves the cost
        # of the executor's per-instruction key sort.
        key_dtype = np.int16 if 2 * w <= np.iinfo(np.int16).max else np.int64  # repro: noqa[ADDR001]
        # One extended lookup table answers the bank-key gather per step:
        # column i*w + j holds trial t's bank (j + shifts[t, i]) mod w,
        # column p + lane holds lane's sentinel (same in every trial).
        cols = np.arange(w, dtype=np.int64)
        lane = np.arange(p, dtype=np.int64)
        table = np.empty((trials, 2 * p), dtype=key_dtype)
        table[:, :p] = ((cols[None, None, :] + shifts[:, :, None]) % w).reshape(
            trials, p
        )
        table[:, p:] = w + (lane % w)

        plan_steps = None
        if plan is not None:
            plan_steps = list(getattr(plan, "steps", plan))
            if len(plan_steps) != len(self.steps):
                raise ValueError(
                    f"plan has {len(plan_steps)} steps, kernel has "
                    f"{len(self.steps)}"
                )

        def stage(
            step: KernelStep,
            resolved_congestions: Optional[np.ndarray],
            recipe: "Optional[CosetRecipe]",
        ) -> tuple[
            np.ndarray,
            Optional[np.ndarray],
            Optional[np.ndarray],
            Optional[np.ndarray],
            Optional[np.ndarray],
            Optional[np.ndarray],
        ]:
            """Stage one step's logical index table and congestion machinery."""
            iif = step.ii.ravel()
            jjf = step.jj.ravel()
            maskf = None if step.mask is None else step.mask.ravel()
            idx = iif * w + jjf
            if maskf is not None:
                # Dead lanes may hold arbitrary index values; keep their
                # table column in range.
                idx = np.where(maskf, idx, 0)
            planned_congestions = None
            if resolved_congestions is not None:
                # The plan certified this step's per-warp congestion
                # for every draw of the family: no duplicate-merge
                # pass, no bank keys — the executor never counts.
                static_congestions = np.ascontiguousarray(
                    resolved_congestions, dtype=np.int64
                )
                dynamic_warps = np.empty(0, dtype=np.int64)
                bank_keys = np.empty((trials, 0), dtype=key_dtype)
            elif recipe is not None:
                # Absint-resolved: the coset closed form gives every
                # trial's per-warp congestion from the shift vectors
                # alone — no duplicate-merge pass, no bank keys.
                planned_congestions = recipe.congestions(shifts)
                static_congestions = None
                dynamic_warps = None
                bank_keys = None
            else:
                # Static duplicate merge: lanes of one warp collide iff
                # they share (i, j) — the mapping is injective per
                # trial — so the merge structure is trial-independent.
                # Dead lanes get unique keys >= p and can never mark a
                # live lane.
                pos = idx if maskf is None else np.where(maskf, idx, p + lane)
                by_warp = pos.reshape(-1, w)
                n_warps = by_warp.shape[0]
                order = np.argsort(by_warp, axis=1, kind="stable")
                rows = np.arange(n_warps)[:, None]
                srt = by_warp[rows, order]
                dup_sorted = np.zeros_like(srt, dtype=bool)
                dup_sorted[:, 1:] = srt[:, 1:] == srt[:, :-1]
                dup = np.zeros_like(dup_sorted)
                dup[rows, order] = dup_sorted
                drop = dup.ravel()
                if maskf is not None:
                    drop = drop | ~maskf
                # Per-warp static congestion: a warp whose active lanes
                # all sit in one matrix row has congestion exactly 1
                # under *every* shift draw (distinct columns of a row
                # occupy distinct banks), and a fully inactive warp has
                # 0.  Only the remaining warps need per-trial keys.
                act_w = (
                    np.ones((n_warps, w), dtype=bool)
                    if maskf is None
                    else maskf.reshape(n_warps, w)
                )
                any_act = act_w.any(axis=1)
                ii_w = iif.reshape(n_warps, w)
                ref_row = ii_w[np.arange(n_warps), act_w.argmax(axis=1)]
                row_local = (~act_w | (ii_w == ref_row[:, None])).all(axis=1)
                static_congestions = (any_act & row_local).astype(np.int64)
                dynamic_warps = np.flatnonzero(any_act & ~row_local)
                # Congestion keys for the dynamic warps only: real bank
                # at counted lanes, sentinel at merged/inactive lanes —
                # one gather, no fixup pass.
                key_cols = np.where(drop, p + lane, idx).reshape(n_warps, w)
                bank_keys = table[:, key_cols[dynamic_warps].ravel()]
            # Logical word indices, shared by every trial; dead lanes
            # address the scratch word just past the last array.
            addresses = self.bases[step.array] + idx
            if maskf is not None:
                addresses = np.where(maskf, addresses, size)
            return (
                addresses,
                maskf,
                static_congestions,
                dynamic_warps,
                bank_keys,
                planned_congestions,
            )

        batched = BatchedProgram(p=p, shifts=shifts, memory_size=size)
        # Host-computed write values stand in as distinct per-lane
        # sentinels (as in program()); one read-only row serves every step.
        immediate = np.arange(p, dtype=np.float64)
        immediate.setflags(write=False)
        staged_cache: dict[int, tuple] = {}
        for step_idx, step in enumerate(self.steps):
            sp = None if plan_steps is None else plan_steps[step_idx]
            if sp is not None and (sp.op != step.op or sp.array != step.array):
                raise ValueError(
                    f"plan step {step_idx} is {sp.op} {sp.array!r}, kernel "
                    f"step is {step.op} {step.array!r} — plan was compiled "
                    "from a different kernel"
                )
            if sp is not None and sp.table in staged_cache:
                # Plan-pooled address table: same array, same index
                # grids, same mask — share the staged arrays instead of
                # re-gathering them (they are only ever read).
                staged = staged_cache[sp.table]
            else:
                staged = stage(
                    step,
                    sp.congestions if sp is not None else None,
                    sp.recipe if sp is not None else None,
                )
                if sp is not None:
                    staged_cache[sp.table] = staged
            (
                addresses,
                mask_out,
                static_congestions,
                dynamic_warps,
                bank_keys,
                planned_congestions,
            ) = staged
            values = immediate if step.op == "write" and step.immediate else None
            batched.append(
                BatchedInstruction.staged(
                    op=step.op,
                    addresses=addresses,
                    register=step.register,
                    values=values,
                    static_congestions=static_congestions,
                    dynamic_warps=dynamic_warps,
                    bank_keys=bank_keys,
                    mask=mask_out,
                    max_address=self.bases[step.array] + p - 1,
                    planned_congestions=planned_congestions,
                )
            )
        return batched

    def make_batched_machine(
        self, shifts: np.ndarray, latency: int = 1
    ) -> BatchedDMM:
        """A batched DMM sized for this kernel's arrays, for ``shifts``."""
        return BatchedDMM(
            self.w,
            latency,
            memory_size=len(self.arrays) * self.mapping.storage_words,
            shifts=shifts,
        )

    def run_batch(
        self, shifts: np.ndarray, latency: int = 1
    ) -> BatchedExecutionResult:
        """Execute the kernel under ``T`` shift draws at once.

        Stages :meth:`program_batch` and runs it on a fresh
        :meth:`make_batched_machine`; ``result.time_units[t]`` is the
        exact DMM completion time the scalar path would report for
        trial ``t``'s mapping.
        """
        program = self.program_batch(shifts)
        machine = self.make_batched_machine(program.shifts, latency)
        return machine.run(program)

    def run_plan(
        self,
        shifts: np.ndarray,
        plan: "CompiledPlan",
        latency: int = 1,
    ) -> BatchedExecutionResult:
        """Execute the kernel under a compiled plan (see
        :func:`repro.analysis.plan.compile_plan`).

        Stages :meth:`program_batch` with the plan's static verdicts
        and address pooling, then runs
        :meth:`~repro.dmm.batched.BatchedDMM.run` — resolved steps
        never replay addresses for congestion counting.  The result is
        bit-identical to :meth:`run_batch` (and to the scalar machine
        per trial); ``shifts`` must be draws of the plan's mapping
        family, which is checked up front.
        """
        from repro.analysis.plan import run_compiled

        return run_compiled(self, shifts, plan, latency)

    def verify(self, certify: bool = True) -> "VerificationReport":
        """Statically verify the kernel without executing it.

        Returns a :class:`~repro.analysis.verify.VerificationReport`
        combining the sanitizer diagnostics with (when ``certify``)
        the per-step congestion certificate under this kernel's
        mapping.  See :mod:`repro.analysis.verify`.
        """
        from repro.analysis.verify import verify_kernel

        return verify_kernel(self, certify=certify)

    def make_machine(self, latency: int = 1) -> DiscreteMemoryMachine:
        """A DMM sized for this kernel's arrays."""
        return DiscreteMemoryMachine(
            self.w,
            latency,
            memory_size=len(self.arrays) * self.mapping.storage_words,
        )

    def load_array(
        self, machine: DiscreteMemoryMachine, name: str, matrix: np.ndarray
    ) -> None:
        """Place a logical matrix into the machine under the mapping."""
        machine.load(self.bases[name], self.mapping.apply_layout(matrix))

    def read_array(self, machine: DiscreteMemoryMachine, name: str) -> np.ndarray:
        """Recover a logical matrix from the machine under the mapping."""
        flat = machine.dump(self.bases[name], self.mapping.storage_words)
        return self.mapping.read_layout(flat)

    def overhead_ops(self) -> int:
        """Address-computation ALU ops across all warp issues."""
        issues = len(self.steps) * self.w  # instructions x warps
        return self.mapping.address_overhead_ops * issues

    def run(
        self,
        machine: Optional[DiscreteMemoryMachine] = None,
        latency: int = 1,
        timing_model: Optional[GPUTimingModel] = None,
    ) -> KernelReport:
        """Execute on the DMM and report stages / time / predicted ns."""
        if machine is None:
            machine = self.make_machine(latency)
        execution = machine.run(self.program())
        total_stages = sum(t.schedule.total_stages for t in execution.traces)
        ops = self.overhead_ops()
        predicted = (
            timing_model.predict_ns(total_stages, ops) if timing_model else None
        )
        return KernelReport(
            time_units=execution.time_units,
            total_stages=total_stages,
            overhead_ops=ops,
            predicted_ns=predicted,
            execution=execution,
        )


def transpose_kernel(
    kind: str, mapping: AddressMapping | str, w: Optional[int] = None, seed: SeedLike = None
) -> SharedMemoryKernel:
    """Build the Table III transpose kernels as SharedMemoryKernels.

    Parameters
    ----------
    kind:
        ``"CRSW"``, ``"SRCW"``, or ``"DRDW"``.
    mapping:
        Mapping instance or name.
    w:
        Width, required when ``mapping`` is a name (default 32).
    seed:
        Seed when drawing a mapping by name.
    """
    from repro.access.transpose import transpose_indices

    if isinstance(mapping, str):
        mapping = mapping_by_name(mapping, 32 if w is None else w, seed)
    (ri, rj), (wi, wj) = transpose_indices(kind, mapping.w)
    steps = [
        KernelStep("read", "a", ri, rj, register="c"),
        KernelStep("write", "b", wi, wj, register="c"),
    ]
    return SharedMemoryKernel(
        mapping.w, steps, arrays=("a", "b"), mapping=mapping, inputs=("a",)
    )
