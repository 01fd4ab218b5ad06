"""Certificate-guided plan compiler: static timing out of the hot path.

The paper's central claim is *static*: under RAP, contiguous and
stride accesses have congestion exactly 1 — so for a provably
conflict-free step there is nothing left to simulate.  This module
compiles a :class:`~repro.gpu.kernel.SharedMemoryKernel` skeleton once
per mapping *family* into a :class:`CompiledPlan` that partitions the
steps:

**statically resolved**
    A symbolic certificate proves the step's per-warp congestion is
    the same for *every* draw of the family, so its per-trial timing is
    a closed-form constant and the executor never replays its
    addresses for counting.  The family-level rules are the prover's
    (:mod:`repro.analysis.prover`), applied per warp:

    * *row-local* — a warp whose active lanes sit in one matrix row has
      congestion exactly 1 under **any** shifted-row draw (a per-row
      rotation is a bijection of the row onto the banks): RAW, RAS and
      RAP alike.
    * *column-local under RAP* — a warp whose active lanes sit in one
      matrix column has congestion exactly 1 for **every** permutation
      draw (banks are ``col + sigma(row)`` over distinct rows and
      ``sigma`` is injective — Theorem 1's argument, warp by warp).
      Not draw-independent under RAS, where ``sigma`` may repeat.
    * *RAW is a singleton family* — the zero-shift mapping is the only
      member, so any step's exact per-warp enumeration is
      trial-independent (``method="deterministic"``).

    * *coset-structured (absint)* — a step whose every warp factors
      into per-row full cosets under the abstract interpreter
      (:mod:`repro.analysis.absint`) is resolved with a
      :class:`~repro.analysis.absint.CosetRecipe`: its congestion is
      not one constant but an **exact closed form of the draw**
      (max multiplicity of ``(offset_r + shift[row_r]) mod k``),
      evaluated from the shift vectors alone — the executor still
      skips address replay and bank-key staging
      (``method="absint"``).  This is what resolves diagonal-type
      and masked compare-exchange steps the affine rules miss.

**residual**
    Everything else (draw-dependent congestion: diagonal-type accesses
    under RAS/RAP, shift-histogram regimes) — handed to the existing
    batched executor with pre-staged bank keys, exactly as before.

The compiler also pools identical address grids: steps that touch the
same array through the same ``(ii, jj, mask)`` grids share one staged
index table and key block (shearsort's 1400+ steps collapse to 2
tables), and the executor counts a pooled residual table once per run.

Execution is ``kernel.program_batch(shifts, plan=plan.steps)`` +
:meth:`~repro.dmm.batched.BatchedDMM.run` (or the
:meth:`~repro.gpu.kernel.SharedMemoryKernel.run_plan` convenience),
and the contract is unchanged from the plain batched engine:
per-trial congestion tuples, dispatch, timing, registers, and memory
are **bit-identical** to the scalar machine
(``tests/test_plan.py`` pins this for every builtin app under RAW,
RAS, and RAP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.analysis.absint import (
    METHOD_ABSINT,
    CosetRecipe,
    abstract_step,
    step_bound,
    step_recipe,
)
from repro.core.congestion import congestion_batch
from repro.dmm.trace import INACTIVE

if TYPE_CHECKING:  # pragma: no cover
    from repro.dmm.backends import Resolution, StagedPlan
    from repro.dmm.batched import BatchedDMM, BatchedExecutionResult, BatchedProgram
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

__all__ = [
    "PLAN_FAMILIES",
    "StepPlan",
    "CompiledPlan",
    "compile_plan",
    "check_family_shifts",
    "stage_compiled",
    "run_compiled",
]

#: mapping families the plan compiler reasons about: the shifted-row
#: trio whose draws :func:`~repro.core.mappings.sample_shift_batch`
#: stages for the batched executor.
PLAN_FAMILIES = ("RAW", "RAS", "RAP")

METHOD_SYMBOLIC = "symbolic"
METHOD_DETERMINISTIC = "deterministic"
METHOD_RESIDUAL = "residual"


@dataclass(frozen=True)
class StepPlan:
    """One step's static-resolution verdict under a mapping family.

    Attributes
    ----------
    step, op, array, register:
        What the step does, in program order.
    resolved:
        True when the step's congestion is statically settled for the
        whole family — either one constant vector every trial shares,
        or a closed form of the draw — so the executor never replays
        its addresses for counting.
    method:
        ``"symbolic"`` (row-local / column-local-under-permutation
        proof), ``"deterministic"`` (RAW: singleton family, enumerated
        once), ``"absint"`` (coset-structured: exact closed form of
        the draw via the abstract interpreter), or ``"residual"``.
    argument:
        The proof sketch, or why the step stays residual.
    congestions:
        Draw-independent resolved steps only: the ``(n_warps,)``
        per-warp congestion vector every trial shares (``None`` for
        residual and absint steps).
    recipe:
        Absint steps only: the
        :class:`~repro.analysis.absint.CosetRecipe` whose
        ``congestions(shifts)`` is the exact per-trial per-warp
        congestion matrix (``None`` otherwise).
    static_warps, active_warps:
        Warps whose congestion is statically settled — no per-trial
        address replay or bank-key sort (row-local warps count even
        inside residual steps; every warp of an absint step counts) —
        vs warps dispatching at all.
    table:
        Address-pool id: steps with equal ids touch the same array
        through identical index grids and share one staged address
        block.
    """

    step: int
    op: str
    array: str
    register: str
    resolved: bool
    method: str
    argument: str
    congestions: Optional[np.ndarray]
    static_warps: int
    active_warps: int
    table: int
    recipe: Optional[CosetRecipe] = None

    @property
    def total_stages(self) -> int:
        """Stages of a draw-independent step (-1 when draw-dependent)."""
        if self.congestions is None:
            return -1
        return int(self.congestions.sum())

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "op": self.op,
            "array": self.array,
            "resolved": self.resolved,
            "method": self.method,
            "argument": self.argument,
            "static_warps": self.static_warps,
            "active_warps": self.active_warps,
            "total_stages": self.total_stages,
            "table": self.table,
        }


@dataclass(frozen=True)
class CompiledPlan:
    """A kernel skeleton compiled against one mapping family.

    Attributes
    ----------
    program:
        Name of the compiled program (for reports).
    family:
        Mapping family the verdicts hold for (``RAW``/``RAS``/``RAP``).
    w, p:
        Warp width and thread count.
    steps:
        One :class:`StepPlan` per kernel step, in program order.
    tables:
        Distinct address blocks the staged program needs (the pool the
        ``table`` ids index into).
    """

    program: str
    family: str
    w: int
    p: int
    steps: tuple[StepPlan, ...]
    tables: int

    @property
    def resolved_steps(self) -> int:
        """Steps whose timing is a per-trial constant."""
        return sum(s.resolved for s in self.steps)

    @property
    def step_coverage(self) -> float:
        """Fraction of steps statically resolved."""
        if not self.steps:
            return 1.0
        return self.resolved_steps / len(self.steps)

    @property
    def stage_coverage(self) -> float:
        """Fraction of dispatched warps settled without address replay.

        Counts row-local warps of residual steps too — the staged fast
        path settles those without per-trial work even when the step as
        a whole must be simulated — and every warp of an absint step,
        whose congestion is a closed form of the draw.
        """
        active = sum(s.active_warps for s in self.steps)
        if active == 0:
            return 1.0
        return sum(s.static_warps for s in self.steps) / active

    @property
    def static_stages(self) -> int:
        """Stages settled at compile time (draw-independent steps).

        Absint steps are excluded: their stage count is exact but
        draw-dependent, so it has no single compile-time value.
        """
        return sum(
            s.total_stages
            for s in self.steps
            if s.resolved and s.congestions is not None
        )

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "family": self.family,
            "w": self.w,
            "steps": len(self.steps),
            "resolved_steps": self.resolved_steps,
            "step_coverage": round(self.step_coverage, 6),
            "stage_coverage": round(self.stage_coverage, 6),
            "static_stages": self.static_stages,
            "tables": self.tables,
            "plan": [s.to_dict() for s in self.steps],
        }

    def render(self) -> str:
        lines = [
            f"{self.program} under {self.family} (w={self.w}): "
            f"{self.resolved_steps}/{len(self.steps)} steps resolved "
            f"({self.step_coverage:.0%}), stage coverage "
            f"{self.stage_coverage:.0%}, {self.tables} address table(s)"
        ]
        for s in self.steps:
            stages = (
                f" stages={s.total_stages}"
                if s.resolved and s.congestions is not None
                else ""
            )
            lines.append(
                f"  step {s.step}: {s.op} {s.array} [{s.method}]"
                f"{stages} — {s.argument}"
            )
        return "\n".join(lines)


def check_family_shifts(family: str, shifts: np.ndarray, w: int) -> None:
    """Reject shift draws that are not members of ``family``.

    A plan's verdicts are theorems about a family; executing it under a
    draw from a different family (a non-permutation under a RAP plan,
    a nonzero shift under RAW) would silently report wrong timing.
    """
    if family not in PLAN_FAMILIES:
        raise ValueError(
            f"unknown mapping family {family!r}; expected one of {PLAN_FAMILIES}"
        )
    shifts = np.asarray(shifts)
    if family == "RAW":
        if shifts.size and shifts.any():
            raise ValueError(
                "plan compiled for RAW (zero shifts), got a nonzero draw"
            )
    elif family == "RAP":
        expect = np.arange(w, dtype=np.int64)
        sorted_rows = np.sort(shifts, axis=-1)
        if shifts.size and not (sorted_rows == expect).all():
            raise ValueError(
                "plan compiled for RAP, but a drawn shift vector is not a "
                "permutation of range(w)"
            )


def _warp_classes(
    step: "KernelStep", w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-warp (any_active, row_local, column_local) of one kernel step."""
    iif = step.ii.ravel()
    jjf = step.jj.ravel()
    n_warps = iif.size // w
    act = (
        np.ones((n_warps, w), dtype=bool)
        if step.mask is None
        else step.mask.ravel().reshape(n_warps, w)
    )
    any_act = act.any(axis=1)
    first = act.argmax(axis=1)
    rows = np.arange(n_warps)
    ii_w = iif.reshape(n_warps, w)
    jj_w = jjf.reshape(n_warps, w)
    row_local = (~act | (ii_w == ii_w[rows, first][:, None])).all(axis=1)
    col_local = (~act | (jj_w == jj_w[rows, first][:, None])).all(axis=1)
    return any_act, row_local, col_local


def _raw_congestions(step: "KernelStep", base: int, w: int) -> np.ndarray:
    """Exact per-warp congestion under the zero-shift (RAW) member."""
    addr = base + (step.ii * w + step.jj).ravel()
    if step.mask is not None:
        addr = np.where(step.mask.ravel(), addr, INACTIVE)
    return congestion_batch(addr.reshape(-1, w), w, inactive=INACTIVE)


def compile_plan(
    kernel: "SharedMemoryKernel", family: str, name: str = "kernel"
) -> CompiledPlan:
    """Compile a kernel skeleton against a mapping family.

    Every step gets a draw-independence verdict (see the module
    docstring for the rule set); steps sharing an array and index grids
    are pooled into one address table.  The kernel's own mapping
    supplies only the array bases — exactly the contract of
    :meth:`~repro.gpu.kernel.SharedMemoryKernel.program_batch`.
    """
    if family not in PLAN_FAMILIES:
        raise ValueError(
            f"unknown mapping family {family!r}; expected one of {PLAN_FAMILIES}"
        )
    w = kernel.w
    plans: list[StepPlan] = []
    pool: dict[tuple, int] = {}
    for idx, step in enumerate(kernel.steps):
        base = kernel.bases[step.array]
        key = (
            step.array,
            step.ii.tobytes(),
            step.jj.tobytes(),
            None if step.mask is None else step.mask.tobytes(),
        )
        table = pool.setdefault(key, len(pool))
        any_act, row_local, col_local = _warp_classes(step, w)
        active_warps = int(any_act.sum())

        resolved = False
        method = METHOD_RESIDUAL
        congestions: Optional[np.ndarray] = None
        recipe: Optional[CosetRecipe] = None
        if base % w != 0:
            # A base that is not a whole number of bank periods skews
            # the bank arithmetic; no symbolic rule applies.
            static_warps = 0
            argument = (
                f"array base {base} is not a multiple of w={w}; "
                "bank arithmetic is skewed — residual"
            )
        elif family == "RAW":
            resolved = True
            method = METHOD_DETERMINISTIC
            congestions = _raw_congestions(step, base, w)
            static_warps = active_warps
            argument = (
                "RAW is a singleton family (zero shifts): the exact "
                "per-warp enumeration holds for every trial"
            )
        else:
            static = any_act & row_local
            if family == "RAP":
                static = static | (any_act & col_local)
            static_warps = int(static.sum())
            if static_warps == active_warps:
                resolved = True
                method = METHOD_SYMBOLIC
                congestions = any_act.astype(np.int64)
                n_row = int((any_act & row_local).sum())
                n_col = active_warps - n_row
                parts = []
                if n_row:
                    parts.append(
                        f"{n_row} row-local warp(s): a per-row rotation "
                        "maps the row bijectively onto the banks "
                        "(congestion 1 for any shift draw)"
                    )
                if n_col:
                    parts.append(
                        f"{n_col} column-local warp(s): banks are "
                        "col + shift[row] over distinct rows and every "
                        "RAP draw is a permutation — injective, "
                        "congestion 1 (Theorem 1)"
                    )
                argument = "; ".join(parts) if parts else "no warp dispatches"
            else:
                abstract = abstract_step(step, w, index=idx)
                recipe = step_recipe(abstract)
                if recipe is not None:
                    resolved = True
                    method = METHOD_ABSINT
                    static_warps = active_warps
                    bound, _ = step_bound(abstract, family)
                    ks = sorted({int(g.k) for g in recipe.groups})
                    argument = (
                        f"{abstract.coset_warps} coset warp(s) "
                        f"(k in {ks}): every touched row's columns form "
                        "a full coset, so congestion is the exact "
                        "residue-multiset closed form of the draw — "
                        f"per-bank load <= {bound} for every {family} "
                        "draw"
                    )
                else:
                    dyn = active_warps - static_warps
                    argument = (
                        f"{dyn}/{active_warps} warp(s) mix rows and "
                        "columns with no coset structure: congestion "
                        f"depends on the concrete {family} draw — "
                        "residual (per-trial bank count)"
                    )
        plans.append(
            StepPlan(
                step=idx,
                op=step.op,
                array=step.array,
                register=step.register,
                resolved=resolved,
                method=method,
                argument=argument,
                congestions=congestions,
                static_warps=static_warps,
                active_warps=active_warps,
                table=table,
                recipe=recipe,
            )
        )
    return CompiledPlan(
        program=name,
        family=family,
        w=w,
        p=w * w,
        steps=tuple(plans),
        tables=len(pool),
    )


def _stage(
    kernel: "SharedMemoryKernel",
    shifts: np.ndarray,
    plan: CompiledPlan,
    latency: int,
) -> "tuple[BatchedDMM, BatchedProgram]":
    """The machine and plan-staged program for one draw batch.

    Validates the batch against the plan's family first: a plan's
    verdicts are theorems about one family, so foreign draws (or a
    plan compiled at another width) are refused.
    """
    if plan.w != kernel.w:
        raise ValueError(
            f"plan was compiled at w={plan.w}, kernel has w={kernel.w}"
        )
    shifts = np.ascontiguousarray(shifts, dtype=np.int64)
    check_family_shifts(plan.family, shifts, kernel.w)
    machine = kernel.make_batched_machine(shifts, latency)
    return machine, kernel.program_batch(shifts, plan=plan)


def stage_compiled(
    kernel: "SharedMemoryKernel",
    shifts: np.ndarray,
    plan: CompiledPlan,
    latency: int = 1,
    backend: str = "numpy",
) -> "tuple[Resolution, StagedPlan]":
    """Stage a compiled plan without running it.

    Returns ``(resolution, staged)``; ``resolution.backend.execute(staged)``
    runs it.  This is the call shape of :mod:`repro.dmm.backends`, kept
    for the benchmark harness, which times staging and execution as
    separate layers.  ``backend`` must be ``"numpy"``, the only one.
    """
    from repro.dmm.backends import NUMPY, Resolution, StagedPlan

    if backend != NUMPY.name:
        raise ValueError(f"unknown backend {backend!r}; the only one is 'numpy'")
    machine, program = _stage(kernel, shifts, plan, latency)
    return Resolution(), StagedPlan(machine=machine, program=program)


def run_compiled(
    kernel: "SharedMemoryKernel",
    shifts: np.ndarray,
    plan: CompiledPlan,
    latency: int = 1,
) -> "BatchedExecutionResult":
    """Stage and execute a compiled plan in one call.

    Resolved steps never replay addresses for congestion counting; the
    result is bit-identical to
    :meth:`~repro.gpu.kernel.SharedMemoryKernel.run_batch` (and to the
    scalar machine per trial).
    """
    machine, program = _stage(kernel, shifts, plan, latency)
    return machine.run(program)
