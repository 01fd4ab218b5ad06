"""The numba backend: an ``@njit``-compiled residual congestion count.

Data movement is one ``(p,)`` gather or scatter per instruction on the
logical image (see :mod:`repro.dmm.batched`), shared by every backend.
What keeps a trial axis is congestion: the numpy path sorts each
dynamic warp's bank keys and takes the longest run.  This backend
replaces that with a per-warp histogram
(:func:`~repro.dmm.backends.kernels.hist_congestion`) — O(w) per warp
instead of a sort, no temporaries.

numba is imported lazily, only when the backend is probed or staged;
in environments without it the backend reports unavailable and the
registry falls back to numpy (see
:func:`repro.dmm.backends.resolve_backend`).  Passing an explicit
kernel set (e.g. :data:`~repro.dmm.backends.kernels.PYTHON_KERNELS`)
bypasses the import entirely — the equivalence tests use this to pin
the backend's logic to the reference semantics even without numba.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from repro.dmm.backends.base import BackendUnavailable, InstructionLoopBackend, StagedPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.dmm.batched import BatchedDMM, BatchedInstruction, BatchedProgram

__all__ = ["NumbaBackend"]

Kernels = Dict[str, Callable[..., None]]


class NumbaBackend(InstructionLoopBackend):
    """Compiled-kernel backend, bit-identical to the numpy reference.

    Parameters
    ----------
    kernels:
        Optional explicit kernel set (name -> callable).  Default
        ``None`` compiles :data:`~repro.dmm.backends.kernels.KERNEL_NAMES`
        with ``numba.njit`` on first staging; tests pass
        :data:`~repro.dmm.backends.kernels.PYTHON_KERNELS` to exercise
        the identical logic without numba.
    """

    name = "numba"

    def __init__(self, kernels: Optional[Kernels] = None) -> None:
        self._kernels = kernels
        self._avail: Optional[bool] = None
        self._reason: Optional[str] = None

    def available(self) -> bool:
        if self._avail is None:
            try:
                import numba  # noqa: F401

                self._avail, self._reason = True, None
            except Exception as exc:  # ImportError, broken install, ...
                self._avail = False
                self._reason = f"numba not importable ({type(exc).__name__})"
        return self._avail

    def unavailable_reason(self) -> Optional[str]:
        self.available()
        return self._reason

    def _prepare(self, machine: "BatchedDMM", program: "BatchedProgram") -> Kernels:
        if self._kernels is None:
            if not self.available():
                raise BackendUnavailable(
                    f"numba backend cannot stage: {self._reason}"
                )
            from repro.dmm.backends.kernels import load_kernels

            self._kernels = load_kernels(jit=True)
        return self._kernels

    def _congestions(
        self,
        machine: "BatchedDMM",
        instr: "BatchedInstruction",
        staged: StagedPlan,
    ) -> np.ndarray:
        from repro.dmm.batched import instruction_congestions

        w, trials = machine.w, machine.trials
        dyn = instr.dynamic_warps
        if instr.planned_congestions is not None or dyn is None or not dyn.size:
            # Nothing to count: the reference serves (or refuses) it.
            return instruction_congestions(instr, w, trials)
        assert instr.static_congestions is not None and instr.bank_keys is not None
        kernels: Kernels = staged.state
        cong = np.empty((trials, instr.p // w), dtype=np.int64)
        cong[:] = instr.static_congestions
        keys = instr.bank_keys.reshape(-1, w)
        runs = np.empty(keys.shape[0], dtype=np.int64)
        kernels["hist_congestion"](keys, w, runs)
        cong[:, dyn] = runs.reshape(trials, dyn.size)
        return cong
