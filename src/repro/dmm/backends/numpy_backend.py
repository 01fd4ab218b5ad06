"""The numpy reference backend.

This *is* the semantics: the instruction loop of
:class:`~repro.dmm.backends.base.InstructionLoopBackend` with the
vectorized numpy congestion count
:func:`~repro.dmm.batched.instruction_congestions`.  Every other
backend is pinned to this one (and this one to the scalar machine) by
the bit-identity tests in ``tests/test_backends.py`` /
``tests/test_plan.py``.  :meth:`repro.dmm.batched.BatchedDMM.run` and
:meth:`~repro.dmm.batched.BatchedDMM.execute_plan` both run here by
default.
"""

from __future__ import annotations

from repro.dmm.backends.base import InstructionLoopBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(InstructionLoopBackend):
    """Reference backend: pure-numpy staging and execution."""

    name = "numpy"
