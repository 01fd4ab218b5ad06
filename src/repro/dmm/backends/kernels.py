"""Hot-loop kernels for the numba backend, written in plain python.

Each function below is a straight-line loop over preallocated numpy
arrays, written in the numba-compilable subset of python, so that:

* with numba installed, :func:`load_kernels` returns them
  ``@numba.njit``-compiled — the numba backend's execution primitives;
* without numba, the *same* functions run as ordinary (slow) python —
  which is how ``tests/test_backends.py`` pins the numba backend's
  logic bit-identically to the numpy reference even in environments
  where numba is absent.

**Congestion over bank keys** (:func:`hist_congestion`): the numpy
path sorts each warp row and takes the longest run of equal keys; the
longest run of a sorted row equals the maximum multiplicity in the
row, so a per-row histogram over the key range ``[0, 2w)`` gives the
identical integer without the sort.  Sentinel keys (``>= w``) are
unique per lane within a warp, so their counts are 1 and can never win
over a real bank's count when any lane is counted.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

__all__ = ["KERNEL_NAMES", "PYTHON_KERNELS", "load_kernels"]


def hist_congestion(keys: np.ndarray, w: int, out: np.ndarray) -> None:
    """Per-row max key multiplicity; rows are warps, keys in [0, 2w).

    Equals ``max_run_lengths(np.sort(keys, axis=1))`` for sentinel-
    disambiguated bank keys.  ``out`` has one slot per row.
    """
    n_rows = keys.shape[0]
    lanes = keys.shape[1]
    counts = np.zeros(2 * w, dtype=np.int64)
    for r in range(n_rows):
        best = 0
        for j in range(lanes):
            k = keys[r, j]
            counts[k] += 1
            if counts[k] > best:
                best = counts[k]
        for j in range(lanes):
            counts[keys[r, j]] = 0
        out[r] = best


KERNEL_NAMES = ("hist_congestion",)

#: the uncompiled kernels, by name (the bare-environment fallback and
#: the equivalence-test subject).
PYTHON_KERNELS: Dict[str, Callable[..., None]] = {
    name: globals()[name] for name in KERNEL_NAMES
}


def load_kernels(jit: bool = True) -> Dict[str, Callable[..., None]]:
    """The kernel set, ``@njit``-compiled when numba is importable.

    With ``jit=False`` (or when numba is missing and the caller
    tolerates it) the plain python functions are returned; callers
    that *require* compiled kernels should check availability first
    (see :class:`~repro.dmm.backends.numba_backend.NumbaBackend`).
    """
    if not jit:
        return dict(PYTHON_KERNELS)
    import numba

    compiled: Dict[str, Callable[..., None]] = {}
    for name in KERNEL_NAMES:
        compiled[name] = numba.njit(PYTHON_KERNELS[name], cache=False)
    return compiled
