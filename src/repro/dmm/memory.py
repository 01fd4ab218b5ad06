"""Banked shared memory with CRCW-arbitrary semantics (Section II).

``m[a]`` lives in bank ``a mod w`` — the interleaved mapping of Fig. 1.
Reads are concurrent; duplicate *read* addresses are merged into one
request.  Duplicate *write* addresses are resolved arbitrarily (one
writer wins, the rest are ignored) — the DMM is a CRCW machine with
arbitrary resolution.  For reproducibility our "arbitrary" choice is
deterministic: the highest thread index wins, which is how numpy's
fancy assignment resolves duplicate indices (last occurrence wins).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.util.validation import check_positive_int

__all__ = ["BankedMemory", "BatchedMemory"]


class BankedMemory:
    """A single address space interleaved over ``w`` memory banks.

    Parameters
    ----------
    w:
        Number of banks.
    size:
        Number of addressable words.  Rounded semantics: any address in
        ``[0, size)`` is valid.
    dtype:
        Element dtype of the backing store (default ``float64`` — the
        paper's kernels move ``double`` values).
    fill:
        Initial value of every word.
    """

    def __init__(
        self,
        w: int,
        size: int,
        dtype: "npt.DTypeLike" = np.float64,
        fill: float = 0,
    ) -> None:
        self.w = check_positive_int(w, "w")
        self.size = check_positive_int(size, "size")
        self._store = np.full(size, fill, dtype=dtype)

    @property
    def store(self) -> np.ndarray:
        """The raw backing array (a view; mutate with care)."""
        return self._store

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the backing store."""
        return self._store.dtype

    def bank_of(self, addresses: "npt.ArrayLike") -> np.ndarray:
        """Bank index of each address: ``a mod w``."""
        addresses = self._validate(addresses)
        return addresses % self.w

    def row_of(self, addresses: "npt.ArrayLike") -> np.ndarray:
        """Row (position within the bank) of each address: ``a // w``."""
        addresses = self._validate(addresses)
        return addresses // self.w

    def read(self, addresses: "npt.ArrayLike") -> np.ndarray:
        """Concurrent gather: return ``m[a]`` for each requested address.

        Duplicate addresses are allowed (they merge into one physical
        request; the timing consequence is handled by the MMU, not
        here) and every requesting thread receives the value.
        """
        addresses = self._validate(addresses)
        return self._store[addresses]

    def write(self, addresses: "npt.ArrayLike", values: "npt.ArrayLike") -> None:
        """Concurrent scatter with CRCW-arbitrary duplicate resolution.

        When several threads write the same address, exactly one value
        is stored.  numpy fancy assignment keeps the *last* occurrence,
        i.e. the highest thread index — a legal "arbitrary" choice that
        is deterministic for testing.
        """
        addresses = self._validate(addresses)
        values = np.asarray(values)
        if values.shape != addresses.shape:
            raise ValueError(
                f"values shape {values.shape} must match addresses shape {addresses.shape}"
            )
        self._store[addresses] = values

    def _validate(self, addresses: "npt.ArrayLike") -> np.ndarray:
        addresses = np.asarray(addresses, dtype=np.int64)
        if ((addresses < 0) | (addresses >= self.size)).any():
            raise IndexError(
                f"address out of range [0, {self.size})"
            )
        return addresses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BankedMemory(w={self.w}, size={self.size}, dtype={self._store.dtype})"


class BatchedMemory:
    """One logical address space observed under ``T`` shifted-row draws.

    The batched DMM executor (:mod:`repro.dmm.batched`) runs one
    program skeleton under many mapping draws at once.  Every draw of a
    shifted-row mapping (RAW, RAS, RAP) rotates each matrix row, so it
    is a bijection on each array's region, and CRCW resolution goes by
    lane order; the *logical* contents of memory are therefore the same
    under every draw.  This class stores them once: a ``(size + 1,)``
    store indexed by logical word ``R * w + j`` (matrix row ``R``,
    column ``j``), whose last word ``size`` is a scratch cell that
    absorbs the lanes an instruction masks off.  A scratch read returns
    garbage the caller masks away; a scratch write lands outside every
    addressable word, so last-lane-wins resolution among the active
    lanes is exactly the scalar machine's.

    Only the physical layout depends on the draw.  ``shifts`` is the
    ``(T, w)`` shift batch: physical word ``R * w + c`` of trial ``t``
    holds logical word ``R * w + (c - shifts[t, R mod w]) mod w``.
    :attr:`store` and :meth:`trial` build those images on request for
    comparison against the scalar machine.
    """

    def __init__(
        self,
        w: int,
        size: int,
        shifts: np.ndarray,
        dtype: "npt.DTypeLike" = np.float64,
        fill: float = 0,
    ) -> None:
        self.w = check_positive_int(w, "w")
        self.size = check_positive_int(size, "size")
        if size % w:
            raise ValueError(f"size {size} is not a whole number of {w}-word rows")
        shifts = np.ascontiguousarray(shifts, dtype=np.int64)
        if shifts.ndim != 2 or shifts.shape[0] < 1 or shifts.shape[1] != w:
            raise ValueError(f"shifts must be (trials, {w}), got {shifts.shape}")
        self.shifts = shifts
        self._store = np.full(size + 1, fill, dtype=dtype)

    @property
    def trials(self) -> int:
        """Number of draws ``T``."""
        return int(self.shifts.shape[0])

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the backing store."""
        return self._store.dtype

    @property
    def store(self) -> np.ndarray:
        """The ``(trials, size)`` physical images (a fresh array)."""
        return self._physical(self.shifts)

    def trial(self, t: int) -> np.ndarray:
        """Trial ``t``'s physical memory image, shape ``(size,)``."""
        return self._physical(self.shifts[t : t + 1])[0]

    def _physical(self, shifts: np.ndarray) -> np.ndarray:
        w = self.w
        rows = self.size // w
        # cols[t, i, c]: logical column found at physical column c of a
        # row congruent to i mod w under draw t.
        cols = (np.arange(w, dtype=np.int64) - shifts[:, :, None]) % w
        cols = cols[:, np.arange(rows) % w, :]
        grid = self._store[: self.size].reshape(rows, w)
        return grid[np.arange(rows)[:, None], cols].reshape(shifts.shape[0], -1)

    def read_flat(self, indices: np.ndarray) -> np.ndarray:
        """Gather logical words; index ``size`` (or ``-1``) is the scratch cell."""
        return self._store[indices]

    def write_flat(self, indices: np.ndarray, values: "npt.ArrayLike") -> None:
        """Scatter logical words; duplicates resolve last-lane-wins."""
        self._store[indices] = values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedMemory(w={self.w}, size={self.size}, "
            f"trials={self.trials}, dtype={self._store.dtype})"
        )
