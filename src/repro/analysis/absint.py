"""Abstract-interpretation congestion analyzer — sound bounds past affine.

The symbolic prover (:mod:`repro.analysis.prover`) closes a step only
when its index grids are *exactly affine*; everything else — sort's
compare-exchange phases, histogram bins, gather/spmv indices — falls
back to per-width enumeration.  This module adds the sound middle
tier: a whole-program abstract interpreter whose elements over-
approximate a warp's address set, precise enough to carry the paper's
coset arguments through *non*-affine accesses.

Two abstractions, reduced against each other:

**interval x congruence** (:class:`IntCong`)
    A set of integers is abstracted as the arithmetic progression
    ``{lo, lo + stride, ..., hi}`` — interval bounds plus a stride
    (congruence class) — with an exactness bit recording whether the
    concretization *equals* the abstracted set.  Transfer functions
    cover the KernelStep arithmetic the apps use (shifts by constants,
    joins across lanes, reduction modulo the bank count), and
    :func:`ap_bank_bound` turns one element into a sound per-warp
    congestion bound under any affine-bank mapping: an ``n``-term
    progression of stride ``s`` puts at most ``ceil(n / (w / gcd(s,
    w)))`` distinct addresses in one bank — exact when the element is.

**per-warp coset structure** (:class:`WarpAbstract`)
    For shifted-row mappings (``bank = col + shift[row] mod w``) the
    productive abstraction is per *matrix row*: a warp whose merged
    column set in every touched row is a full coset ``c_r + k*Z_w`` of
    one subgroup ``k*Z_w`` (``k | w``) has, under **any** shift draw
    ``s``, per-bank load ``#{r : c_r + s[r] ≡ b (mod k)}`` — row ``r``
    covers bank ``b`` exactly when ``b`` lies in its rotated coset,
    once.  Its congestion is therefore the **max multiplicity of the
    residue multiset** ``{(c_r + s[r]) mod k}`` over the touched rows:
    an exact closed form in the draw, evaluated in ``O(rows)`` per
    warp with no address replay (:class:`CosetRecipe`), and bounded
    for a whole family without fixing the draw (:func:`step_bound`):

    * any shifted-row draw: congestion <= number of touched rows;
    * RAP additionally: summing ``min(rows in offset class, w/k)``
      over the offset classes mod ``k`` — a permutation puts exactly
      ``w/k`` shift values in each residue class mod ``k`` (the
      coset-counting refinement of Theorem 1's injectivity argument).

    Row-local warps (one touched row) are the ``k = w`` degenerate
    case with a single coset — congestion exactly 1, any draw, the
    same fact the plan compiler already used; the coset form is its
    strict generalization to diagonal-type and masked multi-row warps.

The bounds are **parametric in w** where the access is: a pattern
given as a width-generic affine template (:data:`~repro.analysis.affine.AFFINE_PATTERNS`)
yields a :class:`ForAllWCertificate` valid for *every* ``w >= w0``
with a closed congestion form (constant, or ``w`` itself), each
``"worst"``-kind certificate carrying a witness draw that attains its
supremum — certificates ``repro certify``/``repro prove`` can emit
instead of per-w enumerations, validated against enumeration at
sampled widths in ``tests/test_absint.py``.

Consumers: :mod:`repro.analysis.certificates` (exact
``method="absint"`` tier between ``symbolic`` and ``enumerate``),
:mod:`repro.analysis.plan` (closed steps become statically resolved
with a :class:`CosetRecipe` the executor evaluates from the shift
vectors alone), and :mod:`repro.analysis.verify` (OOB/WIDTH findings
proved for all widths via the interval domain).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.analysis.affine import AFFINE_PATTERNS
from repro.analysis.prover import METHOD_ABSINT
from repro.core.congestion import max_run_lengths

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.ir import ProgramIR
    from repro.dmm.trace import MemoryProgram
    from repro.gpu.kernel import KernelStep, SharedMemoryKernel

__all__ = [
    "METHOD_ABSINT",
    "ABSINT_FAMILIES",
    "IntCong",
    "ap_bank_bound",
    "WarpAbstract",
    "StepAbstract",
    "CosetGroup",
    "CosetRecipe",
    "abstract_step",
    "step_recipe",
    "step_bound",
    "interpret_kernel",
    "InstructionAbstract",
    "ProgramAbstract",
    "interpret_program",
    "ForAllWCertificate",
    "prove_pattern_forall_w",
    "forall_w_matrix",
    "WidthGenericProof",
    "prove_width_generic",
]

#: shifted-row families the coset bounds quantify over.
ABSINT_FAMILIES = ("RAW", "RAS", "RAP")


# ---------------------------------------------------------------------------
# interval x congruence domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntCong:
    """Reduced interval x congruence element: ``{lo, lo+stride, ..., hi}``.

    Attributes
    ----------
    lo, hi:
        Inclusive interval bounds (``lo <= hi``).
    stride:
        Congruence step; every concrete value is ``lo + k*stride``.
        ``0`` denotes the singleton ``{lo}`` (then ``hi == lo``).
    exact:
        True when the concretization *equals* the abstracted concrete
        set — the reduced product lost nothing, so bounds derived from
        this element are exact values, not over-approximations.
    """

    lo: int
    hi: int
    stride: int
    exact: bool = True

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.stride < 0:
            raise ValueError(f"stride must be >= 0, got {self.stride}")
        if self.stride == 0 and self.lo != self.hi:
            raise ValueError("stride 0 requires a singleton interval")
        if self.stride and (self.hi - self.lo) % self.stride:
            object.__setattr__(
                self,
                "hi",
                self.lo + ((self.hi - self.lo) // self.stride) * self.stride,
            )

    @classmethod
    def abstract(cls, values: np.ndarray) -> "IntCong":
        """The best element covering a concrete set of integers."""
        vals = np.unique(np.asarray(values, dtype=np.int64).ravel())
        if vals.size == 0:
            raise ValueError("cannot abstract an empty value set")
        lo, hi = int(vals[0]), int(vals[-1])
        if vals.size == 1:
            return cls(lo, hi, 0, True)
        stride = int(np.gcd.reduce(np.diff(vals)))
        exact = vals.size == (hi - lo) // stride + 1
        return cls(lo, hi, stride, exact)

    @property
    def size(self) -> int:
        """Number of values in the concretization."""
        if self.stride == 0:
            return 1
        return (self.hi - self.lo) // self.stride + 1

    def values(self) -> np.ndarray:
        """The concretization, materialized (tests / small elements)."""
        if self.stride == 0:
            return np.array([self.lo], dtype=np.int64)
        return np.arange(self.lo, self.hi + 1, self.stride, dtype=np.int64)

    def contains(self, value: int) -> bool:
        if value < self.lo or value > self.hi:
            return False
        if self.stride == 0:
            return value == self.lo
        return (value - self.lo) % self.stride == 0

    # -- transfer functions --------------------------------------------
    def add_const(self, c: int) -> "IntCong":
        """Translate by a constant (exactness-preserving)."""
        return IntCong(self.lo + c, self.hi + c, self.stride, self.exact)

    def scale(self, c: int) -> "IntCong":
        """Multiply every value by a constant (negative flips bounds)."""
        if c == 0:
            return IntCong(0, 0, 0, self.exact)
        if c < 0:
            return IntCong(
                self.hi * c, self.lo * c, self.stride * -c, self.exact
            )
        return IntCong(self.lo * c, self.hi * c, self.stride * c, self.exact)

    def join(self, other: "IntCong") -> "IntCong":
        """Least upper bound; exact only when nothing widens."""
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        stride = gcd(
            gcd(self.stride, other.stride), abs(other.lo - self.lo)
        )
        if stride == 0 and lo != hi:  # disjoint singletons of equal value
            stride = hi - lo
        out = IntCong(lo, hi, stride, False)
        exact = (
            self.exact
            and other.exact
            and out.size
            == np.union1d(self.values(), other.values()).size
            if out.size <= self.size + other.size
            else False
        )
        return IntCong(out.lo, out.hi, out.stride, bool(exact))

    def add(self, other: "IntCong") -> "IntCong":
        """Minkowski sum (sound; exact only against singletons)."""
        if other.stride == 0:
            return self.add_const(other.lo)
        if self.stride == 0:
            return other.add_const(self.lo)
        return IntCong(
            self.lo + other.lo,
            self.hi + other.hi,
            gcd(self.stride, other.stride),
            False,
        )

    def mod(self, m: int) -> "IntCong":
        """Residues modulo ``m`` (sound; exact when the AP wraps fully)."""
        if m <= 0:
            raise ValueError(f"modulus must be positive, got {m}")
        if self.hi - self.lo < m and self.lo % m <= self.hi % m:
            # No wrap-around: the progression translates into [0, m).
            return IntCong(self.lo % m, self.hi % m, self.stride, self.exact)
        g = gcd(self.stride, m)
        period = m // g
        lo = self.lo % g if g else self.lo % m
        covers = self.exact and self.size >= period
        if g == 0:
            return IntCong(self.lo % m, self.lo % m, 0, True)
        return IntCong(lo, lo + (period - 1) * g, g, covers)

    def describe(self) -> str:
        tag = "exact" if self.exact else "over-approx"
        if self.stride == 0:
            return f"{{{self.lo}}} ({tag})"
        return f"{{{self.lo}..{self.hi} step {self.stride}}} ({tag})"


def ap_bank_bound(n: int, stride: int, w: int) -> int:
    """Max per-bank distinct-address count of an ``n``-term progression.

    The banks of ``lo + i*stride`` cycle in ``i`` with period
    ``w / gcd(stride, w)``, so no bank collects more than
    ``ceil(n / period)`` distinct addresses — exact for a full
    progression, an upper bound for any subset of one.
    """
    if n <= 0:
        return 0
    if n == 1 or stride == 0:
        return 1
    period = w // gcd(stride, w)
    return -(-n // period)


# ---------------------------------------------------------------------------
# per-warp coset abstraction of kernel steps
# ---------------------------------------------------------------------------

KIND_EMPTY = "empty"
KIND_ROW_LOCAL = "row-local"
KIND_COSET = "coset"
KIND_TOP = "top"

#: warp kinds, indexed by the codes :attr:`StepAbstract.kind` holds.
KIND_NAMES = (KIND_EMPTY, KIND_ROW_LOCAL, KIND_COSET, KIND_TOP)
_EMPTY, _ROW_LOCAL, _COSET, _TOP = range(len(KIND_NAMES))


@dataclass(frozen=True, eq=False)
class WarpAbstract:
    """One warp's merged access set, abstracted for shifted-row bounds.

    Attributes
    ----------
    warp:
        Warp index within the step.
    kind:
        ``"empty"`` (no active lane), ``"row-local"`` (one touched
        row: congestion exactly 1 under any draw), ``"coset"`` (every
        touched row's column set is a full coset of one subgroup
        ``k*Z_w``: congestion is the residue-multiset closed form), or
        ``"top"`` (no structure: structural bounds only).
    n_rows, n_cols, n_addrs:
        Distinct rows, distinct columns, and merged (distinct) access
        count — the structural counts the ``top`` bounds use.
    k:
        Coset warps: the common column stride (``k | w``; ``k == w``
        means one column per row).
    rows, offsets:
        Coset warps: the touched rows and each row's coset offset
        ``c_r mod k``, aligned.
    """

    warp: int
    kind: str
    n_rows: int
    n_cols: int
    n_addrs: int
    k: int = 0
    rows: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class StepAbstract:
    """Abstract state of one kernel step, held column-wise over warps.

    Attributes
    ----------
    step, op, array, w:
        Which step (``-1`` when unnumbered) at which warp width.
    kind:
        ``(n_warps,)`` codes into :data:`KIND_NAMES` — the warp kinds
        of :class:`WarpAbstract`.
    n_rows, n_cols, n_addrs:
        ``(n_warps,)`` distinct rows, distinct columns and merged
        access counts.
    k:
        ``(n_warps,)`` common column stride of coset warps, 0 elsewhere.
    coset_rows, coset_offsets:
        Touched rows and their coset offsets ``c_r mod k`` of every
        coset warp, concatenated in warp order (CSR values).
    coset_bounds:
        ``(n_warps + 1,)`` CSR bounds: warp ``i`` owns
        ``coset_rows[coset_bounds[i]:coset_bounds[i + 1]]``, an empty
        slice unless it is a coset warp.
    """

    step: int
    op: str
    array: str
    w: int
    kind: np.ndarray
    n_rows: np.ndarray
    n_cols: np.ndarray
    n_addrs: np.ndarray
    k: np.ndarray
    coset_rows: np.ndarray
    coset_offsets: np.ndarray
    coset_bounds: np.ndarray

    @property
    def n_warps(self) -> int:
        return int(self.kind.size)

    @property
    def closed(self) -> bool:
        """True when every warp has an exact closed form (no ``top``)."""
        return not bool(np.any(self.kind == _TOP))

    @property
    def coset_warps(self) -> int:
        return int(np.count_nonzero(self.kind == _COSET))

    @cached_property
    def warps(self) -> tuple[WarpAbstract, ...]:
        """One :class:`WarpAbstract` per warp, built on first access."""
        out = []
        for wi in range(self.n_warps):
            code = int(self.kind[wi])
            rows: Optional[np.ndarray] = None
            offsets: Optional[np.ndarray] = None
            if code == _COSET:
                lo = int(self.coset_bounds[wi])
                hi = int(self.coset_bounds[wi + 1])
                rows = self.coset_rows[lo:hi]
                offsets = self.coset_offsets[lo:hi]
            out.append(
                WarpAbstract(
                    wi,
                    KIND_NAMES[code],
                    int(self.n_rows[wi]),
                    int(self.n_cols[wi]),
                    int(self.n_addrs[wi]),
                    k=int(self.k[wi]),
                    rows=rows,
                    offsets=offsets,
                )
            )
        return tuple(out)

    def describe(self) -> str:
        counts = np.bincount(self.kind, minlength=len(KIND_NAMES))
        kinds = {KIND_NAMES[c]: int(n) for c, n in enumerate(counts) if n}
        body = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        return f"step {self.step} ({self.op} {self.array}): {body}"


def abstract_step(step: "KernelStep", w: int, index: int = -1) -> StepAbstract:
    """Abstract one kernel step, all warps in one columnar pass.

    The concrete per-warp access set (active lanes, CRCW-merged) is
    classified as ``empty`` / ``row-local`` / ``coset`` / ``top`` —
    see :class:`WarpAbstract`.  Pure structure: no mapping, no draw.

    One sort per step does the work of a per-warp ``unique``: each
    warp's ``row*w + col`` keys are sorted along the lane axis, with
    inactive lanes keyed past every real address, so first occurrences
    are the merged address set, grouped by warp, then row, then
    column.  A warp is a coset warp when it touches several rows and
    every row's sorted columns step by one stride ``k_r`` with
    ``k_r * size == w`` (a full coset of ``k_r*Z_w``; one column is
    the ``k_r = w`` coset), the same ``k_r`` in every row.
    """
    sentinel = w * w
    keys = step.ii.reshape(-1, w) * w + step.jj.reshape(-1, w)
    n_warps = keys.shape[0]
    if step.mask is not None:
        np.putmask(keys, ~step.mask.reshape(n_warps, w), sentinel)
    keys.sort(axis=1)
    first = np.empty(keys.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=first[:, 1:])
    first &= keys != sentinel
    n_addrs = np.count_nonzero(first, axis=1)
    warp = np.repeat(np.arange(n_warps, dtype=np.int64), n_addrs)
    merged = keys[first]
    rows = merged // w
    cols = merged - rows * w
    seen = np.zeros(n_warps * w, dtype=bool)
    seen[warp * w + cols] = True
    n_cols = np.count_nonzero(seen.reshape(n_warps, w), axis=1)

    # (warp, row) groups are runs of the merged order.
    n = merged.size
    new_group = np.ones(n, dtype=bool)
    group_key = warp * w + rows
    np.not_equal(group_key[1:], group_key[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    sizes = np.diff(starts, append=n)
    group_warp = warp[starts]
    n_rows = np.bincount(group_warp, minlength=n_warps)

    # Per-group stride: the gap between its first two columns (``w``
    # for a single column); the group is a full coset when every gap
    # equals it and ``stride * size == w``.
    first_cols = cols[starts]
    strides = np.full(starts.size, w, dtype=np.int64)
    multi = sizes > 1
    strides[multi] = cols[starts[multi] + 1] - first_cols[multi]
    off_stride = np.zeros(n, dtype=bool)
    np.not_equal(
        np.diff(cols), np.repeat(strides, sizes)[1:], out=off_stride[1:]
    )
    off_stride &= ~new_group
    group_ok = ~np.logical_or.reduceat(off_stride, starts) & (
        strides * sizes == w
    )

    # Per-warp verdicts: a warp's groups are contiguous.
    active = np.flatnonzero(n_rows)
    kind = np.full(n_warps, _EMPTY, dtype=np.int64)
    k = np.zeros(n_warps, dtype=np.int64)
    if active.size:
        firsts = np.flatnonzero(np.diff(group_warp, prepend=-1))
        k_min = np.minimum.reduceat(strides, firsts)
        coset = (
            np.logical_and.reduceat(group_ok, firsts)
            & (k_min == np.maximum.reduceat(strides, firsts))
        )
        multi_row = n_rows[active] > 1
        kind[active] = np.where(
            multi_row, np.where(coset, _COSET, _TOP), _ROW_LOCAL
        )
        is_coset = multi_row & coset
        k[active[is_coset]] = k_min[is_coset]
    in_coset = kind[group_warp] == _COSET
    coset_bounds = np.zeros(n_warps + 1, dtype=np.int64)
    np.cumsum(np.where(kind == _COSET, n_rows, 0), out=coset_bounds[1:])
    return StepAbstract(
        step=index,
        op=step.op,
        array=step.array,
        w=w,
        kind=kind,
        n_rows=n_rows,
        n_cols=n_cols,
        n_addrs=n_addrs,
        k=k,
        coset_rows=rows[starts[in_coset]],
        coset_offsets=first_cols[in_coset] % strides[in_coset],
        coset_bounds=coset_bounds,
    )


# ---------------------------------------------------------------------------
# exact evaluation: congestion as a closed form of the draw
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CosetGroup:
    """Coset warps sharing ``(k, rows-per-warp)`` — one vector op each.

    Attributes
    ----------
    k:
        Common column stride of every warp in the group.
    warps:
        ``(n,)`` warp indices within the step.
    rows, offsets:
        ``(n, m)`` touched rows and coset offsets, row-aligned.
    """

    k: int
    warps: np.ndarray
    rows: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, eq=False)
class CosetRecipe:
    """A closed step's congestion as a program over the shift draws.

    ``congestions(shifts)`` returns the **exact** per-trial per-warp
    congestion matrix the cycle-accurate machine would count — warp by
    warp, draw by draw — without ever materializing an address:
    row-local and empty warps contribute their draw-independent
    constants (``base``), and each coset group evaluates the
    residue-multiset closed form ``max multiplicity of
    (offset_r + shifts[rows_r]) mod k`` with one sort per group.
    """

    w: int
    n_warps: int
    base: np.ndarray
    groups: tuple[CosetGroup, ...]

    def congestions(self, shifts: np.ndarray) -> np.ndarray:
        """Exact ``(trials, n_warps)`` congestion under each draw."""
        shifts = np.asarray(shifts, dtype=np.int64)
        trials = shifts.shape[0]
        cong = np.empty((trials, self.n_warps), dtype=np.int64)
        cong[:] = self.base
        for group in self.groups:
            n, m = group.rows.shape
            residues = (group.offsets[None, :, :] + shifts[:, group.rows]) % group.k
            srt = np.sort(residues, axis=2)
            cong[:, group.warps] = max_run_lengths(
                srt.reshape(trials * n, m)
            ).reshape(trials, n)
        return cong


def step_recipe(abstract: StepAbstract) -> Optional[CosetRecipe]:
    """Compile a closed step abstraction into a :class:`CosetRecipe`.

    Returns ``None`` when any warp is ``top`` (the step stays
    residual: its congestion is not a closed form of the draw).
    """
    if not abstract.closed:
        return None
    base = (abstract.kind == _ROW_LOCAL).astype(np.int64)
    coset = np.flatnonzero(abstract.kind == _COSET)
    ks = abstract.k[coset]
    ms = abstract.n_rows[coset]
    groups = []
    for k, m in sorted(set(zip(ks.tolist(), ms.tolist()))):
        members = coset[(ks == k) & (ms == m)]
        flat = abstract.coset_bounds[members][:, None] + np.arange(m)
        groups.append(
            CosetGroup(
                k=k,
                warps=members,
                rows=abstract.coset_rows[flat],
                offsets=abstract.coset_offsets[flat],
            )
        )
    return CosetRecipe(
        w=abstract.w,
        n_warps=abstract.n_warps,
        base=base,
        groups=tuple(groups),
    )


# ---------------------------------------------------------------------------
# family-level sound bounds (no draw fixed)
# ---------------------------------------------------------------------------


def _warp_family_bounds(abstract: StepAbstract, family: str) -> np.ndarray:
    """Sound ``(n_warps,)`` congestion bounds over all draws of a family.

    Distinct columns of one row occupy distinct banks, so no bank sees
    more than one request per touched row: ``n_rows`` bounds every
    warp under any draw (0 for empty, 1 for row-local warps), and is
    the whole RAS bound — all touched rows can share a residue.
    """
    bounds = abstract.n_rows.copy()
    if family != "RAP":
        return bounds
    # top: under RAP each (bank, column) pair is hit by at most one
    # row, so the column count bounds too.
    top = abstract.kind == _TOP
    bounds[top] = np.minimum(bounds[top], abstract.n_cols[top])
    # coset: a permutation puts exactly w/k shift values in each
    # residue class mod k; rows in one offset class land in one bank
    # class apiece, so no bank collects more than min(class size, w/k)
    # from each offset class.
    w = abstract.w
    owner = np.repeat(
        np.arange(abstract.n_warps), np.diff(abstract.coset_bounds)
    )
    classes, sizes = np.unique(
        owner * w + abstract.coset_offsets, return_counts=True
    )
    class_warp = classes // w
    per_warp = np.zeros(abstract.n_warps, dtype=np.int64)
    np.add.at(
        per_warp, class_warp, np.minimum(sizes, w // abstract.k[class_warp])
    )
    coset = abstract.kind == _COSET
    bounds[coset] = np.minimum(bounds[coset], per_warp[coset])
    return bounds


def step_bound(abstract: StepAbstract, family: str) -> tuple[int, str]:
    """Sound worst-warp congestion bound for a whole mapping family.

    Holds for **every** draw of ``family`` (RAW's zero draw is a RAS
    member, so its bound is the RAS bound).  Exact per-draw values come
    from :func:`step_recipe`; this is the no-draw quantified form.
    """
    if family not in ABSINT_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {ABSINT_FAMILIES}"
        )
    fam = "RAS" if family == "RAW" else family
    bound = int(_warp_family_bounds(abstract, fam).max(initial=0))
    shape = "closed (coset/row-local)" if abstract.closed else "structural"
    argument = (
        f"abstract interpretation over {abstract.n_warps} warp(s) "
        f"({shape} abstraction): per-bank load <= {bound} for every "
        f"{family} draw"
    )
    if abstract.coset_warps and fam == "RAP":
        argument += (
            " — a permutation puts exactly w/k shifts in each residue "
            "class mod k (coset counting through sigma)"
        )
    return bound, argument


def interpret_kernel(
    kernel: "SharedMemoryKernel", family: str = "RAP"
) -> list[tuple[StepAbstract, int]]:
    """Abstract every step of a kernel; per-step family bounds.

    Returns ``[(abstraction, sound_bound), ...]`` in program order —
    the whole-kernel abstract interpretation the plan/certificate
    tiers consume piecewise.
    """
    out = []
    for idx, step in enumerate(kernel.steps):
        abstract = abstract_step(step, kernel.w, index=idx)
        out.append((abstract, step_bound(abstract, family)[0]))
    return out


# ---------------------------------------------------------------------------
# program-level interpretation (compiled programs, flat addresses)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InstructionAbstract:
    """Interval x congruence facts of one compiled instruction.

    Attributes
    ----------
    step, op:
        Which instruction.
    element:
        Join of the per-warp address elements (the instruction's
        abstract address set).
    warp_bounds:
        ``(n_warps,)`` sound per-warp congestion bounds from
        :func:`ap_bank_bound` (0 for undispatched warps).
    exact:
        True when every dispatched warp's element was exact — the
        bounds are then the true congestions.
    dead:
        Dataflow verdict from the IR (False when no IR was supplied):
        a dead instruction's bound does not constrain observable
        timing of the eliminated program.
    """

    step: int
    op: str
    element: Optional[IntCong]
    warp_bounds: np.ndarray
    exact: bool
    dead: bool

    @property
    def bound(self) -> int:
        return int(self.warp_bounds.max(initial=0))

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "op": self.op,
            "element": None if self.element is None else self.element.describe(),
            "bound": self.bound,
            "total_bound": int(self.warp_bounds.sum()),
            "exact": self.exact,
            "dead": self.dead,
        }


@dataclass(frozen=True, eq=False)
class ProgramAbstract:
    """Whole-program abstract interpretation result."""

    p: int
    w: int
    steps: tuple[InstructionAbstract, ...]

    @property
    def worst_bound(self) -> int:
        return max((s.bound for s in self.steps), default=0)

    @property
    def live_worst_bound(self) -> int:
        """Worst bound over IR-live instructions only."""
        return max((s.bound for s in self.steps if not s.dead), default=0)

    @property
    def exact_steps(self) -> int:
        return sum(s.exact for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "w": self.w,
            "worst_bound": self.worst_bound,
            "live_worst_bound": self.live_worst_bound,
            "exact_steps": self.exact_steps,
            "steps": [s.to_dict() for s in self.steps],
        }

    def render(self) -> str:
        lines = [
            f"abstract interpretation: p={self.p}, w={self.w}, "
            f"worst bound {self.worst_bound} "
            f"(live {self.live_worst_bound}), "
            f"{self.exact_steps}/{len(self.steps)} step(s) exact"
        ]
        for s in self.steps:
            elem = "-" if s.element is None else s.element.describe()
            dead = "  DEAD" if s.dead else ""
            lines.append(
                f"  {s.step:3d}: {s.op:5s} bound={s.bound:<3d} "
                f"addrs={elem}{dead}"
            )
        return "\n".join(lines)


def interpret_program(
    program: "MemoryProgram", w: int, ir: Optional["ProgramIR"] = None
) -> ProgramAbstract:
    """Abstractly interpret a compiled program's address stream.

    Each instruction's active (merged) addresses per warp are
    abstracted into an :class:`IntCong` element and pushed through
    :func:`ap_bank_bound`; dataflow verdicts transfer from the IR's
    def-use chains when one is supplied, so callers can bound the
    *eliminated* program (``live_worst_bound``) without re-running
    liveness.
    """
    if program.p % w != 0:
        raise ValueError(
            f"program p={program.p} is not a multiple of warp width {w}"
        )
    if ir is not None and len(ir.nodes) != len(program):
        raise ValueError(
            f"IR has {len(ir.nodes)} nodes, program has {len(program)} "
            "instructions"
        )
    n_warps = program.p // w
    steps = []
    for idx, instr in enumerate(program):
        bounds = np.zeros(n_warps, dtype=np.int64)
        element: Optional[IntCong] = None
        exact = True
        rows = instr.addresses.reshape(n_warps, w)
        masks = instr.active_mask.reshape(n_warps, w)
        for wi in range(n_warps):
            addrs = rows[wi][masks[wi]]
            if addrs.size == 0:
                continue
            el = IntCong.abstract(addrs)
            bounds[wi] = min(
                int(np.unique(addrs).size),
                ap_bank_bound(el.size, el.stride, w),
            )
            exact = exact and el.exact
            element = el if element is None else element.join(el)
        steps.append(
            InstructionAbstract(
                step=idx,
                op=instr.op,
                element=element,
                warp_bounds=bounds,
                exact=bool(exact and element is not None),
                dead=bool(ir.nodes[idx].dead) if ir is not None else False,
            )
        )
    return ProgramAbstract(p=program.p, w=w, steps=tuple(steps))


# ---------------------------------------------------------------------------
# for-all-w certificates from width-generic affine templates
# ---------------------------------------------------------------------------

KIND_EXACT = "exact"
KIND_WORST = "worst"

FORM_CONST = "const"
FORM_W = "w"


@dataclass(frozen=True)
class ForAllWCertificate:
    """A congestion fact valid for **every** width ``w >= w0``.

    Attributes
    ----------
    pattern, family:
        The width-generic affine template and the mapping family.
    w0:
        Smallest width the claim covers.
    kind:
        ``"exact"``: every draw of the family at every ``w >= w0``
        has worst congestion :meth:`congestion_at`.  ``"worst"``: the
        supremum over draws equals :meth:`congestion_at` — every draw
        is <= it, and :meth:`witness_shifts` constructs a draw that
        attains it.
    form, value:
        The closed form: ``"const"`` (the value itself) or ``"w"``
        (the width).
    rj, cj:
        The template's lane coefficients (``-1`` kept symbolic), from
        which the witness draw is built.
    argument:
        The proof sketch, parametric in ``w``.
    """

    pattern: str
    family: str
    w0: int
    kind: str
    form: str
    value: int
    rj: int
    cj: int
    argument: str

    def congestion_at(self, w: int) -> int:
        """The certified congestion (exact or supremum) at width ``w``."""
        if w < self.w0:
            raise ValueError(f"certificate holds for w >= {self.w0}, got {w}")
        return w if self.form == FORM_W else self.value

    def witness_shifts(self, w: int) -> Optional[np.ndarray]:
        """A draw attaining a ``"worst"`` certificate's supremum.

        The extremal draw is affine in the row, ``s_r = alpha * r mod
        w`` with ``alpha = -cj * rj`` — a valid member of the family
        (a permutation whenever ``|cj| = 1``, the constant vector when
        ``cj = 0``).  ``None`` for exact certificates (every draw
        already attains the value).
        """
        if self.kind != KIND_WORST:
            return None
        alpha = (-self.cj * self.rj) % w
        return (alpha * np.arange(w, dtype=np.int64)) % w

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "family": self.family,
            "w0": self.w0,
            "kind": self.kind,
            "form": self.form,
            "value": self.value,
            "argument": self.argument,
        }

    def render(self) -> str:
        closed = "w" if self.form == FORM_W else str(self.value)
        head = (
            f"{self.pattern} under {self.family}: congestion "
            f"{'= ' if self.kind == KIND_EXACT else '<= '}{closed} for all "
            f"w >= {self.w0} [{self.kind}]"
        )
        return f"{head}\n  {self.argument}"


def _coeff_class(c: int) -> int:
    """Width-generic class of a template coefficient (0, 1, or -1)."""
    if c not in (-1, 0, 1):
        raise ValueError(
            f"template coefficient {c} is not width-generic (use -1/0/1)"
        )
    return c


def prove_pattern_forall_w(
    pattern: str, family: str, w0: int = 2
) -> ForAllWCertificate:
    """Prove a named affine pattern's congestion for **all** ``w >= w0``.

    The pattern's :data:`~repro.analysis.affine.AFFINE_PATTERNS`
    template has width-independent coefficients, so the prover's gcd /
    coset arithmetic runs symbolically in ``w``: each (pattern,
    family) cell closes either exactly (the same congestion at every
    width under every draw) or as an attained supremum over the
    family's draws.  Validated against per-width enumeration at
    sampled widths in ``tests/test_absint.py``.
    """
    coeffs = AFFINE_PATTERNS.get(pattern.lower())
    if coeffs is None:
        raise ValueError(
            f"pattern {pattern!r} has no width-generic affine template; "
            f"known: {', '.join(sorted(AFFINE_PATTERNS))}"
        )
    if family not in ABSINT_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {ABSINT_FAMILIES}"
        )
    if w0 < 2:
        raise ValueError(f"w0 must be >= 2, got {w0}")
    _ri, rj, _rc, _ci, cj, _cc = (_coeff_class(c) for c in coeffs)

    def cert(kind: str, form: str, value: int, argument: str) -> ForAllWCertificate:
        return ForAllWCertificate(
            pattern=pattern.lower(),
            family=family,
            w0=w0,
            kind=kind,
            form=form,
            value=value,
            rj=rj,
            cj=cj,
            argument=argument,
        )

    if family == "RAW":
        # bank = col: affine with slope cj; merged in groups of
        # gcd(rj, cj, w).
        if cj == 0 and rj == 0:
            return cert(
                KIND_EXACT,
                FORM_CONST,
                1,
                "all lanes of a warp request one element; the CRCW merge "
                "serves it as a single request at every width",
            )
        if cj == 0:
            return cert(
                KIND_EXACT,
                FORM_W,
                0,
                "bank(j) = const while the |rj| = 1 row form keeps all w "
                "addresses distinct: one bank serves w requests — "
                "congestion exactly w for every width",
            )
        return cert(
            KIND_EXACT,
            FORM_CONST,
            1,
            "bank(j) = cj*j + const with |cj| = 1 is a bijection of the "
            "lanes onto the banks at every width: congestion exactly 1",
        )

    # Shifted-row families (bank = col + shift[row] mod w).
    if rj == 0:
        return cert(
            KIND_EXACT,
            FORM_CONST,
            1,
            "each warp stays inside one row; a per-row rotation maps the "
            "row bijectively onto the banks at every width — congestion "
            "exactly 1 for any shift draw (RAS and RAP alike)",
        )
    if cj == 0:
        if family == "RAP":
            return cert(
                KIND_EXACT,
                FORM_CONST,
                1,
                "lanes merge to one request per row and |rj| = 1 makes the "
                "rows cover [0, w); banks are const + sigma(row) with "
                "sigma a permutation — injective at every width: "
                "congestion exactly 1 (Theorem 1, parametric in w)",
            )
        return cert(
            KIND_WORST,
            FORM_W,
            0,
            "lanes merge to one request per row over all w rows; banks "
            "are const + shift[row], and the constant draw (a valid RAS "
            "member at every width) sends every row to one bank: "
            "supremum w, attained; every draw is <= w trivially",
        )
    # |rj| = |cj| = 1: diagonal-type under a shifted-row family — the
    # affine witness s_r = (-cj*rj) * r mod w aligns every lane of one
    # warp onto a single bank and is itself a permutation.
    return cert(
        KIND_WORST,
        FORM_W,
        0,
        "banks are cj*j + shift[rj*j + const] over one warp; the affine "
        "draw s_r = (-cj*rj)*r mod w (a permutation, since |cj*rj| = 1) "
        "collapses them to one bank while the w addresses stay distinct: "
        "supremum w at every width, attained under "
        f"{family}; every draw is <= w trivially",
    )


def forall_w_matrix(w0: int = 2) -> list[ForAllWCertificate]:
    """The full pattern x family for-all-w certificate matrix."""
    return [
        prove_pattern_forall_w(pattern, family, w0)
        for pattern in sorted(AFFINE_PATTERNS)
        for family in ABSINT_FAMILIES
    ]


# ---------------------------------------------------------------------------
# width-generic sanitizer proofs (verify.py consumer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WidthGenericProof:
    """A sanitizer fact proved for all widths, not just the tested one.

    Attributes
    ----------
    code:
        The diagnostic class the proof discharges (``"OOB"`` or
        ``"WIDTH"``).
    proved:
        True when the claim holds for **every** width the kernel's
        step grids generalize to; False records the concrete obstacle.
    argument:
        The interval/congruence reasoning, parametric in ``w``.
    """

    code: str
    proved: bool
    argument: str

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "proved": self.proved,
            "argument": self.argument,
        }

    def render(self) -> str:
        status = "proved for all w" if self.proved else "NOT proved"
        return f"{self.code}: {status} — {self.argument}"


def prove_width_generic(kernel: "SharedMemoryKernel") -> tuple[WidthGenericProof, ...]:
    """Width-generic OOB/WIDTH proofs for a kernel.

    The sanitizer (:mod:`repro.analysis.verify`) checks the compiled
    program at one concrete width; these proofs quantify over widths
    using the interval domain: if every step's row/column elements lie
    in ``[0, w)`` (an interval fact the grids carry structurally),
    then under any shifted-row draw each address lands in its array's
    ``[base, base + w^2)`` block — at **every** width, because the
    argument never instantiates ``w``.
    """
    from repro.core.mappings import ShiftedRowMapping

    w = kernel.w
    proofs = []

    # WIDTH: p = w * w by construction.
    proofs.append(
        WidthGenericProof(
            code="WIDTH",
            proved=True,
            argument=(
                "the kernel dispatches p = w^2 threads over (w, w) step "
                "grids, and w^2 is a multiple of w for every width"
            ),
        )
    )

    # OOB: interval containment of every step's index elements.
    bad: Optional[str] = None
    for idx, step in enumerate(kernel.steps):
        live = step.mask if step.mask is not None else slice(None)
        for name, grid in (("row", step.ii), ("col", step.jj)):
            vals = grid[live]
            if vals.size == 0:
                continue
            el = IntCong.abstract(vals)
            if el.lo < 0 or el.hi >= w:
                bad = (
                    f"step {idx}: {name} element {el.describe()} escapes "
                    f"[0, {w})"
                )
                break
        if bad:
            break
    shifted = isinstance(kernel.mapping, ShiftedRowMapping)
    if bad is not None:
        proofs.append(WidthGenericProof(code="OOB", proved=False, argument=bad))
    elif shifted:
        proofs.append(
            WidthGenericProof(
                code="OOB",
                proved=True,
                argument=(
                    "every step's row/col intervals lie in [0, w), and a "
                    "shifted-row address r*w + (c + s_r mod w) then lies "
                    "in [0, w^2) for any draw — each array stays inside "
                    "its base block at every width"
                ),
            )
        )
    else:
        proofs.append(
            WidthGenericProof(
                code="OOB",
                proved=True,
                argument=(
                    "every step's row/col intervals lie in [0, w) and the "
                    "mapping sends [0, w) x [0, w) into [0, "
                    "storage_words) by contract — checked at the analyzed "
                    "width; the shifted-row families carry the claim to "
                    "all widths"
                ),
            )
        )
    return tuple(proofs)
