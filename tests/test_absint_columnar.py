"""Differential tests: the columnar coset interpreter against a per-warp one.

:func:`repro.analysis.absint.abstract_step` classifies every warp of a
step in one vectorised pass.  The reference below is the per-warp
formulation it replaced — one ``np.unique`` and one row-by-row coset
check per warp — kept here as the oracle.  Both must agree on every
field of every warp, and the recipes and family bounds compiled from
them must agree too.  A last test pins recipe exactness against
address enumeration at the benchmark's scale (w = 256).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.analysis.absint import (
    ABSINT_FAMILIES,
    KIND_COSET,
    KIND_EMPTY,
    KIND_ROW_LOCAL,
    KIND_TOP,
    CosetGroup,
    CosetRecipe,
    WarpAbstract,
    abstract_step,
    step_bound,
    step_recipe,
)
from repro.analysis.plan import compile_plan
from repro.analysis.prover import METHOD_ABSINT
from repro.apps import BUILTIN_PROGRAMS, build_app_program
from repro.core.congestion import congestion_batch
from repro.core.mappings import (
    RAWMapping,
    mapping_from_shifts,
    sample_shift_batch,
)
from repro.gpu.kernel import KernelStep
from repro.util.rng import as_generator

# ---------------------------------------------------------------------------
# the per-warp reference
# ---------------------------------------------------------------------------


def _reference_coset_structure(
    rows: np.ndarray, cols: np.ndarray, w: int
) -> Optional[tuple[int, np.ndarray, np.ndarray]]:
    """Factor a merged access set into per-row full cosets of ``k*Z_w``."""
    order = np.lexsort((cols, rows))
    r = rows[order]
    c = cols[order]
    starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
    ends = np.concatenate((starts[1:], [r.size]))
    k: Optional[int] = None
    out_rows = []
    out_offsets = []
    for s, e in zip(starts, ends):
        cs = c[s:e]
        if cs.size == 1:
            kr = w
        else:
            diffs = np.diff(cs)
            kr = int(diffs[0])
            if (diffs != kr).any() or kr * cs.size != w:
                return None
        if k is None:
            k = kr
        elif k != kr:
            return None
        out_rows.append(int(r[s]))
        out_offsets.append(int(cs[0]) % kr)
    assert k is not None
    return (
        k,
        np.array(out_rows, dtype=np.int64),
        np.array(out_offsets, dtype=np.int64),
    )


def _reference_warps(step: KernelStep, w: int) -> list[WarpAbstract]:
    """Abstract one kernel step warp by warp."""
    iif = step.ii.ravel()
    jjf = step.jj.ravel()
    maskf = None if step.mask is None else step.mask.ravel()
    warps = []
    for wi in range(iif.size // w):
        sl = slice(wi * w, (wi + 1) * w)
        rr, cc = iif[sl], jjf[sl]
        if maskf is not None:
            rr, cc = rr[maskf[sl]], cc[maskf[sl]]
        if rr.size == 0:
            warps.append(WarpAbstract(wi, KIND_EMPTY, 0, 0, 0))
            continue
        merged = np.unique(rr * w + cc)
        mr = merged // w
        mc = merged % w
        n_rows = int(np.unique(mr).size)
        n_cols = int(np.unique(mc).size)
        if n_rows == 1:
            warps.append(
                WarpAbstract(wi, KIND_ROW_LOCAL, 1, n_cols, int(merged.size))
            )
            continue
        coset = _reference_coset_structure(mr, mc, w)
        if coset is None:
            warps.append(
                WarpAbstract(wi, KIND_TOP, n_rows, n_cols, int(merged.size))
            )
            continue
        k, rows, offsets = coset
        warps.append(
            WarpAbstract(
                wi,
                KIND_COSET,
                n_rows,
                n_cols,
                int(merged.size),
                k=k,
                rows=rows,
                offsets=offsets,
            )
        )
    return warps


def _reference_recipe(warps: list[WarpAbstract], w: int) -> Optional[CosetRecipe]:
    if any(wa.kind == KIND_TOP for wa in warps):
        return None
    base = np.zeros(len(warps), dtype=np.int64)
    by_shape: dict[tuple[int, int], list[WarpAbstract]] = {}
    for wa in warps:
        if wa.kind == KIND_ROW_LOCAL:
            base[wa.warp] = 1
        elif wa.kind == KIND_COSET:
            assert wa.rows is not None
            by_shape.setdefault((wa.k, wa.rows.size), []).append(wa)
    groups = tuple(
        CosetGroup(
            k=k,
            warps=np.array([wa.warp for wa in members], dtype=np.int64),
            rows=np.stack([wa.rows for wa in members]),
            offsets=np.stack([wa.offsets for wa in members]),
        )
        for (k, _m), members in sorted(by_shape.items())
    )
    return CosetRecipe(w=w, n_warps=len(warps), base=base, groups=groups)


def _reference_warp_bound(wa: WarpAbstract, family: str, w: int) -> int:
    if wa.kind == KIND_EMPTY:
        return 0
    if wa.kind == KIND_ROW_LOCAL:
        return 1
    if wa.kind == KIND_COSET:
        assert wa.offsets is not None
        if family == "RAP":
            counts = np.bincount(wa.offsets % wa.k, minlength=1)
            return int(min(wa.n_rows, np.minimum(counts, w // wa.k).sum()))
        return wa.n_rows
    if family == "RAP":
        return min(wa.n_rows, wa.n_cols)
    return wa.n_rows


def _reference_bound(warps: list[WarpAbstract], family: str, w: int) -> int:
    fam = "RAS" if family == "RAW" else family
    return max((_reference_warp_bound(wa, fam, w) for wa in warps), default=0)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

WARP_SHAPES = (
    "coset",
    "partial-coset",
    "perturbed-coset",
    "mixed-k",
    "single-column",
    "row-local",
    "random",
)


def _coset_addresses(
    rng: np.random.Generator, w: int, k: int, n_rows: int
) -> list[tuple[int, int]]:
    """Full cosets of ``k*Z_w`` in ``n_rows`` distinct random rows."""
    out = []
    for row in rng.choice(w, size=n_rows, replace=False):
        offset = int(rng.integers(0, k))
        out.extend((int(row), offset + k * t) for t in range(w // k))
    return out


def _random_warp(
    rng: np.random.Generator, w: int, shape: str
) -> tuple[np.ndarray, np.ndarray]:
    """One warp's lanes of a given shape; spare lanes repeat addresses."""
    divisors = [k for k in range(1, w + 1) if w % k == 0]
    if shape in ("coset", "partial-coset"):
        k = int(rng.choice(divisors))
        addrs = _coset_addresses(rng, w, k, int(rng.integers(1, k + 1)))
        if shape == "partial-coset" and len(addrs) > 1:
            del addrs[int(rng.integers(0, len(addrs)))]
    elif shape == "perturbed-coset":
        # Full cosets of one k, except that the last row keeps the
        # size and first gap of a coset but has an irregular later
        # gap: only the every-gap check rejects it.
        ks = [d for d in divisors if d >= 2 and w // d >= 3] or [1]
        k = int(rng.choice(ks))
        addrs = _coset_addresses(rng, w, k, int(rng.integers(1, k + 1)))
        span = w // k  # >= 3
        row, second = addrs[-span + 1]
        taken = {c for _, c in addrs[-span:]}
        free = [c for c in range(second + 1, w) if c not in taken]
        if free:
            addrs[-1] = (row, int(rng.choice(free)))
    elif shape == "mixed-k":
        # Two rows, each a full coset, of different subgroups.
        k1, k2 = rng.choice(divisors[1:], size=2, replace=False)
        addrs = _coset_addresses(rng, w, int(k1), 1)
        used = addrs[0][0]
        other = _coset_addresses(rng, w, int(k2), 1)
        if other[0][0] == used:
            other = [((r + 1) % w, c) for r, c in other]
        addrs += other
    elif shape == "single-column":
        addrs = _coset_addresses(rng, w, w, int(rng.integers(1, w + 1)))
    elif shape == "row-local":
        row = int(rng.integers(0, w))
        addrs = [(row, int(c)) for c in rng.integers(0, w, size=w)]
    else:
        addrs = [
            (int(r), int(c)) for r, c in rng.integers(0, w, size=(w, 2))
        ]
    # CRCW duplicates: lanes past the distinct set re-request random
    # addresses already in it, in shuffled lane order.
    picks = np.concatenate(
        [
            np.arange(len(addrs)),
            rng.integers(0, len(addrs), size=w - len(addrs)),
        ]
    )
    rng.shuffle(picks)
    pairs = np.array(addrs, dtype=np.int64)[picks]
    return pairs[:, 0], pairs[:, 1]


def _random_mixed_step(rng: np.random.Generator, w: int) -> KernelStep:
    """Every warp of a random shape, with random and whole-warp masks."""
    rows = np.empty((w, w), dtype=np.int64)
    cols = np.empty((w, w), dtype=np.int64)
    for wi in range(w):
        shape = WARP_SHAPES[int(rng.integers(0, len(WARP_SHAPES)))]
        rows[wi], cols[wi] = _random_warp(rng, w, shape)
    mask = None
    draw = rng.random()
    if draw < 0.4:
        mask = np.ones((w, w), dtype=bool)
        mask[rng.random(w) < 0.3] = False  # fully masked warps
    elif draw < 0.7:
        mask = rng.random((w, w)) < 0.8
    return KernelStep("read", "buf", rows, cols, register="v", mask=mask)


# ---------------------------------------------------------------------------
# the differential check
# ---------------------------------------------------------------------------


def _assert_matches_reference(step: KernelStep, w: int) -> None:
    abstract = abstract_step(step, w)
    reference = _reference_warps(step, w)
    assert len(abstract.warps) == len(reference)
    for got, want in zip(abstract.warps, reference):
        assert (got.warp, got.kind, got.n_rows, got.n_cols, got.n_addrs) == (
            want.warp,
            want.kind,
            want.n_rows,
            want.n_cols,
            want.n_addrs,
        )
        assert got.k == want.k
        if want.rows is None:
            assert got.rows is None and got.offsets is None
        else:
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.offsets, want.offsets)
    assert abstract.closed == all(wa.kind != KIND_TOP for wa in reference)
    assert abstract.coset_warps == sum(wa.kind == KIND_COSET for wa in reference)
    kinds: dict[str, int] = {}
    for wa in reference:
        kinds[wa.kind] = kinds.get(wa.kind, 0) + 1
    body = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
    assert abstract.describe() == f"step -1 ({step.op} {step.array}): {body}"

    for family in ABSINT_FAMILIES:
        assert step_bound(abstract, family)[0] == _reference_bound(
            reference, family, w
        ), family

    recipe = step_recipe(abstract)
    want_recipe = _reference_recipe(reference, w)
    if want_recipe is None:
        assert recipe is None
        return
    assert recipe is not None
    assert len(recipe.groups) == len(want_recipe.groups)
    for g, h in zip(recipe.groups, want_recipe.groups):
        assert g.k == h.k
        assert np.array_equal(g.warps, h.warps)
        assert np.array_equal(g.rows, h.rows)
        assert np.array_equal(g.offsets, h.offsets)
    for family in ("RAS", "RAP"):
        shifts = sample_shift_batch(family, w, 4, as_generator(w * 7 + 1))
        assert np.array_equal(
            recipe.congestions(shifts), want_recipe.congestions(shifts)
        ), family


@pytest.mark.parametrize("w", (4, 8, 16))
@pytest.mark.parametrize("seed", range(60))
def test_random_steps_match_reference(seed, w):
    _assert_matches_reference(
        _random_mixed_step(as_generator(7000 + seed), w), w
    )


def test_fully_masked_step_is_all_empty():
    w = 8
    ii = np.zeros((w, w), dtype=np.int64)
    step = KernelStep(
        "read", "buf", ii, ii, register="v", mask=np.zeros((w, w), bool)
    )
    _assert_matches_reference(step, w)
    abstract = abstract_step(step, w)
    assert all(wa.kind == KIND_EMPTY for wa in abstract.warps)
    assert step_bound(abstract, "RAP")[0] == 0


@pytest.mark.parametrize("w", (8, 16, 32, 64))
@pytest.mark.parametrize("app", sorted(BUILTIN_PROGRAMS))
def test_builtin_steps_match_reference(app, w):
    kernel = build_app_program(app, RAWMapping(w), seed=2014)
    seen = set()
    for step in kernel.steps:
        # Abstraction depends on the index grids and mask alone, and
        # the apps repeat grids heavily (shearsort: 1664 steps, few
        # distinct grids at w = 64): check each distinct grid once.
        key = (
            step.ii.tobytes(),
            step.jj.tobytes(),
            None if step.mask is None else step.mask.tobytes(),
        )
        if key not in seen:
            seen.add(key)
            _assert_matches_reference(step, w)


# ---------------------------------------------------------------------------
# recipe exactness at the benchmark's scale
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", ("sort", "fft"))
def test_absint_recipes_exact_at_w256(app):
    w = 256
    kernel = build_app_program(app, RAWMapping(w), seed=2014)
    plan = compile_plan(kernel, "RAP", name=app)
    shifts = sample_shift_batch("RAP", w, 4, as_generator(256))
    absint_steps = [s for s in plan.steps if s.method == METHOD_ABSINT]
    assert absint_steps, f"{app} has no absint step at w={w}"
    for sp in absint_steps:
        assert sp.recipe is not None
        step = kernel.steps[sp.step]
        got = sp.recipe.congestions(shifts)
        for t, s in enumerate(shifts):
            addrs = mapping_from_shifts("RAP", s).address(step.ii, step.jj)
            if step.mask is None:
                want = congestion_batch(addrs, w)
            else:
                want = congestion_batch(
                    np.where(step.mask, addrs, -1), w, inactive=-1
                )
            assert np.array_equal(got[t], want), (app, sp.step, t)
