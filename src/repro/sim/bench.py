"""Scalar-vs-batched DMM throughput benchmark (``repro bench-dmm``).

Measures the end-to-end cost of answering *"what is this app's
completion-time distribution over ``trials`` mapping redraws?"* two
ways:

* **scalar** — the pre-batching workflow: per trial, materialize the
  drawn mapping, rebuild the app program against it, and run the
  scalar :class:`~repro.dmm.machine.DiscreteMemoryMachine`;
* **batched** — build the mapping-independent skeleton once, stage it
  with :meth:`~repro.gpu.kernel.SharedMemoryKernel.program_batch`, and
  execute every trial at once on the
  :class:`~repro.dmm.batched.BatchedDMM`.

Both paths consume the same pre-drawn shift matrices, and every
benchmark run re-asserts that they produce identical per-trial
``time_units`` — a throughput number for a wrong answer is worthless.
Wall times are **best-of-``repeats``** (the minimum, as ``timeit``
does): the minimum estimates the true cost of the code, while the
other repeats absorb scheduler noise.

Timing uses ``perf_counter`` only, and all randomness flows through
the seeded :func:`~repro.core.mappings.sample_shift_batch` draw, so
the measured *work* is deterministic; only the wall clock varies.

``--plan`` switches the comparison one level up: **plain batched**
(the baseline above) vs **plan-executed** — compile the skeleton once
with :func:`~repro.analysis.plan.compile_plan`, stage with the plan's
static verdicts and pooled address tables, and run
:meth:`~repro.dmm.batched.BatchedDMM.run`, which settles certified
steps' timing in closed form.  Compilation is inside the timed section
(it is part of the cost a caller pays), and both paths are still
verified to agree per trial before any number is reported.  ``--w``
accepts several widths (``BENCH_plan.json`` records w=32 and w=256).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.apps import BUILTIN_PROGRAMS, build_app_program
from repro.core.mappings import (
    MAPPING_NAMES,
    RAWMapping,
    mapping_from_shifts,
    sample_shift_batch,
)
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "DEFAULT_BENCH_APPS",
    "DEFAULT_PLAN_APPS",
    "BenchResult",
    "bench_app",
    "bench_plan_app",
    "render_bench",
    "main",
]

#: Apps benchmarked by default: the issue's throughput targets, spanning
#: the dynamic-heavy (fft, sort) and fully-static (stencil_row) regimes.
DEFAULT_BENCH_APPS = ("fft", "sort", "stencil_row")

#: Apps benchmarked by default under ``--plan``: the certificate-heavy
#: zoo schedules, whose stages the plan compiler resolves completely
#: under RAP.
DEFAULT_PLAN_APPS = ("shearsort", "cf_permute")


@dataclass(frozen=True)
class BenchResult:
    """One app's scalar-vs-batched timing at a fixed (w, trials).

    ``scalar_s`` / ``batched_s`` are best-of-``repeats`` wall seconds
    for the *whole* workload (all ``trials`` draws), including program
    construction — the scalar path rebuilds the program per trial and
    the batched path stages it once, because that is the real cost
    difference a caller experiences.

    Under ``mode="plan"`` the same two slots hold the comparison one
    level up: ``scalar_s`` is the plain batched path (the previous
    winner, now the baseline) and ``batched_s`` the plan-compiled
    path, with ``stage_coverage`` recording the fraction of dispatched
    warps the plan settled statically.
    """

    app: str
    w: int
    trials: int
    mapping: str
    latency: int
    steps: int
    repeats: int
    scalar_s: float
    batched_s: float
    mode: str = "batched"
    stage_coverage: float | None = None

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        for name in ("scalar_s", "batched_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"{name} must be a finite non-negative duration, got {value!r}"
                )

    @staticmethod
    def _rate(amount: float, seconds: float) -> float:
        """``amount / seconds``, well-defined at the timer floor.

        A timed section can legitimately round to 0.0 on a fast
        machine (``perf_counter`` resolution), so rates saturate to
        ``inf`` instead of raising; zero work in zero time is 0.0.
        """
        if seconds > 0.0:
            return amount / seconds
        return math.inf if amount > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Batched throughput advantage (scalar wall / batched wall).

        ``inf`` when the batched section hit the timer floor and the
        scalar one did not; 1.0 when both did (no measurable
        difference).
        """
        if self.batched_s == 0.0 and self.scalar_s == 0.0:
            return 1.0
        return self._rate(self.scalar_s, self.batched_s)

    @property
    def scalar_trials_per_s(self) -> float:
        """Scalar executor throughput in trials per second."""
        return self._rate(self.trials, self.scalar_s)

    @property
    def batched_trials_per_s(self) -> float:
        """Batched executor throughput in trials per second."""
        return self._rate(self.trials, self.batched_s)

    @staticmethod
    def _json_num(value: float, digits: int) -> float | None:
        """Round for JSON; non-finite values serialize as ``null``."""
        return round(value, digits) if math.isfinite(value) else None

    def as_dict(self) -> dict:
        """JSON-ready form (used by ``BENCH_dmm.json``); saturated
        rates (``inf`` from a zero-duration section) become ``null``
        so the artifact stays strict JSON.  ``mode="plan"`` results use
        ``batched_s``/``plan_s`` keys (the baseline there is the plain
        batched path)."""
        if self.mode == "plan":
            return {
                "app": self.app,
                "w": self.w,
                "trials": self.trials,
                "mapping": self.mapping,
                "latency": self.latency,
                "steps": self.steps,
                "repeats": self.repeats,
                "mode": self.mode,
                "batched_s": round(self.scalar_s, 6),
                "plan_s": round(self.batched_s, 6),
                "speedup": self._json_num(self.speedup, 2),
                "stage_coverage": self.stage_coverage,
            }
        return {
            "app": self.app,
            "w": self.w,
            "trials": self.trials,
            "mapping": self.mapping,
            "latency": self.latency,
            "steps": self.steps,
            "repeats": self.repeats,
            "scalar_s": round(self.scalar_s, 6),
            "batched_s": round(self.batched_s, 6),
            "speedup": self._json_num(self.speedup, 2),
            "scalar_trials_per_s": self._json_num(self.scalar_trials_per_s, 2),
            "batched_trials_per_s": self._json_num(self.batched_trials_per_s, 2),
        }


def bench_app(
    app: str,
    w: int = 32,
    trials: int = 100,
    mapping: str = "RAP",
    latency: int = 1,
    seed: SeedLike = 2014,
    repeats: int = 3,
) -> BenchResult:
    """Time one app scalar vs batched and verify the results agree.

    The shift matrices are drawn once up front, so both paths execute
    the *same* ``trials`` mapping draws; each path's wall time is the
    minimum over ``repeats`` measurements.  Raises ``AssertionError``
    if the executors disagree on any trial's completion time.
    """
    if app not in BUILTIN_PROGRAMS:
        raise ValueError(f"unknown app {app!r}; expected one of {sorted(BUILTIN_PROGRAMS)}")
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    check_positive_int(repeats, "repeats")
    shifts = sample_shift_batch(mapping, w, trials, as_generator(seed))
    skeleton_seed = 2014  # fixes app input data; any constant works

    scalar_s = math.inf
    scalar_times = None
    for _ in range(repeats):
        start = perf_counter()
        times = np.empty(trials, dtype=np.int64)
        for t in range(trials):
            drawn = mapping_from_shifts(mapping, shifts[t])
            kernel = build_app_program(app, drawn, seed=skeleton_seed)
            machine = kernel.make_machine(latency=latency)
            times[t] = machine.run(kernel.program()).time_units
        scalar_s = min(scalar_s, perf_counter() - start)
        scalar_times = times

    batched_s = math.inf
    batched_times = None
    steps = 0
    for _ in range(repeats):
        start = perf_counter()
        kernel = build_app_program(app, RAWMapping(w), seed=skeleton_seed)
        result = kernel.run_batch(shifts, latency=latency)
        batched_s = min(batched_s, perf_counter() - start)
        batched_times = result.time_units
        steps = len(kernel.steps)

    if not np.array_equal(scalar_times, batched_times):
        raise AssertionError(
            f"{app}: batched executor disagrees with scalar "
            f"(scalar={scalar_times!r}, batched={batched_times!r})"
        )
    return BenchResult(
        app=app,
        w=w,
        trials=trials,
        mapping=mapping,
        latency=latency,
        steps=steps,
        repeats=repeats,
        scalar_s=scalar_s,
        batched_s=batched_s,
    )


def bench_plan_app(
    app: str,
    w: int = 32,
    trials: int = 100,
    mapping: str = "RAP",
    latency: int = 1,
    seed: SeedLike = 2014,
    repeats: int = 3,
) -> BenchResult:
    """Time one app plain-batched vs plan-executed; verify agreement.

    The baseline is :meth:`~repro.gpu.kernel.SharedMemoryKernel.run_batch`
    (already 12-17x over scalar); the contender compiles the skeleton
    with :func:`~repro.analysis.plan.compile_plan` *inside* the timed
    section, stages with the plan, and runs
    :meth:`~repro.dmm.batched.BatchedDMM.run`.  The skeleton
    itself is built once, outside both timed sections: both executors
    consume the identical kernel, so its (possibly heavy, e.g.
    ``cf_permute``'s routing) construction cost would only dilute the
    executor comparison.  Raises ``AssertionError`` if the paths
    disagree on any trial.
    """
    from repro.analysis.plan import compile_plan

    if app not in BUILTIN_PROGRAMS:
        raise ValueError(f"unknown app {app!r}; expected one of {sorted(BUILTIN_PROGRAMS)}")
    check_positive_int(w, "w")
    check_positive_int(trials, "trials")
    check_positive_int(repeats, "repeats")
    shifts = sample_shift_batch(mapping, w, trials, as_generator(seed))
    skeleton_seed = 2014  # fixes app input data; any constant works
    kernel = build_app_program(app, RAWMapping(w), seed=skeleton_seed)
    steps = len(kernel.steps)

    batched_s = math.inf
    batched_times = None
    for _ in range(repeats):
        start = perf_counter()
        result = kernel.run_batch(shifts, latency=latency)
        batched_s = min(batched_s, perf_counter() - start)
        batched_times = result.time_units

    plan_s = math.inf
    plan_times = None
    coverage = 0.0
    for _ in range(repeats):
        start = perf_counter()
        plan = compile_plan(kernel, mapping, app)
        result = kernel.run_plan(shifts, plan, latency=latency)
        plan_s = min(plan_s, perf_counter() - start)
        plan_times = result.time_units
        coverage = plan.stage_coverage

    if not np.array_equal(batched_times, plan_times):
        raise AssertionError(
            f"{app}: plan executor disagrees with batched "
            f"(batched={batched_times!r}, plan={plan_times!r})"
        )
    return BenchResult(
        app=app,
        w=w,
        trials=trials,
        mapping=mapping,
        latency=latency,
        steps=steps,
        repeats=repeats,
        scalar_s=batched_s,
        batched_s=plan_s,
        mode="plan",
        stage_coverage=round(coverage, 6),
    )


def render_bench(results: Sequence[BenchResult]) -> str:
    """ASCII table of benchmark results (one row per app)."""
    from repro.report.tables import format_grid

    first = results[0]
    if first.mode == "plan":
        rows = [
            [
                r.app,
                str(r.steps),
                f"{r.scalar_s * 1e3:.1f}",
                f"{r.batched_s * 1e3:.1f}",
                f"{(r.stage_coverage or 0.0):.0%}",
                f"{r.speedup:.1f}x",
            ]
            for r in results
        ]
        return format_grid(
            ["app", "steps", "batched ms", "plan ms", "static stages", "speedup"],
            rows,
            title=(
                f"Plan-compiled executor vs plain batched "
                f"(w={first.w}, trials={first.trials}, mapping={first.mapping}, "
                f"best of {first.repeats})"
            ),
        )
    rows = [
        [
            r.app,
            str(r.steps),
            f"{r.scalar_s * 1e3:.1f}",
            f"{r.batched_s * 1e3:.1f}",
            f"{r.scalar_trials_per_s:.1f}",
            f"{r.batched_trials_per_s:.1f}",
            f"{r.speedup:.1f}x",
        ]
        for r in results
    ]
    return format_grid(
        ["app", "steps", "scalar ms", "batched ms",
         "scalar trials/s", "batched trials/s", "speedup"],
        rows,
        title=(
            f"Batched DMM executor vs scalar loop "
            f"(w={first.w}, trials={first.trials}, mapping={first.mapping}, "
            f"best of {first.repeats})"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro bench-dmm`` (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="rap-repro bench-dmm",
        description=(
            "Benchmark the batched DMM executor against the scalar "
            "per-trial loop on the builtin apps (results are verified "
            "identical before any number is reported)."
        ),
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        default=None,
        choices=sorted(BUILTIN_PROGRAMS),
        help=(
            f"apps to benchmark (default: {' '.join(DEFAULT_BENCH_APPS)}, "
            f"or {' '.join(DEFAULT_PLAN_APPS)} with --plan)"
        ),
    )
    parser.add_argument(
        "--w",
        type=int,
        nargs="+",
        default=[32],
        help="warp width(s) / banks; several run back to back (default 32)",
    )
    parser.add_argument(
        "--trials", type=int, default=100, help="mapping redraws per app (default 100)"
    )
    parser.add_argument(
        "--mapping",
        default="RAP",
        choices=MAPPING_NAMES,
        help="mapping family drawn per trial (default RAP)",
    )
    parser.add_argument("--latency", type=int, default=1, help="pipeline latency (default 1)")
    parser.add_argument("--seed", type=int, default=2014, help="shift-draw seed (default 2014)")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="measurements per path; the minimum is reported (default 3)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the results as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        metavar="X",
        help="exit nonzero unless every app reaches this speedup (CI gate)",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help=(
            "benchmark the plan-compiled executor against the plain "
            "batched path instead of batched-vs-scalar "
            f"(default apps: {' '.join(DEFAULT_PLAN_APPS)})"
        ),
    )
    return parser


def _emit_json(payload: dict, path: str | None) -> None:
    if path == "-":
        print(json.dumps(payload, indent=2))
    elif path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro bench-dmm``; returns an exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    widths = list(args.w)
    for w in widths:
        check_positive_int(w, "w")
    apps = args.apps
    if apps is None:
        apps = list(DEFAULT_PLAN_APPS if args.plan else DEFAULT_BENCH_APPS)

    bench = bench_plan_app if args.plan else bench_app
    results = [
        bench(
            app,
            w=w,
            trials=args.trials,
            mapping=args.mapping,
            latency=args.latency,
            seed=args.seed,
            repeats=args.repeats,
        )
        for w in widths
        for app in apps
    ]
    mode = "plan" if args.plan else "batched"
    single_width = len(widths) == 1
    payload = {
        "w": widths[0] if single_width else widths,
        "trials": args.trials,
        "mapping": args.mapping,
        "latency": args.latency,
        "seed": args.seed,
        "repeats": args.repeats,
        "mode": mode,
        "apps": {
            (r.app if single_width else f"{r.app}@w={r.w}"): r.as_dict()
            for r in results
        },
    }
    if args.json != "-":
        for w in widths:
            print(render_bench([r for r in results if r.w == w]))
    _emit_json(payload, args.json)
    if args.min_speedup is not None:
        slow = [r for r in results if r.speedup < args.min_speedup]
        for r in slow:
            print(
                f"FAIL: {r.app} speedup {r.speedup:.1f}x "
                f"< required {args.min_speedup:.1f}x",
                file=sys.stderr,
            )
        return 1 if slow else 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
