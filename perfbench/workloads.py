"""The benchmark's workloads: set-up, timed work, checks and digest.

Each workload runs in its own process (see ``rep.py``).  Set-up covers
everything before the work can start — imports, the worker pool's fork,
skeleton builds and shift draws — and the work is timed through a
:class:`Stopwatch`.  Checks and output digests run outside the timed
sections.

``table2_mc``
    Table II at every width through ``MonteCarloEngine(workers=2)`` with
    a cold private result cache, rendered by ``report``.
``plan_residual``
    ``sort`` and ``fft`` at w=256 under RAP through compile, staging and
    execution; most steps stay residual, so absint, staging, counting
    and data movement all carry weight.
``plan_resolved``
    ``shearsort`` at w=128 under RAP: every stage resolves symbolically,
    so execution is pure data movement.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Iterator

import numpy as np

from perfbench.tracing import ROOT

#: Table II cells whose value Table I states exactly, as the closed form
#: of the width: contiguous under every mapping, stride under RAW
#: (``w``) and RAP (Theorem 1), diagonal under RAW.
EXACT_CELLS = {
    ("contiguous", "RAW"): "1",
    ("contiguous", "RAS"): "1",
    ("contiguous", "RAP"): "1",
    ("stride", "RAW"): "w",
    ("stride", "RAP"): "1",
    ("diagonal", "RAW"): "1",
}

#: Simulated cells whose value a proof already gives.
CERTIFIED_CELLS = frozenset(EXACT_CELLS)

#: Half-width of the stride-RAS band around the exact expected maximum
#: load, in conservative standard errors (effective n = mapping draws).
BAND_Z = 5.0

#: Workload parameters: ``full`` is what the benchmark measures,
#: ``tiny`` keeps the benchmark's own tests fast.
PARAMS = {
    "table2_mc": {
        "full": {"widths": (16, 32, 64, 128, 256), "trials": 300, "workers": 2},
        "tiny": {"widths": (16,), "trials": 24, "workers": 2},
    },
    "plan_residual": {
        "full": {"apps": ("sort", "fft"), "w": 256, "trials": 8, "family": "RAP"},
        "tiny": {"apps": ("sort", "fft"), "w": 16, "trials": 4, "family": "RAP"},
    },
    "plan_resolved": {
        "full": {"apps": ("shearsort",), "w": 128, "trials": 8, "family": "RAP"},
        "tiny": {"apps": ("shearsort",), "w": 16, "trials": 4, "family": "RAP"},
    },
}

#: The execution backend the plan workloads pin, so that an optional
#: accelerator being installed cannot change the program measured.
PLAN_BACKEND = "numpy"


class Stopwatch:
    """Accumulates wall and CPU seconds over the timed sections."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def timed(self) -> Iterator[None]:
        with self.tracer.span(ROOT):
            wall, cpu = perf_counter(), process_time()
            try:
                yield
            finally:
                self.wall_s += perf_counter() - wall
                self.cpu_s += process_time() - cpu


def ready(item, rng):
    """No-op pool task: submitting it forks the worker processes."""
    return item


def table2_checks(stats: dict, widths) -> list[tuple[str, bool]]:
    """Exact cells equal their closed form; stride-RAS lies in its band."""
    from repro.core.exact import exact_expected_max_load

    checks = []
    for w in widths:
        for (pattern, mapping), form in EXACT_CELLS.items():
            cell = stats[(pattern, mapping, w)]
            want = w if form == "w" else 1
            ok = cell.mean == want and cell.minimum == want == cell.maximum
            checks.append((f"{pattern}/{mapping}/w={w} == {want}", ok))
        cell = stats[("stride", "RAS", w)]
        exact = exact_expected_max_load(w, w)
        band = BAND_Z * cell.std / math.sqrt(cell.n_trials or cell.n_samples)
        checks.append(
            (
                f"stride/RAS/w={w} mean {cell.mean:.4f} within {band:.4f} "
                f"of exact {exact:.4f}",
                abs(cell.mean - exact) <= band,
            )
        )
    return checks


def oracle_checks(runs: dict, params: dict, seed: int) -> list[tuple[str, bool]]:
    """One sampled trial per app: batched time units == scalar machine.

    ``runs[app]`` holds the app's shift draws, the sampled trial and the
    batched per-trial ``time_units``.
    """
    from repro.apps import build_app_program
    from repro.core.mappings import mapping_from_shifts

    checks = []
    for app, run in runs.items():
        t = run["oracle_trial"]
        drawn = mapping_from_shifts(params["family"], run["shifts"][t])
        kernel = build_app_program(app, drawn, seed=seed)
        scalar = kernel.make_machine(latency=1).run(kernel.program()).time_units
        batched = int(run["time_units"][t])
        checks.append(
            (f"{app} trial {t}: batched {batched} == scalar {scalar}", batched == scalar)
        )
    return checks


class Table2MC:
    """``table2`` at all five widths through the parallel engine."""

    def __init__(self, params: dict, seed: int, tracer) -> None:
        self.params = params
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        from repro.report.tables import render_table2
        from repro.sim.cache import ResultCache
        from repro.sim.engine import MonteCarloEngine
        from repro.sim.experiments import table2

        self._table2, self._render = table2, render_table2
        workers = self.params["workers"]
        # ResultCache() roots at $REPRO_CACHE_DIR, which run.py points
        # at an empty directory of this repetition's own.
        self.engine = MonteCarloEngine(workers=workers, cache=ResultCache())
        self.engine.map_seeded(ready, list(range(workers)), seed=0)

    def work(self, watch: Stopwatch) -> None:
        with watch.timed():
            with self.tracer.span("experiments.table2"):
                self.result = self._table2(
                    widths=self.params["widths"],
                    trials=self.params["trials"],
                    seed=self.seed,
                    engine=self.engine,
                )
            with self.tracer.span("report.render"):
                self.text = self._render(self.result)

    def teardown(self) -> None:
        self.engine.close()

    def draws(self) -> int:
        return sum(s.n_trials or 1 for s in self.result.stats.values())

    def digest(self) -> str:
        payload = {
            "/".join(map(str, key)): stats.to_payload()
            for key, stats in sorted(self.result.stats.items())
        }
        text = self.text + json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def checks(self, oracle: bool) -> list[tuple[str, bool]]:
        return table2_checks(self.result.stats, self.params["widths"])

    def counts(self) -> dict:
        collector = self.engine.collector
        shards = collector.shards
        return {
            "engine.workers": self.params["workers"],
            "congestion_sim.trials": sum(s.trials for s in shards),
            "congestion_sim.busy_s": sum(s.seconds for s in shards),
            "congestion_sim.busy_s_w256": sum(
                s.seconds for s in shards if s.task.endswith("/w=256")
            ),
            "supervisor.retries": len(collector.retries),
            "supervisor.respawns": collector.pool_respawns,
        }

    def manifest(self) -> dict:
        return {"plan_backend": None}


class PlanWorkload:
    """Builtin apps through compile -> stage -> execute on the numpy backend."""

    def __init__(self, params: dict, seed: int, tracer) -> None:
        self.params = params
        self.seed = seed
        self.tracer = tracer
        self._counts: Counter = Counter()
        self._hash = hashlib.sha256()
        self.runs: dict = {}
        self.backends: set = set()

    def setup(self) -> None:
        from repro.analysis.plan import compile_plan, stage_compiled
        from repro.apps import build_app_program
        from repro.core.mappings import RAWMapping, sample_shift_batch
        from repro.util.rng import as_generator, spawn_seed_sequences

        # stage_compiled imports the backends lazily; import them here so
        # that import is set-up, not work.
        import repro.dmm.backends  # noqa: F401

        self._compile, self._stage = compile_plan, stage_compiled
        p = self.params
        apps = p["apps"]
        seqs = spawn_seed_sequences(self.seed, 2 * len(apps))
        self.kernels = {}
        for i, app in enumerate(apps):
            with self.tracer.span("apps.build"):
                self.kernels[app] = build_app_program(app, RAWMapping(p["w"]), seed=self.seed)
            self.runs[app] = {
                "shifts": sample_shift_batch(
                    p["family"], p["w"], p["trials"], as_generator(seqs[i])
                ),
                "oracle_trial": int(
                    as_generator(seqs[len(apps) + i]).integers(p["trials"])
                ),
            }

    def work(self, watch: Stopwatch) -> None:
        tracer = self.tracer
        for app, kernel in self.kernels.items():
            run = self.runs[app]
            with watch.timed():
                with tracer.span("plan.compile"):
                    plan = self._compile(kernel, self.params["family"], app)
                with tracer.span("plan.stage"):
                    resolution, staged = self._stage(
                        kernel, run["shifts"], plan, backend=PLAN_BACKEND
                    )
                with tracer.span("dmm.execute"):
                    result = resolution.backend.execute(staged)
            self._record(app, plan, resolution, staged, result)
            del plan, resolution, staged, result

    def _record(self, app, plan, resolution, staged, result) -> None:
        """Fold one app's outputs into the digest and the counts."""
        h = self._hash
        h.update(app.encode())
        h.update(np.ascontiguousarray(result.time_units, dtype=np.int64).tobytes())
        for trace in result.traces:
            h.update(trace.op.encode())
            h.update(np.ascontiguousarray(trace.congestions, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(trace.time_units, dtype=np.int64).tobytes())
        for name in sorted(result.registers):
            h.update(name.encode())
            h.update(np.ascontiguousarray(result.registers[name]).tobytes())
        h.update(np.ascontiguousarray(result.memory.store).tobytes())
        self.runs[app]["time_units"] = result.time_units.copy()

        methods = [s.method for s in plan.steps]
        program = list(staged.program)
        self._counts.update(
            {
                "plan.steps": len(methods),
                "plan.steps_symbolic": sum(m in ("symbolic", "deterministic") for m in methods),
                "plan.steps_absint": methods.count("absint"),
                "plan.steps_residual": methods.count("residual"),
                "plan.static_warps": sum(s.static_warps for s in plan.steps),
                "plan.active_warps": sum(s.active_warps for s in plan.steps),
                "dmm.instructions": len(program),
                "dmm.resolved_instructions": sum(
                    i.static_congestions is not None
                    and i.dynamic_warps is not None
                    and i.dynamic_warps.size == 0
                    for i in program
                ),
                "dmm.memory_bytes": staged.machine.memory.store.nbytes,
            }
        )
        self.backends.add((resolution.backend.name, resolution.fell_back))

    def teardown(self) -> None:
        self.kernels.clear()

    def draws(self) -> int:
        return self.params["trials"] * len(self.params["apps"])

    def digest(self) -> str:
        return self._hash.hexdigest()

    def checks(self, oracle: bool) -> list[tuple[str, bool]]:
        checks = [
            (f"backend {name} ran (fell back: {fell_back})", name == PLAN_BACKEND and not fell_back)
            for name, fell_back in sorted(self.backends)
        ]
        if oracle:
            checks += oracle_checks(self.runs, self.params, self.seed)
        return checks

    def counts(self) -> dict:
        return dict(self._counts)

    def manifest(self) -> dict:
        return {"plan_backend": sorted(name for name, _ in self.backends)}


WORKLOADS = {
    "table2_mc": Table2MC,
    "plan_residual": PlanWorkload,
    "plan_resolved": PlanWorkload,
}


def layer_metrics(tracer, counts: dict) -> dict[str, float]:
    """Every per-layer metric of one traced repetition (0 where unused)."""
    cells = ("engine.cell", "engine.certified_cell")
    cell_s = sum(tracer.total_s(name) for name in cells)
    busy = counts.get("congestion_sim.busy_s", 0.0)
    workers = counts.get("engine.workers", 0)
    active = counts.get("plan.active_warps", 0)
    return {
        "engine.cells": sum(tracer.calls(name) for name in cells),
        "engine.cell_s": cell_s,
        "engine.certified_cells": tracer.calls("engine.certified_cell"),
        "engine.certified_cell_s": tracer.total_s("engine.certified_cell"),
        "supervisor.idle_frac": 1.0 - busy / (workers * cell_s) if workers and cell_s else 0.0,
        "supervisor.retries": counts.get("supervisor.retries", 0),
        "supervisor.respawns": counts.get("supervisor.respawns", 0),
        "congestion_sim.trials": counts.get("congestion_sim.trials", 0),
        "congestion_sim.busy_s": busy,
        "congestion_sim.busy_s_w256": counts.get("congestion_sim.busy_s_w256", 0.0),
        "cache.gets": tracer.calls("cache.get"),
        "cache.hits": tracer.counters["cache.hits"],
        "cache.puts": tracer.calls("cache.put"),
        "cache.get_s": tracer.total_s("cache.get"),
        "cache.put_s": tracer.total_s("cache.put"),
        "report.render_s": tracer.total_s("report.render"),
        "apps.build_s": tracer.total_s("apps.build"),
        "plan.compile_s": tracer.total_s("plan.compile"),
        "plan.steps": counts.get("plan.steps", 0),
        "plan.steps_symbolic": counts.get("plan.steps_symbolic", 0),
        "plan.steps_absint": counts.get("plan.steps_absint", 0),
        "plan.steps_residual": counts.get("plan.steps_residual", 0),
        "plan.stage_coverage": counts.get("plan.static_warps", 0) / active if active else 0.0,
        "absint.calls": tracer.calls("absint.abstract_step"),
        "absint.s": tracer.total_s("absint.abstract_step"),
        "kernel.stage_s": tracer.total_s("kernel.program_batch"),
        "kernel.staged_mb": tracer.counters["kernel.staged_bytes"] / 2**20,
        "dmm.execute_s": tracer.total_s("dmm.execute"),
        "dmm.count_s": tracer.total_s("dmm.count"),
        "dmm.move_s": tracer.total_s("dmm.move"),
        "dmm.instructions": counts.get("dmm.instructions", 0),
        "dmm.resolved_instructions": counts.get("dmm.resolved_instructions", 0),
        "dmm.moved_mb": tracer.counters["dmm.moved_bytes"] / 2**20,
        "dmm.memory_mb": counts.get("dmm.memory_bytes", 0) / 2**20,
        "trace.coverage_frac": tracer.coverage(),
    }
