"""In-memory spans and counters, and the wrappers that feed them.

The benchmark measures every layer from outside: it times its own calls
into each module's public functions, and for calls a layer makes
internally it temporarily replaces the called attribute with a timing
wrapper (:func:`install`).  The wrappers are removed when the traced
section ends, so no program file is changed and an untraced run executes
the unmodified program.

A span is ``(id, parent, name, start_ns, end_ns)``; the parent is the
span open when it started.  A layer's self time is the summed duration
of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

#: Name of the span around each timed section of a workload.  Time in
#: it that no layer span covers is harness time, not a layer's.
ROOT = "bench.work"

_MISSING = object()


@dataclass
class Tracer:
    """Collects spans and counters in memory until :meth:`dump`."""

    spans: list[tuple[int, int, str, int, int]] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)
    _next: int = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(e - s for _, _, n, s, e in self.spans if n == name) / 1e9

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[2] == name)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time in seconds: duration minus child spans."""
        child_ns: Counter = Counter()
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start - child_ns[sid]) / 1e9
        return dict(out)

    def coverage(self) -> float:
        """Share of timed-section time that some layer's span covers."""
        root_ns = sum(e - s for _, _, n, s, e in self.spans if n == ROOT)
        if root_ns == 0:
            return 0.0
        return 1.0 - self.self_times().get(ROOT, 0.0) * 1e9 / root_ns

    def dump(self, path: Path, extra: dict) -> None:
        """Write the spans, counters and self times as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["self_s"] = self.self_times()
        payload["counters"] = dict(self.counters)
        payload["spans"] = [
            {"id": sid, "parent": parent, "name": name, "start_ns": s, "end_ns": e}
            for sid, parent, name, s, e in sorted(self.spans)
        ]
        path.write_text(json.dumps(payload, indent=1) + "\n")


class NullTracer:
    """The untraced run's stand-in: spans and counts cost one call."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def count(self, name: str, amount: float = 1) -> None:
        pass


def _wrap(
    tracer: Tracer,
    name: str,
    func: Callable,
    after: Callable[[Tracer, tuple, dict, Any], None] | None,
) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _root_nbytes(arrays) -> int:
    """Bytes of the distinct buffers behind ``arrays``, each counted once."""
    import numpy as np

    seen: dict[int, int] = {}
    for arr in arrays:
        if not isinstance(arr, np.ndarray):
            continue
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def _staged_bytes(tracer: Tracer, args, kwargs, program) -> None:
    arrays = []
    for instr in program:
        arrays += [
            instr.addresses,
            instr.values,
            instr.static_congestions,
            instr.dynamic_warps,
            instr.bank_keys,
            instr.planned_congestions,
            instr.mask,
        ]
    tracer.count("kernel.staged_bytes", _root_nbytes(arrays))


def _moved_bytes(tracer: Tracer, args, kwargs, result) -> None:
    memory, flat = args[0], args[1]
    tracer.count("dmm.moved_bytes", flat.nbytes + flat.size * memory.dtype.itemsize)


def _cache_hit(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("cache.hits")


@contextmanager
def install(tracer: Tracer, certified_cells: frozenset = frozenset()) -> Iterator[None]:
    """Wrap each layer's entry points in spans; restore them on exit.

    ``certified_cells`` holds the ``(pattern, mapping)`` Monte-Carlo
    cells whose value a proof already gives; their engine spans are
    named ``engine.certified_cell`` so their time can be told apart.
    """
    import repro.analysis.plan as plan_mod
    import repro.dmm.batched as batched_mod
    from repro.dmm.memory import BatchedMemory
    from repro.gpu.kernel import SharedMemoryKernel
    from repro.resilience.supervisor import ShardSupervisor
    from repro.sim.cache import ResultCache
    from repro.sim.engine import MonteCarloEngine

    def engine_cell(self, mapping_name, pattern, *args, **kwargs):
        name = (
            "engine.certified_cell"
            if (pattern, mapping_name) in certified_cells
            else "engine.cell"
        )
        with tracer.span(name):
            return original_cell(self, mapping_name, pattern, *args, **kwargs)

    original_cell = MonteCarloEngine.matrix_congestion
    targets = [
        (ShardSupervisor, "run", "supervisor.run", None),
        (ResultCache, "get", "cache.get", _cache_hit),
        (ResultCache, "put", "cache.put", None),
        (plan_mod, "abstract_step", "absint.abstract_step", None),
        (SharedMemoryKernel, "program_batch", "kernel.program_batch", _staged_bytes),
        (batched_mod, "instruction_congestions", "dmm.count", None),
        (BatchedMemory, "read_flat", "dmm.move", _moved_bytes),
        (BatchedMemory, "write_flat", "dmm.move", _moved_bytes),
    ]
    replacements = [(MonteCarloEngine, "matrix_congestion", engine_cell)] + [
        (owner, attr, _wrap(tracer, name, getattr(owner, attr), hook))
        for owner, attr, name, hook in targets
    ]
    saved = [(owner, attr, vars(owner).get(attr, _MISSING)) for owner, attr, _ in replacements]
    try:
        for owner, attr, replacement in replacements:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
