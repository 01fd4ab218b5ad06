"""One repetition of one workload, in a fresh process.

Started by ``run.py`` as ``python -m perfbench.rep``; prints one JSON
record as its last line of output.  Set-up time runs from ``--launch``,
the parent's ``time.monotonic()`` just before it started this process,
so it covers interpreter start and imports as well.  With ``--trace 1``
the layer wrappers are installed before set-up and removed before the
checks run, and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

from perfbench.tracing import NullTracer, Tracer, install
from perfbench.workloads import (
    CERTIFIED_CELLS,
    PARAMS,
    WORKLOADS,
    Stopwatch,
    layer_metrics,
)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def run(args: argparse.Namespace) -> dict:
    params = PARAMS[args.workload][args.size]
    tracer = Tracer() if args.trace else NullTracer()
    with ExitStack() as stack:
        if args.trace:
            stack.enter_context(install(tracer, CERTIFIED_CELLS))
        workload = WORKLOADS[args.workload](params, args.seed, tracer)
        workload.setup()
        setup_s = time.monotonic() - args.launch
        watch = Stopwatch(tracer)
        children_cpu = _children_cpu_s()
        workload.work(watch)
        workload.teardown()
        cpu_s = watch.cpu_s + _children_cpu_s() - children_cpu
    peak_rss_mb = _peak_rss_mb()

    start = perf_counter()
    checks = workload.checks(oracle=args.oracle)
    oracle_s = perf_counter() - start

    import numpy

    record = {
        "setup_s": setup_s,
        "wall_s": watch.wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "draws": workload.draws(),
        "digest": workload.digest(),
        "checks": checks,
        "oracle_s": oracle_s,
        "manifest": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "params": params,
            **workload.manifest(),
        },
    }
    if args.trace:
        counts = workload.counts()
        record["layers"] = layer_metrics(tracer, counts)
        record["self_s"] = tracer.self_times()
        tracer.dump(
            Path(args.spans),
            {"workload": args.workload, "seed": args.seed, "wall_s": watch.wall_s, "counts": counts},
        )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
