"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2_mc --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh process (``perfbench/rep.py``) with a
private cache and temp directory, BLAS/OpenMP pinned to one thread, and
bytecode precompiled, so set-up is measured from process start.  The run
repeats the workload until ``--seconds`` are spent (at least
``MIN_REPS`` times) and reports each metric's median.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, reports the per-layer metrics of the
traced ones, and writes their spans under ``.perfbench_out/``.

Every check counts towards ``attempted``/``failed`` in the final line:
the workload's own correctness checks, and that each repetition's
output digest equals the first one's (same seed, traced or not).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.workloads import PARAMS  # noqa: E402

#: Repetitions a run makes even when ``--seconds`` is already spent.
MIN_REPS = 3
#: Wall-clock limit for the whole run; a repetition is killed past it.
HARD_LIMIT_S = 170.0

THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RepFailed(RuntimeError):
    pass


def isolated_env(root: Path) -> dict:
    """The repetitions' environment: the program's source, one BLAS thread."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({name: "1" for name in THREAD_PINS})
    env.update(
        {
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
            "PYTHONPYCACHEPREFIX": str(root / ".perfbench_build" / "pycache"),
            "PYTHONHASHSEED": "0",
        }
    )
    return env


def source_digest(root: Path) -> str:
    """sha256 over the program's source files, path and content."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    """Launches repetitions and keeps their records."""

    def __init__(self, args, root: Path, workdir: Path, env: dict) -> None:
        self.args = args
        self.root = root
        self.workdir = workdir
        self.env = env
        self.start = time.monotonic()
        self.out_dir = root / ".perfbench_out"
        self.reps = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def rep(self, trace: bool, oracle: bool) -> tuple[dict, float]:
        """Run one repetition; returns its record and duration.

        The repetition gets an empty result-cache root and temp directory
        of its own, removed when it ends.
        """
        index = self.reps
        self.reps += 1
        repdir = self.workdir / f"rep-{index}"
        (repdir / "tmp").mkdir(parents=True)
        env = dict(self.env, REPRO_CACHE_DIR=str(repdir / "repro-cache"), TMPDIR=str(repdir / "tmp"))
        a = self.args
        cmd = [
            sys.executable, "-m", "perfbench.rep",
            "--workload", a.workload, "--size", a.size, "--seed", str(a.seed),
            "--trace", str(int(trace)), "--oracle", str(int(oracle)),
        ]
        if trace:
            spans = self.out_dir / f"trace-{a.workload}-seed{a.seed}-rep{index}.json"
            cmd += ["--spans", str(spans)]
        launch = time.monotonic()
        cmd += ["--launch", repr(launch)]
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(10.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RepFailed(f"repetition {index} exceeded the time limit") from None
        finally:
            shutil.rmtree(repdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RepFailed(f"repetition {index} exited with {proc.returncode}")
        return json.loads(stdout.strip().splitlines()[-1]), time.monotonic() - launch

    def keep_going(self, durations: list[float], minimum: int) -> bool:
        """The minimum is not met, or another round fits in ``--seconds``."""
        done = len(durations)
        if done < minimum:
            return True
        return self.elapsed() + statistics.median(durations) <= self.args.seconds


def collect(runner: Runner, trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced repetitions, and with ``trace`` a traced one after each."""
    plain, traced, durations = [], [], []
    while runner.keep_going(durations, 1 if trace else MIN_REPS):
        record, duration = runner.rep(trace=False, oracle=not plain)
        plain.append(record)
        if trace:
            record, traced_duration = runner.rep(trace=True, oracle=False)
            traced.append(record)
            duration += traced_duration
        durations.append(duration)
    return plain, traced


def median_of(records: list[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def summarize(
    plain: list[dict], traced: list[dict], spec: dict
) -> tuple[list[tuple[str, bool]], dict]:
    """All checks of the run, and its metrics (medians over repetitions).

    ``spec`` is ``BENCHMARK.json``: it names the metrics and their units.
    """
    digest = plain[0]["digest"]
    checks = [tuple(c) for r in plain + traced for c in r["checks"]]
    checks += [
        (f"repetition {i} digest equals the first", r["digest"] == digest)
        for i, r in enumerate(plain + traced)
        if i > 0
    ]
    if traced:
        kind = "per_layer"
        values = {
            name: median_of(traced, lambda r, name=name: r["layers"][name])
            for name in traced[0]["layers"]
        }
        values["oracle.checks"] = len(plain[0]["checks"])
        values["oracle.s"] = plain[0]["oracle_s"]
        values["trace.overhead_frac"] = (
            median_of(traced, lambda r: r["wall_s"]) / median_of(plain, lambda r: r["wall_s"]) - 1.0
        )
    else:
        kind = "end_to_end"
        values = {
            name: median_of(plain, lambda r, name=name: r[name])
            for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
        }
        values["trials_per_s"] = median_of(plain, lambda r: r["draws"] / r["wall_s"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    return checks, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"),
        help="tiny: the benchmark's own tests (default: full)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    workdir = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = isolated_env(root)
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src/repro", "perfbench"],
            cwd=root, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        runner = Runner(args, root, workdir, env)
        plain, traced = collect(runner, bool(args.trace))
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks, metrics = summarize(plain, traced, spec)
    failed = [name for name, ok in checks if not ok]
    manifest = {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "thread_pins": {name: "1" for name in THREAD_PINS},
        "platform": platform.platform(),
        **plain[0]["manifest"],
    }
    record = {"manifest": manifest, "metrics": metrics, "failed_checks": failed, "reps": plain + traced}
    out = runner.out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(f"digest {plain[0]['digest']}")
    for name in failed:
        print(f"FAILED {name}")
    if traced:
        self_s = {}
        for r in traced:
            for layer, seconds in r["self_s"].items():
                self_s.setdefault(layer, []).append(seconds)
        for layer, values in sorted(self_s.items(), key=lambda kv: -statistics.median(kv[1])):
            print(f"self_s {layer:28s} {statistics.median(values):10.4f}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
