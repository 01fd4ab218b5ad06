"""Tests of the benchmark itself: metric names, tiny workloads, checks that fail.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.run import summarize  # noqa: E402
from perfbench.tracing import NullTracer  # noqa: E402
from perfbench.workloads import PARAMS, PlanWorkload, Stopwatch, table2_checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_every_workload_has_its_parameters():
    assert sorted(WORKLOADS) == sorted(PARAMS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_its_checks(workload, trace):
    out = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC[kind]
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_the_same_digest():
    digests = []
    for trace in (0, 1):
        out = run_bench(
            "--workload", "plan_residual", "--seed", "9", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        )
        assert out.returncode == 0, out.stderr
        digests += [line for line in out.stdout.splitlines() if line.startswith("digest ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = run_bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_perturbed_table2_cells_fail_their_checks():
    from repro.sim.experiments import table2

    widths = (16,)
    stats = dict(table2(widths=widths, trials=24, seed=5).stats)
    assert all(ok for _, ok in table2_checks(stats, widths))

    for key, shift in ((("stride", "RAP", 16), 1.0), (("stride", "RAS", 16), 1.0)):
        perturbed = dict(stats)
        perturbed[key] = dataclasses.replace(stats[key], mean=stats[key].mean + shift)
        failed = [name for name, ok in table2_checks(perturbed, widths) if not ok]
        assert len(failed) == 1 and failed[0].startswith("/".join(key[:2]))


def test_perturbed_time_units_fail_the_oracle():
    params = PARAMS["plan_residual"]["tiny"]
    workload = PlanWorkload(params, 5, NullTracer())
    workload.setup()
    workload.work(Stopwatch(NullTracer()))
    assert all(ok for _, ok in workload.checks(oracle=True))

    run = workload.runs["sort"]
    run["time_units"][run["oracle_trial"]] += 1
    failed = [name for name, ok in workload.checks(oracle=True) if not ok]
    assert len(failed) == 1 and failed[0].startswith("sort trial")


def test_a_digest_mismatch_counts_as_a_failed_check():
    record = {
        "digest": "a", "checks": [["ok", True]], "wall_s": 1.0, "setup_s": 0.5,
        "cpu_s": 1.0, "peak_rss_mb": 10.0, "draws": 4,
    }
    checks, metrics = summarize([record, dict(record, digest="b")], [], SPEC)
    failed = [name for name, ok in checks if not ok]
    assert failed == ["repetition 1 digest equals the first"]
    assert len(failed) / len(checks) > 0
    assert metrics["trials_per_s"]["value"] == 4.0
