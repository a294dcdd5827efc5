"""Checks of the benchmark itself; not part of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

Takes about a minute: the references are checked against real compiles.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.GENERATORS)


@pytest.fixture(scope="module")
def cl():
    return run.import_toolchain()


def test_workloads_match_the_benchmark_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic_per_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7).source != workloads.generate(name, 8).source


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_references_match_the_toolchain(cl, name, seed):
    program = workloads.generate(name, seed)
    interp = cl.execute(program.source)
    assert workloads.output_matches(interp.output, program.expected), interp.output


def test_output_check_rejects_a_wrong_value():
    assert not workloads.output_matches(["1.0"], (1.5,))
    assert not workloads.output_matches(["1.0"], (1.0, 2.0))
    assert not workloads.output_matches(["<instance 3>"], (1.0,))


def _traced_counts(cl, name: str) -> dict:
    """Count metrics of one traced compile and rerun on a fresh bench."""
    bench = run.Bench(cl, workloads.generate(name, 3))
    run.first_pass(bench, trace_memory=False)
    tracer = layers.Tracer()
    with tracer.installed():
        run.traced_compile(bench, tracer)
        c = tracer.take(keep=False)
        run.traced_rerun(bench, tracer)
        r = tracer.take(keep=False)
    assert bench.failed == 0
    c["kernel_s"] = r["kernel_s"] = 1.0
    metrics = layers.layer_metrics([c], [r])
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


@pytest.mark.parametrize("name", NAMES)
def test_count_metrics_repeat_between_traced_runs(cl, name):
    first = _traced_counts(cl, name)
    assert first == _traced_counts(cl, name)
    assert first["preexec.statements"] > 0
    assert first["search.candidates"] > 0


def test_tracing_is_removed_afterwards(cl):
    import coolang.search

    original = coolang.search.match_branch
    with layers.Tracer().installed():
        assert coolang.search.match_branch is not original
    assert coolang.search.match_branch is original


def _run(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, kind):
    proc = _run("--workload", "loop_run", "--seed", "1", "--seconds", "1",
                "--trace", trace, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_toolchain():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        proc = _run("--workload", "loop_run", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
