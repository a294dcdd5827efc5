"""The toolchain names that the benchmark in perfbench/ relies on.

`perfbench/layers.py` wraps the entry points in its PATCHES to time each
layer, and `perfbench/run.py` reads `cl.<name>` attributes of the
toolchain and passes hooks to preexecute. A rename that misses them would
break the per-layer metrics only when the benchmark runs; these checks
make it fail here.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import coolang
import coolang.cli
import coolang.records
from coolang.search import BindOutcome

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def test_every_patched_entry_point_resolves(layers):
    assert len(layers.PATCHES) == 9
    for module_name, attr, span in layers.PATCHES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr, span)


def test_every_toolchain_name_the_runner_reads_exists():
    text = (PERFBENCH / "run.py").read_text()
    names = set(re.findall(r"\bcl\.([A-Za-z_][\w.]*\w)", text))
    assert {"preexecute", "records.created_count"} <= names
    for name in names:
        obj = coolang
        for part in name.split("."):
            obj = getattr(obj, part)
    assert isinstance(coolang.records.created_count, int)


def test_preexecute_takes_the_benchmark_hooks():
    params = inspect.signature(coolang.preexecute).parameters
    assert {"observer", "on_bound"} <= set(params)
    # layers.Tracer.on_bound reads the rounds of each statement's outcome
    assert "rounds" in {f.name for f in dataclasses.fields(BindOutcome)}
