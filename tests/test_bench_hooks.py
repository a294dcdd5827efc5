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

import corpus
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


def _counting(calls, key, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_every_patched_entry_point_is_called_through_its_patched_name(layers, monkeypatch):
    # a call that bypasses the patched name, such as one through a name
    # bound by a top-level `from .inversion import ...`, reads 0 in the benchmark.
    # The package is taken now, not at import: perfbench's selftest imports
    # it afresh, and a call through an older import mixes two copies.
    cl = importlib.import_module("coolang")
    calls = {}
    for module_name, attr, _ in layers.PATCHES:
        owner = importlib.import_module(module_name)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        calls[module_name, attr] = 0
        monkeypatch.setattr(owner, name, _counting(calls, (module_name, attr), getattr(owner, name)))
    cl.preexecute(cl.build(corpus.APPLE_PRICE))
    assert all(calls.values()), calls


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
