"""Per-layer spans and counters for the traced benchmark run.

The toolchain has no tracing of its own, so the traced run wraps layer
entry points from outside. Modules import each other's functions with
`from .x import y`, so a wrapper is installed under the name the calling
module looks up (`coolang.preexec.bind_expression`, not only
`coolang.search.bind_expression`). Methods are wrapped on their class.
Everything is undone when the run leaves `installed()`.

Counters that the toolchain already exposes come through its public
hooks: the search `observer` (candidates and distinct (weight, digest)
pairs), `on_bound` (statements, rounds and per-statement latency),
`Interpreter.call_log` and `records.created_count`.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

import calibration

# (module, attribute or "Class.method", span name). A span name listed twice
# wraps the same function at two import sites.
PATCHES = (
    ("coolang.preexec", "bind_expression", "preexec.bind"),
    ("coolang.inversion", "derive_reverse_body", "inversion"),
    ("coolang.search", "search_segment", "search"),
    ("coolang.inversion", "search_segment", "search"),
    ("coolang.search", "match_branch", "matching"),
    ("coolang.segments", "Segment.digest", "segments.digest"),
    ("coolang.segments", "Segment.copy", "segments.copy"),
    ("coolang.segments", "Segment.splice", "segments.splice"),
    ("coolang.silo", "Silo.offer", "silo.offer"),
)

# span tuple fields
TRACE, SPAN, PARENT, NAME, START, END, OK = range(7)


class Tracer:
    """Keeps spans in memory: (trace, span, parent, name, start, end, ok).

    `trace` numbers the benchmark operation (one compile or one rerun) the
    span belongs to, `parent` is the enclosing span or 0, and `ok` says
    whether the call returned something other than None or False, which
    is how a match hit and a silo admission show.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack = [0]
        self._next_id = 0
        self._bind_ms: list[float] = []
        self._rounds = 0
        self._candidates = 0
        self._distinct: set = set()
        self._digest = None
        self._mark = 0
        self._notes: dict[str, int] = {}

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                ok = result is not None and result is not False
                spans.append((self.trace_id, sid, parent, name, start, end, ok))

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._new_id()
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.trace_id, sid, parent, name, start, end, True))

    @contextlib.contextmanager
    def operation(self, name: str):
        """A root span; its children share its trace id."""
        self.trace_id += 1
        with self.span(name):
            yield

    # --- public hooks of the toolchain ---

    def observer(self, rnd: int, weight: float, segment) -> None:
        """Search observer: counts candidates and distinct (weight, digest).

        Distinctness is per search call, keyed by the enclosing search span.
        The digest is taken with the unwrapped method and the work is its
        own span, so it adds to `search.s` but not to `search.self_s` or to
        the `segments.digest_*` counters.
        """
        start = perf_counter()
        self._candidates += 1
        self._distinct.add((self._stack[-1], weight, self._digest(segment)))
        self.spans.append(
            (self.trace_id, self._new_id(), self._stack[-1], "trace.observer",
             start, perf_counter(), True)
        )

    def on_bound(self, addr, outcome) -> None:
        """preexecute's per-statement hook: rounds and bind latency."""
        last = self.spans[-1]
        if last[NAME] != "preexec.bind":
            raise RuntimeError("on_bound did not follow a traced bind_expression")
        self._bind_ms.append((last[END] - last[START]) * 1e3)
        self._rounds += outcome.rounds

    def note(self, name: str, value: int) -> None:
        """A count read by the benchmark itself, such as table sizes."""
        self._notes[name] = value

    # --- patching ---

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for module_name, attr, span_name in PATCHES:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span_name, original))
            self._digest = importlib.import_module("coolang.segments").Segment.digest
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # --- reduction ---

    def take(self, keep: bool) -> dict:
        """Per-layer totals of the spans and hook counts since the last take.

        With keep, the spans stay in memory to be written out; otherwise
        they are dropped once reduced. The hook counts restart either way.
        """
        spans = self.spans[self._mark:]
        total = defaultdict(float)
        calls = defaultdict(int)
        hits = defaultdict(int)
        child = defaultdict(float)
        for s in spans:
            d = s[END] - s[START]
            total[s[NAME]] += d
            calls[s[NAME]] += 1
            hits[s[NAME]] += s[OK]
            child[s[PARENT]] += d
        self_time = defaultdict(float)
        for s in spans:
            self_time[s[NAME]] += (s[END] - s[START]) - child[s[SPAN]]

        bind_ms = self._bind_ms
        out = {
            "totals": dict(total),
            "self": dict(self_time),
            "calls": dict(calls),
            "hits": dict(hits),
            "candidates": self._candidates,
            "distinct": len(self._distinct),
            "rounds": self._rounds,
            "statements": len(bind_ms),
            "bind_ms": list(bind_ms),
            "notes": self._notes,
        }
        self._notes = {}
        self._bind_ms = []
        self._rounds = 0
        self._candidates = 0
        self._distinct = set()
        if not keep:
            del self.spans[self._mark:]
        self._mark = len(self.spans)
        return out

    def write(self, path: str) -> None:
        """Write the spans kept so far as gzip'd JSON lines."""
        fields = ("trace", "span", "parent", "name", "start", "end", "ok")
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(fields, s))) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[k - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(compiles: list[dict], reruns: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the reductions of traced compiles and reruns.

    Each reduction carries the calibration kernel time of its operation
    (`kernel_s`); times are scaled by it like the end-to-end timings and
    are medians over operations. Counts come from the first operation (the
    caller checks that they repeat).
    """

    def med(items, kind, name):
        return statistics.median(
            calibration.scaled(r[kind].get(name, 0.0), r["kernel_s"]) for r in items
        )

    c, r = compiles[0], reruns[0]
    calls = c["calls"]
    bind_ms = [
        calibration.scaled(ms, red["kernel_s"]) for red in compiles for ms in red["bind_ms"]
    ]
    return {
        "precompile.s": (med(compiles, "totals", "precompile"), "s"),
        "parser.s": (med(compiles, "totals", "parser"), "s"),
        "loader.s": (med(compiles, "totals", "loader"), "s"),
        "loader.lines": (c["notes"].get("loader.lines", 0), "count"),
        "loader.functions": (c["notes"].get("loader.functions", 0), "count"),
        "preexec.s": (med(compiles, "totals", "preexec"), "s"),
        "inversion.s": (med(compiles, "totals", "inversion"), "s"),
        "inversion.derivations": (calls.get("inversion", 0), "count"),
        "segments.splice_s": (med(compiles, "totals", "segments.splice"), "s"),
        "preexec.statements": (c["statements"], "count"),
        "preexec.bind_ms.p50": (percentile(bind_ms, 50) if bind_ms else 0.0, "ms"),
        "preexec.bind_ms.p95": (percentile(bind_ms, 95) if bind_ms else 0.0, "ms"),
        "search.s": (med(compiles, "totals", "search"), "s"),
        "search.self_s": (med(compiles, "self", "search"), "s"),
        "search.calls": (calls.get("search", 0), "count"),
        "search.rounds": (c["rounds"], "count"),
        "search.candidates": (c["candidates"], "count"),
        "search.distinct": (c["distinct"], "count"),
        "search.distinct_ratio": (ratio(c["distinct"], c["candidates"]), "ratio"),
        "silo.offers": (calls.get("silo.offer", 0), "count"),
        "silo.admitted": (c["hits"].get("silo.offer", 0), "count"),
        "silo.admit_ratio": (
            ratio(c["hits"].get("silo.offer", 0), calls.get("silo.offer", 0)), "ratio"
        ),
        "matching.calls": (calls.get("matching", 0), "count"),
        "matching.hits": (c["hits"].get("matching", 0), "count"),
        "matching.hit_ratio": (
            ratio(c["hits"].get("matching", 0), calls.get("matching", 0)), "ratio"
        ),
        "matching.s": (med(compiles, "totals", "matching"), "s"),
        "segments.digest_s": (med(compiles, "totals", "segments.digest"), "s"),
        "segments.digest_calls": (calls.get("segments.digest", 0), "count"),
        "segments.copy_s": (med(compiles, "totals", "segments.copy"), "s"),
        "segments.copy_calls": (calls.get("segments.copy", 0), "count"),
        "serialize.s": (med(compiles, "totals", "serialize"), "s"),
        "serialize.deserialize_s": (med(reruns, "totals", "serialize.deserialize"), "s"),
        "runtime.s": (med(reruns, "totals", "runtime"), "s"),
        "runtime.calls": (r["notes"].get("runtime.calls", 0), "count"),
        "records.created": (r["notes"].get("records.created", 0), "count"),
    }


def counts(reduction: dict) -> dict:
    """The parts of a reduction that must repeat exactly between operations."""
    return {
        k: reduction[k]
        for k in ("calls", "hits", "candidates", "distinct", "rounds", "statements", "notes")
    }
