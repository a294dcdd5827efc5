"""coolang benchmark: compile and rerun time on generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload deep_bind --seed 1 --seconds 30 --trace 0

It builds nothing: it imports the toolchain from `src/` beside this
directory and fails (exit code 2, no result) when that is missing. With
`--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See README.md beside this
file for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import sys
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibration
import layers
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_RUNS = 5
MIN_PHASE_S = 3.0
MIN_SAMPLES = 3
MIN_TRACED = 2  # traced operations, so that counts can be seen to repeat


class ToolchainMissing(Exception):
    pass


def import_toolchain():
    """Import coolang afresh from the checkout's `src/`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "coolang" or m.startswith("coolang.")]:
        del sys.modules[name]
    import coolang
    import coolang.cli
    import coolang.records

    if Path(coolang.__file__).resolve().parent != (SRC / "coolang").resolve():
        raise ToolchainMissing(f"coolang was imported from {coolang.__file__}")
    return coolang


@dataclass
class Timing:
    """Seconds of each timed call: raw, the calibration kernel's, and scaled."""

    raw: list[float] = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    def add(self, raw_s: float, kernel_s: float) -> None:
        self.raw.append(raw_s)
        self.kernels.append(kernel_s)
        self.scaled.append(calibration.scaled(raw_s, kernel_s))

    def median(self) -> float:
        return statistics.median(self.scaled)

    def describe(self) -> str:
        q = statistics.quantiles(self.scaled, n=4)
        return (
            f"median {self.median():.6g}, p25 {q[0]:.6g}, p75 {q[2]:.6g}, "
            f"n={len(self.scaled)} samples, raw wall median {statistics.median(self.raw):.6g}"
        )


class Bench:
    def __init__(self, cl, program: workloads.Program):
        self.cl = cl
        self.program = program
        self.attempted = 0
        self.failed = 0
        self.ref_ccode: str | None = None

    # --- checked operations ---

    def fail(self, what: str, detail: str = "") -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {self.program.workload}: {what}", file=sys.stderr)
            if detail:
                print(detail, file=sys.stderr)

    def record(self, what: str, outcome, check) -> None:
        """Count one attempted operation; outcome is (result, exc_text)."""
        self.attempted += 1
        result, exc_text = outcome
        if exc_text is not None:
            self.fail(f"{what} raised", exc_text)
        elif not check(result):
            self.fail(f"{what} gave a wrong result")

    def compile_ok(self, tables) -> bool:
        return self.cl.serialize(tables) == self.ref_ccode

    def output_ok(self, interp) -> bool:
        return workloads.output_matches(interp.output, self.program.expected)

    # --- the two timed operations ---

    def compile(self):
        cl = self.cl
        tables = cl.load(cl.parse(cl.precompile(self.program.source)))
        cl.preexecute(tables)
        return tables

    def rerun(self):
        interp = self.cl.Interpreter(self.cl.deserialize(self.ref_ccode))
        interp.run()
        return interp


def attempt(fn):
    try:
        return fn(), None
    except Exception:  # the failure is counted and reported, the run goes on
        return None, traceback.format_exc()


def timed_calls(fn, on_result, seconds: float, count: int = MIN_SAMPLES) -> Timing:
    """Time fn one call at a time until `seconds` have passed and at least
    `count` calls are done.

    Each call is scaled by the mean of the calibrations on either side of
    it; the calibration between two calls serves both. on_result gets each
    call's (result, traceback text or None), untimed, before the next
    calibration, so no result outlives its check.
    """
    timing = Timing()
    deadline = perf_counter() + seconds
    before = calibration.calibrate(0.0)
    calls = 0
    while calls < count or perf_counter() < deadline:
        t0 = perf_counter()
        outcome = attempt(fn)
        raw = perf_counter() - t0
        on_result(outcome)
        del outcome
        after = calibration.calibrate(raw)
        timing.add(raw, (before + after) / 2)
        before = after
        calls += 1
    return timing


def timed_checked(bench: Bench, what: str, fn, check, seconds: float) -> Timing:
    return timed_calls(fn, lambda outcome: bench.record(what, outcome, check), seconds)


def phase_seconds(seconds: float, compile_s: float, rerun_s: float) -> tuple[float, float]:
    """Split the run between compiles and reruns in proportion to their cost."""
    spare = max(0.0, seconds - 2 * MIN_PHASE_S)
    share = compile_s / (compile_s + rerun_s)
    return MIN_PHASE_S + spare * share, MIN_PHASE_S + spare * (1 - share)


# --- untimed passes ---


def first_pass(bench: Bench, trace_memory: bool) -> tuple[float, float, float]:
    """`coolc preexec prog.cool`, then `coolc run prog.ccode`, untimed.

    The written .ccode becomes the reference that every later compile must
    match byte for byte; the run must exit 0 and print the reference
    values. Returns the wall time of each command and, with trace_memory,
    the tracemalloc peak over both in MiB. Under tracemalloc the times are
    inflated, but they are only used to split the run and size the first
    calibration.
    """
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{bench.program.workload}-{bench.program.seed}-{os.getpid()}"
    source, ccode = stem.with_suffix(".cool"), stem.with_suffix(".ccode")
    source.write_text(bench.program.source)
    main = bench.cl.cli.main
    stdout = io.StringIO()
    gc.collect()
    if trace_memory:
        tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout):
            t0 = perf_counter()
            compiled = attempt(lambda: main(["preexec", str(source), "-o", str(ccode)]))
            t1 = perf_counter()
            ran = attempt(lambda: main(["run", str(ccode)]))
            t2 = perf_counter()
        peak = tracemalloc.get_traced_memory()[1] if trace_memory else 0
    finally:
        if trace_memory:
            tracemalloc.stop()
        if ccode.exists():
            bench.ref_ccode = ccode.read_text()
            ccode.unlink()
        source.unlink()
    lines = stdout.getvalue().splitlines()
    bench.record("coolc preexec", compiled, lambda rc: rc == 0)
    bench.record(
        "coolc run",
        ran,
        lambda rc: rc == 0 and workloads.output_matches(lines, bench.program.expected),
    )
    return t1 - t0, t2 - t1, peak / 2**20


# --- the two kinds of run ---


def measure_setup(workload: str, seed: int):
    """Import the toolchain and generate the program, SETUP_RUNS times."""
    last = {}
    timing = timed_calls(
        lambda: (import_toolchain(), workloads.generate(workload, seed)),
        lambda outcome: last.update(outcome=outcome),
        seconds=0.0,
        count=SETUP_RUNS,
    )
    result, exc_text = last["outcome"]
    if exc_text is not None:
        raise ToolchainMissing(exc_text)
    cl, program = result
    return timing, cl, program


def end_to_end(workload: str, seed: int, seconds: float):
    setup, cl, program = measure_setup(workload, seed)
    bench = Bench(cl, program)
    compile_est, rerun_est, peak_mb = first_pass(bench, trace_memory=True)
    if bench.ref_ccode is None:
        return bench, None
    compile_budget, rerun_budget = phase_seconds(seconds, compile_est, rerun_est)
    compiles = timed_checked(bench, "compile", bench.compile, bench.compile_ok, compile_budget)
    reruns = timed_checked(bench, "rerun", bench.rerun, bench.output_ok, rerun_budget)
    report = {
        "setup_s": (setup, "s"),
        "compile_s": (compiles, "s"),
        "rerun_s": (reruns, "s"),
        "ccode_bytes": (len(bench.ref_ccode.encode()), "bytes"),
        "peak_mem_mb": (peak_mb, "MiB"),
    }
    return bench, report


def traced_compile(bench: Bench, tracer: layers.Tracer):
    cl = bench.cl
    with tracer.operation("compile"):
        with tracer.span("precompile"):
            text = cl.precompile(bench.program.source)
        with tracer.span("parser"):
            lines = cl.parse(text)
        with tracer.span("loader"):
            tables = cl.load(lines)
        tracer.note("loader.lines", len(tables.code.addresses()))
        tracer.note("loader.functions", len(tables.functions))
        with tracer.span("preexec"):
            cl.preexecute(tables, observer=tracer.observer, on_bound=tracer.on_bound)
    with tracer.operation("serialize"):
        with tracer.span("serialize"):
            cl.serialize(tables)
    return tables


def traced_rerun(bench: Bench, tracer: layers.Tracer):
    cl = bench.cl
    before = cl.records.created_count
    with tracer.operation("rerun"):
        with tracer.span("serialize.deserialize"):
            tables = cl.deserialize(bench.ref_ccode)
        with tracer.span("runtime"):
            interp = cl.Interpreter(tables)
            interp.run()
    tracer.note("runtime.calls", len(interp.call_log))
    tracer.note("records.created", cl.records.created_count - before)
    return interp


def per_layer(workload: str, seed: int, seconds: float):
    cl = import_toolchain()
    program = workloads.generate(workload, seed)
    bench = Bench(cl, program)
    first_pass(bench, trace_memory=False)
    if bench.ref_ccode is None:
        return bench, None

    def pair():
        return bench.compile(), bench.rerun()

    def pair_ok(result) -> bool:
        return bench.compile_ok(result[0]) and bench.output_ok(result[1])

    untraced = timed_checked(bench, "compile and rerun", pair, pair_ok, seconds / 2)

    tracer = layers.Tracer()
    compiles, reruns = [], []

    def traced_pair():
        keep = not compiles
        compiled = attempt(lambda: traced_compile(bench, tracer))
        c = tracer.take(keep)
        rerun = attempt(lambda: traced_rerun(bench, tracer))
        r = tracer.take(keep)
        return compiled, rerun, c, r

    def traced_ok(outcome) -> None:
        (compiled, rerun, c, r), _ = outcome
        bench.record("traced compile", compiled, bench.compile_ok)
        bench.record("traced rerun", rerun, bench.output_ok)
        for mine, first in ((c, compiles), (r, reruns)):
            if first and layers.counts(mine) != layers.counts(first[0]):
                bench.fail("a traced count differs between two operations")
            first.append(mine)

    with tracer.installed():
        traced = timed_calls(traced_pair, traced_ok, seconds / 2, count=MIN_TRACED)

    for c, r, kernel_s in zip(compiles, reruns, traced.kernels):
        c["kernel_s"] = r["kernel_s"] = kernel_s

    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload}-{seed}.jsonl.gz"))
    report = layers.layer_metrics(compiles, reruns)
    report["trace.overhead_ratio"] = (traced.median() / untraced.median(), "ratio")
    return bench, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "coolang" / "__init__.py").is_file():
        print(f"perfbench: no coolang package under {SRC}", file=sys.stderr)
        return 2
    try:
        run = per_layer if args.trace else end_to_end
        bench, report = run(args.workload, args.seed, args.seconds)
    except ToolchainMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if report is None:
        print("perfbench: the workload does not compile; nothing to measure", file=sys.stderr)
        return 1

    metrics = {}
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in report.items():
        if isinstance(value, Timing):
            print(f"  {name} [{unit}]: {value.describe()}")
            value = value.median()
        else:
            print(f"  {name} [{unit}]: {value:.6g}")
        metrics[name] = {"value": value, "unit": unit}
    print(
        f"  fail_ratio: {bench.failed}/{bench.attempted} = "
        f"{bench.failed / bench.attempted:.6g}"
    )
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
