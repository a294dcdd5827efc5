"""Seeded COOL programs for the benchmark, each with a closed-form reference.

Every generator takes a seed and returns the program's source text plus
the values it must print, computed here in plain Python and never by the
toolchain. The seed picks only constants, most of them with a fixed
number of digits. Each workload's shape (number of statements, chain
depths, loop length) is fixed, so every seed does the same work and
timings from different seeds are comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Program:
    workload: str
    seed: int
    source: str
    expected: tuple[float, ...]  # one value per printed line, in order


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shift_unit(rng: random.Random) -> tuple[str, float]:
    """One small derived inverse, so that every workload runs derivation.

    Placed after a workload's main statements, it is not among the
    declarations they can reach, so it leaves their searches unchanged.
    It needs the reverse `+` and `==` declarations.
    """
    k = rng.randint(10, 99)
    t = rng.randint(100, 999)
    src = (
        "@ shift (a) by (b){ return: a + b; } => @ unshift ($a) by (b);\n"
        f"new: h = 0;\nunshift ($h) by ({k}) == {t};\nh --> 0;\n"
    )
    return src, float(t - k)


# deep_bind: sum chains whose binding needs a deep silo search. The
# commuting rule multiplies the candidates each round, so nearly all of the
# compile time goes to search, matching, copies and digests.
CHAIN_DEPTHS = (7, 9)

_CHAIN_DECLS = """\
exp: @(-1){ #a + #b }{ return: b + a; }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
"""


def deep_bind(seed: int) -> Program:
    rng = _rng("deep_bind", seed)
    parts = [_CHAIN_DECLS]
    expected = []
    for i, depth in enumerate(CHAIN_DEPTHS):
        ks = [rng.randint(10, 99) for _ in range(depth)]
        c = rng.randint(1000, 9999)
        terms = " + ".join(str(k) for k in ks)
        parts.append(f"new: y{i} = 0;\n$y{i} + {terms} == {c};\ny{i} --> 0;\n")
        expected.append(float(c - sum(ks)))
    src, value = _shift_unit(rng)
    parts.append(src)
    expected.append(value)
    return Program("deep_bind", seed, "".join(parts), tuple(expected))


# wide_program: many small units under one flat table. Each statement needs
# only a shallow search, so per-declaration and per-statement fixed costs
# (loading, table rescans, splicing, derivation) dominate the compile.
WIDE_UNITS = 80

_WIDE_DECLS = """\
@(100){ a * $x^2 + b * x + c }{ x = (-b + (b^2 - 4 * a * (c - ans))^0.5) / (2 * a); }
@(10){ $a * b }{ a = ans / b; }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
"""


def _quadratic_unit(i: int, rng: random.Random) -> tuple[str, float]:
    # x^2 + b x + c == 0 with c = -(r^2 + b r): the larger root is exactly r
    r = rng.randint(10, 99)
    b = rng.randint(10, 99)
    c = -(r * r + b * r)
    src = f"new: q{i} = 0;\n1 * $q{i}^2 + {b} * q{i} + ({c}) == 0;\nq{i} --> 0;\n"
    root = (-b + math.sqrt(b * b - 4 * c)) / 2
    return src, root


def _derived_unit(i: int, rng: random.Random) -> tuple[str, float]:
    # forward a * m + b, derived reverse solves inv($u) with (b) == t
    m = rng.randint(2, 9)
    b = rng.randint(10, 99)
    u = rng.randint(10, 99)
    t = u * m + b
    src = (
        f"@ lin{i} (a) with (b){{ return: a * {m} + b; }} => @ inv{i} ($a) with (b);\n"
        f"new: u{i} = 0;\ninv{i} ($u{i}) with ({b}) == {t};\nu{i} --> 0;\n"
    )
    return src, (t - b) / m


def _forward_unit(i: int, rng: random.Random) -> tuple[str, float]:
    m = rng.randint(2, 9)
    k = rng.randint(10, 99)
    v = rng.randint(10, 99)
    src = (
        f"@fw{i}(a, b){{ b = b + a * {m}; }}\n"
        f"new: v{i} = {v};\nfw{i}({k}, v{i});\nv{i} --> 0;\n"
    )
    return src, float(v + k * m)


def _class_unit(i: int, rng: random.Random) -> tuple[str, float]:
    k1 = rng.randint(10, 99)
    k2 = rng.randint(10, 99)
    src = (
        f"system: Acc{i} {{\n  new: s = 0;\n  @put(n){{ s = s + n; }}\n}}\n"
        f"Acc{i}: o{i};\no{i}.put({k1});\no{i}.put({k2});\no{i}.s --> 0;\n"
    )
    return src, float(k1 + k2)


_WIDE_KINDS = (_quadratic_unit, _derived_unit, _forward_unit, _class_unit)


def wide_program(seed: int) -> Program:
    rng = _rng("wide_program", seed)
    parts = [_WIDE_DECLS]
    expected = []
    for i in range(WIDE_UNITS):
        src, value = _WIDE_KINDS[i % len(_WIDE_KINDS)](i, rng)
        parts.append(src)
        expected.append(value)
    return Program("wide_program", seed, "".join(parts), tuple(expected))


# loop_run: one short program whose while loop runs many times. Compiling
# takes milliseconds and binds once; rerunning the bound table is nearly
# all interpreter work: a reverse-bound constraint, a forward call and
# plain updates on every iteration.
LOOP_ITERATIONS = 3000

_LOOP_DECLS = """\
@(10){ $a * b }{ a = ans / b; }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
@acc(a, b){ b = b + a; }
"""


def loop_run(seed: int) -> Program:
    rng = _rng("loop_run", seed)
    m = rng.choice((2, 4, 5, 8))
    k = rng.randint(10, 99)
    src = _LOOP_DECLS + (
        "new: i = 0;\nnew: x = 0;\nnew: total = 0;\n"
        f"while (i < {LOOP_ITERATIONS}) {{\n"
        f"  $x * {m} + {k} == i;\n"
        "  acc(x, total);\n"
        "  i = i + 1;\n"
        "}\n"
        "total --> 0;\ni --> 0;\n"
    )
    total = 0.0
    for i in range(LOOP_ITERATIONS):
        total += (i - k) / m
    shift_src, shift_value = _shift_unit(rng)
    return Program(
        "loop_run", seed, src + shift_src, (total, float(LOOP_ITERATIONS), shift_value)
    )


GENERATORS = {
    "deep_bind": deep_bind,
    "wide_program": wide_program,
    "loop_run": loop_run,
}


def generate(workload: str, seed: int) -> Program:
    return GENERATORS[workload](seed)


def output_matches(output: list[str], expected: tuple[float, ...]) -> bool:
    """Printed lines equal the reference values, within 1e-9 relative."""
    if len(output) != len(expected):
        return False
    for line, want in zip(output, expected):
        try:
            got = float(line)
        except ValueError:
            return False
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            return False
    return True
