"""Acceptance checklist: one test per criterion, at the stated tolerance.

Run with -v to get the per-criterion pass/fail lines.
"""

import bisect
import math
import random
import time

import pytest

import corpus
from reference import evaluate, reference_counts
from coolang import build, execute, precompile, preexecute
from coolang.cli import main as coolc
from coolang.code import (
    CodeType,
    Operand,
    OperandKind,
    SLOT_LEFT,
    SLOT_RIGHT,
    split_markers,
)
from coolang.errors import InferenceFailure, NotInvertible
from coolang.inversion import analyze_dependence, disassemble
from coolang.matching import match_branch
from coolang.preexec import PreexecUniverse
from coolang.runtime import run_program
from coolang.search import SearchOptions, apply_exp_rewrite
from coolang.segments import Segment
from coolang.serialize import deserialize, serialize
from coolang.silo import Silo

CLOSE = dict(rel_tol=1e-9, abs_tol=1e-9)


def statement_segment(t):
    root = [
        ln
        for ln in t.code.lines()
        if ln.ctype is CodeType.EXPR and ln.scope is None
    ][0]
    return Segment.from_run(t, t.expression_run(root.address))


def with_literals(t, subs):
    """A fresh copy of a bound table with statement literals swapped out."""
    t2 = deserialize(serialize(t))
    for ln in t2.code.lines():
        if ln.ctype is CodeType.EXPR and ln.scope is None:
            for s in (SLOT_LEFT, SLOT_RIGHT):
                o = ln.slot(s)
                if o.kind is OperandKind.NUMBER and o.num in subs:
                    ln.set_slot(s, Operand.number(subs[o.num]))
    return t2


def test_criterion_01_chained_derivation_prints_the_root(tmp_path, capsys):
    assert SearchOptions() == SearchOptions(
        silo_size=64, max_rounds=16, max_tree_nodes=8
    )
    src = tmp_path / "chained.cool"
    src.write_text(corpus.CHAINED_DERIVATION)
    start = time.perf_counter()
    assert coolc(["run", str(src)]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    assert math.isclose(float(out[0]), 46.0 - math.sqrt(98.0), rel_tol=0, abs_tol=1e-9)
    assert elapsed < 5.0


def test_criterion_02_member_solver_prints_the_increased_root():
    start = time.perf_counter()
    out = execute(corpus.CLASS_SOLVER).output
    elapsed = time.perf_counter() - start
    want = -2.0 + math.sqrt(104.0)
    assert math.isclose(float(out[0]), want, rel_tol=0, abs_tol=1e-9)
    assert math.isclose(float(out[1]), want + 10.0, rel_tol=0, abs_tol=1e-9)
    assert elapsed < 5.0


def test_criterion_03_quadratic_constraint_finds_the_unique_root():
    out = execute(corpus.QUADRATIC_CONSTRAINT).output
    assert math.isclose(float(out[0]), 1.0, rel_tol=0, abs_tol=1e-12)


def test_criterion_04_stated_small_behaviors():
    # a forward call increments the undeclared x from 0 to 1
    assert corpus.outputs(corpus.ADD_TO) == ["1.0"]
    # the block-local a reads 2 after writing through out:
    assert corpus.outputs(corpus.OUT_SCOPE) == ["2.0"]
    # multi-part names fuse with argument placeholders
    assert precompile("add(a)and(b)to(c);") == "add_ARG_and_ARG_to(a,b,c);"


def test_criterion_05_reverse_calls_run_descending_after_forward():
    src = """
@(1){ $a - 0 }{ a = ans; }
@g(a){ return: a; }
$x1 - 0;
g(1);
g(2);
$x4 - 0;
$x5 - 0;
"""
    t = build(src)
    preexecute(t)
    stmts = [
        ln
        for ln in t.code.lines()
        if ln.ctype is CodeType.EXPR and ln.scope is None and ln.root
    ]
    assert [ln.bound_reverse for ln in stmts] == [True, False, False, True, True]
    order = [ln.address for ln in stmts]
    for ln in list(t.code.lines()):
        if (
            ln.ctype is CodeType.EXPR_END
            and ln.scope is None
            and order[0] < ln.address < order[-1]
        ):
            t.code.remove(ln.address)
    interp = run_program(t)
    assert [order.index(a) + 1 for a in interp.call_log] == [2, 3, 5, 4, 1]


def test_criterion_06_silo_rules_hold_over_randomized_sequences():
    rng = random.Random(2024)
    for cap in (1, 2, 8, 64):
        for _ in range(1000):
            silo = Silo(cap)
            state = []  # model: (weight, digest) ascending, insert after equals
            seen = set()
            for _ in range(rng.randint(1, 40)):
                w = float(rng.randint(0, 5))
                d = rng.randint(0, 7)
                if (w, d) in seen:
                    admit = False
                else:
                    seen.add((w, d))
                    if len(state) >= cap and w <= state[0][0]:
                        admit = False
                    else:
                        if len(state) >= cap:
                            state.pop(0)
                        i = bisect.bisect_right([x[0] for x in state], w)
                        state.insert(i, (w, d))
                        admit = True
                assert silo.offer(w, d, d) is admit
                got = list(silo.entries())
                assert [(x[0], x[1]) for x in got] == state
                assert len(got) <= cap
                assert all(got[i][0] <= got[i + 1][0] for i in range(len(got) - 1))


_REWRITE_RULES = """
exp: @(-1){ #a + #b }{ return: b + a; }
exp: @(-2){ #a - #b }{ return: a + (-b); }
exp: @(-3){ $a == b }{ return: a - b == 0; }
exp: @(-4){ #a * #b + #a * #c }{ return: a * (b + c); }
exp: @(-5){ #a * (#b + #c) }{ return: a * b + a * c; }
"""


def _small_expr(rng):
    def leaf():
        if rng.random() < 0.5:
            return str(rng.randint(1, 9))
        return rng.choice(["q", "r", "s"])

    if rng.random() < 0.4:
        return leaf()
    return f"({leaf()} {rng.choice('+-*')} {leaf()})"


def test_criterion_07_rewrites_preserve_value_and_tree_shape():
    rng = random.Random(11)
    checked = 0
    for _ in range(100):
        a, b, c = (_small_expr(rng) for _ in range(3))
        x_side = "$x" if rng.random() < 0.3 else f"($x + {a})"
        cases = [
            (-1.0, f"{a} + {b};"),
            (-2.0, f"{a} - {b};"),
            (-3.0, f"{x_side} == {b};"),
            (-4.0, f"{a} * {b} + {a} * {c};"),
            (-5.0, f"{a} * ({b} + {c});"),
        ]
        vals = {n: rng.uniform(-9, 9) for n in ("q", "r", "s", "x")}
        env = vals.__getitem__
        for weight, stmt in cases:
            t = build(_REWRITE_RULES + stmt + "\n")
            seg = statement_segment(t)
            fn = [f for f in t.functions.values() if f.is_exp and f.weight == weight][0]
            m = match_branch(seg, seg.root, fn, PreexecUniverse(t).context_for(None))
            assert m is not None, stmt
            before = evaluate(seg, env)
            assert apply_exp_rewrite(seg, m, t) is not None, stmt
            after = evaluate(seg, env)
            assert math.isclose(before, after, **CLOSE), stmt
            # expanded rings leave a tree: nothing referenced twice
            assert all(n <= 1 for n in reference_counts(seg).values()), stmt
            # detached repair keeps exactly the reachable lines
            assert set(seg.subtree(seg.root)) == set(seg.lines), stmt
            checked += 1
    assert checked == 500


_SEARCH_RULES = {
    "comm": ("exp: @(-1){ #a + #b }{ return: b + a; }", -1.0),
    "addsub": ("exp: @(-2){ #a - #b }{ return: a + (-b); }", -2.0),
    "distr": ("exp: @(-4){ #a * (#b + #c) }{ return: a * b + a * c; }", -4.0),
}


def _canon(seg, a=None):
    a = seg.root if a is None else a
    ln = seg[a]
    parts = []
    for s in (SLOT_LEFT, SLOT_RIGHT):
        o = ln.slot(s)
        if o.kind is OperandKind.ADDRESS and o.addr in seg.lines and o.addr != a:
            parts.append(_canon(seg, o.addr))
        elif o.kind is OperandKind.NUMBER:
            parts.append(("n", o.num))
        elif o.kind is OperandKind.IDENT:
            parts.append(("i", split_markers(o.text)[0]))
        else:
            parts.append(None)
    return (ln.op.text, parts[0], parts[1])


def _engine_closure(expr_src, rule_names, kmax):
    src = "\n".join(_SEARCH_RULES[r][0] for r in rule_names) + f"\nf({expr_src});\n"
    t = build(src)
    events = set()

    def obs(rnd, w, seg):
        events.add((w, _canon(seg)))

    with pytest.raises(InferenceFailure):
        preexecute(
            t, options=SearchOptions(silo_size=10**6, max_rounds=kmax), observer=obs
        )
    return events


def _contains_pending(node):
    if node[0] == "i":
        return node[1] == "x"
    if node[0] == "n":
        return False
    return any(_contains_pending(c) for c in node[1:3] if c is not None)


def _rewrites_at(node, rule):
    if rule == "comm" and node[0] == "+":
        return [("+", node[2], node[1])]
    if rule == "addsub" and node[0] == "-":
        return [("+", node[1], ("neg", node[2], None))]
    if rule == "distr" and node[0] == "*" and node[2] is not None and node[2][0] == "+":
        a, b, c = node[1], node[2][1], node[2][2]
        return [("+", ("*", a, b), ("*", a, c))]
    return []


def _all_rewrites(node, rule):
    # determined subtrees are already bound, only pending ones rewrite
    out = []
    if node[0] in ("n", "i"):
        return out
    if _contains_pending(node):
        out.extend(_rewrites_at(node, rule))
    for i in (1, 2):
        child = node[i]
        if child is None or child[0] in ("n", "i"):
            continue
        for rw in _all_rewrites(child, rule):
            repl = list(node)
            repl[i] = rw
            out.append(tuple(repl))
    return out


def _brute_closure(tree, rule_names, kmax):
    level = {(0.0, ("f", tree, None))}
    closure = set()
    for _ in range(kmax):
        nxt = set()
        for w, node in level:
            for r in rule_names:
                for rw in _all_rewrites(node[1], r):
                    nxt.add((w + _SEARCH_RULES[r][1], ("f", rw, None)))
        level = nxt
        closure |= level
        if not level:
            break
    return closure


def _random_tree(rng, leaves):
    if leaves == 1:
        if rng.random() < 0.5:
            return ("n", float(rng.randint(1, 5)))
        return ("i", rng.choice(["q", "r"]))
    lt = rng.randint(1, leaves - 1)
    return (rng.choice(["+", "-", "*"]), _random_tree(rng, lt), _random_tree(rng, leaves - lt))


def _plant_pending(rng, node):
    if node[0] in ("n", "i"):
        return ("i", "x")
    if rng.random() < 0.5:
        return (node[0], _plant_pending(rng, node[1]), node[2])
    return (node[0], node[1], _plant_pending(rng, node[2]))


def _to_src(node):
    k = node[0]
    if k == "n":
        return str(int(node[1]))
    if k == "i":
        return "$x" if node[1] == "x" else node[1]
    return f"({_to_src(node[1])} {k} {_to_src(node[2])})"


def test_criterion_08_search_reaches_exactly_the_brute_force_closure():
    rng = random.Random(5)
    nonempty = 0
    for _ in range(24):
        tree = _plant_pending(rng, _random_tree(rng, rng.randint(2, 4)))
        names = rng.sample(sorted(_SEARCH_RULES), rng.randint(1, 3))
        kmax = rng.randint(2, 4)
        got = _engine_closure(_to_src(tree), names, kmax)
        want = _brute_closure(tree, names, kmax)
        assert got == want, (tree, names, kmax)
        if want:
            nonempty += 1
    assert nonempty >= 12  # the comparison must not pass vacuously


_APPLE_ROUND_TRIP = """
@(10){ $a * b }{ a = ans / b; }
@(10){ $a == b; }{ a = b; }
@ price of buying (a) kg of apple unit price (b){ return: a * b; }
  => @apple unit price (b) can be bought ($) kg;
new: p = 0;
apple unit price (2) can be bought ($p) kg == 10;
p --> 0;
new: check = price of buying (p) kg of apple unit price (2);
check --> 0;
"""

_CHAINED_ROUND_TRIP = corpus.CHAINED_DERIVATION + """new: check = get result from (x) and (y);
check --> 0;
"""


def test_criterion_09_derived_reverses_round_trip():
    rng = random.Random(3)

    apple = build(_APPLE_ROUND_TRIP)
    preexecute(apple)
    for _ in range(100):
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10.0)
        total = rng.uniform(-100.0, 100.0)
        out = run_program(with_literals(apple, {2.0: b, 10.0: total})).output
        assert math.isclose(float(out[0]), total / b, **CLOSE)
        assert math.isclose(float(out[1]), total, **CLOSE)

    chained = build(_CHAINED_ROUND_TRIP)
    preexecute(chained)
    for _ in range(100):
        y = rng.uniform(-20.0, 20.0)
        total = rng.uniform(-100.0, 100.0)
        out = run_program(with_literals(chained, {3.0: y, 50.0: total})).output
        x2 = y - 1.0
        z = (-x2 + math.sqrt(x2 * x2 - 4.0 * (y - 100.0))) / 2.0
        assert math.isclose(float(out[0]), total - y - x2 - z, **CLOSE)
        assert math.isclose(float(out[1]), total, **CLOSE)

    # the chained forward body disassembles into exactly fourteen blocks
    t = build(corpus.CHAINED_DERIVATION)
    preexecute(t)
    fwd = [
        f
        for f in t.functions.values()
        if f.name == "getresultfrom_ARG_and" and not f.is_reverse
    ][0]
    dis = disassemble(t, fwd, ["x"])
    analyze_dependence(dis)
    assert len(dis.blocks) == 14

    loop = """
@f(x, y){
    new: s = 0;
    while (x < y) {
        s = s + 1;
    }
    return: s;
} => @f($x, y);
new: q = 0;
"""
    with pytest.raises(NotInvertible):
        preexecute(build(loop))


def test_criterion_10_preexecution_touches_each_line_at_most_once():
    for name, src in corpus.ALL_PROGRAMS.items():
        t = build(src)
        visits = {}
        preexecute(t, visits=visits)
        assert all(n <= 1 for n in visits.values()), name


def test_criterion_11_determinism_and_lossless_code_files():
    for name, src in corpus.ALL_PROGRAMS.items():
        first = execute(src)
        second = execute(src)
        assert first.output == second.output, name
        assert serialize(first.tables) == serialize(second.tables), name
        text = serialize(first.tables)
        loaded = deserialize(text)
        assert serialize(loaded) == text, name
        assert run_program(loaded).output == first.output, name
