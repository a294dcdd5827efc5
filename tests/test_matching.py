from coolang import build
from coolang.addresses import Address
from coolang.code import CodeType, OperandKind, ScopeKind
import dataclasses

from unittest import mock

import pytest

from coolang import run_program
from coolang.matching import _Matcher, match_branch, pattern_reads
from coolang.preexec import PreexecUniverse, preexecute
from coolang.segments import Segment
from reference import class_mro


def universe(t):
    """Declare every live variable the way the pre-execution walker does."""
    uni = PreexecUniverse(t)
    a = t.code.first_address()
    while a is not None:
        ln = t.code[a]
        if ln.ctype is CodeType.SCOPE_START and t.scopes[a].kind is ScopeKind.DECL:
            a = t.code.next_after(t.scopes[a].end)
            continue
        if ln.ctype is CodeType.VAR_DECL:
            uni.declare_from(ln)
        a = t.code.next_after(a)
    return uni


def prep(src, op_text, fn_name, weight=None):
    """Segment over the last statement using op_text, plus one candidate."""
    t = build(src)
    uni = universe(t)
    target = [
        el
        for el in t.code.lines()
        if el.ctype is CodeType.EXPR and el.op.text == op_text
    ][-1]
    seg = Segment.from_run(t, t.expression_run(target.address))
    fns = [f for f in t.functions.values() if f.name == fn_name]
    if weight is not None:
        fns = [f for f in fns if f.weight == weight]
    return seg, target.address, fns[0], uni.context_for(target.scope)


def test_equal_concrete_value_matches():
    seg, branch, fn, ctx = prep(
        "@(5){ a + 1 }{ return: a; }\nnew: q = 0;\nq + 1 == 9;", "+", "+"
    )
    m = match_branch(seg, branch, fn, ctx)
    assert m is not None
    assert m.matched == [branch]
    assert m.bindings["a"].operand.text == "q"


def test_different_concrete_value_refuses():
    seg, branch, fn, ctx = prep(
        "@(5){ a + 1 }{ return: a; }\nnew: q = 0;\nq + 2 == 9;", "+", "+"
    )
    assert match_branch(seg, branch, fn, ctx) is None


def test_pending_formal_needs_a_pending_actual():
    src = "@solve($x, y){ x = y - 1; }\nsolve($q, 5);"
    seg, branch, fn, ctx = prep(src, "solve", "solve")
    m = match_branch(seg, branch, fn, ctx)
    assert m is not None
    assert m.bindings["x"].pending
    assert not m.bindings["y"].pending
    assert m.bindings["y"].operand.num == 5.0

    src = "@solve($x, y){ x = y - 1; }\nsolve(q, 5);"
    seg, branch, fn, ctx = prep(src, "solve", "solve")
    assert match_branch(seg, branch, fn, ctx) is None


def test_determined_formal_refuses_a_pending_actual():
    src = "@solve($x, y){ x = y - 1; }\nsolve($q, $r);"
    seg, branch, fn, ctx = prep(src, "solve", "solve")
    assert match_branch(seg, branch, fn, ctx) is None


def test_unrelated_formal_accepts_either_pending_state():
    for stmt in ["$q + 1 == 9;", "q + 1 == 9;"]:
        seg, branch, fn, ctx = prep(
            "exp: @(-1){ #a + 1 }{ return: 1 + a; }\nnew: q = 0;\n" + stmt, "+", "+"
        )
        assert match_branch(seg, branch, fn, ctx) is not None


def test_arity_mismatch_refuses():
    src = "@solve($x, y){ x = y - 1; }\nsolve($q);"
    seg, branch, fn, ctx = prep(src, "solve", "solve")
    assert match_branch(seg, branch, fn, ctx) is None


def test_repeated_formal_wants_the_same_variable():
    base = "@(1){ a + a }{ return: 2 * a; }\nnew: q = 0;\nnew: r = 0;\n"
    seg, branch, fn, ctx = prep(base + "q + q == 8;", "+", "+")
    assert match_branch(seg, branch, fn, ctx) is not None
    seg, branch, fn, ctx = prep(base + "q + r == 8;", "+", "+")
    assert match_branch(seg, branch, fn, ctx) is None


def test_repeated_formal_compares_whole_subtrees():
    cases = [
        ("(q + 1) + (q + 1) == 8;", True),
        ("(q + 1) + (q + 2) == 8;", False),
        # the repeated actuals are two rows deep: their whole subtrees compare
        ("((q + 1) * 2) + ((q + 1) * 2) == 8;", True),
        ("((q + 1) * 2) + ((q + 2) * 2) == 8;", False),
    ]
    for stmt, matches in cases:
        t = build("@(1){ a + a }{ return: 2 * a; }\nnew: q = 0;\n" + stmt)
        uni = universe(t)
        outer = [
            el
            for el in t.code.lines()
            if el.ctype is CodeType.EXPR
            and el.op.text == "+"
            and el.left.kind is OperandKind.ADDRESS
            and el.right.kind is OperandKind.ADDRESS
        ][-1]
        seg = Segment.from_run(t, t.expression_run(outer.address))
        fn = [f for f in t.functions.values() if f.name == "+"][0]
        found = match_branch(seg, outer.address, fn, uni.context_for(outer.scope))
        assert (found is not None) == matches, stmt


def test_pattern_with_internal_operator_claims_prebound_lines():
    src = "@(2){ a * (b + c) }{ return: a * b + a * c; }\nnew: q = 0;\n2 * (3 + q) == 8;"
    seg, branch, fn, ctx = prep(src, "*", "*")
    plus = [a for a in seg.lines if seg[a].op.text == "+"][0]
    assert seg[plus].bound is not None  # prebound, still claimable
    m = match_branch(seg, branch, fn, ctx)
    assert m is not None
    assert set(m.matched) == {branch, plus}


def test_lines_owned_by_another_function_are_off_limits():
    src = "@(2){ a * (b + c) }{ return: a * b + a * c; }\nnew: q = 0;\n2 * (3 + q) == 8;"
    seg, branch, fn, ctx = prep(src, "*", "*")
    plus = [a for a in seg.lines if seg[a].op.text == "+"][0]
    seg[plus].bound = Address((999,))  # user binding, not a default
    assert match_branch(seg, branch, fn, ctx) is None


def test_out_marked_pattern_leaf_wants_shared_storage():
    base = "new: base = 10;\n@(1){ a + out: base }{ return: a; }\nnew: q = 0;\nnew: other = 3;\n"
    seg, branch, fn, ctx = prep(base + "q + base == 9;", "+", "+")
    assert match_branch(seg, branch, fn, ctx) is not None
    seg, branch, fn, ctx = prep(base + "q + other == 9;", "+", "+")
    assert match_branch(seg, branch, fn, ctx) is None


def test_member_path_actual_resolves_then_compares_storage():
    src = (
        "system: C {\n"
        "  new: x = 1;\n"
        "  @(1){ a + out: x }{ return: a; }\n"
        "}\n"
        "C: m;\n"
        "new: q = 0;\n"
        "q + m.x == 9;"
    )
    seg, branch, fn, ctx = prep(src, "+", "+")
    assert match_branch(seg, branch, fn, ctx) is not None


def test_dotted_call_matches_a_member_of_the_receiver_class():
    src = "system: C {\n  @f(n){ return: n; }\n}\nC: m;\nm.f(3);"
    seg, branch, fn, ctx = prep(src, "m.f", "f")
    m = match_branch(seg, branch, fn, ctx)
    assert m is not None
    assert m.bindings["n"].operand.num == 3.0


def test_dotted_call_refuses_a_foreign_class_member():
    src = (
        "system: C {\n  @f(n){ return: n; }\n}\n"
        "system: D {\n  @g(n){ return: n; }\n}\n"
        "D: d;\nd.f(3);"
    )
    seg, branch, fn, ctx = prep(src, "d.f", "f")
    assert match_branch(seg, branch, fn, ctx) is None


def test_string_actual_fails_a_numeric_formal():
    src = '@h(x){ return: x; }\nh("text");'
    seg, branch, fn, ctx = prep(src, "h", "h")
    assert match_branch(seg, branch, fn, ctx) is None
    src = "@h(x){ return: x; }\nh(3);"
    seg, branch, fn, ctx = prep(src, "h", "h")
    assert match_branch(seg, branch, fn, ctx) is not None


def test_mro_lists_own_class_then_parents_in_order():
    import corpus

    t = build(corpus.CLASS_SOLVER)
    scopes = {info.name: scope for scope, info in t.classes.items()}
    mro = class_mro(t, scopes["MainProcess"])
    assert list(t.class_order(scopes["MainProcess"])) == mro == [
        scopes["MainProcess"],
        scopes["OperationLaw"],
        scopes["QuadraticEquation"],
    ]


def test_member_functions_put_own_members_before_inherited():
    import corpus

    t = build(corpus.CLASS_SOLVER)
    scopes = {info.name: scope for scope, info in t.classes.items()}
    names = {scope: info.name for scope, info in t.classes.items()}
    ctx = PreexecUniverse(t).context_for(None)
    last = t.code.addresses()[-1]

    def members(cls):
        """The class's members by root operator, through a member call."""
        member_ctx = dataclasses.replace(ctx, instance_class=lambda recv: scopes[cls])
        ops = {f.name for f in t.functions.values()}
        return {
            op: [
                (f.name, names[f.class_scope])
                for f in ctx.declarations.candidates("m." + op, member_ctx, last)
            ]
            for op in ops
        }

    def per_op(expected):
        return {
            op: [e for e in expected if e[0] == op]
            for op in {f.name for f in t.functions.values()}
        }

    assert members("MainProcess") == per_op(
        [
            ("constructor", "MainProcess"),
            ("increase", "MainProcess"),
            ("==", "OperationLaw"),
            ("-", "OperationLaw"),
            ("==", "QuadraticEquation"),
        ]
    )
    assert members("OperationLaw") == per_op(
        [("==", "OperationLaw"), ("-", "OperationLaw")]
    )


@pytest.mark.parametrize(
    "pattern, reads",
    [
        ("#a + #b", (1, False, False)),
        ("2 * #a", (1, False, False)),
        ("#a - #a", (1, True, True)),
        ("#a * (#b + #c)", (2, False, True)),
        ("#a * (#b + #a)", (2, True, True)),
        ("$a + 1 + 1", (2, True, False)),
    ],
)
def test_pattern_reads_counts_lines_and_names_the_slots_read_whole(pattern, reads):
    t = build(f"exp: @(-1){{ {pattern} }}{{ return: 0; }}\n")
    (fn,) = t.functions.values()
    assert pattern_reads(t, fn) == reads


def test_a_deep_pattern_walks_only_a_branch_as_large_as_itself():
    # 1 200 `+` branches share the pattern's root operator, but only the
    # top one has as many lines as the 1 200-line pattern
    n = 1200
    ones = " + 1" * n
    t = build(
        f"@(10){{ $a{ones} }}{{ a = ans - {n}; }}\n"
        "@(10){ $a == b; }{ a = b; }\n"
        f"$y{ones} == {n + 5};\ny --> 0;\n"
    )
    walks = []  # per match_line walk, the line pairs it aligned
    real_walk, real_op = _Matcher.match_line, _Matcher._op_matches

    def match_line(self, seg_ln, decl_ln):
        walks.append(0)
        return real_walk(self, seg_ln, decl_ln)

    def op_matches(self, seg_op, decl_op):
        walks[-1] += 1
        return real_op(self, seg_op, decl_op)

    with mock.patch.object(_Matcher, "match_line", match_line), mock.patch.object(
        _Matcher, "_op_matches", op_matches
    ):
        preexecute(t)
    assert 1 <= sum(n > 1 for n in walks) <= 3
    assert run_program(t).output == ["5.0"]
