import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from coolang import execute, preexecute
from coolang.addresses import Address
from coolang.code import CodeLine, CodeType, Operand, PendFlag, ScopeKind
from coolang.errors import (
    CoolError,
    DuplicateDeclaration,
    FunctionWithoutBody,
    InheritanceOfUndeclaredClass,
    LoadError,
    UnbalancedScopes,
)
from coolang.loader import load
from coolang.parser import parse
from coolang.precompile import precompile


def build(src):
    return load(parse(precompile([src])))


CODE_MAIN = """
@(100){ a * $x^2 + b * x + c }{ x = (-b + (b^2 - 4 * a * (c - ans))^0.5) / (2 * a); }
exp: @(-1){ #a + #b }{ return: b + a; }
exp: @(-1){ #a - #b }{ return: a + (-b); }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
@ get result from (x) and (y) {
    new: a = x + y;
    $x + 1 == y;
    new: z = 0;
    1 * $z^2 + x * z + y == 100;
    return: a + x + z;
} => @ get result from ($x) and (y);
new: x = 0;
new: y = 3;
get result from ($x) and (y) == 50;
x --> 0;
"""


def test_addresses_are_sequential_single_level():
    t = build("new: a = 1; a --> 0;")
    assert t.code.addresses() == [Address((i,)) for i in range(1, len(t.code) + 1)]


def test_scope_table_structure():
    t = build("@add(a, b){ return: a + b; }")
    kinds = sorted(s.kind.value for s in t.scopes.values())
    assert kinds == ["body", "decl"]
    body = [s for s in t.scopes.values() if s.kind is ScopeKind.BODY][0]
    decl = [s for s in t.scopes.values() if s.kind is ScopeKind.DECL][0]
    (fn,) = t.functions.values()
    assert (fn.body_scope, fn.decl_scope) == (body.start, decl.start)
    assert body.parent is None and decl.parent is None
    assert t.code[decl.start].ctype is CodeType.SCOPE_START
    assert t.code[decl.end].ctype is CodeType.SCOPE_END


def test_pending_marker_strips_and_propagates_within_expression():
    t = build("new: x = 0; new: y = 3; $x + 1 == y; x --> 0;")
    add = [el for el in t.code.lines() if el.op.text == "+"][0]
    assert add.left.text == "x"  # marker stripped from text
    assert add.pending[1] is PendFlag.TRUE
    out = [el for el in t.code.lines() if el.op.text == "-->"][0]
    # different longest expression: no propagation across statements
    assert out.pending[1] is PendFlag.FALSE


def test_propagation_covers_repeated_occurrences():
    t = build("1 * $z^2 + x * z + y == 100;")
    occurrences = [
        (el.op.text, s)
        for el in t.code.lines()
        for s in (1, 2)
        if el.slot(s).kind.value == "i" and el.slot(s).text == "z"
    ]
    assert len(occurrences) == 2
    for el in t.code.lines():
        for s in (1, 2):
            if el.slot(s).kind.value == "i" and el.slot(s).text == "z":
                assert el.pending[s] is PendFlag.TRUE


def test_an_unrelated_marker_spreads_over_its_pattern_only():
    t = build("exp: @(1){ #a * (a + 1) }{ return: a; }")
    decl = t.scopes[list(t.functions.values())[0].decl_scope]
    a_slots = [
        (el, s)
        for el in t.code.between(decl.start, decl.end)
        for s in (1, 2, 3)
        if el.slot(s).kind.value == "i" and el.slot(s).text == "a"
    ]
    assert len(a_slots) == 2
    for el, s in a_slots:
        assert el.pending[s] is PendFlag.UNRELATED and el.formal[s]
    unrelated = {el.address for el in t.code.lines() if PendFlag.UNRELATED in el.pending}
    assert unrelated == {el.address for el, _ in a_slots}


def test_formal_flags_only_inside_declarations():
    t = build("@add(a, b){ return: a + b; }")
    fn = list(t.functions.values())[0]
    root = t.code[fn.decl_root]
    assert root.formal[1] and root.formal[2]
    body_add = [
        el for el in t.code.lines() if el.op.text == "+" and el.address != root.address
    ][0]
    assert not body_add.formal[1] and not body_add.formal[2]


def test_out_marked_formal_stays_actual():
    t = build("exp: @sin(out: pi/2 - a){ return: cos(a); }")
    fn = list(t.functions.values())[0]
    div = [el for el in t.code.lines() if el.op.text == "/"][0]
    assert div.left.text == "out:pi"
    assert not div.formal[1]
    sub = [el for el in t.code.lines() if el.op.text == "-"][0]
    assert sub.formal[2]
    assert fn.is_exp


def test_function_table_for_full_program():
    t = build(CODE_MAIN)
    fns = list(t.functions.values())
    assert len(fns) == 7
    names = [f.name for f in fns]
    assert names.count("getresultfrom_ARG_and") == 2
    fwd = [f for f in fns if f.name == "getresultfrom_ARG_and" and not f.is_reverse][0]
    rev = [f for f in fns if f.name == "getresultfrom_ARG_and" and f.is_reverse][0]
    assert fwd.body_scope is not None
    assert len(fwd.returns) == 1
    assert rev.body_scope is None
    quad = [f for f in fns if f.weight == 100.0][0]
    assert quad.is_reverse and not quad.is_exp
    exps = [f for f in fns if f.is_exp]
    assert len(exps) == 2 and all(f.weight == -1.0 for f in exps)
    revs = [f for f in fns if f.weight == 10.0]
    assert len(revs) == 2 and all(f.is_reverse for f in revs)


def test_reverse_flag_from_anonymous_pending():
    t = build("@f(a, b){ return: a * b; } => @f(b, $);")
    rev = [f for f in t.functions.values() if f.body_scope is None][0]
    assert rev.is_reverse
    root = t.code[rev.decl_root]
    assert root.pending[2] is PendFlag.TRUE
    assert root.slot(2).text == ""


def test_function_without_body_and_without_derivation():
    with pytest.raises(FunctionWithoutBody):
        build("@f(a, b);")


@pytest.mark.parametrize("name", corpus.WRITTEN)
def test_a_function_keeps_the_table_rows_of_its_declaration(name):
    # index gathers each declaration's rows once; no later stage may
    # replace one, or the function would read rows the table no longer holds
    t = build(corpus.WRITTEN[name])
    preexecute(t)
    for fn in t.functions.values():
        info = t.scopes[fn.decl_scope]
        rows = [x for x in t.code.between(info.start, info.end) if x.ctype is CodeType.EXPR]
        assert fn.decl_rows == rows
        assert all(x is y for x, y in zip(fn.decl_rows, rows))
        assert fn.decl_rows[-1].address == fn.decl_root


def test_each_return_belongs_to_the_innermost_body_that_holds_it():
    # f's return: in its if is f's; g's return: is g's alone
    src = (
        "@f(x){ if (x > 1) { return: x * 2; } @g(y){ return: y + 1; } return: g(x); }\n"
        "f(3) --> 0;\nf(0) --> 0;\n"
    )
    returns = {fn.name: fn.returns for fn in build(src).functions.values()}
    assert returns == {"f": [Address((13,)), Address((28,))], "g": [Address((24,))]}
    assert execute(src).output == ["6.0", "1.0"]


def test_a_derive_marker_apart_from_its_declaration_is_a_load_error():
    # derivation writes the body between the declaration and its marker, so
    # the marker must follow the declaration's end row; with a variable
    # between them the body had nowhere to go, and preexecute found 0
    # candidates for g
    lines = parse(precompile(["@f(x){ return: x + 1; } => @g($x);\nnew: h = 0;\ng($h) == 3;\n"]))
    i = next(i for i, ln in enumerate(lines) if ln.ctype is CodeType.DERIVE_FUNC)
    assert lines[i + 1].ctype is CodeType.VAR_DECL
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    message = r"^function at 11 has no body, and code line 16 derives none$"
    with pytest.raises(FunctionWithoutBody, match=message):
        load(lines)
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    assert load(lines).functions


def test_class_tables_and_inheritance():
    src = """
    system: OperationLaw { exp: @(-10){ $a == b }{ return: a - b == 0; } }
    system: QuadraticEquation { @(-100){ a * $x^2 + b * x + c == 0; }{ x = a; } }
    system: MainProcess << OperationLaw, QuadraticEquation {
        new: x = 1;
        @increase(n){ x = x + n; }
    }
    MainProcess: m;
    """
    t = build(src)
    assert len(t.classes) == 3
    main = [c for c in t.classes.values() if c.name == "MainProcess"][0]
    assert len(main.parents) == 2
    parent_names = [t.classes[p].name for p in main.parents]
    assert parent_names == ["OperationLaw", "QuadraticEquation"]
    inc = [f for f in t.functions.values() if f.name == "increase"][0]
    assert inc.class_scope == main.scope
    inst = [el for el in t.code.lines() if el.ctype is CodeType.VAR_DECL and el.left.text][0]
    assert inst.left.text == "MainProcess" and inst.result.text == "m"


def test_inheritance_of_undeclared_class():
    with pytest.raises(InheritanceOfUndeclaredClass):
        build("system: A << Missing { new: x = 1; }")


def _scope(kind):
    return [
        CodeLine(CodeType.SCOPE_START, left=Operand.ident(kind)),
        CodeLine(CodeType.SCOPE_END),
    ]


def _function(body):
    """A function row at line 1 over the declaration scope at line 2, whose
    body operand is `body`."""
    return [
        CodeLine(CodeType.FUNC_OP, Operand.ident("func"), Operand.address(Address((2,))),
                 body, Operand.number(0)),
        CodeLine(CodeType.SCOPE_START, left=Operand.ident("decl")),
        CodeLine(CodeType.EXPR, Operand.ident("f"), Operand.ident("a"),
                 result=Operand.address(Address((3,)))),
        CodeLine(CodeType.SCOPE_END),
    ]


def test_a_scope_inside_a_declaration_keeps_its_rows_in_the_pattern():
    # the parser never nests a scope in a declaration, but a hand-written
    # stream may: every EXPR row inside the declaration scope is a pattern
    # row, the nested scope's included, and the last one is the root
    inner = [
        CodeLine(CodeType.SCOPE_START, left=Operand.ident("plain")),
        CodeLine(CodeType.EXPR, Operand.ident("g"), Operand.ident("b"),
                 result=Operand.address(Address((5,)))),
        CodeLine(CodeType.SCOPE_END),
    ]
    lines = _function(Operand.address(Address((8,))))
    t = load(lines[:3] + inner + lines[3:] + _scope("body"))
    (fn,) = t.functions.values()
    assert [x.address for x in fn.decl_rows] == [Address((3,)), Address((5,))]
    assert (fn.decl_root, fn.name) == (Address((5,)), "g")


def test_a_scope_row_of_unknown_kind_is_a_load_error():
    with pytest.raises(LoadError, match="code line 3 names unknown scope kind 'loop'"):
        load(_scope("body") + _scope("loop"))


def test_a_function_whose_body_starts_no_scope_is_a_load_error():
    # line 3 is the declaration's expression, not a scope start
    with pytest.raises(LoadError, match="function at 1 has no body scope at 3"):
        load(_function(Operand.address(Address((3,)))))
    load(_function(Operand.address(Address((5,)))) + _scope("body"))


def test_inheritance_by_an_undeclared_class_is_a_load_error():
    inherit = CodeLine(CodeType.CLASS_OP, Operand.ident("inherit"), Operand.ident("B"),
                       Operand.ident("A"))
    declare_a = CodeLine(CodeType.CLASS_OP, Operand.ident("class"), Operand.ident("A"),
                         Operand.address(Address((3,))))
    undeclared = "undeclared class B inherits at code line 2"
    with pytest.raises(InheritanceOfUndeclaredClass, match=undeclared):
        load([declare_a, inherit] + _scope("class"))


_NAMES = ["a", "$a", "#a", "out:a", "b", "$b", "out:$b", "A", "B", ""]
_OPS = ["+", "==", "=", "func", "funcexp", "class", "inherit", "=>", "jump", "return", "."]
_KINDS = [k.value for k in ScopeKind] + ["", "loop"]


@st.composite
def code_line_streams(draw):
    """Hand-written line streams the parser never writes: any code type with
    operands drawn from marked names, numbers, scope kinds and addresses of
    any row or one past the last. Most are balanced, so that the table
    builders run."""
    n = draw(st.integers(1, 24))
    balanced = draw(st.integers(0, 9)) > 0
    depth = 0
    operand = st.one_of(
        st.just(Operand.empty()),
        st.sampled_from(_NAMES + _KINDS).map(Operand.ident),
        st.integers(0, 3).map(Operand.number),
        st.integers(1, n + 1).map(lambda i: Operand.address(Address((i,)))),
    )
    lines = []
    for _ in range(n):
        ctype = draw(st.sampled_from(list(CodeType)))
        if ctype is CodeType.SCOPE_END and balanced and not depth:
            ctype = CodeType.SCOPE_START
        depth += {CodeType.SCOPE_START: 1, CodeType.SCOPE_END: -1}.get(ctype, 0)
        if ctype is CodeType.SCOPE_START:
            left = Operand.ident(draw(st.sampled_from(_KINDS)))
        else:
            left = draw(operand)
        op = Operand.ident(draw(st.sampled_from(_OPS)))
        lines.append(CodeLine(ctype, op, left, draw(operand), draw(operand)))
    return lines + [CodeLine(CodeType.SCOPE_END)] * (depth if balanced else 0)


@settings(max_examples=500, deadline=None)
@given(code_line_streams())
def test_a_hand_written_line_stream_loads_or_fails_as_a_cool_error(lines):
    try:
        load(lines)
    except CoolError:
        pass


def test_duplicate_variable_in_scope():
    with pytest.raises(DuplicateDeclaration):
        build("new: a = 1; new: a = 2;")


def test_duplicate_named_function_in_scope():
    with pytest.raises(DuplicateDeclaration):
        build("@f(a){ return: a; } @f(b){ return: b; }")


def test_a_duplicate_names_the_code_line_of_its_second_declaration():
    with pytest.raises(LoadError) as ei:
        build("system: A { new: v = 1; }\nsystem: A { new: w = 2; }")
    assert isinstance(ei.value, DuplicateDeclaration)
    # the second class line is the seventh compiled line, not a text offset
    assert str(ei.value) == "class 'A' declared twice, again at code line 7"


def test_same_name_different_arity_allowed():
    t = build("@f(a){ return: a; } @f(a, b){ return: a + b; }")
    assert len(t.functions) == 2


def test_duplicate_pattern_function_in_scope():
    with pytest.raises(DuplicateDeclaration):
        build("@(10){ $a + b }{ a = ans - b; } @(20){ $a + b }{ a = ans - b; }")


def test_distinct_patterns_with_same_root_allowed():
    t = build(
        "exp: @(-1){ #a + #b }{ return: b + a; } @(10){ $a + b }{ a = ans - b; }"
    )
    assert len(t.functions) == 2


def test_a_repeated_formal_rule_loads_beside_the_general_rule():
    # a formal counts by its name's first occurrence in the pattern, so
    # `#a - #a` (equal operands only) is no duplicate of `#a - #b`
    src = (
        "exp: @(-1){ #a - #b }{ return: a + (0 - b); }\n"
        "exp: @(-2){ #a - #a }{ return: 0; }\n"
        "new: q = 3; new: r = q - q; r --> 0;"
    )
    assert len(build(src).functions) == 2
    assert execute(src).output == ["0.0"]


@pytest.mark.parametrize("first, second", [("#a - #b", "#b - #a"), ("#a - #a", "#b - #b")])
def test_a_renamed_formal_is_still_a_duplicate(first, second):
    with pytest.raises(DuplicateDeclaration):
        build(f"exp: @{{ {first} }}{{ return: a; }} exp: @{{ {second} }}{{ return: b; }}")


def test_unbalanced_scopes_detected():
    with pytest.raises(UnbalancedScopes):
        load([CodeLine(CodeType.SCOPE_END)])
    with pytest.raises(UnbalancedScopes):
        load([CodeLine(CodeType.SCOPE_START, left=Operand.ident("body"))])


def test_expression_run_boundaries():
    t = build("new: x = 0; new: y = 3; $x + 1 == y; x --> 0;")
    eq = [el for el in t.code.lines() if el.op.text == "=="][0]
    run = t.expression_run(eq.address)
    assert [el.op.text for el in run] == ["+", "=="]


def test_a_long_inheritance_chain_loads_in_linear_memory():
    # C2399 << ... << C0: a class keeps its parents, not its whole order,
    # so the tables grow linearly with the chain
    parts = ["system: C0 {\n  new: v = 7;\n  @get(){ return: v; }\n}\n"]
    for k in range(1, 2400):
        parts.append(f"system: C{k} << C{k - 1} {{\n  new: w{k} = {k};\n}}\n")
    parts.append("C2399: m;\nm.v --> 0;\nm.get() --> 0;\n")
    src = "".join(parts)
    tracemalloc.start()
    try:
        tables = build(src)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tables.classes) == 2400
    assert kept < 20 * 2**20
