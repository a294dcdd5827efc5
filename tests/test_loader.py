import tracemalloc

import pytest

from coolang.addresses import Address
from coolang.code import CodeLine, CodeType, ExecFlag, Operand, PendFlag, ScopeKind
from coolang.errors import (
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
    assert body.param_query == decl.start
    assert body.parent is None and decl.parent is None
    assert t.code[decl.start].ctype is CodeType.SCOPE_START
    assert t.code[decl.end].ctype is CodeType.SCOPE_END


def test_exec_flags_decl_body_global():
    t = build("@add(a, b){ return: a + b; }\nnew: q = 1;")
    decl = [s for s in t.scopes.values() if s.kind is ScopeKind.DECL][0]
    body = [s for s in t.scopes.values() if s.kind is ScopeKind.BODY][0]
    for el in t.code.lines():
        if decl.start <= el.address <= decl.end:
            assert el.exec_flag is ExecFlag.FALSE
        elif body.start <= el.address <= body.end:
            assert el.exec_flag is ExecFlag.COND
        else:
            assert el.exec_flag is ExecFlag.TRUE


def test_exec_flags_loops_fall_through_but_else_is_jump_target():
    t = build(
        "new: a = 1;"
        "while(a > 0){ a = a - 1; }"
        "if(a > 0){ a = 1; } else { a = 2; }"
    )
    conds = [s for s in t.scopes.values() if s.kind is ScopeKind.COND]
    assert len(conds) == 3
    flags = sorted(t.code[s.start].exec_flag.value for s in conds)
    # while body and if branch fall through (T); else branch is a jump target (C)
    assert flags == ["C", "T", "T"]


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
    class_start = main.scope
    assert t.code[class_start].exec_flag is ExecFlag.COND
    inst = [el for el in t.code.lines() if el.ctype is CodeType.VAR_DECL and el.left.text][0]
    assert inst.left.text == "MainProcess" and inst.result.text == "m"


def test_inheritance_of_undeclared_class():
    with pytest.raises(InheritanceOfUndeclaredClass):
        build("system: A << Missing { new: x = 1; }")


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
