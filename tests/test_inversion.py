from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from coolang import build, preexecute
from coolang.code import CodeType
from coolang.errors import DerivationFailure, NotInvertible
from coolang.inversion import (
    analyze_dependence,
    decl_formals,
    dependence_closure,
    disassemble,
    map_formals,
    merge_tree,
)
from coolang.search import SearchOptions, search_segment


def chained_disassembly():
    t = build(corpus.CHAINED_DERIVATION)
    uni = preexecute(t)
    fwd = [
        f
        for f in t.functions.values()
        if f.name == "getresultfrom_ARG_and" and not f.is_reverse
    ][0]
    dis = disassemble(t, fwd, ["x"])
    analyze_dependence(dis)
    return t, uni, dis


def test_formals_come_out_in_pattern_order_with_pending_flags():
    t = build(corpus.CHAINED_DERIVATION)
    fwd = [
        f
        for f in t.functions.values()
        if f.name == "getresultfrom_ARG_and" and not f.is_reverse
    ][0]
    rev = [
        f
        for f in t.functions.values()
        if f.name == "getresultfrom_ARG_and" and f.is_reverse
    ][0]
    assert decl_formals(fwd) == [("x", False), ("y", False)]
    assert decl_formals(rev) == [("x", True), ("y", False)]
    assert map_formals(decl_formals(fwd), decl_formals(rev)) == ["x"]


def test_anonymous_formal_is_kept_as_its_own_slot():
    t = build(corpus.APPLE_PRICE)
    rev = [
        f
        for f in t.functions.values()
        if f.name == "appleunitprice_ARG_canbebought_ARG_kg"
    ][0]
    assert decl_formals(rev) == [("b", False), ("", True)]


def test_anonymous_formals_adopt_the_leftover_forward_names():
    fwd = [("a", False), ("b", False)]
    assert map_formals(fwd, [("b", False), ("", True)]) == ["a"]
    assert map_formals(fwd, [("", True), ("", True)]) == ["a", "b"]


def test_formal_mapping_rejects_arity_and_name_mismatches():
    fwd = [("x", False), ("y", False)]
    with pytest.raises(NotInvertible):
        map_formals(fwd, [("x", True)])
    with pytest.raises(NotInvertible):
        map_formals(fwd, [("q", True), ("y", False)])
    # a forward name can be claimed only once
    with pytest.raises(NotInvertible):
        map_formals(fwd, [("x", True), ("x", False)])


def test_chained_forward_body_disassembles_into_fourteen_blocks():
    _, _, dis = chained_disassembly()
    kinds = [b.kind for b in dis.blocks]
    assert kinds == [
        "scope_start",
        "decl",
        "expr",
        "expr",
        "expr",
        "expr",
        "decl",
        "expr",
        "expr",
        "expr",
        "expr",
        "expr",
        "return",
        "scope_end",
    ]
    assert dis.return_seq == 13
    # every write site got a fresh name, in body order
    assert dis.replacements == ["__inv1", "__inv2", "__inv3", "__inv4"]
    assert dis.name_writer == {"__inv1": 4, "__inv2": 5, "__inv3": 8, "__inv4": 9}


def test_reads_go_through_the_replacement_table():
    _, _, dis = chained_disassembly()
    by_seq = {b.seq: b for b in dis.blocks}
    # the polynomial block reads the solved x under its new name
    assert by_seq[9].reads_names == {"__inv2", "y"}
    # the return expression reads a and z under theirs
    assert by_seq[11].reads_names == {"__inv1", "__inv2"}
    assert by_seq[12].reads_names == {"__inv4"}


def test_dependence_stops_at_reverse_solved_names():
    _, _, dis = chained_disassembly()
    assert sorted(b.seq for b in dis.blocks if b.dependent) == [3, 4, 11, 12, 13]
    by_seq = {b.seq: b for b in dis.blocks}
    # the polynomial consumes x only through __inv2, written by the
    # non-dependent solve at seq 5, so it stays independent
    assert not by_seq[9].dependent
    assert not by_seq[5].dependent


def test_closure_of_an_inner_block_holds_its_transitive_producers():
    _, _, dis = chained_disassembly()
    # 12 reads the value of 11, 11 reads __inv1 from 4, and 4 assigns 3;
    # the __inv2 and __inv4 that 11 and 12 also read come from solves
    # that do not depend on x
    assert dependence_closure(dis, 12, 8) == {3, 4, 11, 12}
    assert dependence_closure(dis, 4, 8) == {3, 4}
    assert dependence_closure(dis, 3, 8) == {3}


def test_return_rooted_tree_resolves_completely():
    _, _, dis = chained_disassembly()
    assert dependence_closure(dis, dis.return_seq, 8) == {3, 4, 11, 12, 13}


def test_node_budget_caps_tree_growth():
    _, _, dis = chained_disassembly()
    assert dependence_closure(dis, dis.return_seq, 5) == {3, 4, 11, 12, 13}
    assert dependence_closure(dis, dis.return_seq, 4) is None
    assert dependence_closure(dis, 12, 1) is None


def _smallest_resolved_tree(dis, root_seq, max_nodes):
    """Brute force: the smallest set of dependent blocks that holds the root
    and the producer of every dependent value its members read."""
    blocks = {b.seq: b for b in dis.blocks}

    def producers(b):
        out = {dis.name_writer.get(n) for n in b.reads_names}
        out |= {dis.temp_owner.get(t) for t in b.reads_temps}
        return {p for p in out if p is not None and blocks[p].dependent}

    others = [b.seq for b in dis.blocks if b.dependent and b.seq != root_seq]
    for k in range(max_nodes):
        for extra in combinations(others, k):
            members = {root_seq, *extra}
            if all(producers(blocks[m]) <= members for m in members):
                return members
    return None


_TERMS = st.sampled_from(["a", "b", "2", "3"])
_OPS = st.sampled_from(["+", "-", "*"])


@st.composite
def straight_line_bodies(draw):
    """A forward body of new: locals over a, b, earlier locals and constants."""
    names = ["a", "b"]
    lines = []

    def operand():
        return draw(st.one_of(_TERMS, st.sampled_from(names)))

    def expr():
        e = operand()
        for _ in range(draw(st.integers(0, 2))):
            e = f"{e} {draw(_OPS)} {operand()}"
        return e

    for i in range(draw(st.integers(1, 5))):
        lines.append(f"new: l{i} = {expr()};")
        names.append(f"l{i}")
    lines.append(f"return: {expr()};")
    return "@f(a, b){\n    " + "\n    ".join(lines) + "\n}\nnew: q = 0;\n"


@settings(max_examples=60, deadline=None)
@given(straight_line_bodies())
def test_closure_is_the_smallest_resolved_tree(src):
    t = build(src)
    preexecute(t)
    fwd = [f for f in t.functions.values() if f.name == "f"][0]
    dis = disassemble(t, fwd, ["a"])
    analyze_dependence(dis)
    for n in range(1, 9):
        assert dependence_closure(dis, dis.return_seq, n) == _smallest_resolved_tree(
            dis, dis.return_seq, n
        )


def test_merged_tree_binds_like_any_statement():
    t, uni, dis = chained_disassembly()
    members = dependence_closure(dis, dis.return_seq, 8)
    merged = merge_tree(dis, members)
    # return rewrite plus the three additions of the substituted chain
    assert len(merged.lines) == 4
    assert not merged.fully_bound()
    derive = [ln for ln in t.code.lines() if ln.ctype is CodeType.DERIVE_FUNC][0]
    ctx = uni.context_for(derive.scope)
    out = search_segment(t, merged, ctx, derive.address, options=SearchOptions())
    assert out.weight == 30.0
    assert out.rounds == 3
    assert out.segment.fully_bound()


def test_loops_in_the_forward_body_are_not_invertible():
    src = """
@f(x, y){
    new: s = 0;
    while (x < y) {
        s = s + 1;
    }
    return: s;
} => @f($x, y);
new: q = 0;
"""
    with pytest.raises(NotInvertible, match="control flow"):
        preexecute(build(src))


def test_parameter_mutation_is_not_invertible():
    src = """
@g(x, y){
    x = y;
    return: x;
} => @g($x, y);
new: q = 0;
"""
    with pytest.raises(NotInvertible, match="mutated"):
        preexecute(build(src))


def test_local_shadowing_a_parameter_is_not_invertible():
    src = """
@h(x){
    new: x = 1;
    return: x;
} => @h($x);
new: q = 0;
"""
    with pytest.raises(NotInvertible, match="shadows"):
        preexecute(build(src))


def test_a_reverse_head_without_pending_marks_is_refused():
    src = """
@k(x, y){
    return: x + 1;
} => @k(x + y);
new: q = 0;
"""
    with pytest.raises(NotInvertible, match="nothing as pending"):
        preexecute(build(src))


def test_a_forward_body_without_a_return_is_refused():
    src = """
@m(x){
    new: s = x;
} => @m($x);
new: q = 0;
"""
    with pytest.raises(NotInvertible, match="never returns"):
        preexecute(build(src))


def test_a_return_independent_of_the_pending_parameter_fails_derivation():
    src = """
@n(x, y){
    return: y;
} => @n($x, y);
new: q = 0;
"""
    with pytest.raises(DerivationFailure, match="does not depend"):
        preexecute(build(src))


_DEAD_BLOCK_HEAD = """
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
@f(x){ return: x * 2; }
"""


def test_a_dependent_local_the_return_never_reads_is_dropped():
    # a pure dependent block outside the return's closure dies with the body
    for dead in ("new: s = x + 1;", "new: s = x + 1; s = s * 2;", "x + 1;"):
        src = _DEAD_BLOCK_HEAD + f"""
@p(x, y){{ {dead} return: x + y; }} => @p($x, y);
new: x = 0;
p($x, 4) == 10;
x --> 0;
"""
        assert corpus.outputs(src) == ["6.0"], dead


def test_a_dependent_print_or_call_outside_the_closure_fails_derivation():
    # the derived body would silently lose what the forward body does
    for effect in ("x --> 0;", "f(x);", "new: s = x + 1; s --> 0;"):
        src = _DEAD_BLOCK_HEAD + f"""
@p(x, y){{ {effect} return: x + y; }} => @p($x, y);
new: x = 0;
p($x, 4) == 10;
"""
        with pytest.raises(DerivationFailure, match="print or call lies outside"):
            preexecute(build(src))


def test_a_commuted_return_derives_through_the_rewrite_of_its_chain():
    # the merged root is `ans = y + $x`; only the commuting rewrite of the
    # chain under it reaches the solving declaration
    src = """
exp: @(-1){ #a + #b }{ return: b + a; }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
@r(x, y){
    return: y + x;
} => @r($x, y);
new: x = 0;
r($x, 4) == 10;
x --> 0;
"""
    assert corpus.outputs(src) == ["6.0"]
