import functools
import random
from unittest import mock

import corpus
from corpus import RELOCATION_SHAPES, SIN_DECLARATIONS
import pytest
import reference
from reference import evaluate, expand_rings, reference_counts, repair_detached
from hypothesis import given, settings
from hypothesis import strategies as st

from coolang import build, deserialize, preexecute, run_program, serialize
from coolang.addresses import Address
from coolang.code import (
    BUILTIN,
    SLOT_LEFT,
    SLOT_RESULT,
    SLOT_RIGHT,
    CodeTable,
    CodeType,
    ExtendedLine,
    Operand,
    OperandKind,
    PendFlag,
    ScopeKind,
)
from coolang.segments import AWAITING, OPEN, PREBIND_OPS, PREBIND_READS, SETTLED, Segment


def line(addr, op, left, right, result=None, ctype=CodeType.EXPR, pending=None):
    ln = ExtendedLine(
        address=Address((addr,)),
        scope=None,
        ctype=ctype,
        op=Operand.ident(op) if op else Operand.empty(),
        left=left,
        right=right,
        result=result if result is not None else Operand.address(Address((addr,))),
    )
    if pending:
        for slot in pending:
            ln.pending[slot] = PendFlag.TRUE
    return ln


def ref(addr):
    return Operand.address(Address((addr,)))


def num(v):
    return Operand.number(v)


def ident(name):
    return Operand.ident(name)


def segment(lines, root):
    return Segment(lines={ln.address: ln for ln in lines}, root=Address((root,)))


def segment_for(src, op_text):
    """Fresh segment over the statement containing the given operator."""
    t = build(src)
    target = [el for el in t.code.lines() if el.op.text == op_text][0]
    return t, Segment.from_run(t, t.expression_run(target.address))


def reference_pending(lines, addr, raw):
    """Whether Segment.subtree_state is not SETTLED (raw: is OPEN), uncached."""
    ln = lines[addr]
    if ln.is_user_bound:
        return not raw and ln.bound_reverse
    for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
        o = ln.slot(s)
        if o.kind is OperandKind.IDENT and ln.pending[s] is PendFlag.TRUE:
            return True
        if (
            s != SLOT_RESULT
            and o.kind is OperandKind.ADDRESS
            and o.addr in lines
            and o.addr != addr
            and reference_pending(lines, o.addr, raw)
        ):
            return True
    return False


def reference_prebind(lines):
    """(bound, root) per line once ascending passes over every line, repeated
    until one binds nothing, reach the fixpoint."""
    lines = {a: ln.copy() for a, ln in lines.items()}

    def determined(ln, s):
        o = ln.slot(s)
        if o.kind is OperandKind.IDENT:
            return ln.pending[s] is not PendFlag.TRUE
        if o.kind is OperandKind.ADDRESS and o.addr in lines and o.addr != ln.address:
            child = lines[o.addr]
            return child.bound is not None and not reference_pending(lines, o.addr, False)
        return True

    changed = True
    while changed:
        changed = False
        for a in sorted(lines):
            ln = lines[a]
            op = ln.op.text
            if ln.bound is not None or ln.ctype is not CodeType.EXPR or op not in PREBIND_OPS:
                continue
            if all(determined(ln, s) for s in PREBIND_READS[op]):
                ln.bound, ln.root = BUILTIN, True
                changed = True
    return {a: (ln.bound, ln.root) for a, ln in lines.items()}


def test_prebind_binds_determined_builtin_chains():
    _, seg = segment_for("new: a = 1; a = 2 + 3 * 4;", "+")
    assert seg.fully_bound()
    for ln in seg.lines.values():
        assert ln.bound is BUILTIN and ln.root


def test_prebind_skips_pending_leaves_and_everything_above():
    _, seg = segment_for("new: y = 3; $x + 1 == y;", "==")
    assert all(ln.bound is None for ln in seg.lines.values())


def test_prebind_assignment_needs_only_its_source():
    # the write target is what the assignment determines; only the read counts
    _, seg = segment_for("new: a = 0; a = 1 + 2;", "=")
    eq = [ln for ln in seg.lines.values() if ln.op.text == "="][0]
    assert eq.bound is BUILTIN


def test_prebind_covers_exactly_the_builtin_operators():
    assert "+" in PREBIND_OPS and "-->" in PREBIND_OPS
    assert "sin" not in PREBIND_OPS
    seg = segment([line(1, "sin", num(1.0), Operand.empty())], root=1)
    seg.prebind_builtins()
    assert seg[Address((1,))].bound is None


def test_reverse_bound_child_blocks_prebind_above():
    inner = line(1, "+", ident("x"), num(1.0), pending=[1])
    outer = line(2, "==", ref(1), num(5.0))
    seg = segment([inner, outer], root=2)
    seg.prebind_builtins()
    rev = seg.copy()
    ln = rev.own(inner.address)
    ln.bound = Address((9,))
    ln.bound_reverse = True
    ln.root = True
    rev.prebind_builtins()
    assert rev[Address((2,))].bound is None  # the child is a solve sink
    fwd = rev.copy()
    fwd.own(inner.address).bound_reverse = False  # a forward binding is a readable value
    fwd.prebind_builtins()
    assert fwd[Address((2,))].bound is BUILTIN


def test_a_parent_sorting_before_its_bound_child_is_bound_in_the_same_pass():
    # 5 sorts after its parent 1: binding the call at 6 frees 5, which
    # frees 1 and then 2 in the same pass, whatever their order; only the
    # root waits for the call at 4
    call = line(6, "f", num(3.0), Operand.empty())
    c = line(5, "+", ref(6), num(1.0))
    q = line(1, "*", ref(5), num(2.0))
    t = line(2, "*", ref(1), num(3.0))
    other = line(4, "g", num(1.0), Operand.empty())
    root = line(3, "+", ref(2), ref(4))
    seg = segment([call, c, q, t, other, root], root=3)
    seg.prebind_builtins()
    assert not any(ln.bound for ln in seg.lines.values())

    cand = seg.copy()
    cand.own(call.address).bound = Address((99,))
    cand.prebind_builtins()
    bound = {a[0] for a, ln in cand.lines.items() if ln.bound is BUILTIN}
    assert bound == {5, 1, 2}

    nxt = cand.copy()
    nxt.own(other.address).bound = Address((98,))
    nxt.prebind_builtins()
    assert nxt.fully_bound()
    assert all(ln.bound is None for ln in seg.lines.values())
    assert cand[root.address].bound is None


# trees of builtin and call lines: None is a number operand, "$" a pending
# identifier, ("f", kid) a call over kid, (op, left, right) a builtin
_TREES = st.recursive(
    st.sampled_from([None, None, None, "$"]),
    lambda kids: st.one_of(
        st.tuples(st.just("f"), kids),
        st.tuples(st.sampled_from(["+", "*", "=="]), kids, kids),
    ),
    max_leaves=10,
)


def _size(tree):
    return 1 + sum(_size(t) for t in tree[1:]) if isinstance(tree, tuple) else 0


def _build(tree, addrs, out):
    """Append tree's lines to out under addrs; returns the operand for tree."""
    if tree is None:
        return num(1.0)
    if tree == "$":
        return ident("x")
    a = next(addrs)
    # a call has no right operand
    left, right, *_ = [_build(t, addrs, out) for t in tree[1:]] + [Operand.empty()]
    pending = [
        s for s, o in ((SLOT_LEFT, left), (SLOT_RIGHT, right)) if o.kind is OperandKind.IDENT
    ]
    out.append(line(a, tree[0], left, right, pending=pending))
    return ref(a)


def _bindings(seg):
    return {a: (ln.bound, ln.root) for a, ln in seg.lines.items()}


def _check_states(seg):
    """Each line's pending state agrees with the uncached reference."""
    for a in seg.lines:
        state = seg.subtree_state(a)
        assert (state != SETTLED) == reference_pending(seg.lines, a, False)
        assert (state == OPEN) == reference_pending(seg.lines, a, True)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.sampled_from(["+", "*"]), _TREES, _TREES), st.data())
def test_a_candidates_prebind_reaches_the_fixpoint(tree, data):
    # shuffled addresses, so parents may sort before their children
    order = data.draw(st.permutations(range(1, _size(tree) + 1)))
    lines = []
    root = _build(tree, iter(order), lines)
    seg = segment(lines, root.addr[0])
    seg.prebind_builtins()
    assert _bindings(seg) == reference_prebind(seg.lines)
    # this stores every state on the segment's versions, which the
    # candidate below shares where it does not write
    _check_states(seg)
    before = _bindings(seg)

    calls = [ln.address for ln in lines if ln.op.text == "f"]
    picked = st.lists(st.sampled_from(calls), unique=True) if calls else st.just([])
    cand = seg.copy()
    for a in data.draw(picked):
        ln = cand.own(a)
        ln.bound = Address((99,))
        ln.bound_reverse = data.draw(st.booleans())
    want = reference_prebind(cand.lines)
    cand.prebind_builtins()
    assert _bindings(cand) == want
    _check_states(cand)
    assert _bindings(seg) == before


def test_subtree_pending_vs_raw_pending_on_bound_subtrees():
    inner = line(1, "+", ident("x"), num(1.0), pending=[1])
    outer = line(2, "==", ref(1), num(5.0))
    seg = segment([inner, outer], root=2)
    # unbound: the pending leaf is still open
    assert seg.subtree_state(inner.address) == OPEN
    rev = seg.copy()
    ln = rev.own(inner.address)
    ln.bound = Address((9,))
    ln.bound_reverse = True
    # still wants a value from above, but no unbound leaf left
    assert rev.subtree_state(inner.address) == AWAITING
    fwd = rev.copy()
    fwd.own(inner.address).bound_reverse = False
    assert fwd.subtree_state(inner.address) == SETTLED


def test_children_follow_result_slot_references():
    chain = line(1, "+", ident("x"), ident("y"))
    assign = line(2, "=", ident("ans"), Operand.empty(), result=ref(1))
    seg = segment([chain, assign], root=2)
    assert seg.children(assign.address) == [chain.address]
    assert seg.subtree(seg.root) == [chain.address, assign.address]


def test_subtree_is_post_order_children_first():
    _, seg = segment_for("new: r = 0; r = (1 + 2) * (3 - 4);", "*")
    order = seg.subtree(seg.root)
    index = {a: i for i, a in enumerate(order)}
    for a in order:
        for c in seg.children(a):
            assert index[c] < index[a]


def test_repair_detached_removes_exactly_the_unreachable_lines():
    a = line(1, "+", num(1.0), num(2.0))
    b = line(2, "*", ref(1), num(3.0))
    c = line(3, "-", num(5.0), num(1.0))  # not reachable from the root
    seg = segment([a, b, c], root=2)
    removed = repair_detached(seg)
    assert removed == [c.address]
    assert set(seg.lines) == {a.address, b.address}
    assert repair_detached(seg) == []


def test_expand_rings_copies_shared_branches():
    shared = line(1, "+", ident("x"), num(1.0))
    top = line(2, "*", ref(1), ref(1))  # both slots alias one child
    seg = segment([shared, top], root=2)
    before = evaluate(seg, {"x": 3.0}.__getitem__)
    expand_rings(seg)
    counts = reference_counts(seg)
    assert all(n <= 1 for n in counts.values())
    assert len(seg.lines) == 3
    assert evaluate(seg, {"x": 3.0}.__getitem__) == before


def test_copy_shares_lines_until_it_owns_them():
    a = line(1, "+", ident("x"), num(1.0))
    b = line(2, "*", ref(1), num(3.0))
    seg = segment([a, b], root=2)
    cp = seg.copy()
    assert cp[a.address] is a
    mine = cp.own(a.address)
    assert mine is not a and cp.own(a.address) is mine
    mine.bound = BUILTIN
    assert a.bound is None and seg[a.address] is a


def test_expand_rings_on_a_copy_leaves_the_parent_alone():
    shared = line(1, "+", ident("x"), num(1.0))
    top = line(2, "*", ref(1), ref(1))
    seg = segment([shared, top], root=2)
    before = seg.digest()
    cp = seg.copy()
    expand_rings(cp)
    assert len(cp.lines) == 3
    assert len(seg.lines) == 2 and seg.digest() == before


def test_copy_subtree_preserves_shape_under_fresh_addresses():
    _, seg = segment_for("new: r = 0; r = (1 + 2) * 3;", "*")
    mul = [a for a in seg.lines if seg[a].op.text == "*"][0]
    dup = seg.copy_subtree(mul)
    assert dup != mul
    assert evaluate(seg, dict().__getitem__, dup) == evaluate(
        seg, dict().__getitem__, mul
    )


def test_digest_is_address_independent():
    t1, seg1 = segment_for("new: y = 3; $x + 1 == y;", "==")
    t2, seg2 = segment_for("new: q = 0;\nnew: y = 3; $x + 1 == y;", "==")
    assert seg2.order() != seg1.order()
    assert seg1.digest() == seg2.digest()


def test_digest_sees_binding_changes():
    _, seg = segment_for("new: y = 3; $x + 1 == y;", "==")
    d0 = seg.digest()
    plus = [a for a in seg.lines if seg[a].op.text == "+"][0]
    seg[plus].bound = Address((42,))
    assert seg.digest() != d0


def test_a_copy_that_adds_or_drops_a_line_digests_like_a_new_segment():
    # the copy starts from its parent's digest, whose rows are numbered for
    # the parent's address set
    _, seg = segment_for("new: y = 3; $x + 1 == y;", "==")
    seg.digest()
    plus = [a for a in seg.lines if seg[a].op.text == "+"][0]
    added, dropped = seg.copy(), seg.copy()
    extra = seg[plus].copy()
    extra.address = added.fresh_address()
    added.add_line(extra)
    dropped._drop([plus])
    for cp in (added, dropped):
        assert cp.digest() == Segment(dict(cp.lines), cp.root).digest()


def test_splice_in_place_keeps_addresses():
    t, seg = segment_for("new: y = 3; $x + 1 == y;", "==")
    for ln in seg.lines.values():
        ln.bound = BUILTIN
    before = t.code.addresses()
    mapping = seg.splice(t, sorted(seg.lines))
    assert mapping == {}
    assert t.code.addresses() == before
    eq = [el for el in t.code.lines() if el.op.text == "=="][0]
    assert eq.bound is BUILTIN


def test_splice_relocates_into_the_original_gap():
    t, seg = segment_for("new: y = 3; $x + 1 == y;", "==")
    original = sorted(seg.lines)
    lo, hi = t.code.prev_before(original[0]), t.code.next_after(original[-1])
    plus = [a for a in seg.lines if seg[a].op.text == "+"][0]
    extra_addr = seg.fresh_address()
    extra = seg[plus].copy()
    extra.address = extra_addr
    seg.lines[extra_addr] = extra
    eq = [a for a in seg.lines if seg[a].op.text == "=="][0]
    seg[eq].set_slot(2, Operand.address(extra_addr))
    mapping = seg.splice(t, original)
    assert set(mapping) == set(seg.lines)
    for new in mapping.values():
        assert lo < new < hi
    spliced = [t.code[a] for a in mapping.values()]
    assert sorted(ln.address for ln in spliced) == sorted(mapping.values())


def test_splice_repoints_outside_references_at_the_new_root():
    src = "new: y = 3; new: r = 0; r = $x + 1 == y;"
    t = build(src)
    eq = [el for el in t.code.lines() if el.op.text == "=="][0]
    assign = [el for el in t.code.lines() if el.op.text == "="][-1]
    run = t.expression_run(eq.address)
    assert assign.address in [el.address for el in run]
    # narrow the segment to the == subtree so the assignment stays outside
    sub = [el for el in run if el.address != assign.address]
    seg = Segment.from_run(t, sub)
    extra_addr = seg.fresh_address()
    extra = seg[sub[0].address].copy()
    extra.address = extra_addr
    seg.lines[extra_addr] = extra
    before = len(t.code)
    mapping = seg.splice(t, [el.address for el in sub])
    assert len(t.code) == before + 1
    kept = t.code[assign.address]
    refs = [
        o
        for o in (kept.left, kept.right, kept.result)
        if o.kind is OperandKind.ADDRESS
    ]
    assert refs
    for o in refs:
        assert o.addr == mapping[eq.address]
        assert o.addr in t.code


def test_a_splice_repoints_the_rest_of_the_run_a_segment_was_cut_from():
    # the segment holds `$x + 1 == y` but not the assignment that reads it;
    # moving the + line to a fresh address makes the == line sort first,
    # so the new root takes the + line's old address
    texts = []
    for splice in (Segment.splice, reference.splice):
        t = build("new: y = 3; new: r = 0; r = $x + 1 == y;")
        eq = [el for el in t.code.lines() if el.op.text == "=="][0]
        sub = t.expression_run(eq.address)[:-1]
        seg = Segment.from_run(t, sub)
        plus = eq.left.addr
        seg.own(eq.address).left = Operand.address(seg.copy_subtree(plus))
        seg._drop([plus])
        mapping = splice(seg, t, [el.address for el in sub])
        assert mapping[eq.address] == plus
        assign = [el for el in t.code.lines() if el.op.text == "="][-1]
        assert assign.left == Operand.address(plus)
        texts.append(serialize(t))
    assert texts[0] == texts[1]


def test_relocating_splices_repoint_jumps_and_returns_in_a_real_preexecute():
    # the sin rewrite changes each statement's line set, so each splice
    # relocates it: a loop condition (both jumps read it), a statement an
    # `if` jumps to, and a function's return value
    src = SIN_DECLARATIONS + """
new: i = 0;
while (sin(pi/2 - i) > 0.5) { i = i + 0.25; }
i --> 0;
new: r = 0;
if (i > 0) { r = 1; }
r = sin(pi/2 - 0.5);
r --> 0;
@g(x){ return: sin(pi/2 - x); }
new: s = g(0.5);
s --> 0;
"""
    t = build(src)
    real_splice = Segment.splice
    relocated = []

    def splice(seg, tables, original):
        if set(seg.lines) != set(original):
            stale = set(original)
            relocated.append(
                sum(
                    ln.slot(s).addr in stale
                    for ln in tables.code.lines()
                    if ln.ctype in (CodeType.JUMP, CodeType.RETURN)
                    for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT)
                )
            )
        return real_splice(seg, tables, original)

    with mock.patch.object(Segment, "splice", splice):
        preexecute(t)
    assert relocated == [2, 2, 1]
    for ln in t.code.lines():
        if ln.ctype in (CodeType.JUMP, CodeType.RETURN):
            for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
                o = ln.slot(s)
                assert o.kind is not OperandKind.ADDRESS or o.addr in t.code
    assert run_program(t).output == ["1.0", "0.875", "0.875"]


# what corpus.RELOCATION_SHAPES prints
RELOCATION_SHAPES_OUTPUT = ["0.96875", "1.0", "0.875", "2.1875"]


def sin_statements(n):
    """n relocating statements under the sin rewrite."""
    stmts = "".join(f"new: r{k} = sin(pi/2 - 0.5);\n" for k in range(n))
    return SIN_DECLARATIONS + stmts + f"r{n - 1} --> 0;\n"


def preexecuted_with(src, splice):
    """The .ccode text of src preexecuted with splice as Segment.splice,
    and the addresses of the runs it relocated."""
    t = build(src)
    relocated = []

    def recording(seg, tables, original):
        mapping = splice(seg, tables, original)
        if mapping:
            relocated.append(original[0])
        return mapping

    with mock.patch.object(Segment, "splice", recording):
        preexecute(t)
    text = serialize(t)
    assert serialize(deserialize(text)) == text
    return text, relocated


def without_table_walks(splice):
    """splice, with CodeTable.lines raising while it runs."""

    def guarded(seg, tables, original):
        walk = AssertionError("a splice walked the code table")
        with mock.patch.object(CodeTable, "lines", side_effect=walk):
            return splice(seg, tables, original)

    return guarded


@pytest.mark.parametrize(
    "src, moves, output",
    [(sin_statements(50), 50, ["0.875"]), (RELOCATION_SHAPES, 7, RELOCATION_SHAPES_OUTPUT)],
    ids=["sin_statements", "shapes"],
)
def test_no_splice_walks_the_table(src, moves, output):
    text, relocated = preexecuted_with(src, without_table_walks(Segment.splice))
    assert len(relocated) == moves
    t = deserialize(text)
    for ln in t.code.lines():
        in_decl = ln.scope is not None and t.scopes[ln.scope].kind is ScopeKind.DECL
        if ln.ctype is CodeType.EXPR and not in_decl:
            assert ln.bound is not None, ln
    assert run_program(t).output == output


def _reference_cases():
    for name, src in corpus.ALL_PROGRAMS.items():
        yield pytest.param(src, id=name)
    for name in ("deep_bind", "wide_program", "loop_run"):
        for seed in range(1, 6):
            yield pytest.param(corpus.workloads.generate(name, seed).source, id=f"{name}-{seed}")
    yield pytest.param(RELOCATION_SHAPES, id="shapes")


@pytest.mark.parametrize("src", _reference_cases())
def test_the_splice_writes_what_the_table_walk_writes(src):
    assert preexecuted_with(src, Segment.splice) == preexecuted_with(src, reference.splice)


@st.composite
def relocating_programs(draw):
    """Statements over v0..v2 and sin(...) in every place a splice can
    move: conditions, the statement after an if, return values, printed
    values, call actuals and assignments, nested up to three deep."""
    const = st.sampled_from(["0", "0.25", "0.5", "1"])
    var = st.sampled_from(["v0", "v1", "v2"])

    def value():
        return draw(st.sampled_from([
            f"sin(pi/2 - {draw(const)})",
            f"sin(pi/2 - {draw(var)})",
            f"g({draw(const)})",
            f"h(sin(pi/2 - {draw(const)}))",
            draw(var),
        ]))

    def block(depth):
        out = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["assign", "print", "if", "while", "block"]))
            if kind == "assign":
                out.append(f"{draw(var)} = {value()} + {value()};")
            elif kind == "print":
                out.append(f"{value()} --> 0;")
            elif depth >= 3:
                out.append(f"{draw(var)} = {value()};")
            elif kind == "if":
                text = f"if ({value()} < {draw(const)}) {{ {block(depth + 1)} }}"
                if draw(st.booleans()):
                    text += f" else {{ {block(depth + 1)} }}"
                out.append(text)
            elif kind == "while":
                v = draw(var)
                out.append(f"while ({value()} > {v}) {{ {v} = {v} + 1; {block(depth + 1)} }}")
            else:
                out.append(f"{{ {block(depth + 1)} }}")
        return " ".join(out)

    return SIN_DECLARATIONS + (
        "@g(x){ return: sin(pi/2 - x); }\n@h(y){ return: y * 2; }\n"
        "new: v0 = 0;\nnew: v1 = 0;\nnew: v2 = 0;\n" + block(0) + "\n"
    )


@settings(max_examples=40, deadline=None)
@given(relocating_programs())
def test_generated_relocations_write_what_the_table_walk_writes(src):
    guarded = without_table_walks(Segment.splice)
    assert preexecuted_with(src, guarded) == preexecuted_with(src, reference.splice)


def test_evaluate_builtins_against_python():
    rng = random.Random(11)
    for _ in range(200):
        x, y = rng.uniform(-9, 9), rng.uniform(1, 9)
        a = line(1, "+", num(x), num(y))
        b = line(2, "*", ref(1), num(2.0))
        c = line(3, "-", ref(2), ident("v"))
        seg = segment([a, b, c], root=3)
        got = evaluate(seg, {"v": 1.5}.__getitem__)
        assert got == pytest.approx((x + y) * 2.0 - 1.5)


def test_evaluate_rejects_non_builtin_operators():
    seg = segment([line(1, "sin", num(1.0), Operand.empty())], root=1)
    with pytest.raises(ValueError):
        evaluate(seg, dict().__getitem__)


# --- digest partition against a reference implementation ----------------


def _reference_digest(segment):
    """Segment.digest in its plainest form: slot() tuples, Enum values, str(addr)."""
    order = segment.order()
    index = {a: i for i, a in enumerate(order)}
    rows = []
    for a in order:
        ln = segment[a]
        slots = []
        for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
            o = ln.slot(s)
            if o.kind is OperandKind.ADDRESS:
                if o.addr == a:
                    slots.append(("self", ln.pending[s].value))
                elif o.addr in index:
                    slots.append(("ref", index[o.addr], ln.pending[s].value))
                else:
                    slots.append(("ext", str(o.addr), ln.pending[s].value))
            else:
                slots.append((o.kind.value, o.payload(), ln.pending[s].value))
        bound = "-" if ln.bound is None else (BUILTIN if ln.bound == BUILTIN else str(ln.bound))
        rows.append((ln.ctype.value, ln.op.text, tuple(slots), bound, ln.root))
    rows.append(("root", index.get(segment.root, -1)))
    return tuple(rows)


@functools.cache
def _search_candidates():
    """Every candidate the searches over the corpus generate."""
    pool = []
    for src in corpus.ALL_PROGRAMS.values():
        tables = build(src)
        preexecute(tables, observer=lambda rnd, w, seg: pool.append(seg.copy()))
    return pool


def _same_partition(segments):
    """The two digests split the segments into the same equality classes."""
    ref = [_reference_digest(seg) for seg in segments]
    new = [seg.digest() for seg in segments]
    return len(set(ref)) == len(set(new)) == len(set(zip(ref, new)))


def test_digest_partitions_search_candidates_like_the_reference():
    assert _same_partition(_search_candidates())


_OPERANDS = (
    Operand.number(1),
    Operand.number(2),
    Operand.ident("x"),
    Operand.ident("y"),
    Operand.string("x"),
    Operand.empty(),
    Operand.address(Address((7,))),
    Operand.address(Address((7, 1))),
)


def _variants(seg, addr, slot):
    """Copies of seg with one slot, pending flag, binding or root changed."""

    def changed(edit):
        cp = seg.copy()
        edit(cp.own(addr))
        return cp

    out = [seg]
    targets = list(_OPERANDS) + [Operand.address(a) for a in seg.order()]
    for o in targets:
        out.append(changed(lambda ln: ln.set_slot(slot, o)))
    for flag in PendFlag:
        out.append(changed(lambda ln: ln.pending.__setitem__(slot, flag)))
    for bound in (None, BUILTIN, Address((5,)), Address((6,))):
        out.append(changed(lambda ln: setattr(ln, "bound", bound)))
    out.append(changed(lambda ln: setattr(ln, "root", not ln.root)))
    return out


def test_digest_tells_apart_what_the_reference_tells_apart():
    distinct = {_reference_digest(seg): seg for seg in _search_candidates()}
    assert len(distinct) >= 50
    for seg in distinct.values():
        for addr in seg.order():
            for slot in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
                assert _same_partition(_variants(seg, addr, slot)), (seg, addr, slot)
