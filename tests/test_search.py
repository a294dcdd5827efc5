from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from reference import class_mro, evaluate, expand_rings, reference_counts, repair_detached
from test_segments import ident, line, num, ref, reference_pending, reference_prebind
from coolang import build, execute, run_program
from coolang import inversion, search
from coolang.code import CodeType, ExecFlag, Operand, ScopeKind
from coolang.errors import InferenceFailure
from coolang.matching import _Matcher, match_branch
from coolang.preexec import PreexecUniverse, preexecute
from coolang.search import SearchOptions
from coolang.segments import OPEN, SETTLED, Segment
from coolang.silo import Silo


def run_traced(src, options=None):
    """Pre-execute src, bucketing observer events per bound statement."""
    t = build(src)
    buckets = []
    pending = []

    def obs(rnd, weight, seg):
        pending.append((rnd, weight))

    def on_bound(addr, outcome):
        nonlocal pending
        buckets.append((addr, outcome.weight, outcome.rounds, pending))
        pending = []

    preexecute(t, options=options, observer=obs, on_bound=on_bound)
    return t, buckets, pending


def test_forward_body_and_call_site_weights():
    _, buckets, _ = run_traced(corpus.CHAINED_DERIVATION)
    nonzero = [(w, r) for _, w, r, _ in buckets if w != 0]
    assert nonzero == [(20.0, 2), (110.0, 2), (10.0, 2)]


def test_pending_sum_constraint_trace():
    # $x + 1 == y: commutativity noise, then the reverse add, then the
    # reverse equality over the already reverse-bound sum
    _, buckets, _ = run_traced(corpus.CHAINED_DERIVATION)
    events = [ev for _, w, r, ev in buckets if (w, r) == (20.0, 2)][0]
    assert events == [
        (1, -1.0),
        (1, 10.0),
        (1, 10.0),
        (2, -2.0),
        (2, 9.0),
        (2, 20.0),
    ]


def test_quadratic_constraint_trace():
    # 1 * $z^2 + x * z + y == 100: the pending marker covers every z in the
    # statement, so the reverse add only fits the outer sum; the general
    # quadratic matches that sum whole in round one and the winner stacks
    # it on the reverse equality in round two
    _, buckets, _ = run_traced(corpus.CHAINED_DERIVATION)
    events = [ev for _, w, r, ev in buckets if (w, r) == (110.0, 2)][0]
    assert events == [
        (1, -1.0),
        (1, 100.0),
        (1, -1.0),
        (1, 10.0),
        (1, 10.0),
        (2, -2.0),
        (2, -2.0),
        (2, 9.0),
        (2, 9.0),
        (2, -2.0),
        (2, -2.0),
        (2, 9.0),
        (2, 9.0),
        (2, 20.0),
        (2, 9.0),
        (2, 110.0),
    ]


def test_chained_call_trace():
    # get result from ($x) and (y) == 50: the derived reverse head is the
    # only round-one match on the call, the reverse equality completes it
    _, buckets, _ = run_traced(corpus.CHAINED_DERIVATION)
    events = [ev for _, w, r, ev in buckets if (w, r) == (10.0, 2)][0]
    assert events == [(1, 0.0), (1, 10.0), (2, 10.0)]


def test_derivation_search_settles_at_weight_thirty():
    _, buckets, trailing = run_traced(corpus.CHAINED_DERIVATION)
    assert trailing == []
    carriers = [ev for _, w, _, ev in buckets if w == 0 and ev]
    assert len(carriers) == 1
    events = carriers[0]
    assert events[-1] == (3, 30.0)
    assert max(r for r, _ in events) == 3


def test_root_constraint_binds_through_the_general_quadratic():
    # weightless declarations still take two rounds: the quadratic claims
    # the polynomial, then the equality accepts the reverse-bound subtree
    _, buckets, _ = run_traced(corpus.QUADRATIC_CONSTRAINT)
    two_round = [b for b in buckets if b[2] == 2]
    assert len(two_round) == 1
    assert two_round[0][1] == 0.0
    assert two_round[0][3] == [(1, 0.0), (2, 0.0)]


def test_member_constraint_accumulates_rule_weights():
    _, buckets, _ = run_traced(corpus.CLASS_SOLVER)
    nonzero = [b for b in buckets if b[1] != 0]
    assert len(nonzero) == 1
    _, weight, rounds, events = nonzero[0]
    assert (weight, rounds) == (-120.0, 3)
    assert events == [
        (1, -10.0),
        (2, -20.0),
        (2, -20.0),
        (3, -30.0),
        (3, -120.0),
    ]
    member_calls = [b for b in buckets if b[1] == 0 and b[2] == 1]
    assert len(member_calls) == 2


def test_one_slot_silo_keeps_only_the_heaviest_candidate():
    src = (
        "exp: @(10){ #a + #b }{ return: b + a; }\n"
        "exp: @(-1){ #a + 1 }{ return: 1 + a; }\n"
        "f($q + 1);"
    )
    t = build(src)
    events = []
    with pytest.raises(InferenceFailure) as ei:
        preexecute(
            t,
            options=SearchOptions(silo_size=1, max_rounds=3),
            observer=lambda r, w, s: events.append((r, w)),
        )
    assert "round limit" in str(ei.value)
    assert ei.value.rounds == 3
    # both rules fire each round the pattern allows, but only the heavier
    # candidate survives a one-slot silo; the lighter one flips the operands
    # back and forth without ever being expanded
    assert events == [(1, 10.0), (1, -1.0), (2, 20.0), (3, 30.0), (3, 19.0)]


def test_unbindable_expression_fails_with_an_empty_silo():
    t = build("f(q + 1);")
    with pytest.raises(InferenceFailure) as ei:
        preexecute(t)
    assert "no declaration binds" in str(ei.value)
    assert ei.value.rounds == 1


def test_declarations_bind_only_statements_after_them():
    late = "new: r = 0;\nr = foo(3);\n@foo(n){ return: n; }"
    with pytest.raises(InferenceFailure):
        execute(late)
    early = "@foo(n){ return: n; }\nnew: r = 0;\nr = foo(3);\nr --> 0;"
    assert corpus.outputs(early) == ["3.0"]


def test_accessible_declarations_keep_source_order_per_scope():
    t = build(corpus.CHAINED_DERIVATION)
    stmt = [
        el
        for el in t.code.lines()
        if el.ctype is CodeType.EXPR and el.op.text == "==" and el.right.num == 50.0
    ][0]
    ctx = PreexecUniverse(t).context_for(stmt.scope)
    groups = [
        ctx.declarations.candidates(op, ctx, stmt.address)
        for op in {f.name for f in t.functions.values()}
    ]
    for group in groups:
        assert group == sorted(group, key=lambda f: f.func_op)
    fns = sorted((f for g in groups for f in g), key=lambda f: f.func_op)
    assert [f.weight for f in fns] == [100.0, -1.0, -1.0, 10.0, 10.0, 0.0, 0.0]
    assert [f.is_exp for f in fns] == [
        False,
        True,
        True,
        False,
        False,
        False,
        False,
    ]
    assert [f.is_reverse for f in fns] == [
        True,
        False,
        False,
        True,
        True,
        False,
        True,
    ]


def reference_members(tables, class_scope):
    """Member functions, own before inherited, source order within a class."""
    mro = class_mro(tables, class_scope)
    assert list(tables.classes[class_scope].order) == mro
    out = []
    for s in mro:
        fns = [f for f in tables.functions.values() if f.class_scope == s]
        fns.sort(key=lambda f: f.func_op)
        out.extend(fns)
    return out


def reference_accessible(tables, stmt_scope, stmt_addr):
    """Declarations reachable from a statement, nearest scope first, found
    by scanning the function table for every scope on the chain."""

    def in_scope(scope):
        fns = [
            f
            for f in tables.functions.values()
            if tables.code[f.func_op].scope == scope
        ]
        return sorted(fns, key=lambda f: f.func_op)

    out, seen = [], set()
    for s in tables.scope_chain(stmt_scope) + [None]:
        if s is not None and tables.scopes[s].kind is ScopeKind.CLASS:
            fns = reference_members(tables, s)
        else:
            fns = in_scope(s)
        for fn in fns:
            if fn.func_op not in seen and fn.func_op < stmt_addr:
                seen.add(fn.func_op)
                out.append(fn)
    return out


def reference_candidates(tables, ctx, line, stmt_addr):
    """What a branch may bind, by full scan, narrowed by the matcher's own
    root-operator test."""
    op = line.op.text
    if not op:
        return []
    if "." in op:
        cls = ctx.instance_class(op.rsplit(".", 1)[0])
        fns = [] if cls is None else reference_members(tables, cls)
    else:
        fns = reference_accessible(tables, ctx.stmt_scope, stmt_addr)
    return [
        fn
        for fn in fns
        if _Matcher(None, fn, ctx)._op_matches(op, tables.code[fn.decl_root].op.text)
    ]


def assert_index_offers_what_the_scan_offered(t):
    """Walk t as preexecute does, without binding, and compare the index's
    candidates with the reference for every branch of every statement."""
    uni = PreexecUniverse(t)
    branches = 0
    a = t.code.first_address()
    while a is not None:
        ln = t.code[a]
        if ln.ctype is CodeType.SCOPE_START and ln.exec_flag is ExecFlag.FALSE:
            a = t.code.next_after(t.scopes[a].end)
            continue
        if ln.ctype is CodeType.VAR_DECL:
            uni.declare_from(ln)
        if ln.ctype is CodeType.EXPR:
            run = t.expression_run(a)
            ctx = uni.context_for(ln.scope)
            for br in run:
                got = uni.declarations.candidates(br.op.text, ctx, run[0].address)
                want = reference_candidates(t, ctx, br, run[0].address)
                assert [f.func_op for f in got] == [f.func_op for f in want]
                branches += 1
            a = run[-1].address
        a = t.code.next_after(a)
    return branches


_POOL = (
    "@(1){ $a + b }{ a = ans - b; }",
    "@(2){ $a * b }{ a = ans / b; }",
    "@(3){ $a == b; }{ a = b; }",
    "exp: @(-1){ #a + #b }{ return: b + a; }",
    "@(4){ a - b }{ return: a; }",
    "@g(x){ return: x; }",
    "@h(x, y){ return: x + y; }",
    "@put(n){ s = s + n; }",
    "@(5){ o0.put(x) }{ return: x; }",
)
_STATEMENTS = ("$y + 1 == 3;", "y = g(2) * 3 - 1;", "h(1, y) == 4;", "y = y + 1;")
_MEMBER_CALLS = (
    "{o}.put(1);",
    "y = {o}.g(2) + 1;",
    "{o}.h(1, y) == 4;",
    "{o}.m0(3);",
    "{o}.s - 1;",
)


@st.composite
def scoped_programs(draw):
    """Nested blocks, classes with inheritance, members declared in method
    bodies, instances at any depth and member calls on them."""
    parts = ["new: y = 0;"]
    n_classes = draw(st.integers(0, 3))
    for i in range(n_classes):
        parents = draw(st.lists(st.integers(0, i - 1), max_size=2, unique=True)) if i else []
        head = f"system: C{i}" + (" << " + ", ".join(f"C{p}" for p in parents) if parents else "")
        own = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3, unique=True))
        inner = draw(st.lists(st.sampled_from(_POOL), max_size=2, unique=True))
        stmts = draw(st.lists(st.sampled_from(_STATEMENTS), max_size=2))
        method = f"@m{i}(n){{ {' '.join(inner + stmts)} s = s + n; }}"
        parts.append(f"{head} {{ new: s = 0; {' '.join(own)} {method} }}")
    instances = 0

    def block(depth):
        nonlocal instances
        items, used = [], set()
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(("decl", "stmt", "member", "block")))
            if kind == "decl":
                decl = draw(st.sampled_from(_POOL))
                if decl not in used:
                    used.add(decl)
                    items.append(decl)
            elif kind == "stmt":
                items.append(draw(st.sampled_from(_STATEMENTS)))
            elif kind == "member" and n_classes:
                o = f"o{instances}"
                instances += 1
                items.append(f"C{draw(st.integers(0, n_classes - 1))}: {o};")
                items.append(draw(st.sampled_from(_MEMBER_CALLS)).format(o=o))
            elif kind == "block" and depth:
                items.append("{ " + block(depth - 1) + " }")
        return " ".join(items)

    parts.append(block(2))
    return "\n".join(parts)


@settings(max_examples=80, deadline=None)
@given(scoped_programs())
def test_the_index_offers_what_a_full_scan_offered(src):
    assert_index_offers_what_the_scan_offered(build(src))


@pytest.mark.parametrize("name", sorted(corpus.ALL_PROGRAMS))
def test_the_index_offers_what_a_full_scan_offered_on_the_corpus(name):
    assert assert_index_offers_what_the_scan_offered(build(corpus.ALL_PROGRAMS[name]))


def matches_to_bind_a_quadratic(unrelated):
    """match_branch calls that bind one quadratic statement placed after
    the given number of declarations no branch of it can use."""
    decls = "".join(f"@u{i}(x){{ }}\n" for i in range(unrelated))
    src = (
        "@(100){ a * $x^2 + b * x + c }{ x = (-b + (b^2 - 4 * a * (c - ans))^0.5) / (2 * a); }\n"
        "@(10){ $a == b; }{ a = b; }\n"
        + decls
        + "new: q = 0;\n1 * $q^2 + 5 * q + (-6) == 0;\nq --> 0;\n"
    )
    calls = [0]
    real = search.match_branch

    def counted(*args):
        calls[0] += 1
        return real(*args)

    t = build(src)
    with mock.patch.object(search, "match_branch", counted):
        preexecute(t)
    assert run_program(t).output == ["1.0"]
    return calls[0]


def test_unrelated_declarations_cost_a_statement_no_matches():
    assert matches_to_bind_a_quadratic(2) == matches_to_bind_a_quadratic(40)


_CHAIN_RULES = """\
exp: @(-1){ #a + #b }{ return: b + a; }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
"""


def check_entry(tables, ctx, seg):
    """Every parent link, cached pending state and memoized match of a silo
    entry equals a fresh computation."""
    parents = {}
    for a in seg.lines:
        for c in seg.children(a):
            parents[c] = a
    # a segment that owns every line caches nothing
    fresh = Segment(dict(seg.lines), seg.root, [], None, None)
    for a, v in seg.versions.items():
        assert v.parent == parents.get(a)
        if v.state is not None:
            assert (v.state != SETTLED) == reference_pending(seg.lines, a, False)
            assert (v.state == OPEN) == reference_pending(seg.lines, a, True)
        for func_op, m in (v.matches or {}).items():
            assert m == match_branch(fresh, a, tables.functions[func_op], ctx)


def preexecute_checked(t, options=None):
    """Preexecute t and check every candidate against references.

    Candidates share unchanged lines with their parent, so a move that
    wrote to a shared line would change another candidate's digest. Each
    search's first segment and every admitted candidate must keep the
    digest it had, and after every rewrite the full repairs must find
    nothing left for them to do. Every prebind pass must reach the
    fixpoint that repeated ascending passes over every line reach, and
    every admitted candidate must pass check_entry once its search is
    over. Returns the number of forward searches, derivation searches,
    admitted candidates and rewrites.
    """
    admitted, rewrites = [], []
    searched = {"forward": [], "derivation": []}
    real_offer = Silo.offer
    real_search = search.search_segment
    real_rewrite = search.apply_exp_rewrite
    real_prebind = Segment.prebind_builtins

    def offer(silo, weight, digest, item):
        ok = real_offer(silo, weight, digest, item)
        if ok:
            admitted.append((digest, item))
        return ok

    def checked_search(kind):
        # inversion imports search_segment by name, so each site is wrapped
        def search_segment(tables, seg0, ctx, *args, **kwargs):
            before = seg0.digest()
            first = len(admitted)
            try:
                return real_search(tables, seg0, ctx, *args, **kwargs)
            finally:
                searched[kind].append((before, seg0))
                for _, seg in admitted[first:]:
                    check_entry(tables, ctx, seg)

        return search_segment

    def apply_exp_rewrite(segment, match, tables, *plans):
        added = real_rewrite(segment, match, tables, *plans)
        if added is not None:
            probe = segment.copy()
            size = len(probe.lines)
            rewrites.append((repair_detached(probe), size, probe))
            expand_rings(probe)
        return added

    def prebind_builtins(seg):
        want = reference_prebind(seg.lines)
        real_prebind(seg)
        assert {a: (ln.bound, ln.root) for a, ln in seg.lines.items()} == want

    try:
        with mock.patch.object(Silo, "offer", offer), mock.patch.object(
            search, "search_segment", checked_search("forward")
        ), mock.patch.object(
            inversion, "search_segment", checked_search("derivation")
        ), mock.patch.object(
            search, "apply_exp_rewrite", apply_exp_rewrite
        ), mock.patch.object(
            Segment, "prebind_builtins", prebind_builtins
        ):
            preexecute(t, options=options)
    finally:
        for before, seg0 in searched["forward"] + searched["derivation"]:
            assert seg0.digest() == before
        for digest, seg in admitted:
            assert seg.digest() == digest
        for removed, size, probe in rewrites:
            assert removed == []
            assert len(probe.lines) == size
    return (
        len(searched["forward"]),
        len(searched["derivation"]),
        len(admitted),
        len(rewrites),
    )


@settings(max_examples=25, deadline=None)
@given(
    ks=st.lists(st.integers(10, 99), min_size=2, max_size=7),
    c=st.integers(1000, 9999),
    silo_size=st.integers(1, 8),
)
def test_sum_chain_candidates_never_see_a_sibling_move(ks, c, silo_size):
    terms = " + ".join(str(k) for k in ks)
    t = build(f"{_CHAIN_RULES}new: y = 0;\n$y + {terms} == {c};\ny --> 0;\n")
    searched, _, admitted, rewrites = preexecute_checked(
        t, SearchOptions(silo_size=silo_size)
    )
    assert searched and admitted and rewrites
    assert run_program(t).output == [repr(float(c - sum(ks)))]


@pytest.mark.parametrize("name", sorted(corpus.ALL_PROGRAMS))
def test_corpus_candidates_never_see_a_sibling_move(name):
    # forward bindings, prebinds above them and derivation searches
    forward, derived, _, _ = preexecute_checked(build(corpus.ALL_PROGRAMS[name]))
    assert forward
    if name == "chained_derivation":
        assert derived


def test_a_duplicating_rewrite_expands_its_ring_in_place():
    # a + a aliases the matched operand: the repair after the rewrite must
    # give it a second copy without touching the lines the parent shares
    t = build(
        "exp: @(-1){ 2 * #a }{ return: a + a; }\n"
        "new: q = 4;\nnew: r = 0;\nr = 1 + 2 * (q + 5);\n"
    )
    stmt = [ln for ln in t.code.lines() if ln.op.text == "=" and ln.scope is None][-1]
    seg = Segment.from_run(t, t.expression_run(stmt.address))
    mul = [a for a in seg.lines if seg[a].op.text == "*"][0]
    fn = [f for f in t.functions.values() if f.is_exp][0]
    m = match_branch(seg, mul, fn, PreexecUniverse(t).context_for(None))
    env = {"q": 4.0}.__getitem__
    total = seg[seg.root].left.addr  # 1 + ..., the assigned value
    before = evaluate(seg, env, total)
    size = len(seg.lines)
    assert search.apply_exp_rewrite(seg, m, t) is not None
    # 2 * (...) gives way to the new sum and a second copy of q + 5
    assert len(seg.lines) == size + 1
    assert all(n <= 1 for n in reference_counts(seg).values())
    probe = seg.copy()
    assert repair_detached(probe) == []
    expand_rings(probe)
    assert len(probe.lines) == len(seg.lines)
    assert evaluate(seg, env, total) == before == 19.0


def test_a_duplicating_rewrite_under_a_result_slot_expands_its_ring():
    # `ans = 2 * (q + 5)` reaches the product through the assignment's
    # result slot; the rewrite's second reference to q + 5 needs its own copy
    # there as well, or one line would have two parents
    t = build("exp: @(-1){ 2 * #a }{ return: a + a; }\n")
    plus = line(1, "+", ident("q"), num(5.0))
    mul = line(2, "*", num(2.0), ref(1))
    assign = line(3, "=", ident("ans"), Operand.empty(), result=ref(2))
    seg = Segment({ln.address: ln for ln in (plus, mul, assign)}, assign.address, [], None, None)
    fn = [f for f in t.functions.values() if f.is_exp][0]
    m = match_branch(seg, mul.address, fn, PreexecUniverse(t).context_for(None))
    assert search.apply_exp_rewrite(seg, m, t) is not None
    assert all(n <= 1 for n in reference_counts(seg).values())
    assert len(seg.lines) == 4  # q + 5, its copy, the new sum and the assignment
    env = {"q": 4.0}.__getitem__
    assert evaluate(seg, env, seg[seg.root].result.addr) == 18.0


def test_no_rewrite_in_chained_derivation_keeps_its_matched_root():
    # the merged root `ans = <chain>` reaches the chain through its result
    # slot; a rewrite of the chain's top line must be repointed there too
    real_rewrite = search.apply_exp_rewrite
    kept = []

    def apply_exp_rewrite(segment, match, tables, *plans):
        added = real_rewrite(segment, match, tables, *plans)
        if added is not None:
            kept.append(match.root in segment.lines)
        return added

    with mock.patch.object(search, "apply_exp_rewrite", apply_exp_rewrite):
        preexecute(build(corpus.CHAINED_DERIVATION))
    assert kept and not any(kept)
