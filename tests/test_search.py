from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import reference
from reference import class_mro, evaluate, expand_rings, reference_counts, repair_detached
from test_search_golden import chain_source
from test_segments import (
    _reference_digest,
    ident,
    line,
    num,
    ref,
    reference_pending,
    reference_prebind,
    segment,
)
from coolang import build, execute, run_program
from coolang import inversion, search
from coolang.addresses import Address
from coolang.code import (
    SLOT_LEFT,
    CodeType,
    FunctionInfo,
    Operand,
    OperandKind,
    ScopeKind,
)
from coolang.errors import InferenceFailure
from coolang.matching import Match, _Matcher, match_branch
from coolang.preexec import PreexecUniverse, preexecute
from coolang.search import SearchOptions
from coolang.segments import OPEN, SETTLED, Segment
from coolang.serialize import serialize
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
    # both rules match each round the pattern allows, but only the heavier
    # candidate survives a one-slot silo; the lighter flip is not built,
    # since it keeps the pending q under its new `+` line, which cannot
    # prebind and so cannot finish the search
    assert events == [(1, 10.0), (2, 20.0), (3, 30.0)]


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
    assert list(tables.class_order(class_scope)) == mro
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
        if ln.ctype is CodeType.SCOPE_START and t.scopes[a].kind is ScopeKind.DECL:
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


def test_a_statement_needs_a_round_per_user_call():
    # each round adds one user binding or rewrite to a candidate, while the
    # builtin sums prebind for free
    def calls(n):
        terms = " + ".join(f"f({k})" for k in range(1, n + 1))
        return build(f"@f(x){{ return: x + 1; }}\nnew: y = {terms};\ny --> 0;\n")

    rounds = []
    t = calls(16)
    preexecute(t, on_bound=lambda addr, o: rounds.append(o.rounds))
    assert max(rounds) == SearchOptions().max_rounds == 16
    assert run_program(t).output == ["152.0"]
    with pytest.raises(InferenceFailure, match=r"^round limit reached .*16 rounds"):
        preexecute(calls(17))
    t = calls(17)
    preexecute(t, options=SearchOptions(max_rounds=17))
    assert run_program(t).output == ["170.0"]


_CHAIN_RULES = """\
exp: @(-1){ #a + #b }{ return: b + a; }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
"""


def reference_size(lines, a):
    """The lines of the subtree at a, through left and right slots."""
    ln = lines[a]
    return 1 + sum(
        reference_size(lines, o.addr)
        for o in (ln.left, ln.right)
        if o.kind is OperandKind.ADDRESS and o.addr != a and o.addr in lines
    )


def check_states(seg):
    """Every pending state and line count stored on seg's versions equals
    the reference."""
    for a, v in seg.versions.items():
        if v.state is not None:
            assert (v.state != SETTLED) == reference_pending(seg.lines, a, False)
            assert (v.state == OPEN) == reference_pending(seg.lines, a, True)
            assert v.size == reference_size(seg.lines, a)


def check_entry(tables, ctx, seg, found):
    """Every parent link and cached fact of a silo entry equals a fresh
    computation, and so does every match result that the search's memo
    answered for it: found holds (line, results by func_op) per branch
    the search looked up in seg."""
    parents = {}
    for a in seg.lines:
        for c in seg.children(a):
            parents[c] = a
    check_states(seg)
    for a, v in seg.versions.items():
        assert v.parent == parents.get(a)
    # a new segment shares no version with seg, so it reuses no fact
    fresh = Segment(dict(seg.lines), seg.root)
    for ln, results in found:
        assert seg[ln.address] is ln
        for func_op, m in results.items():
            assert m == match_branch(fresh, ln.address, tables.functions[func_op], ctx)


class RecordingMemo(search.MatchMemo):
    """A match memo that lists every lookup: (segment, line, results)."""

    def __init__(self, looked_up):
        super().__init__()
        self.looked_up = looked_up

    def entry(self, seg, ln, whole):
        results = super().entry(seg, ln, whole)
        self.looked_up.append((seg, ln, results))
        return results


def check_lookups(tables, ctx, looked_up, entries):
    """check_entry on every segment of looked_up and of entries, with the
    results the memo answered for it."""
    by_seg = {}
    for seg, ln, results in looked_up:
        by_seg.setdefault(id(seg), (seg, []))[1].append((ln, results))
    for seg in entries:
        by_seg.setdefault(id(seg), (seg, []))
    for seg, found in by_seg.values():
        check_entry(tables, ctx, seg, found)


def same_classes(segments):
    """Segment.digest and the reference split segments into the same classes."""
    ref = [reference.digest(seg) for seg in segments]
    new = [seg.digest() for seg in segments]
    return len(set(ref)) == len(set(new)) == len(set(zip(ref, new)))


def preexecute_checked(t, options=None):
    """Preexecute t and check every candidate against references.

    Candidates share unchanged lines with their parent, so a move that
    wrote to a shared line would change another candidate. Each search's
    first segment and every admitted candidate must keep the reference
    digest it had: Segment.digest keeps the rows of shared lines, so it
    would not see such a write itself. For each search, Segment.digest and
    the reference must split the candidates it built into the same classes.
    After every rewrite the full repairs must find nothing left for them to
    do. Every prebind pass must reach the fixpoint that repeated ascending
    passes over every line reach. The states each candidate's prebind
    stored must match the reference as soon as it ends, and every admitted
    candidate and every segment the search asked its match memo about must
    pass check_entry once its search is over. Returns the number of forward
    searches, derivation searches, admitted candidates and rewrites.
    """
    admitted, rewrites, built, looked_up = [], [], [], []
    searched = {"forward": [], "derivation": []}
    real_offer = Silo.offer
    real_search = search.search_segment
    real_rewrite = search.apply_exp_rewrite
    real_prebind = Segment.prebind_builtins

    def offer(silo, weight, digest, item):
        ok = real_offer(silo, weight, digest, item)
        if ok:
            seg, _ = item  # the search's entries are (segment, value history)
            admitted.append((reference.digest(seg), seg))
        return ok

    def checked_search(kind):
        # inversion imports search_segment by name, so each site is wrapped
        def search_segment(tables, seg0, ctx, *args, **kwargs):
            before = reference.digest(seg0)
            first, first_built, first_lookup = len(admitted), len(built), len(looked_up)
            try:
                return real_search(tables, seg0, ctx, *args, **kwargs)
            finally:
                searched[kind].append((before, seg0))
                entries = [seg for _, seg in admitted[first:]]
                check_lookups(tables, ctx, looked_up[first_lookup:], entries)
                assert same_classes(built[first_built:])

        return search_segment

    def apply_exp_rewrite(segment, match, tables):
        added = real_rewrite(segment, match, tables)
        if added is not None:
            probe = segment.copy()
            size = len(probe.lines)
            rewrites.append((repair_detached(probe), size, probe))
            expand_rings(probe)
        return added

    def observe(rnd, weight, cand):
        check_states(cand)
        built.append(cand)

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
        ), mock.patch.object(
            search, "MatchMemo", lambda: RecordingMemo(looked_up)
        ):
            preexecute(t, options=options, observer=observe)
    finally:
        for before, seg0 in searched["forward"] + searched["derivation"]:
            assert reference.digest(seg0) == before
        for digest, seg in admitted:
            assert reference.digest(seg) == digest
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
    seg = Segment({ln.address: ln for ln in (plus, mul, assign)}, assign.address)
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

    def apply_exp_rewrite(segment, match, tables):
        added = real_rewrite(segment, match, tables)
        if added is not None:
            kept.append(match.root in segment.lines)
        return added

    with mock.patch.object(search, "apply_exp_rewrite", apply_exp_rewrite):
        preexecute(build(corpus.CHAINED_DERIVATION))
    assert kept and not any(kept)


# --- a rewrite built from its rule's plan ------------------------------------

# rules that commute, duplicate, drop or pass on an operand, stand for a
# constant, keep a body line their result never reaches, or reach three
# operands, one of them twice; a repeated formal and a depth-two pattern
# make the match memo key those slots by the child's whole subtree (the
# loader takes `#a - #a` for a duplicate of `#a - #b`, so the repeated
# formal sits under `/`)
_PLAN_RULES = (
    "exp: @(-1){ #a + #b }{ return: b + a; }",
    "exp: @(-1){ #a * #b }{ return: b * a; }",
    "exp: @(-1){ 2 * #a }{ return: a + a; }",
    "exp: @(-2){ 0 * #a }{ return: 0; }",
    "exp: @(-1){ #a + 0 }{ return: a; }",
    "exp: @(-1){ #a - #b }{ b * 7; return: a + (0 - b); }",
    "exp: @(-1){ #a * (#b + #c) }{ return: a * b + a * c; }",
    "exp: @(-1){ #a / #a }{ return: 1; }",
)


def memo_agrees(memo, ctx, stmt, seg, a, fn, m):
    """Ask memo about branch a as the search would: what it holds for fn
    there must be m, the result of a fresh match; else it keeps m."""
    fns, whole = ctx.declarations.group(seg[a].op.text, ctx, stmt)
    if fn in fns:
        assert memo.entry(seg, seg[a], whole).setdefault(fn.func_op, m) == m


@st.composite
def rewritable_statements(draw):
    def term(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(["0", "2", "3", "q", "$y"]))
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return f"({term(depth - 1)} {op} {term(depth - 1)})"

    form = draw(st.sampled_from(["{} == 9;", "r = {};", "{};"]))
    return form.format(term(draw(st.integers(1, 4))))


def assert_parents_are_the_tree(seg):
    parents = {c: a for a in seg.lines for c in seg.children(a)}
    assert {a: v.parent for a, v in seg.versions.items()} == {
        a: parents.get(a) for a in seg.lines
    }


@settings(max_examples=150, deadline=None)
@given(stmt=rewritable_statements(), rng=st.randoms(use_true_random=False))
def test_a_rewrite_from_the_rule_plan_matches_instantiate_then_repair(stmt, rng):
    # each step applies a random rule that matches at a random branch, to
    # the plan's rewrite and to the reference, which makes every body line
    # and then repairs the whole segment
    t = build("\n".join(_PLAN_RULES) + f"\nnew: q = 4;\nnew: r = 0;\nnew: y = 0;\n{stmt}\n")
    top = [ln for ln in t.code.lines() if ln.ctype is CodeType.EXPR and ln.scope is None][-1]
    seg = Segment.from_run(t, t.expression_run(top.address))
    ctx = PreexecUniverse(t).context_for(None)
    rules = [fn for fn in t.functions.values() if fn.is_exp]
    for fn in rules:
        assert search.rule_plan(t, fn).reached == reference.rule_plan(t, fn)[2]
    memo = search.MatchMemo()
    for _ in range(6):
        moves = [(a, fn) for a in seg.subtree(seg.root) for fn in rules]
        rng.shuffle(moves)
        for a, fn in moves:
            m = match_branch(seg, a, fn, ctx)
            # refusing a branch smaller than the pattern refuses no match
            walked = _Matcher(seg, fn, ctx).match_line(seg[a], t.code[fn.decl_root])
            assert (m is not None) == walked
            memo_agrees(memo, ctx, top.address, seg, a, fn, m)
            if m is None:
                continue
            before = seg.digest()
            mine, ref = seg.copy(), seg.copy()
            got = search.apply_exp_rewrite(mine, m, t)
            want = reference.apply_exp_rewrite(ref, m, t)
            assert seg.digest() == before
            assert (got is None) == (want is None)
            if got is not None:
                assert mine.digest() == ref.digest()
                assert_parents_are_the_tree(mine)
                seg = mine
                break


# reverse declarations, so that a move sequence has value matches too
_VALUE_RULES = (
    "@(10){ $a + b }{ a = ans - b; }",
    "@(10){ $a * b }{ a = ans / b; }",
    "@(10){ $a == b; }{ a = b; }",
)


@settings(max_examples=150, deadline=None)
@given(stmt=rewritable_statements(), rng=st.randoms(use_true_random=False))
def test_copies_taken_anywhere_in_a_move_sequence_digest_like_the_reference(stmt, rng):
    # each step copies the segment and applies a random value match or
    # rewrite to the copy. The candidate may be digested before its
    # prebind, and copies are taken between the move and its prebind, after
    # the prebind, and of earlier copies; some are digested as they come,
    # and at the end all are, in random order
    rules = "\n".join(_PLAN_RULES + _VALUE_RULES)
    t = build(f"{rules}\nnew: q = 4;\nnew: r = 0;\nnew: y = 0;\n{stmt}\n")
    top = [ln for ln in t.code.lines() if ln.ctype is CodeType.EXPR and ln.scope is None][-1]
    seg = Segment.from_run(t, t.expression_run(top.address))
    ctx = PreexecUniverse(t).context_for(None)
    fns = list(t.functions.values())
    pool = [seg]
    seen = []  # (segment, digest, reference digest) when each was taken
    memo = search.MatchMemo()

    def take(s):
        seen.append((s, s.digest(), _reference_digest(s)))

    def maybe_take():
        while rng.random() < 0.4:
            take(rng.choice(pool))

    for _ in range(8):
        moves = [(a, fn) for a in seg.subtree(seg.root) if seg[a].bound is None for fn in fns]
        rng.shuffle(moves)
        for a, fn in moves:
            m = match_branch(seg, a, fn, ctx)
            memo_agrees(memo, ctx, top.address, seg, a, fn, m)
            if m is None:
                continue
            cand = seg.copy()
            if fn.is_exp:
                if search.apply_exp_rewrite(cand, m, t) is None:
                    continue
            else:
                search.apply_value_match(cand, m)
            if rng.random() < 0.3:
                # its prebind still writes, so this digest is not checked again
                seen.append((None, cand.digest(), _reference_digest(cand)))
            if rng.random() < 0.5:
                pool.append(cand.copy())
            maybe_take()
            cand.prebind_builtins()
            if rng.random() < 0.5:
                pool.append(cand.copy())
            if rng.random() < 0.5:
                pool.append(rng.choice(pool).copy())
            pool.append(cand)
            maybe_take()
            seg = cand
            break
        else:
            break
    rng.shuffle(pool)
    for s in pool:
        take(s)
    # nothing is written once it is in the pool
    for s, d, r in seen:
        if s is not None:
            assert s.digest() == d and _reference_digest(s) == r
    new = [d for _, d, _ in seen]
    ref = [r for _, _, r in seen]
    assert len(set(new)) == len(set(ref)) == len(set(zip(new, ref)))


@pytest.mark.parametrize(
    "rule, stmt",
    [
        ("exp: @(-1){ #a * (#b + #c) }{ return: a * b + a * c; }", "r = 2 * ((q + 0) + 3);"),
        ("exp: @(-1){ #a / #a }{ return: 1; }", "r = ((q + 0) * 2) / ((q + 0) * 2);"),
    ],
)
def test_the_match_memo_sees_a_rewrite_two_levels_below_a_branch(rule, stmt):
    # rewriting q + 0 writes its parent but not the branch above that, so
    # the branch keeps its line object and only its child's version changes
    t = build(f"{rule}\nexp: @(-1){{ #a + 0 }}{{ return: a; }}\nnew: q = 4;\nnew: r = 0;\n{stmt}\n")
    top = [ln for ln in t.code.lines() if ln.ctype is CodeType.EXPR and ln.scope is None][-1]
    seg = Segment.from_run(t, t.expression_run(top.address))
    ctx = PreexecUniverse(t).context_for(None)
    fn, drop_zero = sorted(t.functions.values(), key=lambda f: f.func_op)
    op = t.code[fn.decl_root].op.text
    branch = next(a for a in seg.lines if seg[a].op.text == op)
    memo = search.MatchMemo()
    before = match_branch(seg, branch, fn, ctx)
    assert before is not None
    memo_agrees(memo, ctx, top.address, seg, branch, fn, before)
    inner = next(a for a in seg.lines if match_branch(seg, a, drop_zero, ctx) is not None)
    cand = seg.copy()
    assert search.apply_exp_rewrite(cand, match_branch(seg, inner, drop_zero, ctx), t) is not None
    assert cand[branch] is seg[branch]
    after = match_branch(cand, branch, fn, ctx)
    assert after != before
    memo_agrees(memo, ctx, top.address, cand, branch, fn, after)


def test_a_rule_plan_is_made_once_per_table():
    made = []
    real_plan = search.rule_plan

    def rule_plan(tables, fn):
        if fn.func_op not in tables.rule_plans:
            made.append(fn.func_op)
        return real_plan(tables, fn)

    with mock.patch.object(search, "rule_plan", rule_plan):
        for src in (_CHAIN_RULES + "new: y = 0;\n$y + 3 + 4 + 5 == 40;\n", corpus.SIN_APPROX_EXP):
            t = build(src)
            preexecute(t)
            assert made and len(made) == len(set(made))
            made.clear()


def test_a_rule_body_that_a_rewrite_relocated_is_instantiated_whole():
    # binding the body `sin(pi/2 - a) * 2` rewrites its sin call, so the
    # product now precedes the cos line it reads: the plan must take that
    # line too, or the rewrite reads the rule's own body line
    src = corpus.SIN_APPROX_EXP.replace("new: r = sin(pi/2 - 0.5);\nr --> 0;\n", "") + (
        "exp: @(-1){ twice(#a) }{ return: sin(pi/2 - a) * 2; }\n"
        "new: r = twice(0.5);\nr --> 0;\n"
    )
    assert corpus.outputs(src) == ["1.75"]


# --- a move too light for the silo is built only if it might finish --------

# the commuting rules, two rules that drop or pass on an operand, and the
# reverse declarations, each with the weight slot left open
_PRUNING_RULES = (
    "exp: @({}){{ #a + #b }}{{ return: b + a; }}",
    "exp: @({}){{ #a * #b }}{{ return: b * a; }}",
    "exp: @({}){{ 0 * #a }}{{ return: 0; }}",
    "exp: @({}){{ #a + 0 }}{{ return: a; }}",
    "@({}){{ $a + b }}{{ a = ans - b; }}",
    "@({}){{ $a * b }}{{ a = ans / b; }}",
    "@({}){{ $a == b; }}{{ a = b; }}",
)


def bind_with(searcher, src, options):
    """Preexecute src with searcher as the silo search: each statement's
    (address, weight, rounds) and the `.ccode`, or where the search stopped."""
    t = build(src)
    bound = []
    with mock.patch.object(search, "search_segment", searcher), mock.patch.object(
        inversion, "search_segment", searcher
    ):
        try:
            preexecute(
                t,
                options=options,
                on_bound=lambda addr, o: bound.append((addr, o.weight, o.rounds)),
            )
        except InferenceFailure as exc:
            return "failed", exc.rounds, exc.silo, exc.left
    return "bound", bound, serialize(t)


def assert_search_matches_the_reference(src, options):
    got = bind_with(search.search_segment, src, options)
    assert got == bind_with(reference.search_segment, src, options)
    return got


@st.composite
def single_pending_constraints(draw):
    """E($y) == c over + and *, with constants, a known x and further
    occurrences of y, under some of the pruning rules."""

    def term(depth, pending):
        if depth == 0 or draw(st.booleans()):
            if pending:
                return "$y"
            return draw(st.sampled_from(["0", "1", "2", "3", "x", "y"]))
        left_pending = pending and draw(st.booleans())
        left = term(depth - 1, left_pending)
        right = term(depth - 1, pending and not left_pending)
        return f"({left} {draw(st.sampled_from(['+', '*']))} {right})"

    rules = draw(st.lists(st.sampled_from(_PRUNING_RULES), min_size=1, unique=True))
    decls = [r.format(draw(st.integers(-3, 3)) if r.startswith("exp") else 10) for r in rules]
    constraint = term(draw(st.integers(1, 4)), True)
    c = draw(st.integers(0, 50))
    return "\n".join(decls) + f"\nnew: x = 3;\nnew: y = 0;\n{constraint} == {c};\n"


@settings(max_examples=150, deadline=None)
@given(
    src=single_pending_constraints(),
    silo_size=st.integers(1, 4),
    max_rounds=st.integers(2, 7),
)
def test_pruned_search_binds_like_the_search_that_builds_every_move(
    src, silo_size, max_rounds
):
    assert_search_matches_the_reference(src, SearchOptions(silo_size, max_rounds))


def test_a_too_light_rewrite_that_drops_an_unbound_operand_is_built():
    # `0 * (3 + y)` becomes 0 and drops `3 + y`, whose lines are neither on
    # the move's path nor matched: counting those lines alone would skip
    # the move that finishes the search
    weights = (-1, 1, -2, None, 10, 10, 10)  # without `#a + 0`
    rules = [r.format(w) for r, w in zip(_PRUNING_RULES, weights) if w is not None]
    src = "\n".join(rules) + "\nnew: y = 0;\n0 * (3 + y) + 1 * $y == 40;\n"
    got = assert_search_matches_the_reference(src, SearchOptions(silo_size=2, max_rounds=5))
    assert got[0] == "bound"


# (weights of _PRUNING_RULES, None for a rule left out; the rest of the
# program; silo sizes; round limit) for moves that may_finish reasons about
_TOO_LIGHT_CASES = {
    # `0 + $y` commutes to `$y + 0` and `#a + 0` hands y itself to `==`: a
    # rule whose result is a bare formal makes no line that could stay
    # unbound, even though the actual it passes on is pending
    "bare-formal-result": ((0, 0, 0, 0, 10, 10, 10), "new: y = 0;\n(0 + $y) == 0;\n", (1,), 3),
    # with four slots the reverse `+` binds `$y + 1 + 2`, g binds forward
    # over the awaiting sum and `==` prebinds over g; the inner `$y + 1`
    # then finishes, its solved state climbing a bound reverse line to g,
    # which computes
    "under-a-forward-call": (
        (-1, None, None, None, 10, 10, 10),
        "@g(x){ return: x * 2; }\nnew: y = 0;\ng($y + 1 + 2) == 10;\n",
        (1, 4),
        3,
    ),
    # the derived body `ans = <chain>` reaches the chain through its result
    # slot, which the prebind does not read; with the commuting rule heavier
    # than the reverse `+`, the reverse `+` that finishes is too light for
    # one slot
    "under-a-result-slot": (
        (11, None, None, None, 10, 10, 10),
        "@ shift (a) by (b){ return: a + b; } => @ unshift ($a) by (b);\n"
        "new: h = 0;\nunshift ($h) by (7) == 20;\n",
        (1, 2),
        3,
    ),
    # `#a * 2` makes a `twice` line, which no prebind binds, while the
    # reverse `*` path still binds
    "result-line-is-a-user-call": (
        (-1, 1, None, None, 10, 10, 10),
        "@ twice (x){ return: x * 2; }\nexp: @(2){ #a * 2 }{ return: twice (a); }\n"
        "new: y = 0;\n$y * 2 + 3 == 11;\n",
        (2,),
        4,
    ),
    # after the reverse `+` and `==`, the too-light rewrite of `twice (3)`
    # to `3 * 2` finishes: its new line holds no pending, so it prebinds
    "result-line-over-settled-actuals": (
        (-1, None, None, None, 10, 10, 10),
        "exp: @(-2){ twice (#a) }{ return: a * 2; }\nnew: y = 0;\n$y + twice (3) == 10;\n",
        (2,),
        4,
    ),
}


@pytest.mark.parametrize("case", list(_TOO_LIGHT_CASES))
def test_a_too_light_move_binds_like_the_reference(case):
    weights, program, silo_sizes, max_rounds = _TOO_LIGHT_CASES[case]
    rules = [r.format(w) for r, w in zip(_PRUNING_RULES, weights) if w is not None]
    src = "\n".join(rules) + "\n" + program
    for silo_size in silo_sizes:
        got = assert_search_matches_the_reference(src, SearchOptions(silo_size, max_rounds))
        assert got[0] == "bound"


def test_every_candidate_deep_bind_builds_is_offered_to_the_silo():
    # on deep_bind every too-light move is a commuting rewrite that keeps a
    # pending under its new `+` or a reverse match under an unbound `+` or
    # `==`, and may_finish refuses all of them; a value move whose candidate
    # the round has already decided is not built (search.value_history)
    t = build(corpus.workloads.generate("deep_bind", 1).source)
    built, offered = [], []
    real_offer = Silo.offer

    def offer(silo, weight, digest, item):
        offered.append(weight)
        return real_offer(silo, weight, digest, item)

    with mock.patch.object(Silo, "offer", offer):
        preexecute(t, observer=lambda rnd, w, seg: built.append(w))
    assert len(built) == len(offered) == 2279


def test_a_long_statement_builds_a_few_candidates_before_the_round_limit():
    # each round refuses most moves on weight, and none of them can finish
    ones = " + ".join(["1"] * 300)
    t = build(f"{_CHAIN_RULES}new: y = 0;\n$y + {ones} == 5000;\n")
    built = []
    with pytest.raises(
        InferenceFailure,
        match=r"^round limit reached .*\(statement 33, 3 rounds, 4 candidates\)$",
    ):
        preexecute(
            t,
            options=SearchOptions(silo_size=4, max_rounds=3),
            observer=lambda rnd, w, seg: built.append(w),
        )
    assert len(built) <= 100


# --- a value move whose candidate the round already decided is not built --


def admissions(searcher, src, options):
    """The (weight, digest) of every admission in order, and what bind_with returns."""
    admitted = []
    real_offer = Silo.offer

    def offer(silo, weight, digest, item):
        ok = real_offer(silo, weight, digest, item)
        if ok:
            admitted.append((weight, digest))
        return ok

    with mock.patch.object(Silo, "offer", offer):
        got = bind_with(searcher, src, options)
    return admitted, got


_DECIDED_PROGRAMS = [f"deep_bind-{seed}" for seed in (1, 2, 3)] + [
    f"chain-{depth}" for depth in range(2, 11)
]


@pytest.mark.parametrize("silo_size", [1, 2, 3, 5, 8, 64])
@pytest.mark.parametrize("program", _DECIDED_PROGRAMS)
def test_a_search_that_skips_decided_moves_admits_like_the_reference(program, silo_size):
    # the reference builds every move, so the admissions, their order and
    # how each search ends (bound, or where and how it failed) must agree
    kind, n = program.split("-")
    if kind == "deep_bind":
        src = corpus.workloads.generate("deep_bind", int(n)).source
    else:
        src = chain_source(int(n))
    for max_rounds in (4, 16):
        options = SearchOptions(silo_size, max_rounds)
        assert admissions(search.search_segment, src, options) == admissions(
            reference.search_segment, src, options
        )


def _fn(func_op, is_reverse):
    return FunctionInfo(
        decl_scope=Address((900 + func_op,)),
        decl_root=Address((900 + func_op,)),
        body_scope=None,
        is_reverse=is_reverse,
        weight=1.0,
        func_op=Address((func_op,)),
    )


def _stamp(seg, addr, fn):
    """A candidate of seg with fn bound at addr alone, prebound."""
    cand = seg.copy()
    m = Match(fn=fn, root=Address((addr,)), matched=[Address((addr,))])
    search.apply_value_match(cand, m)
    cand.prebind_builtins()
    return cand, m


def test_a_move_that_claims_a_prebound_line_gets_no_history():
    # `2 + 3 == 5` prebinds its `==`, which the forward `a == b` may claim
    t = build("@{ a == b }{ a = b; }\n2 + 3 == 5;\n")
    top = [ln for ln in t.code.lines() if ln.ctype is CodeType.EXPR and ln.scope is None][-1]
    seg = Segment.from_run(t, t.expression_run(top.address))
    ctx = PreexecUniverse(t).context_for(None)
    (fn,) = t.functions.values()
    m = match_branch(seg, seg.root, fn, ctx)
    assert m is not None and seg[seg.root].bound is not None
    assert search.value_history(seg, frozenset(), m) is None


def test_a_move_after_a_rewrite_gets_no_history():
    # on a chain under the commuting rule, an entry carries a history
    # exactly when no rewrite made it, which is when it keeps the first
    # segment's addresses: a rewrite gives its new line a staging address
    offered = []
    real_offer = Silo.offer

    def offer(silo, weight, digest, item):
        offered.append(item)
        return real_offer(silo, weight, digest, item)

    with mock.patch.object(Silo, "offer", offer):
        preexecute(build(chain_source(4)))
    assert offered[0][1] == frozenset()
    for seg, history in offered:
        if history == frozenset():
            seg0 = seg  # each search offers its first segment first
        assert (history is None) == (set(seg.lines) != set(seg0.lines))
    assert 1 < sum(history is not None for _, history in offered) < len(offered)


@pytest.mark.parametrize(
    "is_reverse, pending, above",
    [
        (False, True, "builtin"),  # forward over an OPEN root: it settles
        (True, False, "builtin"),  # reverse over a SETTLED root: it unsettles
        (False, True, "user"),
        (True, False, "user"),
        (False, False, "builtin"),  # the answer at the root stays SETTLED
        (True, True, "builtin"),  # and here it stays not SETTLED
    ],
)
def test_a_move_that_changes_what_a_builtin_passes_up_gets_no_history(
    is_reverse, pending, above
):
    # 3: 2 + 4, where 2 is `=` over 1 through its right slot, which it does
    # not read. Binding 1 and 4 in either order must give one candidate,
    # unless the stamp at 1 moves the root across SETTLED under a builtin:
    # then 3 sees the change only in one order, and 1 gets no history
    one = line(1, "k", ident("y"), num(0), pending=[SLOT_LEFT] if pending else None)
    two = line(2, "=" if above == "builtin" else "f", num(5), ref(1))
    if above == "user":
        two.bound = Address((95,))
    seg0 = segment([one, two, line(3, "+", ref(2), ref(4)), line(4, "h", num(2), num(0))], 3)
    seg0.prebind_builtins()
    assert seg0[Address((2,))].bound is not None
    first, second = _fn(91, is_reverse), _fn(94, False)
    a, ma = _stamp(seg0, 1, first)
    ab, _ = _stamp(a, 4, second)
    b, mb = _stamp(seg0, 4, second)
    ba, _ = _stamp(b, 1, first)
    history = search.value_history(seg0, frozenset(), ma)
    assert search.value_history(seg0, frozenset(), mb) is not None
    changes = pending != is_reverse and above == "builtin"
    assert (history is None) == changes
    assert (ab.digest() != ba.digest()) == changes
