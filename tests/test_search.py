from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from coolang import build, execute, run_program
from coolang import inversion, search
from coolang.code import CodeType
from coolang.errors import InferenceFailure
from coolang.matching import match_branch
from coolang.preexec import PreexecUniverse, preexecute
from coolang.search import SearchOptions, accessible_functions
from coolang.segments import Segment, evaluate
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
    fns = accessible_functions(t, stmt.scope, stmt.address)
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


_CHAIN_RULES = """\
exp: @(-1){ #a + #b }{ return: b + a; }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
"""


def preexecute_checked(t, options=None):
    """Preexecute t and check that no candidate ever saw a sibling's move.

    Candidates share unchanged lines with their parent, so a move that
    wrote to a shared line would change another candidate's digest. Each
    search's first segment and every admitted candidate must keep the
    digest it had, and after every rewrite the full repairs must find
    nothing left for them to do. Returns the number of forward searches,
    derivation searches, admitted candidates and rewrites.
    """
    admitted, rewrites = [], []
    searched = {"forward": [], "derivation": []}
    real_offer = Silo.offer
    real_search = search.search_segment
    real_rewrite = search.apply_exp_rewrite

    def offer(silo, weight, digest, item):
        ok = real_offer(silo, weight, digest, item)
        if ok:
            admitted.append((digest, item))
        return ok

    def checked_search(kind):
        # inversion imports search_segment by name, so each site is wrapped
        def search_segment(tables, seg0, *args, **kwargs):
            before = seg0.digest()
            try:
                return real_search(tables, seg0, *args, **kwargs)
            finally:
                searched[kind].append((before, seg0))

        return search_segment

    def apply_exp_rewrite(segment, match, tables):
        added = real_rewrite(segment, match, tables)
        if added is not None:
            probe = segment.copy()
            size = len(probe.lines)
            rewrites.append((probe.repair_detached(), size, probe))
            probe.expand_rings()
        return added

    try:
        with mock.patch.object(Silo, "offer", offer), mock.patch.object(
            search, "search_segment", checked_search("forward")
        ), mock.patch.object(
            inversion, "search_segment", checked_search("derivation")
        ), mock.patch.object(search, "apply_exp_rewrite", apply_exp_rewrite):
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
    assert all(n <= 1 for n in seg.reference_counts().values())
    probe = seg.copy()
    assert probe.repair_detached() == []
    probe.expand_rings()
    assert len(probe.lines) == len(seg.lines)
    assert evaluate(seg, env, total) == before == 19.0


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
