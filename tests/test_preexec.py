import corpus
from coolang import build
from coolang.code import CodeType, ScopeKind
from coolang.preexec import preexecute
from coolang.records import Record
from coolang.segments import Segment


def in_decl_scope(t, ln):
    s = ln.scope
    while s is not None:
        info = t.scopes[s]
        if info.kind is ScopeKind.DECL:
            return True
        s = info.parent
    return False


def test_every_statement_is_visited_at_most_once():
    for name, src in corpus.ALL_PROGRAMS.items():
        t = build(src)
        visits = {}
        preexecute(t, visits=visits)
        over = {a: n for a, n in visits.items() if n > 1}
        assert not over, f"{name}: revisited {over}"


def test_a_relocated_statement_and_the_one_after_it_each_bind_once(monkeypatch):
    # the sin rewrite gives `r = sin(pi/2 - 0.5)` lines of a new shape, so
    # its splice relocates them; the walk then goes on at `r --> 0`
    relocated = []
    splice = Segment.splice

    def recording(seg, tables, original):
        mapping = splice(seg, tables, original)
        if mapping:
            relocated.append(original[0])
        return mapping

    monkeypatch.setattr(Segment, "splice", recording)
    t = build(corpus.SIN_APPROX_EXP)
    assign = next(ln for ln in t.code.lines() if ln.op.text == "=" and ln.result.text == "r")
    show = next(ln for ln in t.code.lines() if ln.op.text == "-->")
    first = t.expression_run(assign.address)[0].address
    visits = {}
    preexecute(t, visits=visits)
    assert relocated == [first]
    assert visits[first] == visits[show.address] == 1
    assert all(n == 1 for n in visits.values())
    assert t.code[show.address].bound is not None


def test_every_live_expression_ends_up_bound():
    for name, src in corpus.ALL_PROGRAMS.items():
        t = build(src)
        preexecute(t)
        assert t.preexecuted
        for ln in t.code.lines():
            if ln.ctype is not CodeType.EXPR:
                continue
            if in_decl_scope(t, ln):
                assert ln.bound is None, f"{name}: pattern {ln.address} got bound"
            else:
                assert ln.bound is not None, f"{name}: {ln.address} left unbound"


def test_pattern_templates_keep_their_lines():
    t = build(corpus.CHAINED_DERIVATION)
    before = [
        ln.address
        for ln in t.code.lines()
        if ln.ctype is CodeType.EXPR and in_decl_scope(t, ln)
    ]
    preexecute(t)
    after = [
        ln.address
        for ln in t.code.lines()
        if ln.ctype is CodeType.EXPR and in_decl_scope(t, ln)
    ]
    assert before == after


def test_instances_share_their_class_record_before_execution():
    t = build(corpus.CLASS_SOLVER + "\nMainProcess: m2;\n")
    uni = preexecute(t)
    m = uni.resolve(None, "m", False).read()
    m2 = uni.resolve(None, "m2", False).read()
    assert isinstance(m, Record)
    assert m is m2
    assert m.scope in t.classes


def test_derivation_fills_the_reverse_body_in():
    t = build(corpus.CHAINED_DERIVATION)
    rev = [
        f for f in t.functions.values() if f.is_reverse and f.weight == 0.0
    ][0]
    assert rev.body_scope is None
    preexecute(t)
    assert rev.body_scope is not None
    # a reverse body solves its pending parameters, it does not return
    assert not rev.returns
    body = t.scopes[rev.body_scope]
    assert body.kind is ScopeKind.BODY
    # the body follows its declaration, and the function row names both
    assert t.scopes[rev.decl_scope].end < body.start
    assert t.code[rev.func_op].right.addr == body.start


def test_out_marked_reads_bind_without_search_weight():
    t = build(corpus.OUT_SCOPE)
    outcomes = []
    preexecute(t, on_bound=lambda a, o: outcomes.append((o.weight, o.rounds)))
    assert outcomes
    assert all(o == (0.0, 0) for o in outcomes)
