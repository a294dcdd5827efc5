import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from corpus import workloads
from reference import class_mro
from coolang import build, execute, preexecute
from coolang import records
from coolang.cli import main
from coolang.code import CodeTable, CodeType, Operand, OperandKind, Tables
from coolang.errors import (
    CallDepthExceeded,
    CoolRuntimeError,
    FormatError,
    ReverseUnsatisfied,
    StepBudgetExceeded,
    UnresolvedIdentifier,
)
from coolang.runtime import _BINARY, _BRANCH, _JUMP, _STORE, Interpreter, run_program
from coolang.serialize import deserialize, serialize


def test_corpus_programs_print_their_expected_outputs():
    cases = {
        "add_to": (corpus.ADD_TO, corpus.ADD_TO_OUTPUT),
        "out_scope": (corpus.OUT_SCOPE, corpus.OUT_SCOPE_OUTPUT),
        "quadratic": (
            corpus.QUADRATIC_CONSTRAINT,
            corpus.QUADRATIC_CONSTRAINT_OUTPUT,
        ),
        "apple": (corpus.APPLE_PRICE, corpus.APPLE_PRICE_OUTPUT),
        "sin": (corpus.SIN_APPROX, corpus.SIN_APPROX_OUTPUT),
        "loop": (corpus.LOOP_AND_BRANCH, corpus.LOOP_AND_BRANCH_OUTPUT),
        "classes": (corpus.CLASS_SOLVER, corpus.CLASS_SOLVER_OUTPUT),
    }
    for name, (src, want) in cases.items():
        assert corpus.outputs(src) == want, name


def test_reverse_calls_complete_after_forward_ones_in_one_expression():
    # five one-call statements fused into a single longest expression by
    # dropping the separators after binding; reverse roots must then
    # complete descending after the forward roots finish ascending
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
    assert len(t.expression_run(order[0])) == 5
    interp = run_program(t)
    assert [order.index(a) + 1 for a in interp.call_log] == [2, 3, 5, 4, 1]


def test_a_consumer_solves_before_a_producer_a_rewrite_relocated():
    # the commuting rule relocates `$y + 1` after the `==` that reads it;
    # the reverse `==` must still hand its answer to the reverse `+` first
    src = """
exp: @(1){ #a + #b }{ return: b + a; }
@(10){ $a + b }{ a = ans - b; }
@(10){ $a == b; }{ a = b; }
new: y = 0;
1 + $y == 3;
y --> 0;
"""
    t = build(src)
    preexecute(t)
    roots = [ln for ln in t.code.lines() if ln.root and ln.bound_reverse and ln.scope is None]
    eq, plus = roots
    assert eq.left.addr == plus.address  # the consumer sorts first
    assert run_program(t).output == ["2.0"]


def test_arguments_pass_by_reference():
    src = """
@set(a){ a = 5; }
new: v = 1;
set(v);
v --> 0;
"""
    assert corpus.outputs(src) == ["5.0"]


def test_a_reverse_call_must_solve_its_pending_argument():
    src = """
@(1){ $a - 0 }{ new: t = ans; }
$q - 0;
"""
    with pytest.raises(ReverseUnsatisfied, match="never solved"):
        corpus.outputs(src)


def test_strings_concatenate_and_print_verbatim():
    assert corpus.outputs('new: s = "con" + "cat";\ns --> 0;\n') == ["concat"]


def test_numbers_print_with_full_precision():
    assert corpus.outputs("new: x = 1 / 3;\nx --> 0;\n") == [repr(1.0 / 3.0)]


def test_numeric_faults_stop_the_run():
    with pytest.raises(CoolRuntimeError, match="division by zero"):
        corpus.outputs("new: a = 1 / 0;\n")
    with pytest.raises(CoolRuntimeError, match="fractional power"):
        corpus.outputs("new: a = (0 - 2) ^ 0.5;\n")
    with pytest.raises(CoolRuntimeError, match="'\\^' left the number range"):
        corpus.outputs("new: a = 10 ^ 400;\n")


@pytest.mark.parametrize(
    "src, message",
    [
        ("new: a = 1 / 0;", "division by zero at 2"),
        ("new: a = 1 / (0 - 0);", "division by zero at 3"),
        ('new: a = "s" / 2;', "'/' needs numbers, got str at 2"),
        ('new: a = 2 / "s";', "'/' needs numbers, got str at 2"),
        ("new: a = 10 ^ 300 / (1 / 10 ^ 300);", "'/' left the number range at 5"),
        ('new: a = "s" ^ 2;', "'^' needs numbers, got str at 2"),
        ('new: a = 2 ^ "s";', "'^' needs numbers, got str at 2"),
        ("new: a = 10 ^ 400;", "'^' left the number range at 2"),
        ("new: a = (0 - 2) ^ 0.5;", "fractional power of a negative number at 3"),
        ("new: a = 0 ^ (0 - 1);", "zero to a negative power at 3"),
    ],
)
def test_division_and_power_faults_keep_their_text_and_address(src, message):
    with pytest.raises(CoolRuntimeError) as exc:
        corpus.outputs(src + "\n")
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "expr, value",
    [
        ("7 / 2", 3.5),
        ("(0 - 7) / 2", -3.5),
        ("2 ^ 0.5", 2**0.5),
        ("4 ^ (0 - 0.5)", 0.5),
        ("(0 - 2) ^ 3", -8.0),
        ("0 ^ 2", 0.0),
        ("0 ^ 0", 1.0),
    ],
)
def test_division_and_power_values(expr, value):
    assert corpus.outputs(f"new: a = {expr};\na --> 0;\n") == [repr(value)]


def test_the_interpreter_refuses_raw_code():
    with pytest.raises(CoolRuntimeError, match="preexecuted"):
        Interpreter(build(corpus.ADD_TO))


def live_records_after(run):
    """Records run() created and did not destroy."""
    created, destroyed = records.created_count, records.destroyed_count
    run()
    return (records.created_count - created) - (records.destroyed_count - destroyed)


# what each corpus run prints, the calls it completes (as positions in the
# code table, in completion order) and the records it creates and destroys,
# pinned from the recursive interpreter this loop replaced
CORPUS_RUNS = {
    "add_to": (["1.0"], [10], 2, 1),
    "out_scope": (["2.0"], [], 2, 1),
    "quadratic_constraint": (["1.0"], [37, 36], 3, 2),
    "apple_price": (["5.0"], [44, 35, 43], 4, 3),
    "sin_approx": (["0.875"], [23, 30], 3, 2),
    "sin_approx_exp": (["0.875"], [29], 2, 1),
    "loop_and_branch": (["10.0", "ten"], [], 7, 6),
    "chained_derivation": (
        ["36.10050506338833"],
        [128, 102, 101, 112, 111, 116, 115, 114, 127],
        10,
        9,
    ),
    "class_solver": (["8.198039027185569", "18.19803902718557"], [68, 87, 89], 7, 3),
}


@pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
def test_a_corpus_run_keeps_its_output_calls_and_records(name):
    t = build(corpus.ALL_PROGRAMS[name])
    preexecute(t)
    position = {ln.address: i for i, ln in enumerate(t.code.lines())}
    created, destroyed = records.created_count, records.destroyed_count
    interp = run_program(t)
    got = (
        interp.output,
        [position[a] for a in interp.call_log],
        records.created_count - created,
        records.destroyed_count - destroyed,
    )
    assert got == CORPUS_RUNS[name]


# per generated workload: the calls a run completes, the records it creates
# and destroys, and per seed 1-5 the first 16 hex digits of the sha256 of
# its printed lines, joined by newlines; pinned before calls had per-site
# plans
WORKLOAD_RUNS = {
    "deep_bind": (
        21,
        22,
        21,
        (
            "1308edc668139670",
            "20e893ef4fb34cb3",
            "6c06d6ebed049418",
            "fa1fb1187d2a363c",
            "089cdf9317399385",
        ),
    ),
    "wide_program": (
        180,
        201,
        180,
        (
            "53dbdf8b9ce04e85",
            "e6e48ad502d2d6ae",
            "b54862a4c54e1444",
            "039e6c42f1294db3",
            "94044b9981fb2a36",
        ),
    ),
    "loop_run": (
        12003,
        15004,
        15003,
        (
            "a67023f88ff5dbe5",
            "72b5f13aa70f40db",
            "c75a490856e56023",
            "c7011f5f75652207",
            "89091411d8c8a2f5",
        ),
    ),
}


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("workload", sorted(WORKLOAD_RUNS))
def test_a_workload_run_keeps_its_output_calls_and_records(workload, seed):
    program = workloads.generate(workload, seed)
    t = build(program.source)
    preexecute(t)
    created, destroyed = records.created_count, records.destroyed_count
    interp = run_program(t)
    assert workloads.output_matches(interp.output, program.expected)
    calls, made, gone, digests = WORKLOAD_RUNS[workload]
    printed = hashlib.sha256("\n".join(interp.output).encode()).hexdigest()[:16]
    got = (
        printed,
        len(interp.call_log),
        records.created_count - created,
        records.destroyed_count - destroyed,
    )
    assert got == (digests[seed - 1], calls, made, gone)


def test_scope_records_are_destroyed_on_exit():
    for name in ("add_to", "out_scope", "loop_and_branch", "chained_derivation"):
        t = build(corpus.ALL_PROGRAMS[name])
        preexecute(t)
        # everything but the global record comes back down
        assert live_records_after(lambda: run_program(t)) == 1, name


def test_a_return_inside_a_loop_leaves_every_scope_it_was_in():
    src = """
@first(n){
  new: i = 0;
  while (i < 10) {
    if (i * i > n) { return: i; }
    i = i + 1;
  }
  return: 0 - 1;
}
new: a = 0;
new: b = 0;
a = first(20);
b = first(200);
a --> 0;
b --> 0;
"""
    t = build(src)
    preexecute(t)
    runs = []
    assert live_records_after(lambda: runs.append(run_program(t))) == 1
    assert runs[0].output == ["5.0", "-1.0"]


def test_a_failed_run_leaves_the_scopes_it_was_in():
    # the error stops the run inside a while inside an if inside a call:
    # both scope records go, the call's body and the global record stay
    src = """
@f(n){
  if (n > 0) {
    while (n > 0) { n = n / 0; }
  }
  return: n;
}
new: a = 1;
new: b = f(a);
"""
    t = build(src)
    preexecute(t)

    def run():
        with pytest.raises(CoolRuntimeError, match="division by zero"):
            run_program(t)

    assert live_records_after(run) == 2


def test_steps_count_backward_jumps_and_calls():
    # ten passes jump back ten times; each pass makes one call
    src = """
@bump(a){ a = a + 1; }
new: i = 0;
while (i < 10) { bump(i); }
i --> 0;
"""
    t = build(src)
    preexecute(t)
    assert run_program(t, max_steps=20).output == ["10.0"]
    with pytest.raises(StepBudgetExceeded, match="more than 19 steps"):
        run_program(t, max_steps=19)


def test_the_benchmark_loop_takes_its_step_budget_exactly():
    t = build(workloads.generate("loop_run", 1).source)
    preexecute(t)
    assert len(run_program(t, max_steps=15_003).output) == 3
    with pytest.raises(StepBudgetExceeded, match="more than 15002 steps"):
        run_program(t, max_steps=15_002)


def _ops(interp):
    return [ins[0] for ins in interp.program.code]


def test_a_fused_tests_backward_jump_counts_a_step():
    # the if's test, its == and its jump (row 7) lower to one _BRANCH; sent
    # back to row 1, that jump loops on the top-level rows for ever
    t = build("new: i = 0; if (1 > 2) { i --> 0; }")
    preexecute(t)
    rows = [row.split("\t") for row in serialize(t).splitlines()]
    jump = next(row for row in rows if row[0] == "7")
    assert jump[1:5] == ["jump", "jump", "5", "13"]
    jump[4] = "1"
    text = "".join("\t".join(row) + "\n" for row in rows)
    interp = Interpreter(deserialize(text), max_steps=1000)
    assert _BRANCH in _ops(interp)
    with pytest.raises(StepBudgetExceeded, match="more than 1000 steps"):
        interp.run()


@pytest.mark.parametrize(
    "src",
    [
        "@f(x){ return: x + 1; } system: P { new: v = 2; } P: p; f(p.v) --> 0;",
        "@g(x){ x = x + 1; } system: P { new: v = 2; } P: p; g(p.v); p.v --> 0;",
    ],
    ids=["reads", "writes"],
)
def test_a_call_passes_a_member_chain_by_reference(src):
    assert execute(src).output == ["3.0"]


def test_a_loop_test_and_an_update_each_lower_to_one_fused_instruction():
    t = build("new: i = 0;\nnew: n = 5;\nwhile (i < n) { i = i + 1; }\ni --> 0;\n")
    preexecute(t)
    interp = Interpreter(t)
    code, ops = interp.program.code, _ops(interp)
    assert ops.count(_BRANCH) == 1 and ops.count(_STORE) == 1
    # the absorbed instructions keep their slots after the fused one
    b = ops.index(_BRANCH)
    assert ops[b + 1 : b + 3] == [_BINARY, _JUMP] and code[b][-1] == code[b + 2][-1]
    interp.run()
    assert interp.output == ["5.0"]
    # the last test still wrote both temporaries: i < n false, its == 0 true
    data = interp.global_record.data
    assert (data[code[b][4]], data[code[b][5]]) == (0.0, 1.0)


@pytest.mark.parametrize(
    "start, want", [(2, ["3.0", "3.0"]), (-1, ["4.0", "3.0"]), (0, ["6.0", "3.0"])]
)
def test_an_if_chain_ending_on_a_loop_test_jumps_onto_the_fused_test(start, want):
    src = (
        f"new: i = {start};\nnew: s = 0;\n"
        "if (i > 1) { s = 1; } elseif (i < 0) { s = 2; } else { s = 3; }\n"
        "while (i < 3) { s = s + i; i = i + 1; }\n"
        "s --> 0;\ni --> 0;\n"
    )
    t = build(src)
    preexecute(t)
    interp = Interpreter(t)
    code, ops = interp.program.code, _ops(interp)
    loop_test = max(pc for pc, op in enumerate(ops) if op == _BRANCH)
    ends = [ins for ins in code[:loop_test] if ins[0] == _JUMP and ins[2] == loop_test]
    assert len(ends) == 2  # the if and the elseif arm's jumps past the chain
    interp.run()
    assert interp.output == want


@pytest.mark.parametrize(
    "src, want",
    [
        ("new: a = 1; { new: a = 7; out: a = a + 5; } a --> 0;", ["12.0"]),
        ("new: a = 1; { new: a = 0; out: a = a + 5; a --> 0; } a --> 0;", ["0.0", "5.0"]),
    ],
)
def test_an_out_name_is_written_in_the_enclosing_record(src, want):
    assert execute(src).output == want


def test_an_out_name_reads_and_writes_the_enclosing_record_in_fused_instructions():
    # the loop test reads the outer n, the stored product writes the outer s
    src = """new: n = 3; new: s = 0;
{ new: n = 100; new: s = 50; new: i = 0;
  while (i < out: n) { i = i + 1; }
  out: s = i * out: n;
  s = out: s + 1;
  i --> 0; s --> 0; }
s --> 0;
"""
    t = build(src)
    preexecute(t)
    interp = Interpreter(t)
    fused = [ins for ins in interp.program.code if ins[0] in (_BRANCH, _STORE)]
    assert [ins[0] for ins in fused] == [_BRANCH, _STORE, _STORE, _STORE]
    assert fused[0][3][1:] == ("n", True)
    assert fused[2][3][1:] == ("n", True) and fused[2][-1][1:] == ("s", True)
    interp.run()
    assert interp.output == ["3.0", "10.0", "9.0"]


def test_the_call_depth_counts_calls_not_scopes():
    src = "@f(n){ if (n > 0) { return: f(n - 1) + 1; } return: 0; }\nnew: a = f(3);\na --> 0;\n"
    t = build(src)
    preexecute(t)
    assert run_program(t, max_call_depth=4).output == ["3.0"]
    with pytest.raises(CallDepthExceeded):
        run_program(t, max_call_depth=3)


def test_reverse_calls_count_against_both_budgets():
    # the benchmark's loop shape for three passes, then a derived reverse
    # whose body makes a reverse call of its own. Each pass jumps back once
    # and makes three reverse calls and one forward call (15 steps); the
    # constraint after the loop makes three more calls, two of them nested
    src = (
        "@(10){ $a * b }{ a = ans / b; }\n"
        "@(10){ $a + b }{ a = ans - b; }\n"
        "@(10){ $a == b; }{ a = b; }\n"
        "@acc(a, b){ b = b + a; }\n"
        "new: i = 0;\nnew: x = 0;\nnew: total = 0;\n"
        "while (i < 3) {\n"
        "  $x * 4 + 17 == i;\n"
        "  acc(x, total);\n"
        "  i = i + 1;\n"
        "}\n"
        "total --> 0;\ni --> 0;\n"
        "@ shift (a) by (b){ return: a + b; } => @ unshift ($a) by (b);\n"
        "new: h = 0;\nunshift ($h) by (42) == 797;\nh --> 0;\n"
    )
    t = build(src)
    preexecute(t)
    want = ["-12.0", "3.0", "755.0"]
    assert run_program(t, max_steps=18).output == want
    with pytest.raises(StepBudgetExceeded, match="more than 17 steps"):
        run_program(t, max_steps=17)
    assert run_program(t, max_call_depth=2).output == want
    with pytest.raises(CallDepthExceeded, match="deeper than 1 levels"):
        run_program(t, max_call_depth=1)


def test_instances_outlive_the_calls_that_touch_them():
    t = build(corpus.CLASS_SOLVER)
    preexecute(t)
    # the global record plus m and its two inherited instances stay live
    assert live_records_after(lambda: run_program(t)) == 4


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 9),
    k=st.integers(0, 99),
    n=st.integers(0, 12),
)
def test_while_loops_match_a_closed_form(m, k, n):
    # the benchmark's loop shape: per pass one reverse-bound constraint
    # (three reverse calls) and one forward call
    src = (
        "@(10){ $a * b }{ a = ans / b; }\n"
        "@(10){ $a + b }{ a = ans - b; }\n"
        "@(10){ $a == b; }{ a = b; }\n"
        "@acc(a, b){ b = b + a; }\n"
        "new: i = 0;\nnew: x = 0;\nnew: total = 0;\n"
        f"while (i < {n}) {{\n"
        f"  $x * {m} + {k} == i;\n"
        "  acc(x, total);\n"
        "  i = i + 1;\n"
        "}\n"
        "total --> 0;\ni --> 0;\n"
    )
    interp = execute(src)
    total, count = (float(v) for v in interp.output)
    assert math.isclose(total, (n * (n - 1) / 2 - n * k) / m, rel_tol=1e-9, abs_tol=1e-9)
    assert count == n
    assert len(interp.call_log) == 4 * n


def test_running_walks_the_lowered_program_not_the_table(monkeypatch):
    t = build(corpus.LOOP_AND_BRANCH)
    preexecute(t)
    interp = Interpreter(t)

    def refuse(*args, **kwargs):
        raise AssertionError("the table was walked at run time")

    monkeypatch.setattr(CodeTable, "next_after", refuse)
    monkeypatch.setattr(Tables, "expression_run", refuse)
    interp.run()
    assert interp.output == corpus.LOOP_AND_BRANCH_OUTPUT


def test_a_call_off_its_declarations_shape_fails_before_the_run():
    t = build(corpus.QUADRATIC_CONSTRAINT)
    preexecute(t)
    # the call's left operand should hold a line, as its pattern's left does
    call = next(
        ln
        for ln in t.code.lines()
        if ln.is_user_bound
        and ln.root
        and t.code[t.functions[ln.bound].decl_root].left.kind is OperandKind.ADDRESS
    )
    call.left = Operand.number(1.0)
    with pytest.raises(FormatError, match=r"^call at \S+ does not follow its declaration's shape$"):
        Interpreter(t)


def test_a_call_whose_operands_name_their_own_lines_fails_before_the_run(tmp_path, capsys):
    t = build(corpus.QUADRATIC_CONSTRAINT)
    preexecute(t)
    call = next(
        ln
        for ln in t.code.lines()
        if ln.is_user_bound
        and ln.root
        and t.code[t.functions[ln.bound].decl_root].left.kind is OperandKind.ADDRESS
    )
    root = t.code[t.functions[call.bound].decl_root]
    # both trees loop back to their roots: the alignment must not walk on
    call.left = Operand.address(call.address)
    root.left = Operand.address(root.address)
    message = f"call at {call.address} does not follow its declaration's shape"
    with pytest.raises(FormatError, match=f"^{message}$"):
        Interpreter(t)
    table = tmp_path / "cycle.ccode"
    table.write_text(serialize(t))
    assert main(["run", str(table)]) == 1
    assert capsys.readouterr().err == f"coolc: FormatError: {message}\n"


def test_linked_records_come_leftmost_depth_first_each_once():
    a, b, c = (records.Record(scope=None) for _ in range(3))
    a.param_query_links += [b, c]
    b.param_query_links += [c, a]
    c.param_query_links.append(b)
    assert list(a.linked()) == [a, b, c]
    c.data["v"] = 1.0
    assert a.resolve("v").record is c


@st.composite
def class_graphs(draw):
    """Up to six classes, each inheriting from earlier ones, some declaring v."""
    n = draw(st.integers(1, 6))
    parents = [
        draw(st.lists(st.integers(0, k - 1), unique=True, max_size=3)) if k else []
        for k in range(n)
    ]
    declares = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return parents, declares


@settings(max_examples=60, deadline=None)
@given(graph=class_graphs())
def test_an_instance_reads_members_in_class_mro_order(graph):
    parents, declares = graph
    top = len(parents) - 1
    src = ""
    for k, ps in enumerate(parents):
        inherit = " << " + ", ".join(f"C{p}" for p in ps) if ps else ""
        body = f"new: v = {k};" if declares[k] else f"new: u{k} = 0;"
        src += f"system: C{k}{inherit} {{ {body} }}\n"
    t = build(src + f"C{top}: m;\nm.v --> 0;\n")
    uni = preexecute(t)
    scope = {c.name: s for s, c in t.classes.items()}[f"C{top}"]
    mro = class_mro(t, scope)
    for s in t.classes:
        assert list(t.class_order(s)) == class_mro(t, s)
    # the static record universe shares one record per class
    assert [r.scope for r in uni.record_for(scope).linked()] == mro
    interp = Interpreter(t)
    owners = [k for k in (int(t.classes[s].name[1:]) for s in mro) if declares[k]]
    if owners:
        interp.run()
        assert interp.output == [f"{owners[0]}.0"]
    else:
        with pytest.raises(UnresolvedIdentifier, match="'m' has no member 'v'"):
            interp.run()
    # a run makes one record per class, as preexecute does, linked in mro order
    seen = []
    for r in interp.global_record.data["m"].linked():
        if r.scope not in seen:
            seen.append(r.scope)
    assert seen == mro


DIAMOND = """
system: D { new: x = 1; x --> 0; }
system: B << D { @getb(){ return: x; } }
system: C << D { @getc(){ return: x; } }
system: A << B, C { new: a = 0; }
A: m;
m.x = 7;
m.getb() --> 0;
m.getc() --> 0;
"""


def test_a_diamond_base_runs_its_body_once_and_is_shared():
    # both paths from A reach the one D record: its body prints once, and
    # the methods of B and C read the x that m.x wrote
    assert execute(DIAMOND).output == ["1.0", "7.0", "7.0"]


def test_an_instance_of_a_diamond_lattice_makes_one_record_per_class():
    k = 12
    src = "system: D0 { new: x = 1; }\n"
    for j in range(k):
        src += (
            f"system: B{j} << D{j} {{ new: b{j} = 0; }}\n"
            f"system: C{j} << D{j} {{ new: c{j} = 0; }}\n"
            f"system: D{j + 1} << B{j}, C{j} {{ new: d{j + 1} = 0; }}\n"
        )
    t = build(src + f"D{k}: m;\nm.x --> 0;\n")
    preexecute(t)
    interp = Interpreter(t)
    created = records.created_count
    interp.run()
    assert interp.output == ["1.0"]
    order = t.class_order(t.class_scopes[f"D{k}"])
    assert len(order) == 3 * k + 1
    assert records.created_count - created == len(order)
    assert [r.scope for r in interp.global_record.data["m"].linked()] == list(order)
