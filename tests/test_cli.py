import functools
import re

import pytest

import corpus
import reference
from coolang import cli, errors, execute
from coolang.cli import main
from coolang.runtime import Interpreter


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_compile_writes_a_code_table_next_to_the_source(tmp_path, capsys):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    assert main(["compile", src]) == 0
    out = tmp_path / "quad.ccode"
    assert out.exists()
    assert out.read_text().splitlines()[0] == "COOLCC 1"


def test_running_the_code_table_matches_running_the_source(tmp_path, capsys):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    assert main(["run", src]) == 0
    direct = capsys.readouterr().out
    assert direct.splitlines() == corpus.QUADRATIC_CONSTRAINT_OUTPUT
    assert main(["compile", src]) == 0
    assert main(["run", str(tmp_path / "quad.ccode")]) == 0
    assert capsys.readouterr().out == direct


def test_an_instance_prints_the_same_number_on_every_run(tmp_path, capsys):
    # numbered within its run, not by the records the process made before
    text = "system: P { new: v = 1; } P: p; p --> 0;"
    seen = [execute(text).output for _ in range(2)]
    src = write(tmp_path, "p.cool", text)
    bound = str(tmp_path / "p.ccode")
    assert main(["run", src]) == 0
    assert main(["preexec", src, "-o", bound]) == 0
    assert main(["run", bound]) == 0
    seen += [[line] for line in capsys.readouterr().out.splitlines()]
    assert seen == [["<instance 1>"]] * 4


# `@f(a){ return: a + 1; }  f(2) --> 0;` compiled by a writer that put the
# scope, function and class tables after the code rows, a `---` row before
# each; cells are tab-separated in the file
_SECTIONED = """\
1 func func 2 6 0.0 i,a,a,n FFFF - F
2 sstart - decl - - e,i,e,e FFFF - F
3 expr f a - 3 i,i,e,a FFFF - F
4 eend - - - - e,e,e,e FFFF - F
5 send - - - - e,e,e,e FFFF - F
6 sstart - body - - e,i,e,e FFFF - F
7 expr %2B a 1.0 7 i,i,n,a FFFF - F
8 ret return 7 - - i,a,e,e FFFF - F
9 eend - - - - e,e,e,e FFFF - F
10 send - - - - e,e,e,e FFFF - F
11 expr f 2.0 - 11 i,n,e,a FFFF - F
12 expr --%3E 11 0.0 - i,a,n,e FFFF - F
13 eend - - - - e,e,e,e FFFF - F
---
2 decl 2 5 - -
6 body 6 10 2 -
---
1 f 2 3 6 8 F F 0.0 -
---
"""


def test_a_code_table_with_table_sections_is_a_format_error(tmp_path, capsys):
    # a file holds the code rows alone, so the first `---` row, on line 15,
    # is a code row of one column
    table = tmp_path / "sectioned.ccode"
    table.write_text("COOLCC 1\n" + _SECTIONED.replace(" ", "\t"))
    assert main(["run", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coolc: FormatError: line 15, code row: 1 columns, wanted 10\n"


# `new: a = 1; a --> 0;` as the earlier writer wrote it, each row with its
# scope, exec flag and formal flags, which the order of the rows fixes
_THIRTEEN_CELLS = """\
1 - T var - - - a e,e,e,i FFFF FFFF - F
2 - T expr %3D 1.0 - a i,n,e,i FFFF FFFF - F
3 - T eend - - - - e,e,e,e FFFF FFFF - F
4 - T expr --%3E a 0.0 - i,i,n,e FFFF FFFF - F
5 - T eend - - - - e,e,e,e FFFF FFFF - F
"""


def test_a_code_table_of_thirteen_cell_rows_is_a_format_error(tmp_path, capsys):
    table = tmp_path / "old.ccode"
    table.write_text("COOLCC 1\n" + _THIRTEEN_CELLS.replace(" ", "\t"))
    assert main(["run", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coolc: FormatError: line 2, code row: 13 columns, wanted 10\n"


def test_preexec_saves_the_bound_table_for_later_runs(tmp_path, capsys):
    src = write(tmp_path, "apple.cool", corpus.APPLE_PRICE)
    bound = str(tmp_path / "bound.ccode")
    assert main(["preexec", src, "-o", bound]) == 0
    with open(bound) as f:
        assert f.readline().rstrip("\n") == "COOLCC 1 preexec"
    assert main(["run", bound]) == 0
    assert capsys.readouterr().out.splitlines() == corpus.APPLE_PRICE_OUTPUT


@pytest.mark.parametrize("command", ["compile", "preexec"])
def test_a_code_table_whose_returns_and_tests_read_member_accesses_runs(
    tmp_path, capsys, command
):
    # return: q.v; and if (q.v) name the access row itself, not an expression
    src = write(tmp_path, "members.cool", corpus.MEMBER_READS)
    table = str(tmp_path / "members.ccode")
    assert main([command, src, "-o", table]) == 0
    assert main(["run", table]) == 0
    assert capsys.readouterr().out.splitlines() == corpus.MEMBER_READS_OUTPUT


def test_exit_codes_separate_the_failure_stages(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cool")]) == 4
    assert main([]) == 4
    bad = write(tmp_path, "bad.cool", "@@@;\n")
    assert main(["run", bad]) == 1
    unbound = write(tmp_path, "unbound.cool", "foo(1);\n")
    assert main(["run", unbound]) == 2
    crash = write(tmp_path, "crash.cool", "new: a = 1 / 0;\n")
    assert main(["run", crash]) == 3


@pytest.mark.parametrize("command", ["compile", "preexec"])
def test_an_unwritable_output_names_the_file_asked_for(tmp_path, capsys, command):
    src = write(tmp_path, "x.cool", corpus.ADD_TO)
    out = tmp_path / "missing" / "x.ccode"
    assert main([command, src, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("coolc: [Errno 2] ") and f"'{out}'" in err
    assert ".coolcc-" not in err
    assert not (tmp_path / "missing").exists()


def test_every_error_class_carries_its_stage_exit_code():
    stages = {
        errors.PrecompileError: 1,
        errors.ParseError: 1,
        errors.LoadError: 1,
        errors.FormatError: 1,
        errors.InferenceFailure: 2,
        errors.NotInvertible: 2,
        errors.CoolRuntimeError: 3,
    }
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.CoolError) and c is not errors.CoolError
    ]
    for c in classes:
        stage = next(b for b in c.__mro__ if b in stages)
        assert c.exit_code == stages[stage], c


def test_silo_trace_lists_every_built_candidate(tmp_path, capsys, monkeypatch):
    # one line per built candidate (README: 117 lines for 87 admissions),
    # and two lines share a digest exactly when their candidates are equal
    real_tracer = cli._tracer
    refs = []

    def tracer(args):
        observer, close = real_tracer(args)

        def traced(rnd, weight, segment):
            refs.append(reference.digest(segment))
            observer(rnd, weight, segment)

        return traced, close

    monkeypatch.setattr(cli, "_tracer", tracer)
    src = write(tmp_path, "chained.cool", corpus.CHAINED_DERIVATION)
    trace = tmp_path / "trace.txt"
    assert main(["run", src, "--trace-silo", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == len(refs) == 117
    for line in lines:
        assert re.fullmatch(r"round \d+ weight -?\d+(\.\d+)? [0-9a-f]{12}", line)
    hexes = [line.split()[-1] for line in lines]
    assert len(set(hexes)) == len(set(refs)) == len(set(zip(hexes, refs)))


def test_a_trace_path_in_a_missing_directory_is_an_io_error(tmp_path, capsys):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    trace = tmp_path / "no" / "such" / "trace.txt"
    assert main(["run", src, "--trace-silo", str(trace)]) == 4
    assert capsys.readouterr().err.startswith("coolc: ")


def test_a_trace_path_that_is_a_directory_is_an_io_error(tmp_path, capsys):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    assert main(["run", src, "--trace-silo", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("coolc: ")


def test_trace_environment_switch_writes_to_stderr(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    monkeypatch.setenv("COOLC_TRACE", "1")
    assert main(["run", src]) == 0
    err = capsys.readouterr().err
    assert "round 1 weight" in err


def _rejects_option(tmp_path, capsys, option, value):
    src = write(tmp_path, "quad.cool", corpus.QUADRATIC_CONSTRAINT)
    assert main(["run", src, option, value]) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: coolc run")
    assert f"argument {option}: must be at least 1, got {value}" in err


def test_silo_size_below_one_is_a_usage_error(tmp_path, capsys):
    _rejects_option(tmp_path, capsys, "--silo-size", "0")


def test_max_rounds_below_one_is_a_usage_error(tmp_path, capsys):
    _rejects_option(tmp_path, capsys, "--max-rounds", "-1")


def test_max_tree_nodes_below_one_is_a_usage_error(tmp_path, capsys):
    _rejects_option(tmp_path, capsys, "--max-tree-nodes", "0")


@pytest.mark.parametrize(
    "name, fits, printed",
    [("chained_derivation", 5, "36.10050506338833"), ("apple_price", 2, "5.0")],
)
def test_max_tree_nodes_refuses_a_dependence_one_block_too_large(
    tmp_path, capsys, name, fits, printed
):
    src = write(tmp_path, f"{name}.cool", corpus.ALL_PROGRAMS[name])
    assert main(["run", src, "--max-tree-nodes", str(fits - 1)]) == 2
    assert "the dependence cannot be resolved into one tree" in capsys.readouterr().err
    assert main(["run", src, "--max-tree-nodes", str(fits)]) == 0
    assert capsys.readouterr().out.splitlines() == [printed]


def test_non_utf8_input_is_a_compile_error_naming_the_file(tmp_path, capsys):
    src = tmp_path / "latin.cool"
    src.write_bytes(b"\xff\xfe" + corpus.QUADRATIC_CONSTRAINT.encode())
    assert main(["run", str(src)]) == 1
    err = capsys.readouterr().err
    assert "UndecodableInput" in err and str(src) in err


def test_unbounded_recursion_is_a_runtime_error(tmp_path, capsys):
    src = write(tmp_path, "rec.cool", "@f(n){ return: f(n); }\nnew: a = 0;\na = f(1);\n")
    assert main(["run", src]) == 3
    assert "CallDepthExceeded" in capsys.readouterr().err


COUNTDOWN = "@f(n){ if (n > 0) { return: f(n - 1) + 1; } return: 0; }\n"


def test_a_terminating_recursion_runs_five_thousand_calls_deep(tmp_path, capsys):
    src = write(tmp_path, "rec.cool", COUNTDOWN + "new: a = 0;\na = f(5000);\na --> 0;\n")
    assert main(["run", src]) == 0
    assert capsys.readouterr().out.splitlines() == ["5000.0"]


def test_a_class_that_instantiates_itself_is_a_runtime_error(tmp_path, capsys):
    src = write(tmp_path, "self.cool", "system: A { A: inner; }\nA: m;\n")
    assert main(["run", src]) == 3
    assert "CallDepthExceeded" in capsys.readouterr().err


def test_an_endless_while_loop_ends_at_the_step_budget(tmp_path, capsys, monkeypatch):
    # the default budget takes seconds to run out; a small one shows the exit
    monkeypatch.setattr(cli, "Interpreter", functools.partial(Interpreter, max_steps=1000))
    src = write(tmp_path, "loop.cool", "new: i = 0;\nwhile (1 > 0) { i = i + 1; }\n")
    assert main(["run", src]) == 3
    assert "StepBudgetExceeded: the run took more than 1000 steps" in capsys.readouterr().err


@pytest.mark.parametrize("terms", [600, 900, 5000])
def test_a_long_flat_sum_preexecutes_without_recursion(tmp_path, capsys, terms):
    body = " + ".join(["1"] * terms)
    src = write(tmp_path, "long.cool", f"new: y = 0;\ny = {body};\ny --> 0;\n")
    assert main(["run", src]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{terms}.0"]


def test_a_deep_inheritance_chain_ends_in_an_exit_code(tmp_path, capsys):
    # C1500 << C1499 << ... << C0; the member call walks the whole chain
    parts = ["system: C0 {\n  new: v = 1;\n  @inc(k){ v = v + k; }\n}\n"]
    for k in range(1, 1501):
        parts.append(f"system: C{k} << C{k - 1} {{\n  new: w{k} = 0;\n}}\n")
    parts.append("C1500: m;\nm.inc(2);\nm.v --> 0;\n")
    src = write(tmp_path, "deep.cool", "".join(parts))
    code = main(["run", src])
    assert code in range(5)
    if code:
        assert capsys.readouterr().err.startswith("coolc: ")


def test_a_deep_chain_of_empty_classes_ends_in_an_exit_code(tmp_path, capsys):
    parts = ["system: C0 { }\n"]
    parts += [f"system: C{k} << C{k - 1} {{ }}\n" for k in range(1, 1501)]
    src = write(tmp_path, "empty.cool", "".join(parts) + "C1500: m;\n")
    code = main(["run", src])
    assert code in range(5)
    if code:
        assert capsys.readouterr().err.startswith("coolc: ")


@pytest.mark.parametrize(
    "classes",
    [
        "system: A << B {\n  new: v = 1;\n}\nsystem: B << A {\n  new: w = 1;\n}\n",
        "system: A << A {\n  new: v = 1;\n}\n",
    ],
)
def test_an_inheritance_cycle_is_a_compile_error(tmp_path, capsys, classes):
    src = write(tmp_path, "cycle.cool", classes + "A: m;\n")
    assert main(["run", src]) == 1
    assert "InheritanceCycle" in capsys.readouterr().err


_TWO_CLASSES = """
system: A {
  new: v = 1;
  @get(k){ return: v + k; }
}
system: %s {
  new: w = 2;
  @get(k){ return: w + k; }
}
"""


def test_a_class_name_declared_twice_is_a_compile_error(tmp_path, capsys):
    # one A would bind m.get and the other would run it
    src = write(tmp_path, "dup.cool", _TWO_CLASSES % "A" + "A: m;\nm.get(1) --> 0;\n")
    assert main(["run", src]) == 1
    assert "DuplicateDeclaration: class 'A' declared twice" in capsys.readouterr().err


def _edit_rows(table, edit):
    """Apply edit to the code rows of a `.ccode`, each a list of cells."""
    head, *rows = table.read_text().splitlines()
    rows = [row.split("\t") for row in rows]
    edit(rows)
    table.write_text(head + "\n" + "".join("\t".join(row) + "\n" for row in rows))


def _class_row(rows, op, name, nth=0):
    """The nth `class` or `inherit` row that names the class name."""
    return [row for row in rows if row[1:4] == ["class", op, name]][nth]


def test_a_code_table_repeating_a_class_name_is_a_format_error(tmp_path, capsys):
    src = write(tmp_path, "two.cool", _TWO_CLASSES % "Z")
    assert main(["compile", src]) == 0

    def rename(rows):
        _class_row(rows, "class", "Z")[3] = "A"

    _edit_rows(tmp_path / "two.ccode", rename)
    assert main(["run", str(tmp_path / "two.ccode")]) == 1
    assert "FormatError: class 'A' declared twice" in capsys.readouterr().err


def test_a_code_table_whose_classes_inherit_in_a_cycle_is_a_format_error(
    tmp_path, capsys
):
    src = write(tmp_path, "three.cool", _TWO_CLASSES % "B << A" + "system: C << A { }\n")
    assert main(["compile", src]) == 0

    def cycle(rows):
        # C's inherit row made to say that A inherits B
        row = _class_row(rows, "inherit", "C")
        row[3], row[4] = "A", "B"

    _edit_rows(tmp_path / "three.ccode", cycle)
    assert main(["run", str(tmp_path / "three.ccode")]) == 1
    assert "FormatError: classes inherit in a cycle: A << B << A" in capsys.readouterr().err


def test_a_code_table_inheriting_from_no_class_is_a_format_error(tmp_path, capsys):
    src = write(tmp_path, "two.cool", _TWO_CLASSES % "B << A")
    assert main(["compile", src]) == 0

    def dangle(rows):
        _class_row(rows, "inherit", "B")[4] = "Q"

    _edit_rows(tmp_path / "two.ccode", dangle)
    assert main(["run", str(tmp_path / "two.ccode")]) == 1
    assert "FormatError: class B inherits undeclared Q" in capsys.readouterr().err


def test_a_class_naming_a_parent_twice_is_a_compile_error(tmp_path, capsys):
    # B's body would run once per listed parent
    src = write(
        tmp_path,
        "twice.cool",
        "system: B {\n  new: v = 1;\n  v --> 0;\n}\nsystem: A << B, B { }\nA: m;\n",
    )
    assert main(["run", src]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DuplicateDeclaration: class 'A' inherits 'B' twice" in captured.err


def test_a_code_table_naming_a_parent_twice_is_a_format_error(tmp_path, capsys):
    src = write(tmp_path, "three.cool", _TWO_CLASSES % "Z" + "system: B << A, Z { }\n")
    assert main(["compile", src]) == 0

    def twice(rows):
        _class_row(rows, "inherit", "B", 1)[4] = "A"

    _edit_rows(tmp_path / "three.ccode", twice)
    assert main(["run", str(tmp_path / "three.ccode")]) == 1
    assert "FormatError: class 'B' inherits 'A' twice" in capsys.readouterr().err


def test_a_code_table_declaring_a_variable_twice_in_one_scope_is_a_format_error(
    tmp_path, capsys
):
    # as source the same program is a DuplicateDeclaration
    src = write(tmp_path, "two.cool", "new: a = 1;\nnew: b = 2;\na --> 0;\nb --> 0;\n")
    assert main(["compile", src]) == 0

    def rename(rows):
        [row for row in rows if row[1] == "var" and row[5] == "b"][0][5] = "a"

    _edit_rows(tmp_path / "two.ccode", rename)
    assert main(["run", str(tmp_path / "two.ccode")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "FormatError: variable 'a' declared twice in the same scope" in captured.err


def test_a_code_table_declaring_a_pattern_twice_in_one_scope_is_a_format_error(
    tmp_path, capsys
):
    # as source the same program is a DuplicateDeclaration; unchecked, the file prints 2.0
    src = write(
        tmp_path,
        "rules.cool",
        "exp: @(1){ #a - #b }{ return: a; } exp: @(2){ #a + #b }{ return: b; } "
        "new: x = 5 - 3; x --> 0;",
    )
    assert main(["compile", src]) == 0

    def subtract(rows):
        row = next(row for row in rows if row[0] == "12")
        assert row[2] == "%2B"
        row[2] = "-"

    _edit_rows(tmp_path / "rules.ccode", subtract)
    assert main(["run", str(tmp_path / "rules.ccode")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "coolc: FormatError: duplicate declaration of '-' in the same scope, "
        "again at code line 10\n"
    )


@pytest.mark.parametrize(
    "source, command, row, col, was, to, message",
    [
        (
            # `=` and `-->` read their left slot alone; unchecked, the file
            # printed 7.0 and prebinding could stop short of its fixpoint
            "new: a = 0; new: b = 0; b = 1 + 2; a = b + 4; a --> 0;",
            "compile",
            "8",
            4,
            "-",
            "7",
            "code line 8 names 7 in its right slot, which '=' never reads",
        ),
        (
            # unchecked, the call ran as a builtin and exited 3 with
            # "'f' needs numbers, got NoneType at 12"
            "@f(x){ return: x + 1; } new: a = f(2); a --> 0;",
            "preexec",
            "12",
            8,
            "1",
            "B",
            "code line 12 is bound to a builtin, but 'f' is none",
        ),
    ],
    ids=["assignment-right", "builtin-call"],
)
def test_a_code_table_row_breaking_an_operator_rule_is_a_format_error(
    tmp_path, capsys, source, command, row, col, was, to, message
):
    src = write(tmp_path, "prog.cool", source)
    table = tmp_path / "prog.ccode"
    assert main([command, src, "-o", str(table)]) == 0

    def edit(rows):
        cells = next(r for r in rows if r[0] == row)
        assert cells[col] == was
        cells[col] = to
        kinds = cells[6].split(",")
        if col < 6 and kinds[col - 2] == "e":
            kinds[col - 2] = "a"
            cells[6] = ",".join(kinds)

    _edit_rows(table, edit)
    assert main(["run", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"coolc: FormatError: {message}\n"


def _set(address, col, value):
    """An edit of one cell of the code row at address."""

    def edit(rows):
        next(row for row in rows if row[0] == address)[col] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("3", 3, "98"), "function at 3 has no declaration scope of its own"),
        (_set("1", 4, "8"), "class at code line 1 names no class scope of its own"),
    ],
    ids=["decl-scope", "class-scope"],
)
def test_a_code_table_row_naming_a_missing_row_is_a_format_error(
    tmp_path, capsys, edit, message
):
    src = write(tmp_path, "solver.cool", corpus.CLASS_SOLVER)
    assert main(["compile", src]) == 0
    table = tmp_path / "solver.ccode"
    _edit_rows(table, edit)
    assert main(["run", str(table)]) == 1
    assert capsys.readouterr().err == f"coolc: FormatError: {message}\n"


SEVEN = "new: y = 2;\nnew: z = y * 3 + 1;\nz --> 0;\n"  # prints 7.0


@pytest.mark.parametrize(
    "source, command, row, col, was, to, message",
    [
        (SEVEN, "preexec", "6", 3, "5", "6", "code line 6 reads 6, no earlier row"),
        (SEVEN, "preexec", "6", 3, "5", "7", "code line 6 reads 7, no earlier row"),
        (
            corpus.QUADRATIC_CONSTRAINT,
            "compile",
            "16",
            4,
            "15",
            "18",
            "code line 16 reads 18, no earlier row",
        ),
        (
            corpus.CLASS_SOLVER,
            "compile",
            "11",
            3,
            "10",
            "8",
            "code line 11 reads 8, no expression or member access",
        ),
        (
            corpus.SIN_APPROX_EXP,
            "compile",
            "31",
            5,
            "31",
            "32",
            "code line 31 writes its result to 32, not to its own row",
        ),
        (
            corpus.APPLE_PRICE,
            "compile",
            "35",
            4,
            "31",
            "2",
            "function at 30 has no body, and code line 35 derives none",
        ),
        (
            corpus.APPLE_PRICE,
            "compile",
            "40",
            8,
            "-",
            "B",
            "code line 40 is bound in a file that is not preexecuted",
        ),
    ],
    ids=[
        "reads-itself",
        "two-row-cycle",
        "body-cycle",
        "return-reads-scope",
        "result",
        "derive",
        "compiled-binding",
    ],
)
def test_a_code_table_row_reading_a_row_it_may_not_is_a_format_error(
    tmp_path, capsys, source, command, row, col, was, to, message
):
    # at the parent these ran to exit 0 printing 1.0 and 0.0, looped in
    # Segment.subtree_state, raised a KeyError in search.rule_plan and in
    # Segment.splice, and failed only when lower met the unbound call
    src = write(tmp_path, "prog.cool", source)
    table = tmp_path / "prog.ccode"
    assert main([command, src, "-o", str(table)]) == 0
    rows = [r.split("\t") for r in table.read_text().split("\n")]
    cells = next(r for r in rows if r[0] == row)
    assert cells[col] == was
    cells[col] = to
    table.write_text("\n".join("\t".join(r) for r in rows))
    assert main(["run", str(table)]) == 1
    assert capsys.readouterr().err == f"coolc: FormatError: {message}\n"


def test_a_read_cycle_of_user_bound_rows_is_a_format_error(tmp_path, capsys):
    # row 39 is the call of the apple-price function and row 40 the `==`
    # that reads it; naming row 40 in the call's right slot makes each read
    # the other. Unchecked, the file loaded and printed 0.0, exit 0; the
    # program prints 5.0
    src = write(tmp_path, "apple.cool", corpus.APPLE_PRICE)
    table = tmp_path / "apple.ccode"
    assert main(["preexec", src, "-o", str(table)]) == 0

    def edit(rows):
        call = next(r for r in rows if r[0] == "39")
        assert (call[4], call[6]) == ("p", "i,n,i,a")
        call[4], call[6] = "40", "i,n,a,a"

    _edit_rows(table, edit)
    assert main(["run", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coolc: FormatError: code line 39 reads 40, no earlier row\n"


@pytest.mark.parametrize(
    "name, row, kind, reads, to",
    [
        ("sin_approx", "13", "ret", "12", "30"),
        ("sin_approx", "25", "ret", "24", "30"),
        ("sin_approx_exp", "13", "ret", "12", "30"),
        ("sin_approx_exp", "25", "ret", "24", "30"),
        ("loop_and_branch", "10", "jump", "8", "15"),
    ],
    ids=["cos", "sin", "exp-cos", "exp-rule", "while-test"],
)
def test_a_code_table_control_row_reading_another_scope_is_a_format_error(
    tmp_path, capsys, name, row, kind, reads, to
):
    # rows 13 and 25 are the returns of cos and sin (a rewrite rule in
    # sin_approx_exp), 30 is top-level; row 10 is the while loop's exit
    # jump, and 15 lies inside the loop's block
    src = write(tmp_path, f"{name}.cool", corpus.ALL_PROGRAMS[name])
    assert main(["compile", src]) == 0
    table = tmp_path / f"{name}.ccode"
    rows = [r.split("\t") for r in table.read_text().split("\n")]
    control = next(r for r in rows if r[0] == row)
    assert (control[1], control[3]) == (kind, reads)
    control[3] = to
    table.write_text("\n".join("\t".join(r) for r in rows))
    assert main(["run", str(table)]) == 1
    assert capsys.readouterr().err == (
        f"coolc: FormatError: code line {row} reads {to}, no row of its scope\n"
    )


def test_a_deep_declaration_pattern_binds_and_runs(tmp_path, capsys):
    # pattern matching and call alignment both walk 1 200 levels
    n = 1200
    ones = " + 1" * n
    src = write(
        tmp_path,
        "deep.cool",
        f"@(10){{ $a{ones} }}{{ a = ans - {n}; }}\n"
        "@(10){ $a == b; }{ a = b; }\n"
        f"$y{ones} == {n + 5};\ny --> 0;\n",
    )
    assert main(["run", src]) == 0
    assert capsys.readouterr().out == "5.0\n"


def test_a_deeply_nested_call_is_a_compile_error(tmp_path, capsys):
    nested = "f(" * 3000 + "1" + ")" * 3000
    src = write(tmp_path, "nested.cool", f"@f(x){{ return: x; }}\nnew: y = {nested};\n")
    assert main(["run", src]) == 1
    assert "ParseError: nesting too deep to parse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, options, where",
    [
        ("foo(1);\n", [], "binds the expression (statement 1, 1 round, 0 candidates)"),
        (
            "exp: @(10){ #a + #b }{ return: b + a; }\n"
            "exp: @(-1){ #a + 1 }{ return: 1 + a; }\n"
            "f($q + 1);\n",
            ["--silo-size", "1", "--max-rounds", "3"],
            "fully bound (statement 21, 3 rounds, 1 candidate)",
        ),
    ],
)
def test_an_inference_failure_says_where_the_search_stopped(
    tmp_path, capsys, text, options, where
):
    src = write(tmp_path, "stuck.cool", text)
    assert main(["run", src, *options]) == 2
    assert where in capsys.readouterr().err


def test_a_rewrite_rule_without_return_is_a_load_error(tmp_path, capsys):
    src = write(tmp_path, "rule.cool", "exp: @add(a)to(b){ b = b + a; }\nadd(1)to(x);\nx --> 0;\n")
    assert main(["run", src]) == 1
    assert "LoadError: rewrite rule at code line 1 has no return: statement" in (
        capsys.readouterr().err
    )


def test_a_code_table_rule_without_return_is_a_format_error(tmp_path, capsys):
    src = write(tmp_path, "rule.cool", "exp: @(1){ #a + #b }{ return: b + a; }\nq + 1;\n")
    assert main(["compile", src]) == 0

    def drop_return(rows):
        # the rule's return line, retyped as the end of its expression
        row = next(row for row in rows if row[1] == "ret")
        assert row[0] == "8"
        row[1] = "eend"

    _edit_rows(tmp_path / "rule.ccode", drop_return)
    assert main(["run", str(tmp_path / "rule.ccode")]) == 1
    assert "FormatError: rewrite rule at code line 1 has no return: statement" in (
        capsys.readouterr().err
    )


def test_a_long_derivation_merges_without_recursion(tmp_path, capsys):
    # the merged tree chains 1 000 producers; the search then gives up on it
    ones = " + 1" * 1000
    src = write(
        tmp_path,
        "long.cool",
        "@(10){ $a + b }{ a = ans - b; }\n@(10){ $a == b; }{ a = b; }\n"
        f"@f(x){{ return: x{ones}; }} => @g($x);\n"
        "new: h = 0;\ng($h) == 1007;\nh --> 0;\n",
    )
    options = ["--max-tree-nodes", "5000", "--max-rounds", "2", "--silo-size", "2"]
    assert main(["run", src, *options]) == 2
    assert "DerivationFailure: the merged expression would not bind" in (
        capsys.readouterr().err
    )


def test_a_derivation_over_a_deep_bound_pattern_ends_in_an_exit_code(tmp_path, capsys):
    # the body's constraint binds as one 1 200-term pattern, so the group the
    # disassembler collects under its root is 1 200 lines deep
    n = 1200
    ones = " + 1" * n
    src = write(
        tmp_path,
        "deep.cool",
        f"@(10){{ $a{ones} == b }}{{ a = b - {n}; }}\n"
        "@(10){ $a + b }{ a = ans - b; }\n@(10){ $a == b; }{ a = b; }\n"
        f"@f(x){{ new: t = 0; $t{ones} == x; return: t + 1; }} => @g($x);\n"
        "new: h = 0;\ng($h) == 7;\n",
    )
    assert main(["run", src]) == 2
    assert (
        "MergeFailure: '__inv2' is produced by solving, not assignment; "
        "the tree cannot absorb it"
    ) in capsys.readouterr().err


def test_a_member_read_through_a_long_inheritance_chain_runs(tmp_path, capsys):
    # C1199 << ... << C0: instantiation, the member read and the call's
    # class lookup each walk 1 200 linked records
    parts = ["system: C0 {\n  new: v = 7;\n  @get(){ return: v; }\n}\n"]
    for k in range(1, 1200):
        parts.append(f"system: C{k} << C{k - 1} {{\n  new: w{k} = {k};\n}}\n")
    parts.append("C1199: m;\nm.v --> 0;\nm.get() --> 0;\n")
    src = write(tmp_path, "chain.cool", "".join(parts))
    assert main(["run", src]) == 0
    assert capsys.readouterr().out == "7.0\n7.0\n"


_HOLDER = """
system: P {
  new: v = 3;
  @get(){ return: v; }
}
system: H {
  P: p;
  new: w = 1;
}
H: h;
"""


@pytest.mark.parametrize(
    "stmts, message",
    [
        ("h.p.v --> 0;\nh.p.get() --> 0;\n", None),
        ("q.v --> 0;\n", "UnresolvedIdentifier: 'q' names no instance"),
        ("h.w.v --> 0;\n", "CoolRuntimeError: 'h.w' is not an instance"),
        ("h.p.x --> 0;\n", "UnresolvedIdentifier: 'h.p' has no member 'x'"),
        ("h.p = 1;\nh.p.get() --> 0;\n", "CoolRuntimeError: 'h.p' is not an instance"),
    ],
)
def test_a_member_chain_names_the_prefix_it_fails_at(tmp_path, capsys, stmts, message):
    src = write(tmp_path, "members.cool", _HOLDER + stmts)
    if message is None:
        assert main(["run", src]) == 0
        assert capsys.readouterr().out == "3.0\n3.0\n"
    else:
        assert main(["run", src]) == 3
        assert capsys.readouterr().err == f"coolc: {message}\n"
