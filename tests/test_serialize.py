import functools
import itertools
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import reference
from coolang import build, preexecute
from coolang.addresses import Address
from coolang.code import VALUE_SLOTS, CodeType, OperandKind, PendFlag, ScopeKind
from coolang.cli import main
from coolang.errors import (
    CoolError,
    DuplicateDeclaration,
    FormatError,
    InheritanceCycle,
    LoadError,
    UnbalancedScopes,
)
from coolang.loader import load
from coolang.parser import parse
from coolang.precompile import precompile
from coolang.runtime import CallSite, Interpreter, lower, run_program
from coolang.serialize import deserialize, serialize, write_file


def test_equal_tables_serialize_to_identical_bytes():
    for name, src in corpus.ALL_PROGRAMS.items():
        a = serialize(build(src))
        b = serialize(build(src))
        assert a == b, name


def test_each_address_text_is_parsed_once_per_file(monkeypatch):
    t = build(corpus.CHAINED_DERIVATION)
    preexecute(t)
    text = serialize(t)
    parse = Address.parse
    parsed = []
    monkeypatch.setattr(Address, "parse", lambda s: parsed.append(s) or parse(s))
    deserialize(text)
    once = len(parsed)
    assert once and once == len(set(parsed))
    # nothing is kept from one file to the next
    deserialize(text)
    assert len(parsed) == 2 * once


def test_round_trips_are_lossless():
    for name, src in corpus.ALL_PROGRAMS.items():
        s = serialize(build(src))
        assert serialize(deserialize(s)) == s, name


def test_preexecuted_tables_keep_their_header_flag():
    t = build(corpus.QUADRATIC_CONSTRAINT)
    assert serialize(t).splitlines()[0] == "COOLCC 1"
    preexecute(t)
    s = serialize(t)
    assert s.splitlines()[0] == "COOLCC 1 preexec"
    assert serialize(deserialize(s)) == s
    assert deserialize(s).preexecuted


def test_binding_direction_is_recomputed_on_load():
    t = build(corpus.QUADRATIC_CONSTRAINT)
    preexecute(t)
    reverse = {ln.address for ln in t.code.lines() if ln.bound_reverse}
    assert reverse
    loaded = deserialize(serialize(t))
    assert {ln.address for ln in loaded.code.lines() if ln.bound_reverse} == reverse
    assert run_program(loaded).output == corpus.QUADRATIC_CONSTRAINT_OUTPUT


def test_text_payloads_survive_the_column_format():
    src = 'new: s = "tab\there %25 done";\ns --> 0;\n'
    t = build(src)
    s = serialize(t)
    assert serialize(deserialize(s)) == s
    loaded = deserialize(s)
    preexecute(loaded)
    assert run_program(loaded).output == ["tab\there %25 done"]


def test_malformed_files_are_refused():
    with pytest.raises(FormatError, match="not a code table"):
        deserialize("NOPE\n")
    with pytest.raises(FormatError, match="header flags"):
        deserialize("COOLCC 1 zip\n")
    with pytest.raises(FormatError, match="^line 2, code row: 2 columns, wanted 10$"):
        deserialize("COOLCC 1\n1\tx\n")
    with pytest.raises(FormatError, match="^line 2, code row: 1 columns, wanted 10$"):
        deserialize("COOLCC 1\n---\n")


def test_files_write_and_read_back(tmp_path):
    t = build(corpus.APPLE_PRICE)
    preexecute(t)
    path = tmp_path / "apple.ccode"
    write_file(t, str(path))
    assert path.read_text().endswith("\n")
    loaded = deserialize(path.read_text(encoding="utf-8"))
    assert serialize(loaded) == serialize(t)
    assert run_program(loaded).output == corpus.APPLE_PRICE_OUTPUT


def _bound_text(src):
    t = build(src)
    preexecute(t)
    return serialize(t)


BOUND_TEXTS = [_bound_text(corpus.ALL_PROGRAMS[name]) for name in ("loop_and_branch", "class_solver")]


JUNK = st.text(alphabet="0123456789.-,TFBCUaeinsdx%\t", max_size=6)


@st.composite
def damaged_code_files(draw):
    """A bound code file with one cell replaced by short junk."""
    rows = draw(st.sampled_from(BOUND_TEXTS)).split("\n")
    i = draw(st.integers(0, len(rows) - 1))
    cells = rows[i].split("\t")
    j = draw(st.integers(0, len(cells) - 1))
    cells[j] = draw(JUNK)
    rows[i] = "\t".join(cells)
    return "\n".join(rows)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), damaged_code_files()))
def test_any_text_loads_and_lowers_or_fails_as_a_cool_error(text):
    try:
        Interpreter(deserialize(text))
    except CoolError:
        pass


@st.composite
def rearranged_code_files(draw):
    """A bound code file, its code rows shuffled and one of them damaged.

    Up to four cells of that row turn to junk, and its undamaged form
    may appear a second time anywhere.
    """
    rows = draw(st.sampled_from(BOUND_TEXTS)).split("\n")
    end = len(rows) - 1  # the empty text after the last newline
    code = draw(st.permutations(rows[1:end]))
    i = draw(st.integers(0, len(code) - 1))
    row, cells = code[i], code[i].split("\t")
    for _ in range(draw(st.integers(0, 4))):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(JUNK)
    code[i] = "\t".join(cells)
    if draw(st.booleans()):
        code.insert(draw(st.integers(0, len(code))), row)
    return "\n".join(rows[:1] + code + rows[end:])


def _decoded(decode, text):
    try:
        return serialize(decode(text))
    except FormatError as exc:
        return f"FormatError: {exc}"


@settings(max_examples=600, deadline=None)
@given(st.one_of(damaged_code_files(), rearranged_code_files()))
def test_the_one_pass_reader_agrees_with_the_row_by_row_reference(text):
    assert _decoded(deserialize, text) == _decoded(reference.deserialize, text)


def test_a_row_with_two_bad_cells_fails_as_the_reference_fails():
    rows = BOUND_TEXTS[1].split("\n")
    cells = rows[9].split("\t")
    for j, k in itertools.combinations(range(len(cells)), 2):
        for junk in itertools.permutations(("x", "0", ""), 2):
            bad = list(cells)
            bad[j], bad[k] = junk
            for again in ([], rows[9:10]):
                text = "\n".join(rows[:9] + again + ["\t".join(bad)] + rows[10:])
                expected = _decoded(reference.deserialize, text)
                assert _decoded(deserialize, text) == expected, (j, k, junk, again)


def test_code_rows_load_in_any_order_but_not_twice():
    rows = BOUND_TEXTS[1].split("\n")
    end = len(rows) - 1
    shuffled = rows[:1] + rows[end - 1 : 0 : -1] + rows[end:]
    assert serialize(deserialize("\n".join(shuffled))) == BOUND_TEXTS[1]
    twice = rows[:end] + [rows[3]] + rows[end:]
    address = rows[3].split("\t")[0]
    with pytest.raises(FormatError, match=rf"^address {address} appears twice$"):
        deserialize("\n".join(twice))


def test_decoded_lines_preexecute_alike_and_own_their_flag_lists():
    for name, src in corpus.ALL_PROGRAMS.items():
        direct = build(src)
        preexecute(direct)
        loaded = deserialize(serialize(build(src)))
        preexecute(loaded)
        assert serialize(loaded) == serialize(direct), name

        lines = list(deserialize(serialize(direct)).code.lines())
        before = [(list(ln.pending), list(ln.formal)) for ln in lines]
        for i, ln in enumerate(lines):
            pending, formal = before[i]
            ln.pending[0] = PendFlag.TRUE if pending[0] is PendFlag.FALSE else PendFlag.FALSE
            ln.formal[0] = not formal[0]
            after = [(other.pending, other.formal) for other in lines]
            assert after[:i] + after[i + 1 :] == before[:i] + before[i + 1 :], name
            ln.pending[:], ln.formal[:] = pending, formal


def test_a_malformed_address_names_its_line():
    rows = BOUND_TEXTS[0].split("\n")
    rows[1] = "1.0" + rows[1][rows[1].index("\t"):]
    with pytest.raises(FormatError, match=r"line 2, code row: first and last digit"):
        deserialize("\n".join(rows))


def test_a_dangling_scope_end_fails_when_the_program_is_lowered():
    t = build(corpus.LOOP_AND_BRANCH)
    preexecute(t)
    cond = next(s for s in t.scopes.values() if s.kind is ScopeKind.COND)
    t.code.remove(cond.end)
    with pytest.raises(FormatError, match="^jump at 19 leaves scope 11 backward$"):
        Interpreter(deserialize(serialize(t)))


def _edited(text, edit):
    """text with edit applied to its rows, each a list of cells."""
    rows = [row.split("\t") for row in text.split("\n")]
    edit(rows)
    return "\n".join("\t".join(row) for row in rows)


def _row(rows, address):
    return next(row for row in rows if row[0] == address)


# the fault each end row retyped as an expression is refused for; one
# retyped as a start row opens a scope of no kind
_NO_END = {
    "cond": "jump at 19 leaves scope 11",
    "decl": "unclosed scope starting at code line 2",
    "body": "unclosed scope starting at code line 6",
}


@pytest.mark.parametrize("at", ["start", "expr"])
@pytest.mark.parametrize(
    "name, kind", [("loop_and_branch", "cond"), ("apple_price", "decl"), ("apple_price", "body")]
)
def test_a_scope_ending_on_no_scope_end_row_is_a_format_error(name, kind, at):
    # a scope's run resumes at its end row, so that row must emit nothing:
    # ending on a start row it jumped back there and looped without a step,
    # and ending on an expression it ran that row in the outer record. The
    # reader ends a scope at its end row only, so with that row retyped the
    # scope ends nowhere: a row after it breaks a rule, or it stays unclosed
    t = build(corpus.ALL_PROGRAMS[name])
    text = serialize(t)
    start = next(row for row in text.split("\n") if row.split("\t")[1:4] == ["sstart", "-", kind])
    scope = Address.parse(start.split("\t")[0])

    def retype(rows):
        end = _row(rows, str(t.scopes[scope].end))
        end[1] = "sstart" if at == "start" else "expr"

    message = _NO_END[kind] if at == "expr" else "unknown scope kind ''"
    with pytest.raises(FormatError, match=message):
        deserialize(_edited(text, retype))


def test_a_jump_back_out_of_its_scope_is_a_format_error():
    # the while loop's end row swapped behind its back edge, so that the
    # loop's scope holds the jump: each pass opened the scope again inside
    # itself, so every name lookup walked one record more and 20 000 steps
    # took two minutes
    def swap(rows):
        end, back = _row(rows, "18"), _row(rows, "19")
        end[1:], back[1:] = back[1:], end[1:]

    with pytest.raises(FormatError, match="^jump at 18 leaves scope 11 backward$"):
        deserialize(_edited(LOOP_TEXT, swap))


LOOP_TEXT = serialize(build(corpus.LOOP_AND_BRANCH))


def test_a_scope_stretched_over_rows_that_name_another_scope_is_a_format_error(
    tmp_path, capsys
):
    # the while loop's end row and back edge dropped, so that its scope
    # holds the rows after it and never closes: rows 20-28 ran in the
    # loop's record, and the file printed 0.0
    def drop(rows):
        rows.remove(_row(rows, "18"))
        rows.remove(_row(rows, "19"))

    text = _edited(LOOP_TEXT, drop)
    message = "unclosed scope starting at code line 11"
    with pytest.raises(FormatError, match=message):
        deserialize(text)
    table = tmp_path / "stretched.ccode"
    table.write_text(text)
    assert main(["run", str(table)]) == 1
    assert capsys.readouterr().err == f"coolc: FormatError: {message}\n"


@pytest.mark.parametrize("i", range(1, len(LOOP_TEXT.splitlines())))
def test_a_code_row_naming_a_scope_that_does_not_hold_it_is_a_format_error(i):
    # each row once, a scope cell put back after its address: one outside
    # every scope names the first scope, one inside a scope (its start and
    # end rows too) names none. A row stores no scope, which its place
    # fixes, so the row is refused for its column count
    rows = [row.split("\t") for row in LOOP_TEXT.split("\n")]
    row = rows[i]
    held = deserialize(LOOP_TEXT).code[Address.parse(row[0])].scope
    row.insert(1, "11" if held is None else "-")
    with pytest.raises(FormatError, match=f"^line {i + 1}, code row: 11 columns, wanted 10$"):
        deserialize("\n".join("\t".join(row) for row in rows))


# every program the writers are checked on
WRITTEN = corpus.WRITTEN


@functools.cache
def _compiled_and_preexecuted(name):
    """The .ccode texts of WRITTEN[name], compiled and preexecuted."""
    t = build(WRITTEN[name])
    compiled = serialize(t)
    preexecute(t)
    return compiled, serialize(t)


@pytest.mark.parametrize("name", WRITTEN)
def test_every_code_file_the_writers_make_passes_the_load_check(name):
    # the load rules are read off the writers: the parser and loader, the
    # splice, insert_run and derived bodies
    for text in _compiled_and_preexecuted(name):
        assert serialize(deserialize(text)) == text


@pytest.mark.parametrize("name", WRITTEN)
def test_a_decoded_file_rebuilds_the_tables_it_was_written_from(name):
    # a file holds the code rows alone; the scope, function and class
    # tables are built from them as the loader builds them from source
    t = build(WRITTEN[name])
    for stage in ("compiled", "preexecuted"):
        if stage == "preexecuted":
            preexecute(t)
        loaded = deserialize(serialize(t))
        assert loaded.scopes == t.scopes, stage
        assert list(loaded.functions.items()) == list(t.functions.items()), stage
        assert list(loaded.classes.items()) == list(t.classes.items()), stage
        assert loaded.class_scopes == t.class_scopes, stage


@pytest.mark.parametrize("name", WRITTEN)
def test_a_decoded_row_gets_the_scope_and_formal_flags_its_place_fixes(name):
    # a row's scope is the innermost scope range that holds it; an
    # expression row whose scope is a declaration marks each identifier
    # without an out: mark as a formal
    for text in _compiled_and_preexecuted(name):
        t = deserialize(text)
        ranges = sorted((s.start, s.end) for s in t.scopes.values())
        for ln in t.code.lines():
            a = ln.address
            held = [start for start, end in ranges if start <= a <= end]
            scope = held[-1] if held else None
            assert ln.scope == scope, a
            in_decl = scope is not None and t.scopes[scope].kind is ScopeKind.DECL
            formal = [
                in_decl
                and ln.ctype is CodeType.EXPR
                and s in VALUE_SLOTS
                and ln.slot(s).kind is OperandKind.IDENT
                and not ln.slot(s).text.startswith("out:")
                for s in range(4)
            ]
            assert ln.formal == formal, a


def _instructions(program):
    """A lowered program as plain values: each call site becomes
    (address, start, end, consts, formals, solves)."""
    return [
        tuple(
            (x.address, x.start, x.end, x.consts, x.formals, x.solves)
            if isinstance(x, CallSite) else x
            for x in ins
        )
        for ins in program.code
    ], program.classes


@pytest.mark.parametrize("name", WRITTEN)
def test_a_decoded_table_lowers_as_the_table_it_was_written_from(name):
    # the loader makes an operand per slot, the decoder shares equal cells;
    # lowering splits each identifier text once, whoever holds it
    t = build(WRITTEN[name])
    preexecute(t)
    assert _instructions(lower(deserialize(serialize(t)))) == _instructions(lower(t))


@st.composite
def bound_compiled_code_files(draw):
    """A compiled corpus code file with one code row's bound cell set to
    `B`, a function row or another code row, or its root cell to `T`."""
    name = draw(st.sampled_from(sorted(corpus.ALL_PROGRAMS)))
    rows = [row.split("\t") for row in _compiled_and_preexecuted(name)[0].splitlines()]
    code = rows[1:]
    cells = draw(st.sampled_from(code))
    if draw(st.booleans()):
        cells[9] = "T"
    else:
        cells[8] = draw(st.sampled_from(["B", *(row[0] for row in code)]))
    return "".join("\t".join(row) + "\n" for row in rows)


@settings(max_examples=200, deadline=None)
@given(bound_compiled_code_files())
def test_a_compiled_code_file_with_a_binding_is_a_format_error(text):
    # only preexecute binds; without this rule such a file ran as another program
    with pytest.raises(FormatError):
        deserialize(text)


@st.composite
def retargeted_code_files(draw):
    """A corpus or member_reads code file, compiled or preexecuted, with
    one or two cells pointed at a row of the file or one past its last
    row: the address operands of its code rows, and the cells the scope,
    function and class tables are built from, which are the left, right
    and weight cells of a function row (an empty right one becomes an
    address), the class and parent name cells of a class row and the kind
    cell of a scope start row. The other cells stay as written."""
    name = draw(st.sampled_from([*sorted(corpus.ALL_PROGRAMS), "member_reads"]))
    text = draw(st.sampled_from(_compiled_and_preexecuted(name)))
    rows = [row.split("\t") for row in text.splitlines()]
    code = rows[1:]
    targets = [row[0] for row in code] + [str(int(code[-1][0].split(".")[0]) + 1)]
    cells = {(i, col) for i, row in enumerate(code, 1) for col in _table_cells(row)}
    for i, col in draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=2)):
        row = rows[i]
        row[col] = draw(st.sampled_from(targets))
        kinds = row[6].split(",")
        if kinds[col - 2] == "e":
            kinds[col - 2] = "a"
            row[6] = ",".join(kinds)
    return "".join("\t".join(row) + "\n" for row in rows)


# the operand cells the scope, function and class tables are built from,
# by code type: a function row's declaration, body and weight, a derive
# marker's declaration, a class row's names and scope, a scope's kind
_TABLE_CELLS = {"func": (3, 4, 5), "derive": (4,), "class": (3, 4), "sstart": (3,)}


def _table_cells(row):
    """The cells of a code row that retargeted_code_files may point elsewhere."""
    addresses = [2 + i for i, k in enumerate(row[6].split(",")) if k == "a"]
    return {*addresses, *_TABLE_CELLS.get(row[1], ())}


@st.composite
def dropped_or_swapped_code_files(draw):
    """A corpus or member_reads code file, compiled or preexecuted, with one
    code row left out, or with the cells of two code rows swapped behind
    their addresses. The other rows stay as written."""
    name = draw(st.sampled_from([*sorted(corpus.ALL_PROGRAMS), "member_reads"]))
    text = draw(st.sampled_from(_compiled_and_preexecuted(name)))
    rows = [row.split("\t") for row in text.splitlines()]
    i = draw(st.integers(1, len(rows) - 1))
    if draw(st.booleans()):
        del rows[i]
    else:
        j = draw(st.integers(1, len(rows) - 1).filter(lambda j: j != i))
        rows[i][1:], rows[j][1:] = rows[j][1:], rows[i][1:]
    return "".join("\t".join(row) + "\n" for row in rows)


def _rename(cells, col, to):
    """An edit of cell col of the one code row whose cells from its type on
    start with cells."""

    def edit(rows):
        [row] = [row for row in rows if row[1 : 1 + len(cells)] == cells]
        row[col] = to

    return edit


@pytest.mark.parametrize(
    "good, bad, error, edit",
    [
        # the parser closes every scope it opens, so the source loses its
        # last row as the file does
        ("system: A { new: v = 1; }", None, UnbalancedScopes, list.pop),
        (
            "new: a = 1;\nnew: b = 2;",
            "new: a = 1;\nnew: a = 2;",
            DuplicateDeclaration,
            _rename(["var", "-", "-", "-", "b"], 5, "a"),
        ),
        (
            "exp: @(1){ #a - #b }{ return: a; } exp: @(2){ #a + #b }{ return: b; }",
            "exp: @(1){ #a - #b }{ return: a; } exp: @(2){ #a - #b }{ return: b; }",
            DuplicateDeclaration,
            _rename(["expr", "%2B"], 2, "-"),
        ),
        (
            "system: A { }\nsystem: Z { }",
            "system: A { }\nsystem: A { }",
            DuplicateDeclaration,
            _rename(["class", "class", "Z"], 3, "A"),
        ),
        (
            "system: A { }\nsystem: B << A { }\nsystem: C << B { }",
            "system: A << B { }\nsystem: B << A { }\nsystem: C { }",
            InheritanceCycle,
            # C's inherit row made to say that A inherits B
            _rename(["class", "inherit", "C"], 3, "A"),
        ),
    ],
    ids=["unclosed-scope", "variable-twice", "pattern-twice", "class-twice", "cycle"],
)
def test_a_rule_broken_in_source_or_file_gives_one_text(good, bad, error, edit):
    lines = parse(precompile([good]))
    head, *rows = serialize(load(lines)).splitlines()
    rows = [row.split("\t") for row in rows]
    edit(rows)
    if bad is None:
        edit(lines)
    else:
        lines = parse(precompile([bad]))
    with pytest.raises(LoadError) as from_source:
        load(lines)
    assert type(from_source.value) is error
    text = "\n".join([head, *("\t".join(row) for row in rows)]) + "\n"
    with pytest.raises(FormatError) as from_file:
        deserialize(text)
    assert str(from_file.value) == str(from_source.value)


@pytest.mark.parametrize(
    "name, i, j, message",
    [
        ("class_solver", 11, 74, "code line 74 reads 10, no row of its scope"),
        ("chained_derivation", 31, 64, "code line 64 reads 30, no row of its scope"),
        ("sin_approx_exp", 28, 32, "code line 28 reads 31, no earlier row"),
        ("sin_approx_exp", 17, 23, "function at 16 has no declaration scope of its own"),
    ],
)
def test_a_compiled_file_with_two_code_rows_swapped_is_a_format_error(name, i, j, message):
    # each raised a KeyError in preexecute: in search.rule_plan (a function's
    # return row held a function row), in Segment.children (a run whose
    # last line is read by its first) and in match_branch (a body's start
    # row in a declaration's place, so preexecute bound the pattern)
    rows = _compiled_and_preexecuted(name)[0].split("\n")
    a, b = rows[i].split("\t"), rows[j].split("\t")
    a[1:], b[1:] = b[1:], a[1:]
    rows[i], rows[j] = "\t".join(a), "\t".join(b)
    with pytest.raises(FormatError, match=f"^{message}$"):
        deserialize("\n".join(rows))


@pytest.mark.parametrize(
    "name, scope, fop",
    [
        *(("apple_price", "31", fop) for fop in ("1", "11", "20")),
        *(("chained_derivation", "93", fop) for fop in ("1", "24", "34", "45", "55", "64")),
        ("class_solver", "2", "3"),
    ],
)
def test_a_function_row_naming_another_declarations_scope_is_a_format_error(
    tmp_path, capsys, name, scope, fop
):
    # each that names a derivation target's scope ran into a KeyError in
    # runtime.lower: derivation finds the function it gives a body by its
    # declaration scope, so the target's own function kept none. The class
    # scope that holds a member's declaration loaded and ran. A declaration
    # scope belongs to one function row, so the later of the two is refused
    rows = [row.split("\t") for row in _compiled_and_preexecuted(name)[0].splitlines()]
    owner = [row[0] for row in rows if row[1:2] == ["func"] and row[3] == scope]
    _row(rows, fop)[3] = scope
    table = tmp_path / "retargeted.ccode"
    table.write_text("".join("\t".join(row) + "\n" for row in rows))
    assert main(["run", str(table)]) == 1
    later = max([fop, *owner], key=Address.parse)
    message = f"function at {later} has no declaration scope of its own"
    assert capsys.readouterr().err == f"coolc: FormatError: {message}\n"


class _Overtime(Exception):
    """A damaged file still loading or running after its time bound."""


def _overtime(signum, frame):
    raise _Overtime


@settings(max_examples=400, deadline=None)
@given(retargeted_code_files())
def test_a_retargeted_code_file_runs_or_fails_as_a_cool_error_in_time(text):
    _runs_or_fails_as_a_cool_error_in_time(text)


@settings(max_examples=300, deadline=None)
@given(dropped_or_swapped_code_files())
def test_a_code_file_missing_or_swapping_rows_runs_or_fails_as_a_cool_error_in_time(text):
    # lowering fuses neighbouring instructions, and a damaged stream is
    # where a fusion could meet neighbours the parser never writes
    _runs_or_fails_as_a_cool_error_in_time(text)


def _runs_or_fails_as_a_cool_error_in_time(text):
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        tables = deserialize(text)
        if not tables.preexecuted:
            preexecute(tables)
        Interpreter(tables, max_steps=20_000, max_call_depth=200).run()
    except CoolError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
