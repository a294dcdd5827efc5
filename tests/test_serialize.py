import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from coolang import build, preexecute
from coolang.addresses import Address
from coolang.code import ScopeKind
from coolang.errors import CoolError, FormatError
from coolang.runtime import Interpreter, run_program
from coolang.serialize import deserialize, read_file, serialize, write_file


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
        deserialize("COOLCC 1 zip\n---\n---\n---\n")
    with pytest.raises(FormatError, match="4 sections"):
        deserialize("COOLCC 1\n---\n---\n")
    with pytest.raises(FormatError, match="13"):
        deserialize("COOLCC 1\n1\tx\n---\n---\n---\n")


def test_files_write_and_read_back(tmp_path):
    t = build(corpus.APPLE_PRICE)
    preexecute(t)
    path = tmp_path / "apple.ccode"
    write_file(t, str(path))
    assert path.read_text().endswith("\n")
    loaded = read_file(str(path))
    assert serialize(loaded) == serialize(t)
    assert run_program(loaded).output == corpus.APPLE_PRICE_OUTPUT


def _bound_text(src):
    t = build(src)
    preexecute(t)
    return serialize(t)


BOUND_TEXTS = [_bound_text(corpus.ALL_PROGRAMS[name]) for name in ("loop_and_branch", "class_solver")]


@st.composite
def damaged_code_files(draw):
    """A bound code file with one cell replaced by short junk."""
    rows = draw(st.sampled_from(BOUND_TEXTS)).split("\n")
    i = draw(st.integers(0, len(rows) - 1))
    cells = rows[i].split("\t")
    j = draw(st.integers(0, len(cells) - 1))
    cells[j] = draw(st.text(alphabet="0123456789.-,TFBCUaeinsdx%\t", max_size=6))
    rows[i] = "\t".join(cells)
    return "\n".join(rows)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), damaged_code_files()))
def test_any_text_loads_and_lowers_or_fails_as_a_cool_error(text):
    try:
        Interpreter(deserialize(text))
    except CoolError:
        pass


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
    with pytest.raises(FormatError, match="end of scope"):
        Interpreter(deserialize(serialize(t)))
