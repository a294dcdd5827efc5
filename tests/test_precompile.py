import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from coolang.errors import PrecompileError, UnterminatedComment, UnterminatedString
from coolang.precompile import ARG_MARKER, SourceUnit, precompile


def test_comments_and_whitespace_removed():
    src = """
    // leading comment
    new: a = 1;  /* inline */ a --> 0;
    """
    assert precompile([src]) == "new:a=1;a-->0;"


def test_block_comment_separates_tokens():
    assert precompile(["a/*x*/b = 1;"]) == "ab=1;"


def test_string_contents_preserved():
    src = 'new: s = "a b // not comment /* still not */";'
    assert precompile([src]) == 'new:s="a b // not comment /* still not */";'


def test_unterminated_comment_reports_unit():
    with pytest.raises(UnterminatedComment) as e:
        precompile([SourceUnit("main.cool", "a = 1; /* oops")])
    assert "main.cool" in str(e.value)


def test_unterminated_string_raises():
    with pytest.raises(UnterminatedString):
        precompile(['a = "open;'])


def test_units_merged_in_order():
    out = precompile(["new: a = 1;", "new: b = 2;"])
    assert out == "new:a=1;new:b=2;"


def test_non_ascii_escaped_outside_strings():
    assert precompile(["new: aé = 1;"]) == "new:a_uE9_=1;"
    assert precompile(['x = "café";']) == 'x="café";'


def test_multipart_name_fusion():
    assert precompile(["add (a) and (b) to (c);"]) == "add_ARG_and_ARG_to(a,b,c);"
    assert (
        precompile(["@ price of buying (a) kg of apple unit price (b) { return: a * b; }"])
        == "@priceofbuying_ARG_kgofappleunitprice(a,b){return:a*b;}"
    )


def test_trailing_name_part_fuses():
    assert (
        precompile(["@ apple unit price (b) can be bought ($) kg;"])
        == "@appleunitprice_ARG_canbebought_ARG_kg(b,$);"
    )


def test_nested_calls_fused_recursively():
    assert precompile(["f(g (x) of (y)) and (z);"]) == "f_ARG_and(g_ARG_of(x,y),z);"


def test_single_part_calls_untouched():
    assert precompile(["add(1, 2);"]) == "add(1,2);"
    assert precompile(["f();"]) == "f();"


def test_keywords_never_fuse():
    assert precompile(["while (a > 0) { a = a - 1; }"]) == "while(a>0){a=a-1;}"
    assert precompile(["if (a == 0) { b = 1; }"]) == "if(a==0){b=1;}"
    assert precompile(["f (a) while (b) g;"]) == "f(a)while(b)g;"


def test_weight_parens_not_a_chain():
    assert precompile(["@(10){a == b;}{a = b;}"]) == "@(10){a==b;}{a=b;}"


def test_reserved_marker_rejected_in_fused_names():
    with pytest.raises(PrecompileError):
        precompile(["bad_ARG_name (a) more (b);"])


@pytest.mark.parametrize(
    "text, offset", [("f(a)g(1;", 5), ("(f(g(1);", 2), ('f("(")g((1);', 7)]
)
def test_an_unclosed_group_names_the_offset_of_the_outermost(text, offset):
    with pytest.raises(PrecompileError, match=f"^unbalanced parentheses at offset {offset}$"):
        precompile([text])


def test_reserved_marker_allowed_when_not_fusing():
    # already-normalized output must pass through: idempotence
    once = precompile(["add (a) and (b) to (c);"])
    assert precompile([once]) == once


def test_idempotent_on_realistic_program():
    src = """
    @ get result from (x) and (y) {
        new: a = x + y;
        $x + 1 == y;
        return: a + x;
    }
    new: x = 0;
    get result from ($x) and (3) == 50;
    x --> 0;
    """
    once = precompile([src])
    assert precompile([once]) == once
    assert "getresultfrom_ARG_and" in once


def test_a_fused_chain_two_thousand_calls_deep():
    text = "new:y=" + "f(a)g(" * 2000 + "1" + ")" * 2000 + ";"
    assert precompile(text) == "new:y=" + "f_ARG_g(a," * 2000 + "1" + ")" * 2000 + ";"


# no `/`, so no comment opens where two pieces meet, and only the marker
# pieces hold `_`, so only they make a name that holds the marker. Names,
# keywords and each paren are drawn as often as all the rest together.
_PIECES = st.one_of(
    st.sampled_from(["a", "b", "of", "and"]),
    st.sampled_from(["while", "if", "new", "out", "return"]),
    st.just("("),
    st.just(")"),
    st.sampled_from(
        ["x_ARG_y", ARG_MARKER, ",", '"s(t"', '"\\"("', "1", "2.5", "$", "#"]
        + ["+", "-", "*", "==", "-->", "=", ";", ":", ".", "{", "}", "@", "<<"]
    ),
)


def _one_fault(pieces: list[str]) -> bool:
    """No marker name, so only unclosed groups can fail, and the first is
    the outermost; or one marker name and no unclosed group."""
    markers = sum(ARG_MARKER in p for p in pieces)
    depth = 0
    for p in pieces:
        if p == "(":
            depth += 1
        elif p == ")" and depth:
            depth -= 1
    return markers == 0 or markers == 1 and depth == 0


def _fused(fuse, text: str):
    try:
        return fuse(text)
    except PrecompileError as exc:
        return exc


@settings(max_examples=400, deadline=None)
@given(st.lists(_PIECES, max_size=30))
def test_fusing_agrees_with_the_recursive_fuser(pieces):
    # with two faults the fusers may report different ones: the recursive
    # one checks a chain before the groups inside it, the one pass after
    text = "".join(pieces)
    want, got = _fused(reference.precompile, text), _fused(precompile, text)
    if isinstance(want, str):
        assert got == want
    else:
        assert type(got) is type(want)
        if _one_fault(pieces):
            assert str(got) == str(want)
