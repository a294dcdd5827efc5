import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolang.code import CodeType, Operand, OperandKind
from coolang.addresses import Address
from coolang.errors import ParseError
from coolang.parser import parse
from coolang.precompile import precompile


def compile_lines(src):
    return parse(precompile([src]))


def kinds(lines):
    return [ln.ctype for ln in lines]


def test_var_decl_with_initializer():
    lines = compile_lines("new: a = 1;")
    assert kinds(lines) == [CodeType.VAR_DECL, CodeType.EXPR, CodeType.EXPR_END]
    decl, assign, _ = lines
    assert decl.result.text == "a"
    assert assign.op.text == "="
    assert assign.left.num == 1.0
    assert assign.right.is_empty
    assert assign.result.text == "a"


def test_expression_compiles_post_order():
    lines = compile_lines("new: a = 0; a = 2 * a + 1;")
    # VAR_DECL, (=,0,,a), END, (*,2,a,@4), (+,@4,1,@5), (=,@5,,a), END
    assert [ln.ctype for ln in lines[3:]] == [
        CodeType.EXPR,
        CodeType.EXPR,
        CodeType.EXPR,
        CodeType.EXPR_END,
    ]
    mul, add, assign = lines[3:6]
    assert mul.op.text == "*" and mul.left.num == 2.0 and mul.right.text == "a"
    assert mul.result.addr.digits == (4,)
    assert add.op.text == "+" and add.left.addr.digits == (4,) and add.right.num == 1.0
    assert assign.op.text == "=" and assign.left.addr.digits == (5,)


def test_precedence_power_right_assoc_and_unary():
    lines = compile_lines("x = -b ^ 2;")
    # ^ binds tighter than unary minus: -(b^2)
    assert lines[0].op.text == "^"
    assert lines[1].op.text == "neg"
    assert lines[2].op.text == "="


def test_unary_minus_folds_into_literals():
    lines = compile_lines("x = -2 + 1;")
    assert lines[0].op.text == "+"
    assert lines[0].left.num == -2.0


def test_quadratic_statement_shape():
    lines = compile_lines("1 * $z^2 + x * z + y == 100;")
    ops = [ln.op.text for ln in lines if ln.ctype is CodeType.EXPR]
    assert ops == ["^", "*", "*", "+", "+", "=="]
    eq = [ln for ln in lines if ln.op.text == "=="][0]
    assert eq.right.num == 100.0
    # pending marker kept on the identifier text for the loader
    pw = [ln for ln in lines if ln.op.text == "^"][0]
    assert pw.left.text == "$z"


def test_multipart_call_two_args():
    lines = compile_lines("add(1)to(x);")
    call = lines[0]
    assert call.op.text == "add_ARG_to"
    assert call.left.num == 1.0 and call.right.text == "x"
    assert call.result.addr.digits == (1,)


def test_call_three_args_uses_param_chain():
    lines = compile_lines("f(a)g(b)h(c);")
    chain, call = lines[0], lines[1]
    assert chain.op.text == "param"
    assert chain.left.text == "a" and chain.right.text == "b"
    assert call.op.text == "f_ARG_g_ARG_h"
    assert call.left.addr == chain.result.addr
    assert call.right.text == "c"


def test_zero_and_one_arg_calls():
    lines = compile_lines("f(); g(x);")
    assert lines[0].left.is_empty and lines[0].right.is_empty
    assert lines[2].left.text == "x" and lines[2].right.is_empty


def test_output_statement():
    lines = compile_lines("x --> 0;")
    out = lines[0]
    assert out.op.text == "-->"
    assert out.left.text == "x"
    assert out.right.num == 0.0
    assert out.result.is_empty


def test_member_access_hoisted_before_expression():
    lines = compile_lines("m.x --> 0;")
    assert kinds(lines) == [CodeType.ACCESS_MEMBER, CodeType.EXPR, CodeType.EXPR_END]
    am, out, _ = lines
    assert am.op.text == "." and am.left.text == "m" and am.right.text == "x"
    assert out.left.addr == am.result.addr


def test_nested_member_access_chains():
    lines = compile_lines("a.b.c = 1;")
    am1, am2, assign = lines[0], lines[1], lines[2]
    assert am1.left.text == "a" and am1.right.text == "b"
    assert am2.left.addr == am1.result.addr and am2.right.text == "c"
    assert assign.result.addr == am2.result.addr


def test_member_call_uses_dotted_operator():
    lines = compile_lines("m.increase(10);")
    call = lines[0]
    assert call.ctype is CodeType.EXPR
    assert call.op.text == "m.increase"
    assert call.left.num == 10.0


def test_instance_declaration():
    lines = compile_lines("MainProcess: m;")
    assert kinds(lines) == [CodeType.VAR_DECL]
    assert lines[0].left.text == "MainProcess"
    assert lines[0].result.text == "m"


def test_function_declaration_layout():
    lines = compile_lines("@add(a, b){ return: a + b; }")
    assert kinds(lines) == [
        CodeType.FUNC_OP,
        CodeType.SCOPE_START,
        CodeType.EXPR,
        CodeType.EXPR_END,
        CodeType.SCOPE_END,
        CodeType.SCOPE_START,
        CodeType.EXPR,
        CodeType.RETURN,
        CodeType.EXPR_END,
        CodeType.SCOPE_END,
    ]
    fn = lines[0]
    assert fn.op.text == "func"
    assert fn.left.addr.digits == (2,)
    assert fn.right.addr.digits == (6,)
    assert fn.result.num == 0.0
    assert lines[1].left.text == "decl"
    assert lines[2].op.text == "add"
    ret = lines[7]
    assert ret.op.text == "return" and ret.left.addr.digits == (7,)


def test_weighted_pattern_declaration():
    lines = compile_lines("@(10){$a == b;}{a = b;}")
    fn = lines[0]
    assert fn.result.num == 10.0
    pattern = lines[2]
    assert pattern.op.text == "==" and pattern.left.text == "$a"


def test_negative_weight():
    lines = compile_lines("@(-100){a * $x^2 + b * x + c == 0;}{x = c;}")
    assert lines[0].result.num == -100.0


def test_exp_declaration_sets_funcexp():
    lines = compile_lines("exp: @(-1){#a + #b}{return: b + a;}")
    assert lines[0].op.text == "funcexp"
    assert lines[2].left.text == "#a" and lines[2].right.text == "#b"


def test_unrelated_marker_rejected_outside_exp():
    with pytest.raises(ParseError):
        compile_lines("@{#a + b}{a = b;}")
    with pytest.raises(ParseError):
        compile_lines("new: x = #a;")


def test_derivation_statement():
    src = "@get result from (x) and (y){ return: x + y; } => @get result from ($x) and (y);"
    lines = compile_lines(src)
    derive = lines[-1]
    assert derive.ctype is CodeType.DERIVE_FUNC
    assert derive.op.text == "=>"
    assert derive.left.text == "getresultfrom_ARG_and"
    rev_fn = [
        ln for ln in lines if ln.ctype is CodeType.FUNC_OP and ln.right.is_empty
    ][0]
    assert rev_fn.left.addr == derive.right.addr


def test_anonymous_pending_in_derive_head():
    src = "@ f (a, b){ return: a * b; } => @ f (b, $);"
    lines = compile_lines(src)
    rev_pattern = [
        ln for ln in lines if ln.ctype is CodeType.EXPR and ln.op.text == "f"
    ][-1]
    assert rev_pattern.left.text == "b"
    assert rev_pattern.right.text == "$"


def test_out_marker_attaches_to_first_identifier():
    lines = compile_lines("exp: @sin(out: pi/2 - a){return: cos(a);}")
    div = [ln for ln in lines if ln.op.text == "/"][0]
    assert div.left.text == "out:pi"
    sub = [ln for ln in lines if ln.op.text == "-"][0]
    assert sub.right.text == "a"


def test_while_layout_and_jump_targets():
    lines = compile_lines("new: x = 0; while(x < 5){ x = x + 1; }")
    # indices: 0 VAR_DECL, 1 (=,0,,x), 2 END, 3 (<,x,5,@4), 4 (==,@4,0,@5),
    # 5 END, 6 JUMP(@5 -> 13), 7 SSTART cond, 8 (+,x,1,@9), 9 (=,@9,,x),
    # 10 END, 11 SEND, 12 JUMP(1 -> 4), 13...
    assert lines[3].op.text == "<"
    neg = lines[4]
    assert neg.op.text == "==" and neg.right.num == 0.0
    exit_jump = lines[6]
    assert exit_jump.ctype is CodeType.JUMP
    assert exit_jump.left.addr.digits == (5,)
    assert exit_jump.right.addr.digits == (14,)
    back = lines[12]
    assert back.ctype is CodeType.JUMP
    assert back.left.num == 1.0
    assert back.right.addr.digits == (4,)


def test_if_elseif_else_layout():
    src = "if(a > 0){ b = 1; } elseif(a < 0){ b = 2; } else { b = 3; }"
    lines = compile_lines(src)
    jumps = [ln for ln in lines if ln.ctype is CodeType.JUMP]
    assert len(jumps) == 4  # two branch skips, two exits
    starts = [
        i for i, ln in enumerate(lines) if ln.ctype is CodeType.SCOPE_START
    ]
    assert len(starts) == 3
    skip1 = jumps[0]
    # first skip jumps to the start of the elseif condition
    assert lines[skip1.right.addr.digits[0] - 1].op.text == "<"
    # last cond's skip jumps to the else scope start
    skip2 = jumps[2]
    assert lines[skip2.right.addr.digits[0] - 1].ctype is CodeType.SCOPE_START
    end = len(lines) + 1
    assert jumps[1].right.addr.digits == (end,)
    assert jumps[3].right.addr.digits == (end,)


def test_class_declaration_layout():
    src = "system: MainProcess << OperationLaw { new: x = 1; @increase(n){ x = x + n; } }"
    lines = compile_lines(src)
    cls = lines[0]
    assert cls.ctype is CodeType.CLASS_OP and cls.op.text == "class"
    assert cls.left.text == "MainProcess"
    inherit = lines[1]
    assert inherit.op.text == "inherit" and inherit.right.text == "OperationLaw"
    assert lines[2].ctype is CodeType.SCOPE_START
    assert cls.right.addr.digits == (3,)
    assert lines[2].left.text == "class"


def test_keywords_cannot_be_identifiers():
    with pytest.raises(ParseError):
        compile_lines("new: while = 1;")
    with pytest.raises(ParseError):
        compile_lines("return = 1;")


@pytest.mark.parametrize(
    "src, word",
    [
        ("system: while { new: v = 1; }", "while"),
        ("system: A << if { }", "if"),
        ("system: A << B, new { }", "new"),
        ("system: A { } A: while;", "while"),
    ],
)
def test_a_class_its_parents_and_its_instances_cannot_take_a_reserved_name(src, word):
    # `while: m;` parses as a while, so no statement could create the class,
    # and no expression could read an instance named `while`
    with pytest.raises(ParseError, match=f"^'{word}' is reserved"):
        compile_lines(src)


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        compile_lines("new: a = 1")


def test_return_of_bare_variable():
    lines = compile_lines("@id(a){ return: a; }")
    ret = [ln for ln in lines if ln.ctype is CodeType.RETURN][0]
    assert ret.left.kind is OperandKind.IDENT and ret.left.text == "a"


def test_nesting_too_deep_to_parse_is_a_parse_error():
    depth = 3000
    with pytest.raises(ParseError, match="nesting too deep"):
        compile_lines("new: a = " + "(" * depth + "1" + ")" * depth + ";")


def test_a_bare_access_statement_ends_no_expression():
    # hoisted accesses alone emit no expression line, so no EXPR_END follows
    lines = compile_lines("a.b.c;")
    assert kinds(lines) == [CodeType.ACCESS_MEMBER, CodeType.ACCESS_MEMBER]


def test_string_escapes_decode_and_an_open_string_is_refused():
    (out,) = [ln for ln in parse(r'"a\"b\n\t\\c\q"-->0;') if ln.op.text == "-->"]
    assert out.left.text == 'a"b\n\t\\cq'
    with pytest.raises(ParseError, match=r"unterminated string \(at offset 2\)"):
        parse('x="open\\";')


@pytest.mark.parametrize("text, pos", [("new:aé=1;", 5), ("x=²;", 2), ("x=1;٣;", 4)])
def test_non_ascii_outside_strings_is_an_unexpected_character(text, pos):
    with pytest.raises(ParseError, match=rf"unexpected character .* \(at offset {pos}\)"):
        parse(text)
    assert parse('x="é";')[0].left.text == "é"


def test_a_parenthesised_assignment_is_no_assignment_target():
    # an assignment's value is its target operand, not the variable
    for src in ("(a = 3) = 4;", "(a.b = 3) = 4;", "(x --> 0) = 1;"):
        with pytest.raises(ParseError, match="assignment target must be a variable"):
            compile_lines(src)


@pytest.mark.parametrize(
    "text, pos",
    [("(a=3).c;", 6), ("f(x).c;", 5), ("(1).c;", 4), ("a.b(c).d;", 7)],
)
def test_an_access_off_a_value_names_the_component(text, pos):
    with pytest.raises(ParseError, match=rf"access path must start at a variable \(at offset {pos}\)"):
        parse(text)


@pytest.mark.parametrize(
    "src, message, pos",
    [
        ("@{ a.b = c }{ return: 1; }", "is not an operator expression", 8),
        ("@{ (x --> 0) + 1 }{ return: 1; }", "holds an output", 12),
    ],
)
def test_a_pattern_that_can_never_bind_is_refused(src, message, pos):
    # these used to load and run, though no statement line can match them
    pattern = rf"declaration pattern {message} \(at offset {pos}\)"
    with pytest.raises(ParseError, match=pattern) as err:
        compile_lines(src)
    assert err.value.exit_code == 1


def test_a_parenthesised_path_still_becomes_a_dotted_call():
    for src in ("a.b.f(x);", "(a.b).f(x);", "(a).b.f(x);"):
        (call, _) = compile_lines(src)
        assert call.ctype is CodeType.EXPR and call.op.text == "a.b.f"
        assert call.left.text == "x"


def test_assignment_hoists_the_target_access_before_the_value_access():
    am1, am2, call, assign, _ = compile_lines("a.b = f(c.d);")
    assert (am1.left.text, am1.right.text) == ("a", "b")
    assert (am2.left.text, am2.right.text) == ("c", "d")
    assert call.left == am2.result and assign.left == call.result
    assert assign.result == am1.result


_NAMES = st.sampled_from(["a", "b", "m", "x"])
_PATHS = st.builds(
    lambda root, comps: ".".join([root, *comps]),
    _NAMES,
    st.lists(st.sampled_from(["b", "v", "part"]), min_size=1, max_size=3),
)
_TARGETS = st.one_of(_NAMES, _PATHS, _PATHS.map("({})".format))


def _compound(inner):
    args = st.lists(inner, max_size=4).map(", ".join)
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "==", "<"]), inner).map(" ".join),
        inner.map("({})".format),
        inner.map("-{}".format),
        st.tuples(inner, inner).map("{0[0]}^{0[1]}".format),
        st.tuples(st.sampled_from(["f", "g"]), args).map("{0[0]}({0[1]})".format),
        st.tuples(_PATHS, args).map("{0[0]}({0[1]})".format),
        st.tuples(_TARGETS, inner).map("({0[0]} = {0[1]})".format),
    )


_EXPRS = st.recursive(
    st.one_of(_NAMES, _PATHS, st.sampled_from(["0", "2", "3.5", '"s"', "$y"])),
    _compound,
    max_leaves=12,
)
_STATEMENTS = st.one_of(
    _EXPRS.map("{};".format),
    st.tuples(_TARGETS, _EXPRS).map("{0[0]} = {0[1]};".format),
    _EXPRS.map("{} --> 0;".format),
)


@settings(max_examples=300, deadline=None)
@given(_STATEMENTS)
def test_a_statement_hoists_its_accesses_and_addresses_only_earlier_lines(src):
    lines = compile_lines(src)
    body = lines[:-1] if lines and lines[-1].ctype is CodeType.EXPR_END else lines
    types = kinds(body)
    accesses = types.count(CodeType.ACCESS_MEMBER)
    expressions = len(types) - accesses
    assert types == [CodeType.ACCESS_MEMBER] * accesses + [CodeType.EXPR] * expressions
    # an EXPR_END closes the statement exactly when it has an expression line
    assert (len(body) < len(lines)) == (expressions > 0)
    for row, ln in enumerate(body, 1):
        if ln.op.text not in ("=", "-->"):
            assert ln.result == Operand.address(Address((row,)))
        for o in (ln.left, ln.right) + ((ln.result,) if ln.op.text == "=" else ()):
            if o.kind is OperandKind.ADDRESS:
                assert o.addr[0] < row
