"""The code table's value types: Operand and ExtendedLine."""

import ast
import pathlib

import coolang
from coolang.addresses import Address
from coolang.code import CodeType, ExtendedLine, Operand, OperandKind, PendFlag

# Operand's fields: operands are shared between lines and tables, so
# nothing may write one after Operand.__init__
_OPERAND_FIELDS = {"kind", "num", "text", "addr"}


def _line() -> ExtendedLine:
    empty = Operand.empty()
    return ExtendedLine(
        Address((3,)), None, CodeType.EXPR,
        Operand.ident("+"), Operand.ident("a"), Operand.number(1), empty,
    )


def test_operands_are_equal_and_hash_by_value():
    assert Operand.number(1) == Operand.number(1.0)
    assert hash(Operand.number(1)) == hash(Operand.number(1.0))
    assert Operand.address(Address((2, 1))) == Operand.address(Address((2, 1)))
    assert Operand.ident("a") != Operand.string("a")
    assert Operand.number(0) != Operand.empty()
    assert Operand.ident("a") != "a"
    cells = {Operand.ident("a"), Operand.ident("a"), Operand.number(2), Operand.number(2.0)}
    assert cells == {Operand.ident("a"), Operand.number(2)} and len(cells) == 2


def test_operands_keep_their_constructors_payload_and_repr():
    a = Address((4, 2))
    assert Operand.address(a).payload() == a and repr(Operand.address(a)) == "a:4.2"
    assert Operand.number(2).payload() == 2.0 and repr(Operand.number(2)) == "n:2.0"
    assert Operand.string("x").payload() == "x" and Operand.ident("y").payload() == "y"
    assert Operand.empty() is Operand.empty() and Operand.empty().is_empty
    assert Operand.empty().payload() is None and repr(Operand.empty()) == "∅"
    assert Operand(OperandKind.NUMBER).num == 0.0


def test_the_value_types_have_no_instance_dict():
    assert not hasattr(Operand.number(1), "__dict__")
    assert not hasattr(_line(), "__dict__")


def test_a_line_copy_has_its_own_flag_lists_and_no_digest_row():
    ln = _line()
    ln.pending[1] = PendFlag.TRUE
    ln.formal[2] = True
    ln.bound, ln.bound_reverse, ln.root = Address((9,)), True, True
    ln.digest_row = ("row",)
    cp = ln.copy()
    assert cp == ln and cp.digest_row is None
    assert cp.pending is not ln.pending and cp.formal is not ln.formal
    cp.pending[0] = PendFlag.UNRELATED
    cp.formal[0] = True
    assert ln.pending[0] is PendFlag.FALSE and not ln.formal[0]


def _operand_writes(tree: ast.AST) -> list[int]:
    """Lines of tree that store to or delete an Operand field anywhere
    outside Operand.__init__, by attribute or by setattr."""
    inside_init = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "Operand"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in inside_init:
            continue
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, (ast.Store, ast.Del)) and node.attr in _OPERAND_FIELDS:
                found.append(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("setattr", "delattr", "__setattr__", "__delattr__") and any(
                isinstance(a, ast.Constant) and a.value in _OPERAND_FIELDS for a in node.args
            ):
                found.append(node.lineno)
    return found


def test_no_source_writes_an_operand_field_outside_its_constructor():
    src = pathlib.Path(coolang.__file__).parent
    files = sorted(src.glob("*.py"))
    assert any(f.name == "code.py" for f in files)
    writes = {
        f.name: lines for f in files if (lines := _operand_writes(ast.parse(f.read_text())))
    }
    assert writes == {}


def test_the_operand_write_check_sees_each_kind_of_write():
    cases = [
        "o.kind = 1",
        "a.b.text += 's'",
        "x, o.num = 1, 2",
        "del o.addr",
        "setattr(o, 'text', 's')",
        "object.__setattr__(o, 'kind', 1)",
        "def f(o):\n    o.addr = None",
        "class Operand:\n    def other(self):\n        self.kind = 1",
        "class Other:\n    def __init__(self):\n        self.text = ''",
    ]
    for case in cases:
        assert _operand_writes(ast.parse(case)), case
    fine = "class Operand:\n    def __init__(self):\n        self.kind = self.num = 0"
    assert _operand_writes(ast.parse(fine)) == []
