"""Flat text form of the code tables.

One section per table, tab-separated rows sorted by address, so equal
tables always serialize to identical bytes. Operand columns are typed by
the KINDS column; text payloads are percent-escaped.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional
from urllib.parse import quote, unquote

from .addresses import Address
from .code import (
    BUILTIN,
    ClassInfo,
    CodeType,
    ExecFlag,
    ExtendedLine,
    FunctionInfo,
    Operand,
    OperandKind,
    PendFlag,
    ScopeInfo,
    ScopeKind,
    Tables,
    inheritance_cycle,
)
from .errors import FormatError

_MAGIC = "COOLCC 1"
_SEP = "---"


class _Codes(dict):
    """Column value to Enum member, for decoding without an Enum call.

    An unknown value raises the same ValueError as calling the Enum.
    """

    def __init__(self, enum):
        super().__init__((m.value, m) for m in enum)
        self.enum = enum

    def __missing__(self, value):
        raise ValueError(f"{value!r} is not a valid {self.enum.__name__}")


_CODE_TYPES = _Codes(CodeType)
_EXEC_FLAGS = _Codes(ExecFlag)
_OPERAND_KINDS = _Codes(OperandKind)
_PEND_FLAGS = _Codes(PendFlag)
_SCOPE_KINDS = _Codes(ScopeKind)


class _Addresses(dict):
    """Address text to Address, each text parsed once per deserialize call.

    A malformed text raises the ValueError of Address.parse and is not kept.
    """

    def __missing__(self, text: str) -> Address:
        self[text] = addr = Address.parse(text)
        return addr


def _enc_addr(a: Optional[Address]) -> str:
    return "-" if a is None else str(a)


def _dec_addr(s: str, addrs: _Addresses) -> Optional[Address]:
    return None if s == "-" else addrs[s]


def _enc_operand(o: Operand) -> str:
    if o.kind is OperandKind.EMPTY:
        return "-"
    if o.kind is OperandKind.NUMBER:
        return repr(o.num)
    if o.kind is OperandKind.ADDRESS:
        return str(o.addr)
    return quote(o.text, safe="")


def _dec_operand(kind: str, payload: str, addrs: _Addresses) -> Operand:
    k = _OPERAND_KINDS[kind]
    if k is OperandKind.EMPTY:
        return Operand.empty()
    if k is OperandKind.NUMBER:
        return Operand.number(float(payload))
    if k is OperandKind.ADDRESS:
        return Operand.address(addrs[payload])
    if k is OperandKind.TEXT:
        return Operand.string(unquote(payload))
    return Operand.ident(unquote(payload))


def _enc_line(ln: ExtendedLine) -> str:
    if ln.bound is None:
        bound = "-"
    elif ln.bound is BUILTIN:
        bound = "B"
    else:
        bound = str(ln.bound)
    cols = [
        str(ln.address),
        _enc_addr(ln.scope),
        ln.exec_flag.value,
        ln.ctype.value,
        _enc_operand(ln.op),
        _enc_operand(ln.left),
        _enc_operand(ln.right),
        _enc_operand(ln.result),
        ",".join(o.kind.value for o in (ln.op, ln.left, ln.right, ln.result)),
        "".join(p.value for p in ln.pending),
        "".join("T" if f else "F" for f in ln.formal),
        bound,
        "T" if ln.root else "F",
    ]
    return "\t".join(cols)


def _dec_line(row: str, addrs: _Addresses) -> ExtendedLine:
    cols = row.split("\t")
    if len(cols) != 13:
        raise FormatError(f"code row has {len(cols)} columns, wanted 13")
    kinds = cols[8].split(",")
    if len(kinds) != 4:
        raise FormatError("operand kinds must cover all four slots")
    if len(cols[9]) != 4 or len(cols[10]) != 4:
        raise FormatError("pending and formal flags must cover all four slots")
    if cols[11] == "-":
        bound = None
    elif cols[11] == "B":
        bound = BUILTIN
    else:
        bound = addrs[cols[11]]
    return ExtendedLine(
        address=addrs[cols[0]],
        scope=_dec_addr(cols[1], addrs),
        exec_flag=_EXEC_FLAGS[cols[2]],
        ctype=_CODE_TYPES[cols[3]],
        op=_dec_operand(kinds[0], cols[4], addrs),
        left=_dec_operand(kinds[1], cols[5], addrs),
        right=_dec_operand(kinds[2], cols[6], addrs),
        result=_dec_operand(kinds[3], cols[7], addrs),
        pending=[_PEND_FLAGS[c] for c in cols[9]],
        formal=[c == "T" for c in cols[10]],
        bound=bound,
        root=cols[12] == "T",
    )


def _read_code_row(tables: Tables, row: str, addrs: _Addresses) -> None:
    ln = _dec_line(row, addrs)
    if ln.address in tables.code:
        raise FormatError(f"address {ln.address} appears twice")
    tables.code.insert(ln)


def _read_scope_row(tables: Tables, row: str, addrs: _Addresses) -> None:
    cols = row.split("\t")
    if len(cols) != 6:
        raise FormatError("scope row needs 6 columns")
    tables.scopes[addrs[cols[0]]] = ScopeInfo(
        kind=_SCOPE_KINDS[cols[1]],
        start=addrs[cols[2]],
        end=addrs[cols[3]],
        param_query=_dec_addr(cols[4], addrs),
        parent=_dec_addr(cols[5], addrs),
    )


def _read_function_row(tables: Tables, row: str, addrs: _Addresses) -> None:
    cols = row.split("\t")
    if len(cols) != 10:
        raise FormatError("function row needs 10 columns")
    fop = addrs[cols[0]]
    if cols[6] == "T" and cols[5] == "-":
        raise FormatError(f"rewrite rule at code line {fop} has no return: statement")
    tables.functions[fop] = FunctionInfo(
        decl_scope=addrs[cols[2]],
        decl_root=addrs[cols[3]],
        body_scope=_dec_addr(cols[4], addrs),
        returns=[] if cols[5] == "-" else [addrs[r] for r in cols[5].split(",")],
        is_exp=cols[6] == "T",
        is_reverse=cols[7] == "T",
        weight=float(cols[8]),
        func_op=fop,
        name=unquote(cols[1]) or None,
        class_scope=_dec_addr(cols[9], addrs),
    )


def _read_class_row(tables: Tables, row: str, addrs: _Addresses) -> None:
    cols = row.split("\t")
    if len(cols) != 3:
        raise FormatError("class row needs 3 columns")
    tables.classes[addrs[cols[0]]] = ClassInfo(
        scope=addrs[cols[0]],
        name=unquote(cols[1]),
        parents=[] if cols[2] == "-" else [addrs[p] for p in cols[2].split(",")],
    )


_SECTIONS = (
    ("code", _read_code_row),
    ("scope", _read_scope_row),
    ("function", _read_function_row),
    ("class", _read_class_row),
)


def serialize(tables: Tables) -> str:
    out = [_MAGIC + (" preexec" if tables.preexecuted else "")]
    for a in sorted(tables.code.addresses()):
        out.append(_enc_line(tables.code[a]))
    out.append(_SEP)
    for start in sorted(tables.scopes):
        info = tables.scopes[start]
        out.append(
            "\t".join(
                [
                    str(start),
                    info.kind.value,
                    str(info.start),
                    str(info.end),
                    _enc_addr(info.param_query),
                    _enc_addr(info.parent),
                ]
            )
        )
    out.append(_SEP)
    for fop in sorted(tables.functions):
        fn = tables.functions[fop]
        out.append(
            "\t".join(
                [
                    str(fop),
                    quote(fn.name or "", safe=""),
                    str(fn.decl_scope),
                    str(fn.decl_root),
                    _enc_addr(fn.body_scope),
                    ",".join(str(r) for r in fn.returns) or "-",
                    "T" if fn.is_exp else "F",
                    "T" if fn.is_reverse else "F",
                    repr(fn.weight),
                    _enc_addr(fn.class_scope),
                ]
            )
        )
    out.append(_SEP)
    for scope in sorted(tables.classes):
        info = tables.classes[scope]
        out.append(
            "\t".join(
                [
                    str(scope),
                    quote(info.name, safe=""),
                    ",".join(str(p) for p in info.parents) or "-",
                ]
            )
        )
    return "\n".join(out) + "\n"


def deserialize(text: str) -> Tables:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise FormatError("not a code table file")
    header = lines[0][len(_MAGIC) :].strip()
    if header not in ("", "preexec"):
        raise FormatError(f"unknown header flags {header!r}")

    sections: list[list[tuple[int, str]]] = [[]]
    for lineno, row in enumerate(lines[1:], 2):
        if row == _SEP:
            sections.append([])
        else:
            sections[-1].append((lineno, row))
    if len(sections) != 4:
        raise FormatError(f"wanted 4 sections, found {len(sections)}")

    tables = Tables(preexecuted=header == "preexec")
    addrs = _Addresses()
    for (name, read), rows in zip(_SECTIONS, sections):
        for lineno, row in rows:
            try:
                read(tables, row, addrs)
            except ValueError as exc:
                # bad addresses, flags, kinds and numbers
                raise FormatError(f"line {lineno}, {name} row: {exc}") from None

    names: set[str] = set()
    for info in tables.classes.values():
        if info.name in names:
            raise FormatError(f"class {info.name!r} declared twice")
        names.add(info.name)
        if any(p not in tables.classes for p in info.parents):
            raise FormatError(f"class {info.name!r} inherits from a row that is no class")
    cycle = inheritance_cycle(tables.classes)
    if cycle is not None:
        raise FormatError(f"classes inherit in a cycle: {cycle}")

    # binding direction is a property of the bound function, not stored
    for ln in tables.code.lines():
        if ln.is_user_bound and ln.bound in tables.functions:
            ln.bound_reverse = tables.functions[ln.bound].is_reverse
    return tables


def write_file(tables: Tables, path: str) -> None:
    data = serialize(tables)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".coolcc-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_file(path: str) -> Tables:
    with open(path) as f:
        return deserialize(f.read())
