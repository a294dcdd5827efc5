"""Flat text form of the code tables.

A header line, then the code rows: tab-separated, sorted by address, so
equal tables always serialize to identical bytes. A row holds ten cells:
address, code type, the four operands, their kinds, the pending flags,
the bound and the root flag. Operand columns are typed by the KINDS
column; text payloads are percent-escaped. What the order of the rows
fixes is not stored: a row's scope and formal flags, and the scope,
function and class tables, which index the rows. Reading a file decodes
its rows and hands them to loader.index, the pass that also derives
those facts for loaded source and checks it; a rule the rows break is a
FormatError with the loader's text.
"""

from __future__ import annotations

import os
import tempfile
from functools import partial
from urllib.parse import quote, unquote

from .addresses import Address
from .code import (
    BUILTIN,
    CodeTable,
    CodeType,
    ExtendedLine,
    Operand,
    OperandKind,
    PendFlag,
    Tables,
)
from .errors import FormatError, LoadError
from .loader import index

_MAGIC = "COOLCC 1"


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
_OPERAND_KINDS = _Codes(OperandKind)
_PEND_FLAGS = _Codes(PendFlag)


class _Memo(dict):
    """Cell text to decoded value, each text decoded once per deserialize call.

    A text that does not decode raises the ValueError of decode and is not
    kept. Nothing outlives the call, so nothing carries from file to file.
    """

    def __init__(self, decode, known=()):
        super().__init__(known)
        self.decode = decode

    def __missing__(self, text: str):
        self[text] = value = self.decode(text)
        return value


def _enc_operand(o: Operand) -> str:
    if o.kind is OperandKind.EMPTY:
        return "-"
    if o.kind is OperandKind.NUMBER:
        return repr(o.num)
    if o.kind is OperandKind.ADDRESS:
        return str(o.addr)
    return quote(o.text, safe="")


def _dec_operand(kind: str, payload: str, addrs: _Memo) -> Operand:
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
        ln.ctype.value,
        _enc_operand(ln.op),
        _enc_operand(ln.left),
        _enc_operand(ln.right),
        _enc_operand(ln.result),
        ",".join(o.kind.value for o in (ln.op, ln.left, ln.right, ln.result)),
        "".join(p.value for p in ln.pending),
        bound,
        "T" if ln.root else "F",
    ]
    return "\t".join(cols)


def _split_kinds(text: str) -> list[str]:
    kinds = text.split(",")
    if len(kinds) != 4:
        raise ValueError("operand kinds must cover all four slots")
    return kinds


def _read_code(rows: list[str], addrs: _Memo) -> CodeTable:
    """The code rows, from file line 2 on, decoded in one pass.

    Equal cells share one decoded value: operands are shared and never
    written, and each line still gets its own pending and formal lists.
    Cells are checked in the order of the row-by-row reader in
    tests/reference.py (the bound before the address, the pending flags
    after the operands), so a row with several faults reports the same one.
    """
    bounds = _Memo(addrs.__getitem__, {"-": None, "B": BUILTIN})
    kinds = _Memo(_split_kinds)
    # kind letter -> a memo of its cells; a bad letter raises at its slot's turn
    operands = _Codes(OperandKind)
    for k in operands:
        operands[k] = _Memo(partial(_dec_operand, k, addrs=addrs))
    pendings = _Memo(lambda text: [_PEND_FLAGS[c] for c in text])
    parse = addrs.decode
    code: dict[Address, ExtendedLine] = {}
    try:
        for lineno, row in enumerate(rows, 2):
            cols = row.split("\t")
            if len(cols) != 10:
                raise ValueError(f"{len(cols)} columns, wanted 10")
            op, left, right, result = kinds[cols[6]]
            if len(cols[7]) != 4:
                raise ValueError("pending flags must cover all four slots")
            bound = bounds[cols[8]]
            address = addrs.get(cols[0])  # mostly new: parsed without the miss path
            if address is None:
                address = addrs[cols[0]] = parse(cols[0])
            # positional: keywords would add about a microsecond a row; the
            # scope and formal flags are loader.index's to set
            ln = ExtendedLine(
                address,
                None,
                _CODE_TYPES[cols[1]],
                operands[op][cols[2]],
                operands[left][cols[3]],
                operands[right][cols[4]],
                operands[result][cols[5]],
                [False, False, False, False],
                pendings[cols[7]].copy(),
                bound,
                False,
                cols[9] == "T",
            )
            if address in code:
                raise FormatError(f"address {address} appears twice")
            code[address] = ln
    except ValueError as exc:
        # bad shapes, addresses, flags, kinds and numbers
        raise FormatError(f"line {lineno}, code row: {exc}") from None
    return CodeTable(code)


def serialize(tables: Tables) -> str:
    out = [_MAGIC + (" preexec" if tables.preexecuted else "")]
    out.extend(_enc_line(ln) for ln in tables.code.lines())
    return "\n".join(out) + "\n"


def deserialize(text: str) -> Tables:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise FormatError("not a code table file")
    header = lines[0][len(_MAGIC) :].strip()
    if header not in ("", "preexec"):
        raise FormatError(f"unknown header flags {header!r}")
    tables = Tables(
        code=_read_code(lines[1:], _Memo(Address.parse)),
        preexecuted=header == "preexec",
    )
    try:
        index(tables)
    except LoadError as exc:
        raise FormatError(str(exc)) from None
    return tables


def write_file(tables: Tables, path: str) -> None:
    """Write the table to path through a temporary file beside it; an
    OSError names path, not the temporary file."""
    data = serialize(tables)
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".coolcc-")
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
