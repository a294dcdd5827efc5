"""Flat text form of the code tables.

A header line, then the code rows: tab-separated, sorted by address, so
equal tables always serialize to identical bytes. Operand columns are
typed by the KINDS column; text payloads are percent-escaped. The scope,
function and class tables are indexes over the code rows, so the file
holds none of them: reading a file builds them from its rows with the
loader's builders, as loading source does.
"""

from __future__ import annotations

import os
import tempfile
from functools import partial
from typing import Optional
from urllib.parse import quote, unquote

from .addresses import Address
from .code import (
    BUILTIN,
    CodeTable,
    CodeType,
    ExecFlag,
    ExtendedLine,
    Operand,
    OperandKind,
    PendFlag,
    ScopeKind,
    Tables,
)
from .errors import FormatError, LoadError
from .loader import build_functions, check_variables, close_scope, link_classes, open_scope

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
_EXEC_FLAGS = _Codes(ExecFlag)
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


def _enc_addr(a: Optional[Address]) -> str:
    return "-" if a is None else str(a)


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
    scopes = _Memo(addrs.__getitem__, {"-": None})
    bounds = _Memo(addrs.__getitem__, {"-": None, "B": BUILTIN})
    kinds = _Memo(_split_kinds)
    # kind letter -> a memo of its cells; a bad letter raises at its slot's turn
    operands = _Codes(OperandKind)
    for k in operands:
        operands[k] = _Memo(partial(_dec_operand, k, addrs=addrs))
    pendings = _Memo(lambda text: [_PEND_FLAGS[c] for c in text])
    formals = _Memo(lambda text: [c == "T" for c in text])
    parse = addrs.decode
    code: dict[Address, ExtendedLine] = {}
    try:
        for lineno, row in enumerate(rows, 2):
            cols = row.split("\t")
            if len(cols) != 13:
                raise ValueError(f"{len(cols)} columns, wanted 13")
            op, left, right, result = kinds[cols[8]]
            if len(cols[9]) != 4 or len(cols[10]) != 4:
                raise ValueError("pending and formal flags must cover all four slots")
            bound = bounds[cols[11]]
            address = addrs.get(cols[0])  # mostly new: parsed without the miss path
            if address is None:
                address = addrs[cols[0]] = parse(cols[0])
            # positional: twelve keywords would add about a microsecond a row
            ln = ExtendedLine(
                address,
                scopes[cols[1]],
                _EXEC_FLAGS[cols[2]],
                _CODE_TYPES[cols[3]],
                operands[op][cols[4]],
                operands[left][cols[5]],
                operands[right][cols[6]],
                operands[result][cols[7]],
                formals[cols[10]].copy(),
                pendings[cols[9]].copy(),
                bound,
                False,
                cols[12] == "T",
            )
            if address in code:
                raise FormatError(f"address {address} appears twice")
            code[address] = ln
    except ValueError as exc:
        # bad shapes, addresses, flags, kinds and numbers
        raise FormatError(f"line {lineno}, code row: {exc}") from None
    return CodeTable(code.values())


def _check_links(tables: Tables) -> None:
    """The one check of what a row may name, made once at load so that
    lowering and preexecute trust every link (the README lists the rules
    per row type). It builds the scope table in its pass over the rows,
    then the function and class tables with the loader's builders, checks
    that no variable is declared twice in one scope as the loader does,
    and sets each bound expression's bound_reverse from its function."""
    try:
        funcs, class_ops, var_decls, bound = _check_rows(tables)
        build_functions(tables, funcs)
        link_classes(tables, class_ops)
        check_variables(var_decls)
    except LoadError as exc:
        raise FormatError(str(exc)) from None
    functions = tables.functions
    for ln in bound:
        a, b = ln.address, ln.bound
        fn = functions.get(b)
        if fn is None or ln.root and fn.body_scope is None:
            raise FormatError(f"code line {a} is bound to {b}, no function with a body")
        ln.bound_reverse = fn.is_reverse


def _check_rows(tables: Tables) -> tuple[list, list, list, list]:
    """One pass over the code rows in address order: it checks each row,
    fills the scope table, and returns the function rows, the class rows,
    the variable declarations and the rows bound to a function row, in
    address order."""
    scopes, code = tables.scopes, tables.code
    get = code.get
    # Enum members bound once: reading one off its class costs a lookup each row
    expr, member, jump, ret = CodeType.EXPR, CodeType.ACCESS_MEMBER, CodeType.JUMP, CodeType.RETURN
    opens, closes = CodeType.SCOPE_START, CodeType.SCOPE_END
    func, cls, var = CodeType.FUNC_OP, CodeType.CLASS_OP, CodeType.VAR_DECL
    funcs: list[ExtendedLine] = []
    class_ops: list[ExtendedLine] = []
    var_decls: list[ExtendedLine] = []
    bound: list[ExtendedLine] = []
    first = last = None  # the current expression run's first and last rows
    held: list[Address] = []  # the scopes that hold the row, innermost last
    later: list[tuple[ExtendedLine, Address]] = []  # its reads of a row not before the reader
    compiled = not tables.preexecuted  # only preexecute binds
    for ln in code.lines():
        a, t, r = ln.address, ln.ctype, ln.result.addr
        if compiled and (ln.bound is not None or ln.root):
            raise FormatError(f"code line {a} is bound in a file that is not preexecuted")
        if r is not None and r != a and (t is not expr or ln.op.text != "="):
            raise FormatError(f"code line {a} writes its result to {r}, not to its own row")
        if t is expr:
            first, last = first or a, a
            b = ln.bound
            if b is not None and b is not BUILTIN:
                bound.append(ln)
            for r in (ln.left.addr, ln.right.addr, None if r == a else r):
                if r is None:
                    continue
                if r >= a:
                    later.append((ln, r))
                elif r < first or r not in code:
                    _read_outside(a, r, get)
        else:
            if later:
                _check_later(later, first, last, get, scopes, compiled)
                later = []
            first = None
        r = ln.left.addr
        if t is member:
            base = get(r) if r is not None and r < a else None
            if ln.left.kind is not OperandKind.IDENT and (base is None or base.ctype is not member):
                raise FormatError(f"member access {a} reads no name and no earlier member access")
        elif t is jump or t is ret:
            read = get(r)
            if r is not None and (read is None or read.scope != ln.scope):
                raise FormatError(f"code line {a} reads {r}, no row of its scope")
            if read is not None and read.ctype is not expr and read.ctype is not member:
                raise FormatError(f"code line {a} reads {r}, no expression or member access")
            to = ln.right.addr
            if t is jump and (to is None or to not in code and code.next_after(to)):
                raise FormatError(f"jump at {a} has no target row")
            # back to or before its scope's start row, a jump would open the
            # scope again inside itself on every pass
            if t is jump and held and to <= held[-1]:
                raise FormatError(f"jump at {a} leaves scope {held[-1]} backward")
        elif t is opens:
            info = open_scope(scopes, a, ln.left.text, held[-1] if held else None)
            # preexecute skips a declaration by its start row's flag alone
            if (ln.exec_flag is ExecFlag.FALSE) != (info.kind is ScopeKind.DECL):
                raise FormatError(f"scope start {a} does not open its own scope")
            held.append(a)
        elif t is func:
            funcs.append(ln)
        elif t is cls:
            class_ops.append(ln)
        elif t is var:
            var_decls.append(ln)
        # a start row names its own scope, an end row the scope it closes
        if ln.scope != (held[-1] if held else None):
            raise FormatError(f"code line {a} names scope {ln.scope}, not the scope that holds it")
        if t is closes:
            close_scope(scopes, held, a)
    if later:
        _check_later(later, first, last, get, scopes, compiled)
    if held:
        raise FormatError(f"unclosed scope starting at code line {held[-1]}")
    return funcs, class_ops, var_decls, bound


def _read_outside(a: Address, r: Address, get) -> None:
    """A read out of its expression run must name a member access."""
    read = get(r)
    if read is None or read.ctype is not CodeType.ACCESS_MEMBER:
        raise FormatError(f"code line {a} reads {r}, no row of its expression or member access")


def _check_later(later: list, first: Address, last: Address, get, scopes, compiled: bool) -> None:
    """The reads of run [first, last] that name a row at or after the reader.
    Every cycle of reads has one, so only these start a walk for a cycle
    through a row that is not user-bound. runtime._align refuses the rest.
    Outside declarations a compiled file has none: the parser writes a line
    after the lines it reads, and preexecute takes a run's last line for
    its root."""
    ahead = None  # the first such read outside a declaration
    for ln, r in later:
        read = get(r)
        if r > last or read is None:
            _read_outside(ln.address, r, get)
            continue
        info = scopes.get(ln.scope)
        if info is not None and info.kind is ScopeKind.DECL:
            continue
        ahead = ahead or (ln.address, r)
        # (row, path holds a row not user-bound); a result naming its own row is seen
        stack, seen = [(read, not (ln.is_user_bound and read.is_user_bound))], set()
        while stack:
            x, other = stack.pop()
            if x is ln and other:
                raise FormatError(f"code line {ln.address} reads {r}, which reads back to it")
            if (x.address, other) not in seen:
                seen.add((x.address, other))
                for y in map(get, (x.left.addr, x.right.addr, x.result.addr)):
                    if y is not None and first <= y.address <= last:
                        stack.append((y, other or not y.is_user_bound))
    if compiled and ahead is not None:
        raise FormatError(f"code line {ahead[0]} reads {ahead[1]}, no earlier row")


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
    _check_links(tables)
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
