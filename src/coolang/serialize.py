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
    CodeTable,
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
    link_classes,
)
from .errors import FormatError, LoadError

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


def _dec_addr(s: str, addrs: _Memo) -> Optional[Address]:
    return None if s == "-" else addrs[s]


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
        raise FormatError("operand kinds must cover all four slots")
    return kinds


def _read_code(rows: list[str], addrs: _Memo) -> CodeTable:
    """The code section, rows from file line 2 on, decoded in one pass.

    Equal cells share one decoded value: operands are frozen, and each
    line still gets its own pending and formal lists. Cells are checked in
    the order of the row-by-row reader in tests/reference.py (the bound
    before the address, the pending flags after the operands), so a row
    with several faults reports the same one.
    """
    scopes = _Memo(addrs.__getitem__, {"-": None})
    bounds = _Memo(addrs.__getitem__, {"-": None, "B": BUILTIN})
    kinds = _Memo(_split_kinds)
    operands = _Memo(lambda cell: _dec_operand(*cell, addrs))
    pendings = _Memo(lambda text: [_PEND_FLAGS[c] for c in text])
    formals = _Memo(lambda text: [c == "T" for c in text])
    code: dict[Address, ExtendedLine] = {}
    try:
        for lineno, row in enumerate(rows, 2):
            cols = row.split("\t")
            if len(cols) != 13:
                raise FormatError(f"code row has {len(cols)} columns, wanted 13")
            op, left, right, result = kinds[cols[8]]
            if len(cols[9]) != 4 or len(cols[10]) != 4:
                raise FormatError("pending and formal flags must cover all four slots")
            bound = bounds[cols[11]]
            address = addrs[cols[0]]
            # positional: twelve keywords would add about a microsecond a row
            ln = ExtendedLine(
                address,
                scopes[cols[1]],
                _EXEC_FLAGS[cols[2]],
                _CODE_TYPES[cols[3]],
                operands[op, cols[4]],
                operands[left, cols[5]],
                operands[right, cols[6]],
                operands[result, cols[7]],
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
        # bad addresses, flags, kinds and numbers
        raise FormatError(f"line {lineno}, code row: {exc}") from None
    return CodeTable(code.values())


def _read_scope_row(tables: Tables, row: str, addrs: _Memo) -> None:
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


def _read_function_row(tables: Tables, row: str, addrs: _Memo) -> None:
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


def _read_class_row(tables: Tables, row: str, addrs: _Memo) -> None:
    cols = row.split("\t")
    if len(cols) != 3:
        raise FormatError("class row needs 3 columns")
    tables.classes[addrs[cols[0]]] = ClassInfo(
        scope=addrs[cols[0]],
        name=unquote(cols[1]),
        parents=[] if cols[2] == "-" else [addrs[p] for p in cols[2].split(",")],
    )


def _check_links(tables: Tables) -> None:
    """The one check of what a row may name, made once at load so that
    lowering and preexecute trust every link (the README lists the rules
    per row type). One pass over the code rows in address order; it sets
    each bound expression's bound_reverse from its function."""
    scopes, code, functions = tables.scopes, tables.code, tables.functions
    get = code.get
    # Enum members bound once: reading one off its class costs a lookup each row
    expr, member, jump, ret = CodeType.EXPR, CodeType.ACCESS_MEMBER, CodeType.JUMP, CodeType.RETURN
    derive = CodeType.DERIVE_FUNC
    for s, info in scopes.items():
        if info.start != s:
            raise FormatError(f"scope row {s}: start {info.start} is not the row's own id")
        if info.parent is not None and not (info.parent < s and info.parent in scopes):
            raise FormatError(f"scope row {s}: parent {info.parent} is no scope row before it")
        # lowering resumes at the end row, so it must emit nothing and lie past the start
        end = get(info.end)
        if s not in code or end is None or end.ctype is not CodeType.SCOPE_END or info.end <= s:
            raise FormatError(f"scope row {s}: end of scope {info.end} is no scope end row after {s}")
    for s in tables.classes:
        if s not in scopes:
            raise FormatError(f"class {s} has no scope row")
    for fop, fn in functions.items():
        named = [("code line", a, code) for a in (fop, fn.decl_root, *fn.returns)]
        named += [("scope row", a, scopes) for a in (fn.decl_scope, fn.body_scope)]
        named.append(("class row", fn.class_scope, tables.classes))
        for what, a, rows in named:
            if a is not None and a not in rows:
                raise FormatError(f"function row {fop}: {what} {a} is missing")
        # a rule's plan reads its return value among the body's rows
        for a in fn.returns:
            body, x = scopes.get(fn.body_scope), code[a]
            inside = body and body.start < a < body.end and x.scope and body.start <= x.scope < a
            if x.ctype is not ret or not inside:
                raise FormatError(f"function row {fop}: code line {a} is no return of its body")
        if fn.body_scope is None:
            after = code.next_after(scopes[fn.decl_scope].end)
            marker = get(after)
            if marker is None or (marker.ctype, marker.right.addr) != (derive, fn.decl_scope):
                raise FormatError(f"function row {fop}: no body, code line {after} derives none")

    first = last = None  # the current expression run's first and last rows
    held: list[ScopeInfo] = []  # the scope ranges that hold the row, innermost last
    later: list[tuple[ExtendedLine, Address]] = []  # its reads of a row not before the reader
    compiled = not tables.preexecuted  # only preexecute binds
    for ln in code.lines():
        a, t, r = ln.address, ln.ctype, ln.result.addr
        while held and held[-1].end < a:
            held.pop()
        if compiled and (ln.bound is not None or ln.root):
            raise FormatError(f"code line {a} is bound in a file that is not preexecuted")
        if r is not None and r != a and (t is not expr or ln.op.text != "="):
            raise FormatError(f"code line {a} writes its result to {r}, not to its own row")
        if t is expr:
            first, last = first or a, a
            b = ln.bound
            if b is not None and b is not BUILTIN:
                fn = functions.get(b)
                if fn is None or ln.root and fn.body_scope is None:
                    raise FormatError(f"code line {a} is bound to {b}, no function with a body")
                ln.bound_reverse = fn.is_reverse
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
            if t is jump and held and to <= held[-1].start:
                raise FormatError(f"jump at {a} leaves scope {held[-1].start} backward")
        elif t is CodeType.SCOPE_START:
            info = scopes.get(a)
            if info is None:
                raise FormatError(f"scope start {a} has no scope row")
            # preexecute skips a declaration by its start row's flag alone
            if (ln.exec_flag is ExecFlag.FALSE) != (info.kind is ScopeKind.DECL):
                raise FormatError(f"scope start {a} does not open its own scope")
            held.append(info)
        # a start row names its own scope, an end row the scope it closes
        if ln.scope != (held[-1].start if held else None):
            raise FormatError(f"code line {a} names scope {ln.scope}, not the scope that holds it")
    if later:
        _check_later(later, first, last, get, scopes, compiled)


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


_SECTIONS = (
    ("scope", _read_scope_row),
    ("function", _read_function_row),
    ("class", _read_class_row),
)


def serialize(tables: Tables) -> str:
    out = [_MAGIC + (" preexec" if tables.preexecuted else "")]
    out.extend(_enc_line(ln) for ln in tables.code.lines())
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

    seps = [i for i, row in enumerate(lines) if row == _SEP]
    if len(seps) != 3:
        raise FormatError(f"wanted 4 sections, found {len(seps) + 1}")

    addrs = _Memo(Address.parse)
    tables = Tables(
        code=_read_code(lines[1 : seps[0]], addrs),
        preexecuted=header == "preexec",
    )
    for (name, read), start, end in zip(_SECTIONS, seps, seps[1:] + [len(lines)]):
        for lineno, row in enumerate(lines[start + 1 : end], start + 2):
            try:
                read(tables, row, addrs)
            except ValueError as exc:
                # bad addresses, flags, kinds and numbers
                raise FormatError(f"line {lineno}, {name} row: {exc}") from None

    try:
        link_classes(tables)
    except LoadError as exc:
        raise FormatError(str(exc)) from None
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
