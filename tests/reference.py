"""Reference implementations that tests compare the toolchain against.

Each is the plain, slow form of a fact the toolchain computes another
way: the class order as a depth-first walk, the whole-segment cleanups
and arithmetic that the search's incremental repair must agree with, and
a `.ccode` reader that decodes every cell of every code row afresh and
inserts the rows one by one.
"""

from __future__ import annotations

from typing import Callable, Optional

from coolang.addresses import Address
from coolang.code import (
    BUILTIN,
    SLOT_LEFT,
    SLOT_RIGHT,
    ExtendedLine,
    OperandKind,
    Tables,
    link_classes,
)
from coolang.errors import FormatError, LoadError
from coolang.segments import Segment
from coolang.serialize import (
    _CODE_TYPES,
    _EXEC_FLAGS,
    _MAGIC,
    _PEND_FLAGS,
    _SEP,
    _dec_addr,
    _dec_operand,
    _Memo,
    _read_class_row,
    _read_function_row,
    _read_scope_row,
)


def class_mro(tables: Tables, scope: Address) -> list[Address]:
    """Class scope plus ancestors, own first, parents leftmost-depth-first."""
    out: list[Address] = []
    seen: set[Address] = set()
    stack = [scope]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        out.append(s)
        stack.extend(reversed(tables.classes[s].parents))
    return out


def reference_counts(seg: Segment) -> dict[Address, int]:
    counts = {a: 0 for a in seg.lines}
    for a in seg.lines:
        for c in seg.children(a):
            counts[c] += 1
    return counts


def repair_detached(seg: Segment) -> list[Address]:
    """Drop lines unreachable from the root; returns what was removed."""
    keep = set(seg.subtree(seg.root))
    removed = [a for a in seg.lines if a not in keep]
    seg._drop(removed)
    return removed


def expand_rings(seg: Segment) -> None:
    """Tree-ify shared branches: every extra reference gets its own copy."""
    seg._walk_rings(seg.root)


def evaluate(
    segment: Segment,
    env: Callable[[str], float],
    addr: Optional[Address] = None,
) -> float:
    """Numeric value of a segment subtree over builtin operators.

    Test aid for rewrite-equivalence checks; user-bound calls are out of scope.
    """
    a = addr if addr is not None else segment.root
    ln = segment[a]

    def val(slot: int) -> float:
        o = ln.slot(slot)
        if o.kind is OperandKind.NUMBER:
            return o.num
        if o.kind is OperandKind.IDENT:
            return env(o.text)
        if o.kind is OperandKind.ADDRESS and o.addr in segment.lines and o.addr != a:
            return evaluate(segment, env, o.addr)
        raise ValueError(f"cannot evaluate operand {o!r}")

    op = ln.op.text
    if op == "+":
        return val(SLOT_LEFT) + val(SLOT_RIGHT)
    if op == "-":
        return val(SLOT_LEFT) - val(SLOT_RIGHT)
    if op == "*":
        return val(SLOT_LEFT) * val(SLOT_RIGHT)
    if op == "/":
        return val(SLOT_LEFT) / val(SLOT_RIGHT)
    if op == "^":
        return val(SLOT_LEFT) ** val(SLOT_RIGHT)
    if op == "neg":
        return -val(SLOT_LEFT)
    if op == "==":
        return 1.0 if val(SLOT_LEFT) == val(SLOT_RIGHT) else 0.0
    if op == ">":
        return 1.0 if val(SLOT_LEFT) > val(SLOT_RIGHT) else 0.0
    if op == "<":
        return 1.0 if val(SLOT_LEFT) < val(SLOT_RIGHT) else 0.0
    if op == ">=":
        return 1.0 if val(SLOT_LEFT) >= val(SLOT_RIGHT) else 0.0
    if op == "<=":
        return 1.0 if val(SLOT_LEFT) <= val(SLOT_RIGHT) else 0.0
    raise ValueError(f"not a builtin computation: {op!r}")


def _dec_line(row: str, addrs: _Memo) -> ExtendedLine:
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


def _read_code_row(tables: Tables, row: str, addrs: _Memo) -> None:
    ln = _dec_line(row, addrs)
    if ln.address in tables.code:
        raise FormatError(f"address {ln.address} appears twice")
    tables.code.insert(ln)


_SECTIONS = (
    ("code", _read_code_row),
    ("scope", _read_scope_row),
    ("function", _read_function_row),
    ("class", _read_class_row),
)


def deserialize(text: str) -> Tables:
    """A `.ccode` text to tables, row by row and cell by cell."""
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
    addrs = _Memo(Address.parse)
    for (name, read), rows in zip(_SECTIONS, sections):
        for lineno, row in rows:
            try:
                read(tables, row, addrs)
            except ValueError as exc:
                # bad addresses, flags, kinds and numbers
                raise FormatError(f"line {lineno}, {name} row: {exc}") from None

    try:
        link_classes(tables)
    except LoadError as exc:
        raise FormatError(str(exc)) from None

    # binding direction is a property of the bound function, not stored
    for ln in tables.code.lines():
        if ln.is_user_bound and ln.bound in tables.functions:
            ln.bound_reverse = tables.functions[ln.bound].is_reverse
    return tables
