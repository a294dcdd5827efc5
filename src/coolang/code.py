"""Core instruction representation shared by every pipeline stage.

A program is a sequence of quaternion lines. The compiler emits bare
CodeLine records; the loader turns them into ExtendedLine records keyed
by multi-level address and grouped into the four tables. A line's scope
and formal flags follow from its place among the rows, so loader.index
sets them on load, from source and from a `.ccode` file alike.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from .addresses import Address, run_between


class CodeType(Enum):
    VAR_DECL = "var"
    FUNC_OP = "func"
    DERIVE_FUNC = "derive"
    SCOPE_START = "sstart"
    SCOPE_END = "send"
    EXPR = "expr"
    JUMP = "jump"
    EXPR_END = "eend"
    RETURN = "ret"
    ACCESS_MEMBER = "member"
    CLASS_OP = "class"


class OperandKind(Enum):
    NUMBER = "n"
    TEXT = "s"
    IDENT = "i"
    ADDRESS = "a"
    EMPTY = "e"


class PendFlag(Enum):
    TRUE = "T"
    FALSE = "F"
    UNRELATED = "U"


class Operand:
    """One quaternion cell. Operands are shared between lines and tables
    and never written after __init__, so equal cells may be one object;
    equality and hash go by value."""

    __slots__ = ("kind", "num", "text", "addr")

    def __init__(self, kind: OperandKind, num=0.0, text="", addr: Optional[Address] = None):
        self.kind, self.num, self.text, self.addr = kind, num, text, addr

    def _value(self) -> tuple:
        return self.kind, self.num, self.text, self.addr

    def __eq__(self, other):
        return self._value() == other._value() if other.__class__ is Operand else NotImplemented

    def __hash__(self) -> int:
        return hash(self._value())

    @staticmethod
    def number(value: float) -> "Operand":
        return Operand(OperandKind.NUMBER, float(value))

    @staticmethod
    def string(value: str) -> "Operand":
        return Operand(OperandKind.TEXT, 0.0, value)

    @staticmethod
    def ident(name: str) -> "Operand":
        return Operand(OperandKind.IDENT, 0.0, name)

    @staticmethod
    def address(addr: Address) -> "Operand":
        return Operand(OperandKind.ADDRESS, 0.0, "", addr)

    @staticmethod
    def empty() -> "Operand":
        return _EMPTY

    @property
    def is_empty(self) -> bool:
        return self.kind is OperandKind.EMPTY

    def payload(self):
        if self.kind is OperandKind.NUMBER:
            return self.num
        if self.kind in (OperandKind.TEXT, OperandKind.IDENT):
            return self.text
        if self.kind is OperandKind.ADDRESS:
            return self.addr
        return None

    def __repr__(self) -> str:
        if self.is_empty:
            return "∅"
        return f"{self.kind.value}:{self.payload()}"


_EMPTY = Operand(OperandKind.EMPTY)


# Marker prefixes on identifier operands, as emitted by the compiler.
# The loader strips them into the pending/formal flag arrays.
PENDING_MARK = "$"
UNRELATED_MARK = "#"
OUT_MARK = "out:"


def split_markers(name: str) -> tuple[str, bool, bool, bool]:
    """name -> (bare, pending, unrelated, out)."""
    pending = unrelated = out = False
    while True:
        if name.startswith(PENDING_MARK):
            pending, name = True, name[1:]
        elif name.startswith(UNRELATED_MARK):
            unrelated, name = True, name[1:]
        elif name.startswith(OUT_MARK):
            out, name = True, name[len(OUT_MARK):]
        else:
            return name, pending, unrelated, out


# A member chain `a.b.c` as (bare root name, root out:-marked, member names
# outward): ("a", False, ("b", "c")). records.follow walks it.
Chain = tuple[str, bool, tuple[str, ...]]


def dotted_chain(text: str) -> Chain:
    """The chain a dotted receiver such as `out:m.part` names."""
    root, *names = text.split(".")
    bare, _, _, out = split_markers(root)
    return bare, out, tuple(names)


@dataclass
class CodeLine:
    """Compiler output: code type plus the raw quaternion.

    Address operands refer to 1-based emission indices wrapped as
    single-level addresses.
    """

    ctype: CodeType
    op: Operand = _EMPTY
    left: Operand = _EMPTY
    right: Operand = _EMPTY
    result: Operand = _EMPTY


# Slot indices into the quaternion flag arrays.
SLOT_OP, SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT = range(4)

# the slots that hold values, in walk order; a result slot is a parent link
# too (`ans = <chain>`)
VALUE_SLOTS = (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT)

BUILTIN = "builtin"

# the only row types that read an expression from outside its run
CONTROL_TYPES = (CodeType.JUMP, CodeType.RETURN)


@dataclass(slots=True)
class ExtendedLine:
    address: Address
    scope: Optional[Address]  # the innermost scope's start row, None outside all
    ctype: CodeType
    op: Operand
    left: Operand
    right: Operand
    result: Operand
    # per slot: a declaration pattern's name that is a formal parameter,
    # not one marked out:; False outside declaration scopes
    formal: list[bool] = field(default_factory=lambda: [False] * 4)
    pending: list[PendFlag] = field(default_factory=lambda: [PendFlag.FALSE] * 4)
    bound: object = None  # None | BUILTIN | Address of the bound function
    bound_reverse: bool = False  # bound function solves rather than computes
    root: bool = False
    # the line's digest row, which segments.Segment.digest keeps once the
    # line is shared and never written again; copy() drops it
    digest_row: object = field(default=None, compare=False, repr=False)

    def slot(self, i: int) -> Operand:
        return (self.op, self.left, self.right, self.result)[i]

    def set_slot(self, i: int, val: Operand) -> None:
        attr = ("op", "left", "right", "result")[i]
        setattr(self, attr, val)

    @property
    def is_user_bound(self) -> bool:
        return isinstance(self.bound, Address)

    def copy(self) -> "ExtendedLine":
        # positional, as serialize._read_code builds lines: keywords would
        # make a copy about twice as slow
        return ExtendedLine(
            self.address, self.scope, self.ctype,
            self.op, self.left, self.right, self.result,
            self.formal.copy(), self.pending.copy(), self.bound, self.bound_reverse, self.root,
        )

    def __repr__(self) -> str:
        b = ""
        if self.bound is not None:
            b = f" bound={self.bound}{'*' if self.root else ''}"
        return (
            f"<{self.address} {self.ctype.value} "
            f"({self.op!r},{self.left!r},{self.right!r},{self.result!r}){b}>"
        )


class ScopeKind(Enum):
    DECL = "decl"
    BODY = "body"
    CLASS = "class"
    COND = "cond"
    PLAIN = "plain"
    GLOBAL = "global"


@dataclass
class ScopeInfo:
    kind: ScopeKind
    start: Address
    end: Address
    parent: Optional[Address] = None  # enclosing scope's start address


@dataclass
class FunctionInfo:
    decl_scope: Address
    decl_root: Address
    body_scope: Optional[Address]
    returns: list[Address] = field(default_factory=list)
    is_exp: bool = False
    is_reverse: bool = False
    weight: float = 0.0
    func_op: Optional[Address] = None  # address of the FUNC_OP line (table key)
    name: Optional[str] = None  # operator text of the decl root, for diagnostics
    class_scope: Optional[Address] = None  # owning class scope, if a member
    # the EXPR rows inside the declaration scope in address order, decl_root
    # last: the table's own objects, gathered by loader.index. No later stage
    # replaces one: preexecute skips declarations, a splice rewrites statement
    # runs, derivation writes a body after its declaration and renames in place
    decl_rows: list[ExtendedLine] = field(default_factory=list, repr=False)


@dataclass
class ClassInfo:
    scope: Address
    name: str
    parents: list[Address] = field(default_factory=list)


class CodeTable:
    """Extended code lines keyed ascending by address."""

    def __init__(self, lines: Optional[dict[Address, ExtendedLine]] = None):
        """All lines at once, keyed by their addresses in any order: the
        table keeps the dict and sorts its keys once."""
        self._map: dict[Address, ExtendedLine] = {} if lines is None else lines
        self._keys: list[Address] = sorted(self._map)
        # the jump and return rows by address, kept exact by insert and remove
        self.control = {a: ln for a, ln in self._map.items() if ln.ctype in CONTROL_TYPES}

    def insert(self, line: ExtendedLine) -> None:
        if line.address in self._map:
            raise KeyError(f"address {line.address} already in code table")
        bisect.insort(self._keys, line.address)
        self._map[line.address] = line
        if line.ctype in CONTROL_TYPES:
            self.control[line.address] = line

    def insert_run(
        self, lines: list[ExtendedLine], lo: Optional[Address], hi: Optional[Address]
    ) -> list[Address]:
        """Insert lines, in order, at fresh addresses between lo and hi.

        References among the lines follow them, keyed by their old
        addresses, which must be distinct; other references stay. The gap
        must hold no address yet. Returns the new addresses.
        """
        new = run_between(lo, hi, len(lines))
        moved = {ln.address: a for ln, a in zip(lines, new)}
        for ln, a in zip(lines, new):
            ln.address = a
            for s in VALUE_SLOTS:
                o = ln.slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr in moved:
                    ln.set_slot(s, Operand.address(moved[o.addr]))
            self.insert(ln)
        return new

    def remove(self, addr: Address) -> ExtendedLine:
        line = self._map.pop(addr)
        idx = bisect.bisect_left(self._keys, addr)
        del self._keys[idx]
        self.control.pop(addr, None)
        return line

    def get(self, addr: Address) -> Optional[ExtendedLine]:
        return self._map.get(addr)

    def __getitem__(self, addr: Address) -> ExtendedLine:
        return self._map[addr]

    def __contains__(self, addr: Address) -> bool:
        return addr in self._map

    def __len__(self) -> int:
        return len(self._map)

    def first_address(self) -> Optional[Address]:
        return self._keys[0] if self._keys else None

    def next_after(self, addr: Address) -> Optional[Address]:
        idx = bisect.bisect_right(self._keys, addr)
        return self._keys[idx] if idx < len(self._keys) else None

    def prev_before(self, addr: Address) -> Optional[Address]:
        idx = bisect.bisect_left(self._keys, addr)
        return self._keys[idx - 1] if idx > 0 else None

    def addresses(self) -> list[Address]:
        return list(self._keys)

    def between(self, lo: Address, hi: Address) -> list[ExtendedLine]:
        """Lines with lo < address < hi, ascending."""
        keys = self._keys
        i = bisect.bisect_right(keys, lo)
        j = bisect.bisect_left(keys, hi, i)
        return [self._map[k] for k in keys[i:j]]

    def lines(self) -> Iterator[ExtendedLine]:
        for k in self._keys:
            yield self._map[k]

    def member_chain(self, addr: Address) -> Optional[Chain]:
        """The chain an ACCESS_MEMBER line names, down its bases to a name.

        None unless every level is an ACCESS_MEMBER line and the last base
        is an identifier. A loaded table's member accesses read earlier
        ones (loader.index), so the walk ends.
        """
        names: list[str] = []
        while True:
            ln = self._map.get(addr)
            if ln is None or ln.ctype is not CodeType.ACCESS_MEMBER:
                return None
            names.append(ln.right.text)
            base = ln.left
            if base.kind is OperandKind.IDENT:
                bare, _, _, out = split_markers(base.text)
                return bare, out, tuple(reversed(names))
            if base.kind is not OperandKind.ADDRESS:
                return None
            addr = base.addr


@dataclass
class Tables:
    code: CodeTable = field(default_factory=CodeTable)
    scopes: dict[Address, ScopeInfo] = field(default_factory=dict)
    functions: dict[Address, FunctionInfo] = field(default_factory=dict)
    classes: dict[Address, ClassInfo] = field(default_factory=dict)  # parents first
    class_scopes: dict[str, Address] = field(default_factory=dict)  # name -> scope
    preexecuted: bool = False
    # class scope -> its class_order, made on first use
    _class_orders: dict[Address, tuple[Address, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    # exp rule func_op -> its search.rule_plan, made on first use
    rule_plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def class_order(self, scope: Address) -> tuple[Address, ...]:
        """The class, then its ancestors: parents leftmost depth first, each once."""
        order = self._class_orders.get(scope)
        if order is None:
            seen: dict[Address, None] = {}
            stack = [scope]
            while stack:
                s = stack.pop()
                if s not in seen:
                    seen[s] = None
                    stack.extend(reversed(self.classes[s].parents))
            order = self._class_orders[scope] = tuple(seen)
        return order

    def scope_chain(self, scope_addr: Optional[Address]) -> list[Address]:
        """Scope start addresses from the given scope outward (global excluded)."""
        chain = []
        cur = scope_addr
        while cur is not None:
            chain.append(cur)
            cur = self.scopes[cur].parent
        return chain

    def expression_run(self, addr: Address) -> list[ExtendedLine]:
        """The longest expression containing the EXPR line at addr.

        A longest expression is a maximal run of consecutive EXPR lines;
        any other code type (EXPR_END, RETURN, JUMP, scope markers, ...)
        truncates it.
        """
        line = self.code[addr]
        if line.ctype is not CodeType.EXPR:
            raise ValueError(f"{addr} is not an expression line")
        run = [line]
        cur = addr
        while True:
            prev = self.code.prev_before(cur)
            if prev is None or self.code[prev].ctype is not CodeType.EXPR:
                break
            run.insert(0, self.code[prev])
            cur = prev
        cur = addr
        while True:
            nxt = self.code.next_after(cur)
            if nxt is None or self.code[nxt].ctype is not CodeType.EXPR:
                break
            run.append(self.code[nxt])
            cur = nxt
        return run

