"""Pattern alignment between expression branches and declarations.

A declaration pattern matches a branch when their operator trees align and
every leaf pair passes one of: equal concrete values, value against a
same-type formal, variable against a same-type formal, an out:-marked
actual sharing storage with the branch variable, or a member path that
resolves and then passes one of the above. Pending states must agree at
every leaf: a pending branch node needs a pending or unrelated formal, a
determined one needs a determined or unrelated formal.

What a match reads, which the search's match memo keys on (search.MatchMemo).
The declaration and the BindContext are fixed within one search. Beyond
them, a match at a branch reads:
- the branch's line: operator, code type, binding, operands, pending flags;
- for its left and right slots, what fills them: an identifier's own flag,
  or the pending state of a child subtree (Segment.slot_state);
- a child's whole subtree, but only where the pattern goes into that slot
  (an internal pattern line) or repeats a formal there (_same_actual
  compares subtrees); pattern_reads says which slots these are.
A new guard that reads more of the branch must extend the memo's key too.
match_branch refuses a branch with fewer lines than the pattern before the
walk; that only skips a walk that would fail, so it adds nothing to the key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .addresses import Address
from .code import (
    SLOT_LEFT,
    SLOT_OP,
    SLOT_RESULT,
    SLOT_RIGHT,
    CodeType,
    ExtendedLine,
    FunctionInfo,
    Operand,
    OperandKind,
    PendFlag,
    Tables,
    split_markers,
)
from .records import Path
from .segments import OPEN, SETTLED, Segment

if TYPE_CHECKING:
    from .search import Declarations


@dataclass
class BindContext:
    """Resolution hooks the matcher needs from the walking engine."""

    tables: Tables
    stmt_scope: Optional[Address]
    resolve: Callable[[Optional[Address], str, bool], Optional[Path]]
    resolve_path_line: Callable[[Address], Optional[Path]]
    instance_class: Callable[[str], Optional[Address]]
    declarations: Declarations


@dataclass(slots=True)
class BoundValue:
    operand: Operand
    pending: bool
    line_addr: Address
    slot: int


@dataclass(slots=True)
class Match:
    fn: FunctionInfo
    root: Address
    matched: list[Address] = field(default_factory=list)
    bindings: dict[str, BoundValue] = field(default_factory=dict)


def _value_type(value) -> str:
    if value is None or isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "instance"


class _Matcher:
    def __init__(self, segment: Segment, fn: FunctionInfo, ctx: BindContext):
        self.seg = segment
        self.fn = fn
        self.ctx = ctx
        self.tables = ctx.tables
        self.decl_parent = ctx.tables.scopes[fn.decl_scope].parent
        self.matched: list[Address] = []
        self.bindings: dict[str, BoundValue] = {}

    def match_line(self, seg_ln: ExtendedLine, decl_ln: ExtendedLine) -> bool:
        # an explicit stack, since patterns may nest deeper than Python's; a
        # frame's slot is what its pair checks next: operator, left, right,
        # then (SLOT_RESULT) recording the line, so matched is post-order
        stack = [(seg_ln, decl_ln, SLOT_OP)]
        while stack:
            seg_ln, decl_ln, s = stack.pop()
            if s == SLOT_RESULT:
                self.matched.append(seg_ln.address)
                continue
            stack.append((seg_ln, decl_ln, s + 1))
            if s == SLOT_OP:
                # a builtin prebind is only a default and may be claimed by a
                # pattern; a line already owned by another function may not
                if seg_ln.is_user_bound or seg_ln.ctype is not CodeType.EXPR:
                    return False
                if not self._op_matches(seg_ln.op.text, decl_ln.op.text):
                    return False
                continue
            d = decl_ln.slot(s)
            o = seg_ln.slot(s)
            if d.kind is OperandKind.ADDRESS and not o.is_empty:
                # internal pattern operator: trees must keep aligning
                child = self.tables.code.get(d.addr)
                if child is None or child.ctype is not CodeType.EXPR:
                    return False
                if o.kind is not OperandKind.ADDRESS or o.addr not in self.seg.lines:
                    return False
                stack.append((self.seg[o.addr], child, SLOT_OP))
            elif not self._match_leaf(seg_ln, decl_ln, s):
                return False
        return True

    def _op_matches(self, seg_op: str, decl_op: str) -> bool:
        if seg_op == decl_op:
            return True
        if "." in seg_op and self.fn.class_scope is not None:
            receiver, fname = seg_op.rsplit(".", 1)
            if fname != decl_op:
                return False
            cls = self.ctx.instance_class(receiver)
            if cls is None:
                return False
            return self.fn.class_scope in self.tables.class_order(cls)
        return False

    def _match_leaf(self, seg_ln: ExtendedLine, decl_ln: ExtendedLine, slot: int) -> bool:
        d = decl_ln.slot(slot)
        s = seg_ln.slot(slot)
        if d.is_empty or s.is_empty:
            return d.is_empty and s.is_empty

        # a pending slot must meet something solvable; a determined slot
        # must meet nothing that still carries an unbound pending leaf
        state = self.seg.slot_state(seg_ln, slot)
        dpend = decl_ln.pending[slot]
        if dpend is PendFlag.TRUE and state == SETTLED:
            return False
        if dpend is PendFlag.FALSE and state == OPEN:
            return False

        if d.kind in (OperandKind.NUMBER, OperandKind.TEXT):
            # condition 1: the same concrete value
            return s.kind is d.kind and s.payload() == d.payload()

        # declaration-side identifier
        bare_d = split_markers(d.text)[0]
        if decl_ln.formal[slot]:
            if not self._type_compatible(seg_ln, slot):
                return False
            bv = BoundValue(
                operand=s,
                pending=state != SETTLED,
                line_addr=seg_ln.address,
                slot=slot,
            )
            if bare_d:
                prior = self.bindings.get(bare_d)
                if prior is not None:
                    return self._same_actual(prior, bv)
                self.bindings[bare_d] = bv
            return True

        # condition 4: out:-marked actual, same storage on both sides
        decl_path = self.ctx.resolve(self.decl_parent, bare_d, False)
        seg_path = self._storage_of(seg_ln, slot)
        if decl_path is None or seg_path is None:
            return False
        return decl_path.storage() == seg_path.storage()

    def _storage_of(self, seg_ln: ExtendedLine, slot: int) -> Optional[Path]:
        o = seg_ln.slot(slot)
        if o.kind is OperandKind.IDENT:
            bare, _, _, out = split_markers(o.text)
            return self.ctx.resolve(self.ctx.stmt_scope, bare, out)
        if o.kind is OperandKind.ADDRESS and o.addr not in self.seg.lines:
            # condition 5: a member chain's storage; None for other lines
            return self.ctx.resolve_path_line(o.addr)
        return None

    def _type_compatible(self, seg_ln: ExtendedLine, slot: int) -> bool:
        """Formals are numeric; the branch side must not be provably otherwise."""
        o = seg_ln.slot(slot)
        if o.kind is OperandKind.TEXT:
            return False
        # numbers, computed subtrees and unresolved variables read as numbers
        path = self._storage_of(seg_ln, slot)
        return path is None or _value_type(path.read()) == "number"

    def _same_actual(self, a: BoundValue, b: BoundValue) -> bool:
        """A repeated formal only matches the same actual again."""
        oa, ob = a.operand, b.operand
        if oa.kind in (OperandKind.NUMBER, OperandKind.TEXT):
            return ob.kind is oa.kind and ob.payload() == oa.payload()
        if oa.kind is OperandKind.IDENT:
            if ob.kind is not OperandKind.IDENT:
                return False
            pa = self._storage_of(self.seg[a.line_addr], a.slot)
            pb = self._storage_of(self.seg[b.line_addr], b.slot)
            if pa is not None and pb is not None:
                return pa.storage() == pb.storage()
            return split_markers(oa.text)[0] == split_markers(ob.text)[0]
        if oa.kind is OperandKind.ADDRESS:
            if ob.kind is not OperandKind.ADDRESS:
                return False
            if oa.addr in self.seg.lines and ob.addr in self.seg.lines:
                return self._subtree_digest(oa.addr) == self._subtree_digest(ob.addr)
            return oa.addr == ob.addr
        return False

    def _subtree_digest(self, addr: Address):
        """Operators and leaves of the subtree at addr, bottom-up."""
        lines = self.seg.lines
        done: dict[Address, tuple] = {}
        for a in self.seg.subtree(addr):
            ln = lines[a]
            slots = []
            for s in (SLOT_LEFT, SLOT_RIGHT):
                o = ln.slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr in lines and o.addr != a:
                    slots.append(done[o.addr])
                elif o.kind is OperandKind.IDENT:
                    slots.append(("var", split_markers(o.text)[0], ln.pending[s].value))
                else:
                    slots.append((o.kind.value, o.payload()))
            done[a] = (ln.op.text, tuple(slots))
        return done[addr]


def pattern_reads(tables: Tables, fn: FunctionInfo) -> tuple[int, bool, bool]:
    """The pattern's line count, and for its root's left and right slots
    whether a match reads the whole subtree there: the slot holds an
    internal pattern line, or a formal the pattern names again."""
    code = tables.code
    root = code[fn.decl_root]
    seen = {root.address}
    stack = [root]
    names: list[str] = []
    while stack:
        ln = stack.pop()
        for s in (SLOT_LEFT, SLOT_RIGHT):
            d = ln.slot(s)
            if d.kind is OperandKind.ADDRESS:
                child = code.get(d.addr)
                # counted once even if named twice, so the count never
                # exceeds the lines a match aligns with
                if child is not None and child.address not in seen:
                    seen.add(child.address)
                    stack.append(child)
            elif ln.formal[s]:
                names.append(split_markers(d.text)[0])
    whole = []
    for s in (SLOT_LEFT, SLOT_RIGHT):
        d = root.slot(s)
        bare = split_markers(d.text)[0] if root.formal[s] else ""
        whole.append(d.kind is OperandKind.ADDRESS or bool(bare) and names.count(bare) > 1)
    return len(seen), whole[0], whole[1]


def match_branch(
    segment: Segment, branch: Address, fn: FunctionInfo, ctx: BindContext
) -> Optional[Match]:
    """Align a declaration pattern with the branch rooted at an unbound line."""
    # each pattern line aligns with its own line of the branch, which is a
    # tree, so a branch with fewer lines cannot match
    size = ctx.declarations.pattern(fn)[0]
    if size > 1 and segment.subtree_size(branch) < size:
        return None
    m = _Matcher(segment, fn, ctx)
    if not m.match_line(segment[branch], fn.decl_rows[-1]):
        return None
    return Match(fn=fn, root=branch, matched=m.matched, bindings=m.bindings)
