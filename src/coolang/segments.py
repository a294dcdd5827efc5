"""Working copies of longest expressions during pre-execution.

A segment holds working copies of one expression's lines, keyed by address,
and nothing about where they came from. Binding work happens on segments.
The caller writes a finished segment back over the run it was made from:
in place when it kept the run's address set, otherwise through
CodeTable.insert_run, which gives its lines fresh addresses in the gap the
run leaves, as it does for the bodies that derivation assembles.

Search candidates are copy-on-write: a copy shares every line with its
parent and copies a line only when it first mutates it, through own().
Taking a copy also ends the parent's right to write its lines in place, so
a shared line is never mutated and siblings cannot see each other's moves.

That makes a line object's digest row a fact of the object. A segment
keeps the row on each line it shares and does not own, and every segment
that holds the object reuses it; it rebuilds the rows of the lines it owns
on each digest. The row names its children by address, and the digest
turns each address into the line's place in address order. A move that
keeps the address set (a value match, a prebind) keeps that order, so its
candidate starts from the rows of the digest it was copied after and
rebuilds only its owned rows.

Each address also maps to a Version, which stands for the subtree rooted
there. own() gives the written line and each ancestor the segment has not
touched yet a fresh Version, and so does moving a subtree root under a new
parent. An unchanged Version therefore means an unchanged subtree in every
segment that holds it, and the facts a Version caches (pending state and
line count) hold in all of them. The search's match memo keys on line
objects and Versions for the same reason (search.MatchMemo).

One rule keeps those facts true: a segment computes a fact only once its
move is written. That happens in two places. The prebind runs after the
move, and its own writes bind builtins, which changes no pending state.
The matcher runs on silo entries, which are never written again, and so
reuses the states their prebind stored.
"""

from __future__ import annotations

from typing import Optional

from .addresses import Address, row_address
from .code import (
    BUILTIN,
    SLOT_LEFT,
    SLOT_RESULT,
    SLOT_RIGHT,
    VALUE_SLOTS,
    CodeType,
    ExtendedLine,
    Operand,
    OperandKind,
    PendFlag,
    Tables,
)

# operators the runtime computes directly; only these may prebind
PREBIND_OPS = frozenset(
    {"+", "-", "*", "/", "^", "==", "<", ">", "<=", ">=", "=", "-->", "neg"}
)

# the value slots Segment.try_prebind reads on a line with each of them:
# `=` and `-->` write their right, so only their left must be determined
PREBIND_READS = {
    op: (SLOT_LEFT,) if op in ("=", "-->") else (SLOT_LEFT, SLOT_RIGHT) for op in PREBIND_OPS
}

# working copies number their new lines from here, far above any table address
_STAGING_BASE = 10**9

# a subtree's pending state, ordered so that a line takes the larger of its
# children's: it holds no pending; a reverse binding in it waits for its
# value from above; an unbound pending leaf remains
SETTLED, AWAITING, OPEN = 0, 1, 2


def staging_address(seq: int) -> Address:
    """The seq-th fresh address of a working copy."""
    return row_address(_STAGING_BASE + seq)


def _template(ln: ExtendedLine) -> tuple[tuple, tuple[Address, ...]]:
    """A line's digest row before its addresses are placed: the row, with
    kind, payload and pending flag for each value slot and None for the
    payload of an address, and the addresses in slot order."""
    pend = ln.pending
    row = [ln.ctype._value_, ln.op.text]
    refs = []
    for o, p in (
        (ln.left, pend[SLOT_LEFT]),
        (ln.right, pend[SLOT_RIGHT]),
        (ln.result, pend[SLOT_RESULT]),
    ):
        kind = o.kind
        if kind is OperandKind.ADDRESS:
            refs.append(o.addr)
            row += ("a", None, p._value_)
        elif kind is OperandKind.NUMBER:
            row += ("n", o.num, p._value_)
        else:
            row += (kind._value_, o.text, p._value_)
    row += ("-" if ln.bound is None else ln.bound, ln.root)
    return tuple(row), tuple(refs)


def _place(made: tuple[tuple, tuple[Address, ...]], index: dict[Address, int]):
    """A digest row: the template, then for each address the line's place
    in index or, for a line outside the segment, the address itself."""
    tpl, refs = made
    return (tpl, *map(index.get, refs, refs)) if refs else tpl


class Version:
    """One line's subtree as it stands: its parent and the facts cached on it.

    state is the subtree's pending state and size the number of its lines
    reached through left and right slots, both None until computed in one
    walk (Segment.subtree_state). The object itself stands for the subtree
    in the search's match memo.
    """

    __slots__ = ("parent", "state", "size")

    def __init__(self, parent: Optional[Address]):
        self.parent = parent
        self.state: Optional[int] = None
        self.size: Optional[int] = None


class Segment:
    __slots__ = (
        "lines",
        "versions",
        "root",
        "_staging_seq",
        "_owned",
        "_private",
        "_touched",
        "_base",
        "_exact",
    )

    def __init__(
        self,
        lines: dict[Address, ExtendedLine],
        root: Address,
        staging_seq: int = 0,
    ):
        self.lines = lines
        self.root = root
        self._staging_seq = staging_seq
        # lines this segment copied or made; the rest are its parent's
        self._owned = set(lines)
        # owned lines no copy shares yet: the only ones written in place
        self._private = set(lines)
        # the address index and rows of the last digest this segment took or
        # was copied after, right for every line it does not own; _exact
        # when nothing was written since, so that a copy may start from it
        self._base: Optional[tuple[dict[Address, int], tuple]] = None
        self._exact = False
        # addresses whose Version is this segment's own: the owned lines,
        # their ancestors and the subtree roots it moved; always holds the
        # parent of what it holds
        self._touched = set(lines)
        parent: dict[Address, Address] = {}
        for a in lines:
            for c in self.children(a):
                parent[c] = a
        self.versions = {a: Version(parent.get(a)) for a in lines}

    # --- construction ---

    @classmethod
    def from_run(cls, tables: Tables, run: list[ExtendedLine]) -> "Segment":
        """Working copies of a run of the table, its builtins prebound."""
        seg = cls({el.address: el.copy() for el in run}, run[-1].address)
        seg.prebind_builtins()
        return seg

    def copy(self) -> "Segment":
        """A candidate sharing every line and version with this segment.

        The copy caches facts on the versions it shares, so copy a segment
        once its writes are done, as a silo entry's are. Its lines are
        shared from now on: this segment copies a line again before it
        writes it.
        """
        cp = Segment.__new__(Segment)
        cp.lines = dict(self.lines)
        cp.versions = dict(self.versions)
        cp.root = self.root
        cp._staging_seq = self._staging_seq
        cp._owned = set()
        cp._private = set()
        cp._touched = set()
        # rows digested before a later write would be stale for the copy
        cp._base = self._base if self._exact else None
        cp._exact = True
        self._private = set()
        return cp

    def own(self, addr: Address) -> ExtendedLine:
        """The line at addr, made private to this segment before a write."""
        self._exact = False
        if addr in self._private:
            return self.lines[addr]
        ln = self.lines[addr].copy()
        self.lines[addr] = ln
        self._private.add(addr)
        self._owned.add(addr)
        self._restamp(addr)
        return ln

    def _restamp(self, addr: Optional[Address]) -> None:
        """Fresh versions for addr and every ancestor not yet touched."""
        touched, versions = self._touched, self.versions
        while addr is not None and addr not in touched:
            v = versions[addr] = Version(versions[addr].parent)
            touched.add(addr)
            addr = v.parent

    def reparent(self, addr: Address, parent: Optional[Address]) -> None:
        """Hang the subtree at addr under parent, with a version of its own."""
        self._restamp(parent)
        if addr in self._touched:
            self.versions[addr].parent = parent
        else:
            self.versions[addr] = Version(parent)
            self._touched.add(addr)

    def add_line(self, ln: ExtendedLine, parent: Optional[Address] = None) -> None:
        """Insert a line this segment created; it is owned from birth."""
        a = ln.address
        self.lines[a] = ln
        self.versions[a] = Version(parent)
        self._owned.add(a)
        self._private.add(a)
        self._touched.add(a)
        self._base = None  # a new address renumbers the rows

    def _drop(self, addrs) -> None:
        for a in addrs:
            del self.lines[a]
            del self.versions[a]
            self._owned.discard(a)
            self._private.discard(a)
            self._touched.discard(a)
        self._base = None

    def fresh_address(self) -> Address:
        self._staging_seq += 1
        return staging_address(self._staging_seq)

    # --- structure ---

    def order(self) -> list[Address]:
        return sorted(self.lines)

    def __getitem__(self, addr: Address) -> ExtendedLine:
        return self.lines[addr]

    def child_addr(self, operand: Operand) -> Optional[Address]:
        if operand.kind is OperandKind.ADDRESS and operand.addr in self.lines:
            return operand.addr
        return None

    def children(self, addr: Address) -> list[Address]:
        # result slots carry children too: an assignment rooted over a chain
        # reaches the chain only through its target
        out = []
        lines = self.lines
        ln = lines[addr]
        for o in (ln.left, ln.right, ln.result):
            if o.kind is OperandKind.ADDRESS:
                c = o.addr
                if c != addr and c in lines:
                    out.append(c)
        return out

    def subtree(self, addr: Address) -> list[Address]:
        """Addresses reachable from addr, children first."""
        out: list[Address] = []
        seen = {addr}
        stack = [(addr, iter(self.children(addr)))]
        while stack:
            a, kids = stack[-1]
            for c in kids:
                if c not in seen:
                    seen.add(c)
                    stack.append((c, iter(self.children(c))))
                    break
            else:
                stack.pop()
                out.append(a)
        return out

    # --- pending state ---

    def subtree_state(self, addr: Address) -> int:
        """The pending state of the subtree at addr, computed bottom-up.

        A user binding leaves its subtree AWAITING if it solves, since a
        reverse binding solves itself only once a consumer supplies its
        value, and SETTLED if it computes. A pending identifier in any slot
        leaves the line OPEN. Otherwise a line takes the larger state of its
        left and right children. The same walk counts the subtree's lines
        through left and right slots. Every fact computed is stored on its
        version, which is sound once the segment's move is written (see the
        module docstring).
        """
        versions, lines = self.versions, self.lines
        v = versions[addr]
        if v.state is not None:
            return v.state
        stack = [addr]
        while stack:
            a = stack[-1]
            ln = lines[a]
            f, n = SETTLED, 1
            missing = []
            for o in (ln.left, ln.right):
                c = o.addr
                if o.kind is not OperandKind.ADDRESS or c == a or c not in lines:
                    continue
                cv = versions[c]
                if cv.state is None:
                    missing.append(c)
                else:
                    n += cv.size
                    if cv.state > f:
                        f = cv.state
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            pend = ln.pending
            if ln.is_user_bound:
                f = AWAITING if ln.bound_reverse else SETTLED
            elif (
                ln.left.kind is OperandKind.IDENT and pend[SLOT_LEFT] is PendFlag.TRUE
                or ln.right.kind is OperandKind.IDENT and pend[SLOT_RIGHT] is PendFlag.TRUE
                or ln.result.kind is OperandKind.IDENT and pend[SLOT_RESULT] is PendFlag.TRUE
            ):
                f = OPEN
            done = versions[a]
            done.state, done.size = f, n
        return v.state

    def subtree_size(self, addr: Address) -> int:
        """The number of lines in the subtree at addr, through left and
        right slots; computed with its pending state."""
        v = self.versions[addr]
        if v.size is None:
            self.subtree_state(addr)
        return v.size

    def slot_state(self, line: ExtendedLine, slot: int) -> int:
        """The pending state of what fills a slot: an identifier's own flag,
        or the subtree of a child inside the segment; anything else is
        SETTLED."""
        o = line.slot(slot)
        if o.kind is OperandKind.IDENT:
            return OPEN if line.pending[slot] is PendFlag.TRUE else SETTLED
        if o.kind is OperandKind.ADDRESS and o.addr in self.lines and o.addr != line.address:
            return self.subtree_state(o.addr)
        return SETTLED

    # --- builtin prebinding ---

    def try_prebind(self, addr: Address) -> bool:
        """Bind a builtin whose read slots (PREBIND_READS) are SETTLED and
        name no unbound child inside the segment."""
        lines = self.lines
        ln = lines[addr]
        if ln.bound is not None or ln.ctype is not CodeType.EXPR:
            return False
        reads = PREBIND_READS.get(ln.op.text)
        if reads is None:
            return False
        for s in reads:
            if self.slot_state(ln, s) != SETTLED:
                return False
            o = ln.slot(s)
            # a child with no pending still has no value until it is bound
            if o.kind is OperandKind.ADDRESS and o.addr != addr and o.addr in lines:
                if lines[o.addr].bound is None:
                    return False
        ln = self.own(addr)
        ln.bound = BUILTIN
        ln.root = True
        return True

    def prebind_builtins(self) -> None:
        """Bind builtin operators whose operands are determined, to a fixpoint.

        A worklist starts from the owned lines and their parents, and a line
        that binds pushes its parent. That is exact: whether a line binds
        reads its own row, whether each child is bound and, for a bound
        child, its state. A bound child's state comes from its own row (a
        user binding) or was SETTLED when it bound (a builtin), and a bound
        subtree never returns to SETTLED, because user bindings are never
        undone. So a line that stayed unbound when its own segment's pass
        ended can bind here only if its row or a child's row changed, which
        makes it an owned line or the parent of one, or a child bound in
        this pass. Binding is monotone and changes no pending state, so the
        states hold for the whole pass and every visit order gives the same
        result.
        """
        versions, owned = self.versions, self._owned
        todo = list(owned)
        todo += [p for a in owned if (p := versions[a].parent) is not None and p not in owned]
        while todo:
            a = todo.pop()
            if self.try_prebind(a):
                p = versions[a].parent
                if p is not None:
                    todo.append(p)

    def fully_bound(self) -> bool:
        return all(ln.bound is not None for ln in self.lines.values())

    def replace_branch(
        self,
        old: Address,
        matched: list[Address],
        new: Operand,
        pending: bool,
        kept: set[Address],
    ) -> None:
        """Put new where the branch rooted at old stood, and drop the matched
        lines (old among them) with the subtrees hanging off them, except
        new itself and the actuals in kept that the rule's new lines hold.
        """
        parent = self.versions[old].parent
        if parent is None:
            self.root = new.addr
        else:
            ln = self.own(parent)
            for s in VALUE_SLOTS:
                o = ln.slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr == old:
                    ln.set_slot(s, new)
                    if new.kind is OperandKind.IDENT:
                        ln.pending[s] = PendFlag.TRUE if pending else PendFlag.FALSE
        top = self.child_addr(new)
        if top is not None:
            self.reparent(top, parent)
        gone = set(matched)
        loose = list(matched)
        for m in matched:
            for c in self.children(m):
                if c not in gone and c not in kept and c != top:
                    loose += self.subtree(c)
        self._drop(loose)

    def copy_subtree(self, addr: Address) -> Address:
        """Deep copy a subtree into fresh staging addresses; returns new root.

        Addresses are handed out parent first, children in slot order.
        """
        lines = self.lines
        mapping: dict[Address, Address] = {}

        def start(a: Address, parent: Optional[Address]) -> list:
            new_addr = mapping[a] = self.fresh_address()
            cp = lines[a].copy()
            cp.address = new_addr
            self.add_line(cp, parent)
            return [a, cp, 0]

        stack = [start(addr, None)]
        while stack:
            frame = stack[-1]
            a, cp, i = frame
            if i == len(VALUE_SLOTS):
                stack.pop()
                continue
            frame[2] = i + 1
            s = VALUE_SLOTS[i]
            o = lines[a].slot(s)
            if o.kind is not OperandKind.ADDRESS:
                continue
            c = o.addr
            if c == a:
                if s == SLOT_RESULT:
                    cp.result = Operand.address(cp.address)
            elif c in mapping:
                cp.set_slot(s, Operand.address(mapping[c]))
            elif c in lines:
                stack.append(start(c, cp.address))
                cp.set_slot(s, Operand.address(mapping[c]))
        return mapping[addr]

    # --- canonical digests ---

    def digest(self) -> tuple:
        """Canonical structure: equal exactly for segments that differ only
        in the addresses of their lines.

        One row per line in address order (_template, _place), then the
        root's place. Rows hold strings, numbers and addresses but no Enum
        members, whose hash runs in Python, so hashing a digest in the silo
        stays in C.
        """
        lines, owned = self.lines, self._owned
        if self._base is not None:
            index, rows = self._base
            if owned:
                rows = list(rows)
                for a in owned:
                    rows[index[a]] = _place(_template(lines[a]), index)
                rows = tuple(rows)
        else:
            order = sorted(lines)
            index = {a: i for i, a in enumerate(order)}
            rows = []
            for a in order:
                ln = lines[a]
                if a in owned:
                    made = _template(ln)
                else:
                    made = ln.digest_row
                    if made is None:
                        made = ln.digest_row = _template(ln)
                rows.append(_place(made, index))
            rows = tuple(rows)
        self._base = (index, rows)
        self._exact = True
        return rows, index.get(self.root, -1)

    # --- write-back ---

    def splice(self, tables: Tables, original: list[Address]) -> dict[Address, Address]:
        """Write the segment back over the run at the original addresses.

        Same address set: flags copy in place. Otherwise the run is
        removed, the lines go into the gap it leaves, and the readers of
        removed lines take the new root: the table's jump and return rows,
        and the rest of the run if the segment was cut from part of one.
        Returns the old-to-new address mapping for relocated lines.
        """
        order = self.order()
        # the winner still shares lines with the candidates the search dropped
        for a in order:
            if a not in self._private:
                self.lines[a] = self.lines[a].copy()
        if set(order) == set(original):
            for a in order:
                old = tables.code[a]
                staged = self.lines[a]
                staged.scope = old.scope
                tables.code.remove(a)
                tables.code.insert(staged)
            return {}

        template = tables.code[original[0]]
        lo = tables.code.prev_before(original[0])
        hi = tables.code.next_after(original[-1])
        for a in original:
            tables.code.remove(a)
        run = [self.lines[a] for a in order]
        for ln in run:
            ln.scope = template.scope
        new_addrs = tables.code.insert_run(run, lo, hi)
        mapping = dict(zip(order, new_addrs))

        new_root = mapping[self.root]
        stale = set(original)
        first, last = new_addrs[0], new_addrs[-1]
        rest = [el for el in tables.expression_run(first) if not first <= el.address <= last]
        for el in (*tables.code.control.values(), *rest):
            for s in VALUE_SLOTS:
                o = el.slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr in stale:
                    el.set_slot(s, Operand.address(mapping.get(o.addr, new_root)))
        return mapping
