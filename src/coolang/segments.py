"""Working copies of longest expressions during pre-execution.

A segment holds working copies of one expression's lines, keyed by address.
Binding work happens on segments; a finished segment is spliced back into
the code table, either in place or through fresh addresses allocated
between its neighbors.

Search candidates are copy-on-write: a copy shares every line with its
parent and copies a line only when it first mutates it, through own().
A shared line is never mutated, so siblings cannot see each other's moves.

Each address also maps to a Version, which stands for the subtree rooted
there. own() gives the written line and each ancestor the segment has not
touched yet a fresh Version, and so does moving a subtree root under a new
parent. An unchanged Version therefore means an unchanged subtree in every
segment that holds it, and the facts a Version caches (pending state and
the search's matches) hold in all of them. Facts are cached only on
versions the segment has not touched; a silo entry is frozen, which makes
every version it holds cacheable, because an entry is never written again.
"""

from __future__ import annotations

from typing import Optional

from .addresses import Address, run_between
from .code import (
    BUILTIN,
    SLOT_LEFT,
    SLOT_RESULT,
    SLOT_RIGHT,
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

# working copies number their new lines from here, far above any table address
_STAGING_BASE = 10**9

# child slots in walk order; a result slot is a parent link too (`ans = <chain>`)
_CHILD_SLOTS = (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT)

# what a frozen segment owns and touches
_NOTHING: frozenset = frozenset()

# a subtree's pending state, ordered so that a line takes the larger of its
# children's: it holds no pending; a reverse binding in it waits for its
# value from above; an unbound pending leaf remains
SETTLED, AWAITING, OPEN = 0, 1, 2


def staging_address(seq: int) -> Address:
    """The seq-th fresh address of a working copy."""
    return Address((_STAGING_BASE + seq,))


class Version:
    """One line's subtree as it stands: its parent and the facts cached on it.

    state is the subtree's pending state, None until computed; matches maps
    a declaration's func_op to the search's match_branch result for the
    subtree (a Match or None).
    """

    __slots__ = ("parent", "state", "matches")

    def __init__(self, parent: Optional[Address]):
        self.parent = parent
        self.state: Optional[int] = None
        self.matches: Optional[dict] = None


class Segment:
    __slots__ = (
        "lines",
        "versions",
        "root",
        "original",
        "prev_addr",
        "terminator",
        "_staging_seq",
        "_owned",
        "_touched",
    )

    def __init__(
        self,
        lines: dict[Address, ExtendedLine],
        root: Address,
        original: list[Address],
        prev_addr: Optional[Address],
        terminator: Optional[Address],
        staging_seq: int = 0,
    ):
        self.lines = lines
        self.root = root
        self.original = original
        self.prev_addr = prev_addr
        self.terminator = terminator
        self._staging_seq = staging_seq
        # lines this segment may mutate; the rest are shared with its parent
        self._owned = set(lines)
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
        lines = {el.address: el.copy() for el in run}
        first, last = run[0].address, run[-1].address
        prev_addr = tables.code.prev_before(first)
        terminator = tables.code.next_after(last)
        seg = cls(
            lines=lines,
            root=last,
            original=[el.address for el in run],
            prev_addr=prev_addr,
            terminator=terminator,
        )
        seg.prebind_builtins()
        return seg

    def copy(self) -> "Segment":
        """A candidate sharing every line and version with this segment.

        The copy caches facts on the versions it shares, so copy a segment
        once its writes are done, as a silo entry's are.
        """
        cp = Segment.__new__(Segment)
        cp.lines = dict(self.lines)
        cp.versions = dict(self.versions)
        cp.root = self.root
        cp.original = self.original
        cp.prev_addr = self.prev_addr
        cp.terminator = self.terminator
        cp._staging_seq = self._staging_seq
        cp._owned = set()
        cp._touched = set()
        return cp

    def freeze(self) -> None:
        """Declare the segment written for good: it caches facts everywhere."""
        self._owned = self._touched = _NOTHING

    def own(self, addr: Address) -> ExtendedLine:
        """The line at addr, made private to this segment before a write."""
        if addr in self._owned:
            return self.lines[addr]
        ln = self.lines[addr].copy()
        self.lines[addr] = ln
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

    def _reparent(self, addr: Address, parent: Optional[Address]) -> None:
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
        self._touched.add(a)

    def _drop(self, addrs) -> None:
        for a in addrs:
            del self.lines[a]
            del self.versions[a]
            self._owned.discard(a)
            self._touched.discard(a)

    def fresh_address(self) -> Address:
        self._staging_seq += 1
        return staging_address(self._staging_seq)

    # --- structure ---

    def order(self) -> list[Address]:
        return sorted(self.lines)

    def __contains__(self, addr: Address) -> bool:
        return addr in self.lines

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

    def subtree_state(self, addr: Address, memo: Optional[dict] = None) -> int:
        """The pending state of the subtree at addr, computed bottom-up.

        A user binding leaves its subtree AWAITING if it solves, since a
        reverse binding solves itself only once a consumer supplies its
        value, and SETTLED if it computes. A pending identifier in any slot
        leaves the line OPEN. Otherwise a line takes the larger state of its
        left and right children. States are stored on untouched versions
        and, for touched ones, in memo, which a caller may keep while no
        line changes.
        """
        versions, lines, touched = self.versions, self.lines, self._touched
        v = versions[addr]
        if v.state is not None:
            return v.state
        if memo is None:
            memo = {}
        elif addr in memo:
            return memo[addr]
        stack = [addr]
        while stack:
            a = stack[-1]
            ln = lines[a]
            pend = ln.pending
            if ln.is_user_bound:
                f = AWAITING if ln.bound_reverse else SETTLED
            elif (
                ln.left.kind is OperandKind.IDENT and pend[SLOT_LEFT] is PendFlag.TRUE
                or ln.right.kind is OperandKind.IDENT and pend[SLOT_RIGHT] is PendFlag.TRUE
                or ln.result.kind is OperandKind.IDENT and pend[SLOT_RESULT] is PendFlag.TRUE
            ):
                f = OPEN
            else:
                f = SETTLED
                missing = []
                for o in (ln.left, ln.right):
                    c = o.addr
                    if o.kind is not OperandKind.ADDRESS or c == a or c not in lines:
                        continue
                    k = versions[c].state
                    if k is None:
                        k = memo.get(c)
                    if k is None:
                        missing.append(c)
                    elif k > f:
                        f = k
                if missing:
                    stack.extend(missing)
                    continue
            stack.pop()
            if a in touched:
                memo[a] = f
            else:
                versions[a].state = f
        return memo[addr] if addr in memo else v.state

    def slot_state(self, line: ExtendedLine, slot: int, memo: Optional[dict] = None) -> int:
        """The pending state of what fills a slot: an identifier's own flag,
        or the subtree of a child inside the segment; anything else is
        SETTLED."""
        o = line.slot(slot)
        if o.kind is OperandKind.IDENT:
            return OPEN if line.pending[slot] is PendFlag.TRUE else SETTLED
        if o.kind is OperandKind.ADDRESS and o.addr in self.lines and o.addr != line.address:
            return self.subtree_state(o.addr, memo)
        return SETTLED

    def matches(self, addr: Address) -> dict:
        """The match memo of the subtree at addr, by declaration func_op.

        Only for a frozen segment: a match reads nothing but the subtree,
        the declaration and the search's fixed context.
        """
        v = self.versions[addr]
        if v.matches is None:
            v.matches = {}
        return v.matches

    # --- builtin prebinding ---

    def try_prebind(self, addr: Address, memo: Optional[dict] = None) -> bool:
        """Bind a builtin whose value slots are SETTLED and whose children
        inside the segment are bound; `=` and `-->` read only their left."""
        lines = self.lines
        ln = lines[addr]
        if ln.bound is not None or ln.ctype is not CodeType.EXPR:
            return False
        op = ln.op.text
        if op not in PREBIND_OPS:
            return False
        for s in (SLOT_LEFT,) if op == "=" or op == "-->" else (SLOT_LEFT, SLOT_RIGHT):
            if self.slot_state(ln, s, memo) != SETTLED:
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
        memo: dict = {}
        versions, owned = self.versions, self._owned
        todo = list(owned)
        todo += [p for a in owned if (p := versions[a].parent) is not None and p not in owned]
        while todo:
            a = todo.pop()
            if self.try_prebind(a, memo):
                p = versions[a].parent
                if p is not None:
                    todo.append(p)

    def fully_bound(self) -> bool:
        return all(ln.bound is not None for ln in self.lines.values())

    def _walk_rings(self, top: Address, inside: Optional[set] = None) -> set:
        """Walk from top, children in slot order; a branch reached a second
        time gets a copy, each branch hangs under the line that keeps it.

        With inside, the walk enters only those lines. Returns what it
        reached.
        """
        lines = self.lines
        seen = {top}
        stack = [[top, 0]]
        while stack:
            frame = stack[-1]
            a, i = frame
            if i == len(_CHILD_SLOTS):
                stack.pop()
                continue
            frame[1] = i + 1
            s = _CHILD_SLOTS[i]
            o = lines[a].slot(s)
            if o.kind is not OperandKind.ADDRESS or o.addr == a or o.addr not in lines:
                continue
            c = o.addr
            if c in seen:
                c = self.copy_subtree(c)
                self.own(a).set_slot(s, Operand.address(c))
            if self.versions[c].parent != a:
                self._reparent(c, a)
            seen.add(c)
            if inside is None or c in inside:
                stack.append([c, 0])
        return seen

    def replace_branch(
        self,
        old: Address,
        matched: list[Address],
        added: list[Address],
        new: Operand,
        pending: bool,
    ) -> None:
        """Put new where the branch rooted at old stood, drop the lines that
        came loose and copy the branches the new lines reach twice.

        matched are the lines the rule consumed (old among them), added the
        rule's new lines. In a tree nothing else can come loose or be
        reached twice, so the repair walks only these and the roots hanging
        off the matched lines; it gives what dropping every unreachable line
        and copying every branch reached twice give over the whole segment.
        """
        parent = self.versions[old].parent
        if parent is None:
            self.root = new.addr
        else:
            ln = self.own(parent)
            for s in _CHILD_SLOTS:
                o = ln.slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr == old:
                    ln.set_slot(s, new)
                    if new.kind is OperandKind.IDENT:
                        ln.pending[s] = PendFlag.TRUE if pending else PendFlag.FALSE

        gone = set(matched)
        hanging = [c for m in matched for c in self.children(m) if c not in gone]
        fresh = set(added)
        kept: set = set()
        if new.kind is OperandKind.ADDRESS and new.addr in self.lines:
            self._reparent(new.addr, parent)
            kept = self._walk_rings(new.addr, fresh) if new.addr in fresh else {new.addr}
        loose = matched + [a for a in added if a not in kept]
        for h in hanging:
            if h not in kept:
                loose += self.subtree(h)
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
            if i == len(_CHILD_SLOTS):
                stack.pop()
                continue
            frame[2] = i + 1
            s = _CHILD_SLOTS[i]
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

        Rows hold strings, numbers and addresses but no Enum members, whose
        hash runs in Python, so hashing a digest in the silo stays in C.
        """
        lines = self.lines
        order = sorted(lines)
        index = {a: i for i, a in enumerate(order)}
        rows = []
        for a in order:
            ln = lines[a]
            pend = ln.pending
            slots = []
            for o, p in (
                (ln.left, pend[SLOT_LEFT]),
                (ln.right, pend[SLOT_RIGHT]),
                (ln.result, pend[SLOT_RESULT]),
            ):
                p = p._value_
                kind = o.kind
                if kind is OperandKind.ADDRESS:
                    t = o.addr
                    if t == a:
                        slots.append(("self", p))
                    elif t in index:
                        slots.append(("ref", index[t], p))
                    else:
                        slots.append(("ext", t, p))
                elif kind is OperandKind.NUMBER:
                    slots.append(("n", o.num, p))
                else:
                    slots.append((kind._value_, o.text, p))
            bound = "-" if ln.bound is None else ln.bound
            rows.append((ln.ctype._value_, ln.op.text, tuple(slots), bound, ln.root))
        rows.append(("root", index.get(self.root, -1)))
        return tuple(rows)

    # --- write-back ---

    def splice(self, tables: Tables) -> dict[Address, Address]:
        """Write the segment back into the code table.

        Same address set: flags copy in place. Otherwise the old lines are
        removed, fresh addresses are allocated inside the original gap, and
        outside references to removed lines are repointed at the new root.
        Returns the old-to-new address mapping for relocated lines.
        """
        order = self.order()
        # the winner still shares lines with the candidates the search dropped
        for a in order:
            if a not in self._owned:
                self.lines[a] = self.lines[a].copy()
        if set(order) == set(self.original):
            for a in order:
                old = tables.code[a]
                staged = self.lines[a]
                staged.scope = old.scope
                staged.exec_flag = old.exec_flag
                tables.code.remove(a)
                tables.code.insert(staged)
            return {}

        template = tables.code[self.original[0]]
        scope, exec_flag = template.scope, template.exec_flag
        for a in self.original:
            tables.code.remove(a)
        new_addrs = run_between(self.prev_addr, self.terminator, len(order))
        mapping = dict(zip(order, new_addrs))

        for a in order:
            ln = self.lines[a]
            ln.address = mapping[a]
            ln.scope = scope
            ln.exec_flag = exec_flag
            for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
                o = ln.slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr in mapping:
                    ln.set_slot(s, Operand.address(mapping[o.addr]))
            tables.code.insert(ln)

        # outside lines that referenced the old expression now take the new root
        new_root = mapping[self.root]
        stale = set(self.original)
        fresh = set(new_addrs)
        for el in tables.code.lines():
            if el.address in fresh:
                continue
            for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
                o = el.slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr in stale:
                    el.set_slot(s, Operand.address(mapping.get(o.addr, new_root)))
        return mapping

