"""Working copies of longest expressions during pre-execution.

A segment holds working copies of one expression's lines, keyed by address.
Binding work happens on segments; a finished segment is spliced back into
the code table, either in place or through fresh addresses allocated
between its neighbors.

Search candidates are copy-on-write: a copy shares every line with its
parent and copies a line only when it first mutates it, through own().
A shared line is never mutated, so siblings cannot see each other's moves.
"""

from __future__ import annotations

from typing import Callable, Optional

from .addresses import Address, Allocator
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


def staging_address(seq: int) -> Address:
    """The seq-th fresh address of a working copy."""
    return Address((_STAGING_BASE + seq,))


class Segment:
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
        """A candidate sharing every line with this segment until own()."""
        cp = Segment.__new__(Segment)
        cp.lines = dict(self.lines)
        cp.root = self.root
        cp.original = self.original
        cp.prev_addr = self.prev_addr
        cp.terminator = self.terminator
        cp._staging_seq = self._staging_seq
        cp._owned = set()
        return cp

    def own(self, addr: Address) -> ExtendedLine:
        """The line at addr, made private to this segment before a write."""
        if addr in self._owned:
            return self.lines[addr]
        ln = self.lines[addr].copy()
        self.lines[addr] = ln
        self._owned.add(addr)
        return ln

    def add_line(self, ln: ExtendedLine) -> None:
        """Insert a line this segment created; it is owned from birth."""
        self.lines[ln.address] = ln
        self._owned.add(ln.address)

    def _drop(self, addrs) -> None:
        for a in addrs:
            del self.lines[a]
            self._owned.discard(a)

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
        seen: set[Address] = set()

        def walk(a: Address) -> None:
            if a in seen:
                return
            seen.add(a)
            for c in self.children(a):
                walk(c)
            out.append(a)

        walk(addr)
        return out

    def reference_counts(self) -> dict[Address, int]:
        counts = {a: 0 for a in self.lines}
        for a in self.lines:
            for c in self.children(a):
                counts[c] += 1
        return counts

    # --- pending state ---

    def slot_pending(self, line: ExtendedLine, slot: int) -> bool:
        """The slot waits to be solved by whoever consumes it."""
        o = line.slot(slot)
        if o.kind is OperandKind.IDENT:
            return line.pending[slot] is PendFlag.TRUE
        if o.kind is OperandKind.ADDRESS and o.addr in self.lines and o.addr != line.address:
            return self.subtree_pending(o.addr)
        return False

    def slot_raw_pending(self, line: ExtendedLine, slot: int) -> bool:
        """The slot still holds an unbound pending leaf."""
        o = line.slot(slot)
        if o.kind is OperandKind.IDENT:
            return line.pending[slot] is PendFlag.TRUE
        if o.kind is OperandKind.ADDRESS and o.addr in self.lines and o.addr != line.address:
            return self.subtree_raw_pending(o.addr)
        return False

    def subtree_pending(self, addr: Address) -> bool:
        """A subtree is pending while it wants its value written from above.

        A forward binding computes its own value; a reverse binding solves
        itself only once a consumer supplies that value, so it stays pending.
        """
        ln = self.lines[addr]
        if ln.is_user_bound:
            return ln.bound_reverse
        return self._walk_pending(addr, self.subtree_pending)

    def subtree_raw_pending(self, addr: Address) -> bool:
        """Like subtree_pending, but any user binding settles the subtree."""
        ln = self.lines[addr]
        if ln.is_user_bound:
            return False
        return self._walk_pending(addr, self.subtree_raw_pending)

    def _walk_pending(self, addr: Address, recurse) -> bool:
        ln = self.lines[addr]
        for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
            o = ln.slot(s)
            if o.kind is OperandKind.IDENT and ln.pending[s] is PendFlag.TRUE:
                return True
            if (
                s is not SLOT_RESULT
                and o.kind is OperandKind.ADDRESS
                and o.addr in self.lines
                and o.addr != addr
                and recurse(o.addr)
            ):
                return True
        return False

    # --- builtin prebinding ---

    def _slot_determined(self, line: ExtendedLine, slot: int) -> bool:
        o = line.slot(slot)
        if o.is_empty:
            return True
        if o.kind in (OperandKind.NUMBER, OperandKind.TEXT):
            return True
        if o.kind is OperandKind.IDENT:
            return line.pending[slot] is not PendFlag.TRUE
        if o.kind is OperandKind.ADDRESS:
            if o.addr not in self.lines or o.addr == line.address:
                return True  # out-of-segment value
            child = self.lines[o.addr]
            if child.bound is None:
                return False
            # a reverse-bound child is a solve target, not a readable value
            return not self.subtree_pending(o.addr)
        return True

    def try_prebind(self, addr: Address) -> bool:
        ln = self.lines[addr]
        if ln.bound is not None or ln.ctype is not CodeType.EXPR:
            return False
        op = ln.op.text
        if op not in PREBIND_OPS:
            return False
        if op == "=":
            ok = self._slot_determined(ln, SLOT_LEFT)
        elif op == "-->":
            ok = self._slot_determined(ln, SLOT_LEFT)
        else:
            ok = self._slot_determined(ln, SLOT_LEFT) and self._slot_determined(
                ln, SLOT_RIGHT
            )
        if ok:
            ln = self.own(addr)
            ln.bound = BUILTIN
            ln.root = True
        return ok

    def prebind_builtins(self, addrs: Optional[list[Address]] = None) -> None:
        """Bind builtin operators whose operands are determined, children first."""
        todo = addrs if addrs is not None else self.order()
        for a in sorted(todo):
            self.try_prebind(a)

    def fully_bound(self) -> bool:
        return all(ln.bound is not None for ln in self.lines.values())

    # --- cleanup after rewrites ---

    def repair_detached(self) -> list[Address]:
        """Drop lines unreachable from the root; returns what was removed."""
        keep = set(self.subtree(self.root))
        removed = [a for a in self.lines if a not in keep]
        self._drop(removed)
        return removed

    def expand_rings(self) -> None:
        """Tree-ify shared branches: every extra reference gets its own copy."""
        seen: set[Address] = set()

        def walk(a: Address) -> None:
            seen.add(a)
            ln = self.lines[a]
            for s in (SLOT_LEFT, SLOT_RIGHT):
                c = self.child_addr(ln.slot(s))
                if c is None or c == a:
                    continue
                if c in seen:
                    dup = self.copy_subtree(c)
                    ln = self.own(a)
                    ln.set_slot(s, Operand.address(dup))
                    walk(dup)
                else:
                    walk(c)

        walk(self.root)

    def replace_branch(self, old: Address, new: Operand, pending: bool) -> None:
        """Put new where the branch rooted at old stood, drop the lines that
        came loose and expand the rings the new branch brought in."""
        if old == self.root:
            self.root = new.addr
        else:
            # a result slot is a parent link too (`ans = <chain>`), but a
            # line's result naming itself is not
            parents = [
                a
                for a, ln in self.lines.items()
                if a != old
                and any(
                    o.kind is OperandKind.ADDRESS and o.addr == old
                    for o in (ln.left, ln.right, ln.result)
                )
            ]
            for a in parents:
                ln = self.own(a)
                for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
                    o = ln.slot(s)
                    if o.kind is OperandKind.ADDRESS and o.addr == old:
                        ln.set_slot(s, new)
                        if new.kind is OperandKind.IDENT:
                            ln.pending[s] = (
                                PendFlag.TRUE if pending else PendFlag.FALSE
                            )
        self.repair_detached()
        self.expand_rings()

    def copy_subtree(self, addr: Address) -> Address:
        """Deep copy a subtree into fresh staging addresses; returns new root."""
        mapping: dict[Address, Address] = {}

        def walk(a: Address) -> Address:
            if a in mapping:
                return mapping[a]
            new_addr = self.fresh_address()
            mapping[a] = new_addr
            src = self.lines[a]
            cp = src.copy()
            cp.address = new_addr
            for s in (SLOT_LEFT, SLOT_RIGHT):
                c = self.child_addr(src.slot(s))
                if c is not None and c != a:
                    cp.set_slot(s, Operand.address(walk(c)))
            if (
                src.result.kind is OperandKind.ADDRESS
                and src.result.addr == src.address
            ):
                cp.result = Operand.address(new_addr)
            self.add_line(cp)
            return new_addr

        return walk(addr)

    # --- canonical digests ---

    def digest(self, include_bindings: bool = True) -> tuple:
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
            row = (ln.ctype._value_, ln.op.text, tuple(slots))
            if include_bindings:
                bound = ln.bound
                row = row + ("-" if bound is None else bound, ln.root)
            rows.append(row)
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
            self.own(a)
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
        alloc = Allocator(tables.code.addresses())
        lo = self.prev_addr
        hi = self.terminator
        new_addrs = alloc.run_between(lo, hi, len(order))
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
        for el in tables.code.lines():
            if el.address in mapping.values():
                continue
            for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
                o = el.slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr in stale:
                    el.set_slot(s, Operand.address(mapping.get(o.addr, new_root)))
        return mapping


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
