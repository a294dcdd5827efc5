"""Reference implementations that tests compare the toolchain against.

Each is the plain, slow form of a fact the toolchain computes another
way: the class order as a depth-first walk, and the whole-segment
cleanups and arithmetic that the search's incremental repair must agree
with.
"""

from __future__ import annotations

from typing import Callable, Optional

from coolang.addresses import Address
from coolang.code import SLOT_LEFT, SLOT_RIGHT, OperandKind, Tables
from coolang.segments import Segment


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
