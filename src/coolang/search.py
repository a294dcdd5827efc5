"""Bounded weight-accumulating search that binds one longest expression.

Candidates live in two silos: the current round's survivors and the next
round's offers. Each survivor is expanded branch by branch against the
reachable declarations with the branch's root operator; a value match
stamps the matched lines with the function's address, a rewrite match
replaces them with the rule's result expression. Weights add along the way
and the first fully bound candidate wins. Empty silos or the round limit
raise an inference failure.

A move too light for the next silo is built only when it might finish the
search (may_finish), since the silo would refuse it anyway. Known not to
finish are: a move that leaves an unbound line it neither reaches nor
drops, a rewrite that makes a line no prebind can bind (an operator
outside PREBIND_OPS, or a pending actual in a slot the prebind reads),
and a reverse match whose solved state climbs to an unbound line that
cannot prebind over it. Match results are kept for the whole search,
keyed by what a match reads (MatchMemo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .addresses import Address
from .code import (
    SLOT_LEFT,
    SLOT_RESULT,
    SLOT_RIGHT,
    VALUE_SLOTS,
    CodeType,
    ExtendedLine,
    FunctionInfo,
    Operand,
    OperandKind,
    PendFlag,
    Tables,
    split_markers,
)
from .errors import InferenceFailure
from .matching import BindContext, Match, match_branch, pattern_reads
from .segments import PREBIND_OPS, Segment
from .silo import Silo

Observer = Callable[[int, float, Segment], None]


@dataclass
class SearchOptions:
    silo_size: int = 64
    max_rounds: int = 16
    max_tree_nodes: int = 8  # dependency-tree cap during derivation


@dataclass
class BindOutcome:
    weight: float
    rounds: int
    segment: Segment


class Declarations:
    """Every declaration, grouped once by the operator at its pattern root.

    Declarations do not change during preexecute (derivation only fills in
    a body), so one index built before the walk serves every search of it.
    """

    def __init__(self, tables: Tables):
        self.tables = tables
        # scope -> root operator -> what the scope offers, in order: its own
        # declarations, or for a class its members, own before inherited
        self._groups: dict[Optional[Address], dict[str, list[FunctionInfo]]] = {}
        self._named: dict[Optional[str], list[FunctionInfo]] = {}
        self.by_decl: dict[Address, FunctionInfo] = {}
        self._patterns: dict[Address, tuple[int, bool, bool]] = {}
        own: dict[Optional[Address], dict[str, list[FunctionInfo]]] = {}
        for fop in sorted(tables.functions):
            fn = tables.functions[fop]
            op = tables.code[fn.decl_root].op.text
            self._groups.setdefault(tables.code[fop].scope, {}).setdefault(op, []).append(fn)
            own.setdefault(fn.class_scope, {}).setdefault(op, []).append(fn)
            self._named.setdefault(fn.name, []).append(fn)
            self.by_decl.setdefault(fn.decl_scope, fn)
        # tables.classes lists parents first, so their groups are done
        for cls, info in tables.classes.items():
            groups = self._groups[cls] = own.get(cls, {})
            for p in info.parents:
                for op, fns in self._groups[p].items():
                    mine = groups.setdefault(op, [])
                    # a member reached through two parents keeps its first place
                    known = {fn.func_op for fn in mine}
                    mine.extend(fn for fn in fns if fn.func_op not in known)

    def candidates(self, op: str, ctx: BindContext, before: Address) -> list[FunctionInfo]:
        """What a branch with root operator op may align with: for a member
        call `r.f`, the members `f` of r's class; otherwise the declarations
        of op before the statement's address, nearest scope first."""
        if not op:
            return []
        if "." in op:
            receiver, fname = op.rsplit(".", 1)
            cls = ctx.instance_class(receiver)
            if cls is None:
                return []
            groups = self._groups[cls]
            if op in groups:  # members whose pattern root is the dotted call itself
                order = self.tables.class_order(cls)
                found = groups.get(fname, []) + groups[op]
                return sorted(found, key=lambda fn: (order.index(fn.class_scope), fn.func_op))
            return groups.get(fname, [])
        out: list[FunctionInfo] = []
        seen: set[Address] = set()
        for s in self.tables.scope_chain(ctx.stmt_scope) + [None]:
            for fn in self._groups.get(s, {}).get(op, ()):
                # a function declared in a method body is also a class member
                if fn.func_op < before and fn.func_op not in seen:
                    seen.add(fn.func_op)
                    out.append(fn)
        return out

    def pattern(self, fn: FunctionInfo) -> tuple[int, bool, bool]:
        """fn's matching.pattern_reads, made on first use; preexecute never
        binds a declaration's pattern, so it holds for the whole walk."""
        found = self._patterns.get(fn.func_op)
        if found is None:
            found = self._patterns[fn.func_op] = pattern_reads(self.tables, fn)
        return found

    def group(
        self, op: str, ctx: BindContext, before: Address
    ) -> tuple[list[FunctionInfo], tuple[bool, bool]]:
        """The candidates for op, and per value slot whether one of them
        reads the whole subtree there (matching.pattern_reads)."""
        fns = self.candidates(op, ctx, before)
        left = right = False
        for fn in fns:
            _, reads_left, reads_right = self.pattern(fn)
            left, right = left or reads_left, right or reads_right
        return fns, (left, right)

    def forward(self, name: str, before: Address) -> Optional[FunctionInfo]:
        """The last forward declaration named name with a body before an address."""
        for fn in reversed(self._named.get(name, ())):
            forward = not (fn.is_exp or fn.is_reverse) and fn.body_scope is not None
            if forward and fn.func_op < before:
                return fn
        return None


def _fact(seg: Segment, ln: ExtendedLine, o: Operand, whole: bool):
    """What a match reads of the value slot of ln that holds o: None when
    the line alone fills it, else the child's Version if whole, or else the
    child's pending state."""
    c = o.addr
    if o.kind is not OperandKind.ADDRESS or c == ln.address or c not in seg.lines:
        return None
    v = seg.versions[c]
    if whole:
        return v
    return seg.subtree_state(c) if v.state is None else v.state


class MatchMemo:
    """One search's match results, keyed by what a match reads (see matching).

    Copy-on-write makes an unchanged line object an unchanged row, and an
    unchanged Version an unchanged subtree. So the key is the branch
    line's id and, per value slot, the child's pending state or, where a
    declaration of the group reads the whole subtree there, its Version
    (None where the line alone fills the slot). An entry holds its line,
    so no other object takes that id while the memo lives.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[ExtendedLine, dict]] = {}

    def entry(self, seg: Segment, ln: ExtendedLine, whole: tuple[bool, bool]) -> dict:
        """The results at the branch whose line is ln, by the declaration's
        func_op (a Match or None); whole says, per value slot, whether a
        declaration that may ask reads the whole subtree there."""
        key = (id(ln), _fact(seg, ln, ln.left, whole[0]), _fact(seg, ln, ln.right, whole[1]))
        hit = self._entries.get(key)
        if hit is None or hit[0] is not ln:
            hit = self._entries[key] = (ln, {})
        return hit[1]


def apply_value_match(segment: Segment, match: Match) -> None:
    for a in match.matched:
        # claiming a previously prebound line also revokes its root flag
        ln = segment.own(a)
        ln.bound = match.fn.func_op
        ln.bound_reverse = match.fn.is_reverse
        ln.root = a == match.root


class RulePlan(NamedTuple):
    """What a rewrite rule's result is made of.

    lines are the body lines the result reaches, in body order, each with
    its links, (slot, i) for a slot that names the i-th of these lines
    (itself included), and the one of them that consumes it (None for the
    top line). uses are the formal occurrences in these lines as (i, slot,
    formal), in the order a walk from the result meets them: slots left,
    right, result, depth first. result is the top line's index, or the
    formal or the plain value the result stands for. reached holds the
    formals the result reaches: a rewrite keeps their actuals and drops
    the others.
    """

    lines: tuple[tuple[ExtendedLine, tuple[tuple[int, int], ...], Optional[int]], ...]
    uses: tuple[tuple[int, int, str], ...]
    result: int | str | Operand
    reached: frozenset[str]


def rule_plan(tables: Tables, fn: FunctionInfo) -> RulePlan:
    """fn's rule plan, made on first use and kept in tables.rule_plans.

    A plan is kept once the lines it copies are bound: preexecute binds a
    rule's body before any statement after it and never binds a bound run
    again. Until then (a rule applied inside its own body, or a table not
    yet preexecuted) a binding may still rewrite the body, so the plan is
    made afresh.
    """
    plan = tables.rule_plans.get(fn.func_op)
    if plan is not None:
        return plan
    ret_line = tables.code[fn.returns[0]]
    body = {
        ln.address: ln
        for ln in tables.code.between(tables.scopes[fn.body_scope].start, ret_line.address)
        if ln.ctype is CodeType.EXPR
    }
    ro = ret_line.left
    consumer: dict[Address, Optional[Address]] = {}
    uses: list[tuple[Address, int, str]] = []
    if ro.kind is OperandKind.ADDRESS:
        # an expression is a tree, so each line the walk reaches has one
        # consumer; a body bound by a rewrite may hold a line before the
        # lines it reads
        consumer[ro.addr] = None
        stack = [(ro.addr, iter(VALUE_SLOTS))]
        while stack:
            a, slots = stack[-1]
            for s in slots:
                o = body[a].slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr in body and o.addr not in consumer:
                    consumer[o.addr] = a
                    stack.append((o.addr, iter(VALUE_SLOTS)))
                    break
                if o.kind is OperandKind.IDENT:
                    uses.append((a, s, split_markers(o.text)[0]))
            else:
                stack.pop()
    at = {a: i for i, a in enumerate(sorted(consumer))}
    if ro.kind is OperandKind.ADDRESS:
        result = at[ro.addr]
    else:
        result = split_markers(ro.text)[0] if ro.kind is OperandKind.IDENT else ro
    plan = RulePlan(
        lines=tuple(
            (
                body[a],
                tuple((s, at[t]) for s in VALUE_SLOTS if (t := body[a].slot(s).addr) in at),
                None if consumer[a] is None else at[consumer[a]],
            )
            for a in at
        ),
        uses=tuple((at[a], s, f) for a, s, f in uses),
        result=result,
        reached=frozenset([result] if isinstance(result, str) else [f for *_, f in uses]),
    )
    if all(src.bound is not None for src, _, _ in plan.lines):
        tables.rule_plans[fn.func_op] = plan
    return plan


def unbound_above(seg: Segment, walk: list[Address]) -> dict[Address, int]:
    """For each line of walk, a children-first walk from the root, the
    number of unbound lines on its path to the root, itself excluded."""
    lines, versions = seg.lines, seg.versions
    above: dict[Address, int] = {}
    for a in reversed(walk):
        p = versions[a].parent
        above[a] = 0 if p is None else above[p] + (lines[p].bound is None)
    return above


def _prebind_reads(op: str) -> tuple[int, ...]:
    """The value slots Segment.try_prebind reads on a line with operator op."""
    return (SLOT_LEFT,) if op == "=" or op == "-->" else (SLOT_LEFT, SLOT_RIGHT)


def _new_line_stays_unbound(plan: RulePlan, m: Match) -> bool:
    """Whether a line the rewrite m makes with plan can never prebind."""
    made = plan.lines
    if any(src.op.text not in PREBIND_OPS for src, _, _ in made):
        return True
    for i, s, f in plan.uses:
        bv = m.bindings.get(f)
        if bv is not None and bv.pending and s in _prebind_reads(made[i][0].op.text):
            return True
    return False


def _solved_root_stays_awaited(seg: Segment, root: Address) -> bool:
    """Whether the AWAITING state of a reverse binding at root keeps the
    nearest unbound line above it from prebinding."""
    lines, versions = seg.lines, seg.versions
    c, p = root, versions[root].parent
    while p is not None:
        ln = lines[p]
        if ln.left.kind is OperandKind.ADDRESS and ln.left.addr == c:
            s = SLOT_LEFT
        elif ln.right.kind is OperandKind.ADDRESS and ln.right.addr == c:
            s = SLOT_RIGHT
        else:
            return False  # a result slot passes no state up
        if ln.bound is None:
            op = ln.op.text
            return ln.ctype is not CodeType.EXPR or op not in PREBIND_OPS or s in _prebind_reads(op)
        if ln.is_user_bound and not ln.bound_reverse:
            return False  # a computing binding leaves its subtree SETTLED
        c, p = p, versions[p].parent
    return False


def may_finish(
    seg: Segment, m: Match, above: int, unbound: int, plan: Optional[RulePlan]
) -> bool:
    """False only when the move m on the entry seg cannot leave it fully bound.

    above counts the unbound lines on the path from m's branch to the root,
    the branch excluded, and unbound the unbound lines of seg. plan is None
    for a value match and, for a rewrite, its rule's plan (rule_plan).

    Why False is safe: take an unbound line of seg that is not on that
    path, not among the matched lines and not inside an operand the
    rewrite drops. The move does not write that line and does not drop it.
    The prebind never visits it either, because it starts from the lines
    the move owns and their parents, and climbs only from lines that bind:
    what it visits lies on the path, among the rule's new lines or among
    the copies a rewrite makes of an operand it uses twice. So the line
    stays unbound, whatever the entry's own prebind left undone. Hence a
    move whose path and matched lines miss an unbound line cannot finish,
    unless a rewrite drops an operand: that is a child hanging off the
    matched lines that is not the actual of a formal the result reaches,
    and then unbound lines may go with it.

    Two more refusals hold whatever the counts say, because the prebind
    cannot bind a line the move leaves:
    - A rewrite whose plan makes a line that cannot prebind. The new lines
      start unbound, all stay under the result, and only the prebind can
      bind them. It never binds an operator outside PREBIND_OPS, nor a
      line where a slot it reads (left, and right unless the operator is
      `=` or `-->`) holds a pending actual: an identifier keeps its TRUE
      flag and a subtree keeps its state, since the rewrite moves or
      copies the actual whole and binding changes no pending state.
    - A reverse value match whose solved state stops the line above. The
      solved root is AWAITING after the move, and a bound builtin or
      reverse line takes the larger state of its left and right children,
      so the state climbs each left or right edge until a forward binding,
      which is SETTLED. The move writes nothing above its root. So when
      the first unbound line of that climb is no prebind builtin, or reads
      the climbed child through a slot the prebind reads, it stays unbound.
    """
    if plan is None:
        if m.fn.is_reverse and _solved_root_stays_awaited(seg, m.root):
            return False
    elif plan.lines and _new_line_stays_unbound(plan, m):
        return False
    lines = seg.lines
    if above + sum(lines[a].bound is None for a in m.matched) == unbound:
        return True
    if plan is None:
        return False
    kept = {
        bv.operand.addr
        for f, bv in m.bindings.items()
        if f in plan.reached and bv.operand.kind is OperandKind.ADDRESS
    }
    gone = set(m.matched)
    return any(c not in gone and c not in kept for a in m.matched for c in seg.children(a))


def apply_exp_rewrite(segment: Segment, match: Match, tables: Tables) -> Optional[list[Address]]:
    """Replace the matched branch with the rule's instantiated result.

    Only the body lines the result reaches are made, each under the line
    that consumes it. An actual hangs under its first use in the plan's
    walk order, and each later use gets a copy of it. Returns the staged
    addresses of the new lines, or None when the rewrite cannot stand in
    for the branch (the whole statement reduced to a leaf).
    """
    plan = rule_plan(tables, match.fn)
    bindings = match.bindings
    # the new lines take staging addresses in body order, the copies after them
    new_addrs = [segment.fresh_address() for _ in plan.lines]
    made: list[ExtendedLine] = []
    for (src, links, consumer), staged in zip(plan.lines, new_addrs):
        cp = src.copy()
        cp.address = staged
        cp.bound = None
        cp.root = False
        cp.formal[SLOT_LEFT] = cp.formal[SLOT_RIGHT] = cp.formal[SLOT_RESULT] = False
        for s, i in links:
            cp.set_slot(s, Operand.address(new_addrs[i]))
        segment.add_line(cp, None if consumer is None else new_addrs[consumer])
        made.append(cp)
    kept: set[Address] = set()
    for i, s, formal in plan.uses:
        bv = bindings.get(formal)
        if bv is None:
            continue
        cp = made[i]
        pending = bv.pending and bv.operand.kind is OperandKind.IDENT
        cp.pending[s] = PendFlag.TRUE if pending else PendFlag.FALSE
        a = segment.child_addr(bv.operand)
        if a in kept:
            a = segment.copy_subtree(a)
            cp.set_slot(s, Operand.address(a))
        else:
            cp.set_slot(s, bv.operand)
            if a is None:
                continue
            kept.add(a)
        segment.reparent(a, new_addrs[i])

    # what the rule's return stands for
    pending = False
    if isinstance(plan.result, int):
        new = Operand.address(new_addrs[plan.result])
    elif isinstance(plan.result, str):
        bv = bindings.get(plan.result)
        if bv is None:
            return None
        new = bv.operand
        pending = bv.pending and new.kind is OperandKind.IDENT
    else:
        new = plan.result
    if match.root == segment.root and segment.child_addr(new) is None:
        return None  # a bare value cannot replace the statement
    segment.replace_branch(match.root, match.matched, new, pending, kept)
    return new_addrs


def search_segment(
    tables: Tables,
    seg0: Segment,
    ctx: BindContext,
    stmt_addr: Address,
    options: Optional[SearchOptions] = None,
    observer: Optional[Observer] = None,
) -> BindOutcome:
    """Run the silo search over a prepared segment until it is fully bound."""
    opts = options or SearchOptions()
    if seg0.fully_bound():
        return BindOutcome(weight=0.0, rounds=0, segment=seg0)

    silo = Silo(opts.silo_size)
    silo.offer(0.0, seg0.digest(), seg0)
    # root operator -> its declarations, and per value slot whether one of
    # them reads the whole subtree there
    groups: dict[str, tuple[list[FunctionInfo], tuple[bool, bool]]] = {}
    memo = MatchMemo()

    rnd = 0
    for rnd in range(1, opts.max_rounds + 1):
        nxt = Silo(opts.silo_size)
        for w, seg in silo.entries():
            walk = seg.subtree(seg.root)
            lines = seg.lines
            branches = [a for a in walk if lines[a].bound is None]
            above = None  # made when the floor first refuses a move here
            for branch in branches:
                ln = lines[branch]
                op = ln.op.text
                group = groups.get(op)
                if group is None:
                    group = groups[op] = ctx.declarations.group(op, ctx, stmt_addr)
                fns, whole = group
                if not fns:
                    continue
                found = memo.entry(seg, ln, whole)
                for fn in fns:
                    key = fn.func_op
                    if key in found:
                        m = found[key]
                    else:
                        m = found[key] = match_branch(seg, branch, fn, ctx)
                    if m is None:
                        continue
                    w2 = w + fn.weight
                    # the next silo refuses this weight for the rest of the
                    # round (see Silo), so such a move counts only if it ends it
                    if not nxt.admits(w2):
                        if above is None:
                            above = unbound_above(seg, walk)
                        plan = rule_plan(tables, fn) if fn.is_exp else None
                        if not may_finish(seg, m, above[branch], len(branches), plan):
                            continue
                    cand = seg.copy()
                    if fn.is_exp:
                        if apply_exp_rewrite(cand, m, tables) is None:
                            continue
                    else:
                        apply_value_match(cand, m)
                    # subtrees this step settled may free builtins above them
                    cand.prebind_builtins()
                    if observer is not None:
                        observer(rnd, w2, cand)
                    if cand.fully_bound():
                        return BindOutcome(weight=w2, rounds=rnd, segment=cand)
                    # what the weight floor refuses needs no digest (see Silo)
                    if nxt.admits(w2):
                        nxt.offer(w2, cand.digest(), cand)
        if not nxt:
            raise InferenceFailure(
                "no declaration binds the expression",
                address=stmt_addr,
                rounds=rnd,
                silo=tuple((w, s.digest()) for w, s in silo.entries()),
                left=0,
            )
        silo = nxt

    raise InferenceFailure(
        "round limit reached before the expression was fully bound",
        address=stmt_addr,
        rounds=rnd,
        silo=tuple((w, s.digest()) for w, s in silo.entries()),
        left=len(silo),
    )


def bind_expression(
    tables: Tables,
    run: list[ExtendedLine],
    ctx: BindContext,
    options: Optional[SearchOptions] = None,
    observer: Optional[Observer] = None,
) -> BindOutcome:
    """Bind one longest expression and splice the result into the table."""
    seg0 = Segment.from_run(tables, run)
    outcome = search_segment(
        tables, seg0, ctx, run[0].address, options=options, observer=observer
    )
    outcome.segment.splice(tables, [el.address for el in run])
    return outcome
