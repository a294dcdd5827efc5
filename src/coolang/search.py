"""Bounded weight-accumulating search that binds one longest expression.

Candidates live in two silos: the current round's survivors and the next
round's offers. Each survivor is expanded branch by branch against every
reachable declaration; a value match stamps the matched lines with the
function's address, a rewrite match replaces them with the rule's result
expression. Weights add along the way and the first fully bound candidate
wins. Empty silos or the round limit raise an inference failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .addresses import Address
from .code import (
    SLOT_LEFT,
    SLOT_RESULT,
    SLOT_RIGHT,
    CodeType,
    ExtendedLine,
    FunctionInfo,
    Operand,
    OperandKind,
    PendFlag,
    ScopeKind,
    Tables,
    split_markers,
)
from .errors import InferenceFailure
from .matching import BindContext, Match, match_branch, member_functions
from .segments import Segment
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
    mapping: dict[Address, Address] = field(default_factory=dict)


def functions_in_scope(tables: Tables, scope: Optional[Address]) -> list[FunctionInfo]:
    fns = [
        f
        for f in tables.functions.values()
        if tables.code[f.func_op].scope == scope
    ]
    fns.sort(key=lambda f: f.func_op)
    return fns


def accessible_functions(
    tables: Tables, stmt_scope: Optional[Address], stmt_addr: Address
) -> list[FunctionInfo]:
    """Declarations reachable from a statement, nearest scope first.

    Only declarations that precede the statement count. Class scopes on the
    chain contribute their members, own before inherited.
    """
    out: list[FunctionInfo] = []
    seen: set[Address] = set()

    def add(fn: FunctionInfo) -> None:
        if fn.func_op in seen or not fn.func_op < stmt_addr:
            return
        seen.add(fn.func_op)
        out.append(fn)

    for s in tables.scope_chain(stmt_scope):
        if tables.scopes[s].kind is ScopeKind.CLASS:
            for fn in member_functions(tables, s):
                add(fn)
        else:
            for fn in functions_in_scope(tables, s):
                add(fn)
    for fn in functions_in_scope(tables, None):
        add(fn)
    return out


def candidate_functions(
    tables: Tables,
    ctx: BindContext,
    line: ExtendedLine,
    reachable: list[FunctionInfo],
) -> list[FunctionInfo]:
    """Declarations that may bind the line: the receiver's class members for
    a member call, otherwise `reachable`, the statement's accessible ones."""
    op = line.op.text
    if not op:
        return []
    if "." in op:
        # member call: only the receiver's class can supply the function
        cls = ctx.instance_class(op.rsplit(".", 1)[0])
        if cls is None:
            return []
        return member_functions(tables, cls)
    return reachable


def apply_value_match(segment: Segment, match: Match) -> None:
    for a in match.matched:
        # claiming a previously prebound line also revokes its root flag
        ln = segment.own(a)
        ln.bound = match.fn.func_op
        ln.bound_reverse = match.fn.is_reverse
        ln.root = a == match.root


# what fills a slot of a rule's instantiated line
_SELF, _LINE, _FORMAL, _VALUE = range(4)

RulePlan = tuple[list[tuple[ExtendedLine, tuple]], tuple]


def rule_plan(tables: Tables, fn: FunctionInfo) -> RulePlan:
    """A rewrite rule's instantiation plan.

    The body is the rule's expression lines up to the return, each with
    what fills its slots: the line itself, the i-th body line before it, or
    the actual bound to a formal. The return says which of these, or which
    plain value, the rule's result stands for.
    """
    ret_line = tables.code[fn.returns[0]]
    body = tables.scopes[fn.body_scope]
    index: dict[Address, int] = {}
    lines: list[tuple[ExtendedLine, tuple]] = []
    for src in tables.code.between(body.start, ret_line.address):
        if src.ctype is not CodeType.EXPR:
            continue
        fills = []
        for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
            o = src.slot(s)
            if o.kind is OperandKind.ADDRESS:
                if o.addr == src.address:
                    fills.append((s, _SELF, None))
                elif o.addr in index:
                    fills.append((s, _LINE, index[o.addr]))
            elif o.kind is OperandKind.IDENT:
                fills.append((s, _FORMAL, split_markers(o.text)[0]))
        index[src.address] = len(lines)
        lines.append((src, tuple(fills)))
    ro = ret_line.left
    if ro.kind is OperandKind.ADDRESS:
        ret = (_LINE, index[ro.addr])
    elif ro.kind is OperandKind.IDENT:
        ret = (_FORMAL, split_markers(ro.text)[0])
    else:
        ret = (_VALUE, ro)
    return lines, ret


def apply_exp_rewrite(
    segment: Segment,
    match: Match,
    tables: Tables,
    plans: Optional[dict[Address, RulePlan]] = None,
) -> Optional[list[Address]]:
    """Replace the matched branch with the rule's instantiated result.

    Returns the staged addresses of the new lines, or None when the rewrite
    cannot stand in for the branch (the whole statement reduced to a leaf).
    plans keeps each rule's plan for the rest of a search.
    """
    fn = match.fn
    plan = plans.get(fn.func_op) if plans is not None else None
    if plan is None:
        plan = rule_plan(tables, fn)
        if plans is not None:
            plans[fn.func_op] = plan
    body, (ret_kind, ret_arg) = plan
    bindings = match.bindings

    new_addrs: list[Address] = []
    for src, fills in body:
        staged = segment.fresh_address()
        cp = src.copy()
        cp.address = staged
        cp.bound = None
        cp.root = False
        cp.formal[SLOT_LEFT] = cp.formal[SLOT_RIGHT] = cp.formal[SLOT_RESULT] = False
        for s, kind, arg in fills:
            if kind is _SELF:
                cp.set_slot(s, Operand.address(staged))
            elif kind is _LINE:
                cp.set_slot(s, Operand.address(new_addrs[arg]))
            else:
                bv = bindings.get(arg)
                if bv is not None:
                    cp.set_slot(s, bv.operand)
                    pending = bv.pending and bv.operand.kind is OperandKind.IDENT
                    cp.pending[s] = PendFlag.TRUE if pending else PendFlag.FALSE
        segment.add_line(cp)
        new_addrs.append(staged)

    # what the rule's return stands for
    root_pending = False
    if ret_kind is _LINE:
        root_operand = Operand.address(new_addrs[ret_arg])
    elif ret_kind is _FORMAL:
        bv = bindings.get(ret_arg)
        if bv is None:
            return None
        root_operand = bv.operand
        root_pending = bv.pending and bv.operand.kind is OperandKind.IDENT
    else:
        root_operand = ret_arg

    if match.root == segment.root and segment.child_addr(root_operand) is None:
        return None  # a bare value cannot replace the statement
    segment.replace_branch(
        match.root, match.matched, new_addrs, root_operand, root_pending
    )
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
    reachable = accessible_functions(tables, ctx.stmt_scope, stmt_addr)
    plans: dict[Address, RulePlan] = {}

    rnd = 0
    for rnd in range(1, opts.max_rounds + 1):
        nxt = Silo(opts.silo_size)
        for w, seg in silo.entries():
            seg.freeze()
            branches = [a for a in seg.subtree(seg.root) if seg[a].bound is None]
            for branch in branches:
                line = seg[branch]
                memo = seg.matches(branch)
                for fn in candidate_functions(tables, ctx, line, reachable):
                    key = fn.func_op
                    if key in memo:
                        m = memo[key]
                    else:
                        m = memo[key] = match_branch(seg, branch, fn, ctx)
                    if m is None:
                        continue
                    cand = seg.copy()
                    if fn.is_exp:
                        if apply_exp_rewrite(cand, m, tables, plans) is None:
                            continue
                    else:
                        apply_value_match(cand, m)
                    # subtrees this step settled may free builtins above them
                    cand.prebind_builtins()
                    w2 = w + fn.weight
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
    outcome.mapping = outcome.segment.splice(tables)
    return outcome
