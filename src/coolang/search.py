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


def apply_exp_rewrite(
    segment: Segment, match: Match, tables: Tables
) -> Optional[list[Address]]:
    """Replace the matched branch with the rule's instantiated result.

    Returns the staged addresses of the new lines, or None when the rewrite
    cannot stand in for the branch (the whole statement reduced to a leaf).
    """
    fn = match.fn
    ret_line = tables.code[fn.returns[0]]
    body = tables.scopes[fn.body_scope]

    mapping: dict[Address, Address] = {}
    new_addrs: list[Address] = []
    for src in tables.code.between(body.start, ret_line.address):
        if src.ctype is not CodeType.EXPR:
            continue
        staged = segment.fresh_address()
        mapping[src.address] = staged
        cp = src.copy()
        cp.address = staged
        cp.bound = None
        cp.root = False
        for s in (SLOT_LEFT, SLOT_RIGHT, SLOT_RESULT):
            o = src.slot(s)
            cp.formal[s] = False
            if o.kind is OperandKind.ADDRESS:
                if o.addr == src.address:
                    cp.set_slot(s, Operand.address(staged))
                elif o.addr in mapping:
                    cp.set_slot(s, Operand.address(mapping[o.addr]))
            elif o.kind is OperandKind.IDENT:
                bv = match.bindings.get(split_markers(o.text)[0])
                if bv is not None:
                    cp.set_slot(s, bv.operand)
                    if bv.operand.kind is OperandKind.IDENT:
                        cp.pending[s] = (
                            PendFlag.TRUE if bv.pending else PendFlag.FALSE
                        )
                    else:
                        cp.pending[s] = PendFlag.FALSE
        segment.add_line(cp)
        new_addrs.append(staged)

    # what the rule's return stands for
    ro = ret_line.left
    root_pending = False
    if ro.kind is OperandKind.ADDRESS:
        root_operand = Operand.address(mapping[ro.addr])
    elif ro.kind is OperandKind.IDENT:
        bv = match.bindings.get(split_markers(ro.text)[0])
        if bv is None:
            return None
        root_operand = bv.operand
        root_pending = bv.pending and bv.operand.kind is OperandKind.IDENT
    else:
        root_operand = ro

    if match.root == segment.root and segment.child_addr(root_operand) is None:
        return None  # a bare value cannot replace the statement
    segment.replace_branch(match.root, root_operand, root_pending)
    segment.prebind_builtins(sorted(a for a in new_addrs if a in segment.lines))
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

    rnd = 0
    for rnd in range(1, opts.max_rounds + 1):
        nxt = Silo(opts.silo_size)
        for w, seg in silo.entries():
            branches = [a for a in seg.subtree(seg.root) if seg[a].bound is None]
            for branch in branches:
                line = seg[branch]
                for fn in candidate_functions(tables, ctx, line, reachable):
                    m = match_branch(seg, branch, fn, ctx)
                    if m is None:
                        continue
                    cand = seg.copy()
                    if fn.is_exp:
                        if apply_exp_rewrite(cand, m, tables) is None:
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
            )
        silo = nxt

    raise InferenceFailure(
        "round limit reached before the expression was fully bound",
        address=stmt_addr,
        rounds=rnd,
        silo=tuple((w, s.digest()) for w, s in silo.entries()),
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
