"""Reference implementations that tests compare the toolchain against.

Each is the plain, slow form of a fact the toolchain computes another
way: the class order as a depth-first walk, the whole-segment cleanups
and arithmetic that the search's incremental repair must agree with, a
segment digest that rebuilds every row on every call, a splice that
walks the whole table for the rows that read a relocated run, a
rewrite that instantiates a rule's whole body and then runs those
cleanups, a silo search that builds every move it matches, a `.ccode`
reader that decodes every cell of every code row afresh and inserts the
rows one by one, and a name fuser that scans characters and recurses into
each group after scanning it for balance.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from coolang.addresses import Address
from coolang.code import (
    BUILTIN,
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
from coolang.errors import FormatError, InferenceFailure, LoadError, PrecompileError
from coolang.loader import index
from coolang.matching import BindContext, Match, match_branch
from coolang.precompile import ARG_MARKER, KEYWORDS, SourceUnit, _normalize
from coolang import search
from coolang.search import (
    BindOutcome,
    Observer,
    SearchOptions,
    apply_value_match,
    may_finish,
)
from coolang.segments import Segment
from coolang.serialize import (
    _CODE_TYPES,
    _MAGIC,
    _PEND_FLAGS,
    _dec_operand,
    _Memo,
)
from coolang.silo import Silo


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
    """Tree-ify shared branches: a walk from the root, children in slot
    order, gives a branch reached a second time a copy and hangs each
    branch under the line that keeps it."""
    lines = seg.lines
    seen = {seg.root}
    stack = [[seg.root, 0]]
    while stack:
        frame = stack[-1]
        a, i = frame
        if i == len(VALUE_SLOTS):
            stack.pop()
            continue
        frame[1] = i + 1
        s = VALUE_SLOTS[i]
        o = lines[a].slot(s)
        if o.kind is not OperandKind.ADDRESS or o.addr == a or o.addr not in lines:
            continue
        c = o.addr
        if c in seen:
            c = seg.copy_subtree(c)
            seg.own(a).set_slot(s, Operand.address(c))
        if seg.versions[c].parent != a:
            seg.reparent(c, a)
        seen.add(c)
        stack.append([c, 0])


def digest(seg: Segment) -> tuple:
    """Segment.digest as one pass over every line, with no row kept between
    calls: equal exactly for segments that differ only in the addresses of
    their lines."""
    lines = seg.lines
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
    rows.append(("root", index.get(seg.root, -1)))
    return tuple(rows)


def splice(seg: Segment, tables: Tables, original: list[Address]) -> dict[Address, Address]:
    """Segment.splice with a relocated run's readers found by walking every
    value slot of every row outside the run's new lines."""
    order = seg.order()
    for a in order:
        if a not in seg._private:
            seg.lines[a] = seg.lines[a].copy()
    if set(order) == set(original):
        for a in order:
            old = tables.code[a]
            staged = seg.lines[a]
            staged.scope = old.scope
            tables.code.remove(a)
            tables.code.insert(staged)
        return {}

    template = tables.code[original[0]]
    lo = tables.code.prev_before(original[0])
    hi = tables.code.next_after(original[-1])
    for a in original:
        tables.code.remove(a)
    run = [seg.lines[a] for a in order]
    for ln in run:
        ln.scope = template.scope
    new_addrs = tables.code.insert_run(run, lo, hi)
    mapping = dict(zip(order, new_addrs))

    new_root = mapping[seg.root]
    stale = set(original)
    fresh = set(new_addrs)
    for el in tables.code.lines():
        if el.address in fresh:
            continue
        for s in VALUE_SLOTS:
            o = el.slot(s)
            if o.kind is OperandKind.ADDRESS and o.addr in stale:
                el.set_slot(s, Operand.address(mapping.get(o.addr, new_root)))
    return mapping


def rule_plan(tables: Tables, fn: FunctionInfo) -> tuple[list, tuple, frozenset[str]]:
    """Every expression line of a rule's body up to the return, each with
    what fills its slots (the i-th body line, itself included, or a
    formal's actual); what the result stands for; and the formals read by
    the body lines the result reaches."""
    ret_line = tables.code[fn.returns[0]]
    body = tables.scopes[fn.body_scope]
    srcs = [
        ln for ln in tables.code.between(body.start, ret_line.address) if ln.ctype is CodeType.EXPR
    ]
    index = {src.address: i for i, src in enumerate(srcs)}
    lines: list[tuple[ExtendedLine, tuple]] = []
    for src in srcs:
        fills = []
        for s in VALUE_SLOTS:
            o = src.slot(s)
            if o.kind is OperandKind.ADDRESS and o.addr in index:
                fills.append((s, "line", index[o.addr]))
            elif o.kind is OperandKind.IDENT:
                fills.append((s, "formal", split_markers(o.text)[0]))
        lines.append((src, tuple(fills)))
    ro = ret_line.left
    if ro.kind is OperandKind.ADDRESS:
        ret = ("line", index[ro.addr])
    elif ro.kind is OperandKind.IDENT:
        ret = ("formal", split_markers(ro.text)[0])
    else:
        ret = ("value", ro)
    reached: set[str] = set()
    if ret[0] == "formal":
        reached.add(ret[1])
    elif ret[0] == "line":
        kept = {ret[1]}
        todo = [ret[1]]
        while todo:
            for _, kind, arg in lines[todo.pop()][1]:
                if kind == "line" and arg not in kept:
                    kept.add(arg)
                    todo.append(arg)
                elif kind == "formal":
                    reached.add(arg)
    return lines, ret, frozenset(reached)


def apply_exp_rewrite(segment: Segment, match: Match, tables: Tables) -> Optional[list[Address]]:
    """The rewrite that instantiates every body line, repoints the branch's
    parent at the result, then drops whatever the root no longer reaches
    and copies what it reaches twice, over the whole segment."""
    body, (ret_kind, ret_arg), _ = rule_plan(tables, match.fn)
    bindings = match.bindings
    new_addrs = [segment.fresh_address() for _ in body]
    for (src, fills), staged in zip(body, new_addrs):
        cp = src.copy()
        cp.address = staged
        cp.bound = None
        cp.root = False
        cp.formal[SLOT_LEFT] = cp.formal[SLOT_RIGHT] = cp.formal[SLOT_RESULT] = False
        for s, kind, arg in fills:
            if kind == "line":
                cp.set_slot(s, Operand.address(new_addrs[arg]))
            else:
                bv = bindings.get(arg)
                if bv is not None:
                    cp.set_slot(s, bv.operand)
                    pending = bv.pending and bv.operand.kind is OperandKind.IDENT
                    cp.pending[s] = PendFlag.TRUE if pending else PendFlag.FALSE
        segment.add_line(cp)

    pending = False
    if ret_kind == "line":
        new = Operand.address(new_addrs[ret_arg])
    elif ret_kind == "formal":
        bv = bindings.get(ret_arg)
        if bv is None:
            return None
        new = bv.operand
        pending = bv.pending and new.kind is OperandKind.IDENT
    else:
        new = ret_arg
    if match.root == segment.root and segment.child_addr(new) is None:
        return None

    parent = segment.versions[match.root].parent
    if parent is None:
        segment.root = new.addr
    else:
        ln = segment.own(parent)
        for s in VALUE_SLOTS:
            o = ln.slot(s)
            if o.kind is OperandKind.ADDRESS and o.addr == match.root:
                ln.set_slot(s, new)
                if new.kind is OperandKind.IDENT:
                    ln.pending[s] = PendFlag.TRUE if pending else PendFlag.FALSE
    repair_detached(segment)
    expand_rings(segment)
    return new_addrs


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


def _unbound_above(seg: Segment, addr: Address) -> int:
    """Unbound lines on the path from addr to the root, addr excluded."""
    n = 0
    p = seg.versions[addr].parent
    while p is not None:
        n += seg[p].bound is None
        p = seg.versions[p].parent
    return n


def search_segment(
    tables: Tables,
    seg0: Segment,
    ctx: BindContext,
    stmt_addr: Address,
    options: Optional[SearchOptions] = None,
    observer: Optional[Observer] = None,
) -> BindOutcome:
    """The silo search that builds every move before the silo weighs it.

    Checks that the move that finishes passes search.may_finish.
    """
    opts = options or SearchOptions()
    if seg0.fully_bound():
        return BindOutcome(weight=0.0, rounds=0, segment=seg0)

    silo = Silo(opts.silo_size)
    silo.offer(0.0, seg0.digest(), seg0)
    groups: dict[str, list[FunctionInfo]] = {}

    rnd = 0
    for rnd in range(1, opts.max_rounds + 1):
        nxt = Silo(opts.silo_size)
        for w, seg in silo.entries():
            branches = [a for a in seg.subtree(seg.root) if seg[a].bound is None]
            for branch in branches:
                op = seg[branch].op.text
                if op not in groups:
                    groups[op] = ctx.declarations.candidates(op, ctx, stmt_addr)
                for fn in groups[op]:
                    m = match_branch(seg, branch, fn, ctx)
                    if m is None:
                        continue
                    cand = seg.copy()
                    if fn.is_exp:
                        if search.apply_exp_rewrite(cand, m, tables) is None:
                            continue
                    else:
                        apply_value_match(cand, m)
                    # subtrees this step settled may free builtins above them
                    cand.prebind_builtins()
                    w2 = w + fn.weight
                    if observer is not None:
                        observer(rnd, w2, cand)
                    if cand.fully_bound():
                        plan = search.rule_plan(tables, fn) if fn.is_exp else None
                        above = _unbound_above(seg, branch)
                        assert may_finish(seg, m, above, len(branches), plan)
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


def _dec_line(row: str, addrs: _Memo) -> ExtendedLine:
    cols = row.split("\t")
    if len(cols) != 10:
        raise ValueError(f"{len(cols)} columns, wanted 10")
    kinds = cols[6].split(",")
    if len(kinds) != 4:
        raise ValueError("operand kinds must cover all four slots")
    if len(cols[7]) != 4:
        raise ValueError("pending flags must cover all four slots")
    if cols[8] == "-":
        bound = None
    elif cols[8] == "B":
        bound = BUILTIN
    else:
        bound = addrs[cols[8]]
    return ExtendedLine(
        address=addrs[cols[0]],
        scope=None,
        ctype=_CODE_TYPES[cols[1]],
        op=_dec_operand(kinds[0], cols[2], addrs),
        left=_dec_operand(kinds[1], cols[3], addrs),
        right=_dec_operand(kinds[2], cols[4], addrs),
        result=_dec_operand(kinds[3], cols[5], addrs),
        pending=[_PEND_FLAGS[c] for c in cols[7]],
        bound=bound,
        root=cols[9] == "T",
    )


def deserialize(text: str) -> Tables:
    """A `.ccode` text to tables, row by row and cell by cell."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise FormatError("not a code table file")
    header = lines[0][len(_MAGIC) :].strip()
    if header not in ("", "preexec"):
        raise FormatError(f"unknown header flags {header!r}")

    tables = Tables(preexecuted=header == "preexec")
    addrs = _Memo(Address.parse)
    for lineno, row in enumerate(lines[1:], 2):
        try:
            ln = _dec_line(row, addrs)
        except ValueError as exc:
            # bad shapes, addresses, flags, kinds and numbers
            raise FormatError(f"line {lineno}, code row: {exc}") from None
        if ln.address in tables.code:
            raise FormatError(f"address {ln.address} appears twice")
        tables.code.insert(ln)
    try:
        index(tables)
    except LoadError as exc:
        raise FormatError(str(exc)) from None
    return tables


def precompile(text: str) -> str:
    """coolang.precompile of one unit, its names fused by _fuse_names."""
    return _fuse_names(_normalize(SourceUnit("<unit0>", text)))


def _ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


_STRING = r'"(?:\\.|[^"\\])*"'
_STRING_RE = re.compile(_STRING, re.S)


def _skip_string(text: str, start: int) -> int:
    """Index just past the string literal opening at start; text is normalized."""
    return _STRING_RE.match(text, start).end()


def _scan_group(text: str, start: int) -> int:
    """Index just past the balanced paren group opening at start."""
    depth = 0
    i, n = start, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            i = _skip_string(text, i)
            continue
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise PrecompileError(f"unbalanced parentheses at offset {start}")


def _fuse_names(text: str) -> str:
    """Rewrite name1(p1)name2(p2)... chains into name1_ARG_name2(p1,p2)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            j = _skip_string(text, i)
            out.append(text[i:j])
            i = j
            continue
        if not _ident_start(c):
            out.append(c)
            i += 1
            continue

        j = i
        while j < n and _ident_char(text[j]):
            j += 1
        first = text[i:j]
        if first in KEYWORDS:
            out.append(first)
            i = j
            continue

        # collect the alternating name/group chain
        names = [first]
        groups: list[str] = []
        k = j
        while True:
            if k < n and text[k] == "(" and len(groups) == len(names) - 1:
                g = _scan_group(text, k)
                groups.append(text[k + 1 : g - 1])
                k = g
            elif k < n and _ident_start(text[k]) and len(groups) == len(names):
                m = k
                while m < n and _ident_char(text[m]):
                    m += 1
                nm = text[k:m]
                if nm in KEYWORDS:
                    break
                names.append(nm)
                k = m
            else:
                break

        if len(names) == 1 and not groups:
            out.append(first)
            i = j
            continue
        if len(names) > 1:
            for nm in names:
                if ARG_MARKER in nm:
                    raise PrecompileError(
                        f"identifier {nm!r} contains reserved marker {ARG_MARKER}"
                    )
        fused = ARG_MARKER.join(names)
        args = ",".join(_fuse_names(g) for g in groups)
        out.append(f"{fused}({args})")
        i = k
    return "".join(out)
