"""Reverse-function derivation from a bound forward body.

The forward body is disassembled into blocks (one per binding root, plus
declarations and the return). Written names get single-assignment
replacements so later reads cannot alias earlier values. Blocks touching
a pending parameter form the dependent set; the dependence closure of the
return (its backward slice) is merged into one expression, bound by the
search, and assembled with the untouched blocks into the reverse body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    ScopeInfo,
    ScopeKind,
    Tables,
    split_markers,
)
from .errors import DerivationFailure, InferenceFailure, MergeFailure, NotInvertible
from .matching import BindContext
from .segments import Segment, staging_address
from .search import Observer, SearchOptions, search_segment


@dataclass
class Block:
    seq: int
    kind: str  # scope_start | scope_end | decl | expr | return
    lines: list[ExtendedLine] = field(default_factory=list)
    root: Optional[Address] = None  # original address of the binding root
    reads_names: set[str] = field(default_factory=set)
    reads_temps: set[Address] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    assign_name: Optional[str] = None  # simple `name = value` target
    dependent: bool = False


@dataclass
class Disassembly:
    blocks: list[Block]  # blocks[seq - 1] has that seq
    replacements: list[str]  # fresh names in creation order
    pending: list[str]  # pending formals under forward naming
    name_writer: dict[str, int] = field(default_factory=dict)
    temp_owner: dict[Address, int] = field(default_factory=dict)
    return_seq: Optional[int] = None


def decl_formals(tables: Tables, fn: FunctionInfo) -> list[tuple[str, bool]]:
    """Formal names in pattern order with their pending flags.

    Named formals appear once (first occurrence); each anonymous formal
    stands on its own.
    """
    out: list[tuple[str, bool]] = []
    seen: set[str] = set()
    for ln in fn.decl_rows:
        for s in (SLOT_LEFT, SLOT_RIGHT):
            o = ln.slot(s)
            if o.kind is OperandKind.IDENT and ln.formal[s]:
                bare = split_markers(o.text)[0]
                pend = ln.pending[s] is PendFlag.TRUE
                if bare == "" or bare not in seen:
                    seen.add(bare)
                    out.append((bare, pend))
    return out


def map_formals(
    fwd: list[tuple[str, bool]], rev: list[tuple[str, bool]]
) -> list[str]:
    """Pending formal names of the reverse head, translated to forward names.

    Named reverse formals must name forward formals; anonymous ones adopt
    the leftover forward names in order.
    """
    if len(fwd) != len(rev):
        raise NotInvertible(
            f"forward head takes {len(fwd)} parameters, reverse head {len(rev)}"
        )
    fwd_names = [n for n, _ in fwd]
    taken: set[str] = set()
    for name, _ in rev:
        if name == "":
            continue
        if name not in fwd_names or name in taken:
            raise NotInvertible(f"reverse parameter {name!r} has no forward twin")
        taken.add(name)
    leftovers = [n for n in fwd_names if n not in taken]
    pending: list[str] = []
    for name, pend in rev:
        resolved = name if name else leftovers.pop(0)
        if pend:
            pending.append(resolved)
    return pending


def _rename_slot_text(operand: Operand, new_bare: str) -> Operand:
    """Swap the bare name while keeping any out: prefix."""
    bare, _, _, out = split_markers(operand.text)
    prefix = operand.text[: len(operand.text) - len(bare)]
    return Operand.ident(prefix + new_bare)


class _Disassembler:
    def __init__(
        self, tables: Tables, fn: FunctionInfo, pending: list[str], formals: list[tuple[str, bool]]
    ):
        if fn.body_scope is None:
            raise NotInvertible("the forward function has no body to derive from")
        self.tables = tables
        self.fn = fn
        self.formal_names = {n for n, _ in formals} - {""}
        self.vrt: dict[str, str] = {}
        self.locals: set[str] = set()
        self.dis = Disassembly(blocks=[], replacements=[], pending=list(pending))

    def fresh(self) -> str:
        name = f"__inv{len(self.dis.replacements) + 1}"
        self.dis.replacements.append(name)
        return name

    def run(self) -> Disassembly:
        start = self.fn.body_scope
        end = self.tables.scopes[start].end
        consumed: set[Address] = set()

        self._add(Block(seq=0, kind="scope_start", lines=[self.tables.code[start].copy()]))
        for ln in self.tables.code.between(start, end):
            if ln.address in consumed or ln.ctype is CodeType.EXPR_END:
                continue
            if ln.ctype in (CodeType.SCOPE_START, CodeType.JUMP):
                raise NotInvertible("control flow cannot appear in a derived body")
            if ln.ctype is CodeType.VAR_DECL:
                self._decl_block(ln)
            elif ln.ctype is CodeType.EXPR:
                if not ln.root:
                    # children precede their root; pick the group up there
                    continue
                self._expr_block(ln, consumed)
            elif ln.ctype is CodeType.RETURN:
                self._return_block(ln)
            else:
                raise NotInvertible(
                    f"cannot derive around a {ln.ctype.value} line in the body"
                )
        self._add(Block(seq=0, kind="scope_end", lines=[self.tables.code[end].copy()]))
        return self.dis

    def _add(self, b: Block) -> Block:
        b.seq = len(self.dis.blocks) + 1
        self.dis.blocks.append(b)
        for w in b.writes:
            self.dis.name_writer[w] = b.seq
        if b.root is not None:
            self.dis.temp_owner[b.root] = b.seq
        return b

    def _decl_block(self, ln: ExtendedLine) -> None:
        name = split_markers(ln.result.text)[0]
        if name in self.formal_names:
            raise NotInvertible(f"local {name!r} shadows a parameter")
        self.locals.add(name)
        self._add(Block(seq=0, kind="decl", lines=[ln.copy()]))

    def _group(self, root: ExtendedLine) -> list[ExtendedLine]:
        """The binding group under a root: non-root lines it reaches.

        On a stack, since a group bound as one deep pattern runs deep.
        """
        code = self.tables.code
        body_lines: list[ExtendedLine] = []
        stack = [root]
        while stack:
            ln = stack.pop()
            for o in (ln.left, ln.right, ln.result):
                if o.kind is OperandKind.ADDRESS and o.addr != ln.address and o.addr in code:
                    child = code[o.addr]
                    if (
                        child.ctype is CodeType.EXPR
                        and not child.root
                        and child.scope == ln.scope
                    ):
                        body_lines.append(child)
                        stack.append(child)
        out = [ln.copy() for ln in body_lines] + [root.copy()]
        out.sort(key=lambda l: l.address)
        return out

    def _expr_block(self, root: ExtendedLine, consumed: set[Address]) -> None:
        lines = self._group(root)
        for ln in lines:
            consumed.add(ln.address)
        b = Block(seq=0, kind="expr", lines=lines, root=root.address)
        own = {ln.address for ln in lines}

        # reads renamed through the replacement table
        for ln in lines:
            for s in (SLOT_LEFT, SLOT_RIGHT):
                o = ln.slot(s)
                if o.kind is OperandKind.IDENT and ln.pending[s] is not PendFlag.TRUE:
                    bare = split_markers(o.text)[0]
                    if bare in self.vrt:
                        ln.set_slot(s, _rename_slot_text(o, self.vrt[bare]))

        # a pending occurrence is a solving write: one fresh name per block
        renamed: dict[str, str] = {}
        for ln in lines:
            for s in (SLOT_LEFT, SLOT_RIGHT):
                o = ln.slot(s)
                if o.kind is OperandKind.IDENT and ln.pending[s] is PendFlag.TRUE:
                    bare = split_markers(o.text)[0]
                    if bare not in renamed:
                        renamed[bare] = self.fresh()
                    ln.set_slot(s, _rename_slot_text(o, renamed[bare]))
        for bare, fresh in renamed.items():
            self.vrt[bare] = fresh
            b.writes.add(fresh)

        # plain assignment target
        last = lines[-1]
        if last.op.text == "=" and last.address == root.address:
            t = last.result
            if t.kind is OperandKind.ADDRESS and t.addr not in own:
                raise NotInvertible("a derived body cannot write through members")
            if t.kind is OperandKind.IDENT:
                bare = split_markers(t.text)[0]
                if bare in self.formal_names:
                    raise NotInvertible(f"parameter {bare!r} is mutated by the body")
                if bare not in self.locals:
                    raise NotInvertible(f"{bare!r} lives outside the derived body")
                fresh = self.fresh()
                last.result = _rename_slot_text(t, fresh)
                self.vrt[bare] = fresh
                b.writes.add(fresh)
                if len(lines) == 1:
                    b.assign_name = fresh

        self._collect_reads(b, own)
        self._add(b)

    def _return_block(self, ln: ExtendedLine) -> None:
        if self.dis.return_seq is not None:
            raise NotInvertible("a derived body allows only one return")
        cp = ln.copy()
        o = cp.left
        if o.kind is OperandKind.IDENT:
            bare = split_markers(o.text)[0]
            if bare in self.vrt:
                cp.left = _rename_slot_text(o, self.vrt[bare])
        b = Block(seq=0, kind="return", lines=[cp])
        self._collect_reads(b, set())
        self.dis.return_seq = self._add(b).seq

    def _collect_reads(self, b: Block, own: set[Address]) -> None:
        for ln in b.lines:
            slots = (SLOT_LEFT, SLOT_RIGHT)
            if ln.ctype is CodeType.RETURN:
                slots = (SLOT_LEFT,)
            for s in slots:
                o = ln.slot(s)
                if o.kind is OperandKind.IDENT:
                    if ln.pending[s] is PendFlag.TRUE:
                        continue  # a write, handled above
                    b.reads_names.add(split_markers(o.text)[0])
                elif o.kind is OperandKind.ADDRESS and o.addr not in own and o.addr != ln.address:
                    b.reads_temps.add(o.addr)


def disassemble(tables: Tables, fn: FunctionInfo, pending: list[str]) -> Disassembly:
    return _Disassembler(tables, fn, pending, decl_formals(tables, fn)).run()


def analyze_dependence(dis: Disassembly) -> None:
    """Mark blocks whose values trace back to a pending parameter."""
    dep_names: set[str] = set()
    dep_temps: set[Address] = set()
    pend = set(dis.pending)
    for b in dis.blocks:
        hit = (
            bool(b.reads_names & pend)
            or bool(b.reads_names & dep_names)
            or bool(b.reads_temps & dep_temps)
        )
        if hit:
            b.dependent = True
            dep_names |= b.writes
            if b.root is not None:
                dep_temps.add(b.root)


def _dep_inputs(dis: Disassembly, b: Block) -> set[int]:
    """Dependent blocks whose values a block consumes."""
    out: set[int] = set()
    for n in b.reads_names:
        w = dis.name_writer.get(n)
        if w is not None and dis.blocks[w - 1].dependent:
            out.add(w)
    for t in b.reads_temps:
        o = dis.temp_owner.get(t)
        if o is not None and dis.blocks[o - 1].dependent:
            out.add(o)
    return out


def dependence_closure(
    dis: Disassembly, root_seq: int, max_nodes: int
) -> Optional[frozenset[int]]:
    """The root with every dependent block it transitively consumes.

    This backward slice is the smallest block set that contains the root
    and leaves no dependent input unmet, so it is the best tree any
    enumeration of dependency trees could pick. None when it has more
    than max_nodes blocks.
    """
    members = {root_seq}
    todo = [root_seq]
    while todo:
        for producer in _dep_inputs(dis, dis.blocks[todo.pop() - 1]):
            if producer not in members:
                members.add(producer)
                todo.append(producer)
        if len(members) > max_nodes:
            return None
    return frozenset(members)


class _Merger:
    """The return's dependence closure as one expression over fresh lines."""

    def __init__(self, dis: Disassembly, members: frozenset[int]):
        self.dis = dis
        self.members = members
        self.pending = set(dis.pending)
        self.lines: dict[Address, ExtendedLine] = {}
        self.staging = 0

    def fresh_addr(self) -> Address:
        self.staging += 1
        return staging_address(self.staging)

    def merge(self) -> Segment:
        """`ans = <the return value>`, every producer it reads plugged in."""
        o = self.dis.blocks[self.dis.return_seq - 1].lines[0].left
        target = self._substituted(o)
        if target is None:
            if o.kind is OperandKind.NUMBER or o.kind is OperandKind.TEXT:
                raise DerivationFailure("the return value is a constant; nothing to solve")
            target = o
        line = ExtendedLine(
            address=self.fresh_addr(),
            scope=None,
            ctype=CodeType.EXPR,
            op=Operand.ident("="),
            left=Operand.ident("ans"),
            right=Operand.empty(),
            result=target,
        )
        self.lines[line.address] = line
        seg = Segment(self.lines, line.address, staging_seq=self.staging)
        seg.prebind_builtins()
        return seg

    def _producer(self, o: Operand) -> Optional[int]:
        """The tree block whose value replaces an operand, if one joined."""
        if o.kind is OperandKind.IDENT:
            bare = split_markers(o.text)[0]
            w = self.dis.name_writer.get(bare)
            if w in self.members and self.dis.blocks[w - 1].dependent:
                if self.dis.blocks[w - 1].assign_name != bare:
                    raise MergeFailure(
                        f"{bare!r} is produced by solving, not assignment; "
                        "the tree cannot absorb it"
                    )
                return w
        elif o.kind is OperandKind.ADDRESS:
            owner = self.dis.temp_owner.get(o.addr)
            if owner in self.members:
                return owner
        return None

    def _substituted(self, o: Operand) -> Optional[Operand]:
        """The operand's replacement: a private copy of its producer, whose
        own inputs get private copies in turn, one per occurrence.

        On a stack, since producer chains run deep, but in the order of a
        recursion: a block's lines first, then its producers depth first in
        slot order. The search's digests read staging addresses in that order.
        """
        seq = self._producer(o)
        if seq is None:
            return None
        # (assignment line, root line, slots still to fill, where the value goes)
        stack = [(*self._copy(seq), None)]
        while True:
            eq, root, todo, into = stack[-1]
            if todo:
                cp, s = todo.pop()
                w = self._producer(cp.slot(s))
                if w is not None:
                    stack.append((*self._copy(w), (cp, s)))
                continue
            stack.pop()
            if eq is not None:
                # `name = value` dissolves into the value it assigns
                del self.lines[eq.address]
                value = eq.left
            else:
                value = Operand.address(root)
            if into is None:
                return value
            cp, s = into
            cp.set_slot(s, value)
            if value.kind is OperandKind.IDENT:
                cp.pending[s] = PendFlag.FALSE

    def _copy(self, seq: int) -> tuple:
        """Fresh lines for one block with internal references renamed: its
        assignment line or root's address, and the slots producers may fill,
        last first."""
        b = self.dis.blocks[seq - 1]
        local: dict[Address, Address] = {}
        copies: list[ExtendedLine] = []
        for ln in b.lines:
            cp = ln.copy()
            local[ln.address] = cp.address = self.fresh_addr()
            if b.dependent:
                cp.bound = None
                cp.bound_reverse = False
                cp.root = False
            copies.append(cp)
        todo = []
        for cp in copies:
            for s in VALUE_SLOTS:
                o = cp.slot(s)
                if o.kind is OperandKind.ADDRESS and o.addr in local:
                    cp.set_slot(s, Operand.address(local[o.addr]))
                    continue
                if o.kind is OperandKind.IDENT and split_markers(o.text)[0] in self.pending:
                    cp.pending[s] = PendFlag.TRUE
                if s != SLOT_RESULT:
                    todo.append((cp, s))
            self.lines[cp.address] = cp
        todo.reverse()
        eq = copies[-1] if b.assign_name is not None else None
        return eq, local.get(b.root), todo


def merge_tree(dis: Disassembly, members: frozenset[int]) -> Segment:
    return _Merger(dis, members).merge()


def _shares_later(
    open_temps: set[Address], later: list[Block], merged_reads: set[Address]
) -> bool:
    if open_temps & merged_reads:
        return True
    for b in later:
        if b.reads_temps & open_temps:
            return True
    return False


def assemble_body(
    tables: Tables,
    rev: FunctionInfo,
    derive_line: ExtendedLine,
    dis: Disassembly,
    merged: Segment,
) -> Address:
    """Write the derived body into the table between declaration and marker."""

    def created(ctype: CodeType, result: Operand = Operand.empty()) -> ExtendedLine:
        return ExtendedLine(
            address=merged.fresh_address(),
            scope=None,
            ctype=ctype,
            op=Operand.empty(),
            left=Operand.empty(),
            right=Operand.empty(),
            result=result,
        )

    merged_order = merged.subtree(merged.root)
    merged_reads = {
        ln.slot(s).addr
        for a in merged_order
        for ln in (merged[a],)
        for s in (SLOT_LEFT, SLOT_RIGHT)
        if ln.slot(s).kind is OperandKind.ADDRESS and ln.slot(s).addr not in merged.lines
    }

    items: list[ExtendedLine] = [dis.blocks[0].lines[0].copy()]
    emit_blocks = [
        b
        for b in dis.blocks
        if b.kind in ("decl", "expr") and not b.dependent
    ]
    open_temps: set[Address] = set()
    for i, b in enumerate(emit_blocks):
        if b.kind == "decl":
            items.append(b.lines[0].copy())
            continue
        items.extend(ln.copy() for ln in b.lines)
        open_temps.add(b.root)
        later = [x for x in emit_blocks[i + 1 :] if x.kind == "expr"]
        if not _shares_later(open_temps, later, merged_reads):
            items.append(created(CodeType.EXPR_END))
            open_temps = set()
    if open_temps:
        items.append(created(CodeType.EXPR_END))
    items.extend(merged[a].copy() for a in merged_order)
    items.append(created(CodeType.EXPR_END))
    items.append(dis.blocks[-1].lines[0].copy())

    # the replacement names the body uses, and the pending parameters it
    # solves, which must be all of them
    used: set[str] = set()
    solved: set[str] = set()
    for ln in items:
        for s in VALUE_SLOTS:
            o = ln.slot(s)
            if o.kind is OperandKind.IDENT:
                bare = split_markers(o.text)[0]
                used.add(bare)
                if (
                    s != SLOT_RESULT
                    and ln.ctype is CodeType.EXPR
                    and ln.pending[s] is PendFlag.TRUE
                ):
                    solved.add(bare)
    for p in dis.pending:
        if p not in solved:
            raise DerivationFailure(f"pending parameter {p!r} is never solved")
    items[1:1] = [
        created(CodeType.VAR_DECL, Operand.ident(name))
        for name in dis.replacements
        if name in used
    ]

    # the parser emits the derive line right after the declaration's scope,
    # so the gap between them is empty
    decl_end = tables.scopes[rev.decl_scope].end
    new_addrs = tables.code.insert_run(items, decl_end, derive_line.address)
    body_start = new_addrs[0]
    for ln in items:
        ln.scope = body_start

    tables.scopes[body_start] = ScopeInfo(
        kind=ScopeKind.BODY,
        start=body_start,
        end=new_addrs[-1],
        parent=derive_line.scope,
    )
    rev.body_scope = body_start
    tables.code[rev.func_op].right = Operand.address(body_start)
    return body_start


def _adopt_names(
    rev: FunctionInfo,
    fwd_formals: list[tuple[str, bool]],
    rev_formals: list[tuple[str, bool]],
) -> None:
    """Give anonymous reverse formals their forward names, in pattern order."""
    taken = {n for n, _ in rev_formals if n}
    leftovers = [n for n, _ in fwd_formals if n not in taken]
    for ln in rev.decl_rows:
        for s in (SLOT_LEFT, SLOT_RIGHT):
            o = ln.slot(s)
            if leftovers and o.kind is OperandKind.IDENT and ln.formal[s] and o.text == "":
                ln.set_slot(s, Operand.ident(leftovers.pop(0)))


def derive_reverse_body(
    tables: Tables,
    uni,
    derive_line: ExtendedLine,
    options: Optional[SearchOptions] = None,
    observer: Optional[Observer] = None,
) -> Address:
    """Build and install the reverse body named by one derivation marker."""
    opts = options or SearchOptions()
    name = derive_line.left.text
    fwd = uni.declarations.forward(name, derive_line.address)
    if fwd is None:
        raise DerivationFailure(f"no forward declaration named {name!r} to derive from")
    rev = uni.declarations.by_decl.get(derive_line.right.addr)
    if rev is None:
        raise DerivationFailure("the derivation marker names no declaration")
    if rev.body_scope is not None:
        return rev.body_scope  # already derived

    fwd_formals = decl_formals(tables, fwd)
    rev_formals = decl_formals(tables, rev)
    pending = map_formals(fwd_formals, rev_formals)
    if not pending:
        raise NotInvertible("the reverse head marks nothing as pending")
    _adopt_names(rev, fwd_formals, rev_formals)

    dis = _Disassembler(tables, fwd, pending, fwd_formals).run()
    analyze_dependence(dis)

    if dis.return_seq is None:
        raise NotInvertible("the forward body never returns a value")
    ret = dis.blocks[dis.return_seq - 1]
    if not ret.dependent:
        raise DerivationFailure(
            "the return value does not depend on the pending parameters"
        )

    members = dependence_closure(dis, dis.return_seq, opts.max_tree_nodes)
    if members is None:
        raise DerivationFailure("the dependence cannot be resolved into one tree")

    # the body keeps no dependent block left out of the tree, which is sound
    # while its effect dies with the body: a print or a call would be lost
    for b in dis.blocks:
        if b.dependent and b.seq not in members:
            if any(ln.op.text == "-->" or ln.is_user_bound for ln in b.lines):
                raise DerivationFailure("a dependent print or call lies outside the chosen tree")

    merged = merge_tree(dis, members)
    ctx: BindContext = uni.context_for(derive_line.scope)
    try:
        outcome = search_segment(
            tables, merged, ctx, derive_line.address, options=opts, observer=observer
        )
    except InferenceFailure as exc:
        raise DerivationFailure(f"the merged expression would not bind: {exc}") from exc

    return assemble_body(tables, rev, derive_line, dis, outcome.segment)
