"""Table loader: raw compiler output to addressed, flagged tables.

Responsibilities: address assignment, scope structure, exec flags,
marker stripping with per-expression propagation, formal-parameter flags,
function/class table construction, duplicate detection.
"""

from __future__ import annotations

from typing import Optional

from .addresses import Address
from .code import (
    OUT_MARK,
    VALUE_SLOTS,
    CodeLine,
    CodeTable,
    CodeType,
    ExecFlag,
    ExtendedLine,
    FunctionInfo,
    Operand,
    OperandKind,
    PendFlag,
    ScopeInfo,
    ScopeKind,
    Tables,
    link_classes,
    split_markers,
)
from .errors import (
    DuplicateDeclaration,
    FunctionWithoutBody,
    LoadError,
    UnbalancedScopes,
)


def load(lines: list[CodeLine]) -> Tables:
    n = len(lines)
    addrs = [Address((i + 1,)) for i in range(n)]

    # scope structure
    scope_of: list[Optional[Address]] = [None] * n
    rows: dict[Address, ScopeInfo] = {}
    order: list[Address] = []  # scope starts in source order
    stack: list[Address] = []
    for i, ln in enumerate(lines):
        if ln.ctype is CodeType.SCOPE_START:
            kind = ScopeKind(ln.left.text)
            parent = stack[-1] if stack else None
            rows[addrs[i]] = ScopeInfo(kind=kind, start=addrs[i], end=addrs[i], parent=parent)
            order.append(addrs[i])
            scope_of[i] = addrs[i]
            stack.append(addrs[i])
        elif ln.ctype is CodeType.SCOPE_END:
            if not stack:
                raise UnbalancedScopes(f"scope end without start at line {i + 1}")
            s = stack.pop()
            rows[s].end = addrs[i]
            scope_of[i] = s
        else:
            scope_of[i] = stack[-1] if stack else None
    if stack:
        raise UnbalancedScopes(f"unclosed scope starting at line {stack[-1]}")

    # extended lines with markers stripped into flags
    ext: list[ExtendedLine] = []
    for i, ln in enumerate(lines):
        el = ExtendedLine(
            address=addrs[i],
            scope=scope_of[i],
            exec_flag=ExecFlag.TRUE,
            ctype=ln.ctype,
            op=ln.op,
            left=ln.left,
            right=ln.right,
            result=ln.result,
        )
        for s in VALUE_SLOTS:
            o = el.slot(s)
            if o.kind is OperandKind.IDENT:
                bare, pend, unrel, out = split_markers(o.text)
                kept = OUT_MARK + bare if out else bare
                if kept != o.text:
                    el.set_slot(s, Operand.ident(kept))
                if pend:
                    el.pending[s] = PendFlag.TRUE
                elif unrel:
                    el.pending[s] = PendFlag.UNRELATED
        ext.append(el)

    _propagate_markers(ext)
    _mark_formals(ext, rows)
    tables = Tables(code=CodeTable(ext), scopes=rows)
    jump_targets = {
        el.right.addr
        for el in tables.code.control.values()
        if el.ctype is CodeType.JUMP and el.right.kind is OperandKind.ADDRESS
    }
    _assign_exec_flags(ext, rows, jump_targets)

    _build_functions(tables, ext, rows)
    link_classes(tables, [el for el in ext if el.ctype is CodeType.CLASS_OP])
    _check_duplicates(tables, ext)
    return tables


def _expr_runs(ext: list[ExtendedLine]):
    i, n = 0, len(ext)
    while i < n:
        if ext[i].ctype is CodeType.EXPR:
            j = i
            while j < n and ext[j].ctype is CodeType.EXPR:
                j += 1
            yield ext[i:j]
            i = j
        else:
            i += 1


def _propagate_markers(ext: list[ExtendedLine]) -> None:
    """$ and # marks spread to every same-name occurrence in their longest expression."""
    for run in _expr_runs(ext):
        pend: set[str] = set()
        unrel: set[str] = set()
        for el in run:
            for s in VALUE_SLOTS:
                o = el.slot(s)
                if o.kind is OperandKind.IDENT and o.text:
                    bare = split_markers(o.text)[0]
                    if not bare:
                        continue
                    if el.pending[s] is PendFlag.TRUE:
                        pend.add(bare)
                    elif el.pending[s] is PendFlag.UNRELATED:
                        unrel.add(bare)
        if not pend and not unrel:
            continue
        for el in run:
            for s in VALUE_SLOTS:
                o = el.slot(s)
                if o.kind is OperandKind.IDENT and el.pending[s] is PendFlag.FALSE:
                    bare = split_markers(o.text)[0]
                    if bare in pend:
                        el.pending[s] = PendFlag.TRUE
                    elif bare in unrel:
                        el.pending[s] = PendFlag.UNRELATED


def _mark_formals(ext: list[ExtendedLine], rows: dict[Address, ScopeInfo]) -> None:
    for el in ext:
        if el.scope is None or rows[el.scope].kind is not ScopeKind.DECL:
            continue
        if el.ctype is not CodeType.EXPR:
            continue
        for s in VALUE_SLOTS:
            o = el.slot(s)
            if o.kind is OperandKind.IDENT and not o.text.startswith(OUT_MARK):
                el.formal[s] = True


def _assign_exec_flags(
    ext: list[ExtendedLine],
    rows: dict[Address, ScopeInfo],
    jump_targets: set[Address],
) -> None:
    for el in ext:
        if el.scope is None:
            el.exec_flag = ExecFlag.TRUE
            continue
        kind = rows[el.scope].kind
        if kind is ScopeKind.DECL:
            el.exec_flag = ExecFlag.FALSE
        elif kind in (ScopeKind.BODY, ScopeKind.CLASS):
            el.exec_flag = ExecFlag.COND
        elif kind is ScopeKind.COND and el.scope in jump_targets:
            el.exec_flag = ExecFlag.COND
        else:
            el.exec_flag = ExecFlag.TRUE


def _span(tables: Tables, start: Address) -> list[ExtendedLine]:
    """Extended lines strictly inside a scope, boundary lines excluded."""
    info = tables.scopes[start]
    return tables.code.between(info.start, info.end)


def _build_functions(
    tables: Tables, ext: list[ExtendedLine], rows: dict[Address, ScopeInfo]
) -> None:
    derive_targets = {
        el.right.addr for el in ext if el.ctype is CodeType.DERIVE_FUNC
    }
    for el in ext:
        if el.ctype is not CodeType.FUNC_OP:
            continue
        decl_start = el.left.addr
        if decl_start is None or decl_start not in rows:
            raise LoadError(f"function at {el.address} has no declaration scope")
        body_start = el.right.addr if el.right.kind is OperandKind.ADDRESS else None
        if body_start is None and decl_start not in derive_targets:
            raise FunctionWithoutBody(
                f"function declared at {decl_start} has no body and no derivation"
            )
        decl_lines = [
            x for x in _span(tables, decl_start) if x.ctype is CodeType.EXPR
        ]
        if not decl_lines:
            raise LoadError(f"empty declaration scope at {decl_start}")
        root = decl_lines[-1]
        is_reverse = any(
            s
            for x in decl_lines
            for s in VALUE_SLOTS
            if x.pending[s] is PendFlag.TRUE
        )
        returns: list[Address] = []
        if body_start is not None:
            rows[body_start].param_query = decl_start
            for x in _span(tables, body_start):
                if x.ctype is CodeType.RETURN and _nearest(rows, x.scope, ScopeKind.BODY) == body_start:
                    returns.append(x.address)
        is_exp = el.op.text == "funcexp"
        if is_exp and not returns:
            # a rewrite stands for its return value; without one it has no result
            raise LoadError(f"rewrite rule at code line {el.address} has no return: statement")
        tables.functions[el.address] = FunctionInfo(
            decl_scope=decl_start,
            decl_root=root.address,
            body_scope=body_start,
            returns=returns,
            is_exp=is_exp,
            is_reverse=is_reverse,
            weight=el.result.num,
            func_op=el.address,
            name=root.op.text,
            class_scope=_nearest(rows, rows[decl_start].parent, ScopeKind.CLASS),
        )


def _nearest(
    rows: dict[Address, ScopeInfo], scope: Optional[Address], kind: ScopeKind
) -> Optional[Address]:
    """The innermost scope of a kind from scope outward, scope included."""
    cur = scope
    while cur is not None:
        if rows[cur].kind is kind:
            return cur
        cur = rows[cur].parent
    return None


def _check_duplicates(tables: Tables, ext: list[ExtendedLine]) -> None:
    vars_seen: set[tuple[Optional[Address], str]] = set()
    for el in ext:
        if el.ctype is CodeType.VAR_DECL:
            key = (el.scope, el.result.text)
            if key in vars_seen:
                raise DuplicateDeclaration(
                    f"variable {el.result.text!r} declared twice in the same scope, "
                    f"again at code line {el.address}"
                )
            vars_seen.add(key)

    fns_seen: set = set()
    for fn in tables.functions.values():
        fn_line = tables.code[fn.func_op]
        key = (fn_line.scope, _decl_digest(tables, fn), fn.is_exp)
        if key in fns_seen:
            raise DuplicateDeclaration(
                f"duplicate declaration of {fn.name!r} in the same scope, "
                f"again at code line {fn.func_op}"
            )
        fns_seen.add(key)


def _decl_digest(tables: Tables, fn: FunctionInfo) -> tuple:
    """Structural shape of a declaration pattern, for duplicate detection."""
    run = [el for el in _span(tables, fn.decl_scope) if el.ctype is CodeType.EXPR]
    index = {el.address: i for i, el in enumerate(run)}
    shape = []
    for el in run:
        slots = []
        for s in VALUE_SLOTS:
            o = el.slot(s)
            if o.kind is OperandKind.ADDRESS and o.addr in index:
                slots.append(("ref", index[o.addr], el.pending[s].value))
            elif o.kind is OperandKind.IDENT:
                slots.append(("var", el.formal[s], el.pending[s].value))
            else:
                slots.append((o.kind.value, o.payload(), el.pending[s].value))
        shape.append((el.op.text, tuple(slots)))
    return tuple(shape)
