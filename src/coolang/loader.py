"""Table loader: raw compiler output to addressed, flagged tables.

Responsibilities: address assignment, scope structure, exec flags,
marker stripping with per-expression propagation, formal-parameter flags,
function/class table construction, duplicate detection. One pass over the
stream makes the lines and gathers the rows the table builders read.
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


_SCOPE_KINDS = {k.value: k for k in ScopeKind}


def load(lines: list[CodeLine]) -> Tables:
    rows: dict[Address, ScopeInfo] = {}
    stack: list[Address] = []
    ext: list[ExtendedLine] = []
    # the rows the table builders read after the pass, by code type
    gathered: dict[CodeType, list[ExtendedLine]] = {
        t: [] for t in (CodeType.JUMP, CodeType.FUNC_OP, CodeType.DERIVE_FUNC,
                        CodeType.CLASS_OP, CodeType.VAR_DECL)
    }
    # the open expression's identifier slots: (line, slot, bare name)
    run: list[tuple[ExtendedLine, int, str]] = []
    for i, ln in enumerate(lines, 1):
        addr = Address((i,))
        ctype = ln.ctype
        scope = stack[-1] if stack else None
        if ctype is CodeType.SCOPE_START:
            kind = _SCOPE_KINDS.get(ln.left.text)
            if kind is None:
                raise LoadError(
                    f"scope start at code line {addr} names unknown scope kind {ln.left.text!r}"
                )
            rows[addr] = ScopeInfo(kind=kind, start=addr, end=addr, parent=scope)
            scope = addr
            stack.append(addr)
        elif ctype is CodeType.SCOPE_END:
            if not stack:
                raise UnbalancedScopes(f"scope end without start at line {i}")
            stack.pop()
            rows[scope].end = addr
        el = ExtendedLine(addr, scope, ExecFlag.TRUE, ctype, ln.op, ln.left, ln.right, ln.result)
        ext.append(el)
        is_expr = ctype is CodeType.EXPR
        formal = is_expr and scope is not None and rows[scope].kind is ScopeKind.DECL
        for s in VALUE_SLOTS:
            o = el.slot(s)
            if o.kind is not OperandKind.IDENT:
                continue
            bare, pend, unrel, out = split_markers(o.text)
            kept = OUT_MARK + bare if out else bare
            if kept != o.text:
                el.set_slot(s, Operand.ident(kept))
            if pend:
                el.pending[s] = PendFlag.TRUE
            elif unrel:
                el.pending[s] = PendFlag.UNRELATED
            if formal and not out:
                el.formal[s] = True
            if is_expr and bare:
                run.append((el, s, bare))
        if not is_expr:
            if run:
                _propagate_markers(run)
                run = []
            if ctype in gathered:
                gathered[ctype].append(el)
    if stack:
        raise UnbalancedScopes(f"unclosed scope starting at line {stack[-1]}")
    _propagate_markers(run)

    jump_targets = {
        el.right.addr for el in gathered[CodeType.JUMP] if el.right.kind is OperandKind.ADDRESS
    }
    _assign_exec_flags(ext, rows, jump_targets)
    tables = Tables(code=CodeTable(ext), scopes=rows)
    derive_targets = {el.right.addr for el in gathered[CodeType.DERIVE_FUNC]}
    _build_functions(tables, gathered[CodeType.FUNC_OP], derive_targets)
    link_classes(tables, gathered[CodeType.CLASS_OP])
    _check_duplicates(tables, gathered[CodeType.VAR_DECL])
    return tables


def _propagate_markers(run: list[tuple[ExtendedLine, int, str]]) -> None:
    """$ and # marks spread to every same-name occurrence in their longest expression."""
    pend = {bare for el, s, bare in run if el.pending[s] is PendFlag.TRUE}
    unrel = {bare for el, s, bare in run if el.pending[s] is PendFlag.UNRELATED}
    if not pend and not unrel:
        return
    for el, s, bare in run:
        if el.pending[s] is PendFlag.FALSE:
            if bare in pend:
                el.pending[s] = PendFlag.TRUE
            elif bare in unrel:
                el.pending[s] = PendFlag.UNRELATED


def _assign_exec_flags(
    ext: list[ExtendedLine],
    rows: dict[Address, ScopeInfo],
    jump_targets: set[Address],
) -> None:
    """Rows start TRUE; declarations never run, bodies, classes and jumped-to conditions may."""
    for el in ext:
        if el.scope is None:
            continue
        kind = rows[el.scope].kind
        if kind is ScopeKind.DECL:
            el.exec_flag = ExecFlag.FALSE
        elif kind in (ScopeKind.BODY, ScopeKind.CLASS) or (
            kind is ScopeKind.COND and el.scope in jump_targets
        ):
            el.exec_flag = ExecFlag.COND


def _span(tables: Tables, start: Address) -> list[ExtendedLine]:
    """Extended lines strictly inside a scope, boundary lines excluded."""
    info = tables.scopes[start]
    return tables.code.between(info.start, info.end)


def _build_functions(
    tables: Tables, funcs: list[ExtendedLine], derive_targets: set[Address]
) -> None:
    rows = tables.scopes
    for el in funcs:
        decl_start = el.left.addr
        if decl_start is None or decl_start not in rows:
            raise LoadError(f"function at {el.address} has no declaration scope")
        body_start = el.right.addr if el.right.kind is OperandKind.ADDRESS else None
        if body_start is not None and body_start not in rows:
            raise LoadError(f"function at {el.address} has no body scope at {body_start}")
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


def _check_duplicates(tables: Tables, var_decls: list[ExtendedLine]) -> None:
    vars_seen: set[tuple[Optional[Address], str]] = set()
    for el in var_decls:
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
    """Structural shape of a declaration pattern, for duplicate detection.

    An identifier counts by the order of its name's first occurrence, so
    `#a - #a` differs from `#a - #b` and `#b - #a` equals `#a - #b`.
    """
    run = [el for el in _span(tables, fn.decl_scope) if el.ctype is CodeType.EXPR]
    index = {el.address: i for i, el in enumerate(run)}
    names: dict[str, int] = {}
    shape = []
    for el in run:
        slots = []
        for s in VALUE_SLOTS:
            o = el.slot(s)
            if o.kind is OperandKind.ADDRESS and o.addr in index:
                slots.append(("ref", index[o.addr], el.pending[s].value))
            elif o.kind is OperandKind.IDENT:
                name = names.setdefault(o.text, len(names))
                slots.append(("var", el.formal[s], name, el.pending[s].value))
            else:
                slots.append((o.kind.value, o.payload(), el.pending[s].value))
        shape.append((el.op.text, tuple(slots)))
    return tuple(shape)
