"""Table loader: raw compiler output to addressed, flagged tables.

Responsibilities: address assignment, scope structure, exec flags,
marker stripping with per-expression propagation, formal-parameter flags,
function/class table construction, duplicate detection. One pass over the
stream makes the lines and gathers the rows the table builders read.

The scope, function and class tables index the code rows and are built
from them alone: the loader opens and closes scopes in its pass and then
calls build_functions and link_classes, and serialize.deserialize does the
same over the rows of a `.ccode` file.
"""

from __future__ import annotations

import graphlib
from typing import Iterable, Optional

from .addresses import Address
from .code import (
    OUT_MARK,
    VALUE_SLOTS,
    ClassInfo,
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
    split_markers,
)
from .errors import (
    DuplicateDeclaration,
    FunctionWithoutBody,
    InheritanceCycle,
    InheritanceOfUndeclaredClass,
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
        t: [] for t in (CodeType.JUMP, CodeType.FUNC_OP, CodeType.CLASS_OP, CodeType.VAR_DECL)
    }
    # the open expression's identifier slots: (line, slot, bare name)
    run: list[tuple[ExtendedLine, int, str]] = []
    for i, ln in enumerate(lines, 1):
        addr = Address((i,))
        ctype = ln.ctype
        scope = stack[-1] if stack else None
        if ctype is CodeType.SCOPE_START:
            open_scope(rows, addr, ln.left.text, scope)
            scope = addr
            stack.append(addr)
        elif ctype is CodeType.SCOPE_END:
            close_scope(rows, stack, addr)
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
        raise UnbalancedScopes(f"unclosed scope starting at code line {stack[-1]}")
    _propagate_markers(run)

    jump_targets = {
        el.right.addr for el in gathered[CodeType.JUMP] if el.right.kind is OperandKind.ADDRESS
    }
    _assign_exec_flags(ext, rows, jump_targets)
    tables = Tables(code=CodeTable(ext), scopes=rows)
    build_functions(tables, gathered[CodeType.FUNC_OP])
    link_classes(tables, gathered[CodeType.CLASS_OP])
    check_variables(gathered[CodeType.VAR_DECL])
    _check_patterns(tables)
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


def open_scope(
    scopes: dict[Address, ScopeInfo], addr: Address, kind: str, parent: Optional[Address]
) -> ScopeInfo:
    """Add the scope a start row opens inside parent; its end row closes it."""
    known = _SCOPE_KINDS.get(kind)
    if known is None:
        raise LoadError(f"scope start at code line {addr} names unknown scope kind {kind!r}")
    scopes[addr] = ScopeInfo(known, addr, addr, parent)
    return scopes[addr]


def close_scope(scopes: dict[Address, ScopeInfo], stack: list[Address], addr: Address) -> None:
    """End the innermost open scope at its end row addr."""
    if not stack:
        raise UnbalancedScopes(f"scope end at code line {addr} closes no scope")
    scopes[stack.pop()].end = addr


def _span(tables: Tables, start: Address) -> list[ExtendedLine]:
    """Extended lines strictly inside a scope, boundary lines excluded."""
    info = tables.scopes[start]
    return tables.code.between(info.start, info.end)


def build_functions(tables: Tables, funcs: list[ExtendedLine]) -> None:
    """The function table over its FUNC_OP rows, in address order, once the
    scope table is whole. A row names a declaration scope of its own and a
    body scope, or has the derive marker that names its declaration right
    after that scope's end row: derivation writes the body into that gap."""
    rows, code = tables.scopes, tables.code
    decls: set[Address] = set()
    for el in funcs:
        decl_start = el.left.addr
        decl = rows.get(decl_start)
        if decl is None or decl.kind is not ScopeKind.DECL or decl_start in decls:
            raise LoadError(f"function at {el.address} has no declaration scope of its own")
        decls.add(decl_start)
        body_start = el.right.addr if el.right.kind is OperandKind.ADDRESS else None
        if body_start is not None and (
            body_start not in rows or rows[body_start].kind is not ScopeKind.BODY
        ):
            raise LoadError(f"function at {el.address} has no body scope at {body_start}")
        if body_start is None:
            after = code.next_after(decl.end)
            marker = code.get(after)
            if marker is None or (marker.ctype, marker.right.addr) != (
                CodeType.DERIVE_FUNC, decl_start
            ):
                raise FunctionWithoutBody(
                    f"function at {el.address} has no body, and code line {after} derives none"
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
            class_scope=_nearest(rows, decl.parent, ScopeKind.CLASS),
        )


def link_classes(tables: Tables, lines: Iterable[ExtendedLine]) -> None:
    """The class table over its CLASS_OP rows, parents first, once the scope
    table is whole: `class` names a class scope, `inherit` a parent by name.

    Then tables.class_scopes maps names to scopes. Raises a LoadError for a
    `class` row that names no class scope or one that another names, a
    class or a parent of one class named twice, an `inherit` row that names
    an undeclared class and classes that inherit in a cycle.
    """
    classes, scopes, rows = tables.classes, tables.class_scopes, tables.scopes
    inherits = []
    for ln in lines:
        if ln.op.text == "inherit":
            inherits.append(ln)
            continue
        scope = ln.right.addr
        info = rows.get(scope)
        if info is None or info.kind is not ScopeKind.CLASS or scope in classes:
            raise LoadError(f"class at code line {ln.address} names no class scope of its own")
        if ln.left.text in scopes:
            raise DuplicateDeclaration(
                f"class {ln.left.text!r} declared twice, again at code line {ln.address}"
            )
        scopes[ln.left.text] = scope
        classes[scope] = ClassInfo(scope=scope, name=ln.left.text)
    for ln in inherits:
        if ln.right.text not in scopes:
            raise InheritanceOfUndeclaredClass(
                f"class {ln.left.text} inherits undeclared {ln.right.text}"
            )
        if ln.left.text not in scopes:
            raise InheritanceOfUndeclaredClass(
                f"undeclared class {ln.left.text} inherits at code line {ln.address}"
            )
        parents = classes[scopes[ln.left.text]].parents
        parent = scopes[ln.right.text]
        if parent in parents:
            raise DuplicateDeclaration(
                f"class {ln.left.text!r} inherits {ln.right.text!r} twice"
            )
        parents.append(parent)
    graph = graphlib.TopologicalSorter({s: c.parents for s, c in classes.items()})
    try:
        tables.classes = {s: classes[s] for s in graph.static_order()}
    except graphlib.CycleError as exc:
        # each class in the reported cycle is a parent of the next
        cycle = " << ".join(classes[s].name for s in reversed(exc.args[1]))
        raise InheritanceCycle(f"classes inherit in a cycle: {cycle}") from None


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


def check_variables(var_decls: list[ExtendedLine]) -> None:
    """No variable is declared twice in one scope; source and file both."""
    vars_seen: set[tuple[Optional[Address], str]] = set()
    for el in var_decls:
        key = (el.scope, el.result.text)
        if key in vars_seen:
            raise DuplicateDeclaration(
                f"variable {el.result.text!r} declared twice in the same scope, "
                f"again at code line {el.address}"
            )
        vars_seen.add(key)


def _check_patterns(tables: Tables) -> None:
    """No scope declares one pattern twice."""
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
