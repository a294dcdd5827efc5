"""Table loader: raw compiler output to addressed, flagged tables.

load assigns row addresses and strips identifier markers into pending
flags, spreading each mark over its longest expression; then index.

index is the one check and indexing pass over code rows, for loaded
source and for a decoded `.ccode` file (serialize.deserialize) alike. It
gives each row its scope and, in a declaration, its formal flags, which
the order of the rows fixes; checks every link a row names, an
expression row reading only earlier rows, so that every table runs in
row order and holds no cycle of reads; builds the scope, function and
class tables from the rows; and refuses a scope that declares a variable
or a pattern twice. It alone reads a declaration's pattern rows from the
code table; later stages read them off the declaration's FunctionInfo.
"""

from __future__ import annotations

import graphlib
from typing import Iterable, Optional

from .addresses import Address, row_address
from .code import (
    BUILTIN,
    OUT_MARK,
    VALUE_SLOTS,
    ClassInfo,
    CodeLine,
    CodeTable,
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
from .errors import (
    DuplicateDeclaration,
    FunctionWithoutBody,
    InheritanceCycle,
    InheritanceOfUndeclaredClass,
    LoadError,
    UnbalancedScopes,
)
from .segments import PREBIND_OPS


_SCOPE_KINDS = {k.value: k for k in ScopeKind}


def load(lines: list[CodeLine]) -> Tables:
    code: dict[Address, ExtendedLine] = {}
    # the open expression's identifier slots: (line, slot, bare name)
    run: list[tuple[ExtendedLine, int, str]] = []
    for i, ln in enumerate(lines, 1):
        addr = row_address(i)
        ctype = ln.ctype
        el = code[addr] = ExtendedLine(addr, None, ctype, ln.op, ln.left, ln.right, ln.result)
        is_expr = ctype is CodeType.EXPR
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
            if is_expr and bare:
                run.append((el, s, bare))
        if not is_expr and run:
            _propagate_markers(run)
            run = []
    _propagate_markers(run)
    tables = Tables(code=CodeTable(code))
    index(tables)
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


def index(tables: Tables) -> None:
    """The one check of what a row may name, and the tables that index the
    rows: source and `.ccode` obey the same rules from here (the README
    lists them per row type), so that lowering and preexecute trust every
    link. One pass over the code rows in address order gives each row its
    scope and formal flags, checks it (an expression row's left, right or
    result address that is not its own names an earlier row), fills the
    scope table and gathers the rows each function reads; then the
    function and class tables are built, no scope may declare one
    variable or one pattern twice, and each bound expression's
    bound_reverse is set from its function. Raises a LoadError."""
    scopes, code = tables.scopes, tables.code
    get = code.get
    # Enum members bound once: reading one off its class costs a lookup each row
    expr, member, jump, ret = CodeType.EXPR, CodeType.ACCESS_MEMBER, CodeType.JUMP, CodeType.RETURN
    opens, closes = CodeType.SCOPE_START, CodeType.SCOPE_END
    ident, address = OperandKind.IDENT, OperandKind.ADDRESS
    func, cls, var = CodeType.FUNC_OP, CodeType.CLASS_OP, CodeType.VAR_DECL
    funcs: list[ExtendedLine] = []
    class_ops: list[ExtendedLine] = []
    var_decls: list[ExtendedLine] = []
    bound: list[ExtendedLine] = []
    decls: dict[Address, list[ExtendedLine]] = {}  # the EXPR rows inside each declaration
    returns: dict[Address, list[Address]] = {}  # each body scope's return: rows
    patterns: list[list[ExtendedLine]] = []  # the open declarations' rows, innermost last
    first = None  # the current expression run's first row
    held: list[Address] = []  # the scopes that hold the row, innermost last
    in_decl = False  # the innermost of them is a declaration
    compiled = not tables.preexecuted  # only preexecute binds
    for ln in code.lines():
        a, t, r = ln.address, ln.ctype, ln.result.addr
        # a start row's scope is itself, an end row's the scope it closes
        ln.scope = a if t is opens else held[-1] if held else None
        if compiled and (ln.bound is not None or ln.root):
            raise LoadError(f"code line {a} is bound in a file that is not preexecuted")
        if r is not None and r != a and (t is not expr or ln.op.text != "="):
            raise LoadError(f"code line {a} writes its result to {r}, not to its own row")
        if t is expr:
            first = first or a
            for rows in patterns:
                rows.append(ln)
            if in_decl:
                # an identifier in a pattern is a formal unless out: marks it
                formal = ln.formal
                for s in VALUE_SLOTS:
                    o = ln.slot(s)
                    if o.kind is ident and not o.text.startswith(OUT_MARK):
                        formal[s] = True
            op = ln.op.text
            if ln.right.kind is address and (op == "=" or op == "-->"):
                # neither reads its right slot (segments.PREBIND_READS)
                raise LoadError(
                    f"code line {a} names {ln.right.addr} in its right slot, "
                    f"which {op!r} never reads"
                )
            b = ln.bound
            if b is BUILTIN:
                if op not in PREBIND_OPS:
                    raise LoadError(f"code line {a} is bound to a builtin, but {op!r} is none")
            elif b is not None:
                bound.append(ln)
            for r in (ln.left.addr, ln.right.addr, None if r == a else r):
                if r is None:
                    continue
                if r >= a:
                    raise LoadError(f"code line {a} reads {r}, no earlier row")
                if r < first or r not in code:
                    _read_outside(a, r, get)
        else:
            first = None
        r = ln.left.addr
        if t is member:
            base = get(r) if r is not None and r < a else None
            if ln.left.kind is not OperandKind.IDENT and (base is None or base.ctype is not member):
                raise LoadError(f"member access {a} reads no name and no earlier member access")
        elif t is jump or t is ret:
            read = get(r)
            # a row's scope is known once the pass reaches it
            if r is not None and (read is None or r > a or read.scope != ln.scope):
                raise LoadError(f"code line {a} reads {r}, no row of its scope")
            if read is not None and read.ctype is not expr and read.ctype is not member:
                raise LoadError(f"code line {a} reads {r}, no expression or member access")
            to = ln.right.addr
            if t is jump and (to is None or to not in code and code.next_after(to)):
                raise LoadError(f"jump at {a} has no target row")
            # back to or before its scope's start row, a jump would open the
            # scope again inside itself on every pass
            if t is jump and held and to <= held[-1]:
                raise LoadError(f"jump at {a} leaves scope {held[-1]} backward")
            if t is ret:
                # a return: belongs to the innermost body that holds it
                body = next((s for s in reversed(held) if scopes[s].kind is ScopeKind.BODY), None)
                if body is not None:
                    returns.setdefault(body, []).append(a)
        elif t is opens:
            kind = _SCOPE_KINDS.get(ln.left.text)
            if kind is None:
                raise LoadError(
                    f"scope start at code line {a} names unknown scope kind {ln.left.text!r}"
                )
            scopes[a] = ScopeInfo(kind, a, a, held[-1] if held else None)
            in_decl = kind is ScopeKind.DECL
            if in_decl:
                patterns.append(decls.setdefault(a, []))
            held.append(a)
        elif t is func:
            funcs.append(ln)
        elif t is cls:
            class_ops.append(ln)
        elif t is var:
            var_decls.append(ln)
        if t is closes:
            if not held:
                raise UnbalancedScopes(f"scope end at code line {a} closes no scope")
            info = scopes[held.pop()]
            info.end = a
            if info.kind is ScopeKind.DECL:
                patterns.pop()
            in_decl = bool(held) and scopes[held[-1]].kind is ScopeKind.DECL
    if held:
        raise UnbalancedScopes(f"unclosed scope starting at code line {held[-1]}")
    build_functions(tables, funcs, decls, returns)
    link_classes(tables, class_ops)
    variables: set[tuple[Optional[Address], str]] = set()
    for ln in var_decls:
        key = (ln.scope, ln.result.text)
        if key in variables:
            raise DuplicateDeclaration(
                f"variable {ln.result.text!r} declared twice in the same scope, "
                f"again at code line {ln.address}"
            )
        variables.add(key)
    functions = tables.functions
    for ln in bound:
        a, b = ln.address, ln.bound
        fn = functions.get(b)
        if fn is None or ln.root and fn.body_scope is None:
            raise LoadError(f"code line {a} is bound to {b}, no function with a body")
        ln.bound_reverse = fn.is_reverse
    _check_patterns(tables)


def _read_outside(a: Address, r: Address, get) -> None:
    """A read out of its expression run must name a member access."""
    read = get(r)
    if read is None or read.ctype is not CodeType.ACCESS_MEMBER:
        raise LoadError(f"code line {a} reads {r}, no row of its expression or member access")


def build_functions(tables: Tables, funcs: list[ExtendedLine], decls: dict, returns: dict) -> None:
    """The function table over its FUNC_OP rows, in address order, from the
    scope table and the declaration and `return:` rows index gathered. A
    row names a declaration scope of its own and a body scope, or has the
    derive marker that names its declaration right after that scope's end
    row: derivation writes the body into that gap."""
    rows, code = tables.scopes, tables.code
    for el in funcs:
        decl_start = el.left.addr
        pattern = decls.pop(decl_start, None)
        if pattern is None:
            raise LoadError(f"function at {el.address} has no declaration scope of its own")
        decl = rows[decl_start]
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
        if not pattern:
            raise LoadError(f"empty declaration scope at {decl_start}")
        root = pattern[-1]
        is_reverse = any(x.pending[s] is PendFlag.TRUE for x in pattern for s in VALUE_SLOTS)
        own_returns = returns.get(body_start, [])
        is_exp = el.op.text == "funcexp"
        if is_exp and not own_returns:
            # a rewrite stands for its return value; without one it has no result
            raise LoadError(f"rewrite rule at code line {el.address} has no return: statement")
        tables.functions[el.address] = FunctionInfo(
            decl_scope=decl_start,
            decl_root=root.address,
            body_scope=body_start,
            returns=own_returns,
            is_exp=is_exp,
            is_reverse=is_reverse,
            weight=el.result.num,
            func_op=el.address,
            name=root.op.text,
            class_scope=_nearest(rows, decl.parent, ScopeKind.CLASS),
            decl_rows=pattern,
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


def _check_patterns(tables: Tables) -> None:
    """No scope declares one pattern twice. Equal patterns share their
    scope, root operator and kind, so a function is digested only when an
    earlier one shares those with it."""
    code = tables.code
    firsts: dict[tuple, Optional[FunctionInfo]] = {}  # None once digested
    shapes: set[tuple] = set()
    for fn in tables.functions.values():
        key = (code[fn.func_op].scope, fn.name, fn.is_exp)
        first = firsts.setdefault(key, fn)
        if first is fn:
            continue
        if first is not None:
            shapes.add((key, _decl_digest(first)))
            firsts[key] = None
        shape = (key, _decl_digest(fn))
        if shape in shapes:
            raise DuplicateDeclaration(
                f"duplicate declaration of {fn.name!r} in the same scope, "
                f"again at code line {fn.func_op}"
            )
        shapes.add(shape)


def _decl_digest(fn: FunctionInfo) -> tuple:
    """Structural shape of a declaration pattern, for duplicate detection.

    An identifier counts by the order of its name's first occurrence, so
    `#a - #a` differs from `#a - #b` and `#b - #a` equals `#a - #b`.
    """
    index = {el.address: i for i, el in enumerate(fn.decl_rows)}
    names: dict[str, int] = {}
    shape = []
    for el in fn.decl_rows:
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
