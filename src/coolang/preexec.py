"""Pre-execution: bind every live expression before anything runs.

The walker moves through the code table in address order, skipping
declaration templates, and hands each longest expression to the search.
Variable declarations populate a static record universe (one record per
scope, class instances share their class record) so that matching can
answer storage questions. A derivation marker pauses the walk to build
the reverse function's body from the forward one.
"""

from __future__ import annotations

from typing import Callable, Optional

from .addresses import Address
from .code import (
    CodeType,
    ExtendedLine,
    OperandKind,
    ScopeKind,
    Tables,
    dotted_chain,
    split_markers,
)
from .errors import CoolRuntimeError
from .matching import BindContext
from .records import Path, Record, follow
from .search import BindOutcome, Declarations, Observer, SearchOptions, bind_expression


class PreexecUniverse:
    """Static records standing in for the regions that will exist at runtime."""

    def __init__(self, tables: Tables):
        self.tables = tables
        self.declarations = Declarations(tables)
        # a lexical parent starts before its children, so its record is made
        # first; a derived body's scope, added later, lies behind the walk
        self._by_scope: dict[Optional[Address], Record] = {None: Record(scope=None)}
        for s in sorted(tables.scopes):
            self._by_scope[s] = Record(scope=s, parent=self._by_scope[tables.scopes[s].parent])
        for s, info in tables.classes.items():
            self._by_scope[s].param_query_links.extend(self._by_scope[p] for p in info.parents)

    def record_for(self, scope: Optional[Address]) -> Record:
        """The scope's record; None names the global record."""
        return self._by_scope[scope]

    def declare_from(self, line: ExtendedLine) -> None:
        rec = self.record_for(line.scope)
        name = split_markers(line.result.text)[0]
        if line.left.kind is OperandKind.IDENT and line.left.text:
            # instance declaration: all instances share the class record here
            cls = self.tables.class_scopes.get(line.left.text)
            rec.declare(name, self.record_for(cls) if cls is not None else None)
        else:
            rec.declare(name)

    # --- resolution hooks ---

    def resolve(
        self, scope: Optional[Address], bare: str, skip_current: bool
    ) -> Optional[Path]:
        return self.record_for(scope).resolve(bare, skip_current=skip_current)

    def path_of_access(
        self, addr: Address, scope: Optional[Address]
    ) -> Optional[Path]:
        chain = self.tables.code.member_chain(addr)
        if chain is None:
            return None
        try:
            return follow(self.record_for(scope), *chain)
        except CoolRuntimeError:
            return None

    def class_of_instance(
        self, receiver: str, scope: Optional[Address]
    ) -> Optional[Address]:
        try:
            value = follow(self.record_for(scope), *dotted_chain(receiver)).read()
        except CoolRuntimeError:
            return None
        if isinstance(value, Record) and value.scope in self.tables.classes:
            return value.scope
        return None

    def context_for(self, scope: Optional[Address]) -> BindContext:
        return BindContext(
            tables=self.tables,
            stmt_scope=scope,
            resolve=self.resolve,
            resolve_path_line=lambda addr: self.path_of_access(addr, scope),
            instance_class=lambda recv: self.class_of_instance(recv, scope),
            declarations=self.declarations,
        )


def preexecute(
    tables: Tables,
    options: Optional[SearchOptions] = None,
    observer: Optional[Observer] = None,
    visits: Optional[dict[Address, int]] = None,
    on_bound: Optional[Callable[[Address, BindOutcome], None]] = None,
) -> PreexecUniverse:
    """Bind the whole table in place; returns the record universe used."""
    from .inversion import derive_reverse_body

    opts = options or SearchOptions()
    uni = PreexecUniverse(tables)

    a = tables.code.first_address()
    while a is not None:
        ln = tables.code[a]
        if ln.ctype is CodeType.SCOPE_START and tables.scopes[a].kind is ScopeKind.DECL:
            a = tables.code.next_after(tables.scopes[a].end)
            continue
        if ln.ctype is CodeType.VAR_DECL:
            uni.declare_from(ln)
            a = tables.code.next_after(a)
            continue
        if ln.ctype is CodeType.EXPR:
            run = tables.expression_run(a)
            # a splice rewrites only the run's own gap, so what follows stays
            a = tables.code.next_after(run[-1].address)
            if all(l.bound is not None for l in run):
                continue
            if visits is not None:
                visits[run[0].address] = visits.get(run[0].address, 0) + 1
            outcome = bind_expression(
                tables, run, uni.context_for(ln.scope), opts, observer
            )
            if on_bound is not None:
                on_bound(run[0].address, outcome)
            continue
        if ln.ctype is CodeType.DERIVE_FUNC:
            derive_reverse_body(tables, uni, ln, opts, observer)
            a = tables.code.next_after(a)
            continue
        a = tables.code.next_after(a)

    tables.preexecuted = True
    return uni
