"""Active-record execution of preexecuted code.

`lower` turns the bound tables into a `Program` once per interpreter: one
instruction per code line, indexed by integer program counter, with jump
targets, scope ranges and operand lookups resolved up front. Each region
(the file, a scope, a function body) then runs against one record.
Expression runs evaluate in two passes: forward for builtins and forward
functions, then backward for reverse functions, so a solver always finds
its required value already written by the lines above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .addresses import Address
from .code import (
    BUILTIN,
    SLOT_LEFT,
    SLOT_RIGHT,
    CodeTable,
    CodeType,
    ExecFlag,
    ExtendedLine,
    FunctionInfo,
    Operand,
    OperandKind,
    PendFlag,
    ScopeKind,
    Tables,
    dotted_chain,
    split_markers,
)
from .errors import (
    CallDepthExceeded,
    CoolRuntimeError,
    FormatError,
    ReverseUnsatisfied,
)
from .records import Path, Record, follow, instance_at

_SKIPPED_KINDS = (ScopeKind.DECL, ScopeKind.BODY, ScopeKind.CLASS)

# Instruction opcodes; an instruction is a tuple headed by one of these.
#   (_NOP,)
#   (_SKIP, after)                     scope never entered
#   (_SCOPE, scope, end, after)        run [pc + 1, end) in a child record
#   (_EXPR, forward, reverse, after)   one longest expression
#   (_DECLARE, name, class_name | None)
#   (_RETURN, operand)
#   (_JUMP, operand, target)
_NOP, _SKIP, _SCOPE, _EXPR, _DECLARE, _RETURN, _JUMP = range(7)

# Operand tags; an operand is a tuple headed by one of these.
#   (_CONST, value)                    number or text
#   (_NAME, bare, out)                 resolved by name through the records
#   (_TEMP, address)                   expression temporary in the record
#   (_MEMBER, bare, out, names)        member chain, walked by records.follow
#   (_EMPTY,)
_CONST, _NAME, _TEMP, _MEMBER, _EMPTY = range(5)
_EMPTY_OPERAND = (_EMPTY,)


class CallSite:
    """A call-bound root line, with its alignment plan memoized on first call.

    The plan lists (bare formal, actual operand, pending) in the order the
    declaration tree pairs formals with the call's operands; a _CONST actual
    becomes a local of the body rather than a reference.
    """

    __slots__ = ("line", "address", "fn", "start", "end", "receiver", "plan")

    def __init__(self, line: ExtendedLine, fn: FunctionInfo, start: int, end: int):
        self.line = line
        self.address = line.address
        self.fn = fn
        self.start = start  # body region [start, end) in program counters
        self.end = end
        receiver, dot, _ = line.op.text.rpartition(".")
        self.receiver = dotted_chain(receiver) if dot else None
        self.plan: Optional[list[tuple[str, tuple, bool]]] = None


@dataclass
class Program:
    """The bound table lowered for execution, indexed by program counter."""

    code: list[tuple]
    classes: dict[Address, tuple[int, int, tuple[Address, ...]]]  # (start, end, parents)
    class_scopes: dict[str, Address]  # class name -> class scope


def lower(tables: Tables) -> Program:
    """Resolve every static fact the interpreter needs, once.

    Raises FormatError for a reference that names nothing in the tables.
    """
    lines = list(tables.code.lines())
    pc_of = {ln.address: pc for pc, ln in enumerate(lines)}

    def pc(addr: Optional[Address], what: str) -> int:
        found = pc_of.get(addr)
        if found is None:
            raise FormatError(f"{what} {addr} is not in the code table")
        return found

    def scope_range(start: Address, what: str) -> tuple[int, int]:
        info = tables.scopes.get(start)
        if info is None:
            raise FormatError(f"{what} {start} has no scope row")
        first = pc(start, what)
        end = pc(info.end, f"end of {what}")
        if end < first:
            raise FormatError(f"{what} {start} ends before it starts")
        return first, end

    bodies: dict[Address, tuple[int, int]] = {}  # function -> body region

    def call_site(ln: ExtendedLine) -> CallSite:
        fn = tables.functions.get(ln.bound)
        if fn is None:
            raise FormatError(f"line {ln.address} is bound to no function")
        body = bodies.get(ln.bound)
        if body is None:
            if fn.body_scope is None:
                raise FormatError(f"line {ln.address} is bound to a function without a body")
            pc(fn.decl_root, "declaration root")
            first, end = scope_range(fn.body_scope, "function body")
            body = bodies[ln.bound] = (first + 1, end)
        return CallSite(ln, fn, *body)

    code: list[tuple] = []
    n = len(lines)
    i = 0
    while i < n:
        ln = lines[i]
        t = ln.ctype
        if t is CodeType.EXPR:
            j = i
            while j < n and lines[j].ctype is CodeType.EXPR:
                j += 1
            ins = _lower_run(lines[i:j], tables.code, call_site, j)
            code.extend([ins] * (j - i))
            i = j
            continue
        if t is CodeType.SCOPE_START:
            _, end = scope_range(ln.address, "scope")
            info = tables.scopes[ln.address]
            if ln.exec_flag is ExecFlag.FALSE or info.kind in _SKIPPED_KINDS:
                ins = (_SKIP, end + 1)
            else:
                ins = (_SCOPE, ln.address, end, end + 1)
        elif t is CodeType.VAR_DECL:
            name = split_markers(ln.result.text)[0]
            cls = ln.left.text if ln.left.kind is OperandKind.IDENT and ln.left.text else None
            ins = (_DECLARE, name, cls)
        elif t is CodeType.RETURN:
            ins = (_RETURN, _operand(ln.left, tables.code))
        elif t is CodeType.JUMP:
            if ln.right.kind is not OperandKind.ADDRESS:
                raise FormatError(f"jump at {ln.address} has no target address")
            target = ln.right.addr
            # a jump past the last line (the end of a trailing if-chain) ends
            # every region it runs in
            to = n if target > lines[-1].address else pc(target, "jump target")
            ins = (_JUMP, _operand(ln.left, tables.code), to)
        else:
            # FUNC_OP, DERIVE_FUNC, CLASS_OP, ACCESS_MEMBER, EXPR_END,
            # SCOPE_END: nothing to do at the top level
            ins = (_NOP,)
        code.append(ins)
        i += 1

    classes = {}
    class_scopes: dict[str, Address] = {}
    for scope, info in tables.classes.items():
        first, end = scope_range(scope, "class")
        for p in info.parents:
            if p not in tables.classes:
                raise FormatError(f"class {info.name!r} inherits the unknown class {p}")
        classes[scope] = (first + 1, end, tuple(info.parents))
        class_scopes.setdefault(info.name, scope)
    return Program(code=code, classes=classes, class_scopes=class_scopes)


def _lower_run(run: list[ExtendedLine], table: CodeTable, call_site, after: int) -> tuple:
    """One longest expression as (_EXPR, forward steps, reverse roots, after).

    Forward steps follow a depth-first walk, children before their
    consumer, since spliced lines may sit after the line that reads them;
    each step is a CallSite or a builtin (op, left, right, result, address).
    Reverse roots wait and run last, in the reverse of that walk: a
    consumer solves first and leaves each producer the answer it needs.
    """
    by_addr = {ln.address: ln for ln in run}
    done: set[Address] = set()
    forward: list = []
    reverse: list = []
    for top in run:
        if top.address in done:
            continue
        done.add(top.address)
        stack = [[top, 0]]
        while stack:
            frame = stack[-1]
            ln, slot = frame
            if slot < 2:
                frame[1] += 1
                o = ln.left if slot == 0 else ln.right
                if o.kind is OperandKind.ADDRESS:
                    child = by_addr.get(o.addr)
                    if child is not None and child.address not in done:
                        done.add(child.address)
                        stack.append([child, 0])
                continue
            stack.pop()
            if ln.bound is BUILTIN:
                forward.append(
                    (
                        ln.op.text,
                        _operand(ln.left, table),
                        _operand(ln.right, table),
                        _operand(ln.result, table),
                        ln.address,
                    )
                )
            elif ln.root and ln.is_user_bound:
                (reverse if ln.bound_reverse else forward).append(call_site(ln))
    return (_EXPR, tuple(forward), tuple(reversed(reverse)), after)


def _operand(o: Operand, table: CodeTable) -> tuple:
    k = o.kind
    if k is OperandKind.NUMBER:
        return (_CONST, o.num)
    if k is OperandKind.TEXT:
        return (_CONST, o.text)
    if k is OperandKind.IDENT:
        bare, _, _, out = split_markers(o.text)
        return (_NAME, bare, out)
    if k is OperandKind.ADDRESS:
        target = table.get(o.addr)
        if target is None or target.ctype is not CodeType.ACCESS_MEMBER:
            return (_TEMP, o.addr)
        chain = table.member_chain(o.addr)
        if chain is None:
            raise FormatError(f"member access {o.addr} does not lead to a name")
        return (_MEMBER, *chain)
    return _EMPTY_OPERAND


def _truthy(v) -> bool:
    if v is None:
        return False
    if isinstance(v, float):
        return v != 0.0
    return bool(v)


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, Record):
        return f"<instance {v.id}>"
    return repr(v)


class Interpreter:
    def __init__(self, tables: Tables):
        if not tables.preexecuted:
            raise CoolRuntimeError("code must be preexecuted before it can run")
        self.tables = tables
        self.program = lower(tables)
        self.output: list[str] = []
        self.call_log: list[Address] = []
        self.global_record = Record(scope=None)
        self._ret_value = None

    def run(self) -> Record:
        try:
            self._execute(self.global_record, 0, len(self.program.code))
        except RecursionError:
            raise CallDepthExceeded(
                "calls nest deeper than the interpreter's recursion limit"
            ) from None
        return self.global_record

    # --- region execution ---

    def _execute(self, record: Record, pc: int, end: int) -> bool:
        """Run instructions [pc, end); True means a return unwound through here."""
        code = self.program.code
        while pc < end:
            ins = code[pc]
            op = ins[0]
            if op == _EXPR:
                self._eval_longest(record, ins[1], ins[2])
                pc = ins[3]
            elif op == _NOP:
                pc += 1
            elif op == _JUMP:
                if _truthy(self._value(record, ins[1])):
                    pc = ins[2]
                else:
                    pc += 1
            elif op == _SCOPE:
                child = Record(scope=ins[1], parent=record)
                try:
                    returned = self._execute(child, pc + 1, ins[2])
                finally:
                    child.destroy()
                if returned:
                    return True
                pc = ins[3]
            elif op == _SKIP:
                pc = ins[1]
            elif op == _DECLARE:
                self._declare(record, ins[1], ins[2])
                pc += 1
            else:  # _RETURN
                self._ret_value = self._value(record, ins[1])
                return True
        return False

    def _declare(self, record: Record, name: str, class_name: Optional[str]) -> None:
        if class_name is None:
            record.declare(name)
            return
        cscope = self.program.class_scopes.get(class_name)
        if cscope is None:
            raise CoolRuntimeError(f"no class named {class_name!r}")
        record.declare(name, self._instantiate(cscope))

    def _instantiate(self, cscope: Address) -> Record:
        """An instance, with one linked record per parent class. On a stack:
        records are made in preorder, leftmost parent first, and each class
        body runs after its parents' bodies."""
        classes = self.program.classes
        top = Record(scope=cscope, parent=self.global_record)
        stack = [(top, 0)]
        while stack:
            rec, i = stack.pop()
            start, end, parents = classes[rec.scope]
            if i < len(parents):
                stack.append((rec, i + 1))
                link = Record(scope=parents[i], parent=self.global_record)
                rec.param_query_links.append(link)
                stack.append((link, 0))
            else:
                self._execute(rec, start, end)
        return top

    # --- expression evaluation ---

    def _eval_longest(self, record: Record, forward: tuple, reverse: tuple) -> None:
        for step in forward:
            if step.__class__ is CallSite:
                self._call(record, step, None)
            else:
                self._exec_builtin(record, step)
        for site in reverse:
            ans = record.data.get(site.address)
            self._call(record, site, 0.0 if ans is None else ans)

    def _value(self, record: Record, o: tuple):
        tag = o[0]
        if tag == _NAME:
            v = self._name_path(record, o[1], o[2]).read()
        elif tag == _TEMP:
            v = record.data.get(o[1])
        elif tag == _CONST:
            return o[1]
        elif tag == _MEMBER:
            v = follow(record, o[1], o[2], o[3]).read()
        else:
            return None
        return 0.0 if v is None else v

    def _name_path(self, record: Record, bare: str, skip_current: bool) -> Path:
        p = record.resolve(bare, skip_current=skip_current)
        if p is None:
            # unresolved names spring into the current record as numbers
            p = record.declare(bare)
        return p

    # --- builtins ---

    def _exec_builtin(self, record: Record, step: tuple) -> None:
        op, left, right, result, address = step
        if op == "=":
            self._write_target(record, result, self._value(record, left))
            return
        if op == "-->":
            self.output.append(_format_value(self._value(record, left)))
            return
        if op == "neg":
            v = self._num(self._value(record, left), op, address)
            record.data[address] = self._finite(-v, op, address)
            return
        a = self._value(record, left)
        b = self._value(record, right)
        record.data[address] = self._apply(op, a, b, address)

    def _write_target(self, record: Record, target: tuple, v) -> None:
        tag = target[0]
        if tag == _NAME:
            self._name_path(record, target[1], target[2]).write(v)
        elif tag == _TEMP:
            record.data[target[1]] = v
        elif tag == _MEMBER:
            follow(record, target[1], target[2], target[3]).write(v)
        else:
            raise CoolRuntimeError("assignment needs a place to write")

    def _num(self, v, op: str, address: Address) -> float:
        if isinstance(v, float):
            return v
        raise CoolRuntimeError(
            f"{op!r} needs numbers, got {type(v).__name__} at {address}"
        )

    def _finite(self, v: float, op: str, address: Address) -> float:
        if isinstance(v, complex) or not math.isfinite(v):
            raise CoolRuntimeError(f"{op!r} left the number range at {address}")
        return v

    def _apply(self, op: str, a, b, address: Address):
        if op == "==":
            return 1.0 if a == b else 0.0
        if op in ("<", ">", "<=", ">="):
            x, y = self._num(a, op, address), self._num(b, op, address)
            return 1.0 if eval_compare(op, x, y) else 0.0
        if op == "+" and isinstance(a, str) and isinstance(b, str):
            return a + b
        x, y = self._num(a, op, address), self._num(b, op, address)
        if op == "+":
            return self._finite(x + y, op, address)
        if op == "-":
            return self._finite(x - y, op, address)
        if op == "*":
            return self._finite(x * y, op, address)
        if op == "/":
            if y == 0.0:
                raise CoolRuntimeError(f"division by zero at {address}")
            return self._finite(x / y, op, address)
        if op == "^":
            if x < 0.0 and y != math.floor(y):
                raise CoolRuntimeError(
                    f"fractional power of a negative number at {address}"
                )
            if x == 0.0 and y < 0.0:
                raise CoolRuntimeError(f"zero to a negative power at {address}")
            return self._finite(x**y, op, address)
        raise CoolRuntimeError(f"no builtin evaluation for {op!r}")

    # --- function calls ---

    def _call(self, record: Record, site: CallSite, ans) -> None:
        plan = site.plan
        if plan is None:
            plan = site.plan = self._align(site)
        formals: dict[str, Path] = {}
        locals_: dict[str, object] = {}
        pending: list[tuple[str, Path]] = []
        for bare, actual, is_pending in plan:
            if actual[0] == _CONST:
                locals_[bare] = actual[1]
                continue
            path = self._actual_path(record, actual)
            formals[bare] = path
            if is_pending:
                pending.append((bare, path))

        fn = site.fn
        parent = self.global_record
        if fn.class_scope is not None:
            start = record
            if site.receiver is not None:
                bare, out, names = site.receiver
                start = instance_at(
                    follow(record, bare, out, names), ".".join((bare, *names))
                )
            found = self._find_class_record(start, fn.class_scope)
            if found is None:
                raise CoolRuntimeError(
                    f"no instance of the class owning {fn.name!r} is reachable"
                )
            parent = found

        body = Record(scope=fn.body_scope, parent=parent)
        body.cross_ref.update(formals)
        for bare, v in locals_.items():
            body.declare(bare, v)
        if ans is not None:
            body.declare("ans", ans)

        self._ret_value = None
        returned = self._execute(body, site.start, site.end)
        body.destroy()
        if returned:
            record.data[site.address] = self._ret_value

        if ans is not None:
            for bare, path in pending:
                v = path.read()
                if v is None or (isinstance(v, float) and not math.isfinite(v)):
                    raise ReverseUnsatisfied(
                        f"{bare!r} was never solved by the reverse call"
                    )
        self.call_log.append(site.address)

    def _find_class_record(self, rec: Optional[Record], cscope: Address) -> Optional[Record]:
        """The nearest record of one class, inherited-class links included."""
        while rec is not None:
            for r in rec.linked():
                if r.scope == cscope:
                    return r
            rec = rec.parent
        return None

    def _align(self, site: CallSite) -> list[tuple[str, tuple, bool]]:
        """Pair declaration formals with the call's operands, tree against tree,
        depth first and left before right, on a stack: patterns nest deep."""
        code = self.tables.code
        plan: list[tuple[str, tuple, bool]] = []
        seen: set[str] = set()
        root = code[site.fn.decl_root]
        stack = [(root, site.line, SLOT_RIGHT), (root, site.line, SLOT_LEFT)]
        while stack:
            decl_ln, seg_ln, s = stack.pop()
            d = decl_ln.slot(s)
            actual = seg_ln.slot(s)
            if d.kind is OperandKind.ADDRESS:
                child_d = code.get(d.addr)
                child_s = code.get(actual.addr)
                if child_d is None or child_s is None:
                    raise FormatError(
                        f"call at {site.address} does not follow its declaration's shape"
                    )
                stack += [(child_d, child_s, SLOT_RIGHT), (child_d, child_s, SLOT_LEFT)]
                continue
            if d.kind is not OperandKind.IDENT or not decl_ln.formal[s]:
                continue
            bare = split_markers(d.text)[0]
            if not bare or bare in seen:
                continue
            seen.add(bare)
            plan.append(
                (bare, _operand(actual, code), decl_ln.pending[s] is PendFlag.TRUE)
            )
        return plan

    def _actual_path(self, record: Record, o: tuple) -> Path:
        tag = o[0]
        if tag == _NAME:
            return self._name_path(record, o[1], o[2])
        if tag == _MEMBER:
            return follow(record, o[1], o[2], o[3])
        if tag == _TEMP:
            return Path(record, o[1])
        raise CoolRuntimeError("a formal matched nothing that can hold a value")


def eval_compare(op: str, x: float, y: float) -> bool:
    if op == "<":
        return x < y
    if op == ">":
        return x > y
    if op == "<=":
        return x <= y
    return x >= y


def run_program(tables: Tables) -> Interpreter:
    interp = Interpreter(tables)
    interp.run()
    return interp
