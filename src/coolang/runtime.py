"""Active-record execution of preexecuted code.

`lower` turns the bound tables into a `Program` once per interpreter: one
flat instruction stream, indexed by integer program counter. Each longest
expression is expanded in place into one instruction per builtin or
forward call, children before their consumer, followed by one instruction
per reverse call, consumer first, so a solver always finds its required
value already written by the steps before it. Lines with nothing to do at
run time emit no instruction, and every line of an expression maps to its
first instruction. Jump targets, scope ranges, function bodies and class
bodies are all program counters into the stream.

`Interpreter.run` walks the stream in one loop. Each region (the file, a
scope, a function body, a class body) runs against one record. Entering a
scope, a call or a class body pushes a frame on an explicit stack, and
reaching the region's end pops it, so a COOL recursion never recurses in
Python. The loop bounds the call depth, and it counts a step at every
backward jump and every call entry against a step budget, so every run
ends. Names are read and written straight in the record dicts, in the
order `Record.resolve` walks them; a `Path` is made only for a formal,
which aliases its caller's storage.

Each call site carries a call plan that `lower` makes once (see
`CallSite`). So a call builds its body record with its locals and cross
references in place, looks for a class record only when its function
belongs to a class, and on exit checks only the formals a reverse call
solves.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from math import isfinite
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
    StepBudgetExceeded,
)
from .records import Path, Record, follow, instance_at

_SKIPPED_KINDS = (ScopeKind.DECL, ScopeKind.BODY, ScopeKind.CLASS)

# Instruction opcodes; an instruction is a tuple headed by one of these.
#   (_BINARY, apply, left, right, address)  builtin a op b, into the temporary
#   (_ASSIGN, source, target)           builtin =
#   (_CALL, site)                       forward call
#   (_RCALL, site)                      reverse call, fed the value at its line
#   (_JUMP, operand, target)
#   (_SCOPE, scope, end)                run [pc + 1, end) in a child record, then go
#                                       on at end (a scope's end row emits nothing)
#   (_SKIP, end)                        scope never entered: go on at end
#   (_DECLARE, name, class_name | None)
#   (_RETURN, operand)
#   (_PRINT, operand)                   builtin -->
#   (_NEG, operand, address)            builtin neg, into the temporary
_BINARY, _ASSIGN, _CALL, _RCALL, _JUMP, _SCOPE, _SKIP, _DECLARE, _RETURN, _PRINT, _NEG = range(11)

# Operand tags; an operand is a tuple headed by one of these.
#   (_CONST, value)                    number or text
#   (_NAME, bare, out)                 resolved by name through the records
#   (_TEMP, address)                   expression temporary in the record
#   (_MEMBER, bare, out, names)        member chain, walked by records.follow
#   (_EMPTY,)
_CONST, _NAME, _TEMP, _MEMBER, _EMPTY = range(5)
_EMPTY_OPERAND = (_EMPTY,)

class CallSite:
    """A call-bound root line. lower sets its call plan from the site's
    alignment with its declaration (_align). consts are the constant
    actuals, which become locals of the body. formals (bare, actual operand)
    alias the caller's storage, in the order the declaration tree pairs
    them: a temporary is bound to the caller's record directly, a name or
    member chain is resolved at each call. solves lists a reverse call's
    pending formals, which its body must leave holding a finite value.
    """

    __slots__ = ("line", "address", "fn", "start", "end", "receiver", "consts", "formals", "solves")

    def __init__(self, line: ExtendedLine, fn: FunctionInfo, start: int, end: int):
        self.line = line
        self.address = line.address
        self.fn = fn
        self.start = start  # body region [start, end) in program counters
        self.end = end
        receiver, dot, _ = line.op.text.rpartition(".")
        self.receiver = dotted_chain(receiver) if dot else None


class _Instantiation:
    """An instance under construction: one record per class of its class
    order, made in preorder, leftmost parent first; each class body runs
    once, after its parents'."""

    __slots__ = ("top", "name", "work", "records")

    def __init__(self, top: Record, name: str):
        self.top = top
        self.name = name  # the variable that receives the instance
        self.work = [(top, 0)]  # (record, parents linked so far)
        self.records = {top.scope: top}  # class scope -> its record


@dataclass
class Program:
    """The bound table lowered for execution, indexed by program counter."""

    code: list[tuple]
    classes: dict[Address, tuple[int, int, tuple[Address, ...]]]  # (start, end, parents)


def lower(tables: Tables) -> Program:
    """Resolve every static fact the interpreter needs, once.

    The first pass lowers each line with its targets as line indices and
    counts the instructions each line emits; the second turns those indices
    into program counters. The links of a loaded table were checked once
    by serialize._check_links, so every row and scope named here exists
    and each scope ends on a scope end row past its start.
    """
    lines = list(tables.code.lines())
    n = len(lines)
    index_of = {ln.address: i for i, ln in enumerate(lines)}

    def scope_range(start: Address) -> tuple[int, int]:
        return index_of[start], index_of[tables.scopes[start].end]

    bodies: dict[Address, tuple[int, int]] = {}  # function -> body lines
    sites: list[CallSite] = []

    def call_site(ln: ExtendedLine) -> CallSite:
        fn = tables.functions[ln.bound]
        body = bodies.get(ln.bound)
        if body is None:
            first, end = scope_range(fn.body_scope)
            body = bodies[ln.bound] = (first + 1, end)
        site = CallSite(ln, fn, *body)
        site.consts, site.formals, site.solves = _align(site, tables.code)
        sites.append(site)
        return site

    proto: list[tuple] = []  # instructions, targets still line indices
    width = [0] * n  # instructions each line emits
    i = 0
    while i < n:
        emitted = len(proto)
        ln = lines[i]
        t = ln.ctype
        j = i + 1
        if t is CodeType.EXPR:
            while j < n and lines[j].ctype is CodeType.EXPR:
                j += 1
            proto += _lower_run(lines[i:j], tables.code, call_site)
        elif t is CodeType.SCOPE_START:
            _, end = scope_range(ln.address)
            info = tables.scopes[ln.address]
            if ln.exec_flag is ExecFlag.FALSE or info.kind in _SKIPPED_KINDS:
                proto.append((_SKIP, end))
            else:
                proto.append((_SCOPE, ln.address, end))
        elif t is CodeType.VAR_DECL:
            name = split_markers(ln.result.text)[0]
            cls = ln.left.text if ln.left.kind is OperandKind.IDENT and ln.left.text else None
            proto.append((_DECLARE, name, cls))
        elif t is CodeType.RETURN:
            proto.append((_RETURN, _operand(ln.left, tables.code)))
        elif t is CodeType.JUMP:
            # a jump past the last line (the end of a trailing if-chain) ends
            # every region it runs in
            to = index_of.get(ln.right.addr, n)
            proto.append((_JUMP, _operand(ln.left, tables.code), to))
        # FUNC_OP, DERIVE_FUNC, CLASS_OP, ACCESS_MEMBER, EXPR_END and
        # SCOPE_END do nothing at run time and emit nothing. The count goes
        # on a run's last line, so every line of a run maps to its first
        # instruction.
        width[j - 1] = len(proto) - emitted
        i = j

    pc_of = list(itertools.accumulate(width, initial=0))  # line index -> pc
    code: list[tuple] = []
    for ins in proto:
        op = ins[0]
        if op == _SCOPE:
            ins = (_SCOPE, ins[1], pc_of[ins[2]])
        elif op == _SKIP:
            ins = (_SKIP, pc_of[ins[1]])
        elif op == _JUMP:
            ins = (_JUMP, ins[1], pc_of[ins[2]])
        code.append(ins)
    for site in sites:
        site.start, site.end = pc_of[site.start], pc_of[site.end]

    classes = {}
    for scope, info in tables.classes.items():
        first, end = scope_range(scope)
        classes[scope] = (pc_of[first + 1], pc_of[end], tuple(info.parents))
    return Program(code=code, classes=classes)


def _lower_run(run: list[ExtendedLine], table: CodeTable, call_site) -> list[tuple]:
    """One longest expression as its instructions, in the order they run.

    Forward steps follow a depth-first walk, children before their
    consumer, since spliced lines may sit after the line that reads them;
    each is a builtin or a _CALL. Reverse roots wait and run last, as
    _RCALLs in the reverse of that walk: a consumer solves first and leaves
    each producer the answer it needs.
    """
    by_addr = {ln.address: ln for ln in run}
    done: set[Address] = set()
    forward: list[tuple] = []
    reverse: list[tuple] = []
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
                forward.append(_builtin(ln, table))
            elif ln.root and ln.is_user_bound:
                if ln.bound_reverse:
                    reverse.append((_RCALL, call_site(ln)))
                else:
                    forward.append((_CALL, call_site(ln)))
    reverse.reverse()
    return forward + reverse


def _builtin(ln: ExtendedLine, table: CodeTable) -> tuple:
    op = ln.op.text
    left = _operand(ln.left, table)
    if op == "=":
        return (_ASSIGN, left, _operand(ln.result, table))
    if op == "-->":
        return (_PRINT, left)
    if op == "neg":
        return (_NEG, left, ln.address)
    apply = _APPLY.get(op)
    if apply is None:
        apply = _no_builtin(op)
    return (_BINARY, apply, left, _operand(ln.right, table), ln.address)


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
        return (_MEMBER, *table.member_chain(o.addr))
    return _EMPTY_OPERAND


# --- builtin evaluation ---
#
# Each binary builtin takes (a, b, address). Two floats with a finite
# result take the fast path; anything else goes through _num and _finite,
# which raise the runtime errors.


def _num(v, op: str, address: Address) -> float:
    if isinstance(v, float):
        return v
    raise CoolRuntimeError(f"{op!r} needs numbers, got {type(v).__name__} at {address}")


def _finite(v: float, op: str, address: Address) -> float:
    if isinstance(v, complex) or not isfinite(v):
        raise CoolRuntimeError(f"{op!r} left the number range at {address}")
    return v


def _equal(a, b, address: Address) -> float:
    return 1.0 if a == b else 0.0


def _comparison(op: str, test):
    def apply(a, b, address: Address) -> float:
        if a.__class__ is not float or b.__class__ is not float:
            a, b = _num(a, op, address), _num(b, op, address)
        return 1.0 if test(a, b) else 0.0

    return apply


def _arithmetic(op: str, fn):
    def apply(a, b, address: Address):
        if a.__class__ is float and b.__class__ is float:
            v = fn(a, b)
            if isfinite(v):
                return v
        elif op == "+" and isinstance(a, str) and isinstance(b, str):
            return a + b
        return _finite(fn(_num(a, op, address), _num(b, op, address)), op, address)

    return apply


def _divide(a, b, address: Address) -> float:
    x, y = _num(a, "/", address), _num(b, "/", address)
    if y == 0.0:
        raise CoolRuntimeError(f"division by zero at {address}")
    return _finite(x / y, "/", address)


def _power(a, b, address: Address) -> float:
    x, y = _num(a, "^", address), _num(b, "^", address)
    if x < 0.0 and y != math.floor(y):
        raise CoolRuntimeError(f"fractional power of a negative number at {address}")
    if x == 0.0 and y < 0.0:
        raise CoolRuntimeError(f"zero to a negative power at {address}")
    try:
        v = x**y
    except OverflowError:
        v = math.inf
    return _finite(v, "^", address)


def _no_builtin(op: str):
    def apply(a, b, address: Address):
        _num(a, op, address), _num(b, op, address)
        raise CoolRuntimeError(f"no builtin evaluation for {op!r}")

    return apply


_APPLY = {
    "==": _equal,
    "<": _comparison("<", operator.lt),
    ">": _comparison(">", operator.gt),
    "<=": _comparison("<=", operator.le),
    ">=": _comparison(">=", operator.ge),
    "+": _arithmetic("+", operator.add),
    "-": _arithmetic("-", operator.sub),
    "*": _arithmetic("*", operator.mul),
    "/": _divide,
    "^": _power,
}


# --- name access ---


def _read(record: Record, o: tuple):
    """The value of an operand; a missing value reads as 0.0.

    A name walks the records in Record.resolve's order: own data, cross
    references, the records the param query links reach, then the parent.
    """
    tag = o[0]
    if tag == _NAME:
        name = o[1]
        r = record.parent if o[2] else record
        while r is not None:
            data = r.data
            if name in data:
                v = data[name]
                break
            cross = r.cross_ref
            if name in cross:
                p = cross[name]
                v = p.record.data.get(p.key)
                break
            if r.param_query_links:
                p = r._resolve_local(name)
                if p is not None:
                    v = p.read()
                    break
            r = r.parent
        else:
            # unresolved names spring into the current record as numbers
            record.data[name] = None
            return 0.0
    elif tag == _TEMP:
        v = record.data.get(o[1])
    elif tag == _CONST:
        return o[1]
    elif tag == _MEMBER:
        v = follow(record, o[1], o[2], o[3]).read()
    else:
        return None
    return 0.0 if v is None else v


def _write(record: Record, target: tuple, v) -> None:
    """Store v where the operand names, a name found as _read finds it."""
    tag = target[0]
    if tag == _NAME:
        name = target[1]
        r = record.parent if target[2] else record
        while r is not None:
            data = r.data
            if name in data:
                data[name] = v
                return
            cross = r.cross_ref
            if name in cross:
                p = cross[name]
                p.record.data[p.key] = v
                return
            if r.param_query_links:
                p = r._resolve_local(name)
                if p is not None:
                    p.write(v)
                    return
            r = r.parent
        record.data[name] = v
    elif tag == _TEMP:
        record.data[target[1]] = v
    elif tag == _MEMBER:
        follow(record, target[1], target[2], target[3]).write(v)
    else:
        raise CoolRuntimeError("assignment needs a place to write")


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


# Run budgets: calls and instantiations nested, and steps counted at
# backward jumps and call entries. The loop_run workload takes 15 003 steps;
# the endless `while (1 > 0) { i = i + 1; }` takes 4.5 to 6.5 microseconds
# a step on a 2-core Xeon under CPython 3.11, so it stops after 4.5 to 6.5 s.
MAX_CALL_DEPTH = 10_000
MAX_STEPS = 1_000_000


class Interpreter:
    """Runs preexecuted tables. A run raises CallDepthExceeded when calls or
    instantiations nest past max_call_depth, and StepBudgetExceeded when it
    takes more than max_steps backward jumps and call entries together."""

    def __init__(
        self, tables: Tables, max_call_depth: int = MAX_CALL_DEPTH, max_steps: int = MAX_STEPS
    ):
        if not tables.preexecuted:
            raise CoolRuntimeError("code must be preexecuted before it can run")
        self.tables = tables
        self.program = lower(tables)
        self.max_call_depth = max_call_depth
        self.max_steps = max_steps
        self.output: list[str] = []
        self.call_log: list[Address] = []
        self.global_record = Record(scope=None)

    def run(self) -> Record:
        """Run the program on one loop and an explicit frame stack.

        A frame is (caller record, return pc, caller's region end, child
        record, site). The site is None for a scope, the CallSite for a
        call, and the _Instantiation for a class body.
        """
        frames: list[tuple] = []
        try:
            return self._run(frames)
        except BaseException:
            # a failed run still leaves the scopes it was in, innermost first
            for frame in reversed(frames):
                if frame[4] is None:
                    frame[3].destroy()
            raise

    def _run(self, frames: list[tuple]) -> Record:
        code = self.program.code
        output, call_log = self.output, self.call_log
        read, write = _read, _write
        max_depth, max_steps = self.max_call_depth, self.max_steps
        record = self.global_record
        pc, end = 0, len(code)
        depth = steps = 0
        returned, ret = False, None
        while True:
            if pc >= end:
                if not frames:
                    return self.global_record
                caller, pc, end, child, site = frames.pop()
                if site.__class__ is CallSite:
                    depth -= 1
                    child.destroy()
                    if returned:
                        caller.data[site.address] = ret
                        returned = False
                    for bare in site.solves:
                        p = child.cross_ref[bare]
                        v = p.record.data.get(p.key)
                        if v is None or isinstance(v, float) and not isfinite(v):
                            raise ReverseUnsatisfied(
                                f"{bare!r} was never solved by the reverse call"
                            )
                    call_log.append(site.address)
                elif site is None:
                    child.destroy()
                else:
                    returned = False
                    body = self._next_body(site)
                    if body is not None:
                        rec, start, stop = body
                        frames.append((caller, pc, end, rec, site))
                        record, pc, end = rec, start, stop
                        continue
                    depth -= 1
                    caller.data[site.name] = site.top
                record = caller
                continue

            ins = code[pc]
            op = ins[0]
            if op == _BINARY:
                record.data[ins[4]] = ins[1](read(record, ins[2]), read(record, ins[3]), ins[4])
                pc += 1
            elif op == _ASSIGN:
                write(record, ins[2], read(record, ins[1]))
                pc += 1
            elif op == _CALL or op == _RCALL:
                site = ins[1]
                if op == _RCALL:
                    ans = record.data.get(site.address)
                    if ans is None:
                        ans = 0.0
                else:
                    ans = None
                steps += 1
                if steps > max_steps:
                    raise StepBudgetExceeded(f"the run took more than {max_steps} steps")
                if depth >= max_depth:
                    raise CallDepthExceeded(f"calls nest deeper than {max_depth} levels")
                body = self._enter(record, site, ans)
                frames.append((record, pc + 1, end, body, site))
                depth += 1
                record, pc, end = body, site.start, site.end
            elif op == _JUMP:
                if _truthy(read(record, ins[1])):
                    target = ins[2]
                    if target <= pc:  # a loop's back edge: count a step
                        steps += 1
                        if steps > max_steps:
                            raise StepBudgetExceeded(f"the run took more than {max_steps} steps")
                    pc = target
                else:
                    pc += 1
            elif op == _SCOPE:
                child = Record(ins[1], record)
                frames.append((record, ins[2], end, child, None))
                record, pc, end = child, pc + 1, ins[2]
            elif op == _SKIP:
                pc = ins[1]
            elif op == _DECLARE:
                if ins[2] is None:
                    record.data[ins[1]] = None
                    pc += 1
                else:
                    if depth >= max_depth:
                        raise CallDepthExceeded(f"instances nest deeper than {max_depth} levels")
                    site = self._instantiation(ins[1], ins[2])
                    rec, start, stop = self._next_body(site)
                    frames.append((record, pc + 1, end, rec, site))
                    depth += 1
                    record, pc, end = rec, start, stop
            elif op == _RETURN:
                ret = read(record, ins[1])
                returned = True
                # leave the scopes up to the call or class body
                while frames and frames[-1][4] is None:
                    caller, _, end, child, _ = frames.pop()
                    child.destroy()
                    record = caller
                pc = end
            elif op == _PRINT:
                output.append(_format_value(read(record, ins[1])))
                pc += 1
            else:  # _NEG
                address = ins[2]
                v = -_num(read(record, ins[1]), "neg", address)
                record.data[address] = _finite(v, "neg", address)
                pc += 1

    # --- instances ---

    def _instantiation(self, name: str, class_name: str) -> _Instantiation:
        cscope = self.tables.class_scopes.get(class_name)
        if cscope is None:
            raise CoolRuntimeError(f"no class named {class_name!r}")
        return _Instantiation(Record(scope=cscope, parent=self.global_record), name)

    def _next_body(self, inst: _Instantiation) -> Optional[tuple[Record, int, int]]:
        """The next class body to run, as (record, start, end), linking parent
        records as the walk reaches them; None once every body has run."""
        classes = self.program.classes
        work = inst.work
        while work:
            rec, i = work.pop()
            start, end, parents = classes[rec.scope]
            if i < len(parents):
                work.append((rec, i + 1))
                link = inst.records.get(parents[i])
                if link is None:
                    link = inst.records[parents[i]] = Record(parents[i], self.global_record)
                    work.append((link, 0))
                rec.param_query_links.append(link)
            else:
                return rec, start, end
        return None

    # --- function calls ---

    def _enter(self, record: Record, site: CallSite, ans) -> Record:
        """The body record of one call."""
        formals: dict[str, Path] = {}
        for bare, o in site.formals:
            tag = o[0]
            if tag == _TEMP:
                formals[bare] = Path(record, o[1])
            elif tag == _NAME:
                # unresolved names spring into the current record as numbers
                formals[bare] = record.resolve(o[1], o[2]) or record.declare(o[1])
            elif tag == _MEMBER:
                formals[bare] = follow(record, o[1], o[2], o[3])
            else:
                raise CoolRuntimeError("a formal matched nothing that can hold a value")

        fn = site.fn
        parent = self.global_record
        if fn.class_scope is not None:
            start = record
            if site.receiver is not None:
                bare, out, names = site.receiver
                start = instance_at(follow(record, bare, out, names), ".".join((bare, *names)))
            found = _find_class_record(start, fn.class_scope)
            if found is None:
                raise CoolRuntimeError(
                    f"no instance of the class owning {fn.name!r} is reachable"
                )
            parent = found

        data = site.consts.copy() if site.consts else {}
        if ans is not None:
            data["ans"] = ans
        return Record(fn.body_scope, parent, data, formals)


def _align(site: CallSite, code: CodeTable) -> tuple[dict[str, object], tuple, tuple]:
    """The site's call plan: pair declaration formals with the call's
    operands, tree against tree, depth first and left before right, on a
    stack: patterns nest deep. A call line met twice means an operand
    cycle, which no tree has."""
    consts: dict[str, object] = {}
    formals: list[tuple[str, tuple]] = []
    solves: list[str] = []
    reverse = site.line.bound_reverse
    seen: set[str] = set()
    root = code[site.fn.decl_root]
    met = {site.address}  # the call's lines
    stack = [(root, site.line, SLOT_RIGHT), (root, site.line, SLOT_LEFT)]
    while stack:
        decl_ln, seg_ln, s = stack.pop()
        d = decl_ln.slot(s)
        actual = seg_ln.slot(s)
        if d.kind is OperandKind.ADDRESS:
            child_d = code.get(d.addr)
            child_s = code.get(actual.addr)
            if child_d is None or child_s is None or child_s.address in met:
                raise FormatError(
                    f"call at {site.address} does not follow its declaration's shape"
                )
            met.add(child_s.address)
            stack += [(child_d, child_s, SLOT_RIGHT), (child_d, child_s, SLOT_LEFT)]
            continue
        if d.kind is not OperandKind.IDENT or not decl_ln.formal[s]:
            continue
        bare = split_markers(d.text)[0]
        if not bare or bare in seen:
            continue
        seen.add(bare)
        o = _operand(actual, code)
        if o[0] == _CONST:
            # a constant actual becomes a local of the body, not a reference
            consts[bare] = o[1]
            continue
        formals.append((bare, o))
        if reverse and decl_ln.pending[s] is PendFlag.TRUE:
            solves.append(bare)
    return consts, tuple(formals), tuple(solves)


def _find_class_record(rec: Optional[Record], cscope: Address) -> Optional[Record]:
    """The nearest record of one class, inherited-class links included."""
    while rec is not None:
        for r in rec.linked():
            if r.scope == cscope:
                return r
        rec = rec.parent
    return None


def run_program(tables: Tables, **budgets) -> Interpreter:
    interp = Interpreter(tables, **budgets)
    interp.run()
    return interp
