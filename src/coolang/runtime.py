"""Active-record execution of preexecuted code.

`lower` turns the bound tables into a `Program` once per interpreter: one
flat instruction stream, indexed by integer program counter. Each longest
expression is expanded in place into one instruction per builtin or
forward call, in row order, which puts children before their consumer
(loader.index lets a row read only earlier rows), followed by one
instruction per reverse call in reverse row order, consumer first, so a
solver always finds its required value already written by the steps
before it. Lines with nothing to do at run time emit no instruction, and
every line of an expression maps to its first instruction. Jump targets,
scope ranges, function bodies and class bodies are all program counters
into the stream. Two common sequences are fused as they are lowered: a
builtin and the `=` that stores its result, and a `while` or `if` test's
last builtin, its `== 0` and the jump on it. A fused instruction sits at
the pc of its first part and runs the rest; the parts keep their slots,
so the stream keeps its length and every pc.

`Interpreter.run` walks the stream in one loop. Each region (the file, a
scope, a function body, a class body) runs against one record. Entering a
scope, a call or a class body pushes a frame on an explicit stack, and
reaching the region's end pops it, so a COOL recursion never recurses in
Python. The loop bounds the call depth, and it counts a step at every
backward jump and every call entry against a step budget, so every run
ends. Every operand is read through `_read` and every target written
through `_write`, which walk names straight through the record dicts, in
the order `Record.resolve` walks them; a `Path` is made only for a formal,
which aliases its caller's storage.

Each call site carries a call plan that `lower` makes once (see
`CallSite`). So a call builds its body record in the loop, with its
locals and cross references in place, looks for a class record only when
its function belongs to a class, and on exit checks only the formals a
reverse call solves.
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
from . import records as _records
from .records import Path, Record, follow, instance_at

_SKIPPED_KINDS = (ScopeKind.DECL, ScopeKind.BODY, ScopeKind.CLASS)

# Instruction opcodes; an instruction is a tuple headed by one of these.
#   (_ASSIGN, None, source, target)     builtin =
#   (_STORE, apply, left, right, address, target)
#                                       a _BINARY fused with the _ASSIGN of its result
#   (_BINARY, apply, left, right, address)  builtin a op b, into the temporary
#   (_BRANCH, apply, left, right, address, test, value, target)
#                                       a _BINARY fused with a test's `== value` of
#                                       its result and the _JUMP on that test
#   (_JUMP, operand, target)
#   (_SCOPE, scope, end)                run [pc + 1, end) in a child record, then go
#                                       on at end (a scope's end row emits nothing)
#   (_SKIP, end)                        scope never entered: go on at end
#   (_CALL, site)                       forward call
#   (_RCALL, site)                      reverse call, fed the value at its line
#   (_DECLARE, name, class_name | None)
#   (_RETURN, operand)
#   (_PRINT, operand)                   builtin -->
#   (_NEG, operand, address)            builtin neg, into the temporary
# A fused instruction runs the instructions after it that it absorbed and
# goes on past them. They keep their slots, so every pc keeps its meaning.
(_ASSIGN, _STORE, _BINARY, _BRANCH, _JUMP, _SCOPE, _SKIP, _CALL, _RCALL, _DECLARE, _RETURN,
 _PRINT, _NEG) = range(13)

# Operand tags; an operand is a tuple headed by one of these.
#   (_CONST, value)                    number or text
#   (_TEMP, address)                   expression temporary in the record
#   (_NAME, bare, out)                 resolved by name through the records; an
#                                      out: name from the parent on
#   (_MEMBER, bare, out, names)        member chain, walked by records.follow
#   (_EMPTY,)
_CONST, _TEMP, _NAME, _MEMBER, _EMPTY = range(5)
_EMPTY_OPERAND = (_EMPTY,)

# Enum members that lowering compares against, bound once: reading one off
# its class costs a lookup each row and operand
_EXPR_ROW, _SCOPE_ROW, _DECL_ROW = CodeType.EXPR, CodeType.SCOPE_START, CodeType.VAR_DECL
_RETURN_ROW, _JUMP_ROW, _MEMBER_ROW = CodeType.RETURN, CodeType.JUMP, CodeType.ACCESS_MEMBER
_EXPR_END_ROW = CodeType.EXPR_END
_NUMBER, _TEXT, _IDENT, _ADDRESS = (
    OperandKind.NUMBER, OperandKind.TEXT, OperandKind.IDENT, OperandKind.ADDRESS
)
_PENDING = PendFlag.TRUE


class _Names(dict):
    """Identifier text to its operand (_NAME, bare, out), each text's
    markers split once per lower call."""

    def __missing__(self, text: str) -> tuple:
        bare, _, _, out = split_markers(text)
        self[text] = name = (_NAME, bare, out)
        return name


class CallSite:
    """A call-bound root line. lower sets its call plan from the site's
    alignment with its declaration (_align). consts are the constant
    actuals, which become locals of the body. formals (bare, actual operand)
    alias the caller's storage, in the order the declaration tree pairs
    them: a temporary is bound to the caller's record directly, a name or
    member chain is resolved at each call. solves lists a reverse call's
    pending formals, which its body must leave holding a finite value.
    """

    __slots__ = ("line", "address", "fn", "scope", "class_scope", "start", "end", "receiver",
                 "consts", "formals", "solves")

    def __init__(self, line: ExtendedLine, fn: FunctionInfo, start: int, end: int):
        self.line = line
        self.address = line.address
        self.fn = fn
        self.scope = fn.body_scope
        self.class_scope = fn.class_scope  # None: the body's parent is the global record
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
    by loader.index, and its scopes and functions built from its rows, so
    every row and scope named here exists and each scope ends on a scope
    end row past its start.
    """
    lines = list(tables.code.lines())
    n = len(lines)
    names = _Names()
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
        site.consts, site.formals, site.solves = _align(site, tables.code, names)
        sites.append(site)
        return site

    proto: list[tuple] = []  # instructions, targets still line indices
    width = [0] * n  # instructions each line emits
    run_pc, run_stop = 0, -2  # the last expression run's first pc and the line after it
    i = 0
    while i < n:
        emitted = len(proto)
        ln = lines[i]
        t = ln.ctype
        j = i + 1
        if t is _EXPR_ROW:
            while j < n and lines[j].ctype is _EXPR_ROW:
                j += 1
            proto += _lower_run(lines[i:j], tables.code, names, call_site)
            run_pc, run_stop = emitted, j
        elif t is _SCOPE_ROW:
            _, end = scope_range(ln.address)
            if tables.scopes[ln.address].kind in _SKIPPED_KINDS:
                proto.append((_SKIP, end))
            else:
                proto.append((_SCOPE, ln.address, end))
        elif t is _DECL_ROW:
            name = names[ln.result.text][1]
            cls = ln.left.text if ln.left.kind is _IDENT and ln.left.text else None
            proto.append((_DECLARE, name, cls))
        elif t is _RETURN_ROW:
            proto.append((_RETURN, _operand(ln.left, tables.code, names)))
        elif t is _JUMP_ROW:
            # a jump past the last line (the end of a trailing if-chain) ends
            # every region it runs in
            to = index_of.get(ln.right.addr, n)
            jump = (_JUMP, _operand(ln.left, tables.code, names), to)
            # a test's last two instructions, its EXPR_END row and this jump
            # may fuse: no line maps to the second's pc and only those two
            # rows to the jump's, so no region starts or ends among the parts
            if i == run_stop + 1 and lines[run_stop].ctype is _EXPR_END_ROW:
                if emitted - run_pc >= 2:
                    proto[-2] = _branch(proto[-2], proto[-1], jump)
            proto.append(jump)
        # FUNC_OP, DERIVE_FUNC, CLASS_OP, ACCESS_MEMBER, EXPR_END and
        # SCOPE_END do nothing at run time and emit nothing. The count goes
        # on a run's last line, so every line of a run maps to its first
        # instruction.
        width[j - 1] = len(proto) - emitted
        i = j

    pc_of = list(itertools.accumulate(width, initial=0))  # line index -> pc
    # _BRANCH, _JUMP, _SCOPE and _SKIP end on their target
    code = [(*ins[:-1], pc_of[ins[-1]]) if _BRANCH <= ins[0] <= _SKIP else ins for ins in proto]
    for site in sites:
        site.start, site.end = pc_of[site.start], pc_of[site.end]

    classes = {}
    for scope, info in tables.classes.items():
        first, end = scope_range(scope)
        classes[scope] = (pc_of[first + 1], pc_of[end], tuple(info.parents))
    return Program(code=code, classes=classes)


def _lower_run(
    run: list[ExtendedLine], table: CodeTable, names: _Names, call_site
) -> list[tuple]:
    """One longest expression as its instructions, in the order they run.

    Forward steps, each a builtin or a _CALL, run in row order: every row
    reads only earlier rows (loader.index), so children come before their
    consumer. Reverse roots wait and run last, as _RCALLs in the reverse
    of row order: a consumer solves first and leaves each producer the
    answer it needs.
    """
    forward: list[tuple] = []
    reverse: list[tuple] = []
    for ln in run:
        if ln.bound is BUILTIN:
            ins = _builtin(ln, table, names)
            if ins[0] == _ASSIGN and forward and forward[-1][0] == _BINARY:
                if ins[2] == (_TEMP, forward[-1][4]):  # x = a op b
                    forward[-1] = (_STORE, *forward[-1][1:], ins[3])
            forward.append(ins)
        elif ln.root and ln.is_user_bound:
            if ln.bound_reverse:
                reverse.append((_RCALL, call_site(ln)))
            else:
                forward.append((_CALL, call_site(ln)))
    reverse.reverse()
    return forward + reverse


def _builtin(ln: ExtendedLine, table: CodeTable, names: _Names) -> tuple:
    op = ln.op.text
    left = _operand(ln.left, table, names)
    if op == "=":
        return (_ASSIGN, None, left, _operand(ln.result, table, names))
    if op == "-->":
        return (_PRINT, left)
    if op == "neg":
        return (_NEG, left, ln.address)
    # loader.index admits a builtin binding only on an operator of PREBIND_OPS
    return (_BINARY, _APPLY[op], left, _operand(ln.right, table, names), ln.address)


def _branch(first: tuple, test: tuple, jump: tuple) -> tuple:
    """first as a _BRANCH when it is a builtin whose temporary the test
    compares with a constant and the jump reads that comparison, else first."""
    if first[0] == _BINARY and test[0] == _BINARY and test[1] is _equal:
        if test[2] == (_TEMP, first[4]) and test[3][0] == _CONST and jump[1] == (_TEMP, test[4]):
            return (_BRANCH, *first[1:], test[4], test[3][1], jump[2])
    return first


def _operand(o: Operand, table: CodeTable, names: _Names) -> tuple:
    k = o.kind
    if k is _IDENT:
        return names[o.text]
    if k is _ADDRESS:
        target = table.get(o.addr)
        if target is None or target.ctype is not _MEMBER_ROW:
            return (_TEMP, o.addr)
        return (_MEMBER, *table.member_chain(o.addr))
    if k is _NUMBER:
        return (_CONST, o.num)
    if k is _TEXT:
        return (_CONST, o.text)
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
    if a.__class__ is float and b.__class__ is float and b:
        v = a / b
        if isfinite(v):
            return v
    x, y = _num(a, "/", address), _num(b, "/", address)
    if y == 0.0:
        raise CoolRuntimeError(f"division by zero at {address}")
    return _finite(x / y, "/", address)


def _power(a, b, address: Address) -> float:
    # any power of a positive float is legal
    if a.__class__ is not float or b.__class__ is not float or not a > 0.0:
        a, b = _num(a, "^", address), _num(b, "^", address)
        if a < 0.0 and b != math.floor(b):
            raise CoolRuntimeError(f"fractional power of a negative number at {address}")
        if a == 0.0 and b < 0.0:
            raise CoolRuntimeError(f"zero to a negative power at {address}")
    try:
        v = a**b
    except OverflowError:
        v = math.inf
    return _finite(v, "^", address)


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


def _format_value(v, first_id: int) -> str:
    """v as printed; an instance is numbered from its run's global record."""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, Record):
        return f"<instance {v.id - first_id}>"
    return repr(v)


# Run budgets: calls and instantiations nested, and steps counted at
# backward jumps and call entries. The loop_run workload takes 15 003 steps;
# the endless `while (1 > 0) { i = i + 1; }` takes 2.4 to 3.3 microseconds a
# step on a shared 2-core Xeon under CPython 3.11 (CPU time, 1 000 000 steps,
# 11 of 12 runs; one took 4.3), so it stops after 2.4 to 3.3 s.
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
        top = record = self.global_record
        pc, end = 0, len(code)
        depth = steps = 0
        returned, ret = False, None
        while True:
            if pc >= end:
                if not frames:
                    return top
                caller, pc, end, child, site = frames.pop()
                if site.__class__ is _Instantiation:
                    returned = False
                    body = self._next_body(site)
                    if body is not None:
                        rec, start, stop = body
                        frames.append((caller, pc, end, rec, site))
                        record, pc, end = rec, start, stop
                        continue
                    depth -= 1
                    caller.data[site.name] = site.top
                else:
                    if not child.destroyed:  # child.destroy(), inline
                        child.destroyed = True
                        _records.destroyed_count += 1
                    if site is not None:  # a call's end
                        depth -= 1
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
                record = caller
                continue

            ins = code[pc]
            op = ins[0]
            if op <= _BRANCH:
                v = read(record, ins[2])
                if op == _ASSIGN:
                    pc += 1
                else:
                    v = record.data[ins[4]] = ins[1](v, read(record, ins[3]), ins[4])
                    if op == _BINARY:
                        pc += 1
                        continue
                    if op == _BRANCH:
                        # the test's == at pc + 1 and the jump on it at pc + 2
                        if v == ins[6]:
                            record.data[ins[5]] = 1.0
                            target = ins[7]
                            if target <= pc + 2:  # a loop's back edge: count a step
                                steps += 1
                                if steps > max_steps:
                                    raise StepBudgetExceeded(
                                        f"the run took more than {max_steps} steps"
                                    )
                            pc = target
                        else:
                            record.data[ins[5]] = 0.0
                            pc += 3
                        continue
                    pc += 2
                write(record, ins[-1], v)
            elif op == _CALL or op == _RCALL:
                site = ins[1]
                steps += 1
                if steps > max_steps:
                    raise StepBudgetExceeded(f"the run took more than {max_steps} steps")
                if depth >= max_depth:
                    raise CallDepthExceeded(f"calls nest deeper than {max_depth} levels")
                # the body record: formals alias the caller's storage
                formals = {}
                for bare, o in site.formals:
                    if o[0] == _TEMP:
                        formals[bare] = Path(record, o[1])
                    elif o[0] == _NAME:
                        # unresolved names spring into the current record as numbers
                        formals[bare] = record.resolve(o[1], o[2]) or record.declare(o[1])
                    elif o[0] == _MEMBER:
                        formals[bare] = follow(record, o[1], o[2], o[3])
                    else:
                        raise CoolRuntimeError("a formal matched nothing that can hold a value")
                data = site.consts.copy() if site.consts else {}
                if op == _RCALL:
                    ans = record.data.get(site.address)
                    data["ans"] = 0.0 if ans is None else ans
                parent = top if site.class_scope is None else _class_record(record, site)
                body = Record(site.scope, parent, data, formals)
                frames.append((record, pc + 1, end, body, site))
                depth += 1
                record, pc, end = body, site.start, site.end
            elif op == _JUMP:
                o = ins[1]
                v = o[1] if o[0] == _CONST else read(record, o)
                if (v != 0.0) if v.__class__ is float else _truthy(v):
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
                output.append(_format_value(read(record, ins[1]), top.id))
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

def _align(
    site: CallSite, code: CodeTable, names: _Names
) -> tuple[dict[str, object], tuple, tuple]:
    """The site's call plan: pair declaration formals with the call's
    operands, tree against tree, depth first and left before right, on a
    stack: patterns nest deep. A loaded table has no cycle of reads, but a
    row that two of the call's slots share is no tree either: a call line
    met twice is refused."""
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
        if d.kind is _ADDRESS:
            child_d = code.get(d.addr)
            child_s = code.get(actual.addr)
            if child_d is None or child_s is None or child_s.address in met:
                raise FormatError(
                    f"call at {site.address} does not follow its declaration's shape"
                )
            met.add(child_s.address)
            stack += [(child_d, child_s, SLOT_RIGHT), (child_d, child_s, SLOT_LEFT)]
            continue
        if d.kind is not _IDENT or not decl_ln.formal[s]:
            continue
        bare = names[d.text][1]
        if not bare or bare in seen:
            continue
        seen.add(bare)
        o = _operand(actual, code, names)
        if o[0] == _CONST:
            # a constant actual becomes a local of the body, not a reference
            consts[bare] = o[1]
            continue
        formals.append((bare, o))
        if reverse and decl_ln.pending[s] is _PENDING:
            solves.append(bare)
    return consts, tuple(formals), tuple(solves)


def _class_record(record: Record, site: CallSite) -> Record:
    """The record of the class owning site's function that the call reaches:
    the nearest one, inherited-class links included, from the receiver's
    instance or else from the calling record."""
    rec = record
    if site.receiver is not None:
        bare, out, names = site.receiver
        rec = instance_at(follow(record, bare, out, names), ".".join((bare, *names)))
    while rec is not None:
        for r in rec.linked():
            if r.scope == site.class_scope:
                return r
        rec = rec.parent
    raise CoolRuntimeError(f"no instance of the class owning {site.fn.name!r} is reachable")


def run_program(tables: Tables, **budgets) -> Interpreter:
    interp = Interpreter(tables, **budgets)
    interp.run()
    return interp
