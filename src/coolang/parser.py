"""Compiler front end: precompiled text to a quaternion line stream.

Each expression compiles while it is parsed: a parse method emits the
lines of its production as it reduces, post-order, one line per operator
with its result slot holding its own address, and returns the operand
that stands for its value. Member paths stay unread until something uses
them, so a path before `(` becomes a dotted method call. At the end of
each statement its member accesses move in front of its expression lines,
so that every longest expression stays one contiguous run of EXPR lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .addresses import Address, row_address
from .code import (
    OUT_MARK,
    PENDING_MARK,
    UNRELATED_MARK,
    CodeLine,
    CodeType,
    Operand,
    OperandKind,
)
from .errors import ParseError
from .precompile import KEYWORDS, TOKEN

# each level left-associative; unary minus and ^ bind tighter than all of them
_PREC = {"==": 1, ">": 1, "<": 1, ">=": 1, "<=": 1, "+": 2, "-": 2, "*": 3, "/": 3}

_KINDS = (None, "string", "number", "ident", "op")
_ESCAPE = re.compile(r"\\(.)", re.S)


class Token(NamedTuple):
    kind: str  # ident | number | string | op | eof
    text: str
    pos: int


def _unescape(m: re.Match) -> str:
    return {"n": "\n", "t": "\t"}.get(m[1], m[1])


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in TOKEN.finditer(text):
        k = m.lastindex
        if k == 5:
            if m[5] == '"':
                raise ParseError("unterminated string", m.start())
            raise ParseError(f"unexpected character {m[5]!r}", m.start())
        value = _ESCAPE.sub(_unescape, m[1][1:-1]) if k == 1 else m[k]
        toks.append(Token(_KINDS[k], value, m.start()))
    # the parser looks at most three tokens past the current one
    toks += [Token("eof", "", len(text))] * 4
    return toks


@dataclass
class _Path:
    """A variable and the member names read off it, not yet emitted.

    Left unread so that `a.b.f(x)` and `(a.b).f(x)` still become the dotted
    call `a.b.f` with no access lines; `Parser._value` emits the accesses
    once an operator, argument, target or statement uses the path.
    """

    root: str  # marker prefixes included
    names: tuple[str, ...] = ()


_MARKS = (PENDING_MARK, UNRELATED_MARK, OUT_MARK)


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.lines: list[CodeLine] = []
        self._exp_depth = 0
        self._out_mark = False

    # --- token helpers ---

    def _peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def _next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def _at(self, kind: str, text: Optional[str] = None, ahead: int = 0) -> bool:
        t = self._peek(ahead)
        return t.kind == kind and (text is None or t.text == text)

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self._peek()
        if not self._at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}", t.pos)
        return self._next()

    def _name(self) -> Token:
        """An identifier that is no reserved word."""
        t = self.toks[self.i]  # read in place: every name in the source comes here
        if t.kind != "ident" or t.text in KEYWORDS:
            self._expect("ident")  # raises for a token that is no identifier
            raise ParseError(f"{t.text!r} is reserved", t.pos)
        self.i += 1
        return t

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._at(kind, text):
            return self._next()
        return None

    # --- emission helpers ---

    def _emit(
        self,
        ctype: CodeType,
        op: Operand = Operand.empty(),
        left: Operand = Operand.empty(),
        right: Operand = Operand.empty(),
        result: Operand = Operand.empty(),
    ) -> int:
        self.lines.append(CodeLine(ctype, op, left, right, result))
        return len(self.lines) - 1

    def _line(self, ctype: CodeType, op: str, left: Operand, right=Operand.empty()) -> Operand:
        """Emit a line whose result is its own address; return that address."""
        addr = self._next_index_operand()
        self.lines.append(CodeLine(ctype, Operand.ident(op), left, right, addr))
        return addr

    def _addr_of(self, idx: int) -> Operand:
        return Operand.address(row_address(idx + 1))

    def _next_index_operand(self) -> Operand:
        return Operand.address(row_address(len(self.lines) + 1))

    def _block(self, kind: str) -> int:
        """Emit `{ items }` as a scope of the given kind; returns its start."""
        start = self._emit(CodeType.SCOPE_START, left=Operand.ident(kind))
        self._expect("op", "{")
        while not self._accept("op", "}"):
            if self._at("eof"):
                raise ParseError("unterminated block", self._peek().pos)
            self.parse_item()
        self._emit(CodeType.SCOPE_END)
        return start

    def _weight(self) -> float:
        """An optional `(w)` or `(-w)` declaration weight, 0 when absent."""
        if not self._accept("op", "("):
            return 0.0
        sign = -1.0 if self._accept("op", "-") else 1.0
        num = self._expect("number")
        self._expect("op", ")")
        return sign * float(num.text)

    # --- program / statements ---

    def parse_program(self) -> list[CodeLine]:
        while not self._at("eof"):
            self.parse_item()
        if self._out_mark:
            raise ParseError("out: marker not attached to an identifier", self._peek().pos)
        return self.lines

    def parse_item(self) -> None:
        if self._at("ident", "exp") and self._at("op", ":", 1):
            self._next()
            self._next()
            self._expect("op", "@")
            self.parse_declaration(is_exp=True)
        elif self._at("op", "@"):
            self._next()
            self.parse_declaration(is_exp=False)
        elif self._at("ident", "system") and self._at("op", ":", 1):
            self.parse_class()
        else:
            self.parse_statement()

    def parse_statement(self) -> None:
        t = self._peek()
        if t.kind == "ident" and t.text == "new" and self._at("op", ":", 1):
            self._next()
            self._next()
            self.parse_var_decl()
        elif t.kind == "ident" and t.text == "return" and self._at("op", ":", 1):
            self._next()
            self._next()
            start = len(self.lines)
            v = self._hoist(start, self.parse_expr())
            self._expect("op", ";")
            self._emit(CodeType.RETURN, op=Operand.ident("return"), left=v)
            self._emit(CodeType.EXPR_END)
        elif t.kind == "ident" and t.text == "while":
            self.parse_while()
        elif t.kind == "ident" and t.text == "if":
            self.parse_if()
        elif t.kind == "op" and t.text == "{":
            self._block("plain")
        elif (
            t.kind == "ident"
            and t.text not in KEYWORDS
            and self._at("op", ":", 1)
            and self._peek(2).kind == "ident"
            and self._at("op", ";", 3)
        ):
            cls = self._next().text
            self._next()
            name = self._name().text
            self._next()
            self._emit(
                CodeType.VAR_DECL,
                left=Operand.ident(cls),
                result=Operand.ident(name),
            )
        else:
            start = len(self.lines)
            self._hoist(start, self.parse_expr())
            self._expect("op", ";")
            # hoisted accesses alone are no expression: `a.b;` gets no EXPR_END
            if len(self.lines) > start and self.lines[-1].ctype is not CodeType.ACCESS_MEMBER:
                self._emit(CodeType.EXPR_END)

    def parse_var_decl(self) -> None:
        name = self._name()
        self._emit(CodeType.VAR_DECL, result=Operand.ident(name.text))
        if self._accept("op", "="):
            start = len(self.lines)
            v = self._hoist(start, self.parse_assign_rhs())
            self._expect("op", ";")
            self._emit(
                CodeType.EXPR, op=Operand.ident("="), left=v, result=Operand.ident(name.text)
            )
            self._emit(CodeType.EXPR_END)
        else:
            self._expect("op", ";")

    def _cond_jump(self) -> int:
        """`(cond) {block}`: the test, a jump past the block, then the block.

        Returns the jump's index; the caller sets its target.
        """
        self._expect("op", "(")
        start = len(self.lines)
        cond = self._hoist(start, self.parse_expr())
        self._expect("op", ")")
        neg = self._line(CodeType.EXPR, "==", cond, Operand.number(0))
        self._emit(CodeType.EXPR_END)
        skip = self._emit(CodeType.JUMP, op=Operand.ident("jump"), left=neg)
        self._block("cond")
        return skip

    def parse_while(self) -> None:
        self._expect("ident", "while")
        cond_start = self._next_index_operand()
        exit_jump = self._cond_jump()
        self._emit(CodeType.JUMP, op=Operand.ident("jump"), left=Operand.number(1), right=cond_start)
        self.lines[exit_jump].right = self._next_index_operand()

    def parse_if(self) -> None:
        self._expect("ident", "if")
        end_jumps: list[int] = []
        while True:
            skip = self._cond_jump()
            end_jumps.append(
                self._emit(CodeType.JUMP, op=Operand.ident("jump"), left=Operand.number(1))
            )
            self.lines[skip].right = self._next_index_operand()
            if not self._accept("ident", "elseif"):
                break
        if self._accept("ident", "else"):
            self._block("cond")
        target = self._next_index_operand()
        for j in end_jumps:
            self.lines[j].right = target

    # --- declarations ---

    def parse_declaration(self, is_exp: bool) -> None:
        """Caller has consumed the leading @."""
        if is_exp:
            self._exp_depth += 1
        try:
            weight = self._weight()
            func_idx = self._emit(CodeType.FUNC_OP)
            decl_start, head_name = self._emit_decl_scope()
            body_start: Optional[int] = None
            if self._at("op", "{"):
                body_start = self._block("body")
            line = self.lines[func_idx]
            line.op = Operand.ident("funcexp" if is_exp else "func")
            line.left = self._addr_of(decl_start)
            if body_start is not None:
                line.right = self._addr_of(body_start)
            line.result = Operand.number(weight)

            if self._accept("op", "=>"):
                self._expect("op", "@")
                rev_weight = self._weight()
                rev_func_idx = self._emit(CodeType.FUNC_OP)
                rev_decl_start, _ = self._emit_decl_scope()
                self._expect("op", ";")
                rline = self.lines[rev_func_idx]
                rline.op = Operand.ident("func")
                rline.left = self._addr_of(rev_decl_start)
                rline.result = Operand.number(rev_weight)
                self._emit(
                    CodeType.DERIVE_FUNC,
                    op=Operand.ident("=>"),
                    left=Operand.ident(head_name),
                    right=self._addr_of(rev_decl_start),
                )
            else:
                self._accept("op", ";")
        finally:
            if is_exp:
                self._exp_depth -= 1

    def _emit_decl_scope(self) -> tuple[int, str]:
        """Emit SCOPE_START(decl) pattern EXPR_END SCOPE_END; return (start, root op text)."""
        scope = self._emit(CodeType.SCOPE_START, left=Operand.ident("decl"))
        start = len(self.lines)
        if self._accept("op", "{"):
            root = self._hoist(start, self.parse_expr())
            self._accept("op", ";")
            self._expect("op", "}")
        elif self._at("ident"):
            name = self._name()
            self._expect("op", "(")
            root = self._hoist(start, self._call(name.text))
        else:
            t = self._peek()
            raise ParseError("declaration needs a name or a pattern", t.pos)
        if root.kind is not OperandKind.ADDRESS:
            # single-operand pattern (bare identifier): not a usable declaration
            raise ParseError("declaration pattern has no operator", self._peek().pos)
        # a member access or an output can never match a statement's line
        if self.lines[root.addr[0] - 1].ctype is not CodeType.EXPR:
            raise ParseError("declaration pattern is not an operator expression", self._peek().pos)
        if any(ln.op.text == "-->" for ln in self.lines[start:]):
            raise ParseError("declaration pattern holds an output", self._peek().pos)
        self._emit(CodeType.EXPR_END)
        self._emit(CodeType.SCOPE_END)
        return scope, self.lines[root.addr[0] - 1].op.text

    def parse_class(self) -> None:
        self._expect("ident", "system")
        self._expect("op", ":")
        name = self._name()
        parents: list[str] = []
        if self._accept("op", "<<"):
            parents.append(self._name().text)
            while self._accept("op", ","):
                parents.append(self._name().text)
        class_idx = self._emit(
            CodeType.CLASS_OP, op=Operand.ident("class"), left=Operand.ident(name.text)
        )
        for p in parents:
            self._emit(
                CodeType.CLASS_OP,
                op=Operand.ident("inherit"),
                left=Operand.ident(name.text),
                right=Operand.ident(p),
            )
        start = self._block("class")
        self.lines[class_idx].right = self._addr_of(start)

    # --- expressions: each method emits its lines and returns its value ---

    def _value(self, v) -> Operand:
        """The operand for v, emitting the ACCESS_MEMBER lines of a member path."""
        if type(v) is not _Path:
            return v
        base = Operand.ident(v.root)
        for name in v.names:
            base = self._line(CodeType.ACCESS_MEMBER, ".", base, Operand.ident(name))
        return base

    def _hoist(self, start: int, v) -> Operand:
        """Move the accesses emitted since start in front of the other lines.

        A stable partition: each group keeps its emission order. The
        address operands of the moved lines are renumbered; returns the
        operand for v, renumbered too.
        """
        v = self._value(v)
        run = self.lines[start:]
        accesses = [ln for ln in run if ln.ctype is CodeType.ACCESS_MEMBER]
        if all(ln.ctype is CodeType.ACCESS_MEMBER for ln in run[: len(accesses)]):
            return v  # already in place
        order = accesses + [ln for ln in run if ln.ctype is not CodeType.ACCESS_MEMBER]
        place = {id(ln): self._addr_of(start + k) for k, ln in enumerate(order)}
        moved = {Address((start + k + 1,)): place[id(ln)] for k, ln in enumerate(run)}

        def renumber(o: Operand) -> Operand:
            return moved.get(o.addr, o) if o.kind is OperandKind.ADDRESS else o

        for ln in order:
            ln.left, ln.right, ln.result = renumber(ln.left), renumber(ln.right), renumber(ln.result)
        self.lines[start:] = order
        return renumber(v)

    def parse_expr(self):
        v = self.parse_assign_rhs()
        if not self._accept("op", "-->"):
            return v
        v = self._value(v)
        tail = Operand.empty() if self._at("op", ";") else self.parse_primary_literal()
        self._emit(CodeType.EXPR, op=Operand.ident("-->"), left=v, right=tail)
        return Operand.empty()

    def parse_primary_literal(self) -> Operand:
        neg = self._accept("op", "-")
        t = self._peek()
        if t.kind == "number":
            self._next()
            v = float(t.text)
            return Operand.number(-v if neg else v)
        if neg:
            raise ParseError("expected a number", t.pos)
        if t.kind == "string":
            self._next()
            return Operand.string(t.text)
        if t.kind == "ident":
            self._next()
            return Operand.ident(t.text)
        raise ParseError("expected a literal", t.pos)

    def parse_assign_rhs(self):
        l = self.parse_binary()
        if not self._accept("op", "="):
            return l
        # the target's accesses come before the value's; an assignment's
        # value is its target operand, which no longer names a variable
        target = self._value(l) if type(l) is _Path else None
        v = self._value(self.parse_assign_rhs())
        if target is None:
            raise ParseError("assignment target must be a variable", self._peek().pos)
        self._emit(CodeType.EXPR, op=Operand.ident("="), left=v, result=target)
        return target

    def parse_binary(self, min_prec: int = 1):
        """Precedence climbing over the _PREC operators binding at least min_prec."""
        l = self.parse_unary()
        while True:
            t = self.toks[self.i]
            prec = _PREC.get(t.text, 0) if t.kind == "op" else 0
            if prec < min_prec:
                return l
            self.i += 1
            l = self._value(l)
            l = self._line(CodeType.EXPR, t.text, l, self._value(self.parse_binary(prec + 1)))

    def parse_unary(self):
        if self._accept("op", "-"):
            x = self.parse_unary()
            if type(x) is Operand and x.kind is OperandKind.NUMBER:
                return Operand.number(-x.num)
            return self._line(CodeType.EXPR, "neg", self._value(x))
        return self.parse_power()

    def parse_power(self):
        base = self.parse_postfix()
        if not self._accept("op", "^"):
            return base
        base = self._value(base)
        return self._line(CodeType.EXPR, "^", base, self._value(self.parse_unary()))

    def parse_postfix(self):
        v = self.parse_primary()
        while self._accept("op", "."):
            comp = self._name()
            if self._accept("op", "("):
                if type(v) is not _Path or v.root.startswith(_MARKS):
                    raise ParseError("method receiver must be a variable path", comp.pos)
                v = self._call(".".join((v.root, *v.names, comp.text)))
            elif type(v) is not _Path:
                raise ParseError("access path must start at a variable", comp.pos)
            else:
                v = _Path(v.root, v.names + (comp.text,))
        return v

    def parse_primary(self):
        t = self._peek()
        if t.kind == "number":
            self._next()
            # not Operand.number: one call less where the nesting limit is counted
            return Operand(OperandKind.NUMBER, num=float(t.text))
        if t.kind == "string":
            self._next()
            return Operand.string(t.text)
        if t.kind == "op" and t.text == "(":
            self._next()
            v = self.parse_expr()
            self._expect("op", ")")
            return v
        if t.kind == "op" and t.text == "$":
            self._next()
            if self._at("ident"):
                name = self._name()
                if self._at("op", "("):
                    raise ParseError("pending marker cannot mark a call", name.pos)
                return _Path(PENDING_MARK + name.text)
            return _Path(PENDING_MARK)
        if t.kind == "op" and t.text == "#":
            if self._exp_depth == 0:
                raise ParseError("unrelated marker is only valid in exp declarations", t.pos)
            self._next()
            return _Path(UNRELATED_MARK + self._name().text)
        if t.kind == "ident":
            if t.text == "out" and self._at("op", ":", 1):
                self._next()
                self._next()
                if self._out_mark:
                    raise ParseError("nested out: marker", t.pos)
                self._out_mark = True
                v = self.parse_binary()
                if self._out_mark:
                    raise ParseError("out: marker not attached to an identifier", t.pos)
                return v
            name = self._name().text
            if self._out_mark:
                name = OUT_MARK + name
                self._out_mark = False
            if self._at("op", "("):
                if name.startswith(OUT_MARK):
                    raise ParseError("out: cannot mark a call", t.pos)
                self._next()
                return self._call(name)
            return _Path(name)
        raise ParseError(f"unexpected {t.text or t.kind!r}", t.pos)

    def _call(self, name: str) -> Operand:
        """A call after its `(`: the arguments, their `param` folds, then the call line."""
        ops: list[Operand] = []
        if not self._accept("op", ")"):
            ops.append(self._value(self.parse_expr()))
            while self._accept("op", ","):
                ops.append(self._value(self.parse_expr()))
            self._expect("op", ")")
        while len(ops) > 2:
            ops[0:2] = [self._line(CodeType.EXPR, "param", ops[0], ops[1])]
        ops += [Operand.empty()] * (2 - len(ops))
        return self._line(CodeType.EXPR, name, *ops)


def parse(text: str) -> list[CodeLine]:
    """Parse precompiled text into the raw line stream."""
    parser = Parser(text)
    try:
        return parser.parse_program()
    except RecursionError:
        # the parser recurses once per nesting level of the source
        raise ParseError("nesting too deep to parse", parser._peek().pos) from None
