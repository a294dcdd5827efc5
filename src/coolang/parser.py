"""Compiler front end: precompiled text to a quaternion line stream.

Expressions compile post-order, one line per operator, with each line's
result slot holding its own address. Member accesses are hoisted in front
of the expression lines of their statement so every longest expression
stays one contiguous run of EXPR lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .addresses import Address
from .code import (
    OUT_MARK,
    PENDING_MARK,
    UNRELATED_MARK,
    CodeLine,
    CodeType,
    Operand,
)
from .errors import ParseError
from .precompile import KEYWORDS

# each level left-associative; unary minus and ^ bind tighter than all of them
_PREC = {"==": 1, ">": 1, "<": 1, ">=": 1, "<=": 1, "+": 2, "-": 2, "*": 3, "/": 3}

_TOKEN = re.compile(
    r'"((?:\\.|[^"\\])*)"'  # 1 string, quotes dropped
    r"|(\d+(?:\.\d+)?|\.\d+)"  # 2 number
    r"|([A-Za-z_]\w*)"  # 3 identifier
    r"|(-->|==|<<|>=|<=|=>|[(){};:,$#@.+\-*/^=<>])"  # 4 operator, longest first
    r"|(.)",  # 5 anything else
    re.S | re.A,
)
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
    for m in _TOKEN.finditer(text):
        k = m.lastindex
        if k == 5:
            if m[5] == '"':
                raise ParseError("unterminated string", m.start())
            raise ParseError(f"unexpected character {m[5]!r}", m.start())
        value = _ESCAPE.sub(_unescape, m[1]) if k == 1 else m[k]
        toks.append(Token(_KINDS[k], value, m.start()))
    # the parser looks at most three tokens past the current one
    toks += [Token("eof", "", len(text))] * 4
    return toks


# expression tree, folded straight into line emission


@dataclass
class _Num:
    value: float


@dataclass
class _Str:
    value: str


@dataclass
class _Id:
    name: str  # marker prefixes included
    pos: int = 0


@dataclass
class _Neg:
    x: object


@dataclass
class _Bin:
    op: str
    l: object
    r: object


@dataclass
class _Call:
    name: str  # dotted for member calls
    args: list = field(default_factory=list)
    pos: int = 0


@dataclass
class _Acc:
    base: object
    comp: str


@dataclass
class _Asg:
    target: object
    value: object


@dataclass
class _Out:
    value: object
    tail: Optional[object]


def _left_spine(node: _Bin) -> tuple[object, list[_Bin]]:
    """A chain's leftmost operand and its _Bin nodes, innermost first.

    Walked in a loop so a flat chain of any length emits without recursion.
    """
    chain = []
    while isinstance(node, _Bin):
        chain.append(node)
        node = node.l
    chain.reverse()
    return node, chain


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
        result: Optional[Operand] = None,
        self_result: bool = False,
    ) -> int:
        idx = len(self.lines)
        if self_result:
            result = Operand.address(Address((idx + 1,)))
        self.lines.append(
            CodeLine(ctype, op, left, right, result if result is not None else Operand.empty())
        )
        return idx

    def _addr_of(self, idx: int) -> Operand:
        return Operand.address(Address((idx + 1,)))

    def _next_index_operand(self) -> Operand:
        return Operand.address(Address((len(self.lines) + 1,)))

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
            node = self.parse_expr()
            self._expect("op", ";")
            self._emit(CodeType.RETURN, op=Operand.ident("return"), left=self._lower(node))
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
            name = self._next().text
            self._next()
            self._emit(
                CodeType.VAR_DECL,
                left=Operand.ident(cls),
                result=Operand.ident(name),
            )
        else:
            node = self.parse_expr()
            self._expect("op", ";")
            # hoisted accesses alone are no expression: `a.b;` gets no EXPR_END
            self._hoist_access(node)
            before = len(self.lines)
            self._emit_expr(node)
            if len(self.lines) > before:
                self._emit(CodeType.EXPR_END)

    def parse_var_decl(self) -> None:
        name = self._expect("ident")
        if name.text in KEYWORDS:
            raise ParseError(f"{name.text!r} is reserved", name.pos)
        self._emit(CodeType.VAR_DECL, result=Operand.ident(name.text))
        if self._accept("op", "="):
            value = self.parse_assign_rhs()
            self._expect("op", ";")
            self._emit(
                CodeType.EXPR,
                op=Operand.ident("="),
                left=self._lower(value),
                result=Operand.ident(name.text),
            )
            self._emit(CodeType.EXPR_END)
        else:
            self._expect("op", ";")

    def _cond_jump(self) -> int:
        """`(cond) {block}`: the test, a jump past the block, then the block.

        Returns the jump's index; the caller sets its target.
        """
        self._expect("op", "(")
        cond = self.parse_expr()
        self._expect("op", ")")
        neg = self._emit(
            CodeType.EXPR,
            op=Operand.ident("=="),
            left=self._lower(cond),
            right=Operand.number(0),
            self_result=True,
        )
        self._emit(CodeType.EXPR_END)
        skip = self._emit(CodeType.JUMP, op=Operand.ident("jump"), left=self._addr_of(neg))
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
        if self._at("op", "{"):
            self._next()
            pattern = self.parse_expr()
            self._accept("op", ";")
            self._expect("op", "}")
        elif self._at("ident"):
            name = self._next()
            if name.text in KEYWORDS:
                raise ParseError(f"{name.text!r} is reserved", name.pos)
            self._expect("op", "(")
            args = self._parse_args_until_close()
            pattern = _Call(name.text, args, name.pos)
        else:
            t = self._peek()
            raise ParseError("declaration needs a name or a pattern", t.pos)
        start = self._emit(CodeType.SCOPE_START, left=Operand.ident("decl"))
        root = self._lower(pattern)
        if root.kind.value not in ("a",):
            # single-operand pattern (bare identifier): not a usable declaration
            raise ParseError("declaration pattern has no operator", self._peek().pos)
        self._emit(CodeType.EXPR_END)
        self._emit(CodeType.SCOPE_END)
        root_line = self.lines[root.addr.digits[0] - 1]
        head_name = root_line.op.text
        return start, head_name

    def parse_class(self) -> None:
        self._expect("ident", "system")
        self._expect("op", ":")
        name = self._expect("ident")
        parents: list[str] = []
        if self._accept("op", "<<"):
            parents.append(self._expect("ident").text)
            while self._accept("op", ","):
                parents.append(self._expect("ident").text)
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

    # --- expressions ---

    def parse_expr(self):
        v = self.parse_assign_rhs()
        if self._accept("op", "-->"):
            tail = None
            if not self._at("op", ";"):
                tail = self.parse_primary_literal()
            return _Out(v, tail)
        return v

    def parse_primary_literal(self):
        neg = self._accept("op", "-")
        t = self._peek()
        if t.kind == "number":
            self._next()
            v = float(t.text)
            return _Num(-v if neg else v)
        if neg:
            raise ParseError("expected a number", t.pos)
        if t.kind == "string":
            self._next()
            return _Str(t.text)
        if t.kind == "ident":
            self._next()
            return _Id(t.text, t.pos)
        raise ParseError("expected a literal", t.pos)

    def parse_assign_rhs(self):
        l = self.parse_binary()
        if self._accept("op", "="):
            r = self.parse_assign_rhs()
            if not isinstance(l, (_Id, _Acc)):
                raise ParseError("assignment target must be a variable", self._peek().pos)
            return _Asg(l, r)
        return l

    def parse_binary(self, min_prec: int = 1):
        """Precedence climbing over the _PREC operators binding at least min_prec."""
        l = self.parse_unary()
        while True:
            t = self.toks[self.i]
            prec = _PREC.get(t.text, 0) if t.kind == "op" else 0
            if prec < min_prec:
                return l
            self.i += 1
            l = _Bin(t.text, l, self.parse_binary(prec + 1))

    def parse_unary(self):
        if self._accept("op", "-"):
            x = self.parse_unary()
            if isinstance(x, _Num):
                return _Num(-x.value)
            return _Neg(x)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_postfix()
        if self._accept("op", "^"):
            exp = self.parse_unary()
            return _Bin("^", base, exp)
        return base

    def parse_postfix(self):
        node = self.parse_primary()
        while self._at("op", "."):
            self._next()
            comp = self._expect("ident")
            if comp.text in KEYWORDS:
                raise ParseError(f"{comp.text!r} is reserved", comp.pos)
            if self._at("op", "("):
                path = self._flatten_path(node)
                if path is None:
                    raise ParseError("method receiver must be a variable path", comp.pos)
                self._next()
                args = self._parse_args_until_close()
                node = _Call(".".join(path + [comp.text]), args, comp.pos)
            else:
                node = _Acc(node, comp.text)
        return node

    @staticmethod
    def _flatten_path(node) -> Optional[list[str]]:
        parts: list[str] = []
        while isinstance(node, _Acc):
            parts.insert(0, node.comp)
            node = node.base
        if isinstance(node, _Id):
            bare = node.name
            if bare.startswith((PENDING_MARK, UNRELATED_MARK)) or bare.startswith(OUT_MARK):
                return None
            parts.insert(0, bare)
            return parts
        return None

    def parse_primary(self):
        t = self._peek()
        if t.kind == "number":
            self._next()
            return _Num(float(t.text))
        if t.kind == "string":
            self._next()
            return _Str(t.text)
        if t.kind == "op" and t.text == "(":
            self._next()
            node = self.parse_expr()
            self._expect("op", ")")
            return node
        if t.kind == "op" and t.text == "$":
            self._next()
            if self._at("ident"):
                name = self._next()
                if name.text in KEYWORDS:
                    raise ParseError(f"{name.text!r} is reserved", name.pos)
                if self._at("op", "("):
                    raise ParseError("pending marker cannot mark a call", name.pos)
                return _Id(PENDING_MARK + name.text, t.pos)
            return _Id(PENDING_MARK, t.pos)
        if t.kind == "op" and t.text == "#":
            if self._exp_depth == 0:
                raise ParseError("unrelated marker is only valid in exp declarations", t.pos)
            self._next()
            name = self._expect("ident")
            if name.text in KEYWORDS:
                raise ParseError(f"{name.text!r} is reserved", name.pos)
            return _Id(UNRELATED_MARK + name.text, t.pos)
        if t.kind == "ident":
            if t.text == "out" and self._at("op", ":", 1):
                self._next()
                self._next()
                if self._out_mark:
                    raise ParseError("nested out: marker", t.pos)
                self._out_mark = True
                node = self.parse_binary()
                if self._out_mark:
                    raise ParseError("out: marker not attached to an identifier", t.pos)
                return node
            if t.text in KEYWORDS:
                raise ParseError(f"{t.text!r} is reserved", t.pos)
            self._next()
            name = t.text
            if self._out_mark:
                name = OUT_MARK + name
                self._out_mark = False
            if self._at("op", "("):
                if name.startswith(OUT_MARK):
                    raise ParseError("out: cannot mark a call", t.pos)
                self._next()
                args = self._parse_args_until_close()
                return _Call(name, args, t.pos)
            return _Id(name, t.pos)
        raise ParseError(f"unexpected {t.text or t.kind!r}", t.pos)

    def _parse_args_until_close(self) -> list:
        args: list = []
        if self._accept("op", ")"):
            return args
        while True:
            args.append(self.parse_expr())
            if self._accept("op", ","):
                continue
            self._expect("op", ")")
            return args

    # --- expression emission ---

    def _lower(self, node) -> Operand:
        """Hoist the member accesses, then emit the expression lines."""
        self._hoist_access(node)
        return self._emit_expr(node)

    def _hoist_access(self, node) -> None:
        """Emit ACCESS_MEMBER lines for every access path, evaluation order."""
        if isinstance(node, _Acc):
            self._hoist_access(node.base)
            base = self._leaf_operand(node.base)
            idx = self._emit(
                CodeType.ACCESS_MEMBER,
                op=Operand.ident("."),
                left=base,
                right=Operand.ident(node.comp),
                self_result=True,
            )
            node.operand = self._addr_of(idx)
        elif isinstance(node, _Neg):
            self._hoist_access(node.x)
        elif isinstance(node, _Bin):
            leaf, chain = _left_spine(node)
            self._hoist_access(leaf)
            for b in chain:
                self._hoist_access(b.r)
        elif isinstance(node, _Call):
            for a in node.args:
                self._hoist_access(a)
        elif isinstance(node, _Asg):
            self._hoist_access(node.target)
            self._hoist_access(node.value)
        elif isinstance(node, _Out):
            self._hoist_access(node.value)

    def _leaf_operand(self, node) -> Operand:
        if isinstance(node, _Id):
            return Operand.ident(node.name)
        if isinstance(node, _Acc):
            return node.operand
        raise ParseError("access path must start at a variable", 0)

    def _emit_expr(self, node) -> Operand:
        if isinstance(node, _Num):
            return Operand.number(node.value)
        if isinstance(node, _Str):
            return Operand.string(node.value)
        if isinstance(node, _Id):
            return Operand.ident(node.name)
        if isinstance(node, _Acc):
            return node.operand  # hoisted
        if isinstance(node, _Neg):
            x = self._emit_expr(node.x)
            idx = self._emit(
                CodeType.EXPR, op=Operand.ident("neg"), left=x, self_result=True
            )
            return self._addr_of(idx)
        if isinstance(node, _Bin):
            leaf, chain = _left_spine(node)
            acc = self._emit_expr(leaf)
            for b in chain:
                r = self._emit_expr(b.r)
                idx = self._emit(
                    CodeType.EXPR, op=Operand.ident(b.op), left=acc, right=r, self_result=True
                )
                acc = self._addr_of(idx)
            return acc
        if isinstance(node, _Call):
            ops = [self._emit_expr(a) for a in node.args]
            while len(ops) > 2:
                idx = self._emit(
                    CodeType.EXPR,
                    op=Operand.ident("param"),
                    left=ops[0],
                    right=ops[1],
                    self_result=True,
                )
                ops[0:2] = [self._addr_of(idx)]
            left = ops[0] if ops else Operand.empty()
            right = ops[1] if len(ops) > 1 else Operand.empty()
            idx = self._emit(
                CodeType.EXPR,
                op=Operand.ident(node.name),
                left=left,
                right=right,
                self_result=True,
            )
            return self._addr_of(idx)
        if isinstance(node, _Asg):
            v = self._emit_expr(node.value)
            t = self._leaf_operand(node.target)
            self._emit(CodeType.EXPR, op=Operand.ident("="), left=v, result=t)
            return t
        if isinstance(node, _Out):
            v = self._emit_expr(node.value)
            tail = self._emit_expr(node.tail) if node.tail is not None else Operand.empty()
            self._emit(CodeType.EXPR, op=Operand.ident("-->"), left=v, right=tail)
            return Operand.empty()
        raise AssertionError(f"unhandled node {node!r}")


def parse(text: str) -> list[CodeLine]:
    """Parse precompiled text into the raw line stream."""
    parser = Parser(text)
    try:
        return parser.parse_program()
    except RecursionError:
        # the parser recurses once per nesting level of the source
        raise ParseError("nesting too deep to parse", parser._peek().pos) from None
