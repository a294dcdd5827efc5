"""Source normalization ahead of compilation.

Comments and insignificant whitespace are removed and non-ASCII characters
escaped in one pass per unit, the units merged, and multi-part function
names fused in one pass over the merged text's tokens, nested to any depth:

    add (a) and (b) to (c)  ->  add_ARG_and_ARG_to(a,b,c)

String literal contents pass through untouched. The token grammar and the
reserved words are defined here, and the parser reads them from here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import PrecompileError, UnterminatedComment, UnterminatedString

KEYWORDS = frozenset(
    {"new", "return", "exp", "out", "system", "while", "if", "elseif", "else"}
)

ARG_MARKER = "_ARG_"


@dataclass(frozen=True)
class SourceUnit:
    path: str
    content: str


_STRING = r'"(?:\\.|[^"\\])*"'
# the one token grammar: precompile fuses names over it, the parser reads it
TOKEN = re.compile(
    rf"({_STRING})"  # 1 string, quotes included
    r"|(\d+(?:\.\d+)?|\.\d+)"  # 2 number
    r"|([A-Za-z_]\w*)"  # 3 identifier
    r"|(-->|==|<<|>=|<=|=>|[(){};:,$#@.+\-*/^=<>])"  # 4 operator, longest first
    r"|(.)",  # 5 anything else
    re.S | re.A,
)
# per unit: keep a string (1), drop a comment or whitespace, escape a
# non-ASCII character (2); a quote (3) or comment opener (4) left over is
# unterminated
_NORMALIZE = re.compile(
    rf'({_STRING})|//[^\n]*|/\*.*?\*/|\s+|([^\x00-\x7f])|(")|(/\*)', re.S
)


def _normalize(unit: SourceUnit) -> str:
    def replace(m: re.Match) -> str:
        k = m.lastindex
        if k is None:
            return ""
        if k == 1:
            return m[1]
        if k == 2:
            return f"_u{ord(m[2]):X}_"
        what = "string" if k == 3 else "comment"
        error = UnterminatedString if k == 3 else UnterminatedComment
        raise error(f"{unit.path}: unterminated {what} at offset {m.start()}")

    return _NORMALIZE.sub(replace, unit.content)


def _write_chain(out: list[str], names: list[str], groups: list[str]) -> None:
    """Append a name, or a fused chain and its groups as one call's arguments."""
    if not groups:
        out.append(names[0])
        return
    if len(names) > 1:
        for nm in names:
            if ARG_MARKER in nm:
                raise PrecompileError(f"identifier {nm!r} contains reserved marker {ARG_MARKER}")
    out.append(f"{ARG_MARKER.join(names)}({','.join(groups)})")


def _fuse_names(text: str) -> str:
    """Rewrite name1(p1)name2(p2)... chains into name1_ARG_name2(p1,p2).

    One pass over the tokens. A chain is a name that is no keyword, then
    groups and names in turn. Each open `(` pushes the text list and open
    chain of the level it opens in, with its offset: a chain's group
    collects its text in a list of its own, a plain paren (offset None)
    writes to its level's list.
    """
    out: list[str] = []  # the current level's text
    names: list[str] = []  # the current level's open chain ...
    groups: list[str] = []  # ... and its closed groups
    stack: list[tuple[list[str], list[str], list[str], int | None]] = []
    for m in TOKEN.finditer(text):
        tok = m[0]
        is_name = m.lastindex == 3 and tok not in KEYWORDS
        if names:
            if tok == "(" and len(groups) < len(names):
                stack.append((out, names, groups, m.start()))
                out, names, groups = [], [], []
                continue
            if is_name and len(groups) == len(names):
                names.append(tok)
                continue
            _write_chain(out, names, groups)
            names, groups = [], []
        if is_name:
            names, groups = [tok], []
        elif tok == "(":
            stack.append((out, names, groups, None))
            out.append(tok)
        elif tok == ")" and stack:
            out_, names, groups, start = stack.pop()
            if start is None:
                out.append(tok)
            else:
                groups.append("".join(out))
                out = out_
        else:
            out.append(tok)
    for _, _, _, start in stack:
        if start is not None:
            raise PrecompileError(f"unbalanced parentheses at offset {start}")
    if names:
        _write_chain(out, names, groups)
    return "".join(out)


def precompile(units: Union[str, Sequence[Union[SourceUnit, str]]]) -> str:
    """Merge and normalize source units into one compilable text."""
    if isinstance(units, str):
        units = [units]
    merged = "".join(
        _normalize(u if isinstance(u, SourceUnit) else SourceUnit(f"<unit{idx}>", u))
        for idx, u in enumerate(units)
    )
    return _fuse_names(merged)
