"""Source normalization ahead of compilation.

Comments and insignificant whitespace are removed and non-ASCII characters
escaped in one pass per unit, the units merged, and multi-part function
names fused:

    add (a) and (b) to (c)  ->  add_ARG_and_ARG_to(a,b,c)

String literal contents pass through untouched.
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


def _ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


_STRING = r'"(?:\\.|[^"\\])*"'
_STRING_RE = re.compile(_STRING, re.S)
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


def _skip_string(text: str, start: int) -> int:
    """Index just past the string literal opening at start; text is normalized."""
    return _STRING_RE.match(text, start).end()


def _scan_group(text: str, start: int) -> int:
    """Index just past the balanced paren group opening at start."""
    depth = 0
    i, n = start, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            i = _skip_string(text, i)
            continue
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise PrecompileError(f"unbalanced parentheses at offset {start}")


def _fuse_names(text: str) -> str:
    """Rewrite name1(p1)name2(p2)... chains into name1_ARG_name2(p1,p2)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            j = _skip_string(text, i)
            out.append(text[i:j])
            i = j
            continue
        if not _ident_start(c):
            out.append(c)
            i += 1
            continue

        j = i
        while j < n and _ident_char(text[j]):
            j += 1
        first = text[i:j]
        if first in KEYWORDS:
            out.append(first)
            i = j
            continue

        # collect the alternating name/group chain
        names = [first]
        groups: list[str] = []
        k = j
        while True:
            if k < n and text[k] == "(" and len(groups) == len(names) - 1:
                g = _scan_group(text, k)
                groups.append(text[k + 1 : g - 1])
                k = g
            elif k < n and _ident_start(text[k]) and len(groups) == len(names):
                m = k
                while m < n and _ident_char(text[m]):
                    m += 1
                nm = text[k:m]
                if nm in KEYWORDS:
                    break
                names.append(nm)
                k = m
            else:
                break

        if len(names) == 1 and not groups:
            out.append(first)
            i = j
            continue
        if len(names) > 1:
            for nm in names:
                if ARG_MARKER in nm:
                    raise PrecompileError(
                        f"identifier {nm!r} contains reserved marker {ARG_MARKER}"
                    )
        fused = ARG_MARKER.join(names)
        args = ",".join(_fuse_names(g) for g in groups)
        out.append(f"{fused}({args})")
        i = k
    return "".join(out)


def precompile(units: Union[str, Sequence[Union[SourceUnit, str]]]) -> str:
    """Merge and normalize source units into one compilable text."""
    if isinstance(units, str):
        units = [units]
    merged = "".join(
        _normalize(u if isinstance(u, SourceUnit) else SourceUnit(f"<unit{idx}>", u))
        for idx, u in enumerate(units)
    )
    try:
        return _fuse_names(merged)
    except RecursionError:
        # _fuse_names recurses once per nested call group
        raise PrecompileError("nesting too deep to precompile") from None
