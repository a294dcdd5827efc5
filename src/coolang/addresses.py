"""Multi-level line addresses.

An address is a tuple of nonnegative int digits, ordered front to back
with zero padding on the shorter one: (3,) < (3,0,1) < (3,1) < (3,1,1) < (3,2).
First and last digits must be nonzero so padding never collides with a
real address.

Because the last digit is never zero, the padded order is plain tuple
order. Where one address is a prefix of the other, the longer one carries
a nonzero digit past the prefix, so it sorts after the padded shorter one,
as a longer tuple sorts after its prefix. Otherwise the first differing
digit decides both orders alike. Address is therefore a tuple subclass,
and comparison, hashing, sorting and bisection all run as tuple operations.
"""

from __future__ import annotations

from typing import Iterable, Optional


class Address(tuple):
    __slots__ = ()

    def __new__(cls, digits: Iterable[int]) -> "Address":
        self = super().__new__(cls, map(int, digits))
        if not self:
            raise ValueError("empty address")
        if min(self) < 0:
            raise ValueError(f"negative digit in address {tuple(self)}")
        if self[0] == 0 or self[-1] == 0:
            raise ValueError(f"first and last digit must be nonzero: {tuple(self)}")
        return self

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Address({self})"

    def __str__(self) -> str:
        return ".".join(map(str, self))

    @classmethod
    def parse(cls, text: str) -> "Address":
        return cls(text.split("."))


def _padded(digits: tuple[int, ...], n: int) -> tuple[int, ...]:
    return digits + (0,) * (n - len(digits))


def allocate_between(lo: Optional[Address], hi: Optional[Address]) -> Address:
    """Return a fresh address strictly between lo and hi.

    Either bound may be None (open on that side). Walks digit positions of
    the zero-padded bounds: bumps the low digit where the gap allows,
    otherwise commits the low digit and bumps one level deeper.
    """
    if lo is None:
        return Address((1,)) if hi is None else _below(hi)
    if hi is None:
        return Address((lo[0] + 1,))
    if not lo < hi:
        raise ValueError(f"allocate_between needs lo < hi, got {lo} >= {hi}")

    n = max(len(lo), len(hi))
    lo_p = _padded(lo, n)
    hi_p = _padded(hi, n)
    prefix: list[int] = []
    for i in range(n):
        l, h = lo_p[i], hi_p[i]
        if l + 1 < h:
            return Address(prefix + [l + 1])
        if l < h:
            # Gap of exactly one: commit the low digit; everything with
            # this prefix already sorts below hi, so only lo bounds us.
            nxt = lo_p[i + 1] if i + 1 < n else 0
            return Address(prefix + [l, nxt + 1])
        prefix.append(l)
    raise AssertionError(f"unreachable: {lo} < {hi} had no differing digit")


def _below(hi: Address) -> Address:
    """An address strictly below hi, with no lower bound."""
    prefix: list[int] = []
    for i, d in enumerate(hi):
        if d > 1:
            return Address(prefix + [d - 1])
        if d == 1 and i > 0:
            return Address(prefix + [0, 1])
        prefix.append(d)
    raise ValueError(f"no room below {hi}")


def run_between(
    lo: Optional[Address], hi: Optional[Address], count: int
) -> list[Address]:
    """count ascending addresses strictly inside (lo, hi).

    Fresh only where the gap holds no address yet, as the gap a statement
    leaves once its lines are removed does.
    """
    out: list[Address] = []
    for _ in range(count):
        lo = allocate_between(lo, hi)
        out.append(lo)
    return out
