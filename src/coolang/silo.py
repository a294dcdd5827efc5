"""Bounded candidate store for one search round.

Entries sit in ascending weight order, insertion after equals, so the
round expands lighter candidates first but keeps the heaviest when space
runs out: a full silo drops its head for a strictly heavier newcomer and
rejects anything not heavier than the current minimum. An entry identical
to one already offered this round (same weight, same digest) is suppressed
for the silo's whole lifetime, eviction notwithstanding.

A full silo stays full and its minimum never decreases, so an offer
refused on weight would be refused again whether or not its digest was
recorded as seen. Callers may therefore ask admits() first and skip both
the digest and the offer; the entries come out the same. For the same
reason a caller may skip building a candidate that admits() refuses, as
long as the candidate cannot end the search either. And since a key stays
seen, a caller may skip a candidate it knows to equal, at the same weight,
one it already offered to this silo or whose weight admits() already
refused: the offer would be refused as a duplicate or on weight. The
search knows this of value matches made in another order
(search.value_history).
"""

from __future__ import annotations

import bisect
from typing import Iterator


class Silo:
    def __init__(self, size: int):
        if size < 1:
            raise ValueError("silo size must be at least 1")
        self.size = size
        self._weights: list[float] = []
        self._items: list[object] = []
        self._seen: set = set()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def admits(self, weight: float) -> bool:
        """False when offer would refuse any digest at this weight."""
        return len(self._items) < self.size or weight > self._weights[0]

    def offer(self, weight: float, digest, item) -> bool:
        key = (weight, digest)
        if key in self._seen:
            return False
        self._seen.add(key)
        if len(self._items) >= self.size:
            if weight <= self._weights[0]:
                return False
            del self._weights[0]
            del self._items[0]
        i = bisect.bisect_right(self._weights, weight)
        self._weights.insert(i, weight)
        self._items.insert(i, item)
        return True

    def entries(self) -> Iterator[tuple[float, object]]:
        """Ascending weight, first-in first among equals."""
        return iter(list(zip(self._weights, self._items)))
