"""Active records: one per live region (global, call, class instance).

A record stores local values in its data table, keyed by variable name or
by line address for expression temporaries. Cross references alias caller
storage so parameters pass by reference. Param query links consult other
records (parent class records, declaration scopes) before falling back to
the lexical parent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .addresses import Address

Key = Union[str, Address]

_record_ids = itertools.count(1)

# balance counters, the record-lifecycle test reads these
created_count = 0
destroyed_count = 0


@dataclass
class Path:
    """A resolved member access: read/write through to the owning record."""

    record: "Record"
    key: Key

    def read(self):
        return self.record.data.get(self.key)

    def write(self, value) -> None:
        self.record.data[self.key] = value

    def storage(self) -> tuple[int, Key]:
        return (self.record.id, self.key)


class Record:
    def __init__(
        self,
        scope: Optional[Address],
        parent: Optional["Record"] = None,
    ):
        global created_count
        created_count += 1
        self.id = next(_record_ids)
        self.scope = scope  # scope start address this record instantiates
        self.data: dict[Key, object] = {}
        self.cross_ref: dict[str, Path] = {}
        self.parent = parent  # lexical chain
        self.param_query_links: list[Record] = []
        self.destroyed = False

    def destroy(self) -> None:
        global destroyed_count
        if not self.destroyed:
            self.destroyed = True
            destroyed_count += 1

    def __repr__(self) -> str:
        return f"<record {self.id} scope={self.scope}>"

    # --- resolution ---

    def resolve(self, name: str, skip_current: bool = False) -> Optional[Path]:
        """Find the storage for a name.

        Own data first, then cross references, then param query links
        (leftmost first, recursively), then the lexical parent chain.
        skip_current starts at the parent: out:-marked names belong to an
        enclosing region, never to the record being searched.
        """
        if skip_current:
            return self.parent.resolve(name) if self.parent else None
        found = self._resolve_local(name)
        if found is not None:
            return found
        if self.parent is not None:
            return self.parent.resolve(name)
        return None

    def _resolve_local(
        self, name: str, seen: Optional[set[int]] = None
    ) -> Optional[Path]:
        if name in self.data:
            return Path(self, name)
        found = self.cross_ref.get(name)
        if found is not None:
            return found
        if not self.param_query_links:
            return None
        # link cycles are cut by record id; most lookups never get here
        if seen is None:
            seen = {self.id}
        for link in self.param_query_links:
            if link.id in seen:
                continue
            seen.add(link.id)
            found = link._resolve_local(name, seen)
            if found is not None:
                return found
        return None

    def resolve_member(self, name: str) -> Optional[Path]:
        """Resolve inside this record only: members, never enclosing scopes."""
        return self._resolve_local(name)

    def declare(self, name: str, value=None) -> Path:
        self.data[name] = value
        return Path(self, name)
