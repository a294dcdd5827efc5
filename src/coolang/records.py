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
from typing import Iterator, Optional, Union

from .addresses import Address
from .errors import CoolRuntimeError, UnresolvedIdentifier

Key = Union[str, Address]

# balance counters, the record-lifecycle test reads these; a record's id is
# the created count it raised
created_count = 0
destroyed_count = 0


@dataclass(slots=True)
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
    __slots__ = ("id", "scope", "data", "cross_ref", "parent", "param_query_links", "destroyed")

    def __init__(
        self,
        scope: Optional[Address],
        parent: Optional["Record"] = None,
        data: Optional[dict[Key, object]] = None,
        cross_ref: Optional[dict[str, Path]] = None,
    ):
        global created_count
        created_count += 1
        self.id = created_count
        self.scope = scope  # scope start address this record instantiates
        self.data: dict[Key, object] = {} if data is None else data
        self.cross_ref: dict[str, Path] = {} if cross_ref is None else cross_ref
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

        Own data first, then cross references, then the records the param
        query links reach (see linked), then the lexical parent chain.
        skip_current starts at the parent: out:-marked names belong to an
        enclosing region, never to the record being searched.
        """
        rec = self.parent if skip_current else self
        while rec is not None:
            # _resolve_local's first two tests, inline: most lookups end there
            if name in rec.data:
                return Path(rec, name)
            found = rec.cross_ref.get(name)
            if found is None and rec.param_query_links:
                found = rec._resolve_local(name)
            if found is not None:
                return found
            rec = rec.parent
        return None

    def _resolve_local(self, name: str) -> Optional[Path]:
        """Resolve inside this record only: members, never enclosing scopes."""
        if name in self.data:
            return Path(self, name)
        found = self.cross_ref.get(name)
        if found is not None or not self.param_query_links:
            return found
        # most lookups end above; the linked records come after this one
        for rec in itertools.islice(self.linked(), 1, None):
            if name in rec.data:
                return Path(rec, name)
            found = rec.cross_ref.get(name)
            if found is not None:
                return found
        return None

    def linked(self) -> Iterator["Record"]:
        """This record, then those its param query links reach: leftmost
        depth first, each record once, so link cycles end."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            rec = stack.pop()
            if rec.id in seen:
                continue
            seen.add(rec.id)
            yield rec
            stack.extend(reversed(rec.param_query_links))

    def declare(self, name: str, value=None) -> Path:
        self.data[name] = value
        return Path(self, name)


def follow(record: Record, bare: str, out: bool, names: tuple[str, ...]) -> Path:
    """The storage a member chain names, seen from record.

    Raises UnresolvedIdentifier when a name is missing and CoolRuntimeError
    when a prefix of the chain holds no instance; both name the prefix.
    """
    path = record.resolve(bare, skip_current=out)
    if path is None:
        raise UnresolvedIdentifier(f"{bare!r} names no instance")
    shown = bare
    for name in names:
        path = instance_at(path, shown)._resolve_local(name)
        if path is None:
            raise UnresolvedIdentifier(f"{shown!r} has no member {name!r}")
        shown = f"{shown}.{name}"
    return path


def instance_at(path: Path, shown: str) -> Record:
    """The instance held at path, which the chain `shown` names."""
    holder = path.read()
    if not isinstance(holder, Record):
        raise CoolRuntimeError(f"{shown!r} is not an instance")
    return holder
