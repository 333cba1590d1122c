"""Finite sorted sets and maps between them.

Everything downstream (functor evaluation, coalgebras, paths) works over
finite sets indexed by a fixed list of sorts.  The single default sort is
``"*"``; multisorted carriers only show up in the category-encoding
instance.  Element order inside a sort is the canonical tie-break order
used by all enumeration and canonicalization code, and is simply the
string order of the element names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

DEFAULT_SORT = "*"


class CoalgError(Exception):
    """Base class for errors raised by this package."""


class SortError(CoalgError):
    pass


@dataclass(frozen=True)
class SortedSet:
    """A finite set per sort, with elements kept in canonical order.

    When the set is built, the elements of each sort are also indexed as
    a frozenset, for :meth:`has`, and listed as ``(sort, element)``
    pairs in one tuple, for :meth:`pairs` and :meth:`size`.
    """

    sorts: tuple[str, ...]
    data: tuple[tuple[str, ...], ...]  # aligned with sorts

    def __post_init__(self) -> None:
        if not self.sorts:
            raise SortError("sort list must be non-empty")
        if len(set(self.sorts)) != len(self.sorts):
            raise SortError(f"duplicate sort names in {self.sorts}")
        if len(self.data) != len(self.sorts):
            raise SortError("per-sort data does not match sort list")
        members = {}
        for sort, elems in zip(self.sorts, self.data):
            members[sort] = frozenset(elems)
            if len(members[sort]) != len(elems):
                raise SortError(f"duplicate elements in sort {sort!r}: {elems}")
            if tuple(sorted(elems)) != elems:
                raise SortError(f"elements of sort {sort!r} not in canonical order")
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_pairs", _pairs_of(self.sorts, self.data))

    @staticmethod
    def make(per_sort: Mapping[str, Iterable[str]], sorts: Iterable[str] | None = None) -> "SortedSet":
        sort_list = tuple(sorts) if sorts is not None else tuple(per_sort.keys())
        return SortedSet(sort_list, tuple(tuple(sorted(per_sort.get(s, ()))) for s in sort_list))

    @classmethod
    def _built(cls, sorts: tuple[str, ...], data: tuple[tuple[str, ...], ...]) -> "SortedSet":
        """A set whose sorts are distinct and whose elements are distinct
        and in canonical order by construction: every field
        ``__post_init__`` sets, none of its checks."""
        s = object.__new__(cls)
        object.__setattr__(s, "sorts", sorts)
        object.__setattr__(s, "data", data)
        object.__setattr__(s, "_members", {sort: frozenset(elems) for sort, elems in zip(sorts, data)})
        object.__setattr__(s, "_pairs", _pairs_of(sorts, data))
        return s

    @staticmethod
    def single(elems: Iterable[str]) -> "SortedSet":
        """A set over the default sort ``*``."""
        return SortedSet((DEFAULT_SORT,), (tuple(sorted(elems)),))

    def elems(self, sort: str) -> tuple[str, ...]:
        try:
            return self.data[self.sorts.index(sort)]
        except ValueError:
            raise SortError(f"unknown sort {sort!r}") from None

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """All (sort, element) pairs in canonical order."""
        return self._pairs

    def size(self) -> int:
        return len(self._pairs)

    def has(self, sort: str, elem: str) -> bool:
        members = self._members.get(sort)
        return members is not None and elem in members

    def restrict(self, keep: Iterable[tuple[str, str]]) -> "SortedSet":
        keep_set = set(keep)
        return SortedSet(
            self.sorts,
            tuple(tuple(e for e in elems if (s, e) in keep_set) for s, elems in zip(self.sorts, self.data)),
        )


def _pairs_of(sorts: tuple[str, ...], data: tuple[tuple[str, ...], ...]) -> tuple[tuple[str, str], ...]:
    return tuple([(sort, e) for sort, elems in zip(sorts, data) for e in elems])


def singleton_pointing(sorts: tuple[str, ...] = (DEFAULT_SORT,), at: str | None = None, name: str = "*") -> SortedSet:
    """The pointing object with one element at one sort and nothing elsewhere."""
    target = at if at is not None else sorts[0]
    return SortedSet.make({s: ([name] if s == target else []) for s in sorts}, sorts)


class SortedFun:
    """A total map between sorted sets.

    ``table`` is keyed by (sort, element) over the domain.
    """

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: SortedSet, cod: SortedSet, table: Mapping[tuple[str, str], str]):
        self.dom = dom
        self.cod = cod
        self.table = dict(table)
        for key in dom.pairs():
            if key not in self.table:
                raise SortError(f"map not total: missing {key}")
        if len(self.table) != dom.size():
            extra = set(self.table) - set(dom.pairs())
            raise SortError(f"map defined outside its domain: {sorted(extra)}")
        for (s, x), y in self.table.items():
            if not cod.has(s, y):
                raise SortError(f"image of {(s, x)} is {y!r}, not in codomain sort {s!r}")

    @classmethod
    def _built(cls, dom: SortedSet, cod: SortedSet, table: dict[tuple[str, str], str]) -> "SortedFun":
        """A map whose ``table`` is total on ``dom`` and lands in ``cod``
        by construction, taken as it is: no copy and no check."""
        f = object.__new__(cls)
        f.dom, f.cod, f.table = dom, cod, table
        return f

    def __call__(self, sort: str, elem: str) -> str:
        return self.table[(sort, elem)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SortedFun)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table == other.table
        )

    def __repr__(self) -> str:
        items = ", ".join(f"{s}.{x}->{v}" for (s, x), v in sorted(self.table.items()))
        return f"SortedFun({items})"

    @staticmethod
    def identity(carrier: SortedSet) -> "SortedFun":
        return SortedFun(carrier, carrier, {(s, e): e for s, e in carrier.pairs()})

