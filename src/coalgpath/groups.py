"""Permutation groups acting on argument tuples.

Groups are given by generators (0-based images) and enumerated fully by
closure under composition.  Enumeration is capped at arity 6 and order
720: the canonicalization below takes a lexicographic minimum over the
whole group, which is only sensible at desk scale.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .sets import CoalgError

MAX_ARITY = 6
MAX_ORDER = 720


class GroupBoundError(CoalgError):
    pass


class ArityError(CoalgError):
    pass


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A subgroup of the symmetric group on ``arity`` slots.  It compares
    and hashes by arity and elements, whatever generators present it."""

    arity: int
    generators: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ArityError("arity must be non-negative")
        if self.arity > MAX_ARITY:
            raise GroupBoundError(f"arity {self.arity} exceeds cap {MAX_ARITY}")
        for g in self.generators:
            if sorted(g) != list(range(self.arity)):
                raise ArityError(f"generator {g} is not a permutation of 0..{self.arity - 1}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.arity == other.arity and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.arity, self.elements))

    @functools.cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """:func:`group_elements`, kept on the group."""
        return group_elements(self)

    @functools.cached_property
    def _getters(self) -> tuple[itemgetter, ...]:
        """Each element but the identity as an ``itemgetter``.  Each moves
        two slots or more, so it returns a tuple."""
        identity = tuple(range(self.arity))
        return tuple([itemgetter(*p) for p in self.elements if p != identity])


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)[i] = q[p[i]]: apply p first when acting on tuples by indexing.
    return tuple(q[i] for i in p)


def group_elements(g: PermGroup) -> tuple[tuple[int, ...], ...]:
    """All elements of the generated group, in a deterministic order.

    Computed afresh on each call; :attr:`PermGroup.elements` keeps them.
    """
    identity = tuple(range(g.arity))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for p in frontier:
            for gen in g.generators:
                q = _compose(p, gen)
                if q not in elements:
                    elements.add(q)
                    new_frontier.append(q)
                    if len(elements) > MAX_ORDER:
                        raise GroupBoundError(
                            f"group order exceeds cap {MAX_ORDER} (arity {g.arity})"
                        )
        frontier = new_frontier
    return tuple(sorted(elements))


def canonical_tuple(g: PermGroup, t: tuple) -> tuple:
    """The least element of the orbit of ``t`` under ``g``.

    "Least" is w.r.t. the natural order of the entries, so entries must be
    mutually comparable (strings or terms).  Idempotent and constant
    on orbits by construction.
    """
    if len(t) != g.arity:
        raise ArityError(f"tuple of length {len(t)} under group of arity {g.arity}")
    best = t
    for get in g._getters:
        candidate = get(t)
        if candidate < best:
            best = candidate
    return best


def orbit_minima(g: PermGroup, pool: Iterable) -> Iterable[tuple]:
    """The least member of each orbit of ``pool^arity`` under ``g``, once
    each, in a deterministic order.  Under the full symmetric group these
    are the nondecreasing tuples, one per multiset, and no permuted tuple
    is compared; otherwise each tuple of the product is canonicalized."""
    ordered = sorted(pool)
    if len(g.elements) == math.factorial(g.arity):
        return itertools.combinations_with_replacement(ordered, g.arity)
    return list(dict.fromkeys([canonical_tuple(g, t) for t in itertools.product(ordered, repeat=g.arity)]))
