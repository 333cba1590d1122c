"""Precise maps: testing, factorization, and enumeration.

A map ``f: X -> F(Y)`` is precise when every element of Y is used in
exactly one ``f(x)`` and exactly once within it.  For the powerset-free
expression grammar this occurrence-counting criterion coincides with the
categorical definition (those expressions all denote analytic functors),
and a brute-force oracle over small sets guards that claim in the tests.

Factorization rewrites an arbitrary ``f`` as ``F(h) . f'`` with ``f'``
precise by giving every variable occurrence its own fresh codomain
element, named ``(x;path)`` after the occurrence position.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping

from .functors import (
    Analytic,
    Functor,
    Node,
    PowersetNodeError,
    Term,
    TermError,
    Var,
    eval_node,
    functor_has_pf,
    node_has_pf,
    occurrences,
    rebuild_with_fresh,
    subst_node,
)
from .sets import CoalgError, SortedFun, SortedSet


@dataclass(frozen=True)
class TermSpace:
    """The codomain descriptor for maps into F(Y)."""

    functor: Functor
    carrier: SortedSet


class TermMap:
    """A total map ``X -> F(Y)``, one term per domain element."""

    __slots__ = ("dom", "space", "table")

    def __init__(self, dom: SortedSet, space: TermSpace, table: Mapping[tuple[str, str], Term]):
        self.dom = dom
        self.space = space
        self.table = dict(table)
        missing = set(dom.pairs()) - set(self.table)
        if missing:
            raise CoalgError(f"term map not total: missing {sorted(missing)}")
        extra = set(self.table) - set(dom.pairs())
        if extra:
            raise CoalgError(f"term map defined outside domain: {sorted(extra)}")

    def __call__(self, sort: str, elem: str) -> Term:
        return self.table[(sort, elem)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TermMap)
            and self.dom == other.dom
            and self.space == other.space
            and self.table == other.table
        )

    def __repr__(self) -> str:
        rows = ", ".join(f"{x}->{t!r}" for (_s, x), t in sorted(self.table.items()))
        return f"TermMap({rows})"


def occurrence_counts(f: TermMap) -> Counter:
    """How often each codomain variable occurs across all f(x)."""
    counts: Counter = Counter()
    for (sort, x), term in sorted(f.table.items()):
        node = f.space.functor.node(sort)
        for var, _path in occurrences(node, term):
            counts[(var.sort, var.name)] += 1
    return counts


def is_precise(f: TermMap) -> bool:
    """Occurrence criterion: every codomain element used exactly once."""
    if functor_has_pf(f.space.functor):
        raise PowersetNodeError("the occurrence criterion is undefined on powerset functors")
    counts = occurrence_counts(f)
    for key in f.space.carrier.pairs():
        if counts.get(key, 0) != 1:
            return False
    return all(count == 1 for count in counts.values())


# ---------------------------------------------------------------------------
# Precise factorization

@dataclass
class Factorization:
    codomain: SortedSet          # Y': one element per occurrence position
    precise: TermMap             # f': X -> F(Y')
    connect: SortedFun           # h: Y' -> Y


def position_name(elem: str, path: tuple[int, ...]) -> str:
    return f"({elem};{'.'.join(str(i) for i in path)})"


def precise_factorize(f: TermMap) -> Factorization:
    """Split ``f`` into a precise part and a connecting map.

    Every occurrence of a codomain variable becomes its own fresh
    element ``(x;path)``; unused elements of Y simply do not appear.
    """
    if functor_has_pf(f.space.functor):
        raise PowersetNodeError("cannot factorize through powerset nodes")
    y = f.space.carrier
    fresh_elems: dict[str, list[str]] = {s: [] for s in y.sorts}
    connect_table: dict[tuple[str, str], str] = {}
    new_terms: dict[tuple[str, str], Term] = {}
    for (sort, x), term in sorted(f.table.items()):
        node = f.space.functor.node(sort)

        def fresh(var: Var, path: tuple[int, ...], _x=x) -> Var:
            name = position_name(_x, path)
            fresh_elems[var.sort].append(name)
            connect_table[(var.sort, name)] = var.name
            return Var(var.sort, name)

        new_terms[(sort, x)] = rebuild_with_fresh(node, term, fresh)
    codomain = SortedSet.make({s: fresh_elems[s] for s in y.sorts}, y.sorts)
    precise = TermMap(f.dom, TermSpace(f.space.functor, codomain), new_terms)
    connect = SortedFun(codomain, y, connect_table)
    return Factorization(codomain, precise, connect)


# ---------------------------------------------------------------------------
# Bag abstraction

def _analytic_node(node: Node) -> Analytic:
    if isinstance(node, Analytic):
        return node
    raise TermError("bag abstraction needs an analytic expression")


def bag_abstraction(f_expr: Functor, sort: str, term: Term) -> Counter:
    """The multiset of argument occurrences of an analytic term.

    Natural in the carrier: taking the multiset commutes with renaming
    arguments, independently of the chosen orbit representative.
    """
    _analytic_node(f_expr.node(sort))
    counts: Counter = Counter()
    for var, _path in occurrences(f_expr.node(sort), term):
        counts[(var.sort, var.name)] += 1
    return counts


# ---------------------------------------------------------------------------
# Shape enumeration (precise maps out of a carrier)

def element_shapes(f_expr: Functor, sort: str) -> list[Term]:
    """Shapes for a single domain element, canonically renamed."""
    node = f_expr.node(sort)
    if node_has_pf(node):
        raise PowersetNodeError("shape enumeration is undefined on powerset nodes")
    count = itertools.count(1)
    shapes: dict[tuple, Term] = {}
    # one fresh variable per sort leaf visited, so all are pairwise distinct
    for canon in eval_node(node, lambda ref: (Var(ref.sort, f"v{next(count):03d}"),)):
        # renaming may change the canonical orbit representative of analytic
        # arguments, and with it the occurrence order: iterate to a fixed
        # point (a handful of rounds at most in practice)
        for _round in range(10):
            renamed, _names = _renumber(node, canon, 0)
            if renamed == canon:
                break
            canon = renamed
        shapes.setdefault(canon.key, canon)
    return sorted(shapes.values())


def _renumber(node: Node, term: Term, start: int) -> tuple[Term, list[Var]]:
    """``term`` with its variables renamed v<start+1>, v<start+2>, ... in
    first-occurrence order, and the new variables in that order."""
    mapping: dict[tuple[str, str], Var] = {}
    for var, _path in occurrences(node, term):
        key = (var.sort, var.name)
        if key not in mapping:
            mapping[key] = Var(var.sort, f"v{start + len(mapping) + 1:03d}")
    return subst_node(node, term, mapping), list(mapping.values())


def enumerate_precise_maps(p: SortedSet, f_expr: Functor) -> Iterator[tuple[SortedSet, TermMap]]:
    """All precise maps out of ``p``, one per level-wise renaming class.

    Every domain element independently takes a term shape over fresh
    variables; the union of the fresh variables is the new carrier,
    renamed v001, v002, ... in first-occurrence order over the whole map.
    """
    keys = list(p.pairs())
    shape_lists = [element_shapes(f_expr, s) for s, _ in keys]
    seen = set()
    for combo in itertools.product(*shape_lists):
        counter = 0
        mapping: dict[tuple[str, str], Var] = {}
        fresh_elems: dict[str, list[str]] = {s: [] for s in p.sorts}
        table: dict[tuple[str, str], Term] = {}
        for (sort, elem), shape in zip(keys, combo):
            table[(sort, elem)], names = _renumber(f_expr.node(sort), shape, counter)
            counter += len(names)
            for v in names:
                fresh_elems[v.sort].append(v.name)
        codomain = SortedSet.make({s: fresh_elems[s] for s in p.sorts}, p.sorts)
        term_map = TermMap(p, TermSpace(f_expr, codomain), table)
        dedupe_key = tuple(sorted((k, t.key) for k, t in table.items()))
        if dedupe_key in seen:
            continue
        seen.add(dedupe_key)
        yield codomain, term_map
