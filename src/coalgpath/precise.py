"""Precise maps: testing, factorization, and enumeration.

A map ``f: X -> F(Y)`` is precise when every element of Y is used in
exactly one ``f(x)`` and exactly once within it.  For the expression
grammar this occurrence-counting criterion coincides with the
categorical definition (those expressions all denote analytic functors),
and a brute-force oracle over small sets guards that claim in the tests.

Factorization rewrites an arbitrary ``f`` as ``F(h) . f'`` with ``f'``
precise by giving every variable occurrence its own fresh codomain
element, named ``(x;path)`` after the occurrence position (x written
``sort.name`` when the domain has that name in two sorts).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping

from .functors import (
    Functor,
    Node,
    Term,
    Var,
    _leaf_states,
    eval_node,
    map_leaves,
    rebuild_with_fresh,
)
from .sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet


class TermMap:
    """A total map ``X -> F(Y)``, one term per domain element."""

    __slots__ = ("dom", "functor", "cod", "table")

    def __init__(self, dom: SortedSet, functor: Functor, cod: SortedSet, table: Mapping[tuple[str, str], Term]):
        self.dom = dom
        self.functor = functor
        self.cod = cod
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
            and self.functor == other.functor
            and self.cod == other.cod
            and self.table == other.table
        )

    def __repr__(self) -> str:
        rows = ", ".join(f"{x}->{t!r}" for (_s, x), t in sorted(self.table.items()))
        return f"TermMap({rows})"


def occurrence_counts(f: TermMap) -> Counter:
    """How often each codomain variable occurs across all f(x)."""
    counts: Counter = Counter()
    for (sort, _x), term in sorted(f.table.items()):
        counts.update(_leaf_states(f.functor, sort, term))
    return counts


def is_precise(f: TermMap) -> bool:
    """Occurrence criterion: every codomain element used exactly once."""
    counts = occurrence_counts(f)
    for key in f.cod.pairs():
        if counts.get(key, 0) != 1:
            return False
    return all(count == 1 for count in counts.values())


# ---------------------------------------------------------------------------
# Precise factorization

@dataclass
class Factorization:
    precise: TermMap             # f': X -> F(Y'), Y' one element per occurrence position
    connect: SortedFun           # h: Y' -> Y


def position_name(elem: str, path: tuple[int, ...]) -> str:
    return f"({elem};{'.'.join(str(i) for i in path)})"


def element_labels(x: SortedSet) -> list[str]:
    """Each element of ``x``, in pair order, by its name, or as
    ``sort.name`` when the name lies in two or more sorts, or when the
    files name sorts and its text before its first ``.`` is a sort, as
    the model files qualify it (``b.q`` would read as ``q`` of sort
    ``b``).  Two of those labels meet only where a sort name holds a
    ``.``, which neither a model file nor a category can name, only a
    functor built in code (``p`` in sorts ``a.b`` and ``c``, beside
    ``a.b.p`` in ``c``); then every element is labelled ``sort.name``."""
    pairs = list(x.pairs())
    counts = Counter(e for _s, e in pairs)
    prefixes = set(x.sorts) if x.sorts != (DEFAULT_SORT,) else set()
    labels = [f"{s}.{e}" if counts[e] > 1 or "." in e and e.partition(".")[0] in prefixes else e for s, e in pairs]
    if len(set(labels)) < len(labels):
        return [f"{s}.{e}" for s, e in pairs]
    return labels


def precise_factorize(f: TermMap) -> Factorization:
    """Split ``f`` into a precise part and a connecting map.

    Every occurrence of a codomain variable becomes its own fresh
    element ``(x;path)``, where x is the domain element's label from
    :func:`element_labels`; unused elements of Y simply do not appear.
    """
    y = f.cod
    label = dict(zip(f.dom.pairs(), element_labels(f.dom)))
    fresh_elems: dict[str, list[str]] = {s: [] for s in y.sorts}
    connect_table: dict[tuple[str, str], str] = {}
    new_terms: dict[tuple[str, str], Term] = {}
    for (sort, x), term in sorted(f.table.items()):
        node = f.functor.node(sort)

        def fresh(var: Var, path: tuple[int, ...], _x=label[sort, x]) -> Var:
            name = position_name(_x, path)
            fresh_elems[var.sort].append(name)
            connect_table[(var.sort, name)] = var.name
            return Var(var.sort, name)

        new_terms[(sort, x)] = rebuild_with_fresh(node, term, fresh)
    codomain = SortedSet.make({s: fresh_elems[s] for s in y.sorts}, y.sorts)
    precise = TermMap(f.dom, f.functor, codomain, new_terms)
    connect = SortedFun(codomain, y, connect_table)
    return Factorization(precise, connect)


# ---------------------------------------------------------------------------
# Shape enumeration (precise maps out of a carrier)

@functools.lru_cache(maxsize=256)
def element_shapes(f_expr: Functor, sort: str) -> tuple[Term, ...]:
    """Shapes for a single domain element, canonically renamed.

    Memoized per (functor, sort): the open-map check asks for the same
    shapes at every failing state.
    """
    node = f_expr.node(sort)
    count = itertools.count(1)
    shapes: set[Term] = set()
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
        shapes.add(canon)
    return tuple(sorted(shapes))


def _renumber(node: Node, term: Term, start: int) -> tuple[Term, list[Var]]:
    """``term`` with its variables renamed v<start+1>, v<start+2>, ... in
    first-occurrence order, and the new variables in that order."""
    mapping: dict[tuple[str, str], Var] = {}

    def rename(_ref, var: Var) -> Var:
        key = (var.sort, var.name)
        if key not in mapping:
            mapping[key] = Var(var.sort, f"v{start + len(mapping) + 1:03d}")
        return mapping[key]

    return map_leaves(node, term, rename), list(mapping.values())


def enumerate_precise_maps(p: SortedSet, f_expr: Functor) -> Iterator[tuple[SortedSet, TermMap]]:
    """All precise maps out of ``p``, one per level-wise renaming class.

    Every domain element independently takes a term shape over fresh
    variables; the union of the fresh variables is the new carrier,
    renamed v001, v002, ... in first-occurrence order over the whole map.
    A shape renumbered from one offset is renumbered once per call, and
    the maps that share it share its term.  A sort's shapes are distinct
    canonical terms and renumbering is a bijection on names, so distinct
    combinations give distinct maps.
    """
    keys = list(p.pairs())
    shape_lists = [element_shapes(f_expr, s) for s, _ in keys]
    renumbered: dict[tuple[str, Term, int], tuple[Term, list[Var]]] = {}
    for combo in itertools.product(*shape_lists):
        counter = 0
        fresh_elems: dict[str, list[str]] = {s: [] for s in p.sorts}
        table: dict[tuple[str, str], Term] = {}
        for (sort, elem), shape in zip(keys, combo):
            hit = renumbered.get((sort, shape, counter))
            if hit is None:
                hit = renumbered[(sort, shape, counter)] = _renumber(f_expr.node(sort), shape, counter)
            table[(sort, elem)], names = hit
            counter += len(names)
            for v in names:
                fresh_elems[v.sort].append(v.name)
        codomain = SortedSet.make({s: fresh_elems[s] for s in p.sorts}, p.sorts)
        yield codomain, TermMap(p, f_expr, codomain, table)


def precise_chains(f_expr: Functor, start: SortedSet, depth: int) -> Iterator[tuple[TermMap, ...]]:
    """Every chain of at most ``depth`` precise maps out of ``start``, each
    map out of the codomain of the one before: the paths out of ``start``,
    with each step's level its ``.dom``.  Chains come shortest first, then
    in the order of their prefixes and of :func:`enumerate_precise_maps`,
    which runs once per distinct level."""
    out_of = functools.cache(lambda level: list(enumerate_precise_maps(level, f_expr)))
    frontier: list[tuple[tuple[TermMap, ...], SortedSet]] = [((), start)]
    for length in range(depth + 1):
        yield from (chain for chain, _level in frontier)
        if length < depth:
            frontier = [(chain + (step,), codomain) for chain, level in frontier for codomain, step in out_of(level)]
