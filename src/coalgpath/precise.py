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
    Const,
    ConstElem,
    Coprod,
    Functor,
    Inj,
    Node,
    Pf,
    PowersetNodeError,
    Prod,
    SortRef,
    Term,
    TermError,
    TupleTerm,
    Var,
    ansym,
    eval_functor,
    fmap,
    functor_has_pf,
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
        raise PowersetNodeError("use is_precise_oracle for powerset functors")
    counts = occurrence_counts(f)
    for key in f.space.carrier.pairs():
        if counts.get(key, 0) != 1:
            return False
    return all(count == 1 for count in counts.values())


# ---------------------------------------------------------------------------
# Brute-force oracle

def _all_sorted_sets(sorts: tuple[str, ...], size_bound: int) -> Iterator[SortedSet]:
    """All carriers with at most ``size_bound`` elements per sort."""
    ranges = [range(size_bound + 1)] * len(sorts)
    for sizes in itertools.product(*ranges):
        yield SortedSet(
            sorts,
            tuple(tuple(f"c{i}" for i in range(n)) for n in sizes),
        )


def _all_maps(dom: SortedSet, cod: SortedSet) -> Iterator[SortedFun]:
    keys = list(dom.pairs())
    pools = [cod.elems(s) for s, _ in keys]
    if any(len(p) == 0 for p in pools):
        return
    for combo in itertools.product(*pools):
        yield SortedFun(dom, cod, dict(zip(keys, combo)))


def is_precise_oracle(f: TermMap, size_bound: int) -> bool:
    """Decide preciseness straight from the lifting definition.

    Checks, for every carrier C with at most ``size_bound`` elements per
    sort, every ``h: C -> Y`` and every ``k: X -> F(C)`` with
    ``F(h) . k = f``, that some ``d: Y -> C`` satisfies ``F(d) . f = k``
    and ``h . d = id``.  Exhaustive and exponential; test-only.  The map
    under test must itself fit the bound.
    """
    functor = f.space.functor
    y = f.space.carrier
    x = f.dom
    largest = max((len(elems) for elems in x.data + y.data), default=0)
    if largest > size_bound:
        raise CoalgError(f"oracle bound exceeded: a sort has {largest} elements, bound {size_bound}")
    for c in _all_sorted_sets(y.sorts, size_bound):
        fc = eval_functor(functor, c)
        for h in _all_maps(c, y):
            # fibers of fmap(h) over each f(x); empty fiber => no such k
            fibers: list[list[Term]] = []
            ok = True
            for (sort, elem) in x.pairs():
                target = f(sort, elem)
                node_terms = fc[sort]
                fiber = [t for t in node_terms if fmap(functor, h, sort, t) == target]
                if not fiber:
                    ok = False
                    break
                fibers.append(fiber)
            if not ok:
                continue
            keys = list(x.pairs())
            for combo in itertools.product(*fibers):
                k = dict(zip(keys, combo))
                if not _has_diagonal(f, functor, x, y, c, h, k):
                    return False
    return True


def _has_diagonal(
    f: TermMap,
    functor: Functor,
    x: SortedSet,
    y: SortedSet,
    c: SortedSet,
    h: SortedFun,
    k: Mapping[tuple[str, str], Term],
) -> bool:
    # candidates per y-element: the h-fiber
    y_keys = list(y.pairs())
    candidates = []
    for (s, ye) in y_keys:
        fiber = [ce for ce in c.elems(s) if h(s, ce) == ye]
        if not fiber:
            return False
        candidates.append(fiber)
    for combo in itertools.product(*candidates):
        d = SortedFun(y, c, dict(zip(y_keys, combo)))
        if all(fmap(functor, d, s, f(s, xe)) == k[(s, xe)] for (s, xe) in x.pairs()):
            return True
    return False


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


def factorization_commutes(f: TermMap, fac: Factorization) -> bool:
    """Check F(h) . f' = f."""
    for (sort, x) in f.dom.pairs():
        if fmap(f.space.functor, fac.connect, sort, fac.precise(sort, x)) != f(sort, x):
            return False
    return True


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

class _FreshVars:
    def __init__(self) -> None:
        self.count = 0

    def next(self, sort: str) -> Var:
        self.count += 1
        return Var(sort, f"v{self.count:03d}")


def _node_shapes(node: Node, fresh: _FreshVars) -> Iterator[Term]:
    """All term shapes of a node with pairwise-distinct fresh variables."""
    if isinstance(node, Const):
        for e in node.elems:
            yield ConstElem(e)
        return
    if isinstance(node, SortRef):
        yield fresh.next(node.sort)
        return
    if isinstance(node, Prod):
        part_choices = [list(_node_shapes(p, fresh)) for p in node.parts]
        for combo in itertools.product(*part_choices):
            yield TupleTerm(combo)
        return
    if isinstance(node, Coprod):
        for i, part in enumerate(node.parts):
            for shape in _node_shapes(part, fresh):
                yield Inj(i, shape)
        return
    if isinstance(node, Analytic):
        for sym in node.symbols:
            slot_choices = [list(_node_shapes(n, fresh)) for n in sym.slots]
            for combo in itertools.product(*slot_choices):
                yield ansym(sym.group, sym.name, combo)
        return
    if isinstance(node, Pf):
        raise PowersetNodeError("shape enumeration is undefined on powerset nodes")
    raise TermError(f"unknown node {node!r}")


def element_shapes(f_expr: Functor, sort: str) -> list[Term]:
    """Shapes for a single domain element, canonically renamed."""
    node = f_expr.node(sort)
    shapes: dict[tuple, Term] = {}
    for canon in _node_shapes(node, _FreshVars()):
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
