"""Brute-force oracles the tests check the library against.

They decide the paper's properties straight from their definitions, by
exhaustive enumeration over small sets, so they are exponential and only
fit test-sized inputs:

- the lifting definition of a precise map (:func:`is_precise_oracle`),
  against the occurrence criterion ``precise.is_precise``;
- the lifting definition for the binding layer of register automata
  (:func:`binding_precise_oracle`);
- the homset-order structure of behaviour maps: unit decomposition and
  choice lifting;
- simulation and bisimulation of labelled transition systems, as
  relations on edges.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from coalgpath.coalgebra import BehaviourMap, PointedCoalgebra
from coalgpath.functors import Functor, Term, eval_functor, fmap, word_shape
from coalgpath.nominal import (
    AtomPool,
    BindTerm,
    NomElem,
    PoolError,
    all_perms,
    alpha_equal_bind,
    canonical_bind,
    extend_equivariant,
)
from coalgpath.precise import TermMap
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet, all_functions


# ---------------------------------------------------------------------------
# Precise maps: the lifting definition

def _all_sorted_sets(sorts: tuple[str, ...], size_bound: int) -> Iterator[SortedSet]:
    """All carriers with at most ``size_bound`` elements per sort."""
    ranges = [range(size_bound + 1)] * len(sorts)
    for sizes in itertools.product(*ranges):
        yield SortedSet(
            sorts,
            tuple(tuple(f"c{i}" for i in range(n)) for n in sizes),
        )


def is_precise_oracle(f: TermMap, size_bound: int) -> bool:
    """Decide preciseness straight from the lifting definition.

    Checks, for every carrier C with at most ``size_bound`` elements per
    sort, every ``h: C -> Y`` and every ``k: X -> F(C)`` with
    ``F(h) . k = f``, that some ``d: Y -> C`` satisfies ``F(d) . f = k``
    and ``h . d = id``.  Exhaustive and exponential.  The map
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
        for h in all_functions(c, y):
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
# The binding layer: the lifting definition over strong carriers

def _strong_carriers(pool: AtomPool, max_orbits: int, max_arity: int) -> Iterator[list[NomElem]]:
    """Small strong nominal sets: unions of full orbit templates."""
    templates = []
    for arity in range(max_arity + 1):
        templates.append(arity)
    for count in range(max_orbits + 1):
        for combo in itertools.combinations_with_replacement(templates, count):
            carrier: list[NomElem] = []
            for idx, arity in enumerate(combo):
                for atoms in itertools.permutations(pool.atoms, arity):
                    carrier.append(NomElem(f"o{idx}a{arity}", atoms))
            yield carrier


def binding_precise_oracle(
    f_precise: dict[NomElem, BindTerm], pool: AtomPool, max_orbits: int = 2, max_arity: int = 2
) -> bool:
    """Lifting check for the binding layer over a catalog of strong carriers.

    For every strong C in the bounded catalog, every equivariant
    ``h: C -> Y'`` and every ``k: X -> [A]C`` with ``[A]h . k`` alpha-equal
    to the tested map, an equivariant ``d: Y' -> C`` must satisfy
    ``[A]d . f = k`` and ``h . d = id``.
    """
    xs = sorted(f_precise.keys(), key=lambda e: (e.tag, e.atoms))
    y_elems = sorted({t.body for t in f_precise.values()}, key=lambda e: (repr(e),))
    for carrier in _strong_carriers(pool, max_orbits, max_arity):
        for h in _equivariant_maps_from(carrier, y_elems, pool):
            k_pools = []
            for x in xs:
                target = f_precise[x]
                options = []
                for c in carrier:
                    for a in pool.atoms:
                        candidate = BindTerm(a, c)
                        mapped = BindTerm(a, h[c])
                        if alpha_equal_bind(mapped, target, pool):
                            canon = canonical_bind(candidate.atom, candidate.body, pool)
                            if canon not in options:
                                options.append(canon)
                k_pools.append(options)
            for combo in itertools.product(*k_pools):
                k = dict(zip(xs, combo))
                if not _binding_diagonal_exists(f_precise, k, carrier, h, y_elems, pool):
                    return False
    return True


def _binding_diagonal_exists(f, k, carrier, h, y_elems, pool: AtomPool) -> bool:
    for d in _equivariant_maps_from(y_elems, carrier, pool):
        if any(h[d[y]] != y for y in y_elems):
            continue
        ok = True
        for x, target in f.items():
            mapped = BindTerm(target.atom, d[target.body])
            if not alpha_equal_bind(mapped, k[x], pool):
                ok = False
                break
        if ok:
            return True
    return False


def _equivariant_maps_from(dom: list, cod: list[NomElem], pool: AtomPool) -> Iterator[dict]:
    """Equivariant maps out of a list of (possibly FreshPair) elements."""
    if not dom:
        yield {}
        return
    perms = list(all_perms(pool))
    orbits: list[list] = []
    seen: set = set()
    for e in sorted(dom, key=repr):
        if id(e) in seen:
            continue
        orbit = []
        for other in dom:
            if any(other == e.rename(pi) for pi in perms):
                orbit.append(other)
                seen.add(id(other))
        orbits.append(orbit)
    reps = [sorted(o, key=repr)[0] for o in orbits]
    pools = [[c for c in cod if c.support() <= rep.support()] for rep in reps]
    for combo in itertools.product(*pools):
        try:
            yield extend_equivariant(
                list(zip(reps, combo)),
                dom,
                pool,
                lambda pi, e: e.rename(pi),
                lambda pi, v: v.rename(pi),
                lambda e: e.support(),
                lambda v: v.support(),
            )
        except PoolError:
            continue


# ---------------------------------------------------------------------------
# Homset-order structure used by the axiom property tests

def decompose_into_units(f: BehaviourMap) -> Iterator[dict[tuple[str, str], Term | None]]:
    """All unit restrictions of ``f``: one term or nothing per state.

    The pointwise union over the whole stream recovers ``f``.
    """
    keys = sorted(f.keys())
    choices = [(None,) + tuple(f[k]) for k in keys]
    for combo in itertools.product(*choices):
        yield dict(zip(keys, combo))


def lift_choice(
    x_map: BehaviourMap,
    y_map: Mapping[tuple[str, str], Term | None],
    h: SortedFun,
    functor: Functor,
) -> dict[tuple[str, str], Term | None]:
    """Choose unit witnesses under a carrier map.

    For each ``a``: if ``y(a)`` is a term, pick the least ``t`` in
    ``x(a)`` with ``F(h)(t) = y(a)``; if ``y(a)`` is nothing, nothing.
    """
    result: dict[tuple[str, str], Term | None] = {}
    for key in sorted(x_map.keys()):
        target = y_map[key]
        if target is None:
            result[key] = None
            continue
        sort = key[0]
        eligible = [t for t in sorted(x_map[key]) if fmap(functor, h, sort, t) == target]
        if not eligible:
            raise CoalgError(f"choice precondition violated at {key}: {target!r} has no preimage")
        result[key] = eligible[0]
    return result


# ---------------------------------------------------------------------------
# LTS relations

def lts_edges(c: PointedCoalgebra) -> set[tuple[str, str, str]]:
    shape = word_shape(c.functor)
    if shape is None or shape[1] is not None:
        raise CoalgError("not an LTS-shaped functor (expected prod(const(A), id))")
    edges = set()
    for (_s, x), terms in c.xi.items():
        for t in terms:
            label = t.args[0].name  # type: ignore[union-attr]
            target = t.args[1].name  # type: ignore[union-attr]
            edges.add((x, label, target))
    return edges


def lts_is_simulation(r: set[tuple[str, str]], c1: PointedCoalgebra, c2: PointedCoalgebra) -> bool:
    """Forth condition plus the pointing clause."""
    edges1 = lts_edges(c1)
    edges2 = lts_edges(c2)
    init1 = {c1.point[(DEFAULT_SORT, i)] for _s, i in c1.pointing.pairs()}
    init2 = {c2.point[(DEFAULT_SORT, i)] for _s, i in c2.pointing.pairs()}
    for i1 in init1:
        if not any((i1, i2) in r for i2 in init2):
            return False
    for (s, s2) in r:
        for (x, a, y) in edges1:
            if x != s:
                continue
            if not any(x2 == s2 and a2 == a and (y, y2) in r for (x2, a2, y2) in edges2):
                return False
    return True


def lts_is_bisimulation(r: set[tuple[str, str]], c1: PointedCoalgebra, c2: PointedCoalgebra) -> bool:
    converse = {(b, a) for (a, b) in r}
    return lts_is_simulation(r, c1, c2) and lts_is_simulation(converse, c2, c1)
