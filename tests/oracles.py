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
  relations on edges;
- direct checks of what the library builds: a factorization commutes,
  a binding factorization round-trips, a trace set is prefix-closed, a
  family of maps is a path morphism, and the states a run visits;
- finite maps: every total map between two carriers, composition,
  injectivity and surjectivity, and the homset order of behaviour maps.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from coalgpath.coalgebra import PointedCoalgebra
from coalgpath.functors import Functor, Term, eval_functor, fmap, word_shape
from coalgpath.nominal import (
    AtomPool,
    BindingFactorization,
    BindTerm,
    NomElem,
    PoolError,
    all_perms,
    alpha_equal_bind,
    canonical_bind,
    extend_equivariant,
)
from coalgpath.paths import PathMorphism, Run, truncate_term
from coalgpath.precise import Factorization, TermMap
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet
from coalgpath.trace import TraceSet

BehaviourMap = Mapping[tuple[str, str], tuple[Term, ...]]


# ---------------------------------------------------------------------------
# Finite maps

def all_functions(dom: SortedSet, cod: SortedSet) -> Iterator[SortedFun]:
    """Enumerate every total map dom -> cod in a fixed order."""
    keys = list(dom.pairs())
    choice_lists = [cod.elems(s) for s, _ in keys]
    if any(not choices for choices in choice_lists):
        return
    for combo in itertools.product(*choice_lists):
        yield SortedFun(dom, cod, dict(zip(keys, combo)))


def compose_maps(second: SortedFun, first: SortedFun) -> SortedFun:
    """``second`` after ``first``."""
    table = {(s, x): second.table[(s, y)] for (s, x), y in first.table.items()}
    return SortedFun(first.dom, second.cod, table)


def is_injective(fun: SortedFun) -> bool:
    per_sort: dict[str, set] = {}
    for (s, _x), y in fun.table.items():
        seen = per_sort.setdefault(s, set())
        if y in seen:
            return False
        seen.add(y)
    return True


def is_surjective(fun: SortedFun) -> bool:
    image = {(s, y) for (s, _x), y in fun.table.items()}
    return image == set(fun.cod.pairs())


def is_bijective(fun: SortedFun) -> bool:
    return is_injective(fun) and is_surjective(fun)


def homset_leq(f: BehaviourMap, g: BehaviourMap) -> bool:
    """Pointwise inclusion of behaviour maps with a common domain."""
    if set(f.keys()) != set(g.keys()):
        raise CoalgError("homset order compares maps on a common domain only")
    return all(set(f[k]) <= set(g[k]) for k in f)


# ---------------------------------------------------------------------------
# Direct checks of what the library builds

def factorization_commutes(f: TermMap, fac: Factorization) -> bool:
    """Check F(h) . f' = f."""
    for (sort, x) in f.dom.pairs():
        if fmap(f.space.functor, fac.connect, sort, fac.precise(sort, x)) != f(sort, x):
            return False
    return True


def binding_roundtrip_ok(f: dict[NomElem, BindTerm], fac: BindingFactorization, pool: AtomPool) -> bool:
    """[A]h . f' alpha-equal to f, per domain element."""
    for x, bind_term in f.items():
        lifted = fac.precise[x]
        body = fac.connect[lifted.body]  # type: ignore[index]
        if not alpha_equal_bind(BindTerm(lifted.atom, body), bind_term, pool):
            return False
    return True


def prefix_closed(ts: TraceSet) -> bool:
    """Every truncation of a member is a member (per pointing element)."""
    by_depth = dict(ts.per_depth)
    for d, items in ts.per_depth:
        for key, terms in items:
            for t in terms:
                for d2 in range(d):
                    shallower = by_depth.get(d2)
                    if not shallower:
                        return False
                    expected = truncate_term(ts.functor, key[0], t, d2)
                    if expected not in dict(shallower)[key]:
                        return False
    return True


def is_path_morphism(m: PathMorphism) -> bool:
    if m.src.length > m.dst.length or len(m.components) != m.src.length + 1:
        return False
    if m.components[0].table != SortedFun.identity(m.src.pointing).table:
        return False
    fp1 = m.src.plus1()
    for k in range(m.src.length):
        phi_k, phi_next = m.components[k], m.components[k + 1]
        for (s, x) in m.src.levels[k].pairs():
            lhs = fmap(fp1, phi_next, s, m.src.steps[k](s, x))
            rhs = m.dst.steps[k](s, phi_k(s, x))
            if lhs != rhs:
                return False
    return True


def run_image(r: Run) -> set[tuple[str, str]]:
    """The (sort, state) pairs a run visits."""
    out: set[tuple[str, str]] = set()
    for k, x_k in enumerate(r.components):
        for (s, e) in r.path.levels[k].pairs():
            out.add((s, x_k(s, e)))
    return out


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
