"""Shared builders for the test suite."""

from __future__ import annotations

import itertools

from coalgpath.coalgebra import PointedCoalgebra, lts_coalgebra
from coalgpath.functors import (
    Analytic,
    Const,
    Prod,
    SortRef,
    Symbol,
    Term,
    TupleTerm,
    Var,
    functor,
    plus1_node,
)
from coalgpath.groups import symmetric_group
from coalgpath.lasota import FiniteCategory
from coalgpath.precise import TermMap, TermSpace
from coalgpath.sets import DEFAULT_SORT, SortedSet
from coalgpath.trace import TraceSet


def single(elems):
    return SortedSet.single(elems)


def var(name: str) -> Var:
    return Var(DEFAULT_SORT, name)


def pair_sig(group=None):
    """The arity-2 analytic signature; default the full symmetric group."""
    g = group if group is not None else symmetric_group(2)
    return Analytic((Symbol("pair", (SortRef(), SortRef()), g),))


# the Fig.-2 functor: X x X + bottom
FIG2 = functor(plus1_node(Prod((SortRef(), SortRef()))))

# battery used by the precise-characterization tests
LTS_AB_PLUS1 = functor(plus1_node(Prod((Const(("a", "b")), SortRef()))))
BAG2_PLUS1 = functor(plus1_node(pair_sig()))
CONST_PLUS1 = functor(plus1_node(Const(("c",))))


def term_map(f_expr, dom_elems, cod_elems, table) -> TermMap:
    dom = single(dom_elems)
    cod = single(cod_elems)
    return TermMap(dom, TermSpace(f_expr, cod), {(DEFAULT_SORT, k): v for k, v in table.items()})


def all_term_maps(f_expr, dom_elems, cod_elems):
    """Every map X -> F(Y) over the default sort."""
    from coalgpath.functors import eval_functor

    dom = single(dom_elems)
    cod = single(cod_elems)
    space = TermSpace(f_expr, cod)
    terms = eval_functor(f_expr, cod)[DEFAULT_SORT]
    keys = list(dom.pairs())
    if not keys:
        yield TermMap(dom, space, {})
        return
    for combo in itertools.product(terms, repeat=len(keys)):
        yield TermMap(dom, space, dict(zip(keys, combo)))


def whyplus1_system() -> PointedCoalgebra:
    """The five-state pair-functor system from the +1 discussion."""
    f = functor(Prod((SortRef(), SortRef())))
    carrier = single(["x0", "y1", "y2", "z1", "z2"])

    def pr(a, b) -> Term:
        return TupleTerm((var(a), var(b)))

    return PointedCoalgebra(
        f,
        single(["*"]),
        carrier,
        {(DEFAULT_SORT, "*"): "x0"},
        {
            (DEFAULT_SORT, "x0"): (pr("y1", "y2"),),
            (DEFAULT_SORT, "y1"): (pr("z1", "z2"),),
            (DEFAULT_SORT, "y2"): (),
            (DEFAULT_SORT, "z1"): (),
            (DEFAULT_SORT, "z2"): (),
        },
    )


def linear_word_system(alphabet, word) -> PointedCoalgebra:
    """The linear system over a word: states q0..qn along its letters."""
    letters = list(word)
    states = [f"q{i}" for i in range(len(letters) + 1)]
    edges = [(f"q{i}", a, f"q{i + 1}") for i, a in enumerate(letters)]
    return lts_coalgebra(alphabet, states, "q0", edges)


def trace_pairs(ts: TraceSet) -> set:
    """(depth, term) pairs of a trace set over a singleton pointing."""
    return {(d, t) for d, ((_key, terms),) in ts.per_depth for t in terms}


def poset_category(chain: int) -> FiniteCategory:
    """The poset 0 -> 1 -> ... -> (chain-1) as a category."""
    objects = tuple(str(i) for i in range(chain))
    identities = {str(i): f"id{i}" for i in range(chain)}
    morphisms = []
    for i in range(chain):
        for j in range(i, chain):
            name = f"id{i}" if i == j else f"m{i}{j}"
            morphisms.append((name, str(i), str(j)))
    comp = {}
    for (g, gd, gc) in morphisms:
        for (f, fd, fc) in morphisms:
            if fc != gd:
                continue
            i, k = int(fd), int(gc)
            comp[(g, f)] = f"id{i}" if i == k else f"m{i}{k}"
    return FiniteCategory(objects, tuple(morphisms), identities, comp, "0")


def one_object_category() -> FiniteCategory:
    return FiniteCategory(("0",), (("id0", "0", "0"),), {"0": "id0"}, {("id0", "id0"): "id0"}, "0")
