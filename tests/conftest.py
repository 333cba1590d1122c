"""Shared builders for the test suite."""

from __future__ import annotations

import itertools

from coalgpath.coalgebra import PointedCoalgebra
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
from coalgpath.precise import TermMap, TermSpace
from coalgpath.sets import DEFAULT_SORT, SortedSet


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
