"""Shared builders for the test suite, among them the constructors that
only tests call: the LTS step functor and systems over it, the symmetric
and cyclic slot groups, the identity map of a carrier, and the
partial-run language of a tree automaton."""

from __future__ import annotations

import itertools
import random

from typing import Iterable

from coalgpath import cli, openmap
from coalgpath.coalgebra import PointedCoalgebra
from coalgpath.functors import (
    Analytic,
    Const,
    ConstElem,
    Coprod,
    Functor,
    Prod,
    SortRef,
    Symbol,
    Term,
    TupleTerm,
    Var,
    functor,
    multisorted,
    plus1_node,
    print_term,
)
from coalgpath.groups import PermGroup
from coalgpath.lasota import FiniteCategory
from coalgpath.modelio import parse_functor_text
from coalgpath.precise import TermMap
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet
from coalgpath.trace import TraceSet, trace


def symmetric_group(arity: int) -> PermGroup:
    if arity <= 1:
        return PermGroup(arity)
    swap = (1, 0) + tuple(range(2, arity))
    cycle = tuple(range(1, arity)) + (0,)
    return PermGroup(arity, (swap, cycle))


def cyclic_group(arity: int) -> PermGroup:
    if arity <= 1:
        return PermGroup(arity)
    return PermGroup(arity, (tuple(range(1, arity)) + (0,),))


def lts_functor(alphabet: Iterable[str]) -> Functor:
    """F(X) = A x X, the labelled-transition-system step functor."""
    return functor(Prod((Const(tuple(alphabet)), SortRef(DEFAULT_SORT))))


def lts_coalgebra(
    alphabet: Iterable[str],
    states: Iterable[str],
    init: str,
    edges: Iterable[tuple[str, str, str]],
) -> PointedCoalgebra:
    """Convenience constructor for single-pointed LTSs."""
    f = lts_functor(alphabet)
    carrier = SortedSet.single(states)
    pointing = SortedSet.single(["*"])
    xi: dict[tuple[str, str], list[Term]] = {key: [] for key in carrier.pairs()}
    for (x, a, y) in edges:
        xi[(DEFAULT_SORT, x)].append(TupleTerm((ConstElem(a), Var(DEFAULT_SORT, y))))
    return PointedCoalgebra(
        f,
        pointing,
        carrier,
        {(DEFAULT_SORT, "*"): init},
        {k: tuple(sorted(set(v))) for k, v in xi.items()},
    )


def tree_partial_runs(c: PointedCoalgebra, depth: int) -> set[str]:
    """Trace values over a tree signature, printed with units at the cut."""
    if not isinstance(c.functor.node(DEFAULT_SORT), (Analytic, Coprod)):
        raise CoalgError("not a tree-signature functor")
    memo: dict = {}
    return {print_term(t, memo) for _d, items in trace(c, depth).per_depth for _key, terms in items for t in terms}


# the functors of the benchmark's theorem harness, and one multisorted one
HARNESS_FUNCTORS = [
    functor(parse_functor_text(text))
    for text in (
        "prod(const(a b), id)",
        "coprod(prod(const(a b), id), const(ok))",
        "prod(id, id)",
        "analytic{ pair/2 [(1 2)] ; leaf/0 }",
        "coprod(const(c), prod(id, id))",
    )
]
MULTISORTED = multisorted(
    ("a", "b"),
    {"a": Prod((Const(("x",)), SortRef("b"))), "b": Coprod((Prod((SortRef("a"), SortRef("b"))), Const(("y",))))},
)
SYSTEM_FUNCTORS = [*HARNESS_FUNCTORS, MULTISORTED]
SYSTEM_IDS = ["lts", "lts-ok", "binary", "pair-tree", "const-or-binary", "multisorted"]


def s3_model(generators: str) -> str:
    """A tree automaton whose ternary symbol carries the group the cycles
    ``generators`` generate, as ``print_model`` prints it."""
    return (
        f"[functor]\nanalytic{{ t/3 [{generators}] ; leaf/0 }}\n\n[pointing]\n*\n\n[states]\ns0 s1\n\n"
        "[init]\n* -> s0\n\n[trans]\ns0 -> t(s0, s1, s1)\ns1 -> leaf\n"
    )


# two presentations of the symmetric group on three slots
S3_PRESENTATIONS = ("(1 2 3), (1 2)", "(1 2), (1 3)")


def single(elems):
    return SortedSet.single(elems)


def identity_map(carrier: SortedSet) -> SortedFun:
    return SortedFun(carrier, carrier, {(s, e): e for s, e in carrier.pairs()})


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
    return TermMap(dom, f_expr, cod, {(DEFAULT_SORT, k): v for k, v in table.items()})


def all_term_maps(f_expr, dom_elems, cod_elems):
    """Every map X -> F(Y) over the default sort."""
    from coalgpath.functors import eval_functor

    dom = single(dom_elems)
    cod = single(cod_elems)
    terms = eval_functor(f_expr, cod)[DEFAULT_SORT]
    keys = list(dom.pairs())
    if not keys:
        yield TermMap(dom, f_expr, cod, {})
        return
    for combo in itertools.product(terms, repeat=len(keys)):
        yield TermMap(dom, f_expr, cod, dict(zip(keys, combo)))


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


def is_path_reachable(c: PointedCoalgebra) -> bool:
    """All runs cover the carrier, the added point allowed: the BFS union is it."""
    return openmap.reachable_bfs(c)[1] == set(c.carrier.pairs())


def drop_last_bfs_level(monkeypatch) -> None:
    """A broken breadth-first walk: every system's BFS loses its last
    level, and the union loses the states that level reached first."""
    real = openmap.reachable_bfs

    def reachable_bfs(c):
        levels, union = real(c)
        kept = levels[:-1] or levels
        return kept, frozenset().union(*kept)

    monkeypatch.setattr(openmap, "reachable_bfs", reachable_bfs)
    monkeypatch.setattr(cli, "reachable_bfs", reachable_bfs)


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


def random_category(seed: int, max_objects: int = 4) -> FiniteCategory:
    """A seeded random preorder on 1..max_objects objects times a cyclic
    group of order 1 or 2: each related pair (i, j) has one morphism
    ``f<i><j>g<k>`` per group element k, composed componentwise."""
    rng = random.Random(seed)
    k = rng.randint(1, max_objects)
    order = rng.randint(1, 2)
    leq = {(i, j) for i in range(k) for j in range(k) if i == j or rng.random() < 0.3}
    while True:
        closed = leq | {(i, l) for (i, j) in leq for (j2, l) in leq if j == j2}
        if closed == leq:
            break
        leq = closed

    def name(i: int, j: int, g: int) -> str:
        return f"f{i}{j}g{g}"

    morphisms = tuple((name(i, j, g), str(i), str(j)) for (i, j) in sorted(leq) for g in range(order))
    identities = {str(i): name(i, i, 0) for i in range(k)}
    comp = {
        (name(j, l, g), name(i, j, h)): name(i, l, (g + h) % order)
        for (i, j) in leq
        for (j2, l) in leq
        if j == j2
        for g in range(order)
        for h in range(order)
    }
    objects = tuple(str(i) for i in range(k))
    return FiniteCategory(objects, morphisms, identities, comp, rng.choice(objects))
