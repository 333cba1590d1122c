"""Syntactic functor expressions over finite sorted sets, and their terms.

A :class:`Functor` assigns to every output sort an expression built from
constants, sort projections, finite products and coproducts, analytic
quotients (tuples modulo a permutation group, whose slots are
expressions) and the finite powerset.  Terms of ``F(X)`` are immutable
trees kept in a canonical form: analytic arguments are the
lexicographically least orbit representative and powerset contents are
sorted and duplicate-free.

Composition is normalized when it is built: :func:`compose` substitutes
the inner expressions for the sort leaves of the outer one, so a
composite is just another expression of the grammar and every term
operation walks the expression and the term together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .groups import PermGroup, canonical_tuple
from .sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet


class TermError(CoalgError):
    pass


class PowersetNodeError(CoalgError):
    """Raised when an operation undefined on powerset nodes meets one."""


BOT = "⊥"   # the added point of F+1
UNIT = "•"  # the element of the terminal object, used at path cuts
CHECK = "✓"


# ---------------------------------------------------------------------------
# Terms

class Term:
    """Base class; subclasses carry a precomputed comparison key."""

    __slots__ = ("key", "_hash")
    key: tuple

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Term) and self.key == other.key

    def __lt__(self, other: "Term") -> bool:
        return self.key < other.key

    def __le__(self, other: "Term") -> bool:
        return self.key <= other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return print_term(self)


class ConstElem(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.key = (0, name)
        self._hash = hash(self.key)


class Var(Term):
    __slots__ = ("sort", "name")

    def __init__(self, sort: str, name: str):
        self.sort = sort
        self.name = name
        self.key = (1, sort, name)
        self._hash = hash(self.key)


class TupleTerm(Term):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Term, ...]):
        self.args = args
        self.key = (2, tuple(a.key for a in args))
        self._hash = hash(self.key)


class Inj(Term):
    __slots__ = ("index", "arg")

    def __init__(self, index: int, arg: Term):
        self.index = index
        self.arg = arg
        self.key = (3, index, arg.key)
        self._hash = hash(self.key)


class AnSym(Term):
    """An analytic symbol applied to a canonical argument tuple."""

    __slots__ = ("sym", "args")

    def __init__(self, sym: str, args: tuple[Term, ...]):
        self.sym = sym
        self.args = args
        self.key = (4, sym, tuple(a.key for a in args))
        self._hash = hash(self.key)


class SetOf(Term):
    __slots__ = ("args",)

    def __init__(self, args: Iterable[Term]):
        unique = sorted({t.key: t for t in args}.values())
        self.args = tuple(unique)
        self.key = (5, tuple(a.key for a in self.args))
        self._hash = hash(self.key)


class UnitLeaf(Term):
    """The element of the terminal object; appears only at path cuts."""

    __slots__ = ()

    def __init__(self) -> None:
        self.key = (6,)
        self._hash = hash(self.key)


UNIT_TERM = UnitLeaf()
BOT_TERM = ConstElem(BOT)


def ansym(group: PermGroup, sym: str, args: Iterable[Term]) -> AnSym:
    """Build an analytic term with its arguments canonicalized."""
    args = tuple(args)
    keyed = canonical_tuple(group, tuple(a.key for a in args))
    by_key = {a.key: a for a in args}
    return AnSym(sym, tuple(by_key[k] for k in keyed))


def print_term(t: Term) -> str:
    if isinstance(t, ConstElem):
        return t.name
    if isinstance(t, Var):
        return t.name
    if isinstance(t, UnitLeaf):
        return UNIT
    if isinstance(t, TupleTerm):
        return "(" + ", ".join(print_term(a) for a in t.args) + ")"
    if isinstance(t, Inj):
        return f"in{t.index}({print_term(t.arg)})"
    if isinstance(t, AnSym):
        if not t.args:
            return t.sym
        return t.sym + "(" + ", ".join(print_term(a) for a in t.args) + ")"
    if isinstance(t, SetOf):
        return "{" + ", ".join(print_term(a) for a in t.args) + "}"
    raise TermError(f"unknown term {t!r}")


# ---------------------------------------------------------------------------
# Functor expressions

class Node:
    """Base class for expression nodes; frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Node):
    elems: tuple[str, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.elems))) != self.elems:
            object.__setattr__(self, "elems", tuple(sorted(set(self.elems))))


@dataclass(frozen=True)
class SortRef(Node):
    sort: str = DEFAULT_SORT


@dataclass(frozen=True)
class Prod(Node):
    parts: tuple[Node, ...]


@dataclass(frozen=True)
class Coprod(Node):
    parts: tuple[Node, ...]


@dataclass(frozen=True)
class Symbol:
    name: str
    slots: tuple[Node, ...]
    group: PermGroup

    def __post_init__(self) -> None:
        if self.group.arity != len(self.slots):
            raise TermError(f"group arity mismatch for symbol {self.name!r}")
        for gen in self.group.generators:
            for i, j in enumerate(gen):
                if self.slots[i] != self.slots[j]:
                    raise TermError(f"generator of {self.name!r} does not preserve slot expressions")


@dataclass(frozen=True)
class Analytic(Node):
    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            raise TermError(f"duplicate symbol names: {names}")

    def symbol(self, name: str) -> Symbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise TermError(f"unknown symbol {name!r}")


@dataclass(frozen=True)
class Pf(Node):
    inner: Node


@dataclass(frozen=True)
class Functor:
    """A finite-set endofunctor: one expression node per output sort."""

    sorts: tuple[str, ...]
    nodes: tuple[tuple[str, Node], ...]

    def node(self, sort: str) -> Node:
        for s, n in self.nodes:
            if s == sort:
                return n
        raise TermError(f"no expression for sort {sort!r}")


def functor(node: Node) -> Functor:
    """Single-sorted functor over the default sort."""
    return Functor((DEFAULT_SORT,), ((DEFAULT_SORT, node),))


def multisorted(sorts: Iterable[str], nodes: Mapping[str, Node]) -> Functor:
    sort_list = tuple(sorts)
    return Functor(sort_list, tuple((s, nodes[s]) for s in sort_list))


def compose(outer: Node, inner: Functor) -> Node:
    """``outer`` after ``inner``: each sort leaf of ``outer`` replaced by
    the inner expression at that sort."""
    if isinstance(outer, SortRef):
        return inner.node(outer.sort)
    if isinstance(outer, Const):
        return outer
    if isinstance(outer, Prod):
        return Prod(tuple(compose(p, inner) for p in outer.parts))
    if isinstance(outer, Coprod):
        return Coprod(tuple(compose(p, inner) for p in outer.parts))
    if isinstance(outer, Analytic):
        return Analytic(tuple(
            Symbol(sym.name, tuple(compose(n, inner) for n in sym.slots), sym.group) for sym in outer.symbols
        ))
    if isinstance(outer, Pf):
        return Pf(compose(outer.inner, inner))
    raise TermError(f"unknown node {outer!r}")


def plus1_node(node: Node) -> Node:
    return Coprod((node, Const((BOT,))))


def plus1(f: Functor) -> Functor:
    return Functor(f.sorts, tuple((s, plus1_node(n)) for s, n in f.nodes))


def strip_plus1(term: Term) -> Term | None:
    """For a term of F+1: the F-term, or None for the added point."""
    if not isinstance(term, Inj):
        raise TermError(f"not a term of a +1 coproduct: {term!r}")
    if term.index == 0:
        return term.arg
    if term.index == 1 and term.arg == BOT_TERM:
        return None
    raise TermError(f"not a term of a +1 coproduct: {term!r}")


def bot_of_plus1() -> Term:
    return Inj(1, BOT_TERM)


def step_of_plus1(t: Term) -> Term:
    return Inj(0, t)


def node_has_pf(node: Node) -> bool:
    if isinstance(node, Pf):
        return True
    if isinstance(node, (Prod, Coprod)):
        return any(node_has_pf(p) for p in node.parts)
    if isinstance(node, Analytic):
        return any(node_has_pf(n) for sym in node.symbols for n in sym.slots)
    return False


def functor_has_pf(f: Functor) -> bool:
    return any(node_has_pf(n) for _s, n in f.nodes)


# ---------------------------------------------------------------------------
# Evaluation

def eval_node(node: Node, leaf: Callable[[SortRef], tuple[Term, ...]]) -> tuple[Term, ...]:
    """The terms of ``node`` with ``leaf(ref)`` as the terms at each sort
    leaf, visited in occurrence order."""
    if isinstance(node, Const):
        return tuple(ConstElem(e) for e in node.elems)
    if isinstance(node, SortRef):
        return leaf(node)
    if isinstance(node, Prod):
        parts = [eval_node(p, leaf) for p in node.parts]
        return tuple(TupleTerm(combo) for combo in itertools.product(*parts))
    if isinstance(node, Coprod):
        out: list[Term] = []
        for i, p in enumerate(node.parts):
            out.extend(Inj(i, t) for t in eval_node(p, leaf))
        return tuple(out)
    if isinstance(node, Analytic):
        out = []
        seen = set()
        for sym in node.symbols:
            slots = [eval_node(n, leaf) for n in sym.slots]
            for combo in itertools.product(*slots):
                t = ansym(sym.group, sym.name, combo)
                if t.key not in seen:
                    seen.add(t.key)
                    out.append(t)
        return tuple(out)
    if isinstance(node, Pf):
        base = eval_node(node.inner, leaf)
        out = []
        for r in range(len(base) + 1):
            for combo in itertools.combinations(base, r):
                out.append(SetOf(combo))
        return tuple(out)
    raise TermError(f"unknown node {node!r}")


_EVAL_CACHE: dict[tuple, tuple[tuple[str, tuple[Term, ...]], ...]] = {}


def eval_functor(f: Functor, x: SortedSet) -> dict[str, tuple[Term, ...]]:
    """All canonical terms of F(X), per output sort, in canonical order."""
    cache_key = (f, x)
    cached = _EVAL_CACHE.get(cache_key)
    if cached is None:
        env = {s: tuple(Var(s, e) for e in x.elems(s)) for s in x.sorts}

        def leaf(ref: SortRef) -> tuple[Term, ...]:
            try:
                return env[ref.sort]
            except KeyError:
                raise TermError(f"expression refers to unknown sort {ref.sort!r}") from None

        result = []
        for s in f.sorts:
            terms = sorted(set(eval_node(f.node(s), leaf)))
            result.append((s, tuple(terms)))
        cached = tuple(result)
        _EVAL_CACHE[cache_key] = cached
    return dict(cached)


def term_in_functor(f: Functor, sort: str, term: Term, x: SortedSet) -> bool:
    """Membership test ``term in F(X)`` at the given output sort."""

    def check(node: Node, t: Term) -> bool:
        if isinstance(node, Const):
            return isinstance(t, ConstElem) and t.name in node.elems
        if isinstance(node, SortRef):
            return isinstance(t, Var) and t.sort == node.sort and x.has(node.sort, t.name)
        if isinstance(node, Prod):
            return (
                isinstance(t, TupleTerm)
                and len(t.args) == len(node.parts)
                and all(check(p, a) for p, a in zip(node.parts, t.args))
            )
        if isinstance(node, Coprod):
            return isinstance(t, Inj) and 0 <= t.index < len(node.parts) and check(node.parts[t.index], t.arg)
        if isinstance(node, Analytic):
            if not isinstance(t, AnSym):
                return False
            try:
                sym = node.symbol(t.sym)
            except TermError:
                return False
            if len(t.args) != len(sym.slots):
                return False
            if ansym(sym.group, sym.name, t.args) != t:
                return False
            return all(check(n, a) for n, a in zip(sym.slots, t.args))
        if isinstance(node, Pf):
            return isinstance(t, SetOf) and all(check(node.inner, a) for a in t.args)
        raise TermError(f"unknown node {node!r}")

    return check(f.node(sort), term)


# ---------------------------------------------------------------------------
# Rebuilding terms leaf by leaf

def map_leaves(node: Node, term: Term, leaf: Callable[[SortRef, Term], Term]) -> Term:
    """Rebuild ``term`` with the subterm at each sort leaf replaced by
    ``leaf(ref, subterm)``, re-canonicalizing on the way up.

    Leaves are visited in occurrence order (see :func:`occurrences`).
    """
    if isinstance(node, SortRef):
        return leaf(node, term)
    if isinstance(node, Const):
        if isinstance(term, ConstElem) and term.name in node.elems:
            return term
    elif isinstance(node, Prod):
        if isinstance(term, TupleTerm) and len(term.args) == len(node.parts):
            return TupleTerm(tuple([map_leaves(p, a, leaf) for p, a in zip(node.parts, term.args)]))
    elif isinstance(node, Coprod):
        if isinstance(term, Inj) and 0 <= term.index < len(node.parts):
            return Inj(term.index, map_leaves(node.parts[term.index], term.arg, leaf))
    elif isinstance(node, Analytic):
        if isinstance(term, AnSym):
            sym = node.symbol(term.sym)
            if len(term.args) == len(sym.slots):
                return ansym(sym.group, sym.name, [map_leaves(n, a, leaf) for n, a in zip(sym.slots, term.args)])
    elif isinstance(node, Pf):
        if isinstance(term, SetOf):
            return SetOf([map_leaves(node.inner, a, leaf) for a in term.args])
    else:
        raise TermError(f"unknown node {node!r}")
    raise TermError(f"{term!r} does not fit {node!r}")


Subst = Mapping[tuple[str, str], Term]


def subst_node(node: Node, term: Term, sigma: Subst) -> Term:
    """Replace variables by terms, re-canonicalizing on the way up."""

    def leaf(ref: SortRef, t: Term) -> Term:
        if not isinstance(t, Var):
            raise TermError(f"expected a variable at sort {ref.sort!r}, got {t!r}")
        try:
            return sigma[(t.sort, t.name)]
        except KeyError:
            raise TermError(f"variable {t.name!r} (sort {t.sort!r}) not in substitution") from None

    return map_leaves(node, term, leaf)


def fmap(f: Functor, fun: SortedFun, sort: str, term: Term) -> Term:
    """The functorial action F(fun) applied to one term at an output sort."""
    sigma = fun.var_subst
    if sigma is None:
        sigma = fun.var_subst = {(s, x): Var(s, y) for (s, x), y in fun.table.items()}
    return subst_node(f.node(sort), term, sigma)


def rebuild_with_fresh(node: Node, term: Term, fresh: Callable[[Var, tuple[int, ...]], Var]) -> Term:
    """Replace each variable occurrence by ``fresh(var, path)``, re-canonicalizing."""
    occ = iter(occurrences(node, term))
    return map_leaves(node, term, lambda _ref, _t: fresh(*next(occ)))


# ---------------------------------------------------------------------------
# Occurrence analysis

def occurrences(node: Node, term: Term, _path: tuple[int, ...] = ()) -> list[tuple[Var, tuple[int, ...]]]:
    """Every variable leaf of ``term`` with its tree path.

    Paths are child indices: product/analytic slot positions and
    coproduct injection indices.  Undefined on powerset nodes.
    """
    if isinstance(node, SortRef):
        if not isinstance(term, Var):
            raise TermError(f"expected a variable, got {term!r}")
        return [(term, _path)]
    if isinstance(node, Const):
        if isinstance(term, ConstElem) and term.name in node.elems:
            return []
    elif isinstance(node, Prod):
        if isinstance(term, TupleTerm) and len(term.args) == len(node.parts):
            out: list[tuple[Var, tuple[int, ...]]] = []
            for i, (p, a) in enumerate(zip(node.parts, term.args)):
                out.extend(occurrences(p, a, _path + (i,)))
            return out
    elif isinstance(node, Coprod):
        if isinstance(term, Inj) and 0 <= term.index < len(node.parts):
            return occurrences(node.parts[term.index], term.arg, _path + (term.index,))
    elif isinstance(node, Analytic):
        if isinstance(term, AnSym):
            sym = node.symbol(term.sym)
            if len(term.args) == len(sym.slots):
                out = []
                for i, (n, a) in enumerate(zip(sym.slots, term.args)):
                    out.extend(occurrences(n, a, _path + (i,)))
                return out
    elif isinstance(node, Pf):
        raise PowersetNodeError("occurrence analysis is undefined on powerset nodes")
    else:
        raise TermError(f"unknown node {node!r}")
    raise TermError(f"{term!r} does not fit {node!r}")


# ---------------------------------------------------------------------------
# Common functor shapes

def lts_functor(alphabet: Iterable[str]) -> Functor:
    """F(X) = A x X, the labelled-transition-system step functor."""
    return functor(Prod((Const(tuple(alphabet)), SortRef(DEFAULT_SORT))))


def lts_term(label: str, target: str) -> Term:
    return TupleTerm((ConstElem(label), Var(DEFAULT_SORT, target)))


def word_shape(f: Functor) -> tuple[tuple[str, ...], str | None] | None:
    """``(A, None)`` for the word functor ``A x Id`` and ``(A, m)`` for
    ``A x Id + {m}``, read at the default sort; None for any other functor.

    ``plus1(A x Id)`` is word-shaped with the added point as its marker.
    """
    node = f.node(DEFAULT_SORT) if DEFAULT_SORT in f.sorts else None
    marker = None
    if (
        isinstance(node, Coprod)
        and len(node.parts) == 2
        and isinstance(node.parts[1], Const)
        and len(node.parts[1].elems) == 1
    ):
        node, marker = node.parts[0], node.parts[1].elems[0]
    if (
        isinstance(node, Prod)
        and len(node.parts) == 2
        and isinstance(node.parts[0], Const)
        and isinstance(node.parts[1], SortRef)
    ):
        return node.parts[0].elems, marker
    return None


def decode_word(term: Term) -> tuple[list[str], bool]:
    """The letters of a nested term of a word-shaped functor, and whether
    it stops at the marker (True) rather than at a path cut (False)."""
    letters: list[str] = []
    t = term
    while True:
        if isinstance(t, Inj):
            if t.index == 1:
                return letters, True
            t = t.arg
        if isinstance(t, UnitLeaf):
            return letters, False
        if not (isinstance(t, TupleTerm) and len(t.args) == 2 and isinstance(t.args[0], ConstElem)):
            raise TermError(f"cannot decode {term!r} as a word")
        letters.append(t.args[0].name)
        t = t.args[1]
