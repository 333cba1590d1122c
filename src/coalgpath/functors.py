"""Syntactic functor expressions over finite sorted sets, and their terms.

A :class:`Functor` assigns to every output sort an expression built from
constants, sort projections, finite products and coproducts, composition,
analytic quotients (tuples modulo a permutation group) and the finite
powerset.  Terms of ``F(X)`` are immutable trees kept in a canonical
form: analytic arguments are the lexicographically least orbit
representative and powerset contents are sorted and duplicate-free.

All term operations (evaluation, substitution, occurrence analysis) walk
the expression and the term together, so composite functors never need
to be flattened into an explicit signature.
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
    slot_sorts: tuple[str, ...]
    group: PermGroup

    def __post_init__(self) -> None:
        if self.group.arity != len(self.slot_sorts):
            raise TermError(f"group arity mismatch for symbol {self.name!r}")
        for gen in self.group.generators:
            for i, j in enumerate(gen):
                if self.slot_sorts[i] != self.slot_sorts[j]:
                    raise TermError(f"generator of {self.name!r} does not preserve slot sorts")


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
class ComposeNode(Node):
    """outer after inner: Sort leaves of ``outer`` denote inner components."""

    outer: Node
    inner: "Functor"


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


IDENTITY_NODE = SortRef(DEFAULT_SORT)


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
    if isinstance(node, ComposeNode):
        return node_has_pf(node.outer) or functor_has_pf(node.inner)
    return False


def functor_has_pf(f: Functor) -> bool:
    return any(node_has_pf(n) for _s, n in f.nodes)


# ---------------------------------------------------------------------------
# Evaluation

Env = Mapping[str, tuple[Term, ...]]


def _eval_node(node: Node, env: Env) -> tuple[Term, ...]:
    if isinstance(node, Const):
        return tuple(ConstElem(e) for e in node.elems)
    if isinstance(node, SortRef):
        try:
            return env[node.sort]
        except KeyError:
            raise TermError(f"expression refers to unknown sort {node.sort!r}") from None
    if isinstance(node, Prod):
        parts = [_eval_node(p, env) for p in node.parts]
        return tuple(TupleTerm(combo) for combo in itertools.product(*parts))
    if isinstance(node, Coprod):
        out: list[Term] = []
        for i, p in enumerate(node.parts):
            out.extend(Inj(i, t) for t in _eval_node(p, env))
        return tuple(out)
    if isinstance(node, Analytic):
        out = []
        seen = set()
        for sym in node.symbols:
            slots = [_eval_node(SortRef(s), env) for s in sym.slot_sorts]
            for combo in itertools.product(*slots):
                t = ansym(sym.group, sym.name, combo)
                if t.key not in seen:
                    seen.add(t.key)
                    out.append(t)
        return tuple(out)
    if isinstance(node, Pf):
        base = _eval_node(node.inner, env)
        out = []
        for r in range(len(base) + 1):
            for combo in itertools.combinations(base, r):
                out.append(SetOf(combo))
        return tuple(out)
    if isinstance(node, ComposeNode):
        inner_env = {s: _eval_node(node.inner.node(s), env) for s in node.inner.sorts}
        return _eval_node(node.outer, inner_env)
    raise TermError(f"unknown node {node!r}")


_EVAL_CACHE: dict[tuple, tuple[tuple[str, tuple[Term, ...]], ...]] = {}


def eval_functor(f: Functor, x: SortedSet) -> dict[str, tuple[Term, ...]]:
    """All canonical terms of F(X), per output sort, in canonical order."""
    cache_key = (f, x)
    cached = _EVAL_CACHE.get(cache_key)
    if cached is None:
        env = {s: tuple(Var(s, e) for e in x.elems(s)) for s in x.sorts}
        result = []
        for s in f.sorts:
            terms = sorted(set(_eval_node(f.node(s), env)))
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
            if len(t.args) != len(sym.slot_sorts):
                return False
            if ansym(sym.group, sym.name, t.args) != t:
                return False
            return all(check(SortRef(s), a) for s, a in zip(sym.slot_sorts, t.args))
        if isinstance(node, Pf):
            return isinstance(t, SetOf) and all(check(node.inner, a) for a in t.args)
        if isinstance(node, ComposeNode):
            def check_inner(n: Node, u: Term) -> bool:
                if isinstance(n, SortRef):
                    return check(node.inner.node(n.sort), u)
                return _structural(n, u, check_inner)
            return check_inner(node.outer, t)
        raise TermError(f"unknown node {node!r}")

    def _structural(n: Node, u: Term, rec: Callable[[Node, Term], bool]) -> bool:
        if isinstance(n, Const):
            return isinstance(u, ConstElem) and u.name in n.elems
        if isinstance(n, Prod):
            return isinstance(u, TupleTerm) and len(u.args) == len(n.parts) and all(
                rec(p, a) for p, a in zip(n.parts, u.args)
            )
        if isinstance(n, Coprod):
            return isinstance(u, Inj) and 0 <= u.index < len(n.parts) and rec(n.parts[u.index], u.arg)
        if isinstance(n, Analytic):
            if not isinstance(u, AnSym):
                return False
            try:
                sym = n.symbol(u.sym)
            except TermError:
                return False
            return len(u.args) == len(sym.slot_sorts) and all(
                rec(SortRef(s), a) for s, a in zip(sym.slot_sorts, u.args)
            )
        if isinstance(n, Pf):
            return isinstance(u, SetOf) and all(rec(n.inner, a) for a in u.args)
        if isinstance(n, ComposeNode):
            raise TermError("nested composition inside composition outer layer")
        raise TermError(f"unknown node {n!r}")

    return check(f.node(sort), term)


# ---------------------------------------------------------------------------
# Substitution and functorial action

Subst = Mapping[tuple[str, str], Term]


def subst_node(node: Node, term: Term, sigma: Subst) -> Term:
    """Replace variables by terms, re-canonicalizing on the way up."""
    if isinstance(node, Const):
        return term
    if isinstance(node, SortRef):
        if not isinstance(term, Var):
            raise TermError(f"expected a variable at sort {node.sort!r}, got {term!r}")
        try:
            return sigma[(term.sort, term.name)]
        except KeyError:
            raise TermError(f"variable {term.name!r} (sort {term.sort!r}) not in substitution") from None
    if isinstance(node, Prod):
        assert isinstance(term, TupleTerm)
        return TupleTerm(tuple(subst_node(p, a, sigma) for p, a in zip(node.parts, term.args)))
    if isinstance(node, Coprod):
        assert isinstance(term, Inj)
        return Inj(term.index, subst_node(node.parts[term.index], term.arg, sigma))
    if isinstance(node, Analytic):
        assert isinstance(term, AnSym)
        sym = node.symbol(term.sym)
        new_args = tuple(subst_node(SortRef(s), a, sigma) for s, a in zip(sym.slot_sorts, term.args))
        return ansym(sym.group, sym.name, new_args)
    if isinstance(node, Pf):
        assert isinstance(term, SetOf)
        return SetOf(subst_node(node.inner, a, sigma) for a in term.args)
    if isinstance(node, ComposeNode):
        def rec(n: Node, u: Term) -> Term:
            if isinstance(n, SortRef):
                return subst_node(node.inner.node(n.sort), u, sigma)
            if isinstance(n, Const):
                return u
            if isinstance(n, Prod):
                assert isinstance(u, TupleTerm)
                return TupleTerm(tuple(rec(p, a) for p, a in zip(n.parts, u.args)))
            if isinstance(n, Coprod):
                assert isinstance(u, Inj)
                return Inj(u.index, rec(n.parts[u.index], u.arg))
            if isinstance(n, Analytic):
                assert isinstance(u, AnSym)
                sym = n.symbol(u.sym)
                return ansym(sym.group, sym.name, tuple(rec(SortRef(s), a) for s, a in zip(sym.slot_sorts, u.args)))
            if isinstance(n, Pf):
                assert isinstance(u, SetOf)
                return SetOf(rec(n.inner, a) for a in u.args)
            raise TermError(f"unknown node {n!r}")
        return rec(node.outer, term)
    raise TermError(f"unknown node {node!r}")


def fmap(f: Functor, fun: SortedFun, sort: str, term: Term) -> Term:
    """The functorial action F(fun) applied to one term at an output sort."""
    sigma = fun.var_subst
    if sigma is None:
        sigma = fun.var_subst = {(s, x): Var(s, y) for (s, x), y in fun.table.items()}
    return subst_node(f.node(sort), term, sigma)


# ---------------------------------------------------------------------------
# Occurrence analysis

def occurrences(node: Node, term: Term, _path: tuple[int, ...] = ()) -> list[tuple[Var, tuple[int, ...]]]:
    """Every variable leaf of ``term`` with its tree path.

    Paths are child indices: product/analytic slot positions and
    coproduct injection indices; composition flattens outer and inner
    paths.  Undefined on powerset nodes.
    """
    if isinstance(node, Const):
        return []
    if isinstance(node, SortRef):
        if not isinstance(term, Var):
            raise TermError(f"expected a variable, got {term!r}")
        return [(term, _path)]
    if isinstance(node, Prod):
        assert isinstance(term, TupleTerm)
        out: list[tuple[Var, tuple[int, ...]]] = []
        for i, (p, a) in enumerate(zip(node.parts, term.args)):
            out.extend(occurrences(p, a, _path + (i,)))
        return out
    if isinstance(node, Coprod):
        assert isinstance(term, Inj)
        return occurrences(node.parts[term.index], term.arg, _path + (term.index,))
    if isinstance(node, Analytic):
        assert isinstance(term, AnSym)
        sym = node.symbol(term.sym)
        out = []
        for i, (s, a) in enumerate(zip(sym.slot_sorts, term.args)):
            out.extend(occurrences(SortRef(s), a, _path + (i,)))
        return out
    if isinstance(node, Pf):
        raise PowersetNodeError("occurrence analysis is undefined on powerset nodes")
    if isinstance(node, ComposeNode):
        def rec(n: Node, u: Term, path: tuple[int, ...]) -> list[tuple[Var, tuple[int, ...]]]:
            if isinstance(n, SortRef):
                return occurrences(node.inner.node(n.sort), u, path)
            if isinstance(n, Const):
                return []
            if isinstance(n, Prod):
                assert isinstance(u, TupleTerm)
                acc: list[tuple[Var, tuple[int, ...]]] = []
                for i, (p, a) in enumerate(zip(n.parts, u.args)):
                    acc.extend(rec(p, a, path + (i,)))
                return acc
            if isinstance(n, Coprod):
                assert isinstance(u, Inj)
                return rec(n.parts[u.index], u.arg, path + (u.index,))
            if isinstance(n, Analytic):
                assert isinstance(u, AnSym)
                sym = n.symbol(u.sym)
                acc = []
                for i, (s, a) in enumerate(zip(sym.slot_sorts, u.args)):
                    acc.extend(rec(SortRef(s), a, path + (i,)))
                return acc
            if isinstance(n, Pf):
                raise PowersetNodeError("occurrence analysis is undefined on powerset nodes")
            raise TermError(f"unknown node {n!r}")
        return rec(node.outer, term, _path)
    raise TermError(f"unknown node {node!r}")


def rebuild_with_fresh(
    node: Node,
    term: Term,
    fresh: Callable[[Var, tuple[int, ...]], Var],
    _path: tuple[int, ...] = (),
) -> Term:
    """Replace each variable occurrence by ``fresh(var, path)``, re-canonicalizing."""
    if isinstance(node, Const):
        return term
    if isinstance(node, SortRef):
        assert isinstance(term, Var)
        return fresh(term, _path)
    if isinstance(node, Prod):
        assert isinstance(term, TupleTerm)
        return TupleTerm(
            tuple(rebuild_with_fresh(p, a, fresh, _path + (i,)) for i, (p, a) in enumerate(zip(node.parts, term.args)))
        )
    if isinstance(node, Coprod):
        assert isinstance(term, Inj)
        return Inj(term.index, rebuild_with_fresh(node.parts[term.index], term.arg, fresh, _path + (term.index,)))
    if isinstance(node, Analytic):
        assert isinstance(term, AnSym)
        sym = node.symbol(term.sym)
        new_args = tuple(
            rebuild_with_fresh(SortRef(s), a, fresh, _path + (i,))
            for i, (s, a) in enumerate(zip(sym.slot_sorts, term.args))
        )
        return ansym(sym.group, sym.name, new_args)
    if isinstance(node, Pf):
        raise PowersetNodeError("fresh-variable rebuilding is undefined on powerset nodes")
    if isinstance(node, ComposeNode):
        def rec(n: Node, u: Term, path: tuple[int, ...]) -> Term:
            if isinstance(n, SortRef):
                return rebuild_with_fresh(node.inner.node(n.sort), u, fresh, path)
            if isinstance(n, Const):
                return u
            if isinstance(n, Prod):
                assert isinstance(u, TupleTerm)
                return TupleTerm(tuple(rec(p, a, path + (i,)) for i, (p, a) in enumerate(zip(n.parts, u.args))))
            if isinstance(n, Coprod):
                assert isinstance(u, Inj)
                return Inj(u.index, rec(n.parts[u.index], u.arg, path + (u.index,)))
            if isinstance(n, Analytic):
                assert isinstance(u, AnSym)
                sym = n.symbol(u.sym)
                return ansym(
                    sym.group,
                    sym.name,
                    tuple(rec(SortRef(s), a, path + (i,)) for i, (s, a) in enumerate(zip(sym.slot_sorts, u.args))),
                )
            if isinstance(n, Pf):
                raise PowersetNodeError("fresh-variable rebuilding is undefined on powerset nodes")
            raise TermError(f"unknown node {n!r}")
        return rec(node.outer, term, _path)
    raise TermError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Common functor shapes

def lts_functor(alphabet: Iterable[str]) -> Functor:
    """F(X) = A x X, the labelled-transition-system step functor."""
    return functor(Prod((Const(tuple(alphabet)), SortRef(DEFAULT_SORT))))


def lts_term(label: str, target: str) -> Term:
    return TupleTerm((ConstElem(label), Var(DEFAULT_SORT, target)))
