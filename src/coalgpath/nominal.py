"""Bounded-atom-pool shadow of nominal automata with binders.

A finite pool stands in for the countable atom universe: permutation
actions, support, alpha-equivalence of bar strings and register automata
are all computed exactly over the pool.  Register-tuple states carry
their support atoms in fixed slots, which gives the unique-extension
property for equivariant maps defined on orbit representatives; binder
successors are stored alpha-canonically (least admissible binder) so the
quotient never materializes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .coalgebra import PointedCoalgebra
from .functors import (
    CHECK,
    Const,
    ConstElem,
    Coprod,
    Functor,
    Inj,
    Prod,
    SortRef,
    Term,
    TupleTerm,
    UnitLeaf,
    Var,
    functor,
)
from .sets import DEFAULT_SORT, CoalgError, SortedSet

OK_TOKEN = ("ok",)
CUT_TOKEN = ("cut",)


class PoolError(CoalgError):
    pass


@dataclass(frozen=True)
class AtomPool:
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise PoolError("atom pool must contain at least one atom")

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(f"a{i + 1}" for i in range(self.size))


class Perm:
    """A bijection on the pool atoms."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: dict[str, str]):
        if sorted(mapping.keys()) != sorted(mapping.values()):
            raise PoolError(f"not a bijection: {mapping}")
        self.mapping = dict(mapping)

    def __call__(self, atom: str) -> str:
        return self.mapping.get(atom, atom)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.mapping == other.mapping

    def after(self, first: "Perm") -> "Perm":
        keys = set(self.mapping) | set(first.mapping)
        return Perm({k: self(first(k)) for k in keys})

    @staticmethod
    def identity() -> "Perm":
        return Perm({})

    @staticmethod
    def swap(a: str, b: str) -> "Perm":
        if a == b:
            return Perm.identity()
        return Perm({a: b, b: a})


def all_perms(pool: AtomPool) -> Iterator[Perm]:
    atoms = pool.atoms
    for image in itertools.permutations(atoms):
        yield Perm(dict(zip(atoms, image)))


# ---------------------------------------------------------------------------
# Bar strings

@dataclass(frozen=True)
class BarString:
    """A word over free literals and binders, possibly marked at the end.

    ``terminal`` is the final-state marker, the cut marker for a word
    that may still be extended, or None for a bare word.  The optional
    context is a tuple of distinct atoms; alpha-equivalence of words in
    context compares the closures (context atoms bound on the outside).
    """

    tokens: tuple[tuple[str, str], ...]  # ("free", a) | ("bar", a)
    terminal: str | None = None          # CHECK | "cut" | None
    context: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.context)) != len(self.context):
            raise PoolError(f"context atoms must be distinct: {self.context}")
        for kind, _atom in self.tokens:
            if kind not in ("free", "bar"):
                raise PoolError(f"unknown token kind {kind!r}")


def bar(atom: str) -> tuple[str, str]:
    return ("bar", atom)


def free(atom: str) -> tuple[str, str]:
    return ("free", atom)


def support(w: BarString) -> set[str]:
    """Free atoms of the word itself (binders capture to the right)."""
    bound: set[str] = set()
    out: set[str] = set()
    for kind, atom in w.tokens:
        if kind == "bar":
            bound.add(atom)
        elif atom not in bound:
            out.add(atom)
    return out


def apply_perm(pi: Perm, w: BarString) -> BarString:
    """Rename every atom, binders included; an action of the perm group."""
    return BarString(
        tuple((kind, pi(atom)) for kind, atom in w.tokens),
        w.terminal,
        tuple(pi(a) for a in w.context),
    )


def alpha_canonical(w: BarString) -> tuple:
    """De-Bruijn-style canonical form of the closure of ``w``.

    Context atoms are bound on the outside; bound occurrences become
    distances to their binder (1 = innermost), binders become anonymous.
    Idempotent, and two words in context are alpha-equivalent exactly
    when their canonical forms coincide.
    """
    stack: list[str] = []
    out: list[tuple] = []
    for a in w.context:
        out.append(("bar",))
        stack.append(a)
    for kind, atom in w.tokens:
        if kind == "bar":
            out.append(("bar",))
            stack.append(atom)
        else:
            if atom in stack:
                distance = len(stack) - max(i for i, b in enumerate(stack) if b == atom)
                out.append(("ref", distance))
            else:
                out.append(("free", atom))
    if w.terminal == CHECK:
        out.append(OK_TOKEN)
    elif w.terminal == "cut":
        out.append(CUT_TOKEN)
    return tuple(out)


def print_canonical(form: tuple) -> str:
    parts = []
    for token in form:
        if token == ("bar",):
            parts.append("|.")
        elif token[0] == "ref":
            parts.append(f"^{token[1]}")
        elif token[0] == "free":
            parts.append(token[1])
        elif token == OK_TOKEN:
            parts.append(CHECK)
        elif token == CUT_TOKEN:
            parts.append("•")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Desk-scale nominal elements

@dataclass(frozen=True)
class NomElem:
    """An element with its support atoms in fixed slots (strong by shape)."""

    tag: str
    atoms: tuple[str, ...]

    def support(self) -> set[str]:
        return set(self.atoms)

    def rename(self, pi: Perm) -> "NomElem":
        return NomElem(self.tag, tuple(pi(a) for a in self.atoms))


@dataclass(frozen=True)
class FreshPair:
    """An element of the fresh-pair set: an atom outside the base support."""

    atom: str
    base: NomElem

    def support(self) -> set[str]:
        return {self.atom} | self.base.support()

    def rename(self, pi: Perm) -> "FreshPair":
        return FreshPair(pi(self.atom), self.base.rename(pi))


def extend_equivariant(
    reps: list[tuple[object, object]],
    elements: list,
    pool: AtomPool,
    act_elem: Callable,
    act_value: Callable,
    supp_elem: Callable,
    supp_value: Callable,
) -> dict:
    """The unique equivariant extension of values given on orbit representatives.

    Every element must be pi . rep for exactly one rep, and each value
    may only use atoms from its representative's support; the extension
    is checked for well-definedness over all permutations fixing a
    representative (vacuous for strong elements, but verified anyway).
    """
    for rep, value in reps:
        if not supp_value(value) <= supp_elem(rep):
            raise PoolError(f"value support {supp_value(value)} exceeds representative support of {rep}")
    perms = list(all_perms(pool))
    for rep, value in reps:
        for pi in perms:
            if act_elem(pi, rep) == rep and act_value(pi, value) != value:
                raise PoolError(f"value at {rep} not fixed by a stabilizer of it")
    result: dict = {}
    origin: dict = {}
    for element in elements:
        found = None
        for rep, value in reps:
            for pi in perms:
                if act_elem(pi, rep) == element:
                    if found is not None and origin[element] != rep:
                        raise PoolError(f"element {element} generated by two representatives")
                    if found is None:
                        found = act_value(pi, value)
                        origin[element] = rep
                        result[element] = found
        if found is None:
            raise PoolError(f"element {element} has no generating representative")
    return result


# ---------------------------------------------------------------------------
# The binding layer

@dataclass(frozen=True)
class BindTerm:
    """A binder applied to an element: one representative of the alpha-class."""

    atom: str
    body: NomElem | FreshPair

    def support(self) -> set[str]:
        return self.body.support() - {self.atom}

    def rename(self, pi: Perm) -> "BindTerm":
        return BindTerm(pi(self.atom), self.body.rename(pi))


def canonical_bind(atom: str, body, pool: AtomPool):
    """The least-binder representative of the alpha-class of <atom>body."""
    blocked = body.support() - {atom}
    candidates = [a for a in pool.atoms if a not in blocked]
    if not candidates:
        raise PoolError("pool exhausted: no admissible binder")
    b = candidates[0]
    return BindTerm(b, body.rename(Perm.swap(atom, b)))


def alpha_equal_bind(t1: BindTerm, t2: BindTerm, pool: AtomPool) -> bool:
    return canonical_bind(t1.atom, t1.body, pool) == canonical_bind(t2.atom, t2.body, pool)


@dataclass
class BindingFactorization:
    codomain: list[FreshPair]            # Y' = one canonical fresh pair per x
    precise: dict[NomElem, BindTerm]     # f': x -> <a>(a, x)
    connect: dict[FreshPair, NomElem]    # h: instantiated bodies


def binding_factorize(f: dict[NomElem, BindTerm], pool: AtomPool) -> BindingFactorization:
    """Factorize through the binding layer via its fresh-pair left adjoint.

    f'(x) = <a>(a, x) for the least atom a fresh for x; h sends the pair
    to the body of f(x) instantiated at that atom.  The composite
    [A]h . f' is alpha-equal to f.
    """
    codomain: list[FreshPair] = []
    precise: dict[NomElem, BindTerm] = {}
    connect: dict[FreshPair, NomElem] = {}
    for x in sorted(f.keys(), key=lambda e: (e.tag, e.atoms)):
        fresh_candidates = [a for a in pool.atoms if a not in x.support()]
        if not fresh_candidates:
            raise PoolError(f"pool exhausted: no fresh atom for {x}")
        a = fresh_candidates[0]
        bind_term = f[x]
        body = bind_term.body
        if not isinstance(body, NomElem):
            raise PoolError("binding factorization expects plain elements as bodies")
        if not (body.support() - {bind_term.atom}) <= x.support():
            raise PoolError(f"map at {x} is not support-respecting")
        pair = FreshPair(a, x)
        codomain.append(pair)
        precise[x] = BindTerm(a, pair)
        connect[pair] = body.rename(Perm.swap(bind_term.atom, a))
    return BindingFactorization(codomain, precise, connect)


# ---------------------------------------------------------------------------
# Register automata with binders

@dataclass(frozen=True)
class RnnaRule:
    kind: str                 # "ok" | "read" | "bind"
    src: str
    target: str | None = None
    register: int | None = None       # read: 1-based source register
    sigma: tuple[int, ...] = ()       # target registers from source registers; 0 = fresh atom


@dataclass
class RnnaPresentation:
    """Finitely presented automaton: control states with register slots,
    rules on orbit representatives."""

    states: dict[str, int]
    init: str
    rules: tuple[RnnaRule, ...]

    @property
    def context_arity(self) -> int:
        return self.states[self.init]

    def __post_init__(self) -> None:
        if self.init not in self.states:
            raise CoalgError(f"unknown initial control state {self.init!r}")
        for rule in self.rules:
            if rule.src not in self.states:
                raise CoalgError(f"rule source {rule.src!r} unknown")
            arity = self.states[rule.src]
            if rule.kind == "ok":
                continue
            if rule.target not in self.states:
                raise CoalgError(f"rule target {rule.target!r} unknown")
            target_arity = self.states[rule.target]
            if len(rule.sigma) != target_arity:
                raise CoalgError(f"reassignment arity mismatch in rule {rule}")
            fresh_slots = [j for j in rule.sigma if j == 0]
            if rule.kind == "read":
                if rule.register is None or not 1 <= rule.register <= arity:
                    raise CoalgError(f"read register out of range in rule {rule}")
                if fresh_slots:
                    raise CoalgError("read rules cannot place a fresh atom")
            if rule.kind == "bind" and len(fresh_slots) > 1:
                raise CoalgError("bind rules place the fresh atom in at most one slot")
            non_fresh = [j for j in rule.sigma if j != 0]
            if len(set(non_fresh)) != len(non_fresh):
                raise CoalgError(f"register tuples must stay injective in rule {rule}")
            for j in non_fresh:
                if not 1 <= j <= arity:
                    raise CoalgError(f"reassignment source {j} out of range in rule {rule}")


def state_name(q: str, regs: tuple[str, ...]) -> str:
    return f"{q}({','.join(regs)})"


def parse_state_name(name: str) -> tuple[str, tuple[str, ...]]:
    q, rest = name.split("(", 1)
    inner = rest[:-1]
    return q, tuple(a for a in inner.split(",") if a)


def context_name(regs: tuple[str, ...]) -> str:
    return f"({','.join(regs)})"


def rnna_functor(pool: AtomPool) -> Functor:
    """accept + binder layer + literal layer, over the bounded pool."""
    atoms = Const(pool.atoms)
    return functor(
        Coprod(
            (
                Const((CHECK,)),
                Prod((atoms, SortRef())),   # binder successors, stored canonically
                Prod((atoms, SortRef())),   # free-literal successors
            )
        )
    )


BAR_INDEX = 1
FREE_INDEX = 2


def _bind_successor(rule: RnnaRule, regs: tuple[str, ...], pool: AtomPool) -> Term:
    fresh_candidates = [a for a in pool.atoms if a not in regs]
    if not fresh_candidates:
        raise PoolError("pool too small: no fresh atom available")
    a = fresh_candidates[0]
    target_regs = tuple(a if j == 0 else regs[j - 1] for j in rule.sigma)
    return _bar_term(a, NomElem(rule.target or "", target_regs), pool)


def _bar_term(atom: str, body: NomElem, pool: AtomPool) -> Term:
    """The binder transition to ``body`` under ``atom``, alpha-canonical."""
    canonical = canonical_bind(atom, body, pool)
    target = canonical.body  # ``body`` renamed, so a NomElem
    return Inj(
        BAR_INDEX,
        TupleTerm((ConstElem(canonical.atom), Var(DEFAULT_SORT, state_name(target.tag, target.atoms)))),  # type: ignore[union-attr]
    )


def rnna_expand(presentation: RnnaPresentation, pool: AtomPool) -> PointedCoalgebra:
    """The full register-tuple coalgebra: the equivariant closure of the rules.

    Carriers are control states paired with injective register tuples
    over the pool; bind rules produce the alpha-canonical binder
    successor.  Needs one spare atom beyond the largest register count.
    """
    max_regs = max(presentation.states.values(), default=0)
    if pool.size < max_regs + 1:
        raise PoolError(f"pool of {pool.size} atoms too small for {max_regs} registers")
    names: list[str] = []
    for q in sorted(presentation.states):
        r = presentation.states[q]
        for regs in itertools.permutations(pool.atoms, r):
            names.append(state_name(q, regs))
    carrier = SortedSet.single(names)
    xi: dict[tuple[str, str], tuple[Term, ...]] = {}
    for name in names:
        q, regs = parse_state_name(name)
        terms: set[Term] = set()
        for rule in presentation.rules:
            if rule.src != q:
                continue
            if rule.kind == "ok":
                terms.add(Inj(0, ConstElem(CHECK)))
            elif rule.kind == "read":
                letter = regs[rule.register - 1]  # type: ignore[operator]
                target_regs = tuple(regs[j - 1] for j in rule.sigma)
                terms.add(
                    Inj(
                        FREE_INDEX,
                        TupleTerm(
                            (ConstElem(letter), Var(DEFAULT_SORT, state_name(rule.target or "", target_regs)))
                        ),
                    )
                )
            else:
                terms.add(_bind_successor(rule, regs, pool))
        xi[(DEFAULT_SORT, name)] = tuple(sorted(terms))
    n = presentation.context_arity
    contexts = list(itertools.permutations(pool.atoms, n))
    pointing = SortedSet.single([context_name(c) for c in contexts])
    point = {
        (DEFAULT_SORT, context_name(c)): state_name(presentation.init, c) for c in contexts
    }
    return PointedCoalgebra(rnna_functor(pool), pointing, carrier, point, xi)


def perm_state(pi: Perm, name: str) -> str:
    q, regs = parse_state_name(name)
    return state_name(q, tuple(pi(a) for a in regs))


def perm_term(pi: Perm, t: Term, pool: AtomPool) -> Term:
    """The pool action on transition terms, re-canonicalizing binders."""
    if isinstance(t, Inj) and t.index == 0:
        return t
    if not (isinstance(t, Inj) and isinstance(t.arg, TupleTerm)):
        raise CoalgError(f"not an automaton transition term: {t!r}")
    atom = t.arg.args[0].name  # type: ignore[union-attr]
    target = t.arg.args[1].name  # type: ignore[union-attr]
    q, regs = parse_state_name(target)
    renamed = NomElem(q, tuple(pi(a) for a in regs))
    if t.index == FREE_INDEX:
        return Inj(
            FREE_INDEX,
            TupleTerm((ConstElem(pi(atom)), Var(DEFAULT_SORT, state_name(renamed.tag, renamed.atoms)))),
        )
    return _bar_term(pi(atom), renamed, pool)


# ---------------------------------------------------------------------------
# Bar-string traces

def _decode_bar_term(t: Term) -> tuple[tuple[tuple[str, str], ...], str | None]:
    tokens: list[tuple[str, str]] = []
    current = t
    while True:
        if isinstance(current, UnitLeaf):
            return tuple(tokens), "cut"
        if isinstance(current, Inj) and current.index == 0:
            return tuple(tokens), CHECK
        if not (isinstance(current, Inj) and isinstance(current.arg, TupleTerm)):
            raise CoalgError(f"cannot decode trace term {current!r}")
        atom = current.arg.args[0].name  # type: ignore[union-attr]
        tokens.append(("bar" if current.index == BAR_INDEX else "free", atom))
        current = current.arg.args[1]


def bar_trace(system: PointedCoalgebra, depth: int) -> frozenset[tuple]:
    """Canonical closures of all word-in-contexts traced up to ``depth`` by
    an expanded automaton (see :func:`rnna_expand`)."""
    from .trace import trace

    ts = trace(system, depth)
    out: set[tuple] = set()
    for _d, items in ts.per_depth:
        for (s, iname), terms in items:
            _q, context = parse_state_name("c" + iname)
            for t in terms:
                tokens, terminal = _decode_bar_term(t)
                word = BarString(tokens, terminal, context)
                out.add(alpha_canonical(word))
    return frozenset(out)
