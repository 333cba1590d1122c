"""Bounded-atom-pool shadow of nominal automata with binders.

A finite pool stands in for the countable atom universe:
alpha-equivalence of bar strings and register automata are computed
exactly over the pool.  Register-tuple states carry their support atoms in fixed
slots, so a map given on orbit representatives extends uniquely;
binder successors are stored alpha-canonically (least admissible binder)
so the quotient never materializes.  The binding-layer factorization
and the pool actions on words, states and terms, which no verb reads,
live beside the nominal tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    Var,
    functor,
)
from .sets import DEFAULT_SORT, CoalgError, SortedSet
from .trace import word_traces

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

    @staticmethod
    def identity() -> "Perm":
        return Perm({})

    @staticmethod
    def swap(a: str, b: str) -> "Perm":
        if a == b:
            return Perm.identity()
        return Perm({a: b, b: a})


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


# ---------------------------------------------------------------------------
# The binding layer

@dataclass(frozen=True)
class BindTerm:
    """A binder applied to an element: one representative of the alpha-class.
    The body is any element with ``support()`` and ``rename(pi)``."""

    atom: str
    body: NomElem


def canonical_bind(atom: str, body, pool: AtomPool):
    """The least-binder representative of the alpha-class of <atom>body."""
    blocked = body.support() - {atom}
    candidates = [a for a in pool.atoms if a not in blocked]
    if not candidates:
        raise PoolError("pool exhausted: no admissible binder")
    b = candidates[0]
    return BindTerm(b, body.rename(Perm.swap(atom, b)))


# ---------------------------------------------------------------------------
# Register automata with binders

@dataclass(frozen=True)
class RnnaRule:
    kind: str                 # "ok" | "read" | "bind"
    src: str
    target: str | None = None
    register: int | None = None       # read: 1-based source register
    sigma: tuple[int, ...] = ()       # target registers from source registers; 0 = fresh atom

    def __str__(self) -> str:
        """The rule as a ``[rules]`` line writes it."""
        if self.kind == "ok":
            return f"{self.src} -> ok"
        sigma = " ".join(str(j) for j in self.sigma)
        if self.kind == "bind":
            return f"{self.src} -> bar {self.target} [{sigma}]"
        return f"{self.src} -> reg({self.register}) {self.target} [{sigma}]"


def check_rule(rule: RnnaRule, states: dict[str, int]) -> None:
    """Refuse a rule that no register-tuple expansion over ``states``
    (control state to register count) can carry, naming it as the file
    writes it."""
    if rule.src not in states:
        raise CoalgError(f"rule source {rule.src!r} unknown in rule {rule}")
    arity = states[rule.src]
    if rule.kind == "ok":
        return
    if rule.target not in states:
        raise CoalgError(f"rule target {rule.target!r} unknown in rule {rule}")
    if len(rule.sigma) != states[rule.target]:
        raise CoalgError(f"reassignment arity mismatch in rule {rule}")
    fresh_slots = [j for j in rule.sigma if j == 0]
    if rule.kind == "read":
        if rule.register is None or not 1 <= rule.register <= arity:
            raise CoalgError(f"read register out of range in rule {rule}")
        if fresh_slots:
            raise CoalgError(f"read rules cannot place a fresh atom in rule {rule}")
    if rule.kind == "bind" and len(fresh_slots) > 1:
        raise CoalgError(f"bind rules place the fresh atom in at most one slot in rule {rule}")
    non_fresh = [j for j in rule.sigma if j != 0]
    if len(set(non_fresh)) != len(non_fresh):
        raise CoalgError(f"register tuples must stay injective in rule {rule}")
    for j in non_fresh:
        if not 1 <= j <= arity:
            raise CoalgError(f"reassignment source {j} out of range in rule {rule}")


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
            check_rule(rule, self.states)


def state_name(q: str, regs: tuple[str, ...]) -> str:
    return f"{q}({','.join(regs)})"


def parse_state_name(name: str) -> tuple[str, tuple[str, ...]]:
    """The inverse of :func:`state_name`: a control state may hold ``(``,
    pool atoms never do."""
    q, _paren, rest = name.rpartition("(")
    return q, tuple(a for a in rest[:-1].split(",") if a)


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


def _transition(index: int, atom: str, target: NomElem, pool: AtomPool) -> Term:
    """The transition reading ``atom`` into ``target``: a literal at
    ``FREE_INDEX``, and at any other index a binder, alpha-canonical."""
    if index != FREE_INDEX:
        bound = canonical_bind(atom, target, pool)
        index, atom, target = BAR_INDEX, bound.atom, bound.body  # ``target`` renamed, so a NomElem
    return Inj(index, TupleTerm((ConstElem(atom), Var(DEFAULT_SORT, state_name(target.tag, target.atoms)))))


def rnna_expand(presentation: RnnaPresentation, pool: AtomPool) -> PointedCoalgebra:
    """The full register-tuple coalgebra: the equivariant closure of the rules.

    Carriers are control states paired with injective register tuples
    over the pool; bind rules produce the alpha-canonical binder
    successor.  Needs one spare atom beyond the largest register count.
    """
    max_regs = max(presentation.states.values(), default=0)
    if pool.size < max_regs + 1:
        raise PoolError(f"pool of {pool.size} atoms too small for {max_regs} registers")
    states = [
        (q, regs) for q in sorted(presentation.states)
        for regs in itertools.permutations(pool.atoms, presentation.states[q])
    ]
    carrier = SortedSet.single([state_name(q, regs) for q, regs in states])
    xi: dict[tuple[str, str], tuple[Term, ...]] = {}
    for q, regs in states:
        terms: set[Term] = set()
        for rule in presentation.rules:
            if rule.src != q:
                continue
            if rule.kind == "ok":
                terms.add(Inj(0, ConstElem(CHECK)))
                continue
            if rule.kind == "read":
                index, atom = FREE_INDEX, regs[rule.register - 1]  # type: ignore[operator]
            else:
                # the pool holds a spare atom, checked above
                index, atom = BAR_INDEX, next(a for a in pool.atoms if a not in regs)
            # a read rule places no fresh atom (slot 0), a bind rule the bound one
            target_regs = tuple(atom if j == 0 else regs[j - 1] for j in rule.sigma)
            terms.add(_transition(index, atom, NomElem(rule.target or "", target_regs), pool))
        xi[(DEFAULT_SORT, state_name(q, regs))] = tuple(sorted(terms))
    n = presentation.context_arity
    contexts = list(itertools.permutations(pool.atoms, n))
    pointing = SortedSet.single([context_name(c) for c in contexts])
    point = {
        (DEFAULT_SORT, context_name(c)): state_name(presentation.init, c) for c in contexts
    }
    return PointedCoalgebra(rnna_functor(pool), pointing, carrier, point, xi)


# ---------------------------------------------------------------------------
# Bar-string traces

def bar_trace(system: PointedCoalgebra, depth: int) -> frozenset[tuple]:
    """Canonical closures of all word-in-contexts traced up to ``depth`` by
    an expanded automaton (see :func:`rnna_expand`)."""
    out: set[tuple] = set()
    for (_s, iname), words in word_traces(system, depth).items():
        _q, context = parse_state_name("c" + iname)
        for w in words:
            terminal = "cut"
            if w and w[-1][0] is None:
                terminal = w[-1][1]
                w = w[:-1]
            tokens = tuple(("bar" if index == BAR_INDEX else "free", atom) for index, atom in w)
            out.add(alpha_canonical(BarString(tokens, terminal, context)))
    return frozenset(out)
