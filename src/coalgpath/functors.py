"""Syntactic functor expressions over finite sorted sets, and their terms.

A :class:`Functor` assigns to every output sort an expression built from
constants, sort projections, finite products and coproducts, and
analytic quotients (tuples modulo a permutation group, whose slots are
expressions).  The finite powerset is the implicit branching layer of
G = Pf . F, never a node of F.  Terms of ``F(X)`` are tuples of a kind
tag and the term's fields, with child terms in place, so a term is its
own comparison key.  They are kept in a canonical form: analytic
arguments are the lexicographically least orbit representative.

Composition is normalized when it is built: :func:`compose` substitutes
the inner expressions for the sort leaves of the outer one, so a
composite is just another expression of the grammar and every term
operation walks the expression and the term together.
"""

from __future__ import annotations

import functools
import itertools
import re
import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Container, Iterable, Mapping

from .groups import PermGroup, canonical_tuple
from .sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet


class TermError(CoalgError):
    pass


BOT = "⊥"   # the added point of F+1
UNIT = "•"  # the element of the terminal object, used at path cuts
CHECK = "✓"


# ---------------------------------------------------------------------------
# Terms

class Term(tuple):
    """A term of F(X) as a tuple: its kind tag, then its fields, with each
    child term in place.

    A term is thus its own comparison key: equality, order and hashing
    are the tuple's, ordering terms by kind first and then field by field.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return print_term(self)

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild a term from its fields, not its items
        return self[1:]


class ConstElem(Term):
    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, (0, name))


class Var(Term):
    __slots__ = ()
    sort = property(itemgetter(1))
    name = property(itemgetter(2))

    def __new__(cls, sort: str, name: str):
        return tuple.__new__(cls, (1, sort, name))


class TupleTerm(Term):
    __slots__ = ()
    args = property(itemgetter(1))

    def __new__(cls, args: tuple[Term, ...]):
        return tuple.__new__(cls, (2, args))


class Inj(Term):
    __slots__ = ()
    index = property(itemgetter(1))
    arg = property(itemgetter(2))

    def __new__(cls, index: int, arg: Term):
        return tuple.__new__(cls, (3, index, arg))


class AnSym(Term):
    """An analytic symbol applied to a canonical argument tuple."""

    __slots__ = ()
    sym = property(itemgetter(1))
    args = property(itemgetter(2))

    def __new__(cls, sym: str, args: tuple[Term, ...]):
        return tuple.__new__(cls, (4, sym, args))


class UnitLeaf(Term):
    """The element of the terminal object; appears only at path cuts."""

    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, (6,))


UNIT_TERM = UnitLeaf()
BOT_TERM = ConstElem(BOT)


def ansym(group: PermGroup, sym: str, args: Iterable[Term]) -> AnSym:
    """Build an analytic term with its arguments canonicalized."""
    return AnSym(sym, canonical_tuple(group, tuple(args)))


# The printer recurses once per level of a term, so it refuses terms
# nesting deeper than this, well inside Python's default recursion limit:
# a memo that holds a deep term's subterms must not let it print what the
# plain recursion could not.
MAX_PRINT_DEPTH = 400
TOO_DEEP = f"terms nest too deeply: more than {MAX_PRINT_DEPTH} levels"


# a bare name; only a ``-`` looks ahead, since ``->`` never belongs to one
_NAME_CHAR = r"[A-Za-z0-9_*.:+'⊥•✓]"
NAME_RE = re.compile(rf"{_NAME_CHAR}+(?:-(?!>){_NAME_CHAR}*)*|-(?!>){_NAME_CHAR}*(?:-(?!>){_NAME_CHAR}*)*")


# every printer and verb writes its names through this one cache; bounded,
# since a process may print names from any number of files
@functools.lru_cache(maxsize=4096)
def format_name(name: str) -> str:
    """Quote identifiers that the bare-name grammar cannot carry."""
    if NAME_RE.fullmatch(name):
        return name
    if '"' in name:
        raise CoalgError(f"name {name!r} holds a double quote, which no model file can carry")
    return f'"{name}"'


def print_term(t: Term, memo: dict | None = None) -> str:
    """``t`` as text, each name written by :func:`format_name`.  With
    ``memo``, a dict the caller keeps for one batch of terms, each
    subterm object of the batch is printed once.  Terms are kept under
    their ``id``, as a tuple rehashes all its items on every lookup, in
    the entry ``(t, text, depth)``, whose term keeps its id from being
    taken over.

    A term nesting deeper than ``MAX_PRINT_DEPTH`` raises
    :class:`TermError`.
    """
    if memo is None:
        memo = {}
    return (memo.get(id(t)) or _printed(t, memo))[1]


def _printed(t: Term, memo: dict) -> tuple[Term, str, int]:
    """The entry ``(t, text, depth)`` of a term ``memo`` does not hold
    yet, kept in it; each child's entry is read from ``memo`` in place,
    and made only when missing."""
    kind = t[0] if isinstance(t, Term) and t else None
    if kind in (2, 4):  # TupleTerm, AnSym: the children last
        args = t[-1]
        texts = []
        depth = 0
        for a in args:
            kept = memo.get(id(a)) or _printed(a, memo)
            texts.append(kept[1])
            if kept[2] > depth:
                depth = kept[2]
        body = ", ".join(texts)
        if kind == 4:
            sym = format_name(t[1])
            text = f"{sym}({body})" if args else sym
        else:
            text = f"({body})"
        depth += 1
    elif kind == 3:  # Inj
        kept = memo.get(id(t[2])) or _printed(t[2], memo)
        text = f"in{t[1]}({kept[1]})"
        depth = kept[2] + 1
    elif kind in (0, 1):  # ConstElem, Var: the name last
        text = format_name(t[-1])
        depth = 0
    elif kind == 6:  # UnitLeaf
        text = UNIT
        depth = 0
    else:
        # a term's repr is this printer, so it is not asked to name one
        raise TermError(f"unknown term {tuple.__repr__(t) if isinstance(t, Term) else repr(t)}")
    if depth > MAX_PRINT_DEPTH:
        raise TermError(TOO_DEEP)
    entry = memo[id(t)] = t, text, depth
    return entry


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
class Functor:
    """A finite-set endofunctor: one expression node per output sort.

    Frozen, so what is derived from it (its hash, its node per sort, its
    ``+1`` functor, its term memo) is computed on first use and kept.
    """

    sorts: tuple[str, ...]
    nodes: tuple[tuple[str, Node], ...]

    def __post_init__(self) -> None:
        # every sort leaf names a sort of the functor, so no reader of a
        # node meets a leaf it has no states for
        check_sort_leaves([n for _s, n in self.nodes], self.sorts)

    def node(self, sort: str) -> Node:
        try:
            return self._node_of[sort]
        except KeyError:
            raise TermError(f"no expression for sort {sort!r}") from None

    @functools.cached_property
    def _node_of(self) -> dict[str, Node]:
        # the first expression for a sort, as a scan of nodes finds it
        return {s: n for s, n in reversed(self.nodes)}

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.sorts, self.nodes))

    @functools.cached_property
    def plus1(self) -> "Functor":
        """F+1: the added point as a second summand at every sort."""
        return Functor(self.sorts, tuple((s, plus1_node(n)) for s, n in self.nodes))

    @functools.cached_property
    def _memo(self) -> "_TermMemo":
        """The term memo shared by every functor equal to this one."""
        # keyed by the fields: a functor as key would keep its own memo alive
        key = (self.sorts, self.nodes)
        memo = _MEMOS.get(key)
        if memo is None:
            memo = _MEMOS[key] = _TermMemo()
        return memo


class _TermMemo:
    """What is worked out about terms once per functor value: per
    ``(sort, term)`` its leaf states in occurrence order, and per
    ``(sort, term, image names)`` the term with its leaves renamed to
    those names.

    Shared by value, not by object: the evaluation and shape caches keep
    every functor they see alive, so a memo per object would grow with
    every functor parsed anew.
    """

    __slots__ = ("leaves", "images", "__weakref__")

    def __init__(self) -> None:
        self.leaves: dict[tuple[str, Term], tuple[tuple[str, str], ...]] = {}
        self.images: dict[tuple[str, Term, tuple[str, ...]], Term] = {}


# per functor value, as its (sorts, nodes), the memo while a functor of that value lives
_MEMOS: "weakref.WeakValueDictionary[tuple, _TermMemo]" = weakref.WeakValueDictionary()


def functor(node: Node) -> Functor:
    """Single-sorted functor over the default sort."""
    return Functor((DEFAULT_SORT,), ((DEFAULT_SORT, node),))


def multisorted(sorts: Iterable[str], nodes: Mapping[str, Node]) -> Functor:
    sort_list = tuple(sorts)
    return Functor(sort_list, tuple((s, nodes[s]) for s in sort_list))


def compose(outer: Node, inner: Node) -> Node:
    """``outer`` after ``inner``: each ``id`` leaf of ``outer`` (the sort
    leaf of the default sort) replaced by ``inner``."""
    if isinstance(outer, SortRef):
        if outer.sort != DEFAULT_SORT:
            raise TermError(f"no expression for sort {outer.sort!r}")
        return inner
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
    raise TermError(f"unknown node {outer!r}")


# the added point's summand of F+1, built once
BOT_CONST = Const((BOT,))


def plus1_node(node: Node) -> Node:
    return Coprod((node, BOT_CONST))


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


def _children(node: Node) -> tuple[Node, ...]:
    """The expressions directly inside ``node``."""
    if isinstance(node, (Prod, Coprod)):
        return node.parts
    if isinstance(node, Analytic):
        return tuple(n for sym in node.symbols for n in sym.slots)
    return ()


def check_sort_leaves(nodes: Iterable[Node], sorts: Container[str]) -> None:
    """Raise :class:`TermError` naming the first sort leaf of ``nodes``,
    breadth first, that names none of ``sorts``."""
    todo = list(nodes)
    for node in todo:  # grows while it is walked
        if isinstance(node, SortRef) and node.sort not in sorts:
            raise TermError(f"expression refers to unknown sort {node.sort!r}")
        todo.extend(_children(node))


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
        # the members of an orbit canonicalize to one term: keep it once
        return tuple(dict.fromkeys(
            ansym(sym.group, sym.name, combo)
            for sym in node.symbols
            for combo in itertools.product(*[eval_node(n, leaf) for n in sym.slots])
        ))
    raise TermError(f"unknown node {node!r}")


def eval_functor(f: Functor, x: SortedSet) -> dict[str, tuple[Term, ...]]:
    """All canonical terms of F(X), per output sort, in canonical order."""
    return dict(_evaluated(f, x))


# bounded: the harness evaluates the carrier of every random system it
# builds, so a long run meets many
@functools.lru_cache(maxsize=1024)
def _evaluated(f: Functor, x: SortedSet) -> tuple[tuple[str, tuple[Term, ...]], ...]:
    """``eval_functor``'s answer as (sort, terms) pairs, kept per (functor, carrier)."""
    env = {s: tuple(Var(s, e) for e in x.elems(s)) for s in f.sorts}
    return tuple((s, tuple(sorted(set(eval_node(f.node(s), lambda ref: env[ref.sort]))))) for s in f.sorts)


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
    """The functorial action F(fun) applied to one term at an output sort.

    The image is read through the term memo's readers
    :func:`_leaf_states` and :func:`_named_image`, so mapping an equal
    term to equal names again, by any map, looks it up.
    """
    table = fun.table
    try:
        names = tuple([table[key] for key in _leaf_states(f, sort, term)])
    except KeyError as exc:  # the (sort, name) of a leaf outside the map
        raise TermError("variable {1!r} (sort {0!r}) not in substitution".format(*exc.args[0])) from None
    return _named_image(f, sort, term, names)


def _leaf_states(f: Functor, sort: str, term: Term) -> tuple[tuple[str, str], ...]:
    """The ``(sort, name)`` of each variable leaf of ``term``, in
    occurrence order, kept in the functor's term memo."""
    memo = f._memo.leaves
    leaves = memo.get((sort, term))
    if leaves is None:
        leaves = memo[(sort, term)] = tuple([(var.sort, var.name) for var, _path in occurrences(f.node(sort), term)])
    return leaves


def _named_image(f: Functor, sort: str, term: Term, names: tuple[str, ...]) -> Term:
    """``term`` of ``f`` with its i-th variable leaf, in occurrence order,
    renamed to ``names[i]`` and re-canonicalized, kept in the functor's
    term memo."""
    images, key = f._memo.images, (sort, term, names)
    image = images.get(key)
    if image is None:
        named = iter(names)
        image = images[key] = map_leaves(f.node(sort), term, lambda _ref, t: Var(t.sort, next(named)))
    return image


def rebuild_with_fresh(node: Node, term: Term, fresh: Callable[[Var, tuple[int, ...]], Var]) -> Term:
    """Replace each variable occurrence by ``fresh(var, path)``, re-canonicalizing."""
    occ = iter(occurrences(node, term))
    return map_leaves(node, term, lambda _ref, _t: fresh(*next(occ)))


# ---------------------------------------------------------------------------
# Occurrence analysis

def occurrences(node: Node, term: Term, _path: tuple[int, ...] = ()) -> list[tuple[Var, tuple[int, ...]]]:
    """Every variable leaf of ``term`` with its tree path.

    Paths are child indices: product/analytic slot positions and
    coproduct injection indices.
    """
    if isinstance(node, SortRef):
        if not isinstance(term, Var):
            raise TermError(f"expected a variable at sort {node.sort!r}, got {term!r}")
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
    raise TermError(f"{term!r} does not fit {node!r}")


# ---------------------------------------------------------------------------
# Common functor shapes

Letter = tuple[int | None, str]


def letter_shape(node: Node) -> tuple[str, ...] | None:
    """The sorts the letters of a letter-shaped expression lead to, in
    summand order; None when ``node`` is not letter-shaped.

    An expression is letter-shaped when it is ``Const x SortRef(_)``, or a
    coproduct whose summands are each that or a ``Const``.  A letter is a
    (summand index, constant) pair, the index 0 for a bare product; a
    marker is a constant of a ``Const`` summand.
    """
    parts = node.parts if isinstance(node, Coprod) else (node,)
    targets = []
    for p in parts:
        if isinstance(p, Prod) and [type(q) for q in p.parts] == [Const, SortRef]:
            targets.append(p.parts[1].sort)
        elif not (isinstance(p, Const) and isinstance(node, Coprod)):
            return None
    return tuple(targets)


def read_letter(term: Term) -> tuple[Letter, Var | None]:
    """A term of a letter-shaped expression as its letter and successor
    variable, or, for a marker ``m``, as ``(None, m)`` and None."""
    index, inner = (term.index, term.arg) if isinstance(term, Inj) else (0, term)
    if isinstance(inner, ConstElem):
        return (None, inner.name), None
    if isinstance(inner, TupleTerm) and [type(a) for a in inner.args] == [ConstElem, Var]:
        return (index, inner.args[0].name), inner.args[1]
    raise TermError(f"{term!r} is neither a letter nor a marker")


def letter_labelled(f: Functor, sorts: Iterable[str]) -> bool:
    """Whether every sort in ``sorts``, and every sort those reach through
    sort leaves, is letter-shaped (see :func:`letter_shape`): then every
    trace from a state at one of ``sorts`` is a word, and the word walk
    of ``trace`` serves it."""
    seen = list(dict.fromkeys(sorts))
    for s in seen:  # grows while it is walked
        targets = letter_shape(f.node(s))
        if targets is None:
            return False
        seen.extend(t for t in targets if t not in seen)
    return True


def word_route(f: Functor, sorts: Iterable[str]) -> bool:
    """Whether the word routes of the ``trace`` and ``runs`` verbs serve a
    system over ``f`` whose pointed elements sit at ``sorts``: the
    default sort is the word functor ``A x Id``, or ``A x Id + {m}`` with
    the marker ``m``, where ``Id`` is any sort leaf, and it and every
    pointed sort are :func:`letter_labelled`, so the walk meets no sort of
    another shape.  ``runs`` asks it of ``F + 1``, which is word-shaped
    with the added point as its marker when ``F`` is ``A x Id``."""
    node = f.node(DEFAULT_SORT) if DEFAULT_SORT in f.sorts else None
    parts = node.parts if isinstance(node, Coprod) else ()
    if len(parts) == 2 and isinstance(parts[1], Const) and len(parts[1].elems) == 1:
        node = parts[0]
    return isinstance(node, Prod) and letter_labelled(f, [DEFAULT_SORT, *sorts])


def word_separator(f: Functor, aliases: dict[str, str] | None = None) -> str:
    """What goes between the letters of a word spelt out over ``f``: a
    space when some letter or marker of ``f`` (a constant of one of its
    letter-shaped sorts, see :func:`letter_shape`) is longer than one
    character as printed, quoted by :func:`format_name` where it needs
    quotes, so that the words ``ab`` and ``a b`` stay apart, and nothing
    otherwise.  ``aliases`` maps a constant to the text that prints for
    it, when that is not the constant itself."""
    aliases = aliases or {}
    shaped = [node for _s, node in f.nodes if letter_shape(node) is not None]
    parts = [p for node in shaped for p in (node.parts if isinstance(node, Coprod) else (node,))]
    constants = [c for p in parts for c in (p.parts[0] if isinstance(p, Prod) else p).elems]
    return " " if any(len(format_name(aliases.get(c, c))) > 1 for c in constants) else ""


def _ansyms(sym: str, arg_tuples: Iterable[tuple[Term, ...]]) -> list[AnSym]:
    """``AnSym(sym, args)`` for each canonical argument tuple, each built
    by ``tuple.__new__`` with no ``AnSym.__new__`` call per term."""
    new = tuple.__new__
    return [new(AnSym, (4, sym, args)) for args in arg_tuples]
