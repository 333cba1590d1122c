"""Trace semantics via bottom-free paths.

The trace set of a system collects the composites of all paths that
admit a run and never use the added point.  Because the continuations of
distinct level elements are independent, the depth-d traces from a state
satisfy a simple recursion (substitute depth-(d-1) traces into each
transition term, independently per occurrence).  Two computations
implement it:

- the general path, :func:`trace`, fills that recursion as a table of
  terms per (state, depth), depth by depth, and only for the states the
  pointing reaches within the remaining depth; it serves every functor,
  and builds the terms of a flat analytic transition over equal pools
  once per orbit of argument tuples (:func:`groups.orbit_minima`);
- the word path, :func:`word_traces`, serves every letter-labelled
  system, whose sorts are each ``Const x SortRef`` or a coproduct of such
  products and constants (:func:`functors.letter_shape`): a trace is
  then a word of (summand, constant) letters, optionally ending at a
  marker, and the words come from a subset construction, memoized per
  (state set, depth).  :func:`lts_language` spells them as strings, and
  ``nominal.bar_trace`` reads them as bar strings.

The general path, decoded, is the oracle for the word path; the literal
run-enumeration definition is the test oracle for the general path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .coalgebra import PointedCoalgebra
from .functors import (
    UNIT_TERM,
    Analytic,
    AnSym,
    Functor,
    Letter,
    SortRef,
    Term,
    _word_constants,
    format_name,
    letter_shape,
    map_leaves,
    read_letter,
    word_separator,
)
from .groups import orbit_minima
from .sets import CoalgError, SortedSet


@dataclass(frozen=True)
class TraceSet:
    """Bottom-free composite values up to a depth bound.

    ``per_depth`` lists, for each depth d <= bound that carries at least
    one composite, the per-pointing-element sets of ground terms; a depth
    with any empty component contributes no composites and is omitted.
    """

    functor: Functor
    pointing: SortedSet
    depth: int
    per_depth: tuple[tuple[int, tuple[tuple[tuple[str, str], frozenset[Term]], ...]], ...]


def _reach(starts: Iterable, depth: int, moves_of: Callable[[Any], Sequence[tuple]]) -> tuple[dict, dict]:
    """Breadth-first distances from ``starts``, up to ``depth`` steps, and
    ``moves_of(x)``, a sequence of (label, successors) pairs, for every x
    closer than ``depth``."""
    dist = dict.fromkeys(starts, 0)
    moves = {}
    frontier = list(dist)
    for k in range(1, depth + 1):
        nxt = []
        for x in frontier:
            moves[x] = moves_of(x)
            for _label, succ in moves[x]:
                for y in succ:
                    if y not in dist:
                        dist[y] = k
                        nxt.append(y)
        frontier = nxt
    return dist, moves


def _state_traces(c: PointedCoalgebra, max_depth: int) -> dict[tuple[tuple[str, str], int], frozenset[Term]]:
    """traces[(state, d)]: ground terms of depth-d bottom-free unfoldings,
    for each state the pointing reaches in at most ``max_depth - d`` steps.

    The table is filled depth by depth, without recursion, so the stack
    does not grow with the depth.  An analytic transition whose slots are
    all sort leaves and whose successors' depth-(d-1) sets are equal takes
    one argument tuple per orbit of that set from :func:`orbit_minima`.
    """
    dist, moves = _reach(c.point_image(), max_depth, c.successors)
    table: dict[tuple[tuple[str, str], int], frozenset[Term]] = {}
    for d in range(max_depth + 1):
        for key, k in dist.items():
            if k > max_depth - d:
                continue
            if d == 0:
                table[(key, 0)] = frozenset([UNIT_TERM])
                continue
            node = c.functor.node(key[0])
            out: set[Term] = set()
            for t, succ in moves[key]:
                sym = node.symbol(t.sym) if isinstance(node, Analytic) else None
                if sym is not None and all(isinstance(n, SortRef) for n in sym.slots):
                    pools = {table[(y, d - 1)] for y in succ}
                    if len(pools) <= 1:
                        pool = pools.pop() if pools else ()
                        out.update([AnSym(sym.name, args) for args in orbit_minima(sym.group, pool)])
                        continue
                # substitute, independently per occurrence, every continuation choice
                for combo in itertools.product(*(table[(y, d - 1)] for y in succ)):
                    chosen = iter(combo)
                    out.add(map_leaves(node, t, lambda _ref, _t: next(chosen)))
            table[(key, d)] = frozenset(out)
    return table


def trace(c: PointedCoalgebra, depth: int) -> TraceSet:
    """All composites of bottom-free runnable paths of length <= depth."""
    if depth < 0:
        raise CoalgError("depth must be non-negative")
    table = _state_traces(c, depth)
    per_depth = []
    for d in range(depth + 1):
        items = tuple((key, table[((key[0], c.point[key]), d)]) for key in c.pointing.pairs())
        if all(terms for _key, terms in items):
            per_depth.append((d, items))
    return TraceSet(c.functor, c.pointing, depth, tuple(per_depth))


def trace_equiv(c1: PointedCoalgebra, c2: PointedCoalgebra, depth: int) -> bool:
    if c1.functor != c2.functor or c1.pointing != c2.pointing:
        raise CoalgError("trace comparison needs a common functor and pointing")
    return trace(c1, depth).per_depth == trace(c2, depth).per_depth


# ---------------------------------------------------------------------------
# Words

Word = tuple[Letter, ...]


def word_traces(c: PointedCoalgebra, depth: int) -> dict[tuple[str, str], set[Word]]:
    """The traces of a letter-labelled system as words, per pointing element.

    A word is a tuple of letters (see :func:`functors.letter_shape`); a
    word that stops at a marker ``m`` ends with ``(None, m)``, and one that
    stops at the cut has no end item.  The words of a state set S at
    depth d are the markers of its states and ``l + w`` for each word w
    of ``post_l(S)`` at depth d - 1, built depth by depth for the sets
    the pointing reaches.  As in :func:`trace`, depth d contributes only
    when every pointed element has a word of depth d.

    Raises :class:`CoalgError` when a reached state sits at a sort that
    is not letter-shaped.
    """
    if depth < 0:
        raise CoalgError("depth must be non-negative")
    read: dict[tuple[str, str], tuple[set[Word], dict[Letter, set]]] = {}

    def read_state(x: tuple[str, str]) -> tuple[set[Word], dict[Letter, set]]:
        """The marker words of state ``x``, and its successors per letter."""
        if x not in read:
            if letter_shape(c.functor.node(x[0])) is None:
                raise CoalgError(f"state {x[1]!r} sits at sort {x[0]!r}, which is not letter-shaped")
            marks, post = set(), {}
            for letter, succ in map(read_letter, c.xi[x]):
                if succ is None:
                    marks.add((letter,))
                else:
                    post.setdefault(letter, set()).add((succ.sort, succ.name))
            read[x] = marks, post
        return read[x]

    def moves_of(states: frozenset) -> list[tuple[Letter, tuple[frozenset]]]:
        step: dict[Letter, set] = {}
        for x in states:
            for letter, ys in read_state(x)[1].items():
                step.setdefault(letter, set()).update(ys)
        return [(letter, (frozenset(ys),)) for letter, ys in step.items()]

    starts = {key: frozenset([(key[0], c.point[key])]) for key in c.pointing.pairs()}
    dist, moves = _reach(starts.values(), depth, moves_of)
    # reading the marker words of every reached set checks its sorts too
    marked = {states: set().union(*(read_state(x)[0] for x in states)) for states in dist}
    # W(S, d), depth by depth, for each set S reached in at most depth - d steps
    found = {key: {()} for key in starts}
    prev = dict.fromkeys(dist, {()})
    for d in range(1, depth + 1):
        cur: dict[frozenset, set[Word]] = {}
        for states, k in dist.items():
            if k <= depth - d:
                out = set(marked[states])
                for letter, (target,) in moves[states]:
                    out.update([(letter,) + w for w in prev[target]])
                cur[states] = out
        if all(cur[states] for states in starts.values()):
            for key, states in starts.items():
                found[key] |= cur[states]
        prev = cur
    return found


def lts_language(c: PointedCoalgebra, depth: int, aliases: dict[str, str] | None = None) -> set[str]:
    """The words of :func:`word_traces` over all pointing elements, each
    spelt as its constants in order (a marker word keeps the marker),
    each written by ``format_name`` and apart by ``word_separator``, which
    reads the constants as ``aliases`` prints them."""
    sep = word_separator(c.functor, aliases)
    # every letter is one of these, so each is formatted once
    spelt = {name: format_name(name) for name in _word_constants(c.functor)}
    return {sep.join([spelt[name] for _index, name in w]) for ws in word_traces(c, depth).values() for w in ws}
