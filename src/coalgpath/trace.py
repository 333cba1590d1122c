"""Trace semantics via bottom-free paths.

The trace set of a system collects the composites of all paths that
admit a run and never use the added point.  Because the continuations of
distinct level elements are independent, the depth-d traces from a state
satisfy a simple recursion (substitute depth-(d-1) traces into each
transition term, independently per occurrence).  Two computations
implement it:

- the general path, :func:`trace`, fills that recursion as a table of
  terms per (state, depth), depth by depth, and only for the states the
  pointing reaches within the remaining depth; it serves every functor;
- the word path, :func:`lts_language`, decodes the traces of a word-shaped
  system (``A x Id``, optionally ``+ {m}``) as strings, by a subset
  construction: the words of a state set S are the marker when some state
  of S has it, and ``a + w`` for each word w of ``post_a(S)`` one level
  shallower, memoized per (state set, depth).

The general path is the oracle for the word path; the literal
run-enumeration definition is the test oracle for the general path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .coalgebra import PointedCoalgebra
from .functors import (
    UNIT_TERM,
    Coprod,
    Functor,
    Inj,
    Term,
    decode_word,
    map_leaves,
    print_term,
    word_shape,
)
from .sets import DEFAULT_SORT, CoalgError, SortedSet


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
    does not grow with the depth.
    """
    dist, moves = _reach(c.point_image(), max_depth, c.successors.__getitem__)
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
        items = []
        empty = False
        for (s, i) in c.pointing.pairs():
            state = (s, c.point[(s, i)])
            terms = table[(state, d)]
            if not terms:
                empty = True
                break
            items.append(((s, i), terms))
        if not empty:
            per_depth.append((d, tuple(items)))
    return TraceSet(c.functor, c.pointing, depth, tuple(per_depth))


def trace_equiv(c1: PointedCoalgebra, c2: PointedCoalgebra, depth: int) -> bool:
    if c1.functor != c2.functor or c1.pointing != c2.pointing:
        raise CoalgError("trace comparison needs a common functor and pointing")
    return trace(c1, depth).per_depth == trace(c2, depth).per_depth


# ---------------------------------------------------------------------------
# Instance decodings

def lts_language(c: PointedCoalgebra, depth: int) -> set[str]:
    """Trace values decoded as words (final-marker words keep the marker).

    As in :func:`trace`, depth d contributes only when every pointed
    state has a trace of depth d.
    """
    shape = word_shape(c.functor)
    if shape is None:
        raise CoalgError("not a word-shaped functor (A x Id, optionally + a final marker)")
    if depth < 0:
        raise CoalgError("depth must be non-negative")
    marker = shape[1]
    if c.functor.sorts != (DEFAULT_SORT,):
        # the states of another sort need not be word-shaped: decode the terms
        return _trace_words(trace(c, depth), marker)
    # per state: letter -> successor set, and whether it has the marker
    post: dict[tuple[str, str], dict[str, set[tuple[str, str]]]] = {}
    marked = set()
    for key, terms in c.xi.items():
        post[key] = {}
        for t in terms:
            if isinstance(t, Inj):
                if t.index == 1:
                    marked.add(key)
                    continue
                t = t.arg
            letter, succ = t.args
            post[key].setdefault(letter.name, set()).add((succ.sort, succ.name))
    starts = [frozenset([(s, c.point[(s, i)])]) for s, i in c.pointing.pairs()]

    def moves_of(states: frozenset) -> list[tuple[str, tuple[frozenset]]]:
        step: dict[str, set[tuple[str, str]]] = {}
        for x in states:
            for letter, ys in post[x].items():
                step.setdefault(letter, set()).update(ys)
        return [(letter, (frozenset(ys),)) for letter, ys in step.items()]

    dist, moves = _reach(starts, depth, moves_of)
    # W(S, d), depth by depth, for each set S reached in at most depth - d steps
    words: set[str] = set()
    prev: dict[frozenset, set[str]] = {}
    for d in range(depth + 1):
        cur: dict[frozenset, set[str]] = {}
        for states, k in dist.items():
            if k > depth - d:
                continue
            if d == 0:
                cur[states] = {""}
                continue
            out = {marker} if not marked.isdisjoint(states) else set()
            for letter, (target,) in moves[states]:
                out.update(letter + w for w in prev[target])
            cur[states] = out
        per_point = [cur[states] for states in starts]
        if all(per_point):
            words.update(*per_point)
        prev = cur
    return words


def _trace_words(ts: TraceSet, marker: str | None) -> set[str]:
    """The terms of a word-shaped trace set decoded as words."""
    words = set()
    for _d, items in ts.per_depth:
        for _key, terms in items:
            for t in terms:
                letters, marked = decode_word(t)
                words.add("".join(letters) + (marker if marked else ""))
    return words


def tree_partial_runs(c: PointedCoalgebra, depth: int) -> set[str]:
    """Trace values over a tree signature, printed with units at the cut."""
    from .functors import Analytic

    if not isinstance(c.functor.node(DEFAULT_SORT), (Analytic, Coprod)):
        raise CoalgError("not a tree-signature functor")
    ts = trace(c, depth)
    out = set()
    memo: dict = {}
    for _d, items in ts.per_depth:
        for _key, terms in items:
            for t in terms:
                out.add(print_term(t, memo))
    return out

