"""Trace semantics via bottom-free paths.

The trace set of a system collects the composites of all paths that
admit a run and never use the added point.  Because the continuations of
distinct level elements are independent, the depth-d traces from a state
satisfy a simple recursion (substitute depth-(d-1) traces into each
transition term, independently per occurrence), which is what the
memoized computation below implements; the literal run-enumeration
definition is kept as a test oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coalgebra import PointedCoalgebra
from .functors import (
    UNIT_TERM,
    Coprod,
    Functor,
    Term,
    decode_word,
    map_leaves,
    occurrences,
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


def _state_traces(c: PointedCoalgebra, max_depth: int) -> dict[tuple[tuple[str, str], int], frozenset[Term]]:
    """traces[(state, d)]: ground terms of depth-d bottom-free unfoldings."""
    table: dict[tuple[tuple[str, str], int], frozenset[Term]] = {}
    for key in c.carrier.pairs():
        table[(key, 0)] = frozenset([UNIT_TERM])
    for d in range(1, max_depth + 1):
        for (s, x) in c.carrier.pairs():
            node = c.functor.node(s)
            out: set[Term] = set()
            for t in c.xi[(s, x)]:
                # substitute, independently per occurrence, every continuation choice
                pools = [table[((var.sort, var.name), d - 1)] for var, _path in occurrences(node, t)]
                for combo in itertools.product(*pools):
                    chosen = iter(combo)
                    out.add(map_leaves(node, t, lambda _ref, _t: next(chosen)))
            table[((s, x), d)] = frozenset(out)
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
    """Trace values decoded as words (final-marker words keep the marker)."""
    shape = word_shape(c.functor)
    if shape is None:
        raise CoalgError("not a word-shaped functor (A x Id, optionally + a final marker)")
    words = set()
    for _d, items in trace(c, depth).per_depth:
        for _key, terms in items:
            for t in terms:
                letters, marked = decode_word(t)
                words.add("".join(letters) + (shape[1] if marked else ""))
    return words


def tree_partial_runs(c: PointedCoalgebra, depth: int) -> set[str]:
    """Trace values over a tree signature, printed with units at the cut."""
    from .functors import Analytic

    if not isinstance(c.functor.node(DEFAULT_SORT), (Analytic, Coprod)):
        raise CoalgError("not a tree-signature functor")
    ts = trace(c, depth)
    out = set()
    for _d, items in ts.per_depth:
        for _key, terms in items:
            for t in terms:
                out.add(print_term(t))
    return out

