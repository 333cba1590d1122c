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
  once per orbit of argument tuples (:func:`groups.orbit_minima`).  Each
  entry is a duplicate-free tuple: where every transition took that
  route, the orbit runs joined in term order, with no term hashed, and
  otherwise its terms in first-seen order.  For the ``trace`` verb it
  also spells the entries it builds from orbit runs alone, each term's
  text made from its arguments' texts as the term is built;
- the word path serves every letter-labelled system, whose sorts are
  each ``Const x SortRef`` or a coproduct of such products and constants
  (:func:`functors.letter_shape`): a trace is then a word of (summand,
  constant) letters, optionally ending at a marker, and the words come
  from one forward walk, :func:`_word_walk`, over (word, set of states
  the word reaches) pairs, which builds each word once from its prefix.
  It builds them in two forms: :func:`word_traces` as letter tuples,
  which ``nominal.bar_trace`` reads as bar strings, and
  :func:`lts_language` as spelt strings.

:func:`trace_equiv` compares the general tables, each entry as a set.
The general path, decoded, and the backward subset construction the
word path replaced are its oracles; the literal run-enumeration
definition is the test oracle for the general path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .coalgebra import PointedCoalgebra
from .functors import (
    MAX_PRINT_DEPTH,
    TOO_DEEP,
    UNIT,
    UNIT_TERM,
    Analytic,
    Functor,
    Letter,
    SortRef,
    Symbol,
    Term,
    TermError,
    _ansyms,
    format_name,
    letter_labelled,
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
    one composite, the per-pointing-element ground terms, each once, in
    the order the table built them (term order where orbit runs joined,
    first-seen order otherwise; so compare entries as sets); a depth
    with any empty component contributes no composites and is omitted.
    """

    functor: Functor
    pointing: SortedSet
    depth: int
    per_depth: tuple[tuple[int, tuple[tuple[tuple[str, str], tuple[Term, ...]], ...]], ...]


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


# one object for every state, so the depth-1 pools meet by identity
_UNIT_ENTRY = (UNIT_TERM,)
# ... spelt: its terms nest 0 deep and print as the cut
_UNIT_SPELT = (0, (UNIT,))


def _same_terms(a: tuple[Term, ...], b: tuple[Term, ...]) -> bool:
    """Whether two duplicate-free entries hold the same terms: the same
    object, equal tuples, or equal sets, tried in that order, so terms
    are hashed only when two tuples of one length differ."""
    return a is b or a == b or (len(a) == len(b) and set(a) == set(b))


# a spelt entry: the deepest nesting of its terms, and their texts in order
Spelt = tuple[int, Sequence[str]]


def _orbit_run(
    sym: Symbol, pool: tuple[Term, ...], pool_spelt: Spelt | None
) -> tuple[list[Term], list[str] | None, int]:
    """The terms of ``sym`` over ``pool``, one per orbit of argument
    tuples (:func:`orbit_minima`), in term order.  With ``pool_spelt``,
    the deepest nesting of ``pool``'s terms and their texts in pool
    order, also the run's texts and deepest nesting, ``(run, None, 0)``
    otherwise.  Under the full symmetric group the terms and their texts
    come from ``combinations_with_replacement`` of the sorted pool and of
    its texts, the nondecreasing tuples ``orbit_minima`` takes, so the
    pool is sorted once; under any other group each argument's text is
    looked up by its ``id``."""
    if pool_spelt is None:
        return _ansyms(sym.name, orbit_minima(sym.group, pool)), None, 0
    ordered = sorted(pool)
    text_of = dict(zip(map(id, pool), pool_spelt[1]))
    name, arity = format_name(sym.name), sym.group.arity
    if not arity:
        run, texts = _ansyms(sym.name, [()]), [name]
    elif sym.group.symmetric:
        run = _ansyms(sym.name, itertools.combinations_with_replacement(ordered, arity))
        ordered_texts = [text_of[id(t)] for t in ordered]
        texts = [f"{name}({', '.join(args)})" for args in itertools.combinations_with_replacement(ordered_texts, arity)]
    else:
        run = _ansyms(sym.name, orbit_minima(sym.group, ordered))
        texts = [f"{name}({', '.join([text_of[id(a)] for a in t[2]])})" for t in run]
    return run, texts, pool_spelt[0] + 1 if run else 0


def _state_traces(
    c: PointedCoalgebra, max_depth: int, spelt: dict[tuple[tuple[str, str], int], Spelt] | None = None
) -> dict[tuple[tuple[str, str], int], tuple[Term, ...]]:
    """traces[(state, d)]: ground terms of depth-d bottom-free unfoldings,
    for each state the pointing reaches in at most ``max_depth - d`` steps,
    each once.

    The table is filled depth by depth, without recursion, so the stack
    does not grow with the depth.  An analytic transition whose slots are
    all sort leaves and whose successors' depth-(d-1) entries hold the
    same terms takes one argument tuple per orbit of that pool from
    :func:`orbit_minima`, a run strictly increasing in term order.  When
    every transition of a state takes that route and each run's last
    term is below the next run's first, the entry is the runs joined, and
    no term is hashed; any other entry drops repeats in first-seen order.

    With ``spelt``, a dict, the table also spells each entry whose every
    transition took that route over a spelt pool, each term as it is
    built (:func:`_orbit_run`): ``spelt[(state, d)]`` is then the deepest
    nesting of the entry's terms, as ``print_term`` counts it, and their
    texts in entry order, as ``print_term`` writes them.  Each depth-0
    entry is spelt.
    """
    dist, moves = _reach(c.point_image(), max_depth, c.successors)
    table: dict[tuple[tuple[str, str], int], tuple[Term, ...]] = {}
    for d in range(max_depth + 1):
        for key, k in dist.items():
            if k > max_depth - d:
                continue
            if d == 0:
                table[(key, 0)] = _UNIT_ENTRY
                if spelt is not None:
                    spelt[(key, 0)] = _UNIT_SPELT
                continue
            node = c.functor.node(key[0])
            # orbit runs joined while each starts above the last one's end;
            # from the first run or product term that does not, every term
            # in first-seen order, each kept once as it is built, with its
            # text while every term so far has one
            joined: list[Term] = []
            joined_texts: list[str] = []
            seen: dict[Term, str | None] | None = None
            spell, nest = spelt is not None, 0
            for t, succ in moves[key]:
                run = None
                sym = node.symbol(t.sym) if isinstance(node, Analytic) else None
                if sym is not None and all(isinstance(n, SortRef) for n in sym.slots):
                    pools = [table[(y, d - 1)] for y in succ]
                    pool = pools[0] if pools else ()
                    if all(_same_terms(pool, p) for p in pools):
                        pool_spelt = (spelt.get((succ[0], d - 1)) if succ else (0, ())) if spell else None
                        run, texts, run_nest = _orbit_run(sym, pool, pool_spelt)
                        spell, nest = texts is not None, max(nest, run_nest)
                        if seen is None and (not run or not joined or joined[-1] < run[0]):
                            joined += run
                            if spell:
                                joined_texts += texts
                            continue
                if seen is None:
                    seen = dict(zip(joined, joined_texts)) if spell else dict.fromkeys(joined)
                if run is not None:
                    seen.update(zip(run, texts) if spell else dict.fromkeys(run))
                    continue
                # substitute, independently per occurrence, every continuation choice
                spell = False
                for combo in itertools.product(*(table[(y, d - 1)] for y in succ)):
                    chosen = iter(combo)
                    seen[map_leaves(node, t, lambda _ref, _t: next(chosen))] = None
            table[(key, d)] = tuple(joined if seen is None else seen)
            if spell:
                spelt[(key, d)] = nest, joined_texts if seen is None else list(seen.values())
    return table


def trace(
    c: PointedCoalgebra, depth: int, texts: dict[tuple[int, tuple[str, str]], Sequence[str]] | None = None
) -> TraceSet:
    """All composites of bottom-free runnable paths of length <= depth.

    With ``texts``, a dict, each ``per_depth`` entry that the table spelt
    as it built it (see :func:`_state_traces`) comes with its texts:
    ``texts[d, key]`` lists them in entry order, as ``print_term`` writes
    them.  As ``print_term`` does, a spelt entry with a term nesting
    deeper than ``MAX_PRINT_DEPTH`` raises :class:`TermError`.
    """
    if depth < 0:
        raise CoalgError("depth must be non-negative")
    spelt = None if texts is None else {}
    table = _state_traces(c, depth, spelt)
    per_depth = []
    for d in range(depth + 1):
        items = tuple((key, table[((key[0], c.point[key]), d)]) for key in c.pointing.pairs())
        if all(terms for _key, terms in items):
            per_depth.append((d, items))
    if spelt is not None:
        for d, items in per_depth:
            for key, _terms in items:
                got = spelt.get(((key[0], c.point[key]), d))
                if got is not None:
                    if got[0] > MAX_PRINT_DEPTH:
                        raise TermError(TOO_DEEP)
                    texts[d, key] = got[1]
    return TraceSet(c.functor, c.pointing, depth, tuple(per_depth))


def trace_equiv(c1: PointedCoalgebra, c2: PointedCoalgebra, depth: int) -> bool:
    """Whether two systems over one functor and pointing have the same
    traces up to ``depth``: the same depths, and at each the same terms
    per pointed element, each entry compared as a set."""
    if c1.functor != c2.functor or c1.pointing != c2.pointing:
        raise CoalgError("trace comparison needs a common functor and pointing")
    ds1, ds2 = trace(c1, depth).per_depth, trace(c2, depth).per_depth
    return [d for d, _items in ds1] == [d for d, _items in ds2] and all(
        _same_terms(a, b) for (_d, items1), (_d2, items2) in zip(ds1, ds2)
        for (_k, a), (_k2, b) in zip(items1, items2)
    )


# ---------------------------------------------------------------------------
# Words

Word = tuple[Letter, ...]


def _word_walk(
    c: PointedCoalgebra, depth: int, empty: Any, pieces: Callable[[Letter], tuple[Any, Any]]
) -> dict[tuple[str, str], list]:
    """The traces of a letter-labelled system per pointing element, each
    word built once, as its one-letter-shorter prefix ``w`` followed by
    a piece from ``pieces(letter)``: the first piece when ``w`` is
    ``empty``, the second otherwise.

    The walk runs forward, one frontier per start state, which groups its
    words of d - 1 letters by the set of states each reaches: at depth d,
    such a word w followed by a marker of a state of its set is a
    finished word, and w followed by a letter is a word of the next
    frontier, which reaches the letter's successors.  A word of depth d
    is a frontier word of d letters or a marker word of at most d items,
    as a marker term has no sort leaf to cut.  As in :func:`trace`, depth
    d counts only when every pointed element has a word of depth d; once
    one has none, no deeper one has either, so the walk stops.

    A set's letters with equal pieces (two summands' equal constants,
    spelt) are merged when the set is read, so no two frontier words are
    equal.

    Raises :class:`CoalgError` when the functor is not
    :func:`functors.letter_labelled` at the pointed sorts.
    """
    if depth < 0:
        raise CoalgError("depth must be non-negative")
    if not letter_labelled(c.functor, [s for s, _i in c.pointing.pairs()]):
        raise CoalgError("the pointed sorts reach a sort that is not letter-shaped")
    state_reads: dict[tuple[str, str], tuple[list[tuple], dict[tuple, list]]] = {}
    set_reads: dict[frozenset, tuple[list[tuple], list[tuple[tuple, frozenset]]]] = {}

    def read(states: frozenset) -> tuple[list[tuple], list[tuple[tuple, frozenset]]]:
        """The pieces of the markers of ``states``, and of its letters,
        each with the successors of the letters that have it."""
        marks: dict[tuple, None] = {}
        step: dict[tuple, set] = {}
        for x in states:
            if x not in state_reads:
                x_marks, post = [], {}
                for letter, succ in map(read_letter, c.xi[x]):
                    if succ is None:
                        x_marks.append(pieces(letter))
                    else:
                        post.setdefault(pieces(letter), []).append((succ.sort, succ.name))
                state_reads[x] = x_marks, post
            x_marks, post = state_reads[x]
            marks.update(dict.fromkeys(x_marks))
            for piece, ys in post.items():
                step.setdefault(piece, set()).update(ys)
        got = set_reads[states] = list(marks), [(piece, frozenset(ys)) for piece, ys in step.items()]
        return got

    starts = {key: (key[0], c.point[key]) for key in c.pointing.pairs()}
    frontiers: dict[tuple[str, str], dict[frozenset, list]] = {x: {frozenset([x]): [empty]} for x in starts.values()}
    found = {x: [empty] for x in frontiers}
    marked: set[tuple[str, str]] = set()
    for d in range(depth):
        at = 0 if d == 0 else 1
        level = {}
        for x, frontier in frontiers.items():
            done: list = []
            nxt: dict[frozenset, list] = {}
            for states, words in frontier.items():
                marks, step = set_reads.get(states) or read(states)
                for piece in marks:
                    tail = piece[at]
                    done += [w + tail for w in words]
                for piece, target in step:
                    tail = piece[at]
                    nxt.setdefault(target, []).extend([w + tail for w in words])
            level[x] = done, nxt
        if not all(nxt or done or x in marked for x, (done, nxt) in level.items()):
            break
        for x, (done, nxt) in level.items():
            if done:
                marked.add(x)
            found[x] += done
            for words in nxt.values():
                found[x] += words
            frontiers[x] = nxt
    return {key: found[x] for key, x in starts.items()}


def word_traces(c: PointedCoalgebra, depth: int) -> dict[tuple[str, str], set[Word]]:
    """The traces of a letter-labelled system as words, per pointing element.

    A word is a tuple of letters (see :func:`functors.letter_shape`); a
    word that stops at a marker ``m`` ends with ``(None, m)``, and one that
    stops at the cut has no end item.  The words come from the forward
    walk of :func:`_word_walk`.

    Raises :class:`CoalgError` when the functor is not
    :func:`functors.letter_labelled` at the pointed sorts.
    """
    found = _word_walk(c, depth, (), lambda letter: ((letter,), (letter,)))
    return {key: set(words) for key, words in found.items()}


def lts_language(c: PointedCoalgebra, depth: int, aliases: dict[str, str] | None = None) -> set[str]:
    """The words of :func:`word_traces` over all pointing elements, each
    spelt as its constants in order (a marker word keeps the marker),
    each written by ``format_name`` and apart by ``word_separator``, which
    reads the constants as ``aliases`` prints them.  The walk builds each
    word spelt, so no word is spelt again."""
    sep = word_separator(c.functor, aliases)
    found = _word_walk(c, depth, "", lambda letter: (format_name(letter[1]), sep + format_name(letter[1])))
    return set().union(*found.values())
