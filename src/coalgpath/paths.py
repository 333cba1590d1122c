"""Paths for F+1 and the runs of a system as plain records.

A path is a finite sequence of (F+1)-precise maps starting at the
pointing object.  A run is a level-indexed mapping into a system that
respects transitions.  Composing a run's path all the way down
(replacing the last level by the unit) gives its composite value, an
element of (F+1)^n(1).  Runs are walked as plain records
(:func:`enumerate_runs`), the form the ``open`` witness also takes, and
:func:`comp` builds a record's composite.  No path or run object is
built.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .coalgebra import PointedCoalgebra
from .functors import (
    UNIT_TERM,
    Functor,
    Term,
    bot_of_plus1,
    map_leaves,
    occurrences,
    step_of_plus1,
    word_route,
)
from .precise import element_labels
from .sets import SortedSet


# ---------------------------------------------------------------------------
# Composites

# the added point's value, shared by every composite
_BOT = bot_of_plus1()


def comp(f: Functor, run: tuple, memo: dict) -> list[Term]:
    """The composite of a run of :func:`enumerate_runs` over ``f``, an
    element of (F+1)^n(1) per element of its level 0, in level order:
    from the last level up, each element's value is the unit at level n,
    the added point where its step takes it, and otherwise its transition
    term with the value of the next-level element at each leaf.

    Each value is interned in ``memo`` under its sort, its transition term
    and the ids of the values at its leaves, so a subterm met again is
    built once, by one ``map_leaves``.  Those values are the unit, the
    added point or values of the memo, which keeps them alive, so no id is
    reused.  ``map_leaves`` puts the arguments of an analytic symbol in
    their orbit's least order, so the value is the one the step renamed
    to the next level's names and then substituted would give.
    """
    levels, steps = run
    below: list[Term] = [UNIT_TERM] * len(levels[-1])
    for k in range(len(steps) - 1, -1, -1):
        values: list[Term] = []
        for (s, _e, _x), step in zip(levels[k], steps[k]):
            if step is None:
                values.append(_BOT)
                continue
            t, at = step
            args = [below[i] for i in at]
            by_ids = memo.get((s, t))
            if by_ids is None:
                by_ids = memo[(s, t)] = {}
            ids = tuple([id(a) for a in args])
            value = by_ids.get(ids)
            if value is None:
                # the i-th leaf, in occurrence order, takes the i-th value
                leaves = iter(args)
                value = by_ids[ids] = step_of_plus1(map_leaves(f.node(s), t, lambda _ref, _t: next(leaves)))
            values.append(value)
        below = values
    return below


def comps_are_words(functor: Functor, pointing: SortedSet) -> bool:
    """Whether the composites of paths over ``functor`` from ``pointing``
    decode as words: one pointed element, and ``F + 1`` takes the word
    route there (see :func:`functors.word_route`)."""
    return pointing.size() == 1 and word_route(functor.plus1, [pointing.pairs()[0][0]])


# ---------------------------------------------------------------------------
# Runs

def enumerate_runs(c: PointedCoalgebra, depth: int) -> Iterator[tuple[tuple, tuple]]:
    """Every run of ``c`` up to the given length, lexicographically, as a
    plain record ``(levels, steps)``.

    ``levels[k]`` holds the elements of level k, in level order, as
    ``(sort, name, state)``, with the state the run sends the element to;
    level 0 is the pointing.  ``steps[k]`` holds, per element of level k,
    ``None`` for the added point, or the transition term of its state
    that the step chose, as written, with the positions in level k+1 of
    the elements at its leaves, in occurrence order.

    Level k+1 is produced by choosing, per level-k element, either the
    added point or one of its transition terms; each variable occurrence
    in the chosen terms becomes a fresh next-level element, as in
    precise factorization.  The occurrences are ordered as the
    factorization's codomain orders its ``(x;path)`` names (sort first,
    then the string order of the name, x labelled by
    ``precise.element_labels``) and numbered ``n000``, ``n001``, ... in
    that order.  A level lists its sorts in the carrier's order and each
    sort's names as strings, so from ``n1000`` on it leaves the
    numbering order.  Level-wise-bijective duplicates never arise because
    distinct choices induce distinct labelled levels.

    Runs come in depth-first order: every run is emitted before its
    extensions, and an extension of length n shares its levels and steps
    0..n-1 with the last run of length n-1 emitted before it.

    The children of a level of at most one element are built once per
    call; a wider level builds them on each visit, as keeping them all
    multiplies memory for little time.  Callers must not change what the
    records hold.
    """
    sort_rank = {s: i for i, s in enumerate(c.carrier.sorts)}
    names: list[str] = []
    occurring: dict[tuple[str, str], list[tuple[Term, list[tuple]]]] = {}
    options_of: dict[tuple[str, str, str], list[tuple | None]] = {}

    def options(label: str, s: str, x: str) -> list[tuple | None]:
        """The added point and, per transition term of state ``x``, the
        term with a sort key per occurrence, in occurrence order: (rank,
        position name, sort, target), the position named after the
        element's ``label`` under ``Inj(0, .)``."""
        opts = options_of.get((label, s, x))
        if opts is None:
            found = occurring.get((s, x))
            if found is None:
                node = c.functor.node(s)
                found = occurring[(s, x)] = [
                    (t, [(v.sort, v.name, "".join(f".{i}" for i in path)) for v, path in occurrences(node, t)])
                    for t in c.xi[(s, x)]
                ]
            opts = options_of[(label, s, x)] = [None] + [
                (t, [(sort_rank[vs], f"({label};0{suffix})", vs, target) for vs, target, suffix in occ])
                for t, occ in found
            ]
        return opts

    def children(level: tuple, labels: list[str]) -> Iterator[tuple[tuple, tuple]]:
        """The next level and step of each extension of ``level``."""
        for combo in itertools.product(*[options(label, s, x) for label, (s, _e, x) in zip(labels, level)]):
            occ = [key for choice in combo if choice is not None for key in choice[1]]
            n = len(occ)
            while len(names) < n:
                names.append(f"n{len(names):03d}")
            order = sorted(range(n), key=occ.__getitem__)
            name_of = [""] * n
            for i, j in enumerate(order):
                name_of[j] = names[i]
            if n > 1000:
                order.sort(key=lambda j: (occ[j][0], name_of[j]))
            place = [0] * n
            for i, j in enumerate(order):
                place[j] = i
            step: list[tuple | None] = []
            start = 0
            for choice in combo:
                if choice is None:
                    step.append(None)
                else:
                    end = start + len(choice[1])
                    step.append((choice[0], tuple(place[start:end])))
                    start = end
            yield tuple([(occ[j][2], name_of[j], occ[j][3]) for j in order]), tuple(step)

    # children of the levels of at most one element, of which there are
    # (sorts + 1)|X| + 1 at most; wider ones multiply and rarely recur
    built: dict[tuple, list[tuple[tuple, tuple]]] = {}

    def children_of(level: tuple) -> Iterator[tuple[tuple, tuple]]:
        """The children of a level past the pointing, whose labels are its
        names."""
        labels = [e for _s, e, _x in level]
        if len(level) > 1:
            return children(level, labels)
        found = built.get(level)
        if found is None:
            found = built[level] = list(children(level, labels))
        return iter(found)

    root = tuple([(s, e, c.point[(s, e)]) for s, e in c.pointing.pairs()])
    yield (root,), ()
    # depth first: per run on the way down, its levels, its steps and the
    # children of its last level not yet extended; the run at stack[k]
    # has length k, so its children have length k + 1
    stack = [((root,), (), children(root, element_labels(c.pointing)))] if depth > 0 else []
    while stack:
        levels, steps, rest = stack[-1]
        child = next(rest, None)
        if child is None:
            stack.pop()
            continue
        run = levels + (child[0],), steps + (child[1],)
        yield run
        if len(stack) < depth:
            stack.append((*run, children_of(child[0])))
