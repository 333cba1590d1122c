"""Paths for F+1: path objects, composites and runs.

A path is a finite sequence of (F+1)-precise maps starting at the
pointing object.  Composing a path all the way down (replacing the last
level by the unit) gives its composite value, an element of (F+1)^n(1).
A run is a level-indexed mapping into a system that respects
transitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .coalgebra import PointedCoalgebra
from .functors import (
    UNIT_TERM,
    Functor,
    Term,
    _leaf_states,
    _named_image,
    bot_of_plus1,
    fmap,
    occurrences,
    step_of_plus1,
    strip_plus1,
    subst_node,
    term_in_functor,
    word_route,
)
from .precise import TermMap, element_labels, is_precise
from .sets import SortedFun, SortedSet


@dataclass
class PathObj:
    """Levels P_0 .. P_n with (F+1)-precise steps between them, P_0 = I."""

    functor: Functor          # the inner functor F (powerset-free)
    levels: tuple[SortedSet, ...]  # levels[0] is the pointing
    steps: tuple[TermMap, ...]  # step k: P_k -> (F+1)(P_{k+1})

    @property
    def length(self) -> int:
        return len(self.steps)


def make_path(functor: Functor, levels, raw_steps) -> PathObj:
    """Assemble a path from raw step tables (terms of F+1 over the next level)."""
    level_tuple = tuple(levels)
    fp1 = functor.plus1
    steps = tuple(TermMap(level_tuple[k], fp1, level_tuple[k + 1], table) for k, table in enumerate(raw_steps))
    return PathObj(functor, level_tuple, steps)


def validate_path(p: PathObj) -> list[str]:
    """Empty list when the path is well-formed; first-violation reports otherwise."""
    problems: list[str] = []
    if len(p.levels) != p.length + 1:
        problems.append("level/step count mismatch")
        return problems
    fp1 = p.functor.plus1
    for k, step in enumerate(p.steps):
        if step.dom != p.levels[k]:
            problems.append(f"step {k} has wrong domain")
            return problems
        for (s, x), t in sorted(step.table.items()):
            if not term_in_functor(fp1, s, t, p.levels[k + 1]):
                problems.append(f"step {k}: ill-formed term at {x}")
                return problems
        if not is_precise(step):
            problems.append(f"step {k} is not precise")
            return problems
    return problems


# ---------------------------------------------------------------------------
# Composites

def comp(p: PathObj, memo: dict | None = None) -> tuple[tuple[tuple[str, str], Term], ...]:
    """The composite of ``p``, an element of (F+1)^n(1) per pointing
    element, as sorted ``((sort, elem), term)`` pairs: the levels
    substituted backwards, the last one replaced by units.

    Each value is interned in ``memo`` under its sort, its step term and
    the ids of the values at its leaves: ``memo[(sort, term)]`` holds the
    term's leaves and a dict from those ids to the value, so a subterm
    met again is built once and each step term is hashed once per use.
    The leaves' values are the unit or values of the memo, which keeps
    them alive, so no id is reused.  A caller that keeps ``memo`` for
    many paths over one functor, as the ``runs`` verb does, builds each
    subterm they share once; without it, the memo lasts one call.
    """
    if memo is None:
        memo = {}
    current: dict[tuple[str, str], Term] = {key: UNIT_TERM for key in p.levels[p.length].pairs()}
    fp1 = p.functor.plus1
    for k in range(p.length - 1, -1, -1):
        nxt: dict[tuple[str, str], Term] = {}
        for (s, x), t in p.steps[k].table.items():
            kept = memo.get((s, t))
            if kept is None:
                kept = memo[(s, t)] = _leaf_states(fp1, s, t), {}
            ids = tuple([id(current[leaf]) for leaf in kept[0]])
            value = kept[1].get(ids)
            if value is None:
                value = kept[1][ids] = subst_node(fp1.node(s), t, current)
            nxt[(s, x)] = value
        current = nxt
    return tuple(sorted(current.items()))


def comps_are_words(functor: Functor, pointing: SortedSet) -> bool:
    """Whether the composites of paths over ``functor`` from ``pointing``
    decode as words: one pointed element, and ``F + 1`` takes the word
    route there (see :func:`functors.word_route`)."""
    return pointing.size() == 1 and word_route(functor.plus1, [pointing.pairs()[0][0]])


# ---------------------------------------------------------------------------
# Runs

@dataclass
class Run:
    path: PathObj
    target: PointedCoalgebra
    components: tuple[SortedFun, ...]  # x_k: P_k -> X


def is_run(r: Run) -> bool:
    """Pointing at level 0, then the transition condition at every step."""
    p, c = r.path, r.target
    if len(r.components) != p.length + 1:
        return False
    x0 = r.components[0]
    for (s, i) in p.levels[0].pairs():
        if x0(s, i) != c.point[(s, i)]:
            return False
    for k in range(p.length):
        x_next = r.components[k + 1]
        for (s, e) in p.levels[k].pairs():
            inner = strip_plus1(p.steps[k](s, e))
            if inner is None:
                continue
            image = fmap(p.functor, x_next, s, inner)
            state = r.components[k](s, e)
            if image not in c.xi[(s, state)]:
                return False
    return True


def enumerate_runs(c: PointedCoalgebra, depth: int) -> Iterator[tuple[PathObj, Run]]:
    """Every (path, run) pair up to the given length, lexicographically.

    Level k+1 is produced by choosing, per level-k element, either the
    added point or one of its transition terms; each variable occurrence
    in the chosen terms becomes a fresh next-level element, as in
    precise factorization.  The occurrences are ordered as the
    factorization's codomain orders its ``(x;path)`` names (sort first,
    then the string order of the name, x labelled by
    ``precise.element_labels``), numbered ``n000``, ``n001``, ...
    in that order, and each chosen term is rebuilt once over those names.
    Level-wise-bijective duplicates never arise because distinct choices
    induce distinct labelled levels.

    Pairs come in depth-first order: every path is emitted before its
    extensions, and an extension of length n shares levels, steps and
    run components 0..n-1 with the last path of length n-1 emitted
    before it.  Callers may keep what they derive per level and reuse it
    for the extensions.

    The children of a level of at most one element are built once per
    (level, state) in a call; a wider level builds them on each visit.
    So levels, steps and run components are shared between pairs, and
    callers must not write to their tables.  They are built through the
    trusted constructors, as they are well formed by construction, and
    each chosen term is renamed through the functor's term memo.
    """
    fp1 = c.functor.plus1
    bot = bot_of_plus1()
    point_fun = SortedFun(c.pointing, c.carrier, dict(c.point))
    sort_rank = {s: i for i, s in enumerate(c.carrier.sorts)}
    options_of: dict[tuple[str, str], list[tuple | None]] = {}

    def options(state: tuple[str, str]) -> list[tuple | None]:
        """The added point and, per transition term of ``state``, the
        term with its occurrences as (rank, sort, target, path suffix of
        the position name) in occurrence order."""
        opts = options_of.get(state)
        if opts is None:
            node = c.functor.node(state[0])
            opts = options_of[state] = [None] + [
                (t, [
                    (sort_rank[v.sort], v.sort, v.name, "".join(f".{i}" for i in path))
                    for v, path in occurrences(node, t)
                ])
                for t in c.xi[state]
            ]
        return opts

    def children(current: SortedSet, states: tuple) -> Iterator[tuple]:
        """The next level, step and next run component of each extension
        of a level ``current`` whose elements sit at ``states``."""
        keys = list(current.pairs())
        labels = element_labels(current)
        space_sorts = c.pointing.sorts
        for combo in itertools.product(*[options(state) for state in states]):
            # one (rank, position name, sort, target) per occurrence; the
            # choice under Inj(0, .) puts 0 at the head of every path
            occ = [
                (rank, f"({e};0{suffix})", vs, target)
                for e, choice in zip(labels, combo)
                if choice is not None
                for rank, vs, target, suffix in choice[1]
            ]
            fresh: list[str] = [""] * len(occ)
            per_sort: dict[str, list[str]] = {s: [] for s in space_sorts}
            x_table: dict[tuple[str, str], str] = {}
            for i, j in enumerate(sorted(range(len(occ)), key=occ.__getitem__)):
                _rank, _pos, vs, target = occ[j]
                name = f"n{i:03d}"
                fresh[j] = name
                per_sort[vs].append(name)
                x_table[(vs, name)] = target
            # each sort's names come in numbering order, so sorting them
            # is linear, but from n1000 on that is not their string order
            next_level = SortedSet._built(space_sorts, tuple([tuple(sorted(per_sort[s])) for s in space_sorts]))
            step_table: dict[tuple[str, str], Term] = {}
            start = 0
            for key, choice in zip(keys, combo):
                if choice is None:
                    step_table[key] = bot
                else:
                    end = start + len(choice[1])
                    step_table[key] = step_of_plus1(_named_image(c.functor, key[0], choice[0], tuple(fresh[start:end])))
                    start = end
            yield (next_level, TermMap._built(current, fp1, next_level, step_table),
                   SortedFun._built(next_level, c.carrier, x_table))

    # children of the levels of at most one element, of which there are
    # (sorts + 1)|X| + 1 at most; wider ones multiply and rarely recur
    built: dict[tuple, list[tuple[SortedSet, TermMap, SortedFun]]] = {}

    def children_of(path: PathObj, run: Run) -> Iterator[tuple[SortedSet, TermMap, SortedFun]]:
        """The children of the last level of ``(path, run)``."""
        current = path.levels[-1]
        x_k = run.components[-1]
        states = tuple([(s, x_k(s, e)) for s, e in current.pairs()])
        if len(states) > 1:
            return children(current, states)
        found = built.get((current, states))
        if found is None:
            found = built[(current, states)] = list(children(current, states))
        return iter(found)

    root = PathObj(c.functor, (c.pointing,), ())
    root_run = Run(root, c, (point_fun,))
    yield root, root_run
    # depth first: per pair on the way down, its path, its run and the
    # children of its last level not yet extended; the pair at stack[k]
    # has length k, so its children have length k + 1
    stack = [(root, root_run, children_of(root, root_run))] if depth > 0 else []
    while stack:
        path, run, rest = stack[-1]
        child = next(rest, None)
        if child is None:
            stack.pop()
            continue
        next_level, step, x_next = child
        longer = PathObj(c.functor, path.levels + (next_level,), path.steps + (step,))
        longer_run = Run(longer, c, run.components + (x_next,))
        yield longer, longer_run
        if len(stack) < depth:
            stack.append((longer, longer_run, children_of(longer, longer_run)))
