"""The path category for F+1: path objects, morphisms, composites, runs.

A path is a finite sequence of (F+1)-precise maps starting at the
pointing object.  Composing a path all the way down (replacing the last
level by the unit) gives its composite value, an element of (F+1)^n(1);
the poset of such values, under truncation, mirrors path morphisms.
Paths embed into pointed coalgebras by taking the disjoint union of the
levels, and a run is a level-indexed mapping into a system that respects
transitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .coalgebra import CoalgMorphism, PointedCoalgebra
from .functors import (
    BOT,
    UNIT_TERM,
    AnSym,
    Functor,
    Inj,
    SortRef,
    Term,
    TupleTerm,
    Var,
    _leaf_states,
    _named_image,
    bot_of_plus1,
    fmap,
    map_leaves,
    occurrences,
    plus1,
    read_letter,
    step_of_plus1,
    strip_plus1,
    subst_node,
    term_in_functor,
    word_shape,
)
from .precise import TermMap, element_labels, is_precise, precise_factorize
from .sets import CoalgError, SortedFun, SortedSet


@dataclass
class PathObj:
    """Levels P_0 .. P_n with (F+1)-precise steps between them, P_0 = I."""

    functor: Functor          # the inner functor F (powerset-free)
    pointing: SortedSet
    levels: tuple[SortedSet, ...]
    steps: tuple[TermMap, ...]  # step k: P_k -> (F+1)(P_{k+1})

    @property
    def length(self) -> int:
        return len(self.steps)


def make_path(functor: Functor, pointing: SortedSet, levels, raw_steps) -> PathObj:
    """Assemble a path from raw step tables (terms of F+1 over the next level)."""
    level_tuple = tuple(levels)
    fp1 = plus1(functor)
    steps = tuple(TermMap(level_tuple[k], fp1, level_tuple[k + 1], table) for k, table in enumerate(raw_steps))
    return PathObj(functor, pointing, level_tuple, steps)


def validate_path(p: PathObj) -> list[str]:
    """Empty list when the path is well-formed; first-violation reports otherwise."""
    problems: list[str] = []
    if p.levels[0] != p.pointing:
        problems.append("level 0 is not the pointing object")
        return problems
    if len(p.levels) != p.length + 1:
        problems.append("level/step count mismatch")
        return problems
    fp1 = plus1(p.functor)
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
# Composite values and the path poset

@dataclass(frozen=True)
class CompValue:
    """A ground element of (F+1)^n(1), one nested term per pointing element."""

    functor: Functor
    pointing: SortedSet
    depth: int
    values: tuple[tuple[tuple[str, str], Term], ...]  # sorted by key

    def value(self, sort: str, elem: str) -> Term:
        for key, t in self.values:
            if key == (sort, elem):
                return t
        raise CoalgError(f"no composite value at {(sort, elem)}")


def make_comp_value(functor: Functor, pointing: SortedSet, depth: int, values: dict) -> CompValue:
    return CompValue(functor, pointing, depth, tuple(sorted(values.items())))


def comp(p: PathObj, memo: dict | None = None) -> CompValue:
    """Substitute the levels backwards, replacing the last level by units.

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
    fp1 = plus1(p.functor)
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
    return make_comp_value(p.functor, p.pointing, p.length, current)


def truncate_term(fp1: Functor, sort: str, term: Term, depth: int) -> Term:
    """Cut a nested (F+1)-term at the given depth, putting units at the cut."""
    if depth == 0:
        return UNIT_TERM
    return map_leaves(fp1.node(sort), term, lambda ref, t: truncate_term(fp1, ref.sort, t, depth - 1))


def comps_are_words(functor: Functor, pointing: SortedSet) -> bool:
    """Whether the composites of paths over ``functor`` from ``pointing``
    decode as words: LTS-shaped, with one pointed element."""
    return pointing.size() == 1 and word_shape(plus1(functor)) is not None


def step_letter(p: PathObj, k: int) -> str:
    """Step k of a path for which :func:`comps_are_words` holds, as a
    letter of the composite's word: the letter the step chose, or the
    added point when it chose the added point or level k is empty.

    The word of the composite is the letters of the steps in order.
    """
    keys = list(p.levels[k].pairs())
    if not keys:
        return BOT
    (_index, name), _succ = read_letter(p.steps[k].table[keys[0]])
    return name


def pathord_le(u: CompValue, v: CompValue) -> bool:
    """Truncation order on composite values over a shared functor and pointing."""
    if u.functor != v.functor or u.pointing != v.pointing:
        raise CoalgError("composite values over different functors or pointings")
    if u.depth > v.depth:
        return False
    step = plus1(u.functor)
    for (key, tv) in v.values:
        if truncate_term(step, key[0], tv, u.depth) != u.value(*key):
            return False
    return True


def path_from_comp(u: CompValue) -> PathObj:
    """A canonical path composing to ``u``, built by iterated factorization."""
    functor = u.functor
    fp1 = plus1(functor)
    levels = [u.pointing]
    steps = []
    residual: dict[tuple[str, str], Term] = dict(u.values)
    current = u.pointing
    for k in range(u.depth):
        # treat depth-1 subterm values as variables named in encounter order
        named: dict[str, dict[Term, str]] = {s: {} for s in u.pointing.sorts}

        def collect(ref: SortRef, t: Term) -> Term:
            known = named[ref.sort]
            return Var(ref.sort, known.setdefault(t, f"z{len(known):03d}"))

        table: dict[tuple[str, str], Term] = {}
        for key in current.pairs():
            table[key] = map_leaves(fp1.node(key[0]), residual[key], collect)
        var_carrier = SortedSet.make({s: list(named[s].values()) for s in u.pointing.sorts}, u.pointing.sorts)
        f_k = TermMap(current, fp1, var_carrier, table)
        fac = precise_factorize(f_k)
        steps.append(fac.precise.table)
        next_level = fac.codomain
        value_of = {(s, name): t for s in u.pointing.sorts for t, name in named[s].items()}
        residual = {(s, name): value_of[(s, fac.connect(s, name))] for s, name in next_level.pairs()}
        levels.append(next_level)
        current = next_level
    return make_path(functor, u.pointing, levels, steps)


# ---------------------------------------------------------------------------
# Path morphisms

@dataclass
class PathMorphism:
    src: PathObj
    dst: PathObj
    components: tuple[SortedFun, ...]  # phi_0 .. phi_n


def _leaf_orders(t: Term) -> Iterator[tuple[Var, ...]]:
    """The variable leaves of ``t`` in every order that permuting the
    arguments of its analytic symbols gives: a tuple keeps its order and
    an injection passes through."""
    if isinstance(t, Var):
        yield (t,)
    elif isinstance(t, Inj):
        yield from _leaf_orders(t.arg)
    elif isinstance(t, (TupleTerm, AnSym)):
        children = [list(_leaf_orders(a)) for a in t.args]
        arrangements = itertools.permutations(children) if isinstance(t, AnSym) else (children,)
        for arranged in arrangements:
            for parts in itertools.product(*arranged):
                yield tuple(itertools.chain.from_iterable(parts))
    else:
        yield ()


def _renamings(fp1: Functor, sort: str, t_src: Term, t_dst: Term) -> list[dict[tuple[str, str], str]]:
    """The renamings of ``t_src``'s variables that map it to ``t_dst``.

    Each distinct order of ``t_dst``'s leaves pairs them with ``t_src``'s
    in occurrence order; the candidate is kept when :func:`map_leaves`
    under it gives ``t_dst``, so re-canonicalization decides what each
    symbol's group allows.
    """
    keys = _leaf_states(fp1, sort, t_src)
    node = fp1.node(sort)
    found = []
    for order in dict.fromkeys(_leaf_orders(t_dst)):
        renaming = dict(zip(keys, [v.name for v in order]))
        if len(order) == len(keys) and map_leaves(
            node, t_src, lambda _ref, t: Var(t.sort, renaming[(t.sort, t.name)])
        ) == t_dst:
            found.append(renaming)
    return found


def all_path_morphisms(p: PathObj, q: PathObj) -> Iterator[PathMorphism]:
    """Backtracking search for path morphisms p -> q (lengths n <= m).

    Components are bijections; the search does not assume the connecting
    morphisms are unique, so functors like the bag functor are handled
    (they may admit several morphisms between the same paths).  phi_{k+1}
    is merged from one renaming per element of level k, each mapping the
    element's step onto the step of its image under phi_k.
    """
    if p.functor != q.functor or p.pointing != q.pointing:
        raise CoalgError("paths over different functors or pointings")
    if p.length > q.length or p.levels[0] != q.levels[0]:
        return
    fp1 = plus1(p.functor)

    def search(k: int, acc: tuple[SortedFun, ...]) -> Iterator[PathMorphism]:
        if k == p.length:
            yield PathMorphism(p, q, acc)
            return
        src, dst = p.levels[k + 1], q.levels[k + 1]
        if src.size() != dst.size():
            return
        phi_k = acc[-1]
        choices = [_renamings(fp1, s, p.steps[k](s, x), q.steps[k](s, phi_k(s, x))) for s, x in p.levels[k].pairs()]
        seen = set()
        for combo in itertools.product(*choices):
            table: dict[tuple[str, str], str] = {}
            if any(table.setdefault(key, name) != name for renaming in combo for key, name in renaming.items()):
                continue  # two elements rename one variable apart
            frozen = tuple(sorted(table.items()))
            # a bijection: total and injective within each sort
            if len(table) == len({(s, y) for (s, _x), y in frozen}) == src.size() and frozen not in seen:
                seen.add(frozen)
                yield from search(k + 1, acc + (SortedFun(src, dst, table),))

    yield from search(0, (SortedFun.identity(p.pointing),))


def find_path_morphism(p: PathObj, q: PathObj) -> PathMorphism | None:
    return next(all_path_morphisms(p, q), None)


# ---------------------------------------------------------------------------
# Embedding into pointed coalgebras

def level_name(k: int, elem: str) -> str:
    return f"{k}:{elem}"


def j_embed(p: PathObj) -> PointedCoalgebra:
    """The disjoint union of the levels as a pointed coalgebra."""
    sorts = p.pointing.sorts
    per_sort: dict[str, list[str]] = {s: [] for s in sorts}
    for k, level in enumerate(p.levels):
        for s, e in level.pairs():
            per_sort[s].append(level_name(k, e))
    carrier = SortedSet.make(per_sort, sorts)
    point = {(s, i): level_name(0, i) for s, i in p.pointing.pairs()}
    xi: dict[tuple[str, str], tuple[Term, ...]] = {key: () for key in carrier.pairs()}
    for k in range(p.length):
        rename = SortedFun(
            p.levels[k + 1],
            carrier,
            {(s, e): level_name(k + 1, e) for s, e in p.levels[k + 1].pairs()},
        )
        for (s, x) in p.levels[k].pairs():
            inner = strip_plus1(p.steps[k](s, x))
            if inner is None:
                continue
            xi[(s, level_name(k, x))] = (fmap(p.functor, rename, s, inner),)
    return PointedCoalgebra(p.functor, p.pointing, carrier, point, xi)


def morphism_to_lax(m: PathMorphism) -> CoalgMorphism:
    """The carrier map induced on the embedded coalgebras by a path morphism."""
    src_c = j_embed(m.src)
    dst_c = j_embed(m.dst)
    table: dict[tuple[str, str], str] = {}
    for k, phi in enumerate(m.components):
        for (s, e) in m.src.levels[k].pairs():
            table[(s, level_name(k, e))] = level_name(k, phi(s, e))
    fun = SortedFun(src_c.carrier, dst_c.carrier, table)
    return CoalgMorphism(src_c, dst_c, fun)


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
    for (s, i) in p.pointing.pairs():
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
    fp1 = plus1(c.functor)
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

    def extensions(path: PathObj, run: Run) -> Iterator[tuple[PathObj, Run]]:
        """The pairs one level longer than ``(path, run)`` that extend it."""
        current = path.levels[-1]
        x_k = run.components[-1]
        states = tuple([(s, x_k(s, e)) for s, e in current.pairs()])
        if len(states) > 1:
            found = children(current, states)
        else:
            found = built.get((current, states))
            if found is None:
                found = built[(current, states)] = list(children(current, states))
        for next_level, step, x_next in found:
            longer = PathObj(c.functor, c.pointing, path.levels + (next_level,), path.steps + (step,))
            yield longer, Run(longer, c, run.components + (x_next,))

    root = PathObj(c.functor, c.pointing, (c.pointing,), ())
    first = (root, Run(root, c, (point_fun,)))
    yield first
    # depth first: one iterator of extensions per level of the last pair
    stack = [extensions(*first)] if depth > 0 else []
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
            continue
        yield pair
        if pair[0].length < depth:
            stack.append(extensions(*pair))
