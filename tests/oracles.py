"""Brute-force oracles the tests check the library against.

They decide the paper's properties straight from their definitions, by
exhaustive enumeration over small sets, so they are exponential and only
fit test-sized inputs:

- the lifting definition of a precise map (:func:`is_precise_oracle`),
  against the occurrence criterion ``precise.is_precise``;
- the lifting definition for the binding layer of register automata
  (:func:`binding_precise_oracle`);
- the precise-iff-characteristic criterion for one-element maps, checked
  term by term over every small carrier
  (:func:`precise_iff_characteristic_oracle`), against the per-sort
  decision ``lasota`` reads off the shapes;
- the homset-order structure of behaviour maps: unit decomposition and
  choice lifting;
- simulation and bisimulation of labelled transition systems, as
  relations on edges;
- direct checks of what the library builds: a factorization commutes,
  a binding factorization round-trips, a trace set is prefix-closed, a
  family of maps is a path morphism, and the states a run visits;
- every path morphism between two paths, found by trying every family
  of sort-preserving level bijections (:func:`brute_path_morphisms`),
  against the renamings ``paths.all_path_morphisms`` tests through
  ``map_leaves``;
- the depth-d trace sets of every carrier state at every depth
  (:func:`eager_state_traces`), against the table ``trace.trace`` fills
  only where the pointing reaches;
- the traces of a letter-labelled system decoded from that table as
  words (:func:`decode_letters`, :func:`trace_words`) and as bar strings
  (:func:`table_bar_trace`), against the subset construction of
  ``trace.word_traces`` and the bar strings ``nominal.bar_trace`` reads
  off its words;
- the breadth-first levels of a system walked afresh from its
  transition terms (:func:`literal_bfs`), against the levels a
  ``PointedCoalgebra`` computes once from its successor table;
- the nested comparison key of a term built from its fields alone
  (:func:`legacy_term_key`), against the order, equality and hash a
  term has as a tuple, and a term printed by plain recursion
  (:func:`recursive_print_term`, and against a functor
  :func:`recursive_print_term_for`), against ``functors.print_term`` and
  ``modelio.print_term_for`` with and without a memo;
- runs whose next levels come from precise factorization followed by a
  renaming (:func:`factorized_runs`), against the one-pass level
  construction of ``paths.enumerate_runs``, and a path's word decoded
  from its composite (:func:`comp_as_word`), against the letters
  ``paths.step_letter`` reads off its steps, and a path's composite
  built from scratch (:func:`fresh_comp`), against ``paths.comp``, which
  interns each value it builds;
- chains of precise maps from a frontier that enumerates the maps out
  of each chain's last level afresh (:func:`frontier_chains`), against
  ``precise.precise_chains``, which enumerates once per distinct level,
  and the precise maps out of a level with every shape renumbered afresh
  per combination (:func:`fresh_precise_maps`), against
  ``precise.enumerate_precise_maps``, which renumbers each (sort, shape,
  offset) once per call;
- a term line read character by character, ``->`` as one token and a
  quoted name with its quotes (:func:`char_loop_tokenize`), and parsed
  through a token stream with one method call per token
  (:func:`stream_parse_term_text`), against the one-regex
  ``modelio.tokenize`` and the index-based term parser, token for token,
  term for term and error message for error message;
- finite maps: every total map between two carriers, composition,
  injectivity and surjectivity, and the homset order of behaviour maps.

Beside them lives library code that no verb runs and only the tests
call: the binding-layer factorization through fresh pairs
(:func:`binding_factorize`), equivariant extension from orbit
representatives (:func:`extend_equivariant`), the pool actions on words,
states and transition terms (:func:`apply_perm`, :func:`perm_state`,
:func:`perm_term`) with the support of a word (:func:`support`), all
checked by the nominal battery (acceptance criterion 9), and the
multiset of arguments of an analytic term (:func:`bag_abstraction`).
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from coalgpath.coalgebra import PointedCoalgebra
from coalgpath.functors import (
    BOT,
    CHECK,
    UNIT,
    UNIT_TERM,
    Analytic,
    AnSym,
    Const,
    ConstElem,
    Coprod,
    Functor,
    Inj,
    Node,
    Pf,
    Prod,
    SetOf,
    SortRef,
    Term,
    TermError,
    TupleTerm,
    UnitLeaf,
    Var,
    _leaf_states,
    ansym,
    bot_of_plus1,
    eval_functor,
    fmap,
    map_leaves,
    occurrences,
    plus1,
    step_of_plus1,
    subst_node,
    word_shape,
)
from coalgpath.modelio import ALIASES, NAME_RE, ModelParseError
from coalgpath.nominal import (
    BAR_INDEX,
    AtomPool,
    BarString,
    BindTerm,
    NomElem,
    Perm,
    PoolError,
    _transition,
    alpha_canonical,
    canonical_bind,
    parse_state_name,
    state_name,
)
from coalgpath.paths import CompValue, PathMorphism, PathObj, Run, truncate_term
from coalgpath.precise import Factorization, TermMap, _renumber, element_shapes, is_precise, precise_factorize
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet, singleton_pointing
from coalgpath.trace import TraceSet, trace

BehaviourMap = Mapping[tuple[str, str], tuple[Term, ...]]


# ---------------------------------------------------------------------------
# Finite maps

def all_functions(dom: SortedSet, cod: SortedSet) -> Iterator[SortedFun]:
    """Enumerate every total map dom -> cod in a fixed order."""
    keys = list(dom.pairs())
    choice_lists = [cod.elems(s) for s, _ in keys]
    if any(not choices for choices in choice_lists):
        return
    for combo in itertools.product(*choice_lists):
        yield SortedFun(dom, cod, dict(zip(keys, combo)))


def compose_maps(second: SortedFun, first: SortedFun) -> SortedFun:
    """``second`` after ``first``."""
    table = {(s, x): second.table[(s, y)] for (s, x), y in first.table.items()}
    return SortedFun(first.dom, second.cod, table)


def is_injective(fun: SortedFun) -> bool:
    per_sort: dict[str, set] = {}
    for (s, _x), y in fun.table.items():
        seen = per_sort.setdefault(s, set())
        if y in seen:
            return False
        seen.add(y)
    return True


def is_surjective(fun: SortedFun) -> bool:
    image = {(s, y) for (s, _x), y in fun.table.items()}
    return image == set(fun.cod.pairs())


def is_bijective(fun: SortedFun) -> bool:
    return is_injective(fun) and is_surjective(fun)


def homset_leq(f: BehaviourMap, g: BehaviourMap) -> bool:
    """Pointwise inclusion of behaviour maps with a common domain."""
    if set(f.keys()) != set(g.keys()):
        raise CoalgError("homset order compares maps on a common domain only")
    return all(set(f[k]) <= set(g[k]) for k in f)


# ---------------------------------------------------------------------------
# Direct checks of what the library builds

def bag_abstraction(f_expr: Functor, sort: str, term: Term) -> Counter:
    """The multiset of argument occurrences of an analytic term.

    Natural in the carrier: taking the multiset commutes with renaming
    arguments, independently of the chosen orbit representative.
    """
    node = f_expr.node(sort)
    if not isinstance(node, Analytic):
        raise TermError("bag abstraction needs an analytic expression")
    return Counter(_leaf_states(f_expr, sort, term))


def factorization_commutes(f: TermMap, fac: Factorization) -> bool:
    """Check F(h) . f' = f."""
    for (sort, x) in f.dom.pairs():
        if fmap(f.functor, fac.connect, sort, fac.precise(sort, x)) != f(sort, x):
            return False
    return True


def binding_roundtrip_ok(f: dict[NomElem, BindTerm], fac: BindingFactorization, pool: AtomPool) -> bool:
    """[A]h . f' alpha-equal to f, per domain element."""
    for x, bind_term in f.items():
        lifted = fac.precise[x]
        body = fac.connect[lifted.body]  # type: ignore[index]
        if canonical_bind(lifted.atom, body, pool) != canonical_bind(bind_term.atom, bind_term.body, pool):
            return False
    return True


def prefix_closed(ts: TraceSet) -> bool:
    """Every truncation of a member is a member (per pointing element)."""
    by_depth = dict(ts.per_depth)
    for d, items in ts.per_depth:
        for key, terms in items:
            for t in terms:
                for d2 in range(d):
                    shallower = by_depth.get(d2)
                    if not shallower:
                        return False
                    expected = truncate_term(ts.functor, key[0], t, d2)
                    if expected not in dict(shallower)[key]:
                        return False
    return True


def eager_state_traces(c: PointedCoalgebra, max_depth: int) -> dict[tuple[tuple[str, str], int], frozenset[Term]]:
    """traces[(state, d)] for every carrier state and every d <= max_depth:
    the depth-(d-1) traces substituted into each transition term,
    independently per occurrence, whether or not the pointing reaches
    the state."""
    table: dict[tuple[tuple[str, str], int], frozenset[Term]] = {}
    for key in c.carrier.pairs():
        table[(key, 0)] = frozenset([UNIT_TERM])
    for d in range(1, max_depth + 1):
        for (s, x) in c.carrier.pairs():
            node = c.functor.node(s)
            out: set[Term] = set()
            for t in c.xi[(s, x)]:
                pools = [table[((var.sort, var.name), d - 1)] for var, _path in occurrences(node, t)]
                for combo in itertools.product(*pools):
                    chosen = iter(combo)
                    out.add(map_leaves(node, t, lambda _ref, _t: next(chosen)))
            table[((s, x), d)] = frozenset(out)
    return table


def literal_bfs(c: PointedCoalgebra) -> tuple[list[set[tuple[str, str]]], set[tuple[str, str]]]:
    """Breadth-first levels from the pointing and their union, walking
    every transition term of a level with ``occurrences``: level k+1 is
    every state occurring in a transition term of a level-k state, up to
    the first empty or repeated level and at most |X| + 2 levels."""
    level = {(s, c.point[(s, i)]) for s, i in c.pointing.pairs()}
    levels = [level]
    while len(levels) <= c.carrier.size() + 1:
        nxt = set()
        for (s, x) in level:
            for t in c.xi[(s, x)]:
                for var, _path in occurrences(c.functor.node(s), t):
                    nxt.add((var.sort, var.name))
        if not nxt or nxt in levels:
            break
        levels.append(nxt)
        level = nxt
    return levels, set().union(*levels)


# ---------------------------------------------------------------------------
# Words decoded from the general trace table

def decode_word(term: Term) -> tuple[list[str], bool]:
    """The letters of a nested term of a word-shaped functor, and whether
    it stops at the marker (True) rather than at a path cut (False)."""
    letters: list[str] = []
    t = term
    while True:
        if isinstance(t, Inj):
            if t.index == 1:
                return letters, True
            t = t.arg
        if isinstance(t, UnitLeaf):
            return letters, False
        if not (isinstance(t, TupleTerm) and len(t.args) == 2 and isinstance(t.args[0], ConstElem)):
            raise TermError(f"cannot decode {term!r} as a word")
        letters.append(t.args[0].name)
        t = t.args[1]


def trace_words(ts: TraceSet, marker: str | None) -> set[str]:
    """The terms of a word-shaped trace set decoded as words."""
    words = set()
    for _d, items in ts.per_depth:
        for _key, terms in items:
            for t in terms:
                letters, marked = decode_word(t)
                words.add("".join(letters) + (marker if marked else ""))
    return words


def decode_letters(term: Term) -> tuple:
    """A nested term of a letter-labelled system as the word
    ``trace.word_traces`` gives it: (summand, constant) letters, then
    ``(None, m)`` if it stops at a marker ``m``."""
    out: list[tuple] = []
    t = term
    while not isinstance(t, UnitLeaf):
        index = 0
        if isinstance(t, Inj):
            index, t = t.index, t.arg
        if isinstance(t, ConstElem):
            out.append((None, t.name))
            break
        out.append((index, t.args[0].name))
        t = t.args[1]
    return tuple(out)


def decoded_word_traces(ts: TraceSet) -> dict[tuple[str, str], set[tuple]]:
    """Per pointing element, the terms of a trace set decoded by
    :func:`decode_letters`."""
    out: dict[tuple[str, str], set[tuple]] = {key: set() for key in ts.pointing.pairs()}
    for _d, items in ts.per_depth:
        for key, terms in items:
            out[key].update(decode_letters(t) for t in terms)
    return out


def decode_bar_term(t: Term) -> tuple[tuple[tuple[str, str], ...], str | None]:
    """A trace term of an expanded register automaton as bar-string tokens
    and its terminal: the final marker or the cut."""
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


def table_bar_trace(system: PointedCoalgebra, depth: int) -> frozenset[tuple]:
    """``nominal.bar_trace`` through the general trace table: every trace
    term decoded by :func:`decode_bar_term`, closed over its context."""
    out: set[tuple] = set()
    for _d, items in trace(system, depth).per_depth:
        for (_s, iname), terms in items:
            _q, context = parse_state_name("c" + iname)
            for t in terms:
                tokens, terminal = decode_bar_term(t)
                out.add(alpha_canonical(BarString(tokens, terminal, context)))
    return frozenset(out)


def legacy_term_key(t: Term) -> tuple:
    """The key a term was compared, ordered and hashed by when terms kept
    it as a separate nested tuple: the kind tag, then the fields, with
    each child term replaced by its own key.  Read from the fields only,
    never from the term's tuple items."""
    if isinstance(t, ConstElem):
        return (0, t.name)
    if isinstance(t, Var):
        return (1, t.sort, t.name)
    if isinstance(t, TupleTerm):
        return (2, tuple(legacy_term_key(a) for a in t.args))
    if isinstance(t, Inj):
        return (3, t.index, legacy_term_key(t.arg))
    if isinstance(t, AnSym):
        return (4, t.sym, tuple(legacy_term_key(a) for a in t.args))
    if isinstance(t, SetOf):
        return (5, tuple(legacy_term_key(a) for a in t.args))
    if isinstance(t, UnitLeaf):
        return (6,)
    raise TypeError(f"not a term: {t!r}")


def _written_name(name: str) -> str:
    """A name as a model file writes it: bare when the bare-name grammar
    carries it, in double quotes otherwise."""
    return name if NAME_RE.fullmatch(name) else f'"{name}"'


def recursive_print_term(t: Term) -> str:
    """``t`` printed by plain recursion, each subterm as often as it
    occurs, each name as a model file writes it."""
    if isinstance(t, (ConstElem, Var)):
        return _written_name(t.name)
    if isinstance(t, UnitLeaf):
        return UNIT
    if isinstance(t, TupleTerm):
        return "(" + ", ".join(recursive_print_term(a) for a in t.args) + ")"
    if isinstance(t, Inj):
        return f"in{t.index}({recursive_print_term(t.arg)})"
    if isinstance(t, AnSym):
        return _written_name(t.sym) + ("(" + ", ".join(recursive_print_term(a) for a in t.args) + ")" if t.args else "")
    if isinstance(t, SetOf):
        return "{" + ", ".join(recursive_print_term(a) for a in t.args) + "}"
    raise TypeError(f"not a term: {t!r}")


def recursive_print_term_for(f: Functor, sort: str, term: Term) -> str:
    """``term`` written against ``f`` at ``sort`` by plain recursion,
    each nested term at a sort leaf read against ``f`` again and printed
    as often as it occurs."""

    def walk(node: Node, t: Term) -> str:
        if isinstance(t, UnitLeaf):
            return UNIT
        if isinstance(node, SortRef):
            return _written_name(t.name) if isinstance(t, Var) else walk(f.node(node.sort), t)
        if isinstance(node, Coprod) and isinstance(t, Inj):
            branch = node.parts[t.index]
            return BOT if branch == Const((BOT,)) else f"in{t.index}({walk(branch, t.arg)})"
        if isinstance(node, Const) and isinstance(t, ConstElem):
            return _written_name(t.name)
        if isinstance(node, Prod) and isinstance(t, TupleTerm):
            return "(" + ", ".join(walk(p, a) for p, a in zip(node.parts, t.args)) + ")"
        if isinstance(node, Analytic) and isinstance(t, AnSym):
            slots = node.symbol(t.sym).slots
            body = "(" + ", ".join(walk(n, a) for n, a in zip(slots, t.args)) + ")" if t.args else ""
            return _written_name(t.sym) + body
        if isinstance(node, Pf) and isinstance(t, SetOf):
            return "{" + ", ".join(walk(node.inner, a) for a in t.args) + "}"
        raise TypeError(f"cannot print {t!r} against {node!r}")

    return walk(f.node(sort), term)


def is_path_morphism(m: PathMorphism) -> bool:
    if m.src.length > m.dst.length or len(m.components) != m.src.length + 1:
        return False
    if m.components[0].table != SortedFun.identity(m.src.levels[0]).table:
        return False
    fp1 = plus1(m.src.functor)
    for k in range(m.src.length):
        phi_k, phi_next = m.components[k], m.components[k + 1]
        for (s, x) in m.src.levels[k].pairs():
            lhs = fmap(fp1, phi_next, s, m.src.steps[k](s, x))
            rhs = m.dst.steps[k](s, phi_k(s, x))
            if lhs != rhs:
                return False
    return True


def _bijections(dom: SortedSet, cod: SortedSet) -> Iterator[SortedFun]:
    """Every sort-preserving bijection from ``dom`` to ``cod``."""
    sorts = dom.sorts
    if any(len(dom.elems(s)) != len(cod.elems(s)) for s in sorts):
        return
    for images in itertools.product(*[itertools.permutations(cod.elems(s)) for s in sorts]):
        table = {(s, x): y for s, ys in zip(sorts, images) for x, y in zip(dom.elems(s), ys)}
        yield SortedFun(dom, cod, table)


def brute_path_morphisms(p: PathObj, q: PathObj) -> list[PathMorphism]:
    """Every path morphism ``p -> q``, found by trying every family of
    sort-preserving level bijections with the identity at level 0 and
    keeping those :func:`is_path_morphism` accepts."""
    if p.length > q.length:
        return []
    rest = [_bijections(p.levels[k], q.levels[k]) for k in range(1, p.length + 1)]
    identity = SortedFun.identity(p.levels[0])
    candidates = (PathMorphism(p, q, (identity, *family)) for family in itertools.product(*rest))
    return [m for m in candidates if is_path_morphism(m)]


def factorized_runs(c: PointedCoalgebra, depth: int, allow_bot: bool = True) -> Iterator[tuple[PathObj, Run]]:
    """Every (path, run) pair up to the given length, in the order of
    ``paths.enumerate_runs``, each next level built the long way: the
    choice map of a combination is factorized with ``precise_factorize``
    (one ``(x;path)`` element per occurrence), and the factorization's
    codomain is renamed ``n000``, ``n001``, ... in its own order."""
    fp1 = plus1(c.functor)
    point_fun = SortedFun(c.pointing, c.carrier, dict(c.point))

    def rec(levels: list[SortedSet], steps: list[TermMap], comps: list[SortedFun]) -> Iterator[tuple[PathObj, Run]]:
        path = PathObj(c.functor, tuple(levels), tuple(steps))
        yield path, Run(path, c, tuple(comps))
        if len(steps) >= depth:
            return
        current = levels[-1]
        x_k = comps[-1]
        keys = list(current.pairs())
        options = [([None] if allow_bot else []) + list(c.xi[(s, x_k(s, e))]) for (s, e) in keys]
        if any(not o for o in options):
            return
        for combo in itertools.product(*options):
            table = {
                key: bot_of_plus1() if choice is None else step_of_plus1(choice)
                for key, choice in zip(keys, combo)
            }
            fac = precise_factorize(TermMap(current, fp1, c.carrier, table))
            rename: dict[tuple[str, str], str] = {}
            per_sort: dict[str, list[str]] = {s: [] for s in c.pointing.sorts}
            for i, (s, pos) in enumerate(fac.precise.cod.pairs()):
                rename[(s, pos)] = f"n{i:03d}"
                per_sort[s].append(rename[(s, pos)])
            next_level = SortedSet.make(per_sort, c.pointing.sorts)
            rename_fun = SortedFun(fac.precise.cod, next_level, rename)
            step_table = {key: fmap(fp1, rename_fun, key[0], t) for key, t in fac.precise.table.items()}
            step = TermMap(current, fp1, next_level, step_table)
            x_table = {(s, rename[(s, pos)]): fac.connect(s, pos) for (s, pos) in fac.precise.cod.pairs()}
            x_next = SortedFun(next_level, c.carrier, x_table)
            yield from rec(levels + [next_level], steps + [step], comps + [x_next])

    yield from rec([c.pointing], [], [point_fun])


def fresh_precise_maps(p: SortedSet, f_expr: Functor) -> Iterator[tuple[SortedSet, TermMap]]:
    """The maps of ``precise.enumerate_precise_maps``, from the loop it
    once ran: every combination of shapes renumbers each of its shapes
    afresh, however often a shape recurs at the same offset."""
    keys = list(p.pairs())
    shape_lists = [element_shapes(f_expr, s) for s, _ in keys]
    seen = set()
    for combo in itertools.product(*shape_lists):
        counter = 0
        fresh_elems: dict[str, list[str]] = {s: [] for s in p.sorts}
        table: dict[tuple[str, str], Term] = {}
        for (sort, elem), shape in zip(keys, combo):
            table[(sort, elem)], names = _renumber(f_expr.node(sort), shape, counter)
            counter += len(names)
            for v in names:
                fresh_elems[v.sort].append(v.name)
        codomain = SortedSet.make({s: fresh_elems[s] for s in p.sorts}, p.sorts)
        term_map = TermMap(p, f_expr, codomain, table)
        dedupe_key = tuple(table.items())
        if dedupe_key in seen:
            continue
        seen.add(dedupe_key)
        yield codomain, term_map


def frontier_chains(f_expr: Functor, start: SortedSet, depth: int) -> list[tuple[TermMap, ...]]:
    """The chains of ``precise.precise_chains``, from the breadth-first
    frontier loop the ``paths`` verb once ran: every chain enumerates the
    precise maps out of its last level afresh, however often that level
    repeats, through :func:`fresh_precise_maps`."""
    chains = []
    frontier: list[tuple[SortedSet, tuple[TermMap, ...]]] = [(start, ())]
    for length in range(depth + 1):
        new_frontier = []
        for level, prefix in frontier:
            chains.append(prefix)
            if length < depth:
                for codomain, term_map in fresh_precise_maps(level, f_expr):
                    new_frontier.append((codomain, prefix + (term_map,)))
        frontier = new_frontier
    return chains


def comp_as_word(cv: CompValue) -> str:
    """A composite for which ``paths.comps_are_words`` holds, decoded as
    a word over the alphabet and the added point, padded to the
    composite's depth."""
    letters, stopped = decode_word(cv.values[0][1])
    return "".join(letters) + (BOT * (cv.depth - len(letters)) if stopped else "")


def fresh_comp(p: PathObj) -> CompValue:
    """The composite of ``p`` built from scratch: the levels substituted
    backwards, the last one replaced by units, each value built anew."""
    current: dict[tuple[str, str], Term] = {key: UNIT_TERM for key in p.levels[p.length].pairs()}
    fp1 = plus1(p.functor)
    for k in range(p.length - 1, -1, -1):
        current = {(s, x): subst_node(fp1.node(s), t, current) for (s, x), t in p.steps[k].table.items()}
    return CompValue(p.functor, p.levels[0], p.length, tuple(sorted(current.items())))


def run_image(r: Run) -> set[tuple[str, str]]:
    """The (sort, state) pairs a run visits."""
    out: set[tuple[str, str]] = set()
    for k, x_k in enumerate(r.components):
        for (s, e) in r.path.levels[k].pairs():
            out.add((s, x_k(s, e)))
    return out


# ---------------------------------------------------------------------------
# Precise maps: the lifting definition

def _all_sorted_sets(sorts: tuple[str, ...], size_bound: int) -> Iterator[SortedSet]:
    """All carriers with at most ``size_bound`` elements per sort."""
    ranges = [range(size_bound + 1)] * len(sorts)
    for sizes in itertools.product(*ranges):
        yield SortedSet(
            sorts,
            tuple(tuple(f"c{i}" for i in range(n)) for n in sizes),
        )


def is_precise_oracle(f: TermMap, size_bound: int) -> bool:
    """Decide preciseness straight from the lifting definition.

    Checks, for every carrier C with at most ``size_bound`` elements per
    sort, every ``h: C -> Y`` and every ``k: X -> F(C)`` with
    ``F(h) . k = f``, that some ``d: Y -> C`` satisfies ``F(d) . f = k``
    and ``h . d = id``.  Exhaustive and exponential.  The map
    under test must itself fit the bound.
    """
    functor = f.functor
    y = f.cod
    x = f.dom
    largest = max((len(elems) for elems in x.data + y.data), default=0)
    if largest > size_bound:
        raise CoalgError(f"oracle bound exceeded: a sort has {largest} elements, bound {size_bound}")
    for c in _all_sorted_sets(y.sorts, size_bound):
        fc = eval_functor(functor, c)
        for h in all_functions(c, y):
            # fibers of fmap(h) over each f(x); empty fiber => no such k
            fibers: list[list[Term]] = []
            ok = True
            for (sort, elem) in x.pairs():
                target = f(sort, elem)
                node_terms = fc[sort]
                fiber = [t for t in node_terms if fmap(functor, h, sort, t) == target]
                if not fiber:
                    ok = False
                    break
                fibers.append(fiber)
            if not ok:
                continue
            keys = list(x.pairs())
            for combo in itertools.product(*fibers):
                k = dict(zip(keys, combo))
                if not _has_diagonal(f, functor, x, y, c, h, k):
                    return False
    return True


def _has_diagonal(
    f: TermMap,
    functor: Functor,
    x: SortedSet,
    y: SortedSet,
    c: SortedSet,
    h: SortedFun,
    k: Mapping[tuple[str, str], Term],
) -> bool:
    # candidates per y-element: the h-fiber
    y_keys = list(y.pairs())
    candidates = []
    for (s, ye) in y_keys:
        fiber = [ce for ce in c.elems(s) if h(s, ce) == ye]
        if not fiber:
            return False
        candidates.append(fiber)
    for combo in itertools.product(*candidates):
        d = SortedFun(y, c, dict(zip(y_keys, combo)))
        if all(fmap(functor, d, s, f(s, xe)) == k[(s, xe)] for (s, xe) in x.pairs()):
            return True
    return False


# ---------------------------------------------------------------------------
# Precise iff characteristic: one-element maps checked carrier by carrier

def _all_small_carriers(sorts: tuple[str, ...], max_per_sort: int) -> Iterator[SortedSet]:
    for sizes in itertools.product(range(max_per_sort + 1), repeat=len(sorts)):
        yield SortedSet(sorts, tuple(tuple(f"y{i}" for i in range(k)) for k in sizes))


def _is_characteristic(y: SortedSet) -> bool:
    return y.size() == 1


def precise_iff_characteristic_oracle(f: Functor, objects: tuple[str, ...], max_y: int) -> list[str]:
    """For every sort ``p``, every carrier Y with at most ``max_y``
    elements per sort and every term ``t`` of F(Y) at ``p``: the map from
    a singleton at ``p`` picking ``t`` is precise iff Y has exactly one
    element.  One line per term where that fails, as
    ``lasota.paths_bijection_check`` reports it.  Exhaustive: evaluates
    F at (max_y + 1)^|objects| carriers per sort.
    """
    lines = []
    for p in objects:
        chi_p = singleton_pointing(tuple(objects), at=p, name="*")
        for y in _all_small_carriers(tuple(objects), max_y):
            for t in eval_functor(f, y)[p]:
                tm = TermMap(chi_p, f, y, {(p, "*"): t})
                if is_precise(tm) != _is_characteristic(y):
                    lines.append(f"precise-iff-characteristic fails at sort {p}, carrier {y.data}, term {t!r}")
    return lines


# ---------------------------------------------------------------------------
# The binding layer and the pool actions: no verb reads them, the nominal
# battery checks them (acceptance criterion 9)

def all_perms(pool: AtomPool) -> Iterator[Perm]:
    atoms = pool.atoms
    for image in itertools.permutations(atoms):
        yield Perm(dict(zip(atoms, image)))


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
    return _transition(t.index, pi(atom), NomElem(q, tuple(pi(a) for a in regs)), pool)


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
# The binding layer: the lifting definition over strong carriers

def _strong_carriers(pool: AtomPool, max_orbits: int, max_arity: int) -> Iterator[list[NomElem]]:
    """Small strong nominal sets: unions of full orbit templates."""
    templates = []
    for arity in range(max_arity + 1):
        templates.append(arity)
    for count in range(max_orbits + 1):
        for combo in itertools.combinations_with_replacement(templates, count):
            carrier: list[NomElem] = []
            for idx, arity in enumerate(combo):
                for atoms in itertools.permutations(pool.atoms, arity):
                    carrier.append(NomElem(f"o{idx}a{arity}", atoms))
            yield carrier


def binding_precise_oracle(
    f_precise: dict[NomElem, BindTerm], pool: AtomPool, max_orbits: int = 2, max_arity: int = 2
) -> bool:
    """Lifting check for the binding layer over a catalog of strong carriers.

    For every strong C in the bounded catalog, every equivariant
    ``h: C -> Y'`` and every ``k: X -> [A]C`` with ``[A]h . k`` alpha-equal
    to the tested map, an equivariant ``d: Y' -> C`` must satisfy
    ``[A]d . f = k`` and ``h . d = id``.
    """
    xs = sorted(f_precise.keys(), key=lambda e: (e.tag, e.atoms))
    y_elems = sorted({t.body for t in f_precise.values()}, key=lambda e: (repr(e),))
    for carrier in _strong_carriers(pool, max_orbits, max_arity):
        for h in _equivariant_maps_from(carrier, y_elems, pool):
            k_pools = []
            for x in xs:
                target = f_precise[x]
                want = canonical_bind(target.atom, target.body, pool)
                options = []
                for c in carrier:
                    for a in pool.atoms:
                        if canonical_bind(a, h[c], pool) == want:
                            canon = canonical_bind(a, c, pool)
                            if canon not in options:
                                options.append(canon)
                k_pools.append(options)
            for combo in itertools.product(*k_pools):
                k = dict(zip(xs, combo))
                if not _binding_diagonal_exists(f_precise, k, carrier, h, y_elems, pool):
                    return False
    return True


def _binding_diagonal_exists(f, k, carrier, h, y_elems, pool: AtomPool) -> bool:
    for d in _equivariant_maps_from(y_elems, carrier, pool):
        if any(h[d[y]] != y for y in y_elems):
            continue
        ok = True
        for x, target in f.items():
            if canonical_bind(target.atom, d[target.body], pool) != canonical_bind(k[x].atom, k[x].body, pool):
                ok = False
                break
        if ok:
            return True
    return False


def _equivariant_maps_from(dom: list, cod: list[NomElem], pool: AtomPool) -> Iterator[dict]:
    """Equivariant maps out of a list of (possibly FreshPair) elements."""
    if not dom:
        yield {}
        return
    perms = list(all_perms(pool))
    orbits: list[list] = []
    seen: set = set()
    for e in sorted(dom, key=repr):
        if id(e) in seen:
            continue
        orbit = []
        for other in dom:
            if any(other == e.rename(pi) for pi in perms):
                orbit.append(other)
                seen.add(id(other))
        orbits.append(orbit)
    reps = [sorted(o, key=repr)[0] for o in orbits]
    pools = [[c for c in cod if c.support() <= rep.support()] for rep in reps]
    for combo in itertools.product(*pools):
        try:
            yield extend_equivariant(
                list(zip(reps, combo)),
                dom,
                pool,
                lambda pi, e: e.rename(pi),
                lambda pi, v: v.rename(pi),
                lambda e: e.support(),
                lambda v: v.support(),
            )
        except PoolError:
            continue


# ---------------------------------------------------------------------------
# Homset-order structure used by the axiom property tests

def decompose_into_units(f: BehaviourMap) -> Iterator[dict[tuple[str, str], Term | None]]:
    """All unit restrictions of ``f``: one term or nothing per state.

    The pointwise union over the whole stream recovers ``f``.
    """
    keys = sorted(f.keys())
    choices = [(None,) + tuple(f[k]) for k in keys]
    for combo in itertools.product(*choices):
        yield dict(zip(keys, combo))


def lift_choice(
    x_map: BehaviourMap,
    y_map: Mapping[tuple[str, str], Term | None],
    h: SortedFun,
    functor: Functor,
) -> dict[tuple[str, str], Term | None]:
    """Choose unit witnesses under a carrier map.

    For each ``a``: if ``y(a)`` is a term, pick the least ``t`` in
    ``x(a)`` with ``F(h)(t) = y(a)``; if ``y(a)`` is nothing, nothing.
    """
    result: dict[tuple[str, str], Term | None] = {}
    for key in sorted(x_map.keys()):
        target = y_map[key]
        if target is None:
            result[key] = None
            continue
        sort = key[0]
        eligible = [t for t in sorted(x_map[key]) if fmap(functor, h, sort, t) == target]
        if not eligible:
            raise CoalgError(f"choice precondition violated at {key}: {target!r} has no preimage")
        result[key] = eligible[0]
    return result


# ---------------------------------------------------------------------------
# LTS relations

def lts_edges(c: PointedCoalgebra) -> set[tuple[str, str, str]]:
    shape = word_shape(c.functor)
    if shape is None or shape[1] is not None:
        raise CoalgError("not an LTS-shaped functor (expected prod(const(A), id))")
    edges = set()
    for (_s, x), terms in c.xi.items():
        for t in terms:
            label = t.args[0].name  # type: ignore[union-attr]
            target = t.args[1].name  # type: ignore[union-attr]
            edges.add((x, label, target))
    return edges


def lts_is_simulation(r: set[tuple[str, str]], c1: PointedCoalgebra, c2: PointedCoalgebra) -> bool:
    """Forth condition plus the pointing clause."""
    edges1 = lts_edges(c1)
    edges2 = lts_edges(c2)
    init1 = {c1.point[(DEFAULT_SORT, i)] for _s, i in c1.pointing.pairs()}
    init2 = {c2.point[(DEFAULT_SORT, i)] for _s, i in c2.pointing.pairs()}
    for i1 in init1:
        if not any((i1, i2) in r for i2 in init2):
            return False
    for (s, s2) in r:
        for (x, a, y) in edges1:
            if x != s:
                continue
            if not any(x2 == s2 and a2 == a and (y, y2) in r for (x2, a2, y2) in edges2):
                return False
    return True


def lts_is_bisimulation(r: set[tuple[str, str]], c1: PointedCoalgebra, c2: PointedCoalgebra) -> bool:
    converse = {(b, a) for (a, b) in r}
    return lts_is_simulation(r, c1, c2) and lts_is_simulation(converse, c2, c1)


# ---------------------------------------------------------------------------
# Term text


def char_loop_tokenize(text: str, line: int | None = None) -> list[str]:
    """The tokens of ``text``, read one character at a time."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise ModelParseError("unterminated quoted name", line)
            tokens.append(text[i : end + 1])
            i = end + 1
            continue
        if text.startswith("->", i):
            tokens.append("->")
            i += 2
            continue
        if ch in "(){}[],;=/":
            tokens.append(ch)
            i += 1
            continue
        m = NAME_RE.match(text, i)
        if not m:
            raise ModelParseError(f"unexpected character {ch!r}", line)
        tokens.append(m.group(0))
        i = m.end()
    return tokens


class _TokenStream:
    """Tokens read one at a time."""

    def __init__(self, tokens: list[str], line: int | None):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ModelParseError("unexpected end of input", self.line)
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ModelParseError(f"expected {tok!r}, got {got!r}", self.line)

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def name(self) -> str:
        """The next token, which must be a name, without its quotes."""
        tok = self.next()
        if tok.startswith('"'):
            return tok[1:-1]
        if not NAME_RE.fullmatch(tok):
            raise ModelParseError(f"expected a name, got {tok!r}", self.line)
        return tok


def stream_parse_term_text(text: str, node: Node, carrier: SortedSet, line: int | None = None) -> Term:
    """The term ``text`` denotes at ``node``, read from a token stream."""
    stream = _TokenStream(char_loop_tokenize(text, line), line)
    term = _stream_term(stream, node, carrier)
    if not stream.done():
        raise ModelParseError(f"trailing input after term: {stream.peek()!r}", line)
    return term


def _stream_term(s: _TokenStream, node: Node, carrier: SortedSet) -> Term:
    if isinstance(node, Coprod):
        tok = s.peek()
        if tok is not None and re.fullmatch(r"in\d+", tok):
            s.next()
            index = int(tok[2:])
            if not 0 <= index < len(node.parts):
                raise ModelParseError(f"injection {tok} out of range", s.line)
            s.expect("(")
            arg = _stream_term(s, node.parts[index], carrier)
            s.expect(")")
            return Inj(index, arg)
        start = s.pos
        matches = []
        for i, part in enumerate(node.parts):
            s.pos = start
            try:
                arg = _stream_term(s, part, carrier)
                matches.append((i, arg, s.pos))
            except ModelParseError:
                continue
        if len(matches) > 1:
            # a term that fits the added point's summand is the added point
            matches = [m for m in matches if node.parts[m[0]] == Const((BOT,))] or matches
        if len(matches) == 1:
            i, arg, end = matches[0]
            s.pos = end
            return Inj(i, arg)
        if not matches:
            raise ModelParseError("term fits no coproduct branch", s.line)
        raise ModelParseError("ambiguous coproduct term; use an explicit in<k>(...)", s.line)
    if isinstance(node, Const):
        tok = s.name()
        tok = ALIASES.get(tok, tok)
        if tok not in node.elems:
            raise ModelParseError(f"{tok!r} is not one of the constants {node.elems}", s.line)
        return ConstElem(tok)
    if isinstance(node, SortRef):
        tok = s.name()
        tok = ALIASES.get(tok, tok)
        if not carrier.has(node.sort, tok):
            raise ModelParseError(f"{tok!r} is not an element of sort {node.sort!r}", s.line)
        return Var(node.sort, tok)
    if isinstance(node, Prod):
        s.expect("(")
        args = []
        for i, part in enumerate(node.parts):
            if i:
                s.expect(",")
            args.append(_stream_term(s, part, carrier))
        s.expect(")")
        return TupleTerm(tuple(args))
    if isinstance(node, Analytic):
        sym_name = s.name()
        try:
            sym = node.symbol(sym_name)
        except TermError as exc:
            raise ModelParseError(str(exc), s.line) from None
        args = []
        if sym.group.arity:
            s.expect("(")
            for i, slot in enumerate(sym.slots):
                if i:
                    s.expect(",")
                args.append(_stream_term(s, slot, carrier))
            s.expect(")")
        return ansym(sym.group, sym.name, tuple(args))
    if isinstance(node, Pf):
        s.expect("{")
        args = []
        while s.peek() != "}":
            if args:
                s.expect(",")
            args.append(_stream_term(s, node.inner, carrier))
        s.expect("}")
        return SetOf(args)
    raise ModelParseError(f"cannot parse a term of {node!r}", s.line)
