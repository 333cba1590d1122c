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

from dataclasses import dataclass
from typing import Iterator

from .coalgebra import PointedCoalgebra
from .functors import (
    BOT,
    UNIT_TERM,
    Functor,
    Node,
    SortRef,
    Term,
    TermError,
    Var,
    bot_of_plus1,
    decode_word,
    fmap,
    map_leaves,
    plus1,
    step_of_plus1,
    strip_plus1,
    subst_node,
    term_in_functor,
    word_shape,
)
from .groups import group_elements
from .precise import TermMap, TermSpace, is_precise, precise_factorize
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

    def plus1(self) -> Functor:
        return plus1(self.functor)


def make_path(functor: Functor, pointing: SortedSet, levels, raw_steps) -> PathObj:
    """Assemble a path from raw step tables (terms of F+1 over the next level)."""
    level_tuple = tuple(levels)
    steps = []
    fp1 = plus1(functor)
    for k, table in enumerate(raw_steps):
        space = TermSpace(fp1, level_tuple[k + 1])
        steps.append(TermMap(level_tuple[k], space, table))
    return PathObj(functor, pointing, level_tuple, tuple(steps))


def validate_path(p: PathObj) -> list[str]:
    """Empty list when the path is well-formed; first-violation reports otherwise."""
    problems: list[str] = []
    if p.levels[0] != p.pointing:
        problems.append("level 0 is not the pointing object")
        return problems
    if len(p.levels) != p.length + 1:
        problems.append("level/step count mismatch")
        return problems
    fp1 = p.plus1()
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


def comp(p: PathObj) -> CompValue:
    """Substitute the levels backwards, replacing the last level by units."""
    current: dict[tuple[str, str], Term] = {key: UNIT_TERM for key in p.levels[p.length].pairs()}
    fp1 = p.plus1()
    for k in range(p.length - 1, -1, -1):
        nxt: dict[tuple[str, str], Term] = {}
        for (s, x), t in p.steps[k].table.items():
            nxt[(s, x)] = subst_node(fp1.node(s), t, current)
        current = nxt
    return make_comp_value(p.functor, p.pointing, p.length, current)


def truncate_term(fp1: Functor, sort: str, term: Term, depth: int) -> Term:
    """Cut a nested (F+1)-term at the given depth, putting units at the cut."""
    if depth == 0:
        return UNIT_TERM
    return map_leaves(fp1.node(sort), term, lambda ref, t: truncate_term(fp1, ref.sort, t, depth - 1))


def comp_as_word(cv: CompValue) -> str | None:
    """Decode an LTS-shaped composite as a word over the alphabet and the
    added point, padded to the composite's depth; None when not LTS-shaped."""
    if len(cv.values) != 1 or word_shape(plus1(cv.functor)) is None:
        return None
    letters, stopped = decode_word(cv.values[0][1])
    return "".join(letters) + (BOT * (cv.depth - len(letters)) if stopped else "")


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
        sub_values: dict[str, dict] = {s: {} for s in u.pointing.sorts}

        def collect(ref: SortRef, t: Term) -> Term:
            known = sub_values[ref.sort]
            for existing_name, existing in known.items():
                if existing == t:
                    return Var(ref.sort, existing_name)
            name = f"z{len(known):03d}"
            known[name] = t
            return Var(ref.sort, name)

        table: dict[tuple[str, str], Term] = {}
        for key in current.pairs():
            table[key] = map_leaves(fp1.node(key[0]), residual[key], collect)
        var_carrier = SortedSet.make({s: list(sub_values[s].keys()) for s in u.pointing.sorts}, u.pointing.sorts)
        f_k = TermMap(current, TermSpace(fp1, var_carrier), table)
        fac = precise_factorize(f_k)
        steps.append(fac.precise.table)
        next_level = fac.codomain
        residual = {
            (s, name): sub_values[s][fac.connect(s, name)]
            for s, name in next_level.pairs()
        }
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


def _match_terms(node: Node, t_src: Term, t_dst: Term, binding: dict) -> Iterator[dict]:
    """Bindings of source variables to destination variables making the
    terms equal under the expression grammar (analytic nodes match up to
    their group)."""
    from .functors import Analytic, AnSym, Const, Coprod, Inj, Prod, TupleTerm
    from .groups import apply_perm_tuple

    kind = {SortRef: Var, Prod: TupleTerm, Coprod: Inj, Analytic: AnSym}.get(type(node))
    if kind is not None and not (isinstance(t_src, kind) and isinstance(t_dst, kind)):
        raise TermError(f"{t_src!r} or {t_dst!r} does not fit {node!r}")
    if isinstance(node, SortRef):
        key = (t_src.sort, t_src.name)
        bound = binding.get(key)
        if bound is None:
            new_binding = dict(binding)
            new_binding[key] = t_dst.name
            yield new_binding
        elif bound == t_dst.name:
            yield binding
        return
    if isinstance(node, Const):
        if t_src == t_dst:
            yield binding
        return
    if isinstance(node, Prod):
        yield from _match_all(node.parts, t_src.args, t_dst.args, binding)
        return
    if isinstance(node, Coprod):
        if t_src.index != t_dst.index:
            return
        yield from _match_terms(node.parts[t_src.index], t_src.arg, t_dst.arg, binding)
        return
    if isinstance(node, Analytic):
        if t_src.sym != t_dst.sym:
            return
        sym = node.symbol(t_src.sym)
        seen: set[tuple] = set()
        for perm in group_elements(sym.group):
            permuted = apply_perm_tuple(perm, t_dst.args)
            if permuted in seen:
                continue
            seen.add(permuted)
            yield from _match_all(sym.slots, t_src.args, permuted, binding)
        return
    raise TermError(f"unsupported node {node!r}")


def _match_all(nodes: tuple[Node, ...], srcs: tuple[Term, ...], dsts: tuple[Term, ...], binding: dict) -> Iterator[dict]:
    """Bindings matching the terms pairwise, extending ``binding`` from the left."""
    if not nodes:
        yield binding
        return
    for b in _match_terms(nodes[0], srcs[0], dsts[0], binding):
        yield from _match_all(nodes[1:], srcs[1:], dsts[1:], b)


def all_path_morphisms(p: PathObj, q: PathObj) -> Iterator[PathMorphism]:
    """Backtracking search for path morphisms p -> q (lengths n <= m).

    Components are bijections; the search does not assume the connecting
    morphisms are unique, so functors like the bag functor are handled
    (they may admit several morphisms between the same paths).
    """
    if p.functor != q.functor or p.pointing != q.pointing:
        raise CoalgError("paths over different functors or pointings")
    if p.length > q.length:
        return
    fp1 = p.plus1()

    def search(k: int, phi_k: SortedFun, acc: list[SortedFun]) -> Iterator[PathMorphism]:
        if k == p.length:
            yield PathMorphism(p, q, tuple(acc))
            return
        if p.levels[k + 1].size() != q.levels[k + 1].size():
            return
        # constraints: fmap(phi_{k+1})(p_k(x)) = q_k(phi_k(x)) for all x
        bindings: list[dict] = [{}]
        for (s, x) in p.levels[k].pairs():
            t_src = p.steps[k](s, x)
            t_dst = q.steps[k](s, phi_k(s, x))
            new_bindings = []
            for b in bindings:
                new_bindings.extend(_match_terms(fp1.node(s), t_src, t_dst, b))
            bindings = new_bindings
            if not bindings:
                return
        seen = set()
        for b in bindings:
            frozen = tuple(sorted(b.items()))
            if frozen in seen:
                continue
            seen.add(frozen)
            if len({(key[0], v) for key, v in b.items()}) != len(b):
                continue  # not injective within a sort
            if len(b) != p.levels[k + 1].size():
                continue  # not total (cannot happen for precise steps)
            table = {key: b[key] for key in p.levels[k + 1].pairs()}
            phi_next = SortedFun(p.levels[k + 1], q.levels[k + 1], table)
            yield from search(k + 1, phi_next, acc + [phi_next])

    if p.levels[0] != q.levels[0]:
        return
    phi0 = SortedFun.identity(p.pointing)
    yield from search(0, phi0, [phi0])


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


def morphism_to_lax(m: PathMorphism) -> "object":
    """The carrier map induced on the embedded coalgebras by a path morphism."""
    from .coalgebra import CoalgMorphism

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


def enumerate_runs(
    c: PointedCoalgebra, depth: int, allow_bot: bool = True
) -> Iterator[tuple[PathObj, Run]]:
    """Every (path, run) pair up to the given length, lexicographically.

    Level k+1 is produced by choosing, per level-k element, either the
    added point or one of its transition terms, then factorizing the
    choice map so each term occurrence becomes a fresh next-level
    element.  Emits each prefix; level-wise-bijective duplicates never
    arise because distinct choices induce distinct labelled levels.
    """
    fp1 = plus1(c.functor)
    point_fun = SortedFun(c.pointing, c.carrier, dict(c.point))

    def rec(levels: list[SortedSet], steps: list[TermMap], comps: list[SortedFun]) -> Iterator[tuple[PathObj, Run]]:
        path = PathObj(c.functor, c.pointing, tuple(levels), tuple(steps))
        yield path, Run(path, c, tuple(comps))
        if len(steps) >= depth:
            return
        current = levels[-1]
        x_k = comps[-1]
        keys = list(current.pairs())
        options: list[list[Term | None]] = []
        for (s, e) in keys:
            opts: list[Term | None] = [None] if allow_bot else []
            opts.extend(c.xi[(s, x_k(s, e))])
            options.append(opts)
        if any(not o for o in options):
            return
        import itertools as _it

        for combo in _it.product(*options):
            table = {}
            for key, choice in zip(keys, combo):
                table[key] = bot_of_plus1() if choice is None else step_of_plus1(choice)
            g = TermMap(current, TermSpace(fp1, c.carrier), table)
            fac = precise_factorize(g)
            # rename the occurrence-position elements to compact level names
            rename: dict[tuple[str, str], str] = {}
            per_sort: dict[str, list[str]] = {s: [] for s in c.pointing.sorts}
            for i, (s, pos) in enumerate(fac.codomain.pairs()):
                fresh = f"n{i:03d}"
                rename[(s, pos)] = fresh
                per_sort[s].append(fresh)
            next_level = SortedSet.make(per_sort, c.pointing.sorts)
            rename_fun = SortedFun(fac.codomain, next_level, rename)
            step_table = {
                key: fmap(fp1, rename_fun, key[0], t) for key, t in fac.precise.table.items()
            }
            step = TermMap(current, TermSpace(fp1, next_level), step_table)
            x_next = SortedFun(
                next_level,
                c.carrier,
                {(s, rename[(s, pos)]): fac.connect(s, pos) for (s, pos) in fac.codomain.pairs()},
            )
            yield from rec(levels + [next_level], steps + [step], comps + [x_next])

    level0 = c.pointing
    yield from rec([level0], [], [point_fun])
