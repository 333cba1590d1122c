"""Open-map checking, reachability, and the randomized theorem harness.

Openness is checked through one-step path extensions; squares between
equal-length paths need no check because all path-morphism components
are bijections, and longer differences compose from single steps.  A
target transition u in ``dst.xi[m(v)]`` at a reached state v lifts
exactly when ``F(m)(t) = u`` for some t in ``src.xi[v]`` (instantiations
of a shape that give the same u differ by a shape symmetry, which
analytic canonicalization absorbs), so the check is one image per state.
Only a state with unmatched targets enumerates (shape, instantiation)
pairs, over the elements of those targets; the first hit is the least
failing triple of the full enumeration, and it is materialized into an
explicit square witness that can be replayed against an exhaustive
diagonal search.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from .coalgebra import (
    CoalgMorphism,
    GenSpec,
    PointedCoalgebra,
    _image_table,
    is_strict_hom,
    random_coalgebra,
)
from .functors import (
    Functor, Term, _leaf_states, _named_image, bot_of_plus1, eval_functor, fmap, format_name, step_of_plus1,
    term_in_functor,
)
from .modelio import _state_names, print_term_for
from .precise import element_shapes
from .sets import CoalgError, SortedFun, SortedSet
from .trace import trace_equiv


# ---------------------------------------------------------------------------
# Reachability

def reachable_bfs(c: PointedCoalgebra) -> tuple[list[frozenset[tuple[str, str]]], frozenset[tuple[str, str]]]:
    """Breadth-first levels from the pointing and their union.

    Level k+1 collects every state occurring in a transition term of a
    level-k state.  Iteration stops at the first empty or previously seen
    level, or after ``|X| + 2`` levels: every state first appears within
    ``|X|`` levels, so the cap cuts off only levels of states seen before.
    The union is the least subcoalgebra carrier, and the states that all
    runs of length up to ``|X|`` cover, the added point allowed: ``reach``
    and the harness clause (c) compare it with the worklist closure of
    :func:`is_reachable_no_proper_sub`.  A state's successors are read
    once per call, however many levels hold it.
    """
    after: dict[tuple[str, str], frozenset[tuple[str, str]]] = {}
    level = frozenset(c.point_image())
    levels = [level]
    union = set(level)
    while True:
        for x in level:
            if x not in after:
                after[x] = frozenset([y for _t, succ in c.successors(x) for y in succ])
        level = frozenset().union(*[after[x] for x in level])
        if not level or level in levels:
            break
        levels.append(level)
        union |= level
        if len(levels) > c.carrier.size() + 1:
            break
    return levels, frozenset(union)


def _least_subcoalgebra(c: PointedCoalgebra) -> set[tuple[str, str]]:
    """The least subcoalgebra carrier: the pointing image closed under the
    leaves of ``xi``, by a worklist, not by breadth-first levels."""
    closed = c.point_image()
    todo = list(closed)
    while todo:
        s, x = todo.pop()
        for t in c.xi[(s, x)]:
            fresh = [y for y in _leaf_states(c.functor, s, t) if y not in closed]
            closed.update(fresh)
            todo.extend(fresh)
    return closed


def is_reachable_no_proper_sub(c: PointedCoalgebra) -> bool:
    """No proper subcoalgebra: the least subcoalgebra is the whole carrier."""
    return _least_subcoalgebra(c) == set(c.carrier.pairs())


# ---------------------------------------------------------------------------
# Open-map checking

@dataclass
class SquareWitness:
    """A commuting square with no diagonal filler, as plain records in the
    form of :func:`paths.enumerate_runs`: a run of ``src`` over a path of
    length n, the path's one-step extension, and a run of ``dst`` over the
    extension that the map makes the square's other side.

    ``levels[k]`` holds the elements of level k, in level order, as
    ``(sort, name, source state, target state)``; level 0 is the pointing,
    and level n + 1, the extension's, has the source state ``None``.
    ``steps[k]`` holds, per element of level k, ``None`` for the added
    point or its term of F over the names of level k + 1.
    """

    src: PointedCoalgebra
    dst: PointedCoalgebra
    levels: tuple[tuple[tuple[str, str, str | None, str], ...], ...]
    steps: tuple[tuple[Term | None, ...], ...]


@dataclass
class OpenCheckReport:
    """The verdict of :func:`is_open`, with a witness square when a reached
    state has no lift.  A not-open verdict with neither a lax violation
    nor a missing lift is a map that does not preserve the pointing."""

    verdict: str  # "open" | "not-open"
    bound: int
    lax_violation: tuple | None = None  # ((sort, state), term) breaking laxness
    no_lift: tuple | None = None  # ((sort, state), shape) with no lift; the witness's run ends there
    witness: SquareWitness | None = None
    states_checked: int = 0  # reached states whose lifts were checked

    @property
    def is_open(self) -> bool:
        return self.verdict == "open"

    @property
    def reason(self) -> str:
        """Why the map is not open, written from the facts above; empty
        when it is open."""
        if self.no_lift is not None:
            (s, v), shape = self.no_lift
            return f"no lift at state {_state_names(self.witness.src.carrier)[s, v]} for shape {shape!r}"
        if self.lax_violation is not None:
            return "not a lax homomorphism"
        return "" if self.is_open else "map does not preserve the pointing"


def is_open(
    m: CoalgMorphism, bound: int, levels: list[frozenset[tuple[str, str]]] | None = None
) -> OpenCheckReport:
    """Check openness of a lax morphism against path extensions up to ``bound``.

    A map that is not even a lax morphism is reported not-open with the
    offending transition: it is not a morphism of the system category,
    so no square lifting discipline applies to it.  ``levels`` are the
    breadth-first levels of the source, when the caller has walked them
    already; otherwise they are walked here.
    """
    src, dst = m.src, m.dst
    if not m.preserves_pointing():
        return OpenCheckReport("not-open", bound)
    functor = src.functor
    images = m.images
    for (s, x), image in images.items():
        targets = dst.xi[(s, m.map(s, x))]
        if image.issubset(targets):
            continue
        # the first term, in term order, whose image is no target
        for t in src.xi[(s, x)]:
            if fmap(functor, m.map, s, t) not in targets:
                return OpenCheckReport("not-open", bound, lax_violation=((s, x), t))
    if levels is None:
        levels = reachable_bfs(src)[0]
    checked: set[tuple[str, str]] = set()
    for level_index, level in enumerate(levels):
        if level_index >= bound:
            break
        for (s, v) in sorted(level - checked):
            checked.add((s, v))
            missing = set(dst.xi[(s, m.map(s, v))]) - images[(s, v)]
            if not missing:
                continue
            shape, phi = _least_failing_triple(functor, dst, s, missing)
            return OpenCheckReport(
                "not-open", bound, no_lift=((s, v), shape),
                witness=_materialize_witness(m, levels, level_index, (s, v), shape, phi),
                states_checked=len(checked),
            )
    return OpenCheckReport("open", bound, states_checked=len(checked))


def _least_failing_triple(functor: Functor, dst: PointedCoalgebra, sort: str, missing: set[Term]):
    """The first (shape, instantiation) hitting a missing target, the
    instantiation keyed by the shape's variables in sorted order; pools
    keep only elements of missing targets, in carrier order.  Every
    target is an element shape instantiated over its own leaves, so
    one always hits."""
    used = {key for u in missing for key in _leaf_states(functor, sort, u)}
    for shape in element_shapes(functor, sort):
        leaves = _leaf_states(functor, sort, shape)
        fresh_vars = sorted(set(leaves))
        pools = [[e for e in dst.carrier.elems(vs) if (vs, e) in used] for vs, _vn in fresh_vars]
        for combo in itertools.product(*pools):
            phi = dict(zip(fresh_vars, combo))
            if _named_image(functor, sort, shape, tuple([phi[key] for key in leaves])) in missing:
                return shape, phi
    raise CoalgError("internal error: a missing target is no instantiated shape")


def _materialize_witness(
    m: CoalgMorphism,
    levels: list[frozenset[tuple[str, str]]],
    level_index: int,
    state: tuple[str, str],
    shape: Term,
    phi: dict,
) -> SquareWitness:
    """The square at a missing lift: a run of the source, of length
    ``level_index``, whose last level holds an element at ``state``, a
    state of BFS level ``level_index``, extended at that element by the
    failing shape, whose variables become elements ``w000, w001, ...`` at
    their target states in ``phi``'s order.

    The run follows the least chain of transitions: walking back, each
    step takes the first ``(state, term)`` of ``sorted(levels[k - 1])``,
    terms in successor order, whose successors hold the later state.
    Every other element of a level steps to the added point.  The
    elements of level k + 1 are the leaves of the chain's k-th term,
    named ``n000, n001, ...`` in occurrence order, and the element the
    chain goes on from is the first of them at the later state.
    """
    src, dst = m.src, m.dst
    functor = src.functor
    chain: list[tuple[tuple[str, str], Term, tuple[str, str]]] = []  # (state, term, later state)
    front = state
    for k in range(level_index, 0, -1):
        step = next(
            ((x, t, front) for x in sorted(levels[k - 1]) for t, succ in src.successors(x) if front in succ), None
        )
        if step is None:
            raise CoalgError("internal error: breadth-first chain broken")
        chain.insert(0, step)
        front = step[0]
    rank = {s: i for i, s in enumerate(src.pointing.sorts)}
    rows = [tuple([(s, e, src.point[s, e], dst.point[s, e]) for s, e in src.pointing.pairs()])]
    steps: list[tuple[Term | None, ...]] = []

    def extend(at: int, sort: str, t: Term, names: list[str], below: list[tuple]) -> None:
        """Step the element at position ``at`` of the last level by ``t``,
        its leaves named ``names``, onto the level ``below``; every other
        element steps to the added point."""
        step: list[Term | None] = [None] * len(rows[-1])
        step[at] = _named_image(functor, sort, t, tuple(names))
        steps.append(tuple(step))
        rows.append(tuple(sorted(below, key=lambda row: (rank[row[0]], row[1]))))

    at = next(i for i, (s, _e, x, _y) in enumerate(rows[0]) if (s, x) == front)
    for (sort, _x), t, later in chain:
        leaves = _leaf_states(functor, sort, t)
        names = [f"n{i:03d}" for i in range(len(leaves))]
        below = [(vs, name, x, m.map(vs, x)) for name, (vs, x) in zip(names, leaves)]
        extend(at, sort, t, names, below)
        at = rows[-1].index(next(row for row in below if (row[0], row[2]) == later))
    fresh = {key: f"w{i:03d}" for i, key in enumerate(phi)}
    sort = rows[-1][at][0]
    names = [fresh[key] for key in _leaf_states(functor, sort, shape)]
    extend(at, sort, shape, names, [(key[0], w, None, phi[key]) for key, w in fresh.items()])
    return SquareWitness(src, dst, tuple(rows), tuple(steps))


def _is_step(f: Functor, level: tuple, step: tuple, below: tuple) -> bool:
    """Whether ``step`` is a precise step of F+1 from ``level`` onto
    ``below``: one entry per element, each term well formed over the
    names of ``below``, and each element of ``below`` at exactly one leaf."""
    names = [(s, e) for s, e, _x, _y in below]
    onto = SortedSet.make({s: {e for es, e in names if es == s} for s in f.sorts}, f.sorts)
    return (
        len(step) == len(level) and len(set(names)) == len(names)
        and all(t is None or term_in_functor(f, row[0], t, onto) for row, t in zip(level, step))
        and sorted([key for row, t in zip(level, step) if t is not None for key in _leaf_states(f, row[0], t)])
        == sorted(names)
    )


def _is_transition(c: PointedCoalgebra, level: tuple, step: tuple, states: dict, at: int) -> bool:
    """Whether each term of ``step``, each leaf renamed to the state
    ``states`` gives its element, is a transition of ``c`` at the state in
    column ``at`` of its element's row of ``level``."""
    f = c.functor
    return all(
        t is None or _named_image(f, row[0], t, tuple([states[key] for key in _leaf_states(f, row[0], t)]))
        in c.xi[row[0], row[at]]
        for row, t in zip(level, step)
    )


def replay_witness(m: CoalgMorphism, w: SquareWitness) -> bool:
    """True when the witness square commutes and no diagonal exists,
    checked on the records: level 0 sits at both systems' points, each
    step is precise, each target state is the map's image of its source
    state, each step is a transition of the target run and each but the
    last one of the source run, and no choice of source states for the
    last level, each over its target state, makes the last step a source
    transition.  Each check reads only what the ones before it passed."""
    src, dst = m.src, m.dst
    levels, steps = w.levels, w.steps
    n = len(steps) - 1
    point = tuple([(s, e, src.point[s, e], dst.point[s, e]) for s, e in src.pointing.pairs()])
    return (
        n >= 0 and len(levels) == n + 2 and levels[0] == point
        and all(_is_step(src.functor, *parts) for parts in zip(levels, steps, levels[1:]))
        and all(
            _is_transition(src, level, step, {(s, e): x for s, e, x, _y in below}, 2)
            for level, step, below in zip(levels, steps[:n], levels[1:])
        )
        and all(y == m.map(s, x) for level in levels[:-1] for s, _e, x, y in level)
        and all(
            _is_transition(dst, level, step, {(s, e): y for s, e, _x, y in below}, 3)
            for level, step, below in zip(levels, steps, levels[1:])
        )
        and not any(
            _is_transition(src, levels[n], steps[n], {(s, e): x for (s, e, _x, _y), x in zip(levels[-1], combo)}, 2)
            for combo in itertools.product(*[[x for x in src.carrier.elems(s) if m.map(s, x) == y]
                                             for s, _e, _x, y in levels[-1]])
        )
    )


# ---------------------------------------------------------------------------
# Theorem harness

@dataclass
class TrialResult:
    clauses: list[str] = field(default_factory=list)  # the clauses failed: none when the trial passed
    witness_lines: list[str] = field(default_factory=list)


@dataclass
class HarnessReport:
    results: list[TrialResult]  # trial i is results[i]

    @property
    def all_passed(self) -> bool:
        return not any(r.clauses for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for index, r in enumerate(self.results):
            out.append(f"trial {index}: FAIL {'; '.join(r.clauses)}" if r.clauses else f"trial {index}: PASS")
            out.extend(f"  {line}" for line in r.witness_lines)  # a failed clause's witness
        out.append(f"{'all passed' if self.all_passed else 'FAILURES'} ({len(self.results)} trials)")
        return out


def witness_steps(w: SquareWitness) -> Iterator[tuple[int, tuple, str, str]]:
    """Each step of the witness's extension as ``(k, row, elem written,
    term written)``, level by level, with the element's row of
    ``levels[k]``: the one rule by which both witness printers write an
    element and its step."""
    fp1 = w.src.functor.plus1
    # only level 0, the pointing, can hold a name in two sorts
    point = _state_names(w.src.pointing)
    for k, (level, step) in enumerate(zip(w.levels, w.steps)):
        for row, t in zip(level, step):
            elem = point[row[:2]] if k == 0 else format_name(row[1])
            yield k, row, elem, print_term_for(fp1, row[0], bot_of_plus1() if t is None else step_of_plus1(t))


def witness_ends(w: SquareWitness) -> Iterator[tuple[str, str]]:
    """Each element of the extension's last level, written, with the
    target state the target run sends it to, written."""
    state = _state_names(w.dst.carrier)
    for s, e, _x, y in w.levels[-1]:
        yield format_name(e), state[s, y]


def serialize_witness(w: SquareWitness) -> list[str]:
    """Line rendering of a counterexample square."""
    src_state, dst_state = _state_names(w.src.carrier), _state_names(w.dst.carrier)
    n = len(w.steps)
    lines = [f"square: path length {n - 1}, extension length {n}"]
    for k, (s, _e, x, y), elem, term in witness_steps(w):
        lines.append(f"{k} : {elem} -> {term}  [src {src_state[s, x]} -> dst {dst_state[s, y]}]")
    for elem, target in witness_ends(w):
        lines.append(f"{n} : {elem} [dst {target}, no source lift]")
    return lines


def _quotient_map(rng: random.Random, src: PointedCoalgebra, classes: int) -> CoalgMorphism:
    """Merge states into randomly chosen classes; the projection is lax.
    The target is built from the projection's image table, which the
    returned morphism keeps."""
    assignment: dict[tuple[str, str], str] = {}
    class_names: dict[str, list[str]] = {s: [] for s in src.carrier.sorts}
    for s in src.carrier.sorts:
        elems = src.carrier.elems(s)
        n_classes = max(1, min(classes, len(elems))) if elems else 0
        for i in range(n_classes):
            class_names[s].append(f"c{i}")
        for x in elems:
            assignment[(s, x)] = class_names[s][rng.randrange(n_classes)]
    # per sort, the classes its states fall in, sorted and each once
    used = [tuple(sorted({assignment[(s, x)] for x in elems})) for s, elems in zip(src.carrier.sorts, src.carrier.data)]
    carrier = SortedSet._built(src.carrier.sorts, tuple(used))
    fun = SortedFun._built(src.carrier, carrier, assignment)
    point = {(s, i): assignment[(s, src.point[(s, i)])] for s, i in src.pointing.pairs()}
    images = _image_table(src, fun)
    xi: dict[tuple[str, str], set] = {key: set() for key in carrier.pairs()}
    for (s, x), image in images.items():
        xi[(s, assignment[(s, x)])].update(image)
    dst = PointedCoalgebra._built(
        src.functor, src.pointing, carrier, point, {k: tuple(sorted(v)) for k, v in xi.items()}
    )
    return CoalgMorphism._with_images(src, dst, fun, images)


def _add_noise(rng: random.Random, c: PointedCoalgebra, amount: int) -> PointedCoalgebra:
    terms = eval_functor(c.functor, c.carrier)
    xi = {k: set(v) for k, v in c.xi.items()}
    keys = sorted(xi.keys())
    for _ in range(amount):
        key = keys[rng.randrange(len(keys))]
        pool = terms[key[0]]
        if pool:
            xi[key].add(pool[rng.randrange(len(pool))])
    return PointedCoalgebra._built(
        c.functor, c.pointing, c.carrier, dict(c.point), {k: tuple(sorted(v)) for k, v in xi.items()}
    )


def _random_map(rng: random.Random, src: PointedCoalgebra, dst: PointedCoalgebra) -> SortedFun:
    table = {}
    for (s, x) in src.carrier.pairs():
        pool = dst.carrier.elems(s)
        table[(s, x)] = pool[rng.randrange(len(pool))]
    for (s, i) in src.pointing.pairs():
        table[(s, src.point[(s, i)])] = dst.point[(s, i)]
    return SortedFun._built(src.carrier, dst.carrier, table)


def verify_theorems(spec: GenSpec, trials: int, check_traces: bool = False) -> HarnessReport:
    """Per trial: strict => open, open and path-reachable => strict,
    path-reachable <=> no proper subcoalgebra (two algorithms), and the
    bound guard: an open verdict has checked every state of the source.

    Sources are repaired to path-reachable form by restriction to the least
    subcoalgebra, so both theorem directions are exercised in every trial.
    """
    if trials < 1:
        raise CoalgError("at least one trial required")
    if not 0 <= spec.density <= 1:  # false for nan too
        raise CoalgError(f"density must lie in [0, 1], got {spec.density}")
    seed_rng = random.Random(spec.seed)
    subseeds = [seed_rng.randrange(2**63) for _ in range(trials)]
    results: list[TrialResult] = []
    for index in range(trials):
        try:
            results.append(_run_trial(spec, index, subseeds[index], check_traces))
        except CoalgError as exc:  # a red report, never a crash
            results.append(TrialResult([f"internal error: {exc}"]))
    return HarnessReport(results)


def _run_trial(spec: GenSpec, index: int, subseed: int, check_traces: bool) -> TrialResult:
    rng = random.Random(subseed)
    clauses: list[str] = []
    sizes = {s: rng.randint(1, n) for s, n in spec.sizes.items()}
    raw = random_coalgebra(
        GenSpec(spec.functor, sizes, spec.density, rng.randrange(2**63), spec.pointing)
    )
    # (c) the two reachability notions agree on the unrepaired source
    levels, union = reachable_bfs(raw)
    closure = _least_subcoalgebra(raw)
    if union != closure:
        clauses.append(f"reachability mismatch: path={len(union)} sub={len(closure)} states")
    src = raw.restrict(closure) if closure != set(raw.carrier.pairs()) else raw
    style = index % 3
    if style == 0:
        m = _quotient_map(rng, src, classes=max(1, src.carrier.size() - 1))
    elif style == 1:
        fold = _quotient_map(rng, src, classes=max(1, src.carrier.size()))
        # the noise changes only the target, so the fold's images stand
        m = CoalgMorphism._with_images(src, _add_noise(rng, fold.dst, amount=2), fold.map, fold.images)
    else:
        dst = random_coalgebra(
            GenSpec(spec.functor, sizes, spec.density, rng.randrange(2**63), spec.pointing)
        )
        m = CoalgMorphism(src, dst, _random_map(rng, src, dst))
    strict = is_strict_hom(m)
    bound = src.carrier.size() + 1
    # the least subcoalgebra has the levels of the system it restricts;
    # when the walk missed states, is_open walks the source itself
    report = is_open(m, bound, levels if union == closure else None)
    witness_lines: list[str] = []
    if strict and not report.is_open:
        clauses.append("strict hom reported not-open")
        if report.witness is not None:
            witness_lines = serialize_witness(report.witness)
    if report.is_open and not strict:
        clauses.append("open map on path-reachable source is not strict")
    if report.is_open and report.states_checked != src.carrier.size():
        clauses.append(f"bound guard: open at {bound} after {report.states_checked} of {src.carrier.size()} states")
    if report.witness is not None and not replay_witness(m, report.witness):
        clauses.append("witness does not replay")
    if check_traces and report.is_open and not trace_equiv(src, m.dst, bound):
        clauses.append("open map does not preserve traces")
    return TrialResult(clauses, witness_lines)
