import dataclasses
import itertools
import pathlib
import random
from collections import Counter

import pytest

from coalgpath import openmap
from coalgpath.coalgebra import CoalgMorphism, GenSpec, is_lax_hom, is_strict_hom, random_coalgebra
from coalgpath.coalgebra import PointedCoalgebra
from coalgpath.functors import (
    Const, Coprod, Prod, SortRef, TupleTerm, Var, _leaf_states, _named_image, fmap, functor, occurrences, subst_node,
)
from coalgpath.modelio import _state_names, parse_coalgebra, parse_functor_text
from coalgpath.openmap import (
    OpenCheckReport,
    _add_noise,
    _materialize_witness,
    _quotient_map,
    _random_map,
    is_open,
    is_reachable_no_proper_sub,
    reachable_bfs,
    replay_witness,
    serialize_witness,
    verify_theorems,
)
from coalgpath.precise import element_shapes, enumerate_precise_maps
from coalgpath.sets import DEFAULT_SORT, SortedFun, SortedSet

from conftest import (
    HARNESS_FUNCTORS,
    SYSTEM_FUNCTORS,
    SYSTEM_IDS,
    drop_last_bfs_level,
    identity_map,
    is_path_reachable,
    linear_word_system,
    lts_coalgebra,
    lts_functor,
    single,
    whyplus1_system,
)
from oracles import (
    Run,
    all_functions,
    factorized_runs,
    is_run,
    make_path,
    object_replay_witness,
    path_runs,
    run_image,
    validate_path,
    witness_objects,
)

COMPOSE = pathlib.Path(__file__).parent / "fixtures" / "compose"

TREE_FUNCTOR = functor(Coprod((Prod((SortRef(), SortRef())), Const(("a", "b")))))


class TestReachableBfs:
    def test_linear_word_levels(self):
        c = linear_word_system("ab", "ab")
        levels, union = reachable_bfs(c)
        assert [sorted(e for _s, e in lv) for lv in levels] == [["q0"], ["q1"], ["q2"]]
        assert union == set(c.carrier.pairs())

    def test_whyplus1_levels(self):
        levels, union = reachable_bfs(whyplus1_system())
        assert [sorted(e for _s, e in lv) for lv in levels] == [["x0"], ["y1", "y2"], ["z1", "z2"]]
        assert len(union) == 5

    def test_isolated_state_omitted(self):
        c = lts_coalgebra("a", ["s0", "s1", "iso"], "s0", [("s0", "a", "s1"), ("iso", "a", "iso")])
        _levels, union = reachable_bfs(c)
        assert ("*", "iso") not in union

    def test_levels_stabilize_within_carrier_size(self):
        rng = random.Random(3)
        for seed in range(50):
            c = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 6)}, 0.4, seed))
            levels, union = reachable_bfs(c)
            assert len(levels) <= c.carrier.size() + 1
            cumulative = set()
            for lv in levels:
                cumulative |= lv
            assert cumulative == union


class TestPathReachability:
    def test_whyplus1_with_added_point(self):
        assert is_path_reachable(whyplus1_system())

    def test_whyplus1_without_added_point(self):
        # the notion without the added point, read off literal run
        # enumeration: z1 and z2 are lost
        c = whyplus1_system()
        covered = set().union(*(run_image(r) for _p, r in factorized_runs(c, c.carrier.size(), allow_bot=False)))
        assert covered == {("*", "x0"), ("*", "y1"), ("*", "y2")}

    def test_isolated_state_system(self):
        c = lts_coalgebra("a", ["s0", "iso"], "s0", [])
        assert not is_path_reachable(c)

    def test_matches_literal_run_enumeration(self):
        # literal enumeration is exponential in the level widths, so the
        # tree-functor systems stay at two states
        rng = random.Random(5)
        for seed in range(30):
            tree = seed % 2 == 0
            size = rng.randint(1, 2) if tree else rng.randint(1, 4)
            c = random_coalgebra(
                GenSpec(TREE_FUNCTOR if tree else lts_functor("ab"), {DEFAULT_SORT: size}, 0.3, seed)
            )
            literal = set().union(*(run_image(r) for _p, r in path_runs(c, c.carrier.size())))
            assert reachable_bfs(c)[1] == literal, f"seed {seed}"

    def test_agreement_with_subcoalgebra_reachability(self):
        rng = random.Random(8)
        for seed in range(100):
            c = random_coalgebra(
                GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 6)}, rng.choice([0.1, 0.3, 0.6]), seed)
            )
            assert is_path_reachable(c) == is_reachable_no_proper_sub(c)

    def test_single_pointed_state(self):
        c = lts_coalgebra("a", ["s0"], "s0", [])
        assert is_reachable_no_proper_sub(c)

    def test_unreachable_clique(self):
        c = lts_coalgebra(
            "a", ["s0", "c1", "c2"], "s0", [("c1", "a", "c2"), ("c2", "a", "c1")]
        )
        assert not is_reachable_no_proper_sub(c)


def lax_only_counterexample():
    src = lts_coalgebra("ab", ["s0", "s1"], "s0", [("s0", "a", "s1")])
    dst = lts_coalgebra("ab", ["t0", "t1"], "t0", [("t0", "a", "t1"), ("t1", "a", "t1")])
    fun = SortedFun(src.carrier, dst.carrier, {(DEFAULT_SORT, "s0"): "t0", (DEFAULT_SORT, "s1"): "t1"})
    return CoalgMorphism(src, dst, fun)


class TestIsOpen:
    def test_identity_is_open(self):
        c = whyplus1_system()
        m = CoalgMorphism(c, c, identity_map(c.carrier))
        assert is_open(m, c.carrier.size() + 1).is_open

    def test_strict_hom_is_open(self):
        src = lts_coalgebra("a", ["u0", "u1", "u2"], "u0",
                            [("u0", "a", "u1"), ("u0", "a", "u2"), ("u1", "a", "u1"), ("u2", "a", "u2")])
        dst = lts_coalgebra("a", ["v0", "v1"], "v0", [("v0", "a", "v1"), ("v1", "a", "v1")])
        fun = SortedFun(src.carrier, dst.carrier,
                        {(DEFAULT_SORT, "u0"): "v0", (DEFAULT_SORT, "u1"): "v1", (DEFAULT_SORT, "u2"): "v1"})
        m = CoalgMorphism(src, dst, fun)
        assert is_strict_hom(m)
        assert is_open(m, src.carrier.size() + 1).is_open

    def test_lax_only_map_not_open_with_witness(self):
        m = lax_only_counterexample()
        report = is_open(m, 3)
        assert not report.is_open
        assert report.witness is not None
        assert len(report.witness.steps) == 2  # a path of length 1 and its extension
        assert replay_witness(m, report.witness)

    def test_non_lax_map_reported(self):
        src = lts_coalgebra("a", ["s0", "s1"], "s0", [("s0", "a", "s1")])
        dst = lts_coalgebra("a", ["t0", "t1"], "t0", [])
        fun = SortedFun(src.carrier, dst.carrier, {(DEFAULT_SORT, "s0"): "t0", (DEFAULT_SORT, "s1"): "t1"})
        report = is_open(CoalgMorphism(src, dst, fun), 3)
        assert not report.is_open
        assert report.lax_violation is not None

    def test_witness_names_print_quoted(self):
        # the names hold spaces, so they print as the model files write them
        src = lts_coalgebra("a", ["s 0", "s 1"], "s 0", [])
        dst = lts_coalgebra("a", ["d 0", "d 1"], "d 0", [("d 0", "a", "d 1")])
        fun = SortedFun(src.carrier, dst.carrier, {(DEFAULT_SORT, "s 0"): "d 0", (DEFAULT_SORT, "s 1"): "d 1"})
        report = is_open(CoalgMorphism(src, dst, fun), 3)
        assert report.reason == 'no lift at state "s 0" for shape (a, v001)'
        assert serialize_witness(report.witness) == [
            "square: path length 0, extension length 1",
            '0 : * -> in0((a, w000))  [src "s 0" -> dst "d 0"]',
            '1 : w000 [dst "d 1", no source lift]',
        ]

    @pytest.mark.parametrize("model, extra, state, want", [
        # states p and q in both sorts: the failing state and the target
        # run's states are written sort.name
        ("sharednames.model", "a.p -> (p, p)", "a.p", [
            "square: path length 0, extension length 1",
            "0 : z -> in0((w001, w000))  [src a.p -> dst a.p]",
            "1 : w000 [dst a.p, no source lift]",
            "1 : w001 [dst b.p, no source lift]",
        ]),
        # points named p in both sorts: level 0 writes each point sort.name
        ("sharedpoints.model", "a.as0 -> (bs0, as0)", "as0", [
            "square: path length 0, extension length 1",
            "0 : a.p -> in0((w001, w000))  [src as0 -> dst as0]",
            "0 : b.p -> ⊥  [src bs1 -> dst bs1]",
            "1 : w000 [dst as0, no source lift]",
            "1 : w001 [dst bs0, no source lift]",
        ]),
    ])
    def test_witness_names_shared_by_two_sorts_print_qualified(self, model, extra, state, want):
        text = (COMPOSE / model).read_text(encoding="utf-8")
        src, dst = parse_coalgebra(text), parse_coalgebra(f"{text}{extra}\n")
        fun = SortedFun(src.carrier, dst.carrier, {key: key[1] for key in src.carrier.pairs()})
        report = is_open(CoalgMorphism(src, dst, fun), 5)
        assert report.reason == f"no lift at state {state} for shape (v001, v002)"
        assert serialize_witness(report.witness) == want

    def test_unreachable_defect_is_ignored(self):
        # a missing lift behind an unreachable state does not break openness
        src = lts_coalgebra("a", ["s0", "dead"], "s0", [])
        dst = lts_coalgebra("a", ["t0", "t1"], "t0", [("t1", "a", "t1")])
        fun = SortedFun(src.carrier, dst.carrier, {(DEFAULT_SORT, "s0"): "t0", (DEFAULT_SORT, "dead"): "t1"})
        m = CoalgMorphism(src, dst, fun)
        assert is_lax_hom(m)
        assert is_open(m, 3).is_open


def moved(w, k, i, column, state):
    """``w`` with column ``column`` of element ``i`` of level ``k`` set to
    ``state``: 2 is the source state, 3 the target state."""
    row = list(w.levels[k][i])
    row[column] = state
    level = w.levels[k][:i] + (tuple(row),) + w.levels[k][i + 1:]
    return dataclasses.replace(w, levels=w.levels[:k] + (level,) + w.levels[k + 1:])


def restepped(w, k, i, t):
    """``w`` with the step of element ``i`` of level ``k`` set to ``t``."""
    step = w.steps[k][:i] + (t,) + w.steps[k][i + 1:]
    return dataclasses.replace(w, steps=w.steps[:k] + (step,) + w.steps[k + 1:])


class TestReplayRejects:
    """``replay_witness`` refuses a square that does not commute, one a
    level too long, a side that is no run, a step that is not precise and
    a square with a diagonal."""

    @staticmethod
    def fork():
        # s0 branches to s1 and s2, sent to t1 and t2; t1 and t2 both
        # loop back to t1, so the first failing state is s1 at level 1
        src = lts_coalgebra("a", ["s0", "s1", "s2"], "s0", [("s0", "a", "s1"), ("s0", "a", "s2")])
        dst = lts_coalgebra("a", ["t0", "t1", "t2"], "t0",
                            [("t0", "a", "t1"), ("t0", "a", "t2"), ("t1", "a", "t1"), ("t2", "a", "t1")])
        table = {(DEFAULT_SORT, f"s{i}"): f"t{i}" for i in range(3)}
        m = CoalgMorphism(src, dst, SortedFun(src.carrier, dst.carrier, table))
        w = is_open(m, 4).witness
        assert w is not None and len(w.steps) == 2 and replay_witness(m, w)
        return m, w

    @staticmethod
    def merge():
        # x0 steps to (a, b), both sent to ab; b has no lift of ab's
        # transition, so the square runs one step down to b
        src = product_coalgebra(2, ["x0", "a", "b", "c"], [("x0", ("a", "b")), ("a", ("c", "c"))])
        dst = product_coalgebra(2, ["y0", "ab", "c"], [("y0", ("ab", "ab")), ("ab", ("c", "c"))])
        table = {(DEFAULT_SORT, x): y for x, y in (("x0", "y0"), ("a", "ab"), ("b", "ab"), ("c", "c"))}
        m = CoalgMorphism(src, dst, SortedFun(src.carrier, dst.carrier, table))
        w = is_open(m, 5).witness
        assert w is not None and replay_witness(m, w)
        assert w.levels[1] == ((DEFAULT_SORT, "n000", "a", "ab"), (DEFAULT_SORT, "n001", "b", "ab"))
        assert w.steps[1][0] is None
        return m, w

    def test_square_that_does_not_commute(self):
        m, w = self.fork()
        # t2 steps to t1 as t1 does, so the target run stays a run
        off = moved(w, 1, 0, 3, "t2")
        assert is_run(witness_objects(m, off)[2])
        assert not replay_witness(m, off)

    def test_extension_one_level_too_long(self):
        m, w = self.fork()
        # one more level, empty, under a step of the added point alone
        longer = dataclasses.replace(w, levels=(*w.levels, ()), steps=(*w.steps, (None,) * len(w.levels[-1])))
        assert not replay_witness(m, longer)

    def test_source_run_off_the_point(self):
        m, w = self.fork()
        assert not replay_witness(m, moved(w, 0, 0, 2, "s1"))

    def test_source_run_that_breaks_a_step(self):
        m, w = self.merge()
        # n000 moved from a to b, which ab is the image of too: the square
        # still commutes and the target run stands, but x0 has no step to
        # (b, b), and b, with no transition, has no diagonal
        off = moved(w, 1, 0, 2, "b")
        run, _extension, dst_run = witness_objects(m, off)
        assert is_run(dst_run) and not is_run(run)
        assert not replay_witness(m, off)

    def test_step_that_is_not_precise(self):
        m, w = self.merge()
        # the last step names w000 twice and w001 nowhere; both go to c,
        # so the target run still steps there
        twice = TupleTerm((Var(DEFAULT_SORT, "w000"), Var(DEFAULT_SORT, "w000")))
        assert w.steps[1][1] == TupleTerm((Var(DEFAULT_SORT, "w000"), Var(DEFAULT_SORT, "w001")))
        off = restepped(w, 1, 1, twice)
        assert is_run(witness_objects(m, off)[2])
        assert not replay_witness(m, off)

    def test_step_with_an_entry_too_many(self):
        m, w = self.merge()
        # one entry more than level 1 has elements, the added point
        assert not replay_witness(m, restepped(w, 1, 2, None))

    def test_square_with_a_diagonal(self):
        m, w = self.fork()
        # the missing lift added to the source: s1 now steps to itself
        src = lts_coalgebra("a", ["s0", "s1", "s2"], "s0",
                            [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "a", "s1")])
        lifted = CoalgMorphism(src, m.dst, m.map)
        assert is_run(witness_objects(lifted, w)[0])
        assert not replay_witness(lifted, w)


def corruptions(m: CoalgMorphism, w):
    """Every single-field corruption of a witness's records: each
    element's source or target state moved to every other state of its
    sort, each step of an element replaced by the added point or with its
    leaves' names permuted, and the last step dropped."""
    f = m.src.functor
    for k, level in enumerate(w.levels):
        for i, row in enumerate(level):
            for column, c in ((2, m.src), (3, m.dst)):
                if row[column] is not None:
                    for state in c.carrier.elems(row[0]):
                        if state != row[column]:
                            yield moved(w, k, i, column, state)
    for k, (level, step) in enumerate(zip(w.levels, w.steps)):
        for i, ((s, *_rest), t) in enumerate(zip(level, step)):
            if t is None:
                continue
            yield restepped(w, k, i, None)
            names = [name for _sort, name in _leaf_states(f, s, t)]
            for order in itertools.permutations(names):
                if list(order) != names:
                    yield restepped(w, k, i, _named_image(f, s, t, order))
    yield dataclasses.replace(w, steps=w.steps[:-1])


class TestReplayAgainstObjects:
    """The replay on records against the replay on path and run objects,
    on every witness of harness trials and every single-field corruption
    of each."""

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_every_witness_and_corruption(self, f, monkeypatch):
        squares = []
        real = openmap.is_open

        def spy(m, bound, levels=None):
            report = real(m, bound, levels)
            if report.witness is not None:
                squares.append((m, report.witness))
            return report

        monkeypatch.setattr(openmap, "is_open", spy)
        assert verify_theorems(harness_spec(f), 120).all_passed
        assert len(squares) > 40
        verdicts = Counter()
        for m, w in squares:
            for case in (w, *corruptions(m, w)):
                verdict = replay_witness(m, case)
                assert verdict == object_replay_witness(m, *witness_objects(m, case))
                verdicts[verdict] += 1
        assert verdicts[True] >= len(squares) and verdicts[False]


def naive_is_open(m: CoalgMorphism, bound: int) -> bool:
    """Literal definition: identity-prefix extension squares with full
    run and diagonal enumeration.  Exponential; for cross-checks only."""
    if not m.preserves_pointing() or not is_lax_hom(m):
        return False
    src, dst = m.src, m.dst
    fp1 = src.functor.plus1
    for path, run in path_runs(src, bound - 1):
        for codomain, qn in enumerate_precise_maps(path.levels[-1], fp1):
            ext = make_path(
                src.functor,
                list(path.levels) + [codomain],
                [st.table for st in path.steps] + [qn.table],
            )
            prefix = tuple(
                SortedFun(path.levels[k], dst.carrier,
                          {key: m.map(key[0], c_k(*key)) for key in path.levels[k].pairs()})
                for k, c_k in enumerate(run.components)
            )
            for y_last in all_functions(codomain, dst.carrier):
                y_run = Run(ext, dst, prefix + (y_last,))
                if not is_run(y_run):
                    continue
                lifted = False
                for x_last in all_functions(codomain, src.carrier):
                    if any(
                        m.map(s, x_last(s, e)) != y_last(s, e) for (s, e) in codomain.pairs()
                    ):
                        continue
                    if is_run(Run(ext, src, tuple(run.components) + (x_last,))):
                        lifted = True
                        break
                if not lifted:
                    return False
    return True


class TestNaiveAgreement:
    @pytest.mark.parametrize("f_expr", [lts_functor("ab"), TREE_FUNCTOR])
    def test_small_random_sweep(self, f_expr):
        rng = random.Random(13)
        checked = 0
        for seed in range(30):
            src = random_coalgebra(GenSpec(f_expr, {DEFAULT_SORT: rng.randint(1, 3)}, 0.35, seed))
            _levels, union = reachable_bfs(src)
            src = src.restrict(union)
            dst = random_coalgebra(GenSpec(f_expr, {DEFAULT_SORT: rng.randint(1, 2)}, 0.35, seed + 100))
            keys = list(src.carrier.pairs())
            for _ in range(3):
                table = {k: rng.choice(dst.carrier.elems(k[0])) for k in keys}
                for (s, i) in src.pointing.pairs():
                    table[(s, src.point[(s, i)])] = dst.point[(s, i)]
                m = CoalgMorphism(src, dst, SortedFun(src.carrier, dst.carrier, table))
                bound = src.carrier.size() + 1
                assert is_open(m, bound).is_open == naive_is_open(m, bound), f"seed {seed}"
                checked += 1
        assert checked


def _instantiate(f_expr, sort, shape, phi):
    return subst_node(f_expr.node(sort), shape, {key: Var(key[0], name) for key, name in phi.items()})


def _has_lift(m, sort, v, shape, fresh_vars, phi):
    pools = [[x for x in m.src.carrier.elems(vs) if m.map(vs, x) == phi[(vs, vn)]] for vs, vn in fresh_vars]
    for combo in itertools.product(*pools):
        if _instantiate(m.src.functor, sort, shape, dict(zip(fresh_vars, combo))) in m.src.xi[(sort, v)]:
            return True
    return False


@dataclasses.dataclass
class EnumeratedReport:
    """The enumerating check's verdict, with its reason written as text
    when the verdict is reached, for comparison with the rendered
    ``OpenCheckReport.reason``."""

    verdict: str
    bound: int
    reason: str = ""
    lax_violation: tuple | None = None
    witness: object = None


def enumerating_is_open(m: CoalgMorphism, bound: int) -> EnumeratedReport:
    """Every (reached state, precise shape, instantiation over the whole
    target carrier) triple, in that order, checked for a source lift; the
    first target transition without one gives the witness.  Exponential
    in the shape arity; for cross-checks only."""
    src, dst = m.src, m.dst
    if not m.preserves_pointing():
        return EnumeratedReport("not-open", bound, reason="map does not preserve the pointing")
    for (s, x) in src.carrier.pairs():
        for t in src.xi[(s, x)]:
            if fmap(src.functor, m.map, s, t) not in dst.xi[(s, m.map(s, x))]:
                return EnumeratedReport("not-open", bound, reason="not a lax homomorphism",
                                        lax_violation=((s, x), t))
    levels, _union = reachable_bfs(src)
    f_expr = src.functor
    checked = set()
    for level_index, level in enumerate(levels):
        if level_index >= bound:
            break
        for (s, v) in sorted(level - checked):
            checked.add((s, v))
            for shape in element_shapes(f_expr, s):
                fresh_vars = sorted({(var.sort, var.name) for var, _p in occurrences(f_expr.node(s), shape)})
                pools = [dst.carrier.elems(vs) for vs, _vn in fresh_vars]
                for combo in itertools.product(*pools):
                    phi = dict(zip(fresh_vars, combo))
                    if _instantiate(f_expr, s, shape, phi) not in dst.xi[(s, m.map(s, v))]:
                        continue
                    if not _has_lift(m, s, v, shape, fresh_vars, phi):
                        witness = _materialize_witness(m, levels, level_index, (s, v), shape, phi)
                        reason = f"no lift at state {_state_names(src.carrier)[s, v]} for shape {shape!r}"
                        return EnumeratedReport("not-open", bound, reason=reason, witness=witness)
    return EnumeratedReport("open", bound)


def report_bytes(report: OpenCheckReport | EnumeratedReport):
    witness = serialize_witness(report.witness) if report.witness is not None else None
    return report.verdict, report.reason, report.lax_violation, witness


WITNESS_ORACLE_FUNCTORS = [
    "prod(const(a b), id)",
    "prod(id, id)",
    "analytic{ pair/2 [(1 2)] ; tri/3 [(1 2 3)] ; leaf/0 }",
    "analytic{ s3/3 [(1 2), (1 2 3)] ; leaf/0 }",
    "coprod(const(c), prod(id, id))",
    "compose(prod(id, id), coprod(const(c), id))",
    "compose(analytic{ pair/2 [(1 2)] ; leaf/0 }, prod(const(a b), id))",
]


class TestRunReaching:
    """The padded run of a witness to a reached state, built for every
    state of every BFS level, not only for the states a witness needs."""

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_run_to_every_reached_state(self, f):
        rng = random.Random(repr(f))
        deep = 0
        for seed in range(30):
            sizes = {s: rng.randint(1, 5) for s in f.sorts}
            src = random_coalgebra(GenSpec(f, sizes, rng.choice((0.25, 0.4)), seed))
            m = CoalgMorphism(src, src, identity_map(src.carrier))
            levels, _union = reachable_bfs(src)
            for level_index, level in enumerate(levels):
                for state in sorted(level):
                    # any shape extends the run; its variables go to any state
                    shape = next(iter(element_shapes(f, state[0])))
                    phi = {key: src.carrier.elems(key[0])[0] for key in sorted(set(_leaf_states(f, state[0], shape)))}
                    w = _materialize_witness(m, levels, level_index, state, shape, phi)
                    run = witness_objects(m, w)[0]
                    assert validate_path(run.path) == [] and is_run(run)
                    assert len(w.steps) == level_index + 1
                    # the one element the extension steps from sits at the state
                    assert [(row[0], row[2]) for row, t in zip(w.levels[-2], w.steps[-1]) if t is not None] == [state]
                    deep += level_index > 1
        assert deep  # some runs take more than one step


class TestEnumeratingAgreement:
    """The target-driven check against the shape x instantiation enumeration
    it replaced: same verdict, reason, lax violation and witness bytes."""

    @pytest.mark.parametrize("text", WITNESS_ORACLE_FUNCTORS)
    def test_witness_sweep(self, text):
        f_expr = functor(parse_functor_text(text))
        rng = random.Random(text)
        outcomes = Counter()
        for seed in range(50):
            src = random_coalgebra(GenSpec(f_expr, {DEFAULT_SORT: rng.randint(1, 4)}, 0.3, seed))
            _levels, union = reachable_bfs(src)
            src = src.restrict(union)
            dst = random_coalgebra(GenSpec(f_expr, {DEFAULT_SORT: rng.randint(1, 3)}, 0.4, seed + 1000))
            fold_m = _quotient_map(rng, src, classes=max(1, src.carrier.size() - 1))
            fold, fold_fun = fold_m.dst, fold_m.map
            maps = ((dst, _random_map(rng, src, dst)), (fold, fold_fun), (_add_noise(rng, fold, 2), fold_fun))
            for dst, fun in maps:
                m = CoalgMorphism(src, dst, fun)
                bound = src.carrier.size() + 1
                fast = is_open(m, bound)
                assert report_bytes(fast) == report_bytes(enumerating_is_open(m, bound)), f"seed {seed}"
                outcomes["witness" if fast.witness is not None else fast.verdict] += 1
        assert outcomes["open"] and outcomes["witness"], outcomes


def wide_system(arity: int, n: int, seed: int):
    """An ``arity``-fold product system on s00..: three distinct transitions
    per state, the first leading to the next state, so all are reachable."""
    rng = random.Random(seed)
    trans = []
    for i in range(n):
        out = []
        while len(out) < 3:
            succ = tuple(rng.randrange(n) for _ in range(arity))
            if not out:
                succ = ((i + 1) % n,) + succ[1:]
            if succ not in out:
                out.append(succ)
        trans.append(out)
    return trans


def product_coalgebra(arity: int, names: list[str], trans: list[tuple[str, tuple[str, ...]]]):
    xi = {(DEFAULT_SORT, x): set() for x in names}
    for x, succ in trans:
        xi[(DEFAULT_SORT, x)].add(TupleTerm(tuple(Var(DEFAULT_SORT, y) for y in succ)))
    return PointedCoalgebra(
        functor(Prod((SortRef(),) * arity)), SortedSet.single(["*"]), SortedSet.single(names),
        {(DEFAULT_SORT, "*"): names[0]}, {k: tuple(sorted(v)) for k, v in xi.items()},
    )


def two_copy_fold(arity: int, n: int, seed: int, drop: bool):
    """Copies a/b of every state, each lifting every transition once with a
    random copy per successor; the fold a_i, b_i -> s_i is strict.  With
    ``drop`` the pointed copy loses one transition: still lax, not strict."""
    rng = random.Random(seed)
    base = wide_system(arity, n, seed)
    d_names = [f"s{i:02d}" for i in range(n)]
    dst = product_coalgebra(arity, d_names, [(d_names[i], tuple(d_names[j] for j in succ))
                                             for i, out in enumerate(base) for succ in out])
    copy = {c: [f"{c}{i:02d}" for i in range(n)] for c in "ab"}
    s_trans = [(copy[c][i], tuple(copy[rng.choice("ab")][j] for j in succ))
               for c in "ab" for i, out in enumerate(base) for succ in out]
    if drop:
        del s_trans[rng.randrange(3)]  # one of a00's three transitions
    src = product_coalgebra(arity, copy["a"] + copy["b"], s_trans)
    table = {(DEFAULT_SORT, copy[c][i]): d_names[i] for c in "ab" for i in range(n)}
    return CoalgMorphism(src, dst, SortedFun(src.carrier, dst.carrier, table))


class TestLargeSystems:
    """Sizes the shape x instantiation enumeration could not reach in a test
    run (its cost grew with states^(arity+1))."""

    @pytest.mark.parametrize("arity, n", [(2, 64), (3, 32)])
    def test_identity_is_open(self, arity, n):
        names = [f"s{i:02d}" for i in range(n)]
        c = product_coalgebra(arity, names, [(names[i], tuple(names[j] for j in succ))
                                             for i, out in enumerate(wide_system(arity, n, 7)) for succ in out])
        m = CoalgMorphism(c, c, identity_map(c.carrier))
        assert reachable_bfs(c)[1] == set(c.carrier.pairs())
        assert is_open(m, n + 1).is_open

    def test_two_copy_fold_is_open(self):
        m = two_copy_fold(2, 32, 11, drop=False)
        assert is_strict_hom(m)
        assert is_open(m, m.src.carrier.size() + 1).is_open

    def test_dropped_transition_fold_has_replaying_witness(self):
        m = two_copy_fold(2, 32, 11, drop=True)
        assert is_lax_hom(m) and not is_strict_hom(m)
        bound = m.src.carrier.size() + 1
        report = is_open(m, bound)
        assert not report.is_open
        assert report.witness is not None and len(report.witness.steps) == 1
        assert replay_witness(m, report.witness)
        # the defect sits at the pointed state, so the enumeration stops early
        assert report_bytes(report) == report_bytes(enumerating_is_open(m, bound))


class TestHarness:
    def test_lts_mini_run(self):
        spec = GenSpec(lts_functor("ab"), {DEFAULT_SORT: 5}, 0.3, 42)
        report = verify_theorems(spec, 30)
        assert report.all_passed
        assert len(report.lines()) == 31

    def test_tree_mini_run(self):
        spec = GenSpec(TREE_FUNCTOR, {DEFAULT_SORT: 4}, 0.12, 7)
        report = verify_theorems(spec, 30)
        assert report.all_passed

    def test_report_is_deterministic(self):
        spec = GenSpec(lts_functor("ab"), {DEFAULT_SORT: 4}, 0.3, 5)
        a = verify_theorems(spec, 10).lines()
        b = verify_theorems(spec, 10).lines()
        assert a == b

    def test_trials_must_be_positive(self):
        from coalgpath.sets import CoalgError

        with pytest.raises(CoalgError):
            verify_theorems(GenSpec(lts_functor("a"), {DEFAULT_SORT: 2}, 0.3, 1), 0)


# the binary harness functor at seed 3: nine trials that all pass, four
# of them with a witness square, one two steps long
CLAUSE_SPEC = GenSpec(SYSTEM_FUNCTORS[2], {DEFAULT_SORT: 4}, 0.3, 3)
BOT = chr(0x22A5)


class TestHarnessClauses:
    """Each clause of ``verify_theorems`` fires and prints when the check
    behind it is replaced by a broken one."""

    @staticmethod
    def spy_is_open(monkeypatch, calls, short=False):
        """Record each trial's ``is_open`` call; with ``short``, that call
        stops one BFS level early."""
        real = openmap.is_open

        def spy(m, bound, levels=None):
            calls.append((m, bound))
            return real(m, len(reachable_bfs(m.src)[0]) - 1, levels) if short else real(m, bound, levels)

        monkeypatch.setattr(openmap, "is_open", spy)

    def test_strict_hom_reported_not_open(self, monkeypatch):
        calls = []
        self.spy_is_open(monkeypatch, calls)
        monkeypatch.setattr(openmap, "is_strict_hom", lambda m: True)
        lines = verify_theorems(CLAUSE_SPEC, 9).lines()
        assert lines == [
            "trial 0: PASS",
            "trial 1: FAIL strict hom reported not-open",
            "  square: path length 0, extension length 1",
            "  0 : * -> in0((w000, w001))  [src s0 -> dst c0]",
            "  1 : w000 [dst c0, no source lift]",
            "  1 : w001 [dst c0, no source lift]",
            "trial 2: FAIL strict hom reported not-open",
            "trial 3: PASS",
            "trial 4: FAIL strict hom reported not-open",
            "  square: path length 0, extension length 1",
            "  0 : * -> in0((w000, w001))  [src s1 -> dst c1]",
            "  1 : w000 [dst c0, no source lift]",
            "  1 : w001 [dst c1, no source lift]",
            "trial 5: FAIL strict hom reported not-open",
            "  square: path length 1, extension length 2",
            "  0 : * -> in0((n000, n001))  [src s1 -> dst s0]",
            "  1 : n000 -> in0((w000, w001))  [src s0 -> dst s0]",
            f"  1 : n001 -> {BOT}  [src s0 -> dst s0]",
            "  2 : w000 [dst s0, no source lift]",
            "  2 : w001 [dst s0, no source lift]",
            "trial 6: PASS",
            "trial 7: FAIL strict hom reported not-open",
            "  square: path length 0, extension length 1",
            "  0 : * -> in0((w000, w001))  [src s1 -> dst c3]",
            "  1 : w000 [dst c1, no source lift]",
            "  1 : w001 [dst c3, no source lift]",
            "trial 8: FAIL strict hom reported not-open",
            "FAILURES (9 trials)",
        ]
        # the printed squares were built on first read; the oracle builds
        # each with _materialize_witness as soon as it finds the triple
        eager = [enumerating_is_open(m, bound).witness for m, bound in calls]
        assert [line[2:] for line in lines if line.startswith("  ")] == [
            line for w in eager if w is not None for line in serialize_witness(w)
        ]

    def test_bound_guard(self, monkeypatch):
        self.spy_is_open(monkeypatch, [], short=True)
        assert verify_theorems(CLAUSE_SPEC, 9).lines() == [
            "trial 0: FAIL bound guard: open at 3 after 1 of 2 states",
            "trial 1: FAIL open map on path-reachable source is not strict; bound guard: open at 2 after 0 of 1 states",
            "trial 2: PASS",
            "trial 3: FAIL bound guard: open at 2 after 0 of 1 states",
            "trial 4: PASS",
            "trial 5: FAIL open map on path-reachable source is not strict; bound guard: open at 3 after 1 of 2 states",
            "trial 6: FAIL bound guard: open at 4 after 1 of 3 states",
            "trial 7: PASS",
            "trial 8: PASS",
            "FAILURES (9 trials)",
        ]

    def test_reachability_mismatch(self, monkeypatch):
        # the worklist closure still finds every state, so clause (c)
        # fires whenever a level is lost, and the guard wherever the map
        # is open on what the short walk still reaches
        drop_last_bfs_level(monkeypatch)
        assert verify_theorems(CLAUSE_SPEC, 9).lines() == [
            "trial 0: FAIL reachability mismatch: path=1 sub=2 states; bound guard: open at 3 after 1 of 2 states",
            "trial 1: PASS",
            "trial 2: FAIL reachability mismatch: path=1 sub=4 states",
            "trial 3: PASS",
            "trial 4: FAIL reachability mismatch: path=1 sub=2 states",
            "trial 5: FAIL reachability mismatch: path=1 sub=2 states; open map on path-reachable source is not"
            " strict; bound guard: open at 3 after 1 of 2 states",
            "trial 6: FAIL reachability mismatch: path=1 sub=3 states; bound guard: open at 4 after 1 of 3 states",
            "trial 7: FAIL reachability mismatch: path=1 sub=4 states",
            "trial 8: FAIL reachability mismatch: path=1 sub=4 states",
            "FAILURES (9 trials)",
        ]

    def test_witness_does_not_replay(self, monkeypatch):
        monkeypatch.setattr(openmap, "replay_witness", lambda m, w: False)
        assert verify_theorems(CLAUSE_SPEC, 9).lines() == [
            "trial 0: PASS",
            "trial 1: FAIL witness does not replay",
            "trial 2: PASS",
            "trial 3: PASS",
            "trial 4: FAIL witness does not replay",
            "trial 5: FAIL witness does not replay",
            "trial 6: PASS",
            "trial 7: FAIL witness does not replay",
            "trial 8: PASS",
            "FAILURES (9 trials)",
        ]

    def test_traces_not_preserved(self, monkeypatch):
        # the clause is checked only with check_traces, and only on open maps
        monkeypatch.setattr(openmap, "trace_equiv", lambda c1, c2, bound: False)
        assert verify_theorems(CLAUSE_SPEC, 9).all_passed
        assert verify_theorems(CLAUSE_SPEC, 9, check_traces=True).lines() == [
            "trial 0: FAIL open map does not preserve traces",
            "trial 1: PASS",
            "trial 2: PASS",
            "trial 3: FAIL open map does not preserve traces",
            "trial 4: PASS",
            "trial 5: PASS",
            "trial 6: FAIL open map does not preserve traces",
            "trial 7: PASS",
            "trial 8: PASS",
            "FAILURES (9 trials)",
        ]

    def test_unpatched_run_passes(self):
        assert verify_theorems(CLAUSE_SPEC, 9).lines() == [f"trial {i}: PASS" for i in range(9)] + [
            "all passed (9 trials)"
        ]


def harness_spec(f):
    return GenSpec(f, {s: 4 for s in f.sorts}, 0.3, 11)


class TestHarnessFactsOnce:
    """A quotient trial's morphism is handed the image table its target
    was built from, and a trial builds at most one witness square."""

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_handed_images_match_fresh_fmap(self, f, monkeypatch):
        morphisms = []
        real = openmap.is_strict_hom

        def spy(m):
            morphisms.append((m, "images" in vars(m)))
            return real(m)

        monkeypatch.setattr(openmap, "is_strict_hom", spy)
        assert verify_theorems(harness_spec(f), 30).all_passed
        assert len(morphisms) == 30
        for index, (m, handed) in enumerate(morphisms):
            assert handed == (index % 3 != 2)  # quotient and noisy-quotient trials
            fresh = {
                (s, x): frozenset(fmap(f, m.map, s, t) for t in m.src.xi[(s, x)]) for s, x in m.src.carrier.pairs()
            }
            assert m.images == fresh and list(m.images) == list(fresh)

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_lazy_witness_matches_eager(self, f, monkeypatch):
        # each report against the enumerating check, which builds its
        # witness from the first failing triple of the full enumeration
        calls = []
        real = openmap.is_open

        def spy(m, bound, levels=None):
            report = real(m, bound, levels)
            calls.append((m, bound, report))
            return report

        monkeypatch.setattr(openmap, "is_open", spy)
        assert verify_theorems(harness_spec(f), 30).all_passed
        assert len(calls) == 30  # one open-map check per trial
        squares = 0
        for m, bound, report in calls:
            assert report_bytes(report) == report_bytes(enumerating_is_open(m, bound))
            squares += report.witness is not None
        assert squares

    def test_verify_renders_no_reason(self, monkeypatch):
        # a report writes its reason only when it is read, and the
        # harness reads none; the open verb's reason line is pinned by
        # the compose goldens
        calls, reports = [], []
        real_names, real_open = openmap._state_names, openmap.is_open

        def names(carrier):
            calls.append(carrier)
            return real_names(carrier)

        def spy(m, bound, levels=None):
            reports.append(real_open(m, bound, levels))
            return reports[-1]

        monkeypatch.setattr(openmap, "_state_names", names)
        monkeypatch.setattr(openmap, "is_open", spy)
        for f in HARNESS_FUNCTORS:
            assert verify_theorems(harness_spec(f), 30).all_passed
        failing = [r for r in reports if r.no_lift is not None]
        assert len(reports) == 150 and failing and calls == []
        assert all(r.reason.startswith("no lift at state ") for r in failing)
        assert len(calls) == len(failing)

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_one_square_per_trial(self, f, monkeypatch):
        built = Counter()  # per trial index
        current = []
        real_trial, real_build = openmap._run_trial, openmap._materialize_witness

        def run_trial(spec, index, *rest):
            current.append(index)
            return real_trial(spec, index, *rest)

        def build(*args):
            built[current[-1]] += 1
            return real_build(*args)

        monkeypatch.setattr(openmap, "_run_trial", run_trial)
        monkeypatch.setattr(openmap, "_materialize_witness", build)
        assert verify_theorems(harness_spec(f), 30).all_passed
        # one open-map check per trial, and is_open builds the square of
        # a not-open verdict once
        assert built and set(built.values()) == {1}


class TestDeepWitness:
    def test_witness_two_levels_down_with_branching(self):
        # defect behind a pair-branch: the materialized square must pad
        # the sibling branch with the added point and still replay
        from coalgpath.functors import Prod, SortRef, TupleTerm, Var, functor

        f = functor(Prod((SortRef(), SortRef())))

        def pr(a, b):
            return TupleTerm((Var(DEFAULT_SORT, a), Var(DEFAULT_SORT, b)))

        carrier = ["x0", "y1", "y2", "z1", "z2"]
        from coalgpath.coalgebra import PointedCoalgebra
        from coalgpath.sets import SortedSet

        def system(extra_at_z1):
            xi = {
                (DEFAULT_SORT, "x0"): (pr("y1", "y2"),),
                (DEFAULT_SORT, "y1"): (pr("z1", "z2"),),
                (DEFAULT_SORT, "y2"): (),
                (DEFAULT_SORT, "z1"): (pr("z1", "z1"),) if extra_at_z1 else (),
                (DEFAULT_SORT, "z2"): (),
            }
            return PointedCoalgebra(
                f, SortedSet.single(["*"]), SortedSet.single(carrier),
                {(DEFAULT_SORT, "*"): "x0"}, xi,
            )

        src = system(False)
        dst = system(True)
        m = CoalgMorphism(src, dst, identity_map(src.carrier))
        assert is_lax_hom(m) and not is_strict_hom(m)
        report = is_open(m, src.carrier.size() + 1)
        assert not report.is_open
        assert report.witness is not None
        assert len(report.witness.steps) == 3  # the defect sits at BFS level 2
        assert replay_witness(m, report.witness)
        # the padded sibling branch shows up as an added-point step
        assert sorted(t is None for t in report.witness.steps[1]) == [False, True]
