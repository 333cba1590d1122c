import itertools
import random

import pytest

from coalgpath.coalgebra import CoalgMorphism, GenSpec, PointedCoalgebra, is_lax_hom, is_strict_hom, random_coalgebra
from coalgpath.functors import AnSym, TupleTerm, eval_functor, fmap, functor
from coalgpath.sets import CoalgError, DEFAULT_SORT, SortedFun

from conftest import linear_word_system, lts_coalgebra, lts_functor, pair_sig, single, var, whyplus1_system
from oracles import (
    all_functions,
    decompose_into_units,
    homset_leq,
    lift_choice,
    lts_is_bisimulation,
    lts_is_simulation,
)


def behaviour_maps(f_expr, x_elems, y_elems, limit=None):
    """All maps X -> Pf(F(Y)) as dicts of term tuples."""
    terms = eval_functor(f_expr, single(y_elems))[DEFAULT_SORT]
    keys = [(DEFAULT_SORT, e) for e in x_elems]
    subsets = []
    for r in range(len(terms) + 1):
        subsets.extend(itertools.combinations(terms, r))
    for combo in itertools.product(subsets, repeat=len(keys)):
        yield dict(zip(keys, combo))


class TestHomsetOrder:
    def test_reflexive(self):
        f = {(DEFAULT_SORT, "x"): (var("y"),)}
        assert homset_leq(f, f)

    def test_empty_is_least(self):
        g = {(DEFAULT_SORT, "x"): (var("y"),)}
        bottom = {(DEFAULT_SORT, "x"): ()}
        assert homset_leq(bottom, g)
        assert not homset_leq(g, bottom)

    def test_strict_superset_fails(self):
        f = {(DEFAULT_SORT, "x"): (var("y"), var("z"))}
        g = {(DEFAULT_SORT, "x"): (var("y"),)}
        assert not homset_leq(f, g)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(CoalgError):
            homset_leq({(DEFAULT_SORT, "x"): ()}, {(DEFAULT_SORT, "z"): ()})

    def test_order_functoriality(self):
        # f <= g implies post-composition with the functor action and
        # pre-composition with any map preserve the order (checked on
        # every pair over a two-element carrier)
        f_expr = lts_functor("a")
        x = single(["x0", "x1"])
        y = single(["y0", "y1"])
        w = single(["w0", "w1"])
        pairs = list(behaviour_maps(f_expr, ["x0", "x1"], ["y0", "y1"]))
        h_maps = list(all_functions(y, w))
        e_maps = list(all_functions(w, x))
        rng = random.Random(0)
        sample = rng.sample([(f, g) for f in pairs for g in pairs], 200)
        for f, g in sample:
            if not homset_leq(f, g):
                continue
            for h in h_maps[:2]:
                post_f = {k: tuple(sorted({fmap(f_expr, h, k[0], t) for t in f[k]})) for k in f}
                post_g = {k: tuple(sorted({fmap(f_expr, h, k[0], t) for t in g[k]})) for k in g}
                assert homset_leq(post_f, post_g)
            for e in e_maps[:2]:
                pre_f = {(s, w_): f[(s, e(s, w_))] for (s, w_) in w.pairs()}
                pre_g = {(s, w_): g[(s, e(s, w_))] for (s, w_) in w.pairs()}
                assert homset_leq(pre_f, pre_g)


class TestAxioms:
    def test_ax2_jointly_epic_reflection(self):
        # if every element is hit by some e_i and f.e_i <= g.e_i then f <= g
        f_expr = lts_functor("a")
        y = single(["y0", "y1"])
        rng = random.Random(1)
        maps = list(behaviour_maps(f_expr, ["y0", "y1"], ["y0", "y1"]))
        for _ in range(100):
            f = rng.choice(maps)
            g = rng.choice(maps)
            covers = [single(["y0"]), single(["y1"])]
            restricted_ok = all(
                homset_leq({(DEFAULT_SORT, e): f[(DEFAULT_SORT, e)] for _s, e in part.pairs()},
                           {(DEFAULT_SORT, e): g[(DEFAULT_SORT, e)] for _s, e in part.pairs()})
                for part in covers
            )
            assert restricted_ok == homset_leq(f, g)

    def test_ax3_unit_and_bottom_natural(self):
        # eta (singleton) is natural; the empty set is least and its
        # direct image under any renaming stays empty
        f_expr = lts_functor("ab")
        x = single(["x0", "x1"])
        y = single(["y0"])
        for fun in all_functions(x, y):
            for t in eval_functor(f_expr, x)[DEFAULT_SORT]:
                eta_then = {fmap(f_expr, fun, DEFAULT_SORT, u) for u in {t}}
                then_eta = {fmap(f_expr, fun, DEFAULT_SORT, t)}
                assert eta_then == then_eta
            bottom = {(DEFAULT_SORT, e): () for e in x.elems(DEFAULT_SORT)}
            pushed = {k: tuple(fmap(f_expr, fun, k[0], t) for t in v) for k, v in bottom.items()}
            assert pushed == bottom

    def test_ax4_unit_decomposition_recovers_join(self):
        f_expr = lts_functor("a")
        for f in behaviour_maps(f_expr, ["x0", "x1"], ["y0"]):
            if any(len(v) > 2 for v in f.values()):
                continue
            units = list(decompose_into_units(f))
            # pointwise union over the whole stream gives f back
            rebuilt = {k: set() for k in f}
            for unit in units:
                for k, t in unit.items():
                    if t is not None:
                        rebuilt[k].add(t)
            assert {k: frozenset(v) for k, v in rebuilt.items()} == {k: frozenset(v) for k, v in f.items()}
            expected = 1
            for k in f:
                expected *= len(f[k]) + 1
            assert len(units) == expected

    def test_ax5_choice_exhaustive(self):
        f_expr = lts_functor("a")
        x = single(["x0", "x1"])
        y = single(["y0"])
        for h in all_functions(x, y):
            for x_map in behaviour_maps(f_expr, ["a0", "a1"], ["x0", "x1"]):
                images = {
                    k: tuple(sorted({fmap(f_expr, h, k[0], t) for t in x_map[k]})) for k in x_map
                }
                y_choices = [(None,) + images[k] for k in sorted(images)]
                for combo in itertools.product(*y_choices):
                    y_map = dict(zip(sorted(images), combo))
                    lifted = lift_choice(x_map, y_map, h, f_expr)
                    for k in x_map:
                        if y_map[k] is None:
                            assert lifted[k] is None
                        else:
                            assert lifted[k] in x_map[k]
                            assert fmap(f_expr, h, k[0], lifted[k]) == y_map[k]

    def test_ax5_identity_returns_target(self):
        f_expr = lts_functor("a")
        x = single(["x0"])
        h = SortedFun.identity(x)
        t = TupleTerm((_const("a"), var("x0")))
        x_map = {(DEFAULT_SORT, "a0"): (t,)}
        y_map = {(DEFAULT_SORT, "a0"): t}
        assert lift_choice(x_map, y_map, h, f_expr)[(DEFAULT_SORT, "a0")] == t

    def test_ax5_tie_break_least(self):
        f_expr = lts_functor("a")
        x = single(["x1", "x2"])
        y = single(["z"])
        h = SortedFun(x, y, {(DEFAULT_SORT, "x1"): "z", (DEFAULT_SORT, "x2"): "z"})
        t1 = TupleTerm((_const("a"), var("x1")))
        t2 = TupleTerm((_const("a"), var("x2")))
        tz = TupleTerm((_const("a"), var("z")))
        x_map = {(DEFAULT_SORT, "a0"): (t1, t2)}
        y_map = {(DEFAULT_SORT, "a0"): tz}
        assert lift_choice(x_map, y_map, h, f_expr)[(DEFAULT_SORT, "a0")] == t1

    def test_ax5_all_bottom(self):
        f_expr = lts_functor("a")
        x = single(["x0"])
        h = SortedFun.identity(x)
        x_map = {(DEFAULT_SORT, "a0"): ()}
        assert lift_choice(x_map, {(DEFAULT_SORT, "a0"): None}, h, f_expr) == {(DEFAULT_SORT, "a0"): None}

    def test_ax5_precondition_violation_reports_element(self):
        f_expr = lts_functor("a")
        x = single(["x0"])
        h = SortedFun.identity(x)
        t = TupleTerm((_const("a"), var("x0")))
        with pytest.raises(CoalgError, match="a0"):
            lift_choice({(DEFAULT_SORT, "a0"): ()}, {(DEFAULT_SORT, "a0"): t}, h, f_expr)


def _const(name):
    from coalgpath.functors import ConstElem

    return ConstElem(name)


class TestHomomorphisms:
    def test_identity_is_strict(self):
        c = linear_word_system("ab", "ab")
        m = CoalgMorphism(c, c, SortedFun.identity(c.carrier))
        assert is_strict_hom(m)
        assert is_lax_hom(m)

    def test_strict_implies_lax(self):
        rng = random.Random(7)
        for seed in range(30):
            src = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: 4}, 0.4, seed))
            dst = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: 3}, 0.4, seed + 1000))
            for fun in _pointing_preserving_maps(src, dst, rng, 5):
                m = CoalgMorphism(src, dst, fun)
                if is_strict_hom(m):
                    assert is_lax_hom(m)

    def test_collapse_of_branching_system_is_lax_not_strict(self):
        sys5 = whyplus1_system()
        one = PointedCoalgebra(
            sys5.functor,
            sys5.pointing,
            single(["s"]),
            {(DEFAULT_SORT, "*"): "s"},
            {(DEFAULT_SORT, "s"): (TupleTerm((var("s"), var("s"))),)},
        )
        collapse = SortedFun(sys5.carrier, one.carrier, {k: "s" for k in sys5.carrier.pairs()})
        m = CoalgMorphism(sys5, one, collapse)
        assert is_lax_hom(m)
        assert not is_strict_hom(m)

    def test_strict_iff_functional_bisimulation(self):
        # relation-based oracle on systems of up to 5 states
        rng = random.Random(11)
        checked_strict = 0
        for seed in range(60):
            src = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 5)}, 0.35, seed))
            dst = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 4)}, 0.35, seed + 500))
            for fun in _pointing_preserving_maps(src, dst, rng, 4):
                m = CoalgMorphism(src, dst, fun)
                graph = {(x, fun(DEFAULT_SORT, x)) for _s, x in src.carrier.pairs()}
                assert is_lax_hom(m) == lts_is_simulation(graph, src, dst)
                assert is_strict_hom(m) == _graph_is_functional_bisim(graph, src, dst, fun)
                checked_strict += is_strict_hom(m)
        assert checked_strict  # the sweep saw at least one strict hom

    def test_lax_iff_functional_simulation_example(self):
        src = lts_coalgebra("ab", ["s0", "s1"], "s0", [("s0", "a", "s1")])
        dst = lts_coalgebra("ab", ["t0", "t1"], "t0", [("t0", "a", "t1"), ("t1", "b", "t0")])
        fun = SortedFun(src.carrier, dst.carrier, {(DEFAULT_SORT, "s0"): "t0", (DEFAULT_SORT, "s1"): "t1"})
        m = CoalgMorphism(src, dst, fun)
        assert is_lax_hom(m)
        assert not is_strict_hom(m)

    def test_map_to_dead_state_is_not_lax(self):
        src = lts_coalgebra("a", ["s0", "s1"], "s0", [("s0", "a", "s1")])
        dst = lts_coalgebra("a", ["t0", "t1"], "t0", [])
        fun = SortedFun(src.carrier, dst.carrier, {(DEFAULT_SORT, "s0"): "t0", (DEFAULT_SORT, "s1"): "t1"})
        assert not is_lax_hom(CoalgMorphism(src, dst, fun))


def _graph_is_functional_bisim(graph, src, dst, fun):
    init_pair = (
        src.point[(DEFAULT_SORT, "*")],
        dst.point[(DEFAULT_SORT, "*")],
    )
    if (init_pair[0], init_pair[1]) not in graph:
        return False
    return lts_is_bisimulation(graph, src, dst)


def _pointing_preserving_maps(src, dst, rng, count):
    keys = list(src.carrier.pairs())
    for _ in range(count):
        table = {k: rng.choice(dst.carrier.elems(k[0])) for k in keys}
        for (s, i) in src.pointing.pairs():
            table[(s, src.point[(s, i)])] = dst.point[(s, i)]
        yield SortedFun(src.carrier, dst.carrier, table)


class TestBisimulationRelations:
    def test_identity_relation(self):
        c = linear_word_system("ab", "ab")
        r = {(x, x) for _s, x in c.carrier.pairs()}
        assert lts_is_bisimulation(r, c, c)

    def test_empty_relation_fails_pointing(self):
        c = linear_word_system("ab", "a")
        assert not lts_is_bisimulation(set(), c, c)

    def test_simulation_without_bisimulation(self):
        c1 = lts_coalgebra("ab", ["s0", "s1"], "s0", [("s0", "a", "s1")])
        c2 = lts_coalgebra("ab", ["t0", "t1"], "t0", [("t0", "a", "t1"), ("t0", "b", "t0")])
        r = {("s0", "t0"), ("s1", "t1")}
        assert lts_is_simulation(r, c1, c2)
        assert not lts_is_bisimulation(r, c1, c2)


class TestConstructorTermCheck:
    def test_non_canonical_analytic_term_rejected(self):
        # pair is symmetric, so (x, y) is the orbit's representative
        f = functor(pair_sig())
        with pytest.raises(CoalgError) as refused:
            PointedCoalgebra(
                f, single(["*"]), single(["x", "y"]), {(DEFAULT_SORT, "*"): "x"},
                {(DEFAULT_SORT, "x"): (AnSym("pair", (var("y"), var("x"))),), (DEFAULT_SORT, "y"): ()},
            )
        assert str(refused.value) == "xi(x) contains ill-formed term pair(y, x)"


class TestRestrict:
    def test_subset_that_is_not_closed_rejected(self):
        c = linear_word_system("ab", "ab")
        with pytest.raises(CoalgError):
            c.restrict({(DEFAULT_SORT, "q0"), (DEFAULT_SORT, "q1")})

    def test_missing_successor_rejected_with_the_constructors_message(self):
        checked = 0
        for seed in range(40):
            c = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: 5}, 0.3, seed))
            pointed = c.point_image()
            union = c.bfs[1]
            dropped = sorted(union - pointed)
            if not dropped:
                continue
            keep = union - {dropped[0]}
            # the public constructor walks every term of the subsystem
            with pytest.raises(CoalgError) as walked:
                PointedCoalgebra(
                    c.functor, c.pointing, c.carrier.restrict(keep), dict(c.point),
                    {key: terms for key, terms in c.xi.items() if key in keep},
                )
            assert "contains ill-formed term" in str(walked.value)
            with pytest.raises(CoalgError) as restricted:
                c.restrict(keep)
            assert str(restricted.value) == str(walked.value)
            assert c.restrict(union).carrier.size() == len(union)
            checked += 1
        assert checked > 10


class TestRandomGeneration:
    def test_same_seed_same_system(self):
        spec = GenSpec(lts_functor("ab"), {DEFAULT_SORT: 4}, 0.5, 99)
        assert random_coalgebra(spec).xi == random_coalgebra(spec).xi

    def test_density_zero_gives_no_transitions(self):
        spec = GenSpec(lts_functor("ab"), {DEFAULT_SORT: 4}, 0.0, 5)
        c = random_coalgebra(spec)
        assert all(v == () for v in c.xi.values())

    def test_density_one_gives_everything(self):
        spec = GenSpec(lts_functor("ab"), {DEFAULT_SORT: 3}, 1.0, 5)
        c = random_coalgebra(spec)
        full = eval_functor(c.functor, c.carrier)[DEFAULT_SORT]
        assert all(v == full for v in c.xi.values())

    def test_empty_carrier_for_pointed_sort_rejected(self):
        with pytest.raises(CoalgError):
            random_coalgebra(GenSpec(lts_functor("a"), {DEFAULT_SORT: 0}, 0.5, 1))
