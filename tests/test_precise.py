import itertools
import pathlib
from collections import Counter

import pytest

from coalgpath import precise
from coalgpath.functors import (
    Const,
    Inj,
    Pf,
    Prod,
    SetOf,
    SortRef,
    TupleTerm,
    bot_of_plus1,
    eval_functor,
    fmap,
    functor,
    plus1_node,
    step_of_plus1,
)
from coalgpath.lasota import lasota_functor, lasota_pointing
from coalgpath.modelio import parse_coalgebra, parse_functor_text
from coalgpath.precise import (
    TermMap,
    element_labels,
    element_shapes,
    enumerate_precise_maps,
    is_precise,
    occurrence_counts,
    precise_chains,
    precise_factorize,
)
from coalgpath.sets import DEFAULT_SORT, SortedFun, SortedSet

from conftest import (
    BAG2_PLUS1,
    CONST_PLUS1,
    FIG2,
    LTS_AB_PLUS1,
    MULTISORTED,
    all_term_maps,
    poset_category,
    single,
    term_map,
    var,
)
from oracles import (
    bag_abstraction,
    factorization_commutes,
    fresh_precise_maps,
    frontier_chains,
    is_bijective,
    is_precise_oracle,
)

COMPOSE = pathlib.Path(__file__).parent / "fixtures" / "compose"


def fig2_map() -> TermMap:
    def pr(a, b):
        return step_of_plus1(TupleTerm((var(a), var(b))))

    return term_map(
        FIG2,
        ["x1", "x2", "x3", "x4"],
        ["y1", "y2", "y3", "y4"],
        {"x1": bot_of_plus1(), "x2": pr("y1", "y2"), "x3": pr("y2", "y2"), "x4": bot_of_plus1()},
    )


class TestIsPrecise:
    def test_fig2_map_is_not_precise(self):
        assert not is_precise(fig2_map())

    def test_fig2_factorized_map_is_precise(self):
        def pr(a, b):
            return step_of_plus1(TupleTerm((var(a), var(b))))

        fp = term_map(
            FIG2,
            ["x1", "x2", "x3", "x4"],
            ["w1", "w2", "w3", "w4"],
            {"x1": bot_of_plus1(), "x2": pr("w1", "w2"), "x3": pr("w3", "w4"), "x4": bot_of_plus1()},
        )
        assert is_precise(fp)

    def test_added_point_against_nonempty_codomain(self):
        f = term_map(LTS_AB_PLUS1, ["*"], ["y"], {"*": bot_of_plus1()})
        assert not is_precise(f)

    def test_added_point_against_empty_codomain(self):
        f = term_map(LTS_AB_PLUS1, ["*"], [], {"*": bot_of_plus1()})
        assert is_precise(f)


class TestOracleAgreement:
    @pytest.mark.parametrize("f_expr", [LTS_AB_PLUS1, FIG2, BAG2_PLUS1, CONST_PLUS1])
    def test_battery_small_sizes(self, f_expr):
        # |X|, |Y| <= 2 here keeps this module fast; the full <= 3 sweep
        # is the acceptance criterion
        for nx, ny in itertools.product(range(3), range(3)):
            xs = [f"x{i}" for i in range(nx)]
            ys = [f"y{i}" for i in range(ny)]
            bound = max(nx, ny) + 1
            for f in all_term_maps(f_expr, xs, ys):
                assert is_precise(f) == is_precise_oracle(f, bound), f"{f!r}"


class TestPowersetNegative:
    def test_nonempty_image_is_never_precise(self):
        pf = functor(Pf(SortRef()))
        for nx, ny in itertools.product(range(1, 3), range(1, 3)):
            xs = [f"x{i}" for i in range(nx)]
            ys = [f"y{i}" for i in range(ny)]
            for f in all_term_maps(pf, xs, ys):
                if any(len(t.args) for t in f.table.values()):
                    assert not is_precise_oracle(f, max(2 * ny, nx))

    def test_constantly_empty_is_precise_on_empty_codomain(self):
        pf = functor(Pf(SortRef()))
        f = term_map(pf, ["x"], [], {"x": SetOf([])})
        assert is_precise_oracle(f, 2)

    def test_vacuous_constant_case(self):
        const = functor(Const(("c",)))
        from coalgpath.functors import ConstElem

        f = term_map(const, ["x"], [], {"x": ConstElem("c")})
        assert is_precise_oracle(f, 2)
        assert is_precise(f)


class TestFactorization:
    def test_fig2_shape(self):
        f = fig2_map()
        fac = precise_factorize(f)
        assert fac.precise.cod.size() == 4
        assert is_precise(fac.precise)
        assert factorization_commutes(f, fac)
        # connecting map hits y1 once and y2 three times; y3, y4 are dropped
        images = sorted(fac.connect.table.values())
        assert images == ["y1", "y2", "y2", "y2"]

    def test_already_precise_gives_bijection_onto_used(self):
        def pr(a, b):
            return step_of_plus1(TupleTerm((var(a), var(b))))

        f = term_map(FIG2, ["x1", "x2"], ["y1", "y2", "y3", "y4"],
                     {"x1": pr("y1", "y2"), "x2": pr("y3", "y4")})
        assert is_precise(f)
        fac = precise_factorize(f)
        assert is_bijective(fac.connect)

    def test_constant_functor_factorizes_through_empty(self):
        from coalgpath.functors import ConstElem

        const = functor(Const(("c",)))
        f = term_map(const, ["x1", "x2"], ["y1"], {"x1": ConstElem("c"), "x2": ConstElem("c")})
        fac = precise_factorize(f)
        assert fac.precise.cod.size() == 0
        assert fac.connect.table == {}

    def test_soundness_sweep(self):
        for f_expr in (FIG2, BAG2_PLUS1, LTS_AB_PLUS1):
            for f in all_term_maps(f_expr, ["x0", "x1"], ["y0", "y1"]):
                fac = precise_factorize(f)
                assert is_precise(fac.precise)
                assert factorization_commutes(f, fac)

    def test_essential_uniqueness(self):
        # any two precise factorizations of the same map are related by a
        # bijection commuting with the connecting maps
        for f in all_term_maps(FIG2, ["x0", "x1"], ["y0", "y1"]):
            fac = precise_factorize(f)
            again = precise_factorize(f)
            iso_found = _factorizations_isomorphic(f, fac, again)
            assert iso_found

    @pytest.mark.parametrize("elems, want", [
        ({"a": ["p", "q"], "b": ["r"]}, ["p", "q", "r"]),
        ({"a": ["p", "q"], "b": ["p"]}, ["a.p", "q", "b.p"]),
        # "a.p" beside p in sort a: its text before the dot is a sort, so
        # it is qualified too, and the labels stay apart
        ({"a": ["a.p", "p"], "b": ["p"]}, ["a.a.p", "a.p", "b.p"]),
        # a name whose text before its first dot is a sort would read as
        # an element of that sort; without the dot, or before a dot that
        # follows no sort, it reads as itself
        ({"a": ["b.q"], "b": ["q"]}, ["a.b.q", "q"]),
        ({"a": ["a", "c.q"], "b": ["b"]}, ["a", "c.q", "b"]),
    ])
    def test_element_labels_are_distinct(self, elems, want):
        assert element_labels(SortedSet.make(elems, ("a", "b"))) == want

    def test_meeting_labels_qualify_every_element(self):
        # a sort name holding a dot: p of sort a.b is labelled a.b.p, as
        # the element a.b.p of sort c is, whose text before its first dot
        # is no sort; so every element is labelled sort.name
        x = SortedSet.make({"a.b": ["p"], "c": ["p", "a.b.p"]}, ("a.b", "c"))
        assert element_labels(x) == ["a.b.p", "c.a.b.p", "c.p"]

    def test_unused_elements_absent(self):
        def pr(a, b):
            return step_of_plus1(TupleTerm((var(a), var(b))))

        f = term_map(FIG2, ["x1"], ["y1", "y2"], {"x1": pr("y1", "y1")})
        fac = precise_factorize(f)
        assert set(fac.connect.table.values()) == {"y1"}


def _factorizations_isomorphic(f, fac1, fac2) -> bool:
    e1 = fac1.precise.cod.elems(DEFAULT_SORT)
    e2 = fac2.precise.cod.elems(DEFAULT_SORT)
    if len(e1) != len(e2):
        return False
    for image in itertools.permutations(e2):
        bij = SortedFun(fac1.precise.cod, fac2.precise.cod, {(DEFAULT_SORT, a): b for a, b in zip(e1, image)})
        if any(fac1.connect(DEFAULT_SORT, a) != fac2.connect(DEFAULT_SORT, bij(DEFAULT_SORT, a)) for a in e1):
            continue
        if all(
            fmap(f.functor, bij, s, fac1.precise(s, x)) == fac2.precise(s, x)
            for (s, x) in f.dom.pairs()
        ):
            return True
    return False


class TestBagAbstraction:
    def test_multiset_of_occurrences(self):
        from coalgpath.functors import ansym
        from conftest import symmetric_group

        f_expr = functor(plus1_node(_bare_pair()))
        t = ansym(symmetric_group(2), "pair", (var("x"), var("y")))
        bag_f = functor(_bare_pair())
        counts = bag_abstraction(bag_f, DEFAULT_SORT, t)
        assert counts == {(DEFAULT_SORT, "x"): 1, (DEFAULT_SORT, "y"): 1}
        t2 = ansym(symmetric_group(2), "pair", (var("x"), var("x")))
        assert bag_abstraction(bag_f, DEFAULT_SORT, t2) == {(DEFAULT_SORT, "x"): 2}

    def test_naturality(self):
        from collections import Counter

        bag_f = functor(_bare_pair())
        x = single(["x", "y"])
        y = single(["z"])
        fun = SortedFun(x, y, {(DEFAULT_SORT, "x"): "z", (DEFAULT_SORT, "y"): "z"})
        for t in eval_functor(bag_f, x)[DEFAULT_SORT]:
            direct = bag_abstraction(bag_f, DEFAULT_SORT, fmap(bag_f, fun, DEFAULT_SORT, t))
            push = Counter()
            for (s, e), n in bag_abstraction(bag_f, DEFAULT_SORT, t).items():
                push[(s, fun(s, e))] += n
            assert direct == push

    def test_bag_criterion_matches_is_precise(self):
        bag_f = functor(_bare_pair())
        for nx, ny in itertools.product(range(3), range(1, 3)):
            xs = [f"x{i}" for i in range(nx)]
            ys = [f"y{i}" for i in range(ny)]
            for f in all_term_maps(bag_f, xs, ys):
                total = occurrence_counts(f)
                criterion = all(total.get((DEFAULT_SORT, y), 0) == 1 for y in ys)
                assert criterion == is_precise(f)


def _bare_pair():
    from conftest import pair_sig

    return pair_sig()


class TestEnumeratePreciseMaps:
    def test_two_shapes_for_unary_plus_one(self):
        f_expr = functor(plus1_node(Prod((Const(("a",)), SortRef()))))
        maps = list(enumerate_precise_maps(single(["*"]), f_expr))
        rendered = sorted(repr(m.table[(DEFAULT_SORT, "*")]) for _c, m in maps)
        assert rendered == ["in0((a, v001))", f"in1({chr(0x22a5)})"]

    def test_fig3_layer_shapes(self):
        from coalgpath.functors import Analytic, Symbol
        from coalgpath.groups import PermGroup

        sig = Analytic(
            (
                Symbol("b", (SortRef(), SortRef()), PermGroup(2)),
                Symbol("c", (), PermGroup(0)),
                Symbol("u", (SortRef(),), PermGroup(1)),
            )
        )
        f_expr = functor(plus1_node(sig))
        shapes = element_shapes(f_expr, DEFAULT_SORT)
        assert sorted(repr(s) for s in shapes) == [
            "in0(b(v001, v002))",
            "in0(c)",
            "in0(u(v001))",
            f"in1({chr(0x22a5)})",
        ]

    def test_shapes_are_shared_and_immutable(self):
        # memoized per (functor, sort): an equal functor built anew hits the
        # same entry, and the entry is a tuple no caller can change
        first = element_shapes(functor(plus1_node(Prod((SortRef(), SortRef())))), DEFAULT_SORT)
        again = element_shapes(functor(plus1_node(Prod((SortRef(), SortRef())))), DEFAULT_SORT)
        assert again is first
        assert isinstance(first, tuple)

    def test_constant_shapes_have_empty_codomain(self):
        maps = list(enumerate_precise_maps(single(["*"]), CONST_PLUS1))
        assert len(maps) == 2
        assert all(cod.size() == 0 for cod, _m in maps)

    def test_all_enumerated_maps_are_precise_and_distinct(self):
        p = single(["p", "q"])
        seen = set()
        for cod, m in enumerate_precise_maps(p, LTS_AB_PLUS1):
            assert is_precise(m)
            key = tuple(sorted(m.table.items()))
            assert key not in seen
            seen.add(key)
        # per element: (a, v), (b, v) or bottom -> 3 shapes, independent choices
        assert len(seen) == 9


# the trace-enum benchmark's pair/leaf tree functor, +1 as the paths verb uses it
PAIR_LEAF_PLUS1 = functor(plus1_node(parse_functor_text("analytic{ pair/2 [(1 2)] ; leaf/0 }")))


class TestPreciseChains:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("f_expr", [PAIR_LEAF_PLUS1, LTS_AB_PLUS1], ids=["pair-leaf", "lts"])
    def test_matches_frontier_oracle(self, f_expr, depth):
        start = single(["*"])
        assert list(precise_chains(f_expr, start, depth)) == frontier_chains(f_expr, start, depth)

    def test_matches_frontier_oracle_on_lasota_chain(self):
        cat = poset_category(5)
        f, start = lasota_functor(cat), lasota_pointing(cat)
        assert list(precise_chains(f, start, 3)) == frontier_chains(f, start, 3)

    def test_one_enumeration_per_distinct_level(self, monkeypatch):
        calls: Counter = Counter()
        original = precise.enumerate_precise_maps

        def counting(p, f_expr):
            calls[p] += 1
            return original(p, f_expr)

        monkeypatch.setattr(precise, "enumerate_precise_maps", counting)
        start = single(["*"])
        chains = list(precise_chains(PAIR_LEAF_PLUS1, start, 3))
        extended = [chain[-1].cod if chain else start for chain in chains if len(chain) < 3]
        assert len(set(extended)) < len(extended)  # levels repeat
        assert calls == Counter(set(extended))


def _levels(sorts, sizes, at=None):
    """Levels of the given sizes over ``sorts``, their elements spread
    over the sorts ``at`` (default all) in turn and named as precise maps
    name their codomains."""
    at = at or sorts
    out = []
    for size in sizes:
        per_sort = {s: [] for s in sorts}
        for i in range(size):
            per_sort[at[i % len(at)]].append(f"v{i + 1:03d}")
        out.append(SortedSet.make(per_sort, sorts))
    return out


CHAIN5 = poset_category(5)
MEMO_CASES = [
    (PAIR_LEAF_PLUS1, _levels(PAIR_LEAF_PLUS1.sorts, range(5))),
    (LTS_AB_PLUS1, _levels(LTS_AB_PLUS1.sorts, range(5))),
    (BAG2_PLUS1, _levels(BAG2_PLUS1.sorts, range(5))),
    (MULTISORTED.plus1, _levels(MULTISORTED.sorts, range(5))),
    # the 5-chain's sorts are its objects: levels of 0-4 elements at each
    # object, and the pointing
    (lasota_functor(CHAIN5), [
        *(level for s in CHAIN5.objects for level in _levels(CHAIN5.objects, range(5), (s,))),
        lasota_pointing(CHAIN5),
    ]),
]


class TestRenumberMemo:
    """``enumerate_precise_maps`` renumbers each (sort, shape, offset) once
    per call; ``oracles.fresh_precise_maps`` renumbers per combination."""

    @pytest.mark.parametrize("f_expr, levels", MEMO_CASES, ids=["pair-leaf", "lts", "bag2", "two-sorted", "lasota-chain"])
    def test_same_maps_in_the_same_order(self, f_expr, levels):
        for level in levels:
            memoized = [(cod, list(m.table.items())) for cod, m in enumerate_precise_maps(level, f_expr)]
            fresh = [(cod, list(m.table.items())) for cod, m in fresh_precise_maps(level, f_expr)]
            assert memoized == fresh
            assert memoized

    def test_one_renumbering_per_sort_shape_and_offset(self, monkeypatch):
        model = (COMPOSE / "trace_enum_tree.model").read_text(encoding="utf-8")
        fp1 = parse_coalgebra(model).functor.plus1
        element_shapes(fp1, DEFAULT_SORT)  # shapes are cached per functor: fill it first
        per_call: list[list] = []
        enumerate_maps, renumber = precise.enumerate_precise_maps, precise._renumber

        def enumerating(p, f_expr):
            per_call.append([])
            return enumerate_maps(p, f_expr)

        def renumbering(node, term, start):
            per_call[-1].append((node, term, start))
            return renumber(node, term, start)

        monkeypatch.setattr(precise, "enumerate_precise_maps", enumerating)
        monkeypatch.setattr(precise, "_renumber", renumbering)
        chains = list(precise_chains(fp1, single(["*"]), 3))
        assert len(chains) == 138 and len(per_call) == 4
        # each call renumbers each (shape, offset) once: 21 in all, not 345
        assert all(len(calls) == len(set(calls)) for calls in per_call)
        assert sum(map(len, per_call)) == 21


class TestEnumerationCompleteness:
    """The shape enumerator yields exactly one representative per
    renaming class of precise maps (cross-checked by brute force)."""

    @pytest.mark.parametrize("f_expr,dom,max_y", [
        (LTS_AB_PLUS1, ["p", "q"], 2),
        (BAG2_PLUS1, ["p"], 2),
        (FIG2, ["p"], 2),
        (CONST_PLUS1, ["p", "q"], 1),
    ])
    def test_against_brute_force(self, f_expr, dom, max_y):
        def canonical_key(f):
            rename = {}
            table = {}
            for key in sorted(f.table):
                term = f.table[key]
                node = f_expr.node(key[0])
                for v, _p in occurrence_list(node, term):
                    if (v.sort, v.name) not in rename:
                        rename[(v.sort, v.name)] = var_named(v.sort, len(rename))
                table[key] = rename_term(node, term, rename)
            return tuple(sorted(table.items()))

        brute = set()
        for ny in range(max_y + 1):
            ys = [f"y{i}" for i in range(ny)]
            for f in all_term_maps(f_expr, dom, ys):
                if is_precise(f):
                    brute.add(canonical_key(f))
        enumerated = set()
        for _cod, m in enumerate_precise_maps(single(dom), f_expr):
            if m.cod.size() > max_y:
                continue
            key = canonical_key(m)
            assert key not in enumerated  # no duplicates up to renaming
            enumerated.add(key)
        assert enumerated == brute


def occurrence_list(node, term):
    from coalgpath.functors import occurrences

    return occurrences(node, term)


def var_named(sort, index):
    return var(f"r{index:03d}")


def rename_term(node, term, rename):
    from coalgpath.functors import subst_node

    return subst_node(node, term, rename)


class TestComposedFunctors:
    """Composition is walked structurally in all precise-map machinery."""

    def _composed(self):
        from coalgpath.functors import Const, Coprod, Prod, SortRef, compose, functor

        inner = Coprod((Const(("c",)), SortRef()))
        return functor(compose(Prod((SortRef(), SortRef())), inner))

    def test_shapes(self):
        f = self._composed()
        shapes = sorted(repr(s) for s in element_shapes(f, "*"))
        assert shapes == [
            "(in0(c), in0(c))",
            "(in0(c), in1(v001))",
            "(in1(v001), in0(c))",
            "(in1(v001), in1(v002))",
        ]

    def test_factorize_and_precise(self):
        from coalgpath.functors import Inj, TupleTerm

        f = self._composed()
        t = TupleTerm((Inj(1, var("y0")), Inj(1, var("y0"))))
        m = term_map(f, ["x"], ["y0"], {"x": t})
        assert not is_precise(m)
        fac = precise_factorize(m)
        assert fac.precise.cod.size() == 2
        assert is_precise(fac.precise)
        assert factorization_commutes(m, fac)

    def test_oracle_agrees(self):
        f = self._composed()
        for nx, ny in itertools.product(range(2), range(2)):
            xs = [f"x{i}" for i in range(nx)]
            ys = [f"y{i}" for i in range(ny)]
            for m in all_term_maps(f, xs, ys):
                assert is_precise(m) == is_precise_oracle(m, max(nx, ny) + 1)
