import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalgpath.functors import (
    Analytic,
    AnSym,
    Const,
    ConstElem,
    Coprod,
    Inj,
    Prod,
    SortRef,
    Symbol,
    TermError,
    TupleTerm,
    UNIT_TERM,
    Var,
    _ansyms,
    ansym,
    compose,
    eval_functor,
    fmap,
    functor,
    multisorted,
    occurrences,
    plus1_node,
    subst_node,
    term_in_functor,
    word_separator,
)
from coalgpath.groups import GroupBoundError, PermGroup, canonical_tuple, group_elements, orbit_minima
from coalgpath.modelio import parse_functor_text
from coalgpath.precise import element_shapes
from coalgpath.sets import DEFAULT_SORT, SortedFun

from conftest import cyclic_group, identity_map, lts_functor, pair_sig, single, symmetric_group, var
from oracles import compose_maps


class TestCanonicalTuple:
    def test_symmetric_sorts(self):
        assert canonical_tuple(symmetric_group(2), ("y", "x")) == ("x", "y")

    def test_trivial_group_keeps_order(self):
        assert canonical_tuple(PermGroup(2), ("y", "x")) == ("y", "x")

    def test_cyclic_orbit_minimum(self):
        # orbit of (b,a,c) under the 3-cycle has three elements; (a,c,b) is least
        assert canonical_tuple(cyclic_group(3), ("b", "a", "c")) == ("a", "c", "b")

    def test_idempotent_and_orbit_constant(self):
        g = cyclic_group(3)
        t = ("b", "a", "c")
        canon = canonical_tuple(g, t)
        assert canonical_tuple(g, canon) == canon
        for p in group_elements(g):
            moved = tuple(t[i] for i in p)
            assert canonical_tuple(g, moved) == canon

    def test_group_order_cap(self):
        with pytest.raises(GroupBoundError):
            PermGroup(7, ())


# every group up to arity 4 that the analytic symbols can carry, by kind
SMALL_GROUPS = [
    *[(f"trivial{n}", PermGroup(n)) for n in range(5)],
    *[(f"cyclic{n}", cyclic_group(n)) for n in range(2, 5)],
    *[(f"symmetric{n}", symmetric_group(n)) for n in range(5)],
    ("transposition3", PermGroup(3, ((1, 0, 2),))),
    ("transposition4", PermGroup(4, ((0, 1, 3, 2),))),
    ("klein4", PermGroup(4, ((1, 0, 3, 2), (2, 3, 0, 1)))),
    ("generator-twice", PermGroup(3, ((1, 2, 0), (1, 2, 0)))),
]

# mutually comparable pool entries: strings, and terms of every kind a trace holds
STRING_POOL = ["d", "b", "a", "c"]
TERM_POOL = [
    UNIT_TERM,
    AnSym("leaf", ()),
    AnSym("pair", (UNIT_TERM, AnSym("leaf", ()))),
    AnSym("pair", (UNIT_TERM, UNIT_TERM)),
]


class TestOrbitMinima:
    @pytest.mark.parametrize("g", [g for _name, g in SMALL_GROUPS], ids=[name for name, _g in SMALL_GROUPS])
    @pytest.mark.parametrize("entries", [STRING_POOL, TERM_POOL], ids=["strings", "terms"])
    def test_one_least_member_per_orbit(self, g, entries):
        for size in range(len(entries) + 1):
            pool = entries[:size]
            got = list(orbit_minima(g, pool))
            brute = {canonical_tuple(g, t) for t in itertools.product(pool, repeat=g.arity)}
            assert len(got) == len(set(got)), f"pool of {size}"
            assert set(got) == brute, f"pool of {size}"
            # the order does not follow the pool's
            assert list(orbit_minima(g, reversed(pool))) == got

    def test_symmetric_minima_are_the_multisets(self):
        got = list(orbit_minima(symmetric_group(3), {"b", "a"}))
        assert got == [("a", "a", "a"), ("a", "a", "b"), ("a", "b", "b"), ("b", "b", "b")]


class TestBulkAnalyticTerms:
    """``functors._ansyms``, which builds the orbit route's terms with no
    ``AnSym.__new__`` call each, builds what ``AnSym`` builds."""

    @pytest.mark.parametrize("g", [g for _name, g in SMALL_GROUPS], ids=[name for name, _g in SMALL_GROUPS])
    def test_terms_equal_hash_and_type_like_ansym(self, g):
        tuples = list(orbit_minima(g, TERM_POOL))
        got = _ansyms("pair", iter(tuples))
        assert len(got) == len(tuples)
        for term, args in zip(got, tuples):
            plain = AnSym("pair", args)
            assert type(term) is AnSym
            assert term == plain and hash(term) == hash(plain)
            assert (term.sym, term.args) == ("pair", args)
            assert not term < plain and not plain < term
        assert _ansyms("leaf", [()]) == [AnSym("leaf", ())]
        assert _ansyms("leaf", []) == []


class TestGroupEquality:
    def test_presentations_of_one_group_are_equal(self):
        s3_by_cycle_and_swap = PermGroup(3, ((1, 2, 0), (1, 0, 2)))
        s3_by_two_swaps = PermGroup(3, ((1, 0, 2), (2, 1, 0)))
        assert s3_by_cycle_and_swap == s3_by_two_swaps == symmetric_group(3)
        assert hash(s3_by_cycle_and_swap) == hash(s3_by_two_swaps) == hash(symmetric_group(3))
        assert symmetric_group(2) == PermGroup(2, ((1, 0),))
        assert PermGroup(3, ((1, 2, 0), (1, 2, 0))) == cyclic_group(3)
        # each keeps the generators it was given
        assert s3_by_two_swaps.generators == ((1, 0, 2), (2, 1, 0))

    def test_distinct_groups_differ(self):
        assert cyclic_group(3) != symmetric_group(3)
        assert PermGroup(2) != PermGroup(3)
        assert PermGroup(4, ((0, 1, 3, 2),)) != PermGroup(4, ((1, 0, 2, 3),))
        assert PermGroup(1) != (1, ())


class TestEval:
    def test_product_with_constant(self):
        f = functor(Prod((Const(("a", "b")), SortRef())))
        terms = eval_functor(f, single(["x"]))[DEFAULT_SORT]
        assert [repr(t) for t in terms] == ["(a, x)", "(b, x)"]

    def test_analytic_orbits(self):
        f = functor(pair_sig())
        terms = eval_functor(f, single(["x", "y"]))[DEFAULT_SORT]
        assert [repr(t) for t in terms] == ["pair(x, x)", "pair(x, y)", "pair(y, y)"]

    def test_plus1_on_empty_carrier(self):
        f = functor(plus1_node(Prod((SortRef(), SortRef()))))
        terms = eval_functor(f, single([]))[DEFAULT_SORT]
        assert [repr(t) for t in terms] == [f"in1({chr(0x22a5)})"]

    def test_compose(self):
        inner = Prod((Const(("a",)), SortRef()))
        f = functor(compose(Prod((SortRef(), SortRef())), inner))
        terms = eval_functor(f, single(["x"]))[DEFAULT_SORT]
        assert [repr(t) for t in terms] == ["((a, x), (a, x))"]

    def test_membership_matches_eval(self):
        f = functor(plus1_node(pair_sig()))
        x = single(["x", "y"])
        terms = set(eval_functor(f, x)[DEFAULT_SORT])
        for t in terms:
            assert term_in_functor(f, DEFAULT_SORT, t, x)
        stray = Inj(0, ansym(symmetric_group(2), "pair", (var("x"), var("z"))))
        assert not term_in_functor(f, DEFAULT_SORT, stray, x)


class TestTermMembership:
    """``term_in_functor``, the public system constructor's term check,
    at analytic nodes."""

    SIG = functor(Analytic((
        Symbol("pair", (SortRef(), SortRef()), symmetric_group(2)),
        Symbol("leaf", (), PermGroup(0)),
    )))
    X = single(["x", "y"])

    def test_canonical_analytic_terms_accepted(self):
        for t in (ansym(symmetric_group(2), "pair", (var("y"), var("x"))), AnSym("leaf", ())):
            assert term_in_functor(self.SIG, DEFAULT_SORT, t, self.X)

    @pytest.mark.parametrize("t", [
        AnSym("node", (var("x"), var("y"))),  # unknown symbol
        AnSym("pair", (var("x"),)),  # wrong arity
        AnSym("leaf", (var("x"),)),  # wrong arity
        AnSym("pair", (var("y"), var("x"))),  # not the orbit's representative
        TupleTerm((var("x"), var("y"))),  # no analytic term
    ], ids=["unknown-symbol", "short-pair", "long-leaf", "non-canonical", "tuple"])
    def test_analytic_rejections(self, t):
        assert not term_in_functor(self.SIG, DEFAULT_SORT, t, self.X)


class TestComposition:
    def test_substitutes_into_analytic_slots(self):
        inner = Prod((Const(("a", "b")), SortRef()))
        g = symmetric_group(2)
        assert compose(pair_sig(g), inner) == Analytic((Symbol("pair", (inner, inner), g),))

    def test_nested_composition_in_outer_slot(self):
        nested = functor(parse_functor_text("compose(compose(prod(id, id), coprod(const(c), id)), id)"))
        flat = functor(parse_functor_text("prod(coprod(const(c), id), coprod(const(c), id))"))
        x = single(["x", "y"])
        assert eval_functor(nested, x) == eval_functor(flat, x)
        shapes = element_shapes(nested, DEFAULT_SORT)
        assert shapes == element_shapes(flat, DEFAULT_SORT)
        for shape in shapes:
            assert occurrences(nested.node(DEFAULT_SORT), shape) == occurrences(flat.node(DEFAULT_SORT), shape)

    def test_inner_sort_leaves_kept(self):
        # the inner expression goes in for id alone, and its own sort leaves stay
        assert compose(Prod((SortRef(), SortRef())), SortRef("b")) == Prod((SortRef("b"), SortRef("b")))

    def test_outer_leaf_of_another_sort_refused(self):
        with pytest.raises(TermError, match="^no expression for sort 'b'$"):
            compose(Prod((SortRef(), SortRef("b"))), Const(("c",)))


class TestSortLeaves:
    """A functor refuses a sort leaf that names no sort of it, wherever
    the leaf sits, naming the first such leaf breadth first."""

    @pytest.mark.parametrize("node, unknown", [
        (SortRef("zz"), "zz"),
        (Prod((Const(("a",)), SortRef("zz"))), "zz"),
        (Analytic((Symbol("s", (SortRef("zz"), SortRef("zz")), PermGroup(2, ((1, 0),))),)), "zz"),
        (Prod((SortRef("zz"), SortRef("zy"), SortRef())), "zz"),
        (Prod((Coprod((Const(("a",)), SortRef("zz"))), SortRef("zy"))), "zy"),
    ], ids=["leaf", "product", "analytic-slot", "first-of-two", "shallower-of-two"])
    def test_unknown_sort_refused(self, node, unknown):
        with pytest.raises(TermError, match=f"^expression refers to unknown sort '{unknown}'$"):
            functor(node)
        with pytest.raises(TermError, match=f"^expression refers to unknown sort '{unknown}'$"):
            multisorted(("*", "b"), {"*": SortRef("b"), "b": node})

    def test_leaves_of_listed_sorts_taken(self):
        b = Coprod((Const(("c",)), SortRef()))
        f = multisorted(("*", "b"), {"*": Prod((Const(("a",)), SortRef("b"))), "b": b})
        assert f.node("b") == b


class TestMalformedTerms:
    NODE = Prod((Const(("a",)), SortRef()))

    @pytest.mark.parametrize(
        "term",
        [
            Inj(0, var("x")),
            TupleTerm((ConstElem("a"),)),
            TupleTerm((ConstElem("b"), var("x"))),
            TupleTerm((ConstElem("a"), TupleTerm(()))),
        ],
        ids=["injection", "short-tuple", "unknown-constant", "non-variable-leaf"],
    )
    def test_walkers_raise_term_error(self, term):
        sigma = {(DEFAULT_SORT, "x"): var("y")}
        with pytest.raises(TermError):
            subst_node(self.NODE, term, sigma)
        with pytest.raises(TermError):
            occurrences(self.NODE, term)

    def test_analytic_arity_mismatch(self):
        term = AnSym("pair", (var("x"),))
        with pytest.raises(TermError):
            subst_node(pair_sig(), term, {(DEFAULT_SORT, "x"): var("y")})
        with pytest.raises(TermError):
            occurrences(pair_sig(), term)


def small_functors():
    return st.sampled_from(
        [
            functor(Prod((Const(("a", "b")), SortRef()))),
            functor(plus1_node(Prod((SortRef(), SortRef())))),
            functor(pair_sig()),
            functor(Coprod((Const(("c",)), SortRef()))),
            functor(compose(Prod((SortRef(), SortRef())), Coprod((Const(("c",)), SortRef())))),
            functor(compose(pair_sig(), Prod((Const(("a", "b")), SortRef())))),
        ]
    )


@st.composite
def functor_and_maps(draw):
    f = draw(small_functors())
    xs = ["x0", "x1", "x2", "x3"][: draw(st.integers(1, 4))]
    ys = ["y0", "y1", "y2"][: draw(st.integers(1, 3))]
    zs = ["z0", "z1"][: draw(st.integers(1, 2))]
    x, y, z = single(xs), single(ys), single(zs)
    g1 = SortedFun(x, y, {(DEFAULT_SORT, e): draw(st.sampled_from(ys)) for e in xs})
    g2 = SortedFun(y, z, {(DEFAULT_SORT, e): draw(st.sampled_from(zs)) for e in ys})
    return f, x, y, z, g1, g2


class TestFunctorLaws:
    @given(functor_and_maps())
    @settings(max_examples=60, deadline=None)
    def test_identity_law(self, data):
        f, x, _y, _z, _g1, _g2 = data
        ident = identity_map(x)
        for t in eval_functor(f, x)[DEFAULT_SORT]:
            assert fmap(f, ident, DEFAULT_SORT, t) == t

    @given(functor_and_maps())
    @settings(max_examples=60, deadline=None)
    def test_composition_law(self, data):
        f, x, _y, _z, g1, g2 = data
        composed = compose_maps(g2, g1)
        for t in eval_functor(f, x)[DEFAULT_SORT]:
            assert fmap(f, composed, DEFAULT_SORT, t) == fmap(f, g2, DEFAULT_SORT, fmap(f, g1, DEFAULT_SORT, t))

    def test_fmap_stays_in_image(self):
        f = functor(pair_sig())
        x = single(["x", "y"])
        y = single(["z"])
        fun = SortedFun(x, y, {(DEFAULT_SORT, "x"): "z", (DEFAULT_SORT, "y"): "z"})
        t = ansym(symmetric_group(2), "pair", (var("x"), var("y")))
        assert repr(fmap(f, fun, DEFAULT_SORT, t)) == "pair(z, z)"

    def test_fig2_connecting_map_action(self):
        # the factorized map h sends y'3, y'4 back onto the duplicated element
        from conftest import FIG2

        yp = single(["y1", "y2", "yp3", "yp4"])
        y = single(["y1", "y2"])
        h = SortedFun(
            yp, y,
            {(DEFAULT_SORT, "y1"): "y1", (DEFAULT_SORT, "y2"): "y2",
             (DEFAULT_SORT, "yp3"): "y2", (DEFAULT_SORT, "yp4"): "y2"},
        )
        t = Inj(0, TupleTerm((var("yp3"), var("yp4"))))
        assert repr(fmap(FIG2, h, DEFAULT_SORT, t)) == "in0((y2, y2))"


class TestOccurrences:
    def test_product_position(self):
        f = functor(Prod((Const(("a",)), SortRef())))
        t = TupleTerm((ConstElem("a"), var("x")))
        assert [(v.name, p) for v, p in occurrences(f.node(DEFAULT_SORT), t)] == [("x", (1,))]

    def test_repeated_variable(self):
        f = functor(pair_sig())
        t = ansym(symmetric_group(2), "pair", (var("x"), var("x")))
        assert [(v.name, p) for v, p in occurrences(f.node(DEFAULT_SORT), t)] == [("x", (0,)), ("x", (1,))]

    def test_added_point_has_no_occurrences(self):
        from coalgpath.functors import bot_of_plus1

        f = functor(plus1_node(Prod((SortRef(), SortRef()))))
        assert occurrences(f.node(DEFAULT_SORT), bot_of_plus1()) == []

    def test_compose_flattens_paths(self):
        inner = Prod((Const(("a",)), SortRef()))
        f = functor(compose(Prod((SortRef(), SortRef())), inner))
        t = eval_functor(f, single(["x"]))[DEFAULT_SORT][0]
        assert [(v.name, p) for v, p in occurrences(f.node(DEFAULT_SORT), t)] == [
            ("x", (0, 1)),
            ("x", (1, 1)),
        ]


class TestCanonicalization:
    @given(st.permutations(["x", "y", "z"]))
    @settings(max_examples=20, deadline=None)
    def test_orbit_representative_is_stable(self, names):
        g = cyclic_group(3)
        sig = Analytic((Symbol("c3", (SortRef(),) * 3, g),))
        args = tuple(var(n) for n in names)
        t = ansym(g, "c3", args)
        for p in group_elements(g):
            moved = tuple(args[i] for i in p)
            assert ansym(g, "c3", moved) == t


class TestFunctorLawsExhaustive:
    FUNCTORS = [
        functor(Prod((Const(("a",)), SortRef()))),
        functor(plus1_node(Prod((SortRef(), SortRef())))),
        functor(pair_sig()),
    ]

    def test_identity_exhaustive_up_to_four(self):
        for f in self.FUNCTORS:
            for size in range(5):
                x = single([f"x{i}" for i in range(size)])
                ident = identity_map(x)
                for t in eval_functor(f, x)[DEFAULT_SORT]:
                    assert fmap(f, ident, DEFAULT_SORT, t) == t

    def test_composition_exhaustive_small(self):
        from oracles import all_functions

        for f in self.FUNCTORS:
            for nx, ny, nz in itertools.product(range(1, 3), repeat=3):
                x = single([f"x{i}" for i in range(nx)])
                y = single([f"y{i}" for i in range(ny)])
                z = single([f"z{i}" for i in range(nz)])
                terms = eval_functor(f, x)[DEFAULT_SORT]
                for g1 in all_functions(x, y):
                    for g2 in all_functions(y, z):
                        composed = compose_maps(g2, g1)
                        for t in terms:
                            assert fmap(f, composed, DEFAULT_SORT, t) == fmap(
                                f, g2, DEFAULT_SORT, fmap(f, g1, DEFAULT_SORT, t)
                            )


class TestWordSeparator:
    @pytest.mark.parametrize(
        "f, sep",
        [
            (lts_functor(["a", "b"]), ""),
            (lts_functor(["a", "b"]).plus1, ""),
            (lts_functor(["a", "b", "ab"]), " "),
            # a marker spells a word too
            (functor(Coprod((Prod((Const(("a",)), SortRef())), Const(("stop",))))), " "),
            # a letter of another letter-shaped sort
            (
                multisorted(
                    ("*", "b"), {"*": Prod((Const(("a",)), SortRef("b"))), "b": Prod((Const(("cc",)), SortRef()))}
                ),
                " ",
            ),
            # a constant of a sort that is not letter-shaped spells no word
            (functor(Prod((Const(("ab",)), SortRef(), SortRef()))), ""),
            # one character, but it prints quoted, as "#"
            (lts_functor(["a", "#"]), " "),
        ],
    )
    def test_space_only_for_a_long_letter_or_marker(self, f, sep):
        assert word_separator(f) == sep
