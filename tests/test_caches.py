"""What functors, groups, sets and systems compute once and keep.

Each cached fact is checked against a fresh computation: the functor
flags and ``+1`` functor, a system's successor table and breadth-first
levels (against the literal walk in ``oracles.literal_bfs``), the
terms of systems built or parsed without the constructor's term walk, set
membership, the bounded evaluation cache, the term memo each functor
value shares (its leaf states and images) and the elements kept on each
permutation group.
"""

import dataclasses
import gc
import pathlib
import random
import weakref

import pytest

from coalgpath import coalgebra, functors
from coalgpath.cli import run_command
from coalgpath.coalgebra import CoalgMorphism, GenSpec, PointedCoalgebra, is_lax_hom, is_strict_hom, random_coalgebra
from coalgpath.functors import (
    Const,
    ConstElem,
    Coprod,
    Functor,
    Pf,
    PowersetNodeError,
    Prod,
    SetOf,
    SortRef,
    TermError,
    TupleTerm,
    Var,
    _leaf_states,
    compose,
    eval_functor,
    eval_node,
    fmap,
    functor,
    multisorted,
    node_has_pf,
    occurrences,
    plus1,
    plus1_node,
    subst_node,
    term_in_functor,
)
from coalgpath.groups import PermGroup, group_elements
from coalgpath.modelio import parse_coalgebra, parse_functor_text
from coalgpath.openmap import _add_noise, _least_subcoalgebra, _quotient_map, _random_map, reachable_bfs
from coalgpath.sets import DEFAULT_SORT, SortedFun, SortedSet

from conftest import (
    HARNESS_FUNCTORS,
    MULTISORTED,
    SYSTEM_FUNCTORS,
    SYSTEM_IDS,
    cyclic_group,
    lts_functor,
    symmetric_group,
)
from oracles import literal_bfs


def random_systems(f, count=40):
    rng = random.Random(repr(f))
    for seed in range(count):
        sizes = {s: rng.randint(1, 5) for s in f.sorts}
        yield random_coalgebra(GenSpec(f, sizes, rng.choice((0.1, 0.25, 0.4)), seed))


class TestFunctorFacts:
    FUNCTORS = [
        *HARNESS_FUNCTORS,
        MULTISORTED,
        functor(compose(Prod((SortRef(), SortRef())), functor(Coprod((Const(("c",)), SortRef()))))),
        functor(parse_functor_text("compose(analytic{ pair/2 [(1 2)] ; leaf/0 }, prod(const(a), id))")),
        multisorted(("p", "q"), {"p": Pf(SortRef("q")), "q": Prod((SortRef("p"), Const(("z",))))}),
    ]

    @pytest.mark.parametrize("f", FUNCTORS, ids=range(len(FUNCTORS)))
    def test_has_pf_and_plus1_match_an_uncached_computation(self, f):
        assert f.has_pf == any(node_has_pf(n) for _s, n in f.nodes)
        expected = Functor(f.sorts, tuple((s, plus1_node(n)) for s, n in f.nodes))
        assert f.plus1 == expected and plus1(f) == expected
        assert hash(f.plus1) == hash(expected)
        assert hash(f) == hash((f.sorts, f.nodes))

    def test_one_functor_contains_pf(self):
        assert [f.has_pf for f in self.FUNCTORS].count(True) == 1

    def test_plus1_is_built_once(self):
        f = lts_functor("ab")
        assert plus1(f) is plus1(f) is f.plus1

    def test_equal_functors_built_apart_agree(self):
        f, g = lts_functor("ab"), lts_functor("ab")
        assert f is not g and f == g and hash(f) == hash(g) and f.plus1 == g.plus1

    def test_functor_is_frozen(self):
        f = lts_functor("ab")
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.has_pf = True


class TestSystemFacts:
    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_bfs_agrees_with_literal_walk(self, f):
        partial = 0
        for c in random_systems(f):
            levels, union = reachable_bfs(c)
            want_levels, want_union = literal_bfs(c)
            assert levels == want_levels
            assert union == want_union
            assert _least_subcoalgebra(c) == want_union
            partial += union != set(c.states())
        assert partial  # some systems leave states unreached

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_successor_table_matches_fresh_walk(self, f):
        for c in random_systems(f, count=15):
            for (s, x), terms in c.xi.items():
                node = c.functor.node(s)
                walked = tuple((t, tuple((v.sort, v.name) for v, _p in occurrences(node, t))) for t in terms)
                assert c.successors((s, x)) == walked

    def test_mutating_the_answer_leaves_the_next_one_unchanged(self):
        c = next(c for c in random_systems(HARNESS_FUNCTORS[0]) if len(reachable_bfs(c)[0]) > 1)
        want_levels, want_union = literal_bfs(c)
        levels, union = reachable_bfs(c)
        for kept in (levels[0], union):
            with pytest.raises(AttributeError):
                kept.add(("*", "new"))
        levels.append(set(c.states()))
        levels[0] = set()
        del levels[1]
        again_levels, again_union = reachable_bfs(c)
        assert again_levels == want_levels and again_union == want_union

    def test_system_is_frozen(self):
        c = next(random_systems(HARNESS_FUNCTORS[0]))
        for name, value in (("xi", {}), ("functor", lts_functor("a"))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(c, name, value)


def harness_trials(f, count):
    """Per seed, the systems and maps one harness trial builds: the
    random source, its restriction to the reached states, a quotient of
    it, a noisy quotient and a second random system with a random map."""
    rng = random.Random(repr(f))
    for seed in range(count):
        sizes = {s: rng.randint(1, 5) for s in f.sorts}
        spec = GenSpec(f, sizes, rng.choice((0.1, 0.25, 0.4)), seed)
        raw = random_coalgebra(spec)
        src = raw.restrict(reachable_bfs(raw)[1])
        fold = _quotient_map(rng, src, classes=max(1, src.carrier.size() - 1))
        noisy = _add_noise(rng, fold.dst, amount=2)
        other = random_coalgebra(GenSpec(f, sizes, spec.density, seed + count))
        systems = (raw, src, fold.dst, noisy, other)
        maps = (fold, CoalgMorphism._with_images(src, noisy, fold.map, fold.images),
                CoalgMorphism(src, other, _random_map(rng, src, other)))
        yield systems, maps


class TestTrustedBuilders:
    """The library's own builders skip the constructor's term walk; every
    system they build must pass it anyway."""

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_every_built_transition_is_well_formed(self, f):
        dropped = 0
        for systems, _maps in harness_trials(f, 60):
            for c in systems:
                assert set(c.xi) == set(c.states())
                for (s, _x), terms in c.xi.items():
                    assert terms == tuple(sorted(set(terms)))
                    assert all(term_in_functor(f, s, t, c.carrier) for t in terms)
            dropped += systems[1].carrier.size() < systems[0].carrier.size()
        assert dropped  # some restrictions drop states

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_image_table_matches_fresh_fmap(self, f):
        for _systems, maps in harness_trials(f, 30):
            for m in maps:
                fresh = {
                    (s, x): {fmap(f, m.map, s, t) for t in m.src.xi[(s, x)]} for s, x in m.src.states()
                }
                assert m.images == fresh
                assert is_strict_hom(m) == all(
                    fresh[(s, x)] == set(m.dst.xi[(s, m.map(s, x))]) for s, x in m.src.states()
                )
                assert is_lax_hom(m) == all(
                    fresh[(s, x)] <= set(m.dst.xi[(s, m.map(s, x))]) for s, x in m.src.states()
                )

    def test_image_table_is_built_once_and_morphism_frozen(self):
        _systems, (m, *_rest) = next(harness_trials(HARNESS_FUNCTORS[2], 1))
        assert m.images is m.images
        for name in ("map", "dst", "images"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, None)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# the functors of the benchmark's open-check workload
OPEN_CHECK_FUNCTORS = ("prod(id, id)", "prod(id, id, id)", "analytic{ pair/2 [(1 2)] ; tri/3 [(1 2 3)] ; leaf/0 }")


def open_check_style_texts(count):
    """Model files written as the open-check workload writes them: three
    transitions per state, symbol arguments in any order."""
    rng = random.Random("open-check-style")
    for functor_text in OPEN_CHECK_FUNCTORS:
        for _ in range(count):
            names = [f"s{i:02d}" for i in range(rng.randint(1, 8))]
            trans = []
            for x in names:
                for _k in range(3):
                    if functor_text.startswith("prod"):
                        args = [rng.choice(names) for _ in range(functor_text.count("id"))]
                        trans.append(f"{x} -> ({', '.join(args)})")
                    else:
                        sym, arity = rng.choice((("pair", 2), ("tri", 3), ("leaf", 0)))
                        args = [rng.choice(names) for _ in range(arity)]
                        trans.append(f"{x} -> {sym}({', '.join(args)})" if args else f"{x} -> {sym}")
            yield (f"[functor]\n{functor_text}\n\n[states]\n{' '.join(names)}\n\n[init]\n* -> {names[0]}\n\n"
                   "[trans]\n" + "\n".join(trans) + "\n")


PARSED_SYSTEMS = [
    *(parse_coalgebra(p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.rglob("*.model"))),
    *(parse_coalgebra(text) for text in open_check_style_texts(30)),
]


class TestTrustedParse:
    """A parsed system skips the constructor's term walk: the parser has
    checked each term against the functor and the carrier as it read it."""

    def test_every_parsed_term_is_well_formed(self):
        assert len(PARSED_SYSTEMS) > 100
        for c in PARSED_SYSTEMS:
            assert set(c.xi) == set(c.states())
            for (s, _x), terms in c.xi.items():
                assert terms == tuple(sorted(set(terms)))
                assert all(term_in_functor(c.functor, s, t, c.carrier) for t in terms)
            assert PointedCoalgebra(c.functor, c.pointing, c.carrier, c.point, c.xi) == c

    def test_parse_walks_no_term_and_the_constructor_walks_each(self, monkeypatch):
        calls = []
        real = functors.term_in_functor

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(functors, "term_in_functor", counted)
        monkeypatch.setattr(coalgebra, "term_in_functor", counted)
        text = (FIXTURES / "compose" / "tree.model").read_text(encoding="utf-8")
        c = parse_coalgebra(text)
        assert calls == []
        PointedCoalgebra(c.functor, c.pointing, c.carrier, c.point, c.xi)
        assert len(calls) == sum(len(terms) for terms in c.xi.values()) > 0


class TestSortedSetHas:
    def test_matches_a_scan(self):
        rng = random.Random(5)
        for _ in range(30):
            sorts = tuple(rng.sample(["a", "b", "c", DEFAULT_SORT], rng.randint(1, 3)))
            x = SortedSet.make({s: rng.sample(["p", "q", "r", "s"], rng.randint(0, 4)) for s in sorts}, sorts)
            for sort in ["a", "b", "c", DEFAULT_SORT, "zz"]:
                for elem in ["p", "q", "r", "s", "t"]:
                    scan = sort in x.sorts and elem in x.data[x.sorts.index(sort)]
                    assert x.has(sort, elem) == scan


class TestEvalCache:
    def test_stays_at_its_bound_with_unchanged_answers(self):
        f = lts_functor("ab")
        bound = functors._evaluated.cache_info().maxsize
        # more distinct carriers than the cache keeps, each asked for twice
        carriers = [SortedSet.single([f"s{j}" for j in range(i % 4)] + [f"t{i}"]) for i in range(bound + 20)]
        answers = [eval_functor(f, x) for x in carriers]
        assert functors._evaluated.cache_info().currsize == bound
        for x, want in zip(carriers, answers):
            got = eval_functor(f, x)
            assert got == want
            got.clear()  # each answer is a fresh dict: emptying it leaves the cache as it was
            assert eval_functor(f, x) == want
        assert functors._evaluated.cache_info().currsize == bound
        # an uncached evaluation agrees too
        for x, want in zip(carriers, answers):
            env = {s: tuple(functors.Var(s, e) for e in x.elems(s)) for s in x.sorts}
            fresh = tuple(sorted(set(eval_node(f.node(DEFAULT_SORT), lambda ref: env[ref.sort]))))
            assert want[DEFAULT_SORT] == fresh

    def test_bound_covers_a_lasota_chain(self):
        # the lasota check's carrier-by-carrier fallback evaluates 3^5
        # carriers on a 5-object category
        assert functors._evaluated.cache_info().maxsize > 3 ** 5


MEMO_FUNCTORS = [
    *SYSTEM_FUNCTORS,
    functor(parse_functor_text("analytic{ tri/3 [(1 2 3), (1 2)] ; pair/2 [(1 2)] ; leaf/0 }")),
]
MEMO_IDS = [*SYSTEM_IDS, "symmetric"]


def forget(f):
    """Empty the term memo of ``f``'s value, so the next call on a term is its first."""
    f._memo.leaves.clear()
    f._memo.images.clear()


def walked_leaves(f, sort, t):
    return tuple((v.sort, v.name) for v, _p in occurrences(f.node(sort), t))


def random_maps(c, rng, count):
    """Maps out of the carrier of ``c`` onto 1-3 elements per sort, so
    that leaves often collide and analytic images re-canonicalize."""
    sorts = c.carrier.sorts
    for _ in range(count):
        cod = SortedSet.make({s: [f"y{i}" for i in range(rng.randint(1, 3))] for s in sorts}, sorts)
        yield SortedFun(c.carrier, cod, {(s, x): rng.choice(cod.elems(s)) for s, x in c.carrier.pairs()})


def raised(call) -> str:
    with pytest.raises(TermError) as info:
        call()
    return str(info.value)


class TestTermMemo:
    """``fmap`` and ``_leaf_states`` keep what they work out in a memo per
    functor value; each answer must equal a fresh walk, on a term's first
    call and on every later one."""

    @pytest.mark.parametrize("f", MEMO_FUNCTORS, ids=MEMO_IDS)
    def test_fmap_matches_a_fresh_substitution(self, f):
        rng = random.Random(7)
        twin = Functor(f.sorts, f.nodes)  # equal, built apart
        checked = 0
        for c in random_systems(f, count=15):
            forget(f)
            # the first map meets each term first; later maps find its
            # leaves kept but not its images under their names
            for fun in random_maps(c, rng, 3):
                sigma = {(s, x): Var(s, y) for (s, x), y in fun.table.items()}
                for (s, _x), terms in c.xi.items():
                    for t in terms:
                        want = subst_node(f.node(s), t, sigma)
                        assert fmap(f, fun, s, t) == want
                        assert fmap(f, fun, s, t) == want
                        assert fmap(twin, fun, s, t) == want
                        checked += 1
        assert checked > 100

    @pytest.mark.parametrize("f", MEMO_FUNCTORS, ids=MEMO_IDS)
    def test_leaf_states_match_an_occurrence_walk(self, f):
        rng = random.Random(8)
        for i, c in enumerate(random_systems(f, count=15)):
            forget(f)
            fun = next(random_maps(c, rng, 1))
            for (s, _x), terms in c.xi.items():
                for t in terms:
                    if i % 2:  # kept by fmap's walk, not by a leaf walk
                        fmap(f, fun, s, t)
                    want = walked_leaves(f, s, t)
                    assert _leaf_states(f, s, t) == want
                    assert _leaf_states(f, s, t) == want

    def test_equal_functors_built_apart_share_one_memo(self):
        f, g = lts_functor("ab"), lts_functor("ba")
        assert f is not g and f._memo is g._memo
        assert lts_functor("abc")._memo is not f._memo
        t = TupleTerm((ConstElem("a"), Var(DEFAULT_SORT, "p")))
        fmap(f, SortedFun.identity(SortedSet.single(["p"])), DEFAULT_SORT, t)
        assert g._memo.leaves[(DEFAULT_SORT, t)] == ((DEFAULT_SORT, "p"),)

    def test_memo_lives_as_long_as_a_functor_of_its_value(self):
        f = functor(parse_functor_text("prod(const(memo), id, id)"))
        memo = weakref.ref(f._memo)
        g = functor(parse_functor_text("prod(const(memo), id, id)"))
        assert g._memo is memo()
        del f
        gc.collect()
        assert g._memo is memo()
        del g
        gc.collect()
        assert memo() is None

    def test_errors_read_the_same_before_and_after_a_term_is_kept(self):
        f = lts_functor("ab")
        forget(f)
        node, x = f.node(DEFAULT_SORT), SortedSet.single(["p", "q"])
        whole, partial = SortedFun.identity(x), SortedFun(SortedSet.single(["q"]), x, {(DEFAULT_SORT, "q"): "q"})
        kept = TupleTerm((ConstElem("a"), Var(DEFAULT_SORT, "p")))
        misfits = [
            TupleTerm((ConstElem("c"), Var(DEFAULT_SORT, "p"))),
            TupleTerm((ConstElem("a"), ConstElem("p"))),
            Var(DEFAULT_SORT, "p"),
        ]
        want_outside = raised(lambda: subst_node(node, kept, {(DEFAULT_SORT, "q"): Var(DEFAULT_SORT, "q")}))
        assert want_outside == "variable 'p' (sort '*') not in substitution"
        whole_sigma = {(DEFAULT_SORT, e): Var(DEFAULT_SORT, e) for e in "pq"}
        want_misfits = [raised(lambda t=t: subst_node(node, t, whole_sigma)) for t in misfits]
        assert "expected a variable at sort '*'" in want_misfits[1]
        for _round in range(2):  # the second round finds the fitting term kept
            assert raised(lambda: fmap(f, partial, DEFAULT_SORT, kept)) == want_outside
            for t, want in zip(misfits, want_misfits):
                assert raised(lambda t=t: fmap(f, whole, DEFAULT_SORT, t)) == want
                walked = raised(lambda t=t: walked_leaves(f, DEFAULT_SORT, t))
                assert raised(lambda t=t: _leaf_states(f, DEFAULT_SORT, t)) == walked
            assert fmap(f, whole, DEFAULT_SORT, kept) == kept
        assert set(f._memo.leaves) == {(DEFAULT_SORT, kept)}

    def test_powerset_leaves_are_never_kept(self):
        f = multisorted(("p", "q"), {"p": Pf(SortRef("q")), "q": Prod((SortRef("p"), Const(("z",))))})
        assert f.has_pf and f._memo is None
        x = SortedSet.make({"p": ["a"], "q": ["b", "c"]}, ("p", "q"))
        fun = SortedFun(x, x, {("p", "a"): "a", ("q", "b"): "c", ("q", "c"): "c"})
        t = SetOf([Var("q", "b"), Var("q", "c")])
        for _round in range(2):
            assert fmap(f, fun, "p", t) == SetOf([Var("q", "c")])
            with pytest.raises(PowersetNodeError):
                walked_leaves(f, "p", t)
            with pytest.raises(PowersetNodeError):
                _leaf_states(f, "p", t)
        u = TupleTerm((Var("p", "a"), ConstElem("z")))
        assert _leaf_states(f, "q", u) == walked_leaves(f, "q", u) == (("p", "a"),)


class TestMemoLeakGuard:
    """``verify`` parses its functor anew on every call, and the caches
    keyed by functors keep those objects alive; the term memos must
    still number one per functor value, and stop growing once the same
    trials have run."""

    TEXTS = ("prod(const(m n), id)", "analytic{ tri/3 [(1 2 3), (1 2)] ; leaf/0 }")

    @staticmethod
    def memo_census():
        gc.collect()
        live = [f for f in gc.get_objects() if isinstance(f, Functor) and f.__dict__.get("_memo") is not None]
        values = set(live)
        assert len(values) < len(live)  # equal functors built apart
        assert len({id(f._memo) for f in live}) == len(values) == len(functors._MEMOS)
        return values

    def test_one_memo_per_value_and_no_growth_after_the_first_round(self):
        before = set(functors._MEMOS.keys())
        entries = []
        for _round in range(3):
            for text in self.TEXTS:
                for seed in (1, 2, 3):
                    out, code = run_command(["verify", "--functor", text, "--trials", "20",
                                             "--seed", str(seed), "--states", "4"])
                    assert code == 0, out
            self.memo_census()
            ours = [m for key, m in functors._MEMOS.items() if key not in before]
            entries.append((len(ours), sum(len(m.leaves) for m in ours), sum(len(m.images) for m in ours)))
        assert entries[0][0] >= len(self.TEXTS) and entries[0][1] and entries[0][2]
        assert entries[1] == entries[2]


class TestGroupElements:
    def test_elements_kept_on_the_group_match_a_fresh_enumeration(self):
        made = [maker(n) for n in range(7) for maker in (PermGroup, cyclic_group, symmetric_group)]
        made += [PermGroup(4, ((1, 0, 3, 2),)), PermGroup(4, ((0, 1, 3, 2),))]
        for g in made:
            # a group equal to g but built apart: nothing kept on it yet
            apart = PermGroup(g.arity, g.generators)
            assert apart.elements == group_elements(g)
            assert apart.elements is apart.elements
        assert group_elements(symmetric_group(3)) == tuple(sorted(
            (a, b, c) for a in range(3) for b in range(3) for c in range(3) if len({a, b, c}) == 3
        ))
