"""What functors, groups, sets and systems compute once and keep.

Each cached fact is checked against a fresh computation: the functor
flags and ``+1`` functor, a system's successor table and breadth-first
levels (against the literal walk in ``oracles.literal_bfs``), the
terms of systems built or parsed without the constructor's term walk, set
membership, the bounded evaluation cache and the elements kept on
each permutation group.
"""

import dataclasses
import pathlib
import random

import pytest

from coalgpath import coalgebra, functors
from coalgpath.coalgebra import CoalgMorphism, GenSpec, PointedCoalgebra, is_lax_hom, is_strict_hom, random_coalgebra
from coalgpath.functors import (
    Const,
    Coprod,
    Functor,
    Pf,
    Prod,
    SortRef,
    compose,
    eval_functor,
    eval_node,
    fmap,
    functor,
    lts_functor,
    multisorted,
    node_has_pf,
    occurrences,
    plus1,
    plus1_node,
    term_in_functor,
)
from coalgpath.groups import PermGroup, cyclic_group, group_elements, symmetric_group, trivial_group
from coalgpath.modelio import parse_coalgebra, parse_functor_text
from coalgpath.openmap import _add_noise, _quotient_map, _random_map, reachable_bfs
from coalgpath.sets import DEFAULT_SORT, SortedSet

from conftest import HARNESS_FUNCTORS, MULTISORTED, SYSTEM_FUNCTORS, SYSTEM_IDS
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
            partial += union != set(c.states())
        assert partial  # some systems leave states unreached

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_successor_table_matches_fresh_walk(self, f):
        for c in random_systems(f, count=15):
            for (s, x), terms in c.xi.items():
                node = c.functor.node(s)
                walked = tuple((t, tuple((v.sort, v.name) for v, _p in occurrences(node, t))) for t in terms)
                assert c.successors[(s, x)] == walked
            assert set(c.successors) == set(c.xi)

    def test_successors_are_walked_only_where_asked(self):
        for c in random_systems(HARNESS_FUNCTORS[0]):
            _levels, union = reachable_bfs(c)
            assert set(c.successors) == union

    def test_tables_are_built_once(self):
        c = next(random_systems(HARNESS_FUNCTORS[2]))
        assert c.successors is c.successors
        assert c.bfs is c.bfs

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
        for name, value in (("xi", {}), ("functor", lts_functor("a")), ("successors", {}), ("bfs", None)):
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


class TestGroupElements:
    def test_elements_kept_on_the_group_match_a_fresh_enumeration(self):
        made = [maker(n) for n in range(7) for maker in (trivial_group, cyclic_group, symmetric_group)]
        made += [PermGroup(4, ((1, 0, 3, 2),)), PermGroup(4, ((0, 1, 3, 2),))]
        for g in made:
            # a group equal to g but built apart: nothing kept on it yet
            apart = PermGroup(g.arity, g.generators)
            assert apart.elements == group_elements(g)
            assert apart.elements is apart.elements
        assert group_elements(symmetric_group(3)) == tuple(sorted(
            (a, b, c) for a in range(3) for b in range(3) for c in range(3) if len({a, b, c}) == 3
        ))
