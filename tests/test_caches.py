"""What functors, groups, sets and systems compute once and keep.

Each cached fact is checked against a fresh computation: the functor
flags and ``+1`` functor, a system's successor table and breadth-first
levels (against the literal walk in ``oracles.literal_bfs``), the
terms of systems built or parsed without the constructor's term walk,
the flat ``[trans]`` patterns and the ``x -> y`` pattern of ``[init]``
and ``[map]`` against the token route, set
membership, the bounded evaluation cache, the term memo each functor
value shares (its leaf states and images) and the elements kept on each
permutation group.
"""

import dataclasses
import gc
import pathlib
import random
import re
import sys
import weakref

import pytest

from coalgpath import coalgebra, functors, modelio
from coalgpath.cli import run_command
from coalgpath.coalgebra import CoalgMorphism, GenSpec, PointedCoalgebra, is_lax_hom, is_strict_hom, random_coalgebra
from coalgpath.functors import (
    BOT,
    UNIT,
    Const,
    ConstElem,
    Coprod,
    Functor,
    Inj,
    Prod,
    SortRef,
    Symbol,
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
    occurrences,
    plus1_node,
    read_letter,
    subst_node,
    term_in_functor,
)
from coalgpath.groups import ArityError, PermGroup, canonical_tuple, group_elements
from coalgpath.lasota import FiniteCategory, validate_category
from coalgpath.modelio import ModelParseError, parse_coalgebra, parse_functor_text, print_term_for
from coalgpath.nominal import (
    AtomPool, BarString, NomElem, PoolError, RnnaPresentation, canonical_bind, print_canonical,
)
from coalgpath.openmap import (
    _add_noise, _least_subcoalgebra, _quotient_map, _random_map, reachable_bfs, verify_theorems,
)
from coalgpath.precise import TermMap
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet, SortError, singleton_pointing

from conftest import (
    HARNESS_FUNCTORS,
    MULTISORTED,
    SYSTEM_FUNCTORS,
    SYSTEM_IDS,
    cyclic_group,
    identity_map,
    lts_functor,
    s3_model,
    symmetric_group,
)
from oracles import literal_bfs, strip_plus1


def random_systems(f, count=40):
    rng = random.Random(repr(f))
    for seed in range(count):
        sizes = {s: rng.randint(1, 5) for s in f.sorts}
        yield random_coalgebra(GenSpec(f, sizes, rng.choice((0.1, 0.25, 0.4)), seed))


class TestFunctorFacts:
    FUNCTORS = [
        *HARNESS_FUNCTORS,
        MULTISORTED,
        functor(compose(Prod((SortRef(), SortRef())), Coprod((Const(("c",)), SortRef())))),
        functor(parse_functor_text("compose(analytic{ pair/2 [(1 2)] ; leaf/0 }, prod(const(a), id))")),
    ]

    @pytest.mark.parametrize("f", FUNCTORS, ids=range(len(FUNCTORS)))
    def test_plus1_and_hash_match_an_uncached_computation(self, f):
        expected = Functor(f.sorts, tuple((s, plus1_node(n)) for s, n in f.nodes))
        assert f.plus1 == expected
        assert hash(f.plus1) == hash(expected)
        assert hash(f) == hash((f.sorts, f.nodes))

    def test_plus1_is_built_once(self):
        f = lts_functor("ab")
        assert f.plus1 is f.plus1

    def test_equal_functors_built_apart_agree(self):
        f, g = lts_functor("ab"), lts_functor("ab")
        assert f is not g and f == g and hash(f) == hash(g) and f.plus1 == g.plus1

    def test_functor_is_frozen(self):
        f = lts_functor("ab")
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.sorts = ("x",)


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
            partial += union != set(c.carrier.pairs())
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
        levels.append(set(c.carrier.pairs()))
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
                assert set(c.xi) == set(c.carrier.pairs())
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
                    (s, x): {fmap(f, m.map, s, t) for t in m.src.xi[(s, x)]} for s, x in m.src.carrier.pairs()
                }
                assert m.images == fresh
                assert is_strict_hom(m) == all(
                    fresh[(s, x)] == set(m.dst.xi[(s, m.map(s, x))]) for s, x in m.src.carrier.pairs()
                )
                assert is_lax_hom(m) == all(
                    fresh[(s, x)] <= set(m.dst.xi[(s, m.map(s, x))]) for s, x in m.src.carrier.pairs()
                )

    def test_image_table_is_built_once_and_morphism_frozen(self):
        _systems, (m, *_rest) = next(harness_trials(HARNESS_FUNCTORS[2], 1))
        assert m.images is m.images
        for name in ("map", "dst", "images"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, None)


def spied_trusted_builds(monkeypatch, cls):
    """Every ``cls._built`` call as ``(caller, args, result)``, the caller
    by its function name."""
    calls = []
    original = cls._built

    def spy(_cls, *args):
        result = original(*args)
        calls.append((sys._getframe(1).f_code.co_name, args, result))
        return result

    monkeypatch.setattr(cls, "_built", classmethod(spy))
    return calls


class TestTrustedHarnessParts:
    """The harness hands the tables and sets its own builders make total
    and sorted to the trusted constructors, and shares its carriers and
    pointings; each part must be what the checking constructors build."""

    @staticmethod
    def verify(f, trials=60):
        sizes = {s: 4 for s in f.sorts}
        return verify_theorems(GenSpec(f, sizes, 0.3, 11), trials)

    @pytest.mark.parametrize("f", HARNESS_FUNCTORS, ids=SYSTEM_IDS[:5])
    def test_every_trusted_map_is_the_checked_one(self, f, monkeypatch):
        calls = spied_trusted_builds(monkeypatch, SortedFun)
        assert self.verify(f).all_passed
        for _caller, (dom, cod, table), built in calls:
            assert SortedFun(dom, cod, table) == built
        callers = {caller for caller, _args, _built in calls}
        # the witness square is plain records, built and replayed with no map
        assert {"_quotient_map", "_random_map"} <= callers
        assert not callers & {"_materialize_witness", "replay_witness"}

    @pytest.mark.parametrize("f", HARNESS_FUNCTORS, ids=SYSTEM_IDS[:5])
    def test_every_trusted_set_is_the_checked_one(self, f, monkeypatch):
        calls = spied_trusted_builds(monkeypatch, SortedSet)
        assert self.verify(f).all_passed
        for _caller, (sorts, data), built in calls:
            assert SortedSet(sorts, data) == built
        callers = [caller for caller, _args, _built in calls]
        assert "restrict" in callers and "_quotient_map" in callers

    @pytest.mark.parametrize("f", SYSTEM_FUNCTORS, ids=SYSTEM_IDS)
    def test_shared_carrier_and_pointing_equal_fresh_ones(self, f):
        rng = random.Random(repr(f))
        for seed in range(40):
            sizes = {s: rng.randint(1, 5) for s in f.sorts}
            c = random_coalgebra(GenSpec(f, sizes, 0.3, seed))
            names = {s: [f"s{i}" if len(f.sorts) == 1 else f"{s}s{i}" for i in range(n)] for s, n in sizes.items()}
            assert c.carrier == SortedSet.make(names, f.sorts)
            assert c.pointing == SortedSet.make({f.sorts[0]: ["*"]}, f.sorts)

    def test_one_pointing_per_arguments(self):
        assert singleton_pointing() is singleton_pointing()
        assert singleton_pointing(("a", "b"), at="b") is singleton_pointing(("a", "b"), at="b")
        assert singleton_pointing(("a", "b"), at="b") is not singleton_pointing(("a", "b"), at="a")

    @pytest.mark.parametrize("elems, message", [
        (("b", "a"), "elements of sort 'x' not in canonical order"),
        (("a", "a"), "duplicate elements in sort 'x': ('a', 'a')"),
        (("b", "a", "b"), "duplicate elements in sort 'x': ('b', 'a', 'b')"),
        (["a", "b"], "elements of sort 'x' not in canonical order"),
    ], ids=["unsorted", "duplicate", "unsorted-and-duplicate", "list"])
    def test_set_refusals_keep_their_messages(self, elems, message):
        with pytest.raises(SortError, match=f"^{re.escape(message)}$"):
            SortedSet(("w", "x"), (("p",), elems))


_X, _Y = SortedSet.single(["x"]), SortedSet.single(["y"])
_STRAY = {(DEFAULT_SORT, "x"): "y", (DEFAULT_SORT, "zz"): "y"}


class TestPublicConstructorRefusals:
    """The checking constructors of sets and maps refuse what no trusted
    builder could make, each with its own message."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: SortedSet((), ()), SortError, "sort list must be non-empty"),
        (lambda: SortedSet(("a", "a"), ((), ())), SortError, "duplicate sort names in ('a', 'a')"),
        (lambda: SortedSet(("a", "b"), ((),)), SortError, "per-sort data does not match sort list"),
        (lambda: _X.elems("q"), SortError, "unknown sort 'q'"),
        (lambda: SortedFun(_X, _Y, _STRAY), SortError, "map defined outside its domain: [('*', 'zz')]"),
        (lambda: SortedFun(_X, _Y, {(DEFAULT_SORT, "x"): "x"}), SortError,
         "image of ('*', 'x') is 'x', not in codomain sort '*'"),
        (lambda: TermMap(_X, functor(SortRef()), _Y, {key: Var(DEFAULT_SORT, y) for key, y in _STRAY.items()}),
         CoalgError, "term map defined outside domain: [('*', 'zz')]"),
    ], ids=["no-sorts", "duplicate-sorts", "data-not-per-sort", "unknown-sort", "map-outside-domain",
            "image-outside-codomain", "term-map-outside-domain"])
    def test_refused_with_its_message(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


_LETTERS = functor(Prod((Const(("a",)), SortRef())))
_CATEGORY = FiniteCategory(("p",), (("id", "p", "p"),), {"p": "id"}, {("id", "id"): "id"}, "q")


def _one_state(point: str = "x") -> PointedCoalgebra:
    """The system over ``A x Id`` with the one state ``x``, pointed at ``point``."""
    return PointedCoalgebra(_LETTERS, singleton_pointing(), _X, {(DEFAULT_SORT, "*"): point}, {(DEFAULT_SORT, "x"): ()})


class TestLibraryRefusals:
    """The refusals a library caller reaches through a public call and no
    verb does, each with its own message."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: _one_state("zz"), CoalgError, "pointing image 'zz' not in carrier"),
        (lambda: _one_state().restrict([]), CoalgError, "cannot drop pointed states [('*', 'x')]"),
        (lambda: CoalgMorphism(_one_state(), _one_state(), SortedFun(_Y, _Y, {(DEFAULT_SORT, "y"): "y"})),
         CoalgError, "carrier map has the wrong end points"),
        (lambda: Symbol("s", (SortRef(),), PermGroup(2)), TermError, "group arity mismatch for symbol 's'"),
        (lambda: Symbol("s", (SortRef(), Const(("a",))), PermGroup(2, ((1, 0),))), TermError,
         "generator of 's' does not preserve slot expressions"),
        # the object paths' reader of an F+1 term, kept beside its oracles
        (lambda: strip_plus1(ConstElem("a")), TermError, "not a term of a +1 coproduct: a"),
        (lambda: strip_plus1(Inj(1, ConstElem("a"))), TermError, "not a term of a +1 coproduct: in1(a)"),
        (lambda: read_letter(Var(DEFAULT_SORT, "x")), TermError, "x is neither a letter nor a marker"),
        (lambda: eval_functor(multisorted(("*", "b"), {"*": SortRef("b"), "b": Const(("c",))}), _X), SortError,
         "unknown sort 'b'"),
        (lambda: PermGroup(2, ((0, 0),)), ArityError, "generator (0, 0) is not a permutation of 0..1"),
        (lambda: canonical_tuple(PermGroup(2), ("a",)), ArityError, "tuple of length 1 under group of arity 2"),
        (lambda: _CATEGORY.dom("zz"), CoalgError, "unknown morphism 'zz'"),
        (lambda: print_term_for(_LETTERS, DEFAULT_SORT, ConstElem("a")), CoalgError,
         f"cannot print a against {_LETTERS.node(DEFAULT_SORT)!r}"),
        (lambda: BarString((), None, ("a1", "a1")), PoolError, "context atoms must be distinct: ('a1', 'a1')"),
        (lambda: BarString((("lit", "a1"),)), PoolError, "unknown token kind 'lit'"),
        (lambda: canonical_bind("a3", NomElem("q", ("a1", "a2")), AtomPool(2)), PoolError,
         "pool exhausted: no admissible binder"),
        (lambda: RnnaPresentation({"q": 0}, "r", ()), CoalgError, "unknown initial control state 'r'"),
    ], ids=["point-outside-carrier", "restrict-drops-point", "morphism-end-points", "symbol-arity",
            "symbol-slots", "strip-plus1-no-injection", "strip-plus1-bad-injection", "read-letter",
            "carrier-without-a-functor-sort", "generator-no-permutation", "canonical-tuple-arity",
            "unknown-morphism", "print-term-for-misfit", "bar-context-repeats", "bar-token-kind",
            "bind-pool-exhausted", "rnna-unknown-init"])
    def test_refused_with_its_message(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_unknown_initial_object_reported(self):
        assert [(v.kind, v.detail) for v in validate_category(_CATEGORY)] == [("initial", "initial object 'q' unknown")]

    def test_free_token_printed_bare(self):
        assert print_canonical((("bar",), ("ref", 1), ("free", "a2"))) == "|. ^1 a2"


class TestTermOrderCheck:
    """Both constructors take each state's terms only as a strictly
    increasing tuple: sorted, with no term twice."""

    @staticmethod
    def system_parts():
        c = random_coalgebra(GenSpec(HARNESS_FUNCTORS[2], {DEFAULT_SORT: 2}, 1.0, 3))
        key = (DEFAULT_SORT, "s0")
        assert len(c.xi[key]) > 2
        return c, key

    @pytest.mark.parametrize("bad", ["sorted-list", "unsorted-tuple", "duplicate"])
    @pytest.mark.parametrize("build", ["public", "built"])
    def test_refused_with_one_message(self, bad, build):
        c, key = self.system_parts()
        terms = c.xi[key]
        value = {
            "sorted-list": list(terms),
            "unsorted-tuple": (terms[1], terms[0], *terms[2:]),
            "duplicate": (terms[0], *terms),
        }[bad]
        make = PointedCoalgebra if build == "public" else PointedCoalgebra._built
        with pytest.raises(CoalgError) as err:
            make(c.functor, c.pointing, c.carrier, dict(c.point), {**c.xi, key: value})
        assert str(err.value) == "xi(s0) must be a sorted duplicate-free tuple"


class TestTableKeysCheck:
    """Both constructors refuse a ``point`` table with keys outside the
    pointing and an ``xi`` table with keys outside the carrier, naming the
    extra keys as ``SortedFun`` does."""

    @pytest.mark.parametrize("build", ["public", "built"])
    def test_point_outside_the_pointing(self, build):
        c, _key = TestTermOrderCheck.system_parts()
        make = PointedCoalgebra if build == "public" else PointedCoalgebra._built
        point = {**c.point, (DEFAULT_SORT, "zz"): "s1", (DEFAULT_SORT, "zy"): "s0"}
        with pytest.raises(CoalgError) as err:
            make(c.functor, c.pointing, c.carrier, point, dict(c.xi))
        assert str(err.value) == "pointing defined outside the pointing object: [('*', 'zy'), ('*', 'zz')]"

    @pytest.mark.parametrize("build", ["public", "built"])
    def test_xi_outside_the_carrier(self, build):
        c, _key = TestTermOrderCheck.system_parts()
        make = PointedCoalgebra if build == "public" else PointedCoalgebra._built
        with pytest.raises(CoalgError) as err:
            make(c.functor, c.pointing, c.carrier, dict(c.point), {**c.xi, (DEFAULT_SORT, "q"): ()})
        assert str(err.value) == "structure map defined outside the carrier: [('*', 'q')]"

    @pytest.mark.parametrize("build", ["public", "built"])
    def test_missing_keys_still_refused_first(self, build):
        c, key = TestTermOrderCheck.system_parts()
        make = PointedCoalgebra if build == "public" else PointedCoalgebra._built
        xi = {k: v for k, v in c.xi.items() if k != key}
        with pytest.raises(CoalgError, match="structure map not total"):
            make(c.functor, c.pointing, c.carrier, dict(c.point), {**xi, (DEFAULT_SORT, "q"): ()})


FIXTURES =pathlib.Path(__file__).parent / "fixtures"
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


PARSED_TEXTS = [
    *(p.read_text(encoding="utf-8") for p in sorted(FIXTURES.rglob("*.model"))),
    *open_check_style_texts(30),
]
PARSED_SYSTEMS = [parse_coalgebra(text) for text in PARSED_TEXTS]


class TestTrustedParse:
    """A parsed system skips the constructor's term walk: the parser has
    checked each term against the functor and the carrier as it read it."""

    def test_every_parsed_term_is_well_formed(self):
        assert len(PARSED_SYSTEMS) > 100
        for c in PARSED_SYSTEMS:
            assert set(c.xi) == set(c.carrier.pairs())
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


def model_text(functor_text, states, trans):
    return (f"[functor]\n{functor_text}\n\n[states]\n{states}\n\n[init]\n* -> {states.split()[0]}\n\n[trans]\n"
            + "\n".join(trans) + "\n")


def recursive_parse(text):
    """``parse_coalgebra`` with every ``[init]`` and ``[trans]`` line read
    from its tokens: no node has a flat form, and the ``x -> y`` pattern
    matches no line."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modelio, "_flat_forms", lambda _node: {})
        patch.setattr(modelio, "_PAIR_RE", re.compile("(?!)"))
        return parse_coalgebra(text)


def parse_outcome(parse, text):
    """The system ``parse`` reads from ``text`` with its terms printed, or
    the message and line it refuses ``text`` with."""
    try:
        c = parse(text)
    except CoalgError as exc:
        return str(exc), getattr(exc, "line", None)
    return c, repr(c.xi)


# [trans] lines that the flat route reads, or declines to the recursive parser
FLAT_CASES = {
    "aliases": ("prod(const(a b unit bot), id)", "s unit",
                ["s -> (unit, s)", 's -> ("unit", unit)', 'unit -> (bot, "unit")', "unit -> (a, s)"]),
    "quoted": ("prod(id, id)", 'r "p q"', ['"p q" -> ("p q", r)', 'r -> (r, "p q")']),
    "symbol-and-constant-names": ("analytic{ pair/2 [(1 2)] ; leaf/0 }", "leaf a",
                                  ["leaf -> pair(leaf, a)", "a -> leaf", "leaf -> leaf"]),
    "constant-named-state": ("prod(const(a b), id)", "a b", ["a -> (a, a)", "a -> (b, b)", "b -> (a, b)"]),
    "out-of-order": ("analytic{ pair/2 [(1 2)] ; leaf/0 }", "x y", ["x -> pair(y, x)", "y -> pair(x, y)"]),
}

# a good line, then a bad one: the message and line the parser gave
# before the flat route, which it still gives
BAD_CASES = {
    "trailing-token": ("prod(id, id)", "s t", ["s -> (s, t)", "t -> (s, s) s"], "trailing input after term: 's'"),
    "missing-comma": ("prod(id, id)", "s t", ["s -> (s, t)", "t -> (s s)"], "expected ',', got 's'"),
    "outside-the-carrier": ("prod(id, id)", "s t", ["s -> (s, t)", "t -> (s, u)"],
                            "'u' is not an element of sort '*'"),
    "unknown-state": ("prod(id, id)", "s t", ["s -> (s, t)", "u -> (s, s)"], "unknown element 'u'"),
    "no-arrow": ("prod(id, id)", "s t", ["s -> (s, t)", "t (s, s)"], "expected 'state -> term'"),
    "cut-short": ("prod(id, id)", "s t", ["s -> (s, t)", "t -> (s, t"], "unexpected end of input"),
    "mark-in-a-slot": ("prod(id, id)", "s t", ["s -> (s, t)", "t -> (s, ,)"], "expected a name, got ','"),
    "not-a-constant": ("prod(const(a b), id)", "s t", ["s -> (a, t)", "t -> (c, s)"],
                       "'c' is not one of the constants ('a', 'b')"),
    "constant-in-a-state-slot": ("prod(const(a b), id)", "s t", ["s -> (a, t)", "t -> (a, a)"],
                                 "'a' is not an element of sort '*'"),
    "too-few-arguments": ("analytic{ pair/2 [(1 2)] ; leaf/0 }", "s t", ["s -> leaf", "t -> pair(s)"],
                          "expected ',', got ')'"),
    "arguments-of-a-constant": ("analytic{ pair/2 [(1 2)] ; leaf/0 }", "s t", ["s -> leaf", "t -> leaf(s)"],
                                "trailing input after term: '('"),
    "unknown-symbol": ("analytic{ pair/2 [(1 2)] ; leaf/0 }", "s t", ["s -> leaf", "t -> tri(s, t, s)"],
                       "unknown symbol 'tri'"),
    # a bare run that is no bare name is refused by the tokenizer, though
    # its text is the name of a quoted state
    "bare-name-of-a-quoted-state": ("prod(id, id)", 't "a@b"', ['"a@b" -> (t, t)', "a@b -> (t, t)"],
                                    "unexpected character '@'"),
    "bare-slot-of-a-quoted-state": ("prod(id, id)", 't "a@b"', ['t -> (t, "a@b")', "t -> (t, a@b)"],
                                    "unexpected character '@'"),
    "arrow-in-a-bare-run": ("prod(id, id)", 't "a->b"', ['"a->b" -> (t, t)', "a->b -> (t, t)"],
                            "unknown element 'a'"),
    "extra-slot": ("analytic{ p/1 ; pp/2 [(1 2)] }", "s t", ["s -> p(t)", "t -> p(s, t)"], "expected ')', got ','"),
}

# two sorts whose products have one shape, so one pattern reads the lines
# of both and the state's sort picks the slot sorts
SHARED_SHAPE_TEXT = """[sorts]
P Q

[functor]
P = prod(sort(P), sort(Q))
Q = prod(sort(Q), sort(P))

[states]
P : p q
Q : p r

[init]
* -> P.p

[trans]
P.p -> (q, r)
P.q -> (p,p)
Q.p -> (r, q)
Q.r->(p, q)
"""

# state names as model files write them: bare names holding '-', '.',
# ':' or a glyph, alias words, and quoted names, of which "a@b", "p q" and
# "a->b" are no bare names
EDIT_NAMES = ("s0", "s1", "x-y", "x.y", "x:y", "s✓", "-", "unit", '"bot"', '"p q"', '"a->b"', '"a@b"')
# each functor's flat forms, as the symbol (None for a tuple) and the slot
# kinds: s for a state, c for a constant
EDIT_FUNCTORS = {
    "prod(id, id)": [(None, "ss")],
    "prod(id, id, id)": [(None, "sss")],
    "analytic{ pair/2 [(1 2)] ; tri/3 [(1 2 3)] ; leaf/0 }": [("pair", "ss"), ("tri", "sss"), ("leaf", "")],
    "analytic{ p/1 ; pp/2 [(1 2)] ; leaf/0 }": [("p", "s"), ("pp", "ss"), ("leaf", "")],
    "prod(const(a b unit), id)": [(None, "cs")],
}
EDIT_CONSTANTS = ("a", "b", "unit", UNIT, '"a"')
# what a token edit may put in place of a name or a symbol
EDIT_WORDS = ("bot", "ok", BOT, '"unit"', "P.s0", "zz", "a", "p", "pp", "leaf", "pair", "tri", "in0")


def term_tokens(head, slots, pick):
    """The tokens of a flat term: ``pick(kind)`` names each slot."""
    args = [tok for i, kind in enumerate(slots) for tok in [","] * bool(i) + [pick(kind)]]
    return ([head] if head else []) + (["(", *args, ")"] if slots or head is None else [])


def edit_tokens(tokens, rng):
    """``tokens`` with one token edit: a name quoted or unquoted, replaced
    by another name, an alias word or a symbol, or qualified with a sort;
    a trailing token; a mark dropped; or a slot added."""
    tokens = list(tokens)
    at = rng.randrange(len(tokens))
    tok = tokens[at]
    edit = rng.choice(["quote", "replace", "qualify", "trailing", "drop", "extra-slot"])
    if edit == "quote" and tok not in ("->", "(", ")", ","):
        tokens[at] = tok[1:-1] if tok[0] == '"' else f'"{tok}"'
    elif edit == "replace" and tok not in ("->", "(", ")", ","):
        tokens[at] = rng.choice(EDIT_WORDS + EDIT_NAMES)
    elif edit == "qualify" and tok not in ("->", "(", ")", ","):
        tokens[at:at + 1] = [f"{rng.choice('PQ')}.{tok}"] if tok[0] != '"' else [f"{rng.choice('PQ')}.", tok]
    elif edit == "trailing":
        tokens.append(rng.choice(EDIT_NAMES))
    elif edit == "drop" and tok in ("->", "(", ")", ","):
        del tokens[at]
    elif edit == "extra-slot" and ")" in tokens:
        end = len(tokens) - tokens[::-1].index(")") - 1
        tokens[end:end] = [",", rng.choice(EDIT_NAMES)]
    return tokens


def spell(tokens, rng):
    """A line of ``tokens``: spaced as the writers space it, or with white
    space added or dropped at random between any two tokens, which may
    join two names into one."""
    if rng.random() < 0.5:
        return " ".join(tokens).replace(" ,", ",").replace("( ", "(").replace(" )", ")").replace(" (", "(")
    return "".join(tok + rng.choice(["", "", " ", "  ", "\t"]) for tok in tokens).strip()


def edited_model_texts(count):
    """Open-check-style model files, some over two sorts whose products
    share a shape, each with one to three token edits in its ``[init]``
    or ``[trans]`` lines and each line spaced as :func:`spell` spaces it:
    near misses that the flat patterns must leave to the token route."""
    rng = random.Random("token-edits")
    for _ in range(count):
        functor_text = rng.choice([*EDIT_FUNCTORS, "shared-shape"])
        if functor_text == "shared-shape":
            names = {sort: rng.sample(EDIT_NAMES, rng.randint(1, 4)) for sort in "PQ"}
            head = SHARED_SHAPE_TEXT.split("[states]")[0] + f"[states]\nP : {' '.join(names['P'])}\n"
            head += f"Q : {' '.join(names['Q'])}\n"
            init = ["*", "->", "P." + names["P"][0]]
            trans = [[f"{sort}.{x}", "->", "(", rng.choice(names[sort]), ",", rng.choice(names[other]), ")"]
                     for sort, other in ("PQ", "QP") for x in names[sort]]
        else:
            names = rng.sample(EDIT_NAMES, rng.randint(1, 6))
            head = f"[functor]\n{functor_text}\n\n[states]\n{' '.join(names)}\n"
            init = ["*", "->", names[0]]
            trans = [[x, "->", *term_tokens(*rng.choice(EDIT_FUNCTORS[functor_text]),
                                            lambda kind: rng.choice(EDIT_CONSTANTS if kind == "c" else names))]
                     for x in names for _k in range(2)]
        lines = [init, *trans]
        for _edit in range(rng.randint(1, 3)):
            at = rng.randrange(len(lines))
            lines[at] = edit_tokens(lines[at], rng)
        yield (head + f"\n[init]\n{spell(lines[0], rng)}\n\n[trans]\n"
               + "\n".join(spell(line, rng) for line in lines[1:]) + "\n")


def edited_map_texts(count):
    """Carrier map files between sets named from ``EDIT_NAMES``, over one
    sort or over ``P`` and ``Q``, each with one to three edits: a token
    edit, or a line written twice or left out; and each line spaced as
    :func:`spell` spaces it.  Each comes with its domain and codomain."""
    rng = random.Random("map-edits")
    for _ in range(count):
        sorts = rng.choice([(DEFAULT_SORT,), ("P", "Q")])
        dom, cod = ({sort: rng.sample(EDIT_NAMES, rng.randint(1, 4)) for sort in sorts} for _side in "dc")
        lines = [[x if sorts == (DEFAULT_SORT,) else f"{sort}.{x}", "->", rng.choice(cod[sort])]
                 for sort in sorts for x in dom[sort]]
        for _edit in range(rng.randint(1, 3)):
            at, edit = rng.randrange(len(lines)), rng.random()
            if edit < 0.15:
                lines.insert(at, lines[at])
            elif edit < 0.25 and len(lines) > 1:
                del lines[at]
            else:
                lines[at] = edit_tokens(lines[at], rng)
        yield ("[map]\n" + "\n".join(spell(line, rng) for line in lines) + "\n",
               *(SortedSet.make({sort: [modelio._elem([x], 0, None) for x in side[sort]] for sort in sorts}, sorts)
                 for side in (dom, cod)))


def token_parse_map(text, dom, cod):
    """``parse_map`` with every line read from its tokens: the ``x -> y``
    pattern matches no line."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modelio, "_PAIR_RE", re.compile("(?!)"))
        return modelio.parse_map(text, dom, cod)


def map_outcome(parse, text, dom, cod):
    """The table ``parse`` reads from ``text``, or the message and line it
    refuses ``text`` with."""
    try:
        return parse(text, dom, cod).table
    except CoalgError as exc:
        return str(exc), getattr(exc, "line", None)


def sorted_set(sorts, text):
    """The set a ``[states]`` section of the lines of ``text`` reads as."""
    return modelio._parse_sorted_elems(list(enumerate(text.splitlines(), start=1)), sorts)


TWO_SORTS = ("P", "Q")
# sorts, domain, codomain, the [map] lines, and the table read or the
# message and line of the refusal, which the token route words
MAP_CASES = {
    "spacing-and-quotes": ((DEFAULT_SORT,), 's "p q" unit', 's "p q"', ['s->"p q"', '"p q"  ->  s', "unit -> s"],
                           {("*", "s"): "p q", ("*", "p q"): "s", ("*", UNIT): "s"}),
    "outside-the-codomain": ((DEFAULT_SORT,), "s t", "s", ["s -> s", "t -> t"], ("line 3: unknown element 't'", 3)),
    "bare-name-of-a-quoted-state": ((DEFAULT_SORT,), 't "a@b"', 't "a@b"', ["t -> t", "a@b -> t"],
                                    ("line 3: unexpected character '@'", 3)),
    "bare-image-of-a-quoted-state": ((DEFAULT_SORT,), 't "a@b"', 't "a@b"', ["t -> t", '"a@b" -> a@b'],
                                     ("line 3: unexpected character '@'", 3)),
    "duplicate": ((DEFAULT_SORT,), "s t", "s", ["s -> s", "t -> s", "s -> s"], ("line 4: duplicate image for 's'", 4)),
    "two-sorts": (TWO_SORTS, "P : x y\nQ : x", "P : x\nQ : z", ["P.x -> x", "y -> P.x", "Q.x -> z"],
                  {("P", "x"): "x", ("P", "y"): "x", ("Q", "x"): "z"}),
    "across-sorts": (TWO_SORTS, "P : x\nQ : x", "P : x\nQ : z", ["P.x -> x", "Q.x -> P.x"],
                     ("line 3: image must stay within its sort", 3)),
    "ambiguous": (TWO_SORTS, "P : x\nQ : x", "P : x\nQ : z", ["x -> x"],
                  ("line 2: ambiguous element 'x'; qualify as sort.elem", 2)),
}


class TestFlatRoute:
    """``parse_coalgebra`` reads a ``[trans]`` line whose term is a flat
    product or analytic symbol with no call per token; the system, or
    the refusal, is the one the recursive parser reads."""

    def test_every_parsed_text_agrees_with_the_recursive_parser(self):
        for text in PARSED_TEXTS:
            assert parse_outcome(parse_coalgebra, text) == parse_outcome(recursive_parse, text)

    @pytest.mark.parametrize("case", FLAT_CASES.values(), ids=list(FLAT_CASES))
    def test_hand_case_agrees_with_the_recursive_parser(self, case):
        text = model_text(*case)
        outcome = parse_outcome(parse_coalgebra, text)
        assert isinstance(outcome[0], PointedCoalgebra)
        assert outcome == parse_outcome(recursive_parse, text)

    def test_names_read_as_in_the_recursive_parser(self):
        c = parse_coalgebra(model_text(*FLAT_CASES["aliases"]))
        assert set(c.xi[(DEFAULT_SORT, UNIT)]) == {TupleTerm((ConstElem(BOT), Var(DEFAULT_SORT, UNIT))),
                                                   TupleTerm((ConstElem("a"), Var(DEFAULT_SORT, "s")))}
        assert set(c.xi[(DEFAULT_SORT, "s")]) == {TupleTerm((ConstElem(UNIT), Var(DEFAULT_SORT, "s"))),
                                                  TupleTerm((ConstElem(UNIT), Var(DEFAULT_SORT, UNIT)))}
        c = parse_coalgebra(model_text(*FLAT_CASES["out-of-order"]))
        assert c.xi[(DEFAULT_SORT, "x")] == c.xi[(DEFAULT_SORT, "y")]
        assert c.xi[(DEFAULT_SORT, "x")][0].args == (Var(DEFAULT_SORT, "x"), Var(DEFAULT_SORT, "y"))

    @pytest.mark.parametrize("case", BAD_CASES.values(), ids=list(BAD_CASES))
    def test_refusal_is_the_recursive_parsers(self, case):
        *model, message = case
        text = model_text(*model)
        assert parse_outcome(parse_coalgebra, text) == (f"line 12: {message}", 12)
        assert parse_outcome(recursive_parse, text) == (f"line 12: {message}", 12)

    def test_token_edited_texts_agree_with_the_recursive_parser(self):
        read = 0
        for text in edited_model_texts(400):
            outcome = parse_outcome(parse_coalgebra, text)
            assert outcome == parse_outcome(recursive_parse, text), text
            read += isinstance(outcome[0], PointedCoalgebra)
        # the edits leave many files readable and make many refused
        assert 40 < read < 360

    def test_shared_shape_agrees_with_the_recursive_parser(self):
        outcome = parse_outcome(parse_coalgebra, SHARED_SHAPE_TEXT)
        assert outcome == parse_outcome(recursive_parse, SHARED_SHAPE_TEXT)
        assert outcome[0].xi[("P", "q")] == (TupleTerm((Var("P", "p"), Var("Q", "p"))),)
        assert outcome[0].xi[("Q", "p")] == (TupleTerm((Var("Q", "r"), Var("P", "q"))),)


def term_parses(text):
    """How many times ``_parse_term`` is called while ``text`` is parsed."""
    calls = []
    real = modelio._parse_term

    def counted(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modelio, "_parse_term", counted)
        parse_coalgebra(text)
    return len(calls)


class TestFlatRouteSpy:
    """The flat route is taken where it applies: no ``[trans]`` line of
    an open-check-style model or a flat hand case reaches the recursive
    term parser, and the lines it does not apply to still do.  A route
    that stopped being taken would show in no answer, only in time."""

    def test_flat_lines_skip_the_recursive_parser(self):
        for text in [*open_check_style_texts(10), *(model_text(*case) for case in FLAT_CASES.values())]:
            assert term_parses(text) == 0

    @pytest.mark.parametrize("name", ["check.model", "tree.model", "twosorted.model"],
                             ids=["coproduct", "compose", "multisorted"])
    def test_other_lines_reach_it(self, name):
        assert term_parses((FIXTURES / "compose" / name).read_text(encoding="utf-8")) > 0

    def test_sorts_sharing_a_shape_skip_it(self):
        assert term_parses(SHARED_SHAPE_TEXT) == 0

    def test_a_second_file_of_one_functor_compiles_no_pattern(self, monkeypatch):
        compiled = []
        real = re.compile
        monkeypatch.setattr(re, "compile", lambda *args: compiled.append(args) or real(*args))
        modelio._flat_forms.cache_clear()
        first = parse_coalgebra(model_text(OPEN_CHECK_FUNCTORS[2], "s t", ["s -> pair(s, t)", "t -> leaf"]))
        assert len(compiled) == 3
        # the functor line stands elsewhere, so the second file builds its own functor
        second = parse_coalgebra("\n" + model_text(OPEN_CHECK_FUNCTORS[2], "u", ["u -> tri(u, u, u)"]))
        assert second.functor is not first.functor
        assert len(compiled) == 3
        assert modelio._flat_forms.cache_info().maxsize is not None


class TestPairRoute:
    """``[map]`` and ``[init]`` lines read by the one ``x -> y`` pattern,
    up to the first it misses, take no token list; the table, or the
    refusal, is the one the token route reads."""

    def test_token_edited_maps_agree_with_the_token_route(self):
        read = 0
        for text, dom, cod in edited_map_texts(400):
            outcome = map_outcome(modelio.parse_map, text, dom, cod)
            assert outcome == map_outcome(token_parse_map, text, dom, cod), text
            read += isinstance(outcome, dict)
        assert 40 < read < 360

    @pytest.mark.parametrize("case", MAP_CASES.values(), ids=list(MAP_CASES))
    def test_hand_case(self, case):
        sorts, dom, cod, lines, expected = case
        text = "[map]\n" + "\n".join(lines) + "\n"
        dom, cod = sorted_set(sorts, dom), sorted_set(sorts, cod)
        assert map_outcome(modelio.parse_map, text, dom, cod) == expected
        assert map_outcome(token_parse_map, text, dom, cod) == expected

    def test_init_lines_agree_with_the_token_route(self):
        for init in ["*->s", '"*" -> "p q"', "* -> unit", "s", "* -> s s", "* -> zz", "* -> s\n* -> s", "* -> a@b"]:
            text = f'[functor]\nprod(id, id)\n\n[states]\ns "p q" unit "a@b"\n\n[init]\n{init}\n\n[trans]\n'
            assert parse_outcome(parse_coalgebra, text) == parse_outcome(recursive_parse, text)


def signature(text):
    return modelio._parse_signature(modelio.split_sections(text))


class TestSignatureCache:
    """Files whose ``[sorts]`` and ``[functor]`` sections hold the same
    numbered lines share one functor object, and with it everything kept
    on it; any other difference builds the functor apart."""

    def test_equal_sections_give_one_functor_object(self):
        base = "[functor]\nprod(id, id)\n\n[states]\n"
        one = parse_coalgebra(base + "p q\n\n[init]\n* -> p\n\n[trans]\np -> (p, q)\n")
        two = parse_coalgebra(base + "r\n\n[init]\n* -> r\n\n[trans]\nr -> (r, r)\n")
        assert one.functor is two.functor
        assert one.functor.plus1 is two.functor.plus1
        assert one.functor._memo is two.functor._memo

    def test_one_group_written_two_ways_is_built_apart(self):
        from model_writers import print_model

        texts = [s3_model(gens).replace("t/3", "tri/3").replace("t(", "tri(")
                 for gens in ("(1 2), (1 2 3)", "(1 2), (2 3)")]
        one, two = (parse_coalgebra(text) for text in texts)
        assert one.functor == two.functor
        assert one.functor is not two.functor
        assert [print_model(c) for c in (one, two)] == texts

    def test_sorts_in_another_order_are_another_signature(self):
        lines = "[functor]\na = prod(sort(b), sort(a))\nb = coprod(const(c), sort(a))\n"
        ab, ba = (signature(f"[sorts]\n{sorts}\n\n{lines}") for sorts in ("a b", "b a"))
        assert (ab[0], ba[0]) == (("a", "b"), ("b", "a"))
        assert ab[1].sorts == ("a", "b") and ba[1].sorts == ("b", "a")
        assert ab[1] != ba[1]

    def test_the_same_bad_text_names_its_own_line(self):
        for blank in (0, 3):
            text = "\n" * blank + "[functor]\nprod(id, frob)\n"
            for _again in range(2):
                with pytest.raises(ModelParseError, match=rf"^line {blank + 2}: unknown functor constructor"):
                    signature(text)

    def test_the_cache_is_bounded(self):
        maxsize = modelio._signature.cache_info().maxsize
        assert maxsize is not None
        for k in range(maxsize + 5):
            signature(f"[functor]\nprod({', '.join(['id'] * (k + 1))})\n")
        assert modelio._signature.cache_info().currsize == maxsize


class TestFilledFlatReads:
    """The entries the flat ``[trans]`` table fills from a single-sort
    carrier are what reading each token on an empty table gives."""

    @staticmethod
    def checked(carrier):
        reads = modelio._FlatReads(carrier)
        filled = dict(reads)
        reads.clear()
        for key, hit in filled.items():
            assert reads[key] == hit, key
        return filled

    def test_every_parsed_carrier(self):
        filled = 0
        for c in PARSED_SYSTEMS:
            entries = self.checked(c.carrier)
            if c.carrier.sorts != (DEFAULT_SORT,):
                assert entries == {}
            filled += len(entries)
        assert filled > 500

    def test_aliases_quoted_and_dotted_names(self):
        names = ["bot", "unit", "ok", "p q", "a.b", ".x", "s", "in0", "-"]
        carrier = SortedSet.single([*names, BOT])
        filled = self.checked(carrier)
        # a state named by a glyph reads as itself; the alias words do not
        assert {tok for _slot, tok in filled} == {"a.b", ".x", "s", "in0", "-", BOT}
        assert filled[DEFAULT_SORT, "a.b"] == Var(DEFAULT_SORT, "a.b")
        assert filled[None, "s"] == (DEFAULT_SORT, "s")

    def test_a_multisorted_carrier_fills_nothing(self):
        assert self.checked(SortedSet.make({"a": ["p", "q"], "b": ["p"]}, ("a", "b"))) == {}
        assert self.checked(SortedSet.make({"a": ["p", "q"]}, ("a",))) == {}


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


def scanned_read_elem(tokens, pos, x, line):
    """``modelio._read_elem`` as it read by scanning every sort: the
    reference its per-sort and per-name lookups must agree with."""
    sort, dot, name = modelio._token(tokens, pos, line).partition(".")
    if not (dot and x.sorts != (DEFAULT_SORT,) and sort in x.sorts):
        name = modelio._elem(tokens, pos, line)
        hits = [s for s in x.sorts if x.has(s, name)]
        if len(hits) == 1:
            return (hits[0], name), pos + 1
        if not hits:
            raise ModelParseError(f"unknown element {name!r}", line)
        raise ModelParseError(f"ambiguous element {name!r}; qualify as sort.elem", line)
    if not name:
        pos += 1
        name = modelio._name(tokens, pos, line)
    name = modelio.ALIASES.get(name, name)
    if not x.has(sort, name):
        raise ModelParseError(f"unknown element {name!r} of sort {sort!r}", line)
    return (sort, name), pos + 1


def outcome(call):
    """What ``call`` returns, or the type and text of what it raises."""
    try:
        return call()
    except CoalgError as exc:
        return type(exc), str(exc)


class TestSortLookups:
    """A functor's node per sort and the element reader's sort tests read
    indexes, not scans of every sort; each must answer as the scan did."""

    SORTS = ["a", "b", "c", "d", "e", DEFAULT_SORT]
    NAMES = ["p", "q", "r", "a.p", "b.q", "x y", "⊥"]

    def test_node_matches_a_scan(self):
        rng = random.Random(3)
        for _ in range(40):
            sorts = tuple(rng.sample(self.SORTS, rng.randint(1, 6)))
            # the leaves name sorts of the functor, which refuses any other
            a, b = sorts[0], sorts[-1]
            pool = [SortRef(a), Const(("k",)), Prod((SortRef(a), SortRef(b))), Coprod((Const(("z",)), SortRef(b)))]
            f = multisorted(sorts, {s: rng.choice(pool) for s in sorts})
            for sort in self.SORTS + ["zz"]:
                scan = next((n for s, n in f.nodes if s == sort), None)
                if scan is None:
                    assert outcome(lambda: f.node(sort)) == (TermError, f"no expression for sort {sort!r}")
                else:
                    assert f.node(sort) is scan

    def test_read_elem_matches_a_scan(self):
        rng = random.Random(4)
        texts = [
            *(modelio.format_name(n) for n in self.NAMES),
            *(f"{s}.{modelio.format_name(n)}" for s in self.SORTS + ["zz"] for n in self.NAMES),
            "bot", "a.bot", "a.", "->",
        ]
        agreed = set()
        for _ in range(60):
            sorts = tuple(rng.sample(self.SORTS, rng.randint(1, 5)))
            x = SortedSet.make({s: rng.sample(self.NAMES, rng.randint(0, 4)) for s in sorts}, sorts)
            for text in texts:
                tokens = modelio.tokenize(text, 7)
                got = outcome(lambda: modelio._read_elem(tokens, 0, x, 7))
                assert got == outcome(lambda: scanned_read_elem(tokens, 0, x, 7)), (x, text)
                agreed.add(got[1].split(" '")[0] if got[0] is ModelParseError else "read")
        assert agreed >= {"read", "line 7: unknown element", "line 7: ambiguous element"}

    def test_refusals_through_a_file_name_their_line(self):
        head = "[sorts]\na b\n[functor]\na = sort(b)\nb = sort(a)\n[states]\na : p q\nb : p r\n[init]\n* -> a.p\n[trans]\n"
        for trans, message in [
            ("zz.p -> a.p", "line 12: unknown element 'zz.p'"),
            ("s -> a.p", "line 12: unknown element 's'"),
            ("p -> a.p", "line 12: ambiguous element 'p'; qualify as sort.elem"),
            ("a.r -> b.p", "line 12: unknown element 'r' of sort 'a'"),
        ]:
            with pytest.raises(ModelParseError, match=f"^{re.escape(message)}$"):
                parse_coalgebra(head + trans + "\n")

    def test_the_name_index_is_built_on_a_read_of_many_sorts_alone(self):
        one = parse_coalgebra("[functor]\nprod(id, id)\n[states]\np q\n[init]\np\n[trans]\np -> (p, q)\n")
        two = parse_coalgebra("[sorts]\na b\n[functor]\na = sort(b)\nb = sort(a)\n[states]\na : p\nb : q\n"
                              "[init]\n* -> a.p\n[trans]\np -> q\n")
        assert "_sorts_of" not in vars(one.carrier) and "_sorts_of" not in vars(one.pointing)
        assert vars(two.carrier)["_sorts_of"] == {"p": ["a"], "q": ["b"]}
        assert "_sorts_of" not in vars(SortedSet.make({"a": ["p"], "b": ["p"]}, ("a", "b")))


class TestSortedSetPairs:
    """The pairs and size a set keeps against a walk of its data, sort by
    sort, for every way a set is built."""

    @staticmethod
    def walked(x):
        out = []
        for i, sort in enumerate(x.sorts):
            for e in x.data[i]:
                out.append((sort, e))
        return out

    @staticmethod
    def sets():
        wide = [f"n{i:03d}" for i in range(1002)]  # n1000 sorts before n101
        yield SortedSet.make({"b": ["q", "p"], "a": [], "c": ["r"]}, ("b", "a", "c"))
        yield SortedSet.make({DEFAULT_SORT: wide})
        yield SortedSet.single(["s2", "s0", "s1"])
        yield SortedSet.single([])
        yield SortedSet._built(("x", "y"), (tuple(sorted(wide[995:])), ()))
        yield SortedSet._built(("y", "x", "z"), (("p",), (), tuple(sorted(wide[::97]))))
        full = SortedSet.make({"a": ["p", "q", "r"], "b": ["p", "s"], "c": ["t"]}, ("a", "b", "c"))
        yield full
        yield full.restrict([("a", "q"), ("c", "t"), ("b", "s")])
        yield full.restrict([("b", "p")])
        rng = random.Random(7)
        for _ in range(20):
            sorts = tuple(rng.sample(["a", "b", "c", DEFAULT_SORT], rng.randint(1, 4)))
            yield SortedSet.make({s: rng.sample(wide, rng.randint(0, 5)) for s in sorts}, sorts)

    def test_pairs_and_size_match_a_walk(self):
        for x in self.sets():
            assert list(x.pairs()) == self.walked(x)
            assert x.size() == len(self.walked(x))


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
        fmap(f, identity_map(SortedSet.single(["p"])), DEFAULT_SORT, t)
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
        whole, partial = identity_map(x), SortedFun(SortedSet.single(["q"]), x, {(DEFAULT_SORT, "q"): "q"})
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
