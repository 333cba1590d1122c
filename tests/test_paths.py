import gc
import itertools
import pathlib
import weakref

import pytest

from coalgpath import cli, paths
from coalgpath.cli import run_command
from coalgpath.coalgebra import CoalgMorphism, GenSpec, PointedCoalgebra, is_lax_hom, random_coalgebra
from coalgpath.functors import (
    Analytic,
    Const,
    ConstElem,
    Coprod,
    Inj,
    Prod,
    SortRef,
    Symbol,
    TupleTerm,
    UNIT_TERM,
    bot_of_plus1,
    functor,
    multisorted,
    plus1,
    step_of_plus1,
    strip_plus1,
    subst_node,
)
from coalgpath.groups import PermGroup
from coalgpath.modelio import parse_coalgebra, parse_functor_text, print_term_for
from coalgpath.precise import TermMap, precise_chains
from coalgpath.paths import (
    CompValue,
    PathObj,
    Run,
    all_path_morphisms,
    comp,
    comps_are_words,
    enumerate_runs,
    find_path_morphism,
    is_run,
    j_embed,
    make_comp_value,
    make_path,
    morphism_to_lax,
    path_from_comp,
    pathord_le,
    step_letter,
    validate_path,
)
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet

from conftest import linear_word_system, single, symmetric_group, trace_pairs, var, whyplus1_system
from oracles import (
    brute_path_morphisms,
    comp_as_word,
    factorized_runs,
    fresh_comp,
    is_bijective,
    is_path_morphism,
    recursive_print_term_for,
    run_image,
)

BOT = chr(0x22A5)


def fig3_functor():
    sig = Analytic(
        (
            Symbol("b", (SortRef(), SortRef()), PermGroup(2)),
            Symbol("c", (), PermGroup(0)),
            Symbol("u", (SortRef(),), PermGroup(1)),
        )
    )
    return functor(sig)


def an(name, *args):
    return Inj(0, _ansym(name, args))


def _ansym(name, args):
    from coalgpath.functors import ansym

    return ansym(PermGroup(len(args)), name, tuple(args))


def fig3_path() -> PathObj:
    f = fig3_functor()
    levels = [
        single(["*"]),
        single(["s01", "s02"]),
        single(["s11", "s12", "s13"]),
        single(["s21", "s22", "s23"]),
        single(["s41", "s42"]),
    ]
    steps = [
        {(DEFAULT_SORT, "*"): an("b", var("s01"), var("s02"))},
        {
            (DEFAULT_SORT, "s01"): an("b", var("s11"), var("s12")),
            (DEFAULT_SORT, "s02"): an("u", var("s13")),
        },
        {
            (DEFAULT_SORT, "s11"): an("u", var("s21")),
            (DEFAULT_SORT, "s12"): an("b", var("s22"), var("s23")),
            (DEFAULT_SORT, "s13"): an("c"),
        },
        {
            (DEFAULT_SORT, "s21"): an("c"),
            (DEFAULT_SORT, "s22"): an("b", var("s41"), var("s42")),
            (DEFAULT_SORT, "s23"): an("c"),
        },
    ]
    return make_path(f, levels, steps)


def word_path(word: str, length: int) -> PathObj:
    """The LTS path for a word padded with the added point to ``length``."""
    f = functor(Prod((Const(("a", "b")), SortRef())))
    levels = [single(["*"])]
    steps = []
    current = "*"
    for k in range(length):
        if k < len(word):
            nxt = f"n{k}"
            levels.append(single([nxt]))
            steps.append({(DEFAULT_SORT, current): step_of_plus1(TupleTerm((ConstElem(word[k]), var(nxt))))})
            current = nxt
        else:
            levels.append(single([]))
            if k == len(word):
                steps.append({(DEFAULT_SORT, current): bot_of_plus1()})
            else:
                steps.append({})
    return make_path(f, levels, steps)


class TestValidatePath:
    def test_length_zero_ok(self):
        f = fig3_functor()
        p = make_path(f, [single(["*"])], [])
        assert validate_path(p) == []

    def test_fig3_ok(self):
        assert validate_path(fig3_path()) == []

    def test_fig2_nonprecise_level_reported(self):
        inner = functor(Prod((SortRef(), SortRef())))
        levels = [single(["x1", "x2", "x3", "x4"]), single(["y1", "y2", "y3", "y4"])]

        def pr(a, b):
            return step_of_plus1(TupleTerm((var(a), var(b))))

        steps = [
            {
                (DEFAULT_SORT, "x1"): bot_of_plus1(),
                (DEFAULT_SORT, "x2"): pr("y1", "y2"),
                (DEFAULT_SORT, "x3"): pr("y2", "y2"),
                (DEFAULT_SORT, "x4"): bot_of_plus1(),
            }
        ]
        p = make_path(inner, levels, steps)
        problems = validate_path(p)
        assert problems and "step 0" in problems[0]


class TestComp:
    def test_word_with_padding(self):
        p = word_path("ab", 3)
        assert comp_as_word(comp(p)) == "ab" + BOT

    def test_length_zero_unit(self):
        f = fig3_functor()
        p = make_path(f, [single(["*"])], [])
        value = comp(p)
        assert value.depth == 0
        assert value.values == (((DEFAULT_SORT, "*"), UNIT_TERM),)

    def test_fig3_tree(self):
        value = comp(fig3_path())
        rendered = repr(value.value(DEFAULT_SORT, "*"))
        assert rendered == (
            "in0(b(in0(b(in0(u(in0(c))), in0(b(in0(b(•, •)), in0(c))))), in0(u(in0(c)))))"
        )
        assert value.depth == 4

    def test_monotone_under_morphisms(self):
        p = word_path("a", 1)
        q = word_path("ab", 2)
        m = find_path_morphism(p, q)
        assert m is not None
        assert pathord_le(comp(p), comp(q))


class TestPathOrd:
    def test_reflexive(self):
        u = comp(word_path("ab", 3))
        assert pathord_le(u, u)

    def test_padded_word_prefix(self):
        u = comp(word_path("ab", 3))
        v = comp(word_path("ab", 4))
        assert pathord_le(u, v)
        assert not pathord_le(v, u)

    def test_different_letters_incomparable(self):
        u = comp(word_path("a", 1))
        v = comp(word_path("b", 2))
        assert not pathord_le(u, v)

    def test_depth_blocks(self):
        u = comp(word_path("ab", 2))
        v = comp(word_path("a", 1))
        assert not pathord_le(u, v)


def all_comp_values(f, depth):
    """All ground (F+1)^d(1) values over the binary-pair signature."""
    if depth == 0:
        return [UNIT_TERM]
    smaller = all_comp_values(f, depth - 1)
    out = [bot_of_plus1()]
    for a, b in itertools.product(smaller, repeat=2):
        out.append(Inj(0, TupleTerm((a, b))))
    return sorted(set(out))


class TestPathFromComp:
    def test_word_roundtrip(self):
        u = comp(word_path("ab", 3))
        p = path_from_comp(u)
        assert validate_path(p) == []
        assert comp(p) == u

    def test_depth_zero(self):
        f = functor(Prod((SortRef(), SortRef())))
        u = make_comp_value(f, single(["*"]), 0, {(DEFAULT_SORT, "*"): UNIT_TERM})
        p = path_from_comp(u)
        assert p.length == 0

    def test_exhaustive_binary_roundtrip(self):
        f = functor(Prod((SortRef(), SortRef())))
        for depth in range(4):
            for t in all_comp_values(f, depth):
                u = make_comp_value(f, single(["*"]), depth, {(DEFAULT_SORT, "*"): t})
                p = path_from_comp(u)
                assert validate_path(p) == []
                assert comp(p) == u


class TestPathMorphisms:
    def test_identity(self):
        p = fig3_path()
        m = find_path_morphism(p, p)
        assert m is not None
        assert is_path_morphism(m)
        assert all(c.table == SortedFun.identity(p.levels[k]).table for k, c in enumerate(m.components))

    def test_paths_out_of_different_pointings_refused(self):
        f = fig3_functor()
        p, q = make_path(f, [single(["*"])], []), make_path(f, [single(["q"])], [])
        with pytest.raises(CoalgError, match="different functors or pointings"):
            find_path_morphism(p, q)

    def test_prefix_inclusion(self):
        p = word_path("a", 1)
        q = word_path("ab", 3)
        m = find_path_morphism(p, q)
        assert m is not None and is_path_morphism(m)

    def test_incomparable_gives_none(self):
        assert find_path_morphism(word_path("a", 1), word_path("b", 2)) is None

    def test_existence_matches_pathord(self):
        paths = [word_path(w, n) for w in ("", "a", "b", "ab", "ba") for n in (len(w), len(w) + 1)]
        for p, q in itertools.product(paths, repeat=2):
            if p.length > q.length:
                continue
            exists = find_path_morphism(p, q) is not None
            assert exists == pathord_le(comp(p), comp(q))

    def test_bag_functor_admits_two_morphisms(self):
        f = functor(Analytic((Symbol("pair", (SortRef(), SortRef()), symmetric_group(2)),)))
        from coalgpath.functors import ansym

        level1 = single(["v1", "v2"])
        step = {(DEFAULT_SORT, "*"): step_of_plus1(ansym(symmetric_group(2), "pair", (var("v1"), var("v2"))))}
        p = make_path(f, [single(["*"]), level1], [step])
        morphisms = list(all_path_morphisms(p, p))
        assert len(morphisms) == 2  # the identity and the swap
        assert all(is_path_morphism(m) for m in morphisms)

    def test_only_bijections_are_components(self):
        # q's step is not precise: renaming u and v to a maps p's step onto
        # it, but no bijection does
        f = functor(Prod((SortRef(), SortRef())))
        start = single(["*"])

        def path(level, x, y):
            step = {(DEFAULT_SORT, "*"): step_of_plus1(TupleTerm((var(x), var(y))))}
            return make_path(f, [start, single(level)], [step])

        assert list(all_path_morphisms(path(["u", "v"], "u", "v"), path(["a", "b"], "a", "a"))) == []

    def test_components_are_isomorphisms(self):
        p = word_path("ab", 2)
        q = word_path("ab", 3)
        m = find_path_morphism(p, q)
        assert m is not None
        assert all(is_bijective(c) for c in m.components)


# the product, the symmetric pair/leaf tree, a cyclic ternary symbol and
# a symmetric pair over composite slots
MORPHISM_FUNCTORS = {
    "prod": "prod(id, id)",
    "pair-leaf": "analytic{ pair/2 [(1 2)] ; leaf/0 }",
    "cyclic": "analytic{ t/3 [(1 2 3)] ; leaf/0 }",
    "pair-of-coprods": "compose(analytic{ pair/2 [(1 2)] }, coprod(const(c), id))",
}


def _family(m) -> tuple:
    return tuple(tuple(sorted(c.table.items())) for c in m.components)


class TestPathMorphismsAgainstBruteForce:
    @pytest.mark.parametrize("text", MORPHISM_FUNCTORS.values(), ids=MORPHISM_FUNCTORS.keys())
    def test_every_family_once(self, text):
        f = functor(parse_functor_text(text))
        start = single(["*"])
        paths = [
            PathObj(f, levels, chain)
            for chain in precise_chains(plus1(f), start, 2)
            for levels in [(start, *[step.cod for step in chain])]
            if all(level.size() <= 4 for level in levels)
        ]
        found = 0
        for p, q in itertools.product(paths, repeat=2):
            families = [_family(m) for m in all_path_morphisms(p, q)]
            assert len(families) == len(set(families))
            assert set(families) == {_family(m) for m in brute_path_morphisms(p, q)}
            found += len(families)
        assert found > len(paths)  # more morphisms than the identities


class TestEmbedding:
    def test_word_system(self):
        p = word_path("ab", 3)
        c = j_embed(p)
        assert c.carrier.size() == 3  # the empty padding levels add nothing
        edges = {(x, t.args[0].name, t.args[1].name) for (_s, x), ts in c.xi.items() for t in ts}
        assert edges == {("0:*", "a", "1:n0"), ("1:n0", "b", "2:n1")}

    def test_length_zero_is_initial_object(self):
        f = fig3_functor()
        p = make_path(f, [single(["*"])], [])
        c = j_embed(p)
        assert c.carrier.size() == 1
        assert c.xi[(DEFAULT_SORT, "0:*")] == ()
        assert c.point[(DEFAULT_SORT, "*")] == "0:*"

    def test_fig3_eleven_states(self):
        c = j_embed(fig3_path())
        assert c.carrier.size() == 11
        transitions = sum(len(v) for v in c.xi.values())
        # every non-final level element carries exactly one step term
        assert transitions == 1 + 2 + 3 + 3

    def test_path_morphism_induces_lax_hom(self):
        p = word_path("a", 1)
        q = word_path("ab", 2)
        pm = find_path_morphism(p, q)
        assert pm is not None
        m = morphism_to_lax(pm)
        assert is_lax_hom(m)


class TestRuns:
    def test_linear_word_runs(self):
        c = linear_word_system("ab", "ab")
        words = set()
        for p, r in enumerate_runs(c, 2):
            assert is_run(r)
            w = comp_as_word(comp(p))
            words.add(w)
        assert words == {"", BOT, BOT * 2, "a", "a" + BOT, "ab"}

    def test_no_transition_blocks_nonbot_level(self):
        c = linear_word_system("ab", "")
        for p, r in enumerate_runs(c, 2):
            # only bottom steps are possible
            for step in p.steps:
                assert all(strip_plus1(t) is None for t in step.table.values())

    def test_whyplus1_depth2_reaches_z(self):
        c = whyplus1_system()
        reached = set()
        for _p, r in enumerate_runs(c, 2):
            reached |= {e for _s, e in run_image(r)}
        assert reached == {"x0", "y1", "y2", "z1", "z2"}

    def test_whyplus1_without_bot_stops(self):
        c = whyplus1_system()
        reached = {e for _p, r in factorized_runs(c, 2, allow_bot=False) for _s, e in run_image(r)}
        assert "z1" not in reached and "z2" not in reached

    def test_run_components_respect_transitions(self):
        c = whyplus1_system()
        runs = list(enumerate_runs(c, 3))
        assert all(is_run(r) for _p, r in runs)

    def test_run_transfer_along_lax_hom(self):
        src = linear_word_system("ab", "ab")
        dst = linear_word_system("ab", "abb")
        table = {(DEFAULT_SORT, f"q{i}"): f"q{i}" for i in range(3)}
        m = CoalgMorphism(src, dst, SortedFun(src.carrier, dst.carrier, table))
        assert is_lax_hom(m)
        for p, r in enumerate_runs(src, 2):
            pushed = Run(
                p,
                dst,
                tuple(
                    SortedFun(p.levels[k], dst.carrier,
                              {key: m.map(key[0], c_k(*key)) for key in p.levels[k].pairs()})
                    for k, c_k in enumerate(r.components)
                ),
            )
            assert is_run(pushed)

    def test_broken_run_detected(self):
        c = linear_word_system("ab", "ab")
        p = word_path("ab", 2)
        bad = Run(
            p,
            c,
            (
                SortedFun(p.levels[0], c.carrier, {(DEFAULT_SORT, "*"): "q0"}),
                SortedFun(p.levels[1], c.carrier, {(DEFAULT_SORT, "n0"): "q2"}),
                SortedFun(p.levels[2], c.carrier, {(DEFAULT_SORT, "n1"): "q1"}),
            ),
        )
        assert not is_run(bad)


# systems for the level-construction oracle: (name, functor, carrier
# sizes, depth); the depth keeps each enumeration to a few thousand runs
_CHECK = chr(0x2713)
ORACLE_SYSTEMS = [
    ("lts", functor(Prod((Const(("a", "b")), SortRef()))), {DEFAULT_SORT: 3}, 5),
    ("lts-check", functor(Coprod((Prod((Const(("a", "b")), SortRef())), Const((_CHECK,))))), {DEFAULT_SORT: 3}, 4),
    ("pair", functor(Prod((SortRef(), SortRef()))), {DEFAULT_SORT: 2}, 3),
    (
        "sym-tree",
        functor(Analytic((
            Symbol("pair", (SortRef(), SortRef()), symmetric_group(2)),
            Symbol("leaf", (), PermGroup(0)),
        ))),
        {DEFAULT_SORT: 3},
        3,
    ),
    (
        "two-sorted",
        multisorted(("a", "b"), {"a": Prod((SortRef("b"), SortRef("a"))), "b": Coprod((Const(("c",)), SortRef("a")))}),
        {"a": 2, "b": 2},
        4,
    ),
]


def _never_stops(p: PathObj) -> bool:
    """Whether no step of ``p`` chooses the added point."""
    return all(step(*key) != bot_of_plus1() for step, level in zip(p.steps, p.levels) for key in level.pairs())


class TestRunLevelsAgainstFactorization:
    """``enumerate_runs`` builds each next level in one pass; the oracle
    factorizes each choice map and renames its codomain.  Without the
    added point, the oracle's runs (from which the acceptance suite reads
    the notion without it) are those of ``enumerate_runs`` that never
    choose it, in the same order."""

    @pytest.mark.parametrize("allow_bot", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "name, f, sizes, depth", ORACLE_SYSTEMS, ids=[case[0] for case in ORACLE_SYSTEMS]
    )
    def test_same_runs_as_factorize_then_rename(self, name, f, sizes, depth, seed, allow_bot):
        c = random_coalgebra(GenSpec(f, sizes, 0.4, seed))
        as_words = comps_are_words(c.functor, c.pointing)
        runs = enumerate_runs(c, depth)
        got = itertools.islice(runs if allow_bot else (pair for pair in runs if _never_stops(pair[0])), 3000)
        want = itertools.islice(factorized_runs(c, depth, allow_bot), 3000)
        count = 0
        for pair, expected in itertools.zip_longest(got, want):
            assert pair is not None and expected is not None
            (p, r), (p_want, r_want) = pair, expected
            assert p.levels == p_want.levels
            assert p.steps == p_want.steps
            assert r.components == r_want.components
            if as_words:
                assert "".join(step_letter(p, k) for k in range(p.length)) == comp_as_word(comp(p))
            count += 1
        assert count > 1

    def test_wide_product_names_positions_in_string_order(self):
        # eleven slots, so the position (*;0.10) sorts before (*;0.2)
        slots = tuple(var(f"s{i % 2}") for i in range(11))
        c = PointedCoalgebra(
            functor(Prod((SortRef(),) * 11)),
            single(["*"]),
            single(["s0", "s1"]),
            {(DEFAULT_SORT, "*"): "s0"},
            {(DEFAULT_SORT, "s0"): (TupleTerm(slots),), (DEFAULT_SORT, "s1"): ()},
        )
        # the root, s0 stopping at the added point, s0 taking its term
        [_, _, (p, r)] = enumerate_runs(c, 1)
        [_, _, (p_want, r_want)] = factorized_runs(c, 1)
        assert (p.levels, p.steps, r.components) == (p_want.levels, p_want.steps, r_want.components)
        names = [f"n{i:03d}" for i in (0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 2)]
        assert p.steps[0](DEFAULT_SORT, "*") == step_of_plus1(TupleTerm(tuple(var(n) for n in names)))
        assert [r.components[1](DEFAULT_SORT, n) for n in names] == [f"s{i % 2}" for i in range(11)]

    def test_shared_point_names_enumerate_alike(self):
        # level-0 elements named p in both sorts both put a variable of
        # sort a at position 0.0: each position is named after its
        # element's sort, (a.p;0.0) and (b.p;0.0), so both enumerations
        # succeed and agree
        f = multisorted(("a", "b"), {"a": Prod((SortRef("a"), SortRef("b"))), "b": Prod((SortRef("a"), SortRef("a")))})
        pointing = SortedSet.make({"a": ["p"], "b": ["p"]}, ("a", "b"))
        c = random_coalgebra(GenSpec(f, {"a": 1, "b": 1}, 1.0, 0, pointing))
        got = [(p.levels, p.steps, r.components) for p, r in enumerate_runs(c, 2)]
        want = [(p.levels, p.steps, r.components) for p, r in factorized_runs(c, 2)]
        assert got == want
        assert len(got) > 1


COMPOSE = pathlib.Path(__file__).parent / "fixtures" / "compose"


class TestRunChildrenBuiltOnce:
    """The steps out of a level of at most one element are built once per
    (level, state) in a call; a wider level builds its steps on every
    visit."""

    @staticmethod
    def count_steps(monkeypatch, c, depth):
        built = []

        class CountingTermMap(paths.TermMap):
            __slots__ = ()

            # enumerate_runs builds its steps through the trusted route
            @classmethod
            def _built(cls, dom, *args):
                built.append(dom.size())
                return super()._built(dom, *args)

        monkeypatch.setattr(paths, "TermMap", CountingTermMap)
        return built, list(enumerate_runs(c, depth))

    def test_word_levels_build_each_step_once(self, monkeypatch):
        c = parse_coalgebra((COMPOSE / "trace_enum_lts.model").read_text(encoding="utf-8"))
        built, pairs = self.count_steps(monkeypatch, c, 6)
        keys = {
            (p.levels[-1], tuple((s, r.components[-1](s, e)) for s, e in p.levels[-1].pairs()))
            for p, r in pairs
            if p.length < 6
        }
        assert all(level.size() <= 1 for level, _states in keys)
        assert len(pairs) == 1636
        assert len(built) <= len(keys) * (1 + max(len(ts) for ts in c.xi.values()))

    def test_wide_levels_build_their_steps_on_every_visit(self, monkeypatch):
        c = parse_coalgebra((COMPOSE / "trace_enum_tree.model").read_text(encoding="utf-8"))
        built, pairs = self.count_steps(monkeypatch, c, 3)
        wide_steps = [p for p, _r in pairs if p.length and p.steps[-1].dom.size() > 1]
        assert wide_steps
        assert sum(size > 1 for size in built) == len(wide_steps)

    @pytest.mark.parametrize("model, depth, wide", [
        ("trace_enum_tree.model", 3, True),
        ("trace_enum_lts.model", 4, False),
        ("twosorted.model", 3, True),
    ])
    def test_runs_text_keeps_no_component_of_a_wide_level(self, monkeypatch, model, depth, wide):
        """The runs verb keeps the text of a run component, with the
        component, only where enumerate_runs shares it: its level and the
        level before hold at most one element each.  Once the pairs are
        spent, no other component outlives its run."""
        made = []  # per pair: its last component, weakly, and the sizes of its last two levels
        kept = []

        class TrackedFun(paths.SortedFun):
            __slots__ = ("__weakref__",)

        def spying(c, d):
            pairs = enumerate_runs(c, d)
            first = next(pairs)
            yield first
            for path, run in pairs:
                n = path.length
                made.append((weakref.ref(run.components[n]), (path.levels[n - 1].size(), path.levels[n].size())))
                yield path, run
            # the first pair again, so the verb's loop lets go of the last
            del path, run
            yield first
            gc.collect()
            kept.extend(sizes for ref, sizes in made if ref() is not None)

        monkeypatch.setattr(paths, "SortedFun", TrackedFun)
        monkeypatch.setattr(cli, "enumerate_runs", spying)
        _text, code = run_command(["runs", str(COMPOSE / model), "--depth", str(depth)])
        assert code == 0
        assert any(max(sizes) > 1 for _ref, sizes in made) == wide
        assert kept and all(max(sizes) <= 1 for sizes in kept)


# one model per functor shape the runs verb prints terms for: a symmetric
# pair, a ternary symmetric bag, two sorts, and a word sort beside a tree sort
MEMO_CASES = [("trace_enum_tree.model", 3), ("bag.model", 2), ("twosorted.model", 3), ("mixed.model", 2)]


class TestInternedComp:
    """``comp`` interns each value under its sort, its step term and the
    ids of its leaves' values, and ``print_term_for`` prints each
    interned value once per memo; over every run of a call both agree
    with building and printing each composite from scratch."""

    @pytest.mark.parametrize("model, depth", MEMO_CASES)
    def test_interned_comp_and_memo_printer_match_the_oracles(self, monkeypatch, model, depth):
        c = parse_coalgebra((COMPOSE / model).read_text(encoding="utf-8"))
        fp1 = plus1(c.functor)
        built = []

        def counting_subst(*args):
            built.append(args)
            return subst_node(*args)

        monkeypatch.setattr(paths, "subst_node", counting_subst)
        values, texts = {}, {}
        pairs = list(enumerate_runs(c, depth))
        for path, _run in pairs:
            got = comp(path, values)
            assert got == fresh_comp(path)
            for (s, _i), t in got.values:
                text = print_term_for(fp1, s, t, texts)
                assert text == print_term_for(fp1, s, t) == recursive_print_term_for(fp1, s, t)
        # each interned value was built once, fewer than the values built
        # from scratch, and building every composite again builds nothing
        # and gives the same objects
        fresh = sum(path.levels[k].size() for path, _run in pairs for k in range(path.length))
        interned = sum(len(by_ids) for _leaves, by_ids in values.values())
        assert len(built) == interned < fresh
        size = len(texts)
        for path, _run in pairs:
            again = comp(path, values)
            assert all(a is b for (_k, a), (_k2, b) in zip(again.values, comp(path, values).values))
            for (s, _i), t in again.values:
                print_term_for(fp1, s, t, texts)
        assert len(built) == interned
        assert len(texts) == size


class TestTrustedRunParts:
    """``enumerate_runs`` builds its levels, steps and run components
    through the trusted constructors; each equals what the checking
    constructors build from its fields, and the pairs are runs."""

    @staticmethod
    def assert_parts_check(pairs):
        for path, run in pairs:
            assert validate_path(path) == [] and is_run(run)
            if not path.length:
                continue
            level, step, x_n = path.levels[-1], path.steps[-1], run.components[-1]
            made = SortedSet.make({s: level.elems(s) for s in level.sorts}, level.sorts)
            assert (level.sorts, level.data, level._members) == (made.sorts, made.data, made._members)
            assert step == TermMap(step.dom, step.functor, step.cod, step.table)
            assert x_n == SortedFun(x_n.dom, x_n.cod, x_n.table)

    @pytest.mark.parametrize("model, depth", MEMO_CASES)
    def test_trusted_parts_pass_the_checks(self, model, depth):
        c = parse_coalgebra((COMPOSE / model).read_text(encoding="utf-8"))
        self.assert_parts_check(enumerate_runs(c, depth))

    def test_fresh_names_past_n999_sort_as_strings(self):
        # 1001 slots: the names n000 .. n1000 sort with n1000 before n101
        width = 1001
        c = PointedCoalgebra(
            functor(Prod((SortRef(),) * width)),
            single(["*"]),
            single(["s0"]),
            {(DEFAULT_SORT, "*"): "s0"},
            {(DEFAULT_SORT, "s0"): (TupleTerm((var("s0"),) * width),)},
        )
        pairs = list(enumerate_runs(c, 1))
        self.assert_parts_check(pairs)
        [_, _, (p, r)] = pairs
        [_, _, (p_want, r_want)] = factorized_runs(c, 1)
        assert (p.levels, p.steps, r.components) == (p_want.levels, p_want.steps, r_want.components)
        elems = p.levels[1].elems(DEFAULT_SORT)
        assert elems.index("n1000") == elems.index("n100") + 1 == elems.index("n101") - 1


class TestEmbeddingIntegration:
    """The embedded path systems behave like the linear systems they draw."""

    def test_embedded_paths_are_path_reachable(self):
        from coalgpath.openmap import is_path_reachable

        for p in (word_path("ab", 2), word_path("a", 2), fig3_path()):
            assert is_path_reachable(j_embed(p))

    def test_prefix_inclusion_is_lax_but_not_open(self):
        from coalgpath.openmap import is_open
        from coalgpath.coalgebra import is_strict_hom

        p = word_path("a", 1)
        q = word_path("ab", 2)
        pm = find_path_morphism(p, q)
        m = morphism_to_lax(pm)
        assert is_lax_hom(m)
        assert not is_strict_hom(m)  # the target extends the word
        report = is_open(m, m.src.carrier.size() + 1)
        assert not report.is_open

    def test_embedding_traces_are_the_comp_prefixes(self):
        from coalgpath.trace import trace

        p = word_path("ab", 2)
        c = j_embed(p)
        flat = {t for _d, t in trace_pairs(trace(c, 2))}
        words = set()
        for t in flat:
            word = []
            cur = t
            while not isinstance(cur, UNIT_TERM.__class__):
                word.append(cur.args[0].name)
                cur = cur.args[1]
            words.add("".join(word))
        assert words == {"", "a", "ab"}
