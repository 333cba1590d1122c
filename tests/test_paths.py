import gc
import itertools
import pathlib
import random
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
    Var,
    bot_of_plus1,
    functor,
    map_leaves,
    multisorted,
    step_of_plus1,
)
from coalgpath.groups import PermGroup
from coalgpath.modelio import parse_coalgebra, parse_functor_text, print_term_for
from coalgpath.precise import precise_chains
from coalgpath.paths import comp, comps_are_words, enumerate_runs
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet

from conftest import (
    HARNESS_FUNCTORS,
    MULTISORTED,
    identity_map,
    is_path_reachable,
    linear_word_system,
    single,
    symmetric_group,
    trace_pairs,
    var,
    whyplus1_system,
)
from model_writers import print_coalgebra
from oracles import (
    PathObj,
    Run,
    all_path_morphisms,
    brute_path_morphisms,
    comp_as_word,
    factorized_runs,
    find_path_morphism,
    fresh_comp,
    is_bijective,
    is_path_morphism,
    is_run,
    j_embed,
    make_path,
    morphism_to_lax,
    path_from_comp,
    path_comp,
    path_runs,
    pathord_le,
    record_pair,
    recursive_print_term_for,
    reference_runs,
    reference_word_runs,
    run_image,
    step_letter,
    strip_plus1,
    validate_path,
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

    def test_level_count_mismatch_reported(self):
        p = word_path("ab", 2)
        assert validate_path(PathObj(p.functor, p.levels[:-1], p.steps)) == ["level/step count mismatch"]

    def test_step_out_of_another_level_reported(self):
        p = word_path("ab", 2)
        moved = PathObj(p.functor, (single(["x"]), *p.levels[1:]), p.steps)
        assert validate_path(moved) == ["step 0 has wrong domain"]

    def test_term_outside_the_next_level_reported(self):
        p = word_path("a", 1)
        stray = {(DEFAULT_SORT, "*"): step_of_plus1(TupleTerm((ConstElem("a"), var("zz"))))}
        assert validate_path(make_path(p.functor, p.levels, [stray])) == ["step 0: ill-formed term at *"]


class TestComp:
    def test_word_with_padding(self):
        p = word_path("ab", 3)
        assert comp_as_word(p) == "ab" + BOT

    def test_length_zero_unit(self):
        f = fig3_functor()
        p = make_path(f, [single(["*"])], [])
        assert path_comp(p) == (((DEFAULT_SORT, "*"), UNIT_TERM),)

    def test_fig3_tree(self):
        [((_s, point), value)] = path_comp(fig3_path())
        assert point == "*"
        assert repr(value) == (
            "in0(b(in0(b(in0(u(in0(c))), in0(b(in0(b(•, •)), in0(c))))), in0(u(in0(c)))))"
        )

    def test_monotone_under_morphisms(self):
        p = word_path("a", 1)
        q = word_path("ab", 2)
        m = find_path_morphism(p, q)
        assert m is not None
        assert pathord_le(p, q)


class TestPathOrd:
    def test_reflexive(self):
        p = word_path("ab", 3)
        assert pathord_le(p, p)

    def test_padded_word_prefix(self):
        p = word_path("ab", 3)
        q = word_path("ab", 4)
        assert pathord_le(p, q)
        assert not pathord_le(q, p)

    def test_different_letters_incomparable(self):
        assert not pathord_le(word_path("a", 1), word_path("b", 2))

    def test_depth_blocks(self):
        assert not pathord_le(word_path("ab", 2), word_path("a", 1))

    def test_composites_out_of_different_pointings_refused(self):
        f = fig3_functor()
        p, q = make_path(f, [single(["*"])], []), make_path(f, [single(["q"])], [])
        with pytest.raises(CoalgError, match="different functors or pointings"):
            pathord_le(p, q)


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
        q = word_path("ab", 3)
        u = path_comp(q)
        p = path_from_comp(q.functor, q.levels[0], q.length, u)
        assert validate_path(p) == []
        assert path_comp(p) == u

    def test_depth_zero(self):
        f = functor(Prod((SortRef(), SortRef())))
        p = path_from_comp(f, single(["*"]), 0, (((DEFAULT_SORT, "*"), UNIT_TERM),))
        assert p.length == 0

    def test_exhaustive_binary_roundtrip(self):
        f = functor(Prod((SortRef(), SortRef())))
        for depth in range(4):
            for t in all_comp_values(f, depth):
                u = (((DEFAULT_SORT, "*"), t),)
                p = path_from_comp(f, single(["*"]), depth, u)
                assert validate_path(p) == []
                assert p.length == depth
                assert path_comp(p) == u


class TestPathMorphisms:
    def test_identity(self):
        p = fig3_path()
        m = find_path_morphism(p, p)
        assert m is not None
        assert is_path_morphism(m)
        assert all(c.table == identity_map(p.levels[k]).table for k, c in enumerate(m.components))

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
            assert exists == pathord_le(p, q)

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
            for chain in precise_chains(f.plus1, start, 2)
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
        for p, r in path_runs(c, 2):
            assert is_run(r)
            w = comp_as_word(p)
            words.add(w)
        assert words == {"", BOT, BOT * 2, "a", "a" + BOT, "ab"}

    def test_no_transition_blocks_nonbot_level(self):
        c = linear_word_system("ab", "")
        for p, r in path_runs(c, 2):
            # only bottom steps are possible
            for step in p.steps:
                assert all(strip_plus1(t) is None for t in step.table.values())

    def test_whyplus1_depth2_reaches_z(self):
        c = whyplus1_system()
        reached = set()
        for _p, r in path_runs(c, 2):
            reached |= {e for _s, e in run_image(r)}
        assert reached == {"x0", "y1", "y2", "z1", "z2"}

    def test_whyplus1_without_bot_stops(self):
        c = whyplus1_system()
        reached = {e for _p, r in factorized_runs(c, 2, allow_bot=False) for _s, e in run_image(r)}
        assert "z1" not in reached and "z2" not in reached

    def test_run_components_respect_transitions(self):
        c = whyplus1_system()
        runs = list(path_runs(c, 3))
        assert all(is_run(r) for _p, r in runs)

    def test_run_transfer_along_lax_hom(self):
        src = linear_word_system("ab", "ab")
        dst = linear_word_system("ab", "abb")
        table = {(DEFAULT_SORT, f"q{i}"): f"q{i}" for i in range(3)}
        m = CoalgMorphism(src, dst, SortedFun(src.carrier, dst.carrier, table))
        assert is_lax_hom(m)
        for p, r in path_runs(src, 2):
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

    @staticmethod
    def word_run():
        c = linear_word_system("ab", "ab")
        p = word_path("ab", 2)
        states = ({"*": "q0"}, {"n0": "q1"}, {"n1": "q2"})
        comps = tuple(
            SortedFun(level, c.carrier, {(DEFAULT_SORT, e): x for e, x in table.items()})
            for level, table in zip(p.levels, states)
        )
        r = Run(p, c, comps)
        assert is_run(r)
        return r

    def test_run_missing_a_component_detected(self):
        r = self.word_run()
        assert not is_run(Run(r.path, r.target, r.components[:-1]))

    def test_run_off_the_point_detected(self):
        r = self.word_run()
        off = SortedFun(r.path.levels[0], r.target.carrier, {(DEFAULT_SORT, "*"): "q1"})
        assert not is_run(Run(r.path, r.target, (off, *r.components[1:])))


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
    """``path_runs`` builds each next level in one pass, as
    ``enumerate_runs`` does; the oracle factorizes each choice map and
    renames its codomain.  Without the added point, the oracle's runs
    (from which the acceptance suite reads the notion without it) are
    those of ``path_runs`` that never choose it, in the same order."""

    @pytest.mark.parametrize("allow_bot", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "name, f, sizes, depth", ORACLE_SYSTEMS, ids=[case[0] for case in ORACLE_SYSTEMS]
    )
    def test_same_runs_as_factorize_then_rename(self, name, f, sizes, depth, seed, allow_bot):
        c = random_coalgebra(GenSpec(f, sizes, 0.4, seed))
        as_words = comps_are_words(c.functor, c.pointing)
        runs = path_runs(c, depth)
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
                assert "".join(step_letter(p, k) for k in range(p.length)) == comp_as_word(p)
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
        [_, _, (p, r)] = path_runs(c, 1)
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
        got = [(p.levels, p.steps, r.components) for p, r in path_runs(c, 2)]
        want = [(p.levels, p.steps, r.components) for p, r in factorized_runs(c, 2)]
        assert got == want
        assert len(got) > 1


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
COMPOSE = FIXTURES / "compose"


class TestRunChildrenBuiltOnce:
    """The children (next level and step) of a level of at most one
    element are built once per call and shared by every run that
    extends it; a wider level builds its children on every visit."""

    def test_word_levels_build_each_step_once(self):
        c = parse_coalgebra((COMPOSE / "trace_enum_lts.model").read_text(encoding="utf-8"))
        runs = list(enumerate_runs(c, 6))
        keys = {levels[-1] for levels, steps in runs if len(steps) < 6}
        assert all(len(level) <= 1 for level in keys)
        assert len(runs) == 1636
        # every record is alive in runs, so two steps share an id only
        # when they are one object
        built = {id(steps[-1]) for _levels, steps in runs if steps}
        assert len(built) <= len(keys) * (1 + max(len(ts) for ts in c.xi.values()))

    def test_wide_levels_build_their_steps_on_every_visit(self):
        c = parse_coalgebra((COMPOSE / "trace_enum_tree.model").read_text(encoding="utf-8"))
        runs = list(enumerate_runs(c, 3))
        wide_steps = [steps[-1] for _levels, steps in runs if steps and len(steps[-1]) > 1]
        assert wide_steps
        assert len({id(step) for step in wide_steps}) == len(wide_steps)

    @pytest.mark.parametrize("model, depth, wide", [
        ("trace_enum_tree.model", 3, True),
        ("twosorted.model", 3, True),
    ])
    def test_runs_text_keeps_no_component_of_a_wide_level(self, monkeypatch, model, depth, wide):
        """The runs verb keeps no run record once it has printed its line,
        so no run component of a wide level, nor of any other, outlives its
        run.  Each record's steps are handed to the verb in a list that
        can be referenced weakly."""
        made = []  # per record: its steps, weakly, and the sizes of its last two levels
        kept = []

        class TrackedSteps(list):
            __slots__ = ("__weakref__",)

        def spying(c, d):
            runs = enumerate_runs(c, d)
            first = next(runs)
            yield first
            for levels, steps in runs:
                tracked = TrackedSteps(steps)
                made.append((weakref.ref(tracked), (len(levels[-2]), len(levels[-1]))))
                yield levels, tracked
            # the first record again, so the verb's loop lets go of the last
            del levels, steps, tracked
            yield first
            gc.collect()
            kept.extend(sizes for ref, sizes in made if ref() is not None)

        monkeypatch.setattr(cli, "enumerate_runs", spying)
        _text, code = run_command(["runs", str(COMPOSE / model), "--depth", str(depth)])
        assert code == 0
        assert any(max(sizes) > 1 for _ref, sizes in made) == wide
        assert not kept

    @pytest.mark.parametrize("model, words", [
        ("trace_enum_lts.model", True),
        ("word.model", True),
        ("quotednames.model", True),
        ("trace_enum_tree.model", False),
        ("twosorted.model", False),
        ("twosorted_word.model", False),
    ])
    def test_word_systems_never_reach_enumerate_runs(self, monkeypatch, model, words):
        """The runs verb walks a system whose composites are words itself,
        with no path or run object; every other system goes through
        enumerate_runs, once per call."""
        calls = []

        def spying(c, d):
            calls.append(d)
            return enumerate_runs(c, d)

        monkeypatch.setattr(cli, "enumerate_runs", spying)
        text, code = run_command(["runs", str(COMPOSE / model), "--depth", "3"])
        assert code == 0 and text.startswith("run 0: length 0 comp ")
        assert calls == ([] if words else [3])


# one model per functor shape the runs verb prints terms for: a symmetric
# pair, a ternary symmetric bag, two sorts, and a word sort beside a tree sort
MEMO_CASES = [("trace_enum_tree.model", 3), ("bag.model", 2), ("twosorted.model", 3), ("mixed.model", 2)]


class TestInternedComp:
    """``comp`` interns each value under its sort, its transition term
    and the ids of its leaves' values, and ``print_term_for`` prints each
    interned value once per memo; over every run of a call both agree
    with building and printing each composite from scratch."""

    @pytest.mark.parametrize("model, depth", MEMO_CASES)
    def test_interned_comp_and_memo_printer_match_the_oracles(self, monkeypatch, model, depth):
        c = parse_coalgebra((COMPOSE / model).read_text(encoding="utf-8"))
        fp1 = c.functor.plus1
        built = []

        def counting_map_leaves(*args):
            built.append(args)
            return map_leaves(*args)

        monkeypatch.setattr(paths, "map_leaves", counting_map_leaves)
        values, texts = {}, {}
        runs = list(enumerate_runs(c, depth))
        for run in runs:
            got = _composite(c, run, values)
            assert got == fresh_comp(record_pair(c, run)[0])
            for (s, _i), t in got:
                text = print_term_for(fp1, s, t, texts)
                assert text == print_term_for(fp1, s, t) == recursive_print_term_for(fp1, s, t)
        # each interned value was built once, fewer than the values built
        # from scratch, and building every composite again builds nothing
        # and gives the same objects
        fresh = sum(len(level) for levels, _steps in runs for level in levels[:-1])
        interned = sum(len(by_ids) for by_ids in values.values())
        assert len(built) == interned < fresh
        size = len(texts)
        for run in runs:
            again = comp(c.functor, run, values)
            assert all(a is b for a, b in zip(again, comp(c.functor, run, values)))
            for (s, _e, _x), t in zip(run[0][0], again):
                print_term_for(fp1, s, t, texts)
        assert len(built) == interned
        assert len(texts) == size


def _composite(c: PointedCoalgebra, run: tuple, memo: dict) -> tuple:
    """The composite ``comp`` gives for a run record, as the sorted
    ``((sort, elem), term)`` pairs of ``path_comp``."""
    return tuple(sorted(zip([(s, e) for s, e, _x in run[0][0]], comp(c.functor, run, memo))))


def _word_fixtures() -> list[str]:
    """The model fixtures, as paths under ``fixtures``, whose composites are words."""
    found = []
    for path in sorted(FIXTURES.rglob("*.model")):
        c = parse_coalgebra(path.read_text(encoding="utf-8"))
        if comps_are_words(c.functor, c.pointing):
            found.append(path.relative_to(FIXTURES).as_posix())
    return found


WORD_FIXTURES = _word_fixtures()


def _random_word_system(seed: int) -> PointedCoalgebra:
    """A random system over ``A x Id`` for which ``comps_are_words``
    holds: one sort, or a second sort b that either leads back with its
    own letters or holds markers only, pointed at either sort; one to
    three states per sort, some with no transition; letters, states and
    the pointed element drawn from names some of which need quotes."""
    rng = random.Random(seed)

    def letters() -> tuple[str, ...]:
        return tuple(sorted(rng.sample(["a", "b", "a b", "cd"], rng.randint(1, 3))))

    shape = seed % 3
    if shape == 0:
        f = functor(Prod((Const(letters()), SortRef())))
    else:
        back = Prod((Const(letters()), SortRef())) if shape == 1 else Const(letters())
        f = multisorted((DEFAULT_SORT, "b"), {DEFAULT_SORT: Prod((Const(letters()), SortRef("b"))), "b": back})
    names = ["s0", "s 1", "t2"]
    carrier = SortedSet.make({s: rng.sample(names, rng.randint(1, 3)) for s in f.sorts}, f.sorts)
    at = rng.choice(f.sorts)
    pointing = SortedSet.make({at: [rng.choice(["*", "p t"])]}, f.sorts)
    xi = {}
    for s, x in carrier.pairs():
        node = f.node(s)
        if isinstance(node, Const):
            terms = [ConstElem(m) for m in node.elems]
        else:
            (alphabet, leaf) = node.parts
            terms = [TupleTerm((ConstElem(a), Var(leaf.sort, y))) for a in alphabet.elems
                     for y in carrier.elems(leaf.sort)]
        xi[(s, x)] = tuple(sorted(rng.sample(terms, min(len(terms), rng.choice([0, 1, 2, 2])))))
    ((_s, i),) = pointing.pairs()
    return PointedCoalgebra(f, pointing, carrier, {(at, i): rng.choice(carrier.elems(at))}, xi)


class TestWordRunsAgainstReference:
    """The runs verb's word walk prints what the reference printer reads
    off enumerate_runs and the letters of each path's steps, byte for
    byte, with and without --ascii: on every fixture whose composites are
    words, and on random systems over A x Id."""

    def test_fixtures_with_word_composites_are_found(self):
        assert len(WORD_FIXTURES) >= 8
        assert "compose/trace_enum_lts.model" in WORD_FIXTURES

    @pytest.mark.parametrize("ascii_", [False, True])
    @pytest.mark.parametrize("depth", range(7))
    @pytest.mark.parametrize("model", WORD_FIXTURES)
    def test_fixture(self, model, depth, ascii_):
        path = FIXTURES / model
        c = parse_coalgebra(path.read_text(encoding="utf-8"))
        text, code = run_command([*(["--ascii"] if ascii_ else []), "runs", str(path), "--depth", str(depth)])
        assert code == 0
        assert text == reference_word_runs(c, depth, ascii_)

    @pytest.mark.parametrize("seed", range(210))
    def test_random_system(self, tmp_path, seed):
        # the depth runs through 0..6 and --ascii alternates every seven seeds
        depth, ascii_ = seed % 7, bool(seed // 7 % 2)
        c = _random_word_system(seed)
        assert comps_are_words(c.functor, c.pointing)
        model = tmp_path / "system.model"
        model.write_text(print_coalgebra(c), encoding="utf-8")
        assert parse_coalgebra(model.read_text(encoding="utf-8")) == c
        text, code = run_command([*(["--ascii"] if ascii_ else []), "runs", str(model), "--depth", str(depth)])
        assert code == 0
        assert text == reference_word_runs(c, depth, ascii_)


def _wide_system(width: int) -> PointedCoalgebra:
    """One state whose one transition is a product of ``width`` slots,
    each back at the state: a run's level 1 holds ``width`` elements."""
    return PointedCoalgebra(
        functor(Prod((SortRef(),) * width)),
        single(["*"]),
        single(["s0"]),
        {(DEFAULT_SORT, "*"): "s0"},
        {(DEFAULT_SORT, "s0"): (TupleTerm((var("s0"),) * width),)},
    )


class TestRunRecords:
    """``enumerate_runs`` yields each run as a plain record; rebuilt as a
    path and a run through the checking constructors, each record is a
    well-formed path with a run on it, equal to the pair ``path_runs``
    gives in the same place, and ``comp`` gives its composite."""

    @staticmethod
    def assert_records_match(c, depth, cap=None):
        values: dict = {}
        records = itertools.islice(enumerate_runs(c, depth), cap)
        count = 0
        for record, expected in itertools.zip_longest(records, itertools.islice(path_runs(c, depth), cap)):
            assert record is not None and expected is not None
            path, run = record_pair(c, record)
            assert validate_path(path) == [] and is_run(run)
            # each level lists its elements in the order of its set
            assert all([(s, e) for s, e, _x in level] == list(p_level.pairs())
                       for level, p_level in zip(record[0], path.levels))
            p_want, r_want = expected
            assert (path.levels, path.steps, run.components) == (p_want.levels, p_want.steps, r_want.components)
            assert _composite(c, record, values) == path_comp(p_want) == fresh_comp(p_want)
            count += 1
        assert count > 1

    @pytest.mark.parametrize("model, depth", MEMO_CASES)
    def test_records_rebuild_as_checked_pairs(self, model, depth):
        c = parse_coalgebra((COMPOSE / model).read_text(encoding="utf-8"))
        self.assert_records_match(c, depth)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize(
        "name, f, sizes, depth", ORACLE_SYSTEMS, ids=[case[0] for case in ORACLE_SYSTEMS]
    )
    def test_random_systems(self, name, f, sizes, depth, seed):
        c = random_coalgebra(GenSpec(f, sizes, 0.4, seed))
        self.assert_records_match(c, depth, 1500)

    def test_fresh_names_past_n999_sort_as_strings(self):
        # 1001 slots: the names n000 .. n1000 sort with n1000 before n101
        c = _wide_system(1001)
        self.assert_records_match(c, 1)
        [_, _, (levels, _steps)] = enumerate_runs(c, 1)
        names = [e for _s, e, _x in levels[1]]
        assert names.index("n1000") == names.index("n100") + 1 == names.index("n101") - 1


def _count_runs(c: PointedCoalgebra, depth: int, cap: int) -> int:
    """How many runs ``path_runs`` gives up to ``depth``, counting at most ``cap + 1``."""
    return sum(1 for _pair in itertools.islice(path_runs(c, depth), cap + 1))


# the verb against its reference on every fixture the word walk does not
# serve, at each depth up to 3 at which it has at most this many runs
RUNS_CAP = 3000


def _general_fixture_cases() -> list[tuple[str, int]]:
    """(model, depth) for every model fixture whose composites are not
    words, at each depth 0-3 with at most ``RUNS_CAP`` runs."""
    cases = []
    for path in sorted(FIXTURES.rglob("*.model")):
        c = parse_coalgebra(path.read_text(encoding="utf-8"))
        if comps_are_words(c.functor, c.pointing):
            continue
        model = path.relative_to(FIXTURES).as_posix()
        cases.extend((model, d) for d in range(4) if _count_runs(c, d, RUNS_CAP) <= RUNS_CAP)
    return cases


GENERAL_CASES = _general_fixture_cases()


def _runs_text(tmp_path, c: PointedCoalgebra, depth: int, ascii_: bool) -> str:
    """The runs verb's stdout on ``c`` written as a model file."""
    model = tmp_path / "system.model"
    model.write_text(print_coalgebra(c), encoding="utf-8")
    assert parse_coalgebra(model.read_text(encoding="utf-8")) == c
    text, code = run_command([*(["--ascii"] if ascii_ else []), "runs", str(model), "--depth", str(depth)])
    assert code == 0
    return text


class TestRunsAgainstReference:
    """The runs verb's walk of run records prints what the reference
    printer reads off ``path_runs`` and ``path_comp``, byte for byte, with
    and without --ascii: on every fixture whose composites are not words,
    on random systems of the harness functors and of two sorts, and past
    n999."""

    def test_every_general_fixture_is_found(self):
        models = {model for model, _d in GENERAL_CASES}
        assert len(models) >= 25
        assert {"compose/trace_enum_tree.model", "compose/twosorted.model"} <= models
        assert ("compose/bag.model", 2) in GENERAL_CASES

    @pytest.mark.parametrize("ascii_", [False, True])
    @pytest.mark.parametrize("model, depth", GENERAL_CASES)
    def test_fixture(self, model, depth, ascii_):
        path = FIXTURES / model
        c = parse_coalgebra(path.read_text(encoding="utf-8"))
        text, code = run_command([*(["--ascii"] if ascii_ else []), "runs", str(path), "--depth", str(depth)])
        assert code == 0
        assert text == reference_runs(c, depth, ascii_)

    @pytest.mark.parametrize("seed", range(200))
    def test_random_system(self, tmp_path, seed):
        # the harness functors in turn; the two word functors, and every
        # other seed of the rest, are pointed twice, so the walk of run
        # records serves them all; the depth is the seed's, less while the
        # system has more than 1,000 runs
        rng = random.Random(seed)
        f = HARNESS_FUNCTORS[seed % 5]
        names = ["*", "p t"] if seed % 5 < 2 or seed // 5 % 2 else ["*"]
        spec = GenSpec(f, {DEFAULT_SORT: rng.randint(1, 3)}, rng.choice([0.15, 0.25, 0.35]), seed,
                       SortedSet.make({DEFAULT_SORT: names}))
        c = random_coalgebra(spec)
        assert not comps_are_words(c.functor, c.pointing)
        depth = next(d for d in range(seed % 4, -1, -1) if _count_runs(c, d, 1000) <= 1000)
        ascii_ = bool(seed // 4 % 2)
        assert _runs_text(tmp_path, c, depth, ascii_) == reference_runs(c, depth, ascii_)

    @pytest.mark.parametrize("seed", range(8))
    def test_multisorted_system(self, tmp_path, seed):
        # the two-sort functor with its sorts listed b before a, and a
        # point in each: the composites list the pointed elements by sort
        # name, the levels in sort order
        f = multisorted(("b", "a"), dict(MULTISORTED.nodes))
        pointing = SortedSet.make({"a": ["p"], "b": ["p", "q"]}, ("b", "a"))
        c = random_coalgebra(GenSpec(f, {"a": 2, "b": 2}, 0.5, seed, pointing))
        depth = next(d for d in range(3, -1, -1) if _count_runs(c, d, 1000) <= 1000)
        assert depth >= 1
        assert _runs_text(tmp_path, c, depth, False) == reference_runs(c, depth)

    def test_fresh_names_past_n999(self, tmp_path):
        c = _wide_system(1001)
        text = _runs_text(tmp_path, c, 1, False)
        assert text == reference_runs(c, 1)
        assert " 1:n1000->s0 1:n101->s0 " in text


class TestEmbeddingIntegration:
    """The embedded path systems behave like the linear systems they draw."""

    def test_embedded_paths_are_path_reachable(self):
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
