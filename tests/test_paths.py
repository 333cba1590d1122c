import itertools

from coalgpath.coalgebra import CoalgMorphism, is_lax_hom
from coalgpath.functors import (
    Analytic,
    Const,
    ConstElem,
    Inj,
    Prod,
    SortRef,
    Symbol,
    TupleTerm,
    UNIT_TERM,
    bot_of_plus1,
    functor,
    plus1,
    step_of_plus1,
    strip_plus1,
)
from coalgpath.groups import symmetric_group, trivial_group
from coalgpath.paths import (
    CompValue,
    PathObj,
    Run,
    all_path_morphisms,
    comp,
    comp_as_word,
    enumerate_runs,
    find_path_morphism,
    is_run,
    j_embed,
    make_comp_value,
    make_path,
    morphism_to_lax,
    path_from_comp,
    pathord_le,
    validate_path,
)
from coalgpath.sets import DEFAULT_SORT, SortedFun

from conftest import linear_word_system, single, trace_pairs, var, whyplus1_system
from oracles import is_bijective, is_path_morphism, run_image

BOT = chr(0x22A5)


def fig3_functor():
    sig = Analytic(
        (
            Symbol("b", (SortRef(), SortRef()), trivial_group(2)),
            Symbol("c", (), trivial_group(0)),
            Symbol("u", (SortRef(),), trivial_group(1)),
        )
    )
    return functor(sig)


def an(name, *args):
    return Inj(0, _ansym(name, args))


def _ansym(name, args):
    from coalgpath.functors import ansym

    return ansym(trivial_group(len(args)), name, tuple(args))


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
    return make_path(f, single(["*"]), levels, steps)


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
    return make_path(f, single(["*"]), levels, steps)


class TestValidatePath:
    def test_length_zero_ok(self):
        f = fig3_functor()
        p = make_path(f, single(["*"]), [single(["*"])], [])
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
        p = make_path(inner, single(["x1", "x2", "x3", "x4"]), levels, steps)
        problems = validate_path(p)
        assert problems and "step 0" in problems[0]

    def test_wrong_first_level(self):
        f = fig3_functor()
        p = make_path(f, single(["*"]), [single(["q"])], [])
        assert validate_path(p) == ["level 0 is not the pointing object"]


class TestComp:
    def test_word_with_padding(self):
        p = word_path("ab", 3)
        assert comp_as_word(comp(p)) == "ab" + BOT

    def test_length_zero_unit(self):
        f = fig3_functor()
        p = make_path(f, single(["*"]), [single(["*"])], [])
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
        p = make_path(f, single(["*"]), [single(["*"]), level1], [step])
        morphisms = list(all_path_morphisms(p, p))
        assert len(morphisms) == 2  # the identity and the swap
        assert all(is_path_morphism(m) for m in morphisms)

    def test_components_are_isomorphisms(self):
        p = word_path("ab", 2)
        q = word_path("ab", 3)
        m = find_path_morphism(p, q)
        assert m is not None
        assert all(is_bijective(c) for c in m.components)


class TestEmbedding:
    def test_word_system(self):
        p = word_path("ab", 3)
        c = j_embed(p)
        assert c.carrier.size() == 3  # the empty padding levels add nothing
        edges = {(x, t.args[0].name, t.args[1].name) for (_s, x), ts in c.xi.items() for t in ts}
        assert edges == {("0:*", "a", "1:n0"), ("1:n0", "b", "2:n1")}

    def test_length_zero_is_initial_object(self):
        f = fig3_functor()
        p = make_path(f, single(["*"]), [single(["*"])], [])
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
        reached = set()
        for _p, r in enumerate_runs(c, 2, allow_bot=False):
            reached |= {e for _s, e in run_image(r)}
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
