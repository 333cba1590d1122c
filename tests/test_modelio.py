import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalgpath.coalgebra import GenSpec, random_coalgebra
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
    functor,
    lts_functor,
)
from coalgpath.lasota import validate_category
from coalgpath.groups import trivial_group
from coalgpath.modelio import (
    MAX_NESTING,
    ModelParseError,
    parse_category,
    parse_coalgebra,
    parse_factor_problem,
    parse_functor_text,
    parse_map,
    parse_model,
    parse_path,
    parse_rnna,
    print_category,
    print_coalgebra,
    print_functor_node,
    print_path,
    print_rnna,
)
from coalgpath.nominal import RnnaPresentation, RnnaRule
from coalgpath.paths import comp, comp_as_word, enumerate_runs
from coalgpath.sets import DEFAULT_SORT, CoalgError
from conftest import poset_category

BOT = chr(0x22A5)
CHECK = chr(0x2713)

LTS_TEXT = """\
[functor]
prod(const(a b), id)

[states]
q0 q1

[init]
* -> q0

[trans]
q0 -> (a, q1)
q0 -> (b, q0)
"""


class TestFunctorGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "id",
            "const(a b c)",
            "prod(const(a), id)",
            "coprod(prod(const(a b), id), const(ok))",
            "plus1(prod(id, id))",
            "pf(id)",
            "compose(prod(id, id), coprod(const(c), id))",
            "analytic{ pair/2 [(1 2)] ; leaf/0 }",
            "compose(analytic{ pair/2 [(1 2)] ; leaf/0 }, prod(const(a b), id))",
            "analytic{ rot/3 [(1 2 3)] }",
            "analytic{ perm/3 [(1 2), (1 2 3)] }",
        ],
    )
    def test_roundtrip(self, text):
        node = parse_functor_text(text)
        assert parse_functor_text(print_functor_node(node)) == node

    def test_plus1_prints_as_sugar(self):
        node = parse_functor_text("plus1(id)")
        assert print_functor_node(node) == "plus1(id)"

    def test_symmetric_generator_parsed(self):
        node = parse_functor_text("analytic{ pair/2 [(1 2)] }")
        assert isinstance(node, Analytic)
        assert node.symbols[0].group.generators == ((1, 0),)

    def test_unknown_constructor(self):
        with pytest.raises(ModelParseError):
            parse_functor_text("frobnicate(id)")

    def test_compose_is_substituted_when_parsed(self):
        node = parse_functor_text("compose(prod(id, const(a)), coprod(const(c), id))")
        assert node == parse_functor_text("prod(coprod(const(c), id), const(a))")

    def test_analytic_with_mixed_slots_has_no_text(self):
        node = Analytic((Symbol("p", (SortRef(), Const(("a",))), trivial_group(2)),))
        with pytest.raises(CoalgError):
            print_functor_node(node)

    def test_nesting_cap_reports_the_line(self):
        deep = "prod(" * (MAX_NESTING + 1) + "id" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ModelParseError) as info:
            parse_coalgebra(f"[functor]\n{deep}\n\n[states]\nq\n\n[init]\n* -> q\n")
        assert info.value.line == 2
        assert parse_functor_text("prod(" * (MAX_NESTING - 1) + "id" + ")" * (MAX_NESTING - 1))

    def test_caps_bound_the_substituted_composite(self):
        # the text nests about half as deep as the substituted expression
        half = "prod(" * (MAX_NESTING // 2 - 1) + "id" + ")" * (MAX_NESTING // 2 - 1)
        with pytest.raises(ModelParseError):
            parse_functor_text(f"compose({half}, prod(prod({half})))")
        assert parse_functor_text(f"compose({half}, prod({half}))")
        # each composition doubles the expression: shallow, but 2**41 nodes
        chain = "id"
        for _ in range(40):
            chain = f"compose(prod(id, id), {chain})"
        with pytest.raises(ModelParseError):
            parse_functor_text(chain)

    def test_ascii_aliases_in_constants(self):
        node = parse_functor_text("const(ok bot unit)")
        assert node == Const(tuple(sorted((CHECK, BOT, chr(0x2022)))))


class TestCoalgebraFiles:
    def test_small_lts(self):
        c = parse_coalgebra(LTS_TEXT)
        assert c.carrier.size() == 2
        assert c.point[(DEFAULT_SORT, "*")] == "q0"
        assert len(c.xi[(DEFAULT_SORT, "q0")]) == 2

    def test_roundtrip_identity(self):
        c = parse_coalgebra(LTS_TEXT)
        text = print_coalgebra(c)
        again = parse_coalgebra(text)
        assert again.xi == c.xi and again.point == c.point
        assert print_coalgebra(again) == text

    def test_roundtrip_on_random_systems_fifty_seeds(self):
        for seed in range(50):
            c = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: 4}, 0.4, seed))
            text = print_coalgebra(c)
            again = parse_coalgebra(text)
            assert again.xi == c.xi
            assert print_coalgebra(again) == text

    def test_roundtrip_tree_functor(self):
        f = functor(Coprod((Prod((SortRef(), SortRef())), Const(("a",)))))
        for seed in range(10):
            c = random_coalgebra(GenSpec(f, {DEFAULT_SORT: 3}, 0.3, seed))
            assert parse_coalgebra(print_coalgebra(c)).xi == c.xi

    def test_roundtrip_multisorted(self):
        from coalgpath.lasota import lasota_functor, lasota_pointing

        cat = poset_category(2)
        f = lasota_functor(cat)
        spec = GenSpec(f, {s: 2 for s in f.sorts}, 0.5, 3, pointing=lasota_pointing(cat))
        c = random_coalgebra(spec)
        text = print_coalgebra(c)
        again = parse_coalgebra(text)
        assert again.xi == c.xi
        assert print_coalgebra(again) == text

    def test_duplicate_state_rejected_with_line(self):
        bad = LTS_TEXT.replace("q0 q1", "q0 q0")
        with pytest.raises(ModelParseError) as err:
            parse_coalgebra(bad)
        assert "line" in str(err.value)

    def test_unknown_state_in_transition(self):
        bad = LTS_TEXT + "q9 -> (a, q0)\n"
        with pytest.raises(ModelParseError):
            parse_coalgebra(bad)

    def test_term_against_wrong_constant(self):
        bad = LTS_TEXT.replace("(a, q1)", "(z, q1)")
        with pytest.raises(ModelParseError):
            parse_coalgebra(bad)

    def test_implicit_injection(self):
        text = """\
[functor]
coprod(prod(const(a), id), const(ok))

[states]
q0

[init]
* -> q0

[trans]
q0 -> ok
q0 -> (a, q0)
"""
        c = parse_coalgebra(text)
        assert len(c.xi[(DEFAULT_SORT, "q0")]) == 2

    def test_implicit_injection_past_an_analytic_branch(self):
        text = """\
[functor]
coprod(analytic{ a/0 }, const(b))

[states]
q0

[init]
* -> q0

[trans]
q0 -> b
q0 -> a
"""
        c = parse_coalgebra(text)
        assert c.xi[(DEFAULT_SORT, "q0")] == (Inj(0, AnSym("a", ())), Inj(1, ConstElem("b")))


class TestPathFiles:
    PATH_TEXT = """\
[functor]
prod(const(a b), id)

[pointing]
*

[levels]
0 : *
1 : n0
2 :

[steps]
0 : * -> (a, n0)
1 : n0 -> bot
"""

    def test_parse_and_roundtrip(self):
        p = parse_path(self.PATH_TEXT)
        assert p.length == 2
        assert comp_as_word(comp(p)) == "a" + BOT
        text = print_path(p)
        again = parse_path(text)
        assert print_path(again) == text

    def test_nonprecise_step_rejected(self):
        bad = self.PATH_TEXT.replace("1 : n0 -> bot", "1 : n0 -> bot") + "\n"
        bad = bad.replace("0 : * -> (a, n0)", "0 : * -> bot")
        with pytest.raises(ModelParseError, match="precise"):
            parse_path(bad)

    def test_non_integer_level_rejected_with_line(self):
        bad = self.PATH_TEXT.replace("0 : *", "zero : *")
        with pytest.raises(ModelParseError, match="line 8"):
            parse_path(bad)

    def test_runs_roundtrip_through_printer(self):
        from conftest import linear_word_system

        c = linear_word_system("ab", "ab")
        for p, _r in enumerate_runs(c, 2):
            text = print_path(p)
            again = parse_path(text)
            assert comp(again) == comp(p)


class TestMultisortedPathFiles:
    TWO_SORT_TEXT = """\
[sorts]
a b

[functor]
a = prod(sort(a), sort(b))
b = const(c)

[pointing]
a : *

[levels]
0 : a : *
1 : a : x
1 : b : y
2 :

[steps]
0 : a.* -> (x, y)
1 : a.x -> bot
1 : b.y -> c
"""

    def test_repeated_level_lines_merge(self):
        p = parse_path(self.TWO_SORT_TEXT)
        assert p.levels[1].elems("a") == ("x",) and p.levels[1].elems("b") == ("y",)
        text = print_path(p)
        again = parse_path(text)
        assert comp(again) == comp(p)
        assert print_path(again) == text

    def test_lasota_paths_roundtrip(self):
        from coalgpath.functors import plus1
        from coalgpath.lasota import lasota_functor, lasota_pointing
        from coalgpath.modelio import parse_model, print_model
        from coalgpath.paths import make_path
        from coalgpath.precise import enumerate_precise_maps

        cat = poset_category(3)
        f = lasota_functor(cat)
        frontier = [([lasota_pointing(cat)], [])]
        count = 0
        for _length in range(3):
            grown = []
            for levels, tables in frontier:
                p = make_path(f, levels[0], levels, tables)
                text = print_model(p)
                again = parse_model(text)
                assert comp(again) == comp(p)
                assert print_model(again) == text
                count += 1
                for codomain, step in enumerate_precise_maps(levels[-1], plus1(f)):
                    grown.append((levels + [codomain], tables + [step.table]))
            frontier = grown
        assert count == 15  # the empty path, 4 of length 1 and 10 of length 2


class TestMapFiles:
    def test_parse_map(self):
        src = parse_coalgebra(LTS_TEXT)
        dst = parse_coalgebra(LTS_TEXT)
        fun = parse_map("[map]\nq0 -> q0\nq1 -> q1\n", src.carrier, dst.carrier)
        assert fun(DEFAULT_SORT, "q1") == "q1"

    def test_partial_map_rejected(self):
        src = parse_coalgebra(LTS_TEXT)
        with pytest.raises(Exception):
            parse_map("[map]\nq0 -> q0\n", src.carrier, src.carrier)


class TestFactorProblemFiles:
    FIG2_TEXT = """\
[functor]
plus1(prod(id, id))

[domain]
x1 x2 x3 x4

[codomain]
y1 y2 y3 y4

[map]
x1 -> bot
x2 -> (y1, y2)
x3 -> (y2, y2)
x4 -> bot
"""

    def test_fig2_file(self):
        problem = parse_factor_problem(self.FIG2_TEXT)
        assert problem.domain.size() == 4
        from coalgpath.precise import is_precise, precise_factorize

        assert not is_precise(problem.term_map)
        fac = precise_factorize(problem.term_map)
        assert fac.codomain.size() == 4


class TestCategoryFiles:
    def test_roundtrip(self):
        cat = poset_category(3)
        text = print_category(cat)
        again = parse_category(text)
        assert validate_category(again) == []
        assert print_category(again) == text

    def test_parse_composition_lines(self):
        text = print_category(poset_category(2))
        cat = parse_category(text)
        assert cat.comp[("m01", "id0")] == "m01"


class TestRnnaFiles:
    def test_roundtrip(self):
        r = RnnaPresentation(
            {"q0": 0, "q1": 1, "q2": 1},
            "q0",
            (
                RnnaRule("bind", "q0", "q1", sigma=(0,)),
                RnnaRule("read", "q1", "q2", register=1, sigma=(1,)),
                RnnaRule("ok", "q2"),
            ),
        )
        text = print_rnna(r)
        again = parse_rnna(text)
        assert again == r
        assert print_rnna(again) == text

    def test_bad_rule_reported(self):
        text = "[states]\nq0/0\n\n[init]\nq0\n\n[rules]\nq0 -> fly q0 []\n"
        with pytest.raises(ModelParseError):
            parse_rnna(text)


class TestModelDispatch:
    def test_parse_model_detects_all_kinds(self):
        from coalgpath.coalgebra import PointedCoalgebra
        from coalgpath.lasota import FiniteCategory
        from coalgpath.modelio import parse_model, print_model
        from coalgpath.paths import PathObj

        lts = parse_model(LTS_TEXT)
        assert isinstance(lts, PointedCoalgebra)
        path = parse_model(TestPathFiles.PATH_TEXT)
        assert isinstance(path, PathObj)
        cat = parse_model(print_category(poset_category(2)))
        assert isinstance(cat, FiniteCategory)
        rnna = parse_model(
            "[states]\nq0/0\n\n[init]\nq0\n\n[rules]\nq0 -> ok\n"
        )
        assert isinstance(rnna, RnnaPresentation)

    def test_print_model_roundtrips_each_kind(self):
        from coalgpath.modelio import parse_model, print_model

        for text in (
            LTS_TEXT,
            TestPathFiles.PATH_TEXT,
            print_category(poset_category(3)),
            "[states]\nq0/0 q1/1\n\n[init]\nq0\n\n[rules]\nq0 -> bar q1 [0]\n",
            TestFactorProblemFiles.FIG2_TEXT,
        ):
            obj = parse_model(text)
            canon = print_model(obj)
            assert print_model(parse_model(canon)) == canon


class TestGeneratedNameRoundtrips:
    def test_fig2_factorization_output_roundtrips(self):
        from coalgpath.modelio import FactorProblem, print_factor_problem
        from coalgpath.precise import TermSpace, precise_factorize

        text = (
            "[functor]\nplus1(prod(id, id))\n\n[domain]\nx1 x2 x3 x4\n\n[codomain]\ny1 y2 y3 y4\n\n"
            "[map]\nx1 -> bot\nx2 -> (y1, y2)\nx3 -> (y2, y2)\nx4 -> bot\n"
        )
        problem = parse_factor_problem(text)
        fac = precise_factorize(problem.term_map)
        produced = FactorProblem(problem.functor, problem.domain, fac.codomain, fac.precise)
        printed = print_factor_problem(produced)
        assert '"(x2;0.0)"' in printed  # generated names are quoted
        reparsed = parse_factor_problem(printed)
        assert reparsed.term_map == produced.term_map
        assert print_factor_problem(reparsed) == printed

    def test_embedded_path_coalgebra_roundtrips(self):
        from conftest import linear_word_system
        from coalgpath.paths import enumerate_runs, j_embed

        c = linear_word_system("ab", "ab")
        for p, _r in enumerate_runs(c, 2):
            embedded = j_embed(p)  # states named "k:elem"
            text = print_coalgebra(embedded)
            again = parse_coalgebra(text)
            assert again.xi == embedded.xi


class TestFig3PathFile:
    def test_prints_parses_and_validates(self):
        from test_paths import fig3_path
        from coalgpath.modelio import parse_model, print_path
        from coalgpath.paths import comp, validate_path

        p = fig3_path()
        text = print_path(p)
        again = parse_model(text)
        assert validate_path(again) == []
        assert comp(again) == comp(p)
        assert print_path(again) == text


# every model file under fixtures/, split into words, single characters
# and whitespace runs; mutations insert or delete one such token
FIXTURE_TEXTS = [
    p.read_text(encoding="utf-8")
    for p in sorted((pathlib.Path(__file__).parent / "fixtures").rglob("*"))
    if p.is_file() and p.suffix != ".out"
]
TOKEN_RE = re.compile(r"\s+|\w+|.", re.S)
VOCABULARY = sorted({t for text in FIXTURE_TEXTS for t in TOKEN_RE.findall(text)} | {"x", "-1", "99", "in7", "->"})


class TestMutatedFixtures:
    @given(
        st.sampled_from(FIXTURE_TEXTS),
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 10_000), st.sampled_from(VOCABULARY)), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def test_parse_model_raises_only_coalg_errors(self, text, mutations):
        tokens = TOKEN_RE.findall(text)
        for delete, position, token in mutations:
            position %= len(tokens) + 1
            if delete and tokens:
                del tokens[min(position, len(tokens) - 1)]
            else:
                tokens.insert(position, token)
        try:
            parse_model("".join(tokens))
        except CoalgError:
            pass
