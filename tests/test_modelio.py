import pathlib
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalgpath.cli import run_command
from coalgpath.coalgebra import GenSpec, PointedCoalgebra, random_coalgebra
from coalgpath.functors import (
    Analytic,
    AnSym,
    Const,
    ConstElem,
    Coprod,
    Inj,
    Node,
    Prod,
    SortRef,
    Symbol,
    TermError,
    TupleTerm,
    UNIT_TERM,
    MAX_PRINT_DEPTH,
    Var,
    bot_of_plus1,
    functor,
    multisorted,
    step_of_plus1,
)
from coalgpath.lasota import validate_category
from coalgpath.groups import PermGroup
from coalgpath.modelio import (
    ALIASES,
    MAX_NESTING,
    ModelParseError,
    _key,
    _read_elem,
    _state_names,
    parse_category,
    parse_coalgebra,
    parse_factor_problem,
    parse_functor_text,
    parse_map,
    parse_rnna,
    parse_term_text,
    print_term_for,
    tokenize,
)
from coalgpath.nominal import RnnaPresentation, RnnaRule
from coalgpath.paths import make_path
from coalgpath.precise import TermMap
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedSet, singleton_pointing
from conftest import MULTISORTED, S3_PRESENTATIONS, lts_functor, poset_category, s3_model
from model_writers import (
    parse_model,
    parse_path,
    print_category,
    print_coalgebra,
    print_functor_node,
    print_model,
    print_path,
    print_rnna,
)
from oracles import comp_as_word, path_comp, path_runs

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
        node = Analytic((Symbol("p", (SortRef(), Const(("a",))), PermGroup(2)),))
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

    def test_added_point_reads_back_beside_a_state_named_bot(self):
        # over plus1(id) a bare ⊥ fits both the state ⊥ and the added point;
        # the printer writes the added point bare and the state as in0(⊥)
        text = "[functor]\nplus1(id)\n\n[states]\nq ⊥\n\n[init]\n* -> q\n\n[trans]\nq -> in1(⊥)\nq -> in0(⊥)\n"
        c = parse_coalgebra(text)
        printed = print_coalgebra(c)
        assert "q -> in0(⊥)\nq -> ⊥\n" in printed
        again = parse_coalgebra(printed)
        assert again.xi == c.xi
        assert print_coalgebra(again) == printed

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

    def test_duplicate_state_on_a_later_line_and_one_name_in_two_sorts(self):
        with pytest.raises(ModelParseError, match=r"^line 6: duplicate element 'q1'$"):
            parse_coalgebra("[functor]\nid\n\n[states]\nq0 q1\nq2 q1\n")
        text = "[sorts]\na b\n\n[functor]\na = sort(b)\nb = sort(a)\n\n[states]\na : p\nb : p\na : q p\n"
        with pytest.raises(ModelParseError, match=r"^line 11: duplicate element 'p'$"):
            parse_coalgebra(text)
        c = parse_coalgebra(text.replace("a : q p", "a : q") + "\n[init]\n* -> a.p\n")
        assert c.carrier.pairs() == (("a", "p"), ("a", "q"), ("b", "p"))

    def test_duplicate_sort_late_in_a_long_line_and_unknown_sorts(self):
        """A repeat at the end of a line of 2,000 sorts is refused with its
        line, and a multisorted ``[functor]`` line must name a listed sort
        (``*`` where no ``[sorts]`` section lists any)."""
        names = " ".join(f"s{i}" for i in range(2000))
        with pytest.raises(ModelParseError, match=r"^line 3: duplicate sort 's7'$"):
            parse_coalgebra(f"[sorts]\na\n{names} s7\n")
        with pytest.raises(ModelParseError, match=r"^line 6: unknown sort 'c'$"):
            parse_coalgebra("[sorts]\na b\n\n[functor]\na = sort(b)\nc = sort(a)\n")
        with pytest.raises(ModelParseError, match=r"^line 2: unknown sort 'a'$"):
            parse_coalgebra("[functor]\na = id\n")
        with pytest.raises(ModelParseError, match=r"^line 6: expected '<sort> = <functor>'$"):
            parse_coalgebra("[sorts]\na b\n\n[functor]\na = sort(b)\nsort(a)\n")

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
    PATH_TEXT = (pathlib.Path(__file__).parent / "fixtures" / "word.path").read_text(encoding="utf-8")

    def test_parse_and_roundtrip(self):
        p = parse_path(self.PATH_TEXT)
        assert p.length == 2
        assert comp_as_word(p) == "a" + BOT
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

    def test_negative_level_rejected_with_line(self):
        bad = self.PATH_TEXT.replace("2 :\n", "2 :\n-1 : zz\n")
        with pytest.raises(ModelParseError, match=r"^line 11: level index -1 out of range$"):
            parse_path(bad)

    def test_repeated_step_rejected_with_line(self):
        twice = self.PATH_TEXT + "0 : * -> (b, n0)\n"
        with pytest.raises(ModelParseError, match=r"^line 15: duplicate step 0 for '\*'$"):
            parse_path(twice)

    def test_pointing_other_than_level_0_rejected(self):
        bad = self.PATH_TEXT.replace("[pointing]\n*\n", "[pointing]\npt\n")
        with pytest.raises(ModelParseError, match=r"^invalid path: level 0 is not the pointing object$"):
            parse_path(bad)

    def test_runs_roundtrip_through_printer(self):
        from conftest import linear_word_system

        c = linear_word_system("ab", "ab")
        for p, _r in path_runs(c, 2):
            text = print_path(p)
            again = parse_path(text)
            assert (again.functor, again.levels[0], again.length) == (p.functor, p.levels[0], p.length)
            assert path_comp(again) == path_comp(p)


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
        assert path_comp(again) == path_comp(p)
        assert print_path(again) == text

    def test_lasota_paths_roundtrip(self):
        from coalgpath.lasota import lasota_functor, lasota_pointing
        from model_writers import parse_model, print_model
        from coalgpath.paths import make_path
        from coalgpath.precise import enumerate_precise_maps

        cat = poset_category(3)
        f = lasota_functor(cat)
        frontier = [([lasota_pointing(cat)], [])]
        count = 0
        for _length in range(3):
            grown = []
            for levels, tables in frontier:
                p = make_path(f, levels, tables)
                text = print_model(p)
                again = parse_model(text)
                assert path_comp(again) == path_comp(p)
                assert print_model(again) == text
                count += 1
                for codomain, step in enumerate_precise_maps(levels[-1], f.plus1):
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

    def test_repeated_left_side_rejected_with_line(self):
        src = parse_coalgebra(LTS_TEXT)
        with pytest.raises(ModelParseError, match=r"^line 4: duplicate image for 'q0'$"):
            parse_map("[map]\nq0 -> q0\nq1 -> q1\nq0 -> q0\n", src.carrier, src.carrier)


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

    def test_repeated_left_side_rejected_with_line(self):
        with pytest.raises(ModelParseError, match=r"^line 15: duplicate image for 'x2'$"):
            parse_factor_problem(self.FIG2_TEXT + "x2 -> bot\n")

    def test_fig2_file(self):
        f = parse_factor_problem(self.FIG2_TEXT)
        assert f.dom.size() == 4
        from coalgpath.precise import is_precise, precise_factorize

        assert not is_precise(f)
        fac = precise_factorize(f)
        assert fac.precise.cod.size() == 4


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

    def test_identity_of_a_non_object_rejected_with_line(self):
        text = "[objects]\na b\n\n[identities]\na : ida\nc : idb\n"
        with pytest.raises(ModelParseError, match="line 6: .*'c', which is not an object"):
            parse_category(text)

    def test_repeated_object_rejected_with_line(self):
        with pytest.raises(ModelParseError, match=r"^line 3: duplicate object 'a'$"):
            parse_category("[objects]\na b\na\n")

    def test_dotted_object_rejected_with_line(self, tmp_path):
        # objects become the Lasota functor's sorts, and a sort name with
        # a '.' makes a.b's p and a's b.p both label as a.b.p
        (tmp_path / "dotted.cat").write_text("[objects]\na b\na.b\n", encoding="utf-8")
        assert run_command(["lasota", str(tmp_path / "dotted.cat"), "--depth", "1"]) == (
            "error: line 3: object 'a.b' holds a '.', which no sort name can carry\n", 2
        )
        assert run_command(["lasota", str(_FIXTURES / "chain.cat"), "--depth", "1"])[1] == 0

    def test_repeated_identity_rejected_with_line(self):
        text = "[objects]\na\n\n[morphisms]\nida : a -> a\nf : a -> a\n\n[identities]\na : f\na : ida\n"
        with pytest.raises(ModelParseError, match=r"^line 10: duplicate identity for 'a'$"):
            parse_category(text)

    def test_repeated_composition_rejected_with_line(self):
        text = print_category(poset_category(2))
        lines = text.count("\n") + 1
        with pytest.raises(ModelParseError, match=rf"^line {lines}: duplicate composite for 'm01 o id0'$"):
            parse_category(text + "m01 o id0 = m01\n")

    def test_missing_identity_roundtrips_and_is_reported(self):
        text = print_category(poset_category(2)).replace("1 : id1\n", "")
        cat = parse_category(text)
        assert "1" not in cat.identities
        assert print_category(cat) == text
        assert [v.detail for v in validate_category(cat) if v.kind == "identity"] == ["no identity for '1'"]


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

    def test_repeated_state_rejected_with_line(self):
        text = "[states]\nq0/0 q1/1\nq0/2\n\n[init]\nq0\n\n[rules]\nq0 -> ok\n"
        with pytest.raises(ModelParseError, match=r"^line 3: duplicate state 'q0'$"):
            parse_rnna(text)

    def test_bad_rule_reported(self):
        text = "[states]\nq0/0\n\n[init]\nq0\n\n[rules]\nq0 -> fly q0 []\n"
        with pytest.raises(ModelParseError):
            parse_rnna(text)


class TestModelDispatch:
    def test_parse_model_detects_all_kinds(self):
        from coalgpath.coalgebra import PointedCoalgebra
        from coalgpath.lasota import FiniteCategory
        from model_writers import parse_model, print_model
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
        from model_writers import parse_model, print_model

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


class TestGroupPresentations:
    def test_two_presentations_parse_equal_and_print_their_own(self):
        from model_writers import parse_model, print_model

        texts = [s3_model(gens) for gens in S3_PRESENTATIONS]
        systems = [parse_model(text) for text in texts]
        assert systems[0].functor == systems[1].functor
        assert hash(systems[0].functor) == hash(systems[1].functor)
        for text, c in zip(texts, systems):
            assert print_model(c) == text
            assert print_model(parse_model(print_model(c))) == text


class TestGeneratedNameRoundtrips:
    def test_fig2_factorization_output_roundtrips(self):
        from model_writers import print_factor_problem
        from coalgpath.precise import precise_factorize

        text = (
            "[functor]\nplus1(prod(id, id))\n\n[domain]\nx1 x2 x3 x4\n\n[codomain]\ny1 y2 y3 y4\n\n"
            "[map]\nx1 -> bot\nx2 -> (y1, y2)\nx3 -> (y2, y2)\nx4 -> bot\n"
        )
        produced = precise_factorize(parse_factor_problem(text)).precise
        printed = print_factor_problem(produced)
        assert '"(x2;0.0)"' in printed  # generated names are quoted
        reparsed = parse_factor_problem(printed)
        assert reparsed == produced
        assert print_factor_problem(reparsed) == printed

    def test_embedded_path_coalgebra_roundtrips(self):
        from conftest import linear_word_system
        from oracles import j_embed

        c = linear_word_system("ab", "ab")
        for p, _r in path_runs(c, 2):
            embedded = j_embed(p)  # states named "k:elem"
            text = print_coalgebra(embedded)
            again = parse_coalgebra(text)
            assert again.xi == embedded.xi


class TestQuotedNames:
    """Names the bare-name grammar cannot carry print quoted and read back."""

    NAMES = ["p q", "a#b", "x, y", "(", "#", "[s]", "caf\u00e9", "q0"]

    def system(self):
        f = functor(parse_functor_text("prod(const(a b), id)"))
        carrier = SortedSet.single(self.NAMES)
        xi = {}
        for i, name in enumerate(self.NAMES):
            nxt = self.NAMES[(i + 1) % len(self.NAMES)]
            xi[(DEFAULT_SORT, name)] = tuple(sorted({
                TupleTerm((ConstElem("a"), Var(DEFAULT_SORT, nxt))),
                TupleTerm((ConstElem("b"), Var(DEFAULT_SORT, "a#b"))),
            }))
        return PointedCoalgebra(f, singleton_pointing(), carrier, {(DEFAULT_SORT, "*"): "p q"}, xi)

    def test_roundtrip(self):
        c = self.system()
        printed = print_model(c)
        assert '"p q"' in printed and '"a#b"' in printed
        again = parse_model(printed)
        assert again == c
        assert print_model(again) == printed

    def test_comment_after_a_quoted_name(self):
        line = '"p q" -> (a, "a#b")'
        printed = print_model(self.system()).replace(line, line + '  # a "#" and a stray "')
        assert '# a "#" and a stray "' in printed
        assert parse_model(printed) == self.system()

    def test_a_bare_punctuation_mark_is_no_state_name(self):
        with pytest.raises(ModelParseError, match=r"^line 5: expected a name, got '->'$"):
            parse_coalgebra(LTS_TEXT.replace("q0 q1", "q0 -> q1"))
        c = parse_coalgebra(LTS_TEXT.replace("q0 q1", 'q0 "->" q1'))
        assert c.carrier.elems(DEFAULT_SORT) == ("->", "q0", "q1")

    def test_a_bare_punctuation_mark_is_no_constant(self):
        with pytest.raises(ModelParseError, match=r"^expected a name, got ','$"):
            parse_functor_text("const(a , b)")
        assert parse_functor_text('const(a "," b ")")') == Const((")", ",", "a", "b"))
        c = parse_coalgebra(LTS_TEXT.replace("const(a b)", 'const(a ",")').replace("(b, q0)", '(",", q0)'))
        assert TupleTerm((ConstElem(","), Var(DEFAULT_SORT, "q0"))) in c.xi[(DEFAULT_SORT, "q0")]

    def test_constants_print_quoted_when_bare_text_cannot_carry_them(self):
        f = functor(Prod((Const(("a b", "c")), SortRef())))
        assert print_functor_node(f.node(DEFAULT_SORT)) == 'prod(const("a b" c), id)'
        term = TupleTerm((ConstElem("a b"), Var(DEFAULT_SORT, "q")))
        assert print_term_for(f, DEFAULT_SORT, term) == '("a b", q)'

    def test_sort_and_symbol_names_print_quoted_when_bare_text_cannot_carry_them(self):
        assert print_functor_node(SortRef("p q")) == 'sort("p q")'
        assert parse_functor_text('sort("p q")') == SortRef("p q")
        node = Analytic((Symbol("a b", (SortRef(),), PermGroup(1)), Symbol(",", (), PermGroup(0))))
        assert print_functor_node(node) == 'analytic{ "a b"/1 ; ","/0 }'
        assert parse_functor_text(print_functor_node(node)) == node
        f = functor(node)
        for term, text in [(AnSym("a b", (Var(DEFAULT_SORT, "q r"),)), '"a b"("q r")'), (AnSym(",", ()), '","')]:
            assert print_term_for(f, DEFAULT_SORT, term) == text
            assert parse_term_text(text, node, SortedSet.single(["q r"])) == term


@pytest.mark.parametrize("node, wrap", [
    (SortRef(), lambda t: Inj(0, t)),
    (Prod((SortRef(), Const(("a",)))), lambda t: Inj(0, TupleTerm((t, ConstElem("a"))))),
], ids=["id", "id-times-a"])
def test_too_deep_composites_refused_with_and_without_memo(node, wrap):
    # composites of (F+1)^n(1) for F = node: with a memo, each shallower
    # composite is printed first, as the runs verb does
    fp1 = functor(node).plus1
    memo = {}
    t = UNIT_TERM
    for _ in range(MAX_PRINT_DEPTH + 1):
        t = wrap(t)
        try:
            print_term_for(fp1, DEFAULT_SORT, t, memo)
        except TermError as exc:
            assert "nest too deeply" in str(exc)
            break
    else:
        pytest.fail("a composite nesting deeper than MAX_PRINT_DEPTH printed")
    # the refused term nests one level too deep, each step adding one
    # level (F = id) or two (F = id x {a})
    assert MAX_PRINT_DEPTH < _depth(t) <= MAX_PRINT_DEPTH + 2
    with pytest.raises(TermError, match="nest too deeply"):
        print_term_for(fp1, DEFAULT_SORT, t)
    # the walk stops on the way down, so a term nesting deeper than the
    # recursion limit is refused the same way
    for _ in range(sys.getrecursionlimit()):
        t = wrap(t)
    with pytest.raises(TermError, match="nest too deeply"):
        print_term_for(fp1, DEFAULT_SORT, t)
    with pytest.raises(TermError, match="nest too deeply"):
        print_term_for(fp1, DEFAULT_SORT, t, memo)


def test_nested_leaf_over_a_kept_composite_refused():
    # the memo keeps a composite of exactly MAX_PRINT_DEPTH levels; a term
    # holding it two levels below a sort leaf the memo does not keep reads
    # its depth from the memo, so the leaf's own check refuses it
    fp1 = functor(Prod((Const(("a",)), SortRef()))).plus1
    memo = {}
    t = UNIT_TERM
    for _ in range(MAX_PRINT_DEPTH // 2):
        t = step_of_plus1(TupleTerm((ConstElem("a"), t)))
        print_term_for(fp1, DEFAULT_SORT, t, memo)
    assert memo[(DEFAULT_SORT, id(t))][2] == MAX_PRINT_DEPTH
    for _ in range(2):
        t = step_of_plus1(TupleTerm((ConstElem("a"), t)))
    with pytest.raises(TermError, match=f"^terms nest too deeply: more than {MAX_PRINT_DEPTH} levels$"):
        print_term_for(fp1, DEFAULT_SORT, t, memo)


def test_term_of_no_known_node_refused():
    with pytest.raises(ModelParseError, match="^cannot parse a term of <coalgpath.functors.Node object"):
        parse_term_text("x", Node(), SortedSet.single(["x"]))


def _depth(t) -> int:
    """How many term levels nest in ``t``."""
    depth = 0
    while isinstance(t, (Inj, TupleTerm)):
        t = t.arg if isinstance(t, Inj) else t.args[0]
        depth += 1
    return depth


class TestLineGrammar:
    """Every ``left -> right`` line is tokenized once: ``->`` is a token,
    and the left side is ``[sort .] name``."""

    TWO_SORTED = """\
[sorts]
s t

[functor]
s = prod(const(a), sort(s))
t = const(c)

[pointing]
s : *

[states]
s : "a#b"
t : u

[init]
s.* -> s."a#b"

[trans]
s."a#b" -> (a, "a#b")
t.u -> c
"""

    def test_a_quoted_arrow_in_a_name(self):
        f = functor(parse_functor_text("prod(const(a), id)"))
        carrier = SortedSet.single(["a->b", "q0"])
        xi = {
            (DEFAULT_SORT, "a->b"): (TupleTerm((ConstElem("a"), Var(DEFAULT_SORT, "q0"))),),
            (DEFAULT_SORT, "q0"): (TupleTerm((ConstElem("a"), Var(DEFAULT_SORT, "a->b"))),),
        }
        c = PointedCoalgebra(f, singleton_pointing(), carrier, {(DEFAULT_SORT, "*"): "a->b"}, xi)
        printed = print_model(c)
        assert '"a->b" -> (a, q0)' in printed
        assert parse_model(printed) == c

    def test_quoted_multisorted_left_sides(self):
        names = {"a": ["a#b", "p q", "a->b"], "b": ["a#b", "y"]}
        carrier = SortedSet.make(names, MULTISORTED.sorts)
        xi = {
            **{("a", x): (TupleTerm((ConstElem("x"), Var("b", "a#b"))),) for x in names["a"]},
            **{("b", x): (Inj(1, ConstElem("y")),) for x in names["b"]},
        }
        pointing = singleton_pointing(MULTISORTED.sorts)
        c = PointedCoalgebra(MULTISORTED, pointing, carrier, {("a", "*"): "p q"}, xi)
        printed = print_model(c)
        assert 'a."a->b" -> (x, "a#b")' in printed and 'a.* -> a."p q"' in printed
        assert parse_model(printed) == c
        assert print_model(parse_model(printed)) == printed

    def test_a_hand_written_qualified_quoted_name(self):
        c = parse_model(self.TWO_SORTED)
        assert c.point[("s", "*")] == "a#b"
        assert c.xi[("s", "a#b")] == (TupleTerm((ConstElem("a"), Var("s", "a#b"))),)
        assert print_model(c).endswith('[trans]\ns."a#b" -> (a, "a#b")\nt.u -> c\n')

    def test_a_quoted_left_side_is_never_split_as_sort_and_name(self):
        text = (
            '[sorts]\na b\n\n[functor]\na = prod(sort(a), sort(a))\nb = const(c)\n\n'
            '[states]\na : a0 "a.x"\nb : b0\n\n[init]\na.* -> a.a0\n\n'
            '[trans]\n"a.x" -> (a0, "a.x")\nb0 -> c\n'
        )
        c = parse_model(text)
        assert c.xi[("a", "a.x")] == (TupleTerm((Var("a", "a0"), Var("a", "a.x"))),)
        assert parse_model(print_model(c)) == c

    @pytest.mark.parametrize("name", ["*:x", "*.x"])
    def test_a_single_sorted_name_that_starts_like_a_sort(self, name):
        # sorts are named in multisorted files only, so neither the '*:' of
        # an element list nor the '*.' of a left side is read as one here
        f = functor(parse_functor_text("prod(const(a), id)"))
        xi = {(DEFAULT_SORT, name): (TupleTerm((ConstElem("a"), Var(DEFAULT_SORT, name))),)}
        c = PointedCoalgebra(f, singleton_pointing(), SortedSet.single([name]), {(DEFAULT_SORT, "*"): name}, xi)
        assert parse_model(print_model(c)) == c

    def test_unspaced_arrows(self):
        text = LTS_TEXT.replace("* -> q0", "*->q0").replace("q0 -> (a, q1)", "q0->(a, q1)")
        assert parse_coalgebra(text) == parse_coalgebra(LTS_TEXT)

    def test_alias_words_read_as_glyphs_on_left_sides(self):
        text = LTS_TEXT.replace("q0 q1", "ok q1").replace("* -> q0", '* -> "ok"').replace("q0 ->", "ok ->")
        c = parse_coalgebra(text.replace("(b, q0)", "(b, ok)"))
        assert c.point[(DEFAULT_SORT, "*")] == CHECK
        assert len(c.xi[(DEFAULT_SORT, CHECK)]) == 2

    def test_a_name_holding_a_quote_cannot_be_printed(self):
        f = functor(parse_functor_text("prod(const(a), id)"))
        name = 'a"b'
        c = PointedCoalgebra(f, singleton_pointing(), SortedSet.single([name]), {(DEFAULT_SORT, "*"): name},
                             {(DEFAULT_SORT, name): ()})
        with pytest.raises(CoalgError, match=r"""^name 'a"b' holds a double quote"""):
            print_model(c)


# names drawn from all printable text, most often from the characters
# where tokens meet; a name holding '"' cannot be written, and the alias
# words read as their glyphs, so these two are left out
_NAME_PARTS = st.one_of(
    st.sampled_from(["->", *"->#.:* ()[]{},;=/'_a0"]),
    st.characters(exclude_categories=("C", "Zl", "Zp", "Zs"), exclude_characters='"'),
)
NAMES = st.lists(_NAME_PARTS, max_size=4).map("".join).filter(lambda name: name not in ALIASES)
ROUNDTRIP = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def two_sorted_system(a, b, carrier=None):
    """MULTISORTED's shape over the sorts ``a`` and ``b``: each a-state
    steps to (x, the first b-state), each b-state y to y and to
    in0((the first a-state, y))."""
    nodes = {a: Prod((Const(("x",)), SortRef(b))), b: Coprod((Prod((SortRef(a), SortRef(b))), Const(("y",))))}
    carrier = carrier or SortedSet.make({a: ["p0"], b: ["r0"]}, (a, b))
    p, r = carrier.elems(a)[0], carrier.elems(b)[0]
    xi = {(a, x): (TupleTerm((ConstElem("x"), Var(b, r))),) for x in carrier.elems(a)}
    for y in carrier.elems(b):
        xi[(b, y)] = tuple(sorted({Inj(0, TupleTerm((Var(a, p), Var(b, y)))), Inj(1, ConstElem("y"))}))
    return PointedCoalgebra(multisorted((a, b), nodes), singleton_pointing((a, b)), carrier, {(a, "*"): p}, xi)


def _reads_back(obj):
    printed = print_model(obj)
    assert parse_model(printed) == obj
    assert print_model(parse_model(printed)) == printed


def _sorted_names(data, sorts):
    """A carrier over ``sorts`` with at least one drawn name in each sort."""
    per_sort = {s: data.draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)) for s in sorts}
    return SortedSet.make(per_sort, sorts)


class TestPrintedNamesReadBack:
    @pytest.mark.parametrize("elems, sorts", [
        ({"a": ["b.q"], "b": ["q"]}, ("a", "b")),
        ({"*": ["*", "b.x"], "b": ["*.y", "r"]}, ("*", "b")),
        ({"b": ["b.q", "q"]}, ("b",)),
        ({"a": ["a.p", "p"], "b": ["p"]}, ("a", "b")),
    ])
    def test_verb_names_read_back(self, elems, sorts):
        # each element as the verbs write it reads back as that element
        x = SortedSet.make(elems, sorts)
        for key, text in _state_names(x).items():
            assert _read_elem(tokenize(text, 1), 0, x, 1)[0] == key

    @given(st.data())
    @ROUNDTRIP
    def test_single_sorted_systems(self, data):
        consts = data.draw(st.lists(NAMES, min_size=1, max_size=2, unique=True))
        f = functor(Prod((Const(tuple(sorted(consts))), SortRef())))
        carrier = _sorted_names(data, (DEFAULT_SORT,))
        names = carrier.elems(DEFAULT_SORT)
        edges = st.lists(st.tuples(st.sampled_from(consts), st.sampled_from(names)), max_size=2)
        xi = {}
        for x in names:
            terms = {TupleTerm((ConstElem(a), Var(DEFAULT_SORT, y))) for a, y in data.draw(edges)}
            xi[(DEFAULT_SORT, x)] = tuple(sorted(terms))
        point = {(DEFAULT_SORT, "*"): data.draw(st.sampled_from(names))}
        _reads_back(PointedCoalgebra(f, singleton_pointing(), carrier, point, xi))

    @given(st.data())
    @ROUNDTRIP
    def test_multisorted_systems(self, data):
        carrier = _sorted_names(data, MULTISORTED.sorts)
        a_names, b_names = carrier.elems("a"), carrier.elems("b")
        xi = {("a", x): (TupleTerm((ConstElem("x"), Var("b", data.draw(st.sampled_from(b_names))))),) for x in a_names}
        for y in b_names:
            pair = TupleTerm((Var("a", data.draw(st.sampled_from(a_names))), Var("b", y)))
            xi[("b", y)] = tuple(sorted({Inj(1, ConstElem("y")), Inj(0, pair)}))
        point = {("a", "*"): data.draw(st.sampled_from(a_names))}
        _reads_back(PointedCoalgebra(MULTISORTED, singleton_pointing(MULTISORTED.sorts), carrier, point, xi))

    @given(st.lists(NAMES, min_size=4, max_size=4, unique=True))
    @ROUNDTRIP
    def test_paths(self, names):
        # * -> (u, v), then u -> (w, z) and v -> bot
        f = functor(parse_functor_text("prod(id, id)"))
        u, v, w, z = (Var(DEFAULT_SORT, n) for n in names)
        levels = [SortedSet.single(["*"]), SortedSet.single(names[:2]), SortedSet.single(names[2:])]
        steps = [
            {(DEFAULT_SORT, "*"): step_of_plus1(TupleTerm((u, v)))},
            {(DEFAULT_SORT, u.name): step_of_plus1(TupleTerm((w, z))), (DEFAULT_SORT, v.name): bot_of_plus1()},
        ]
        _reads_back(make_path(f, levels, steps))

    @given(NAMES, NAMES)
    @ROUNDTRIP
    def test_multisorted_paths(self, x, y):
        # a.* -> (x, y), then a.x -> bot and b.y -> c
        f = parse_path(TestMultisortedPathFiles.TWO_SORT_TEXT).functor
        levels = [
            singleton_pointing(f.sorts),
            SortedSet.make({"a": [x], "b": [y]}, f.sorts),
            SortedSet.make({}, f.sorts),
        ]
        steps = [
            {("a", "*"): step_of_plus1(TupleTerm((Var("a", x), Var("b", y))))},
            {("a", x): bot_of_plus1(), ("b", y): step_of_plus1(ConstElem("c"))},
        ]
        _reads_back(make_path(f, levels, steps))

    @given(st.data())
    @ROUNDTRIP
    def test_factor_problems(self, data):
        f = functor(parse_functor_text("plus1(prod(id, id))"))
        dom, cod = _sorted_names(data, (DEFAULT_SORT,)), _sorted_names(data, (DEFAULT_SORT,))
        targets = st.sampled_from([Var(DEFAULT_SORT, y) for y in cod.elems(DEFAULT_SORT)])
        pairs = st.tuples(targets, targets).map(lambda pair: step_of_plus1(TupleTerm(pair)))
        terms = st.one_of(st.just(bot_of_plus1()), pairs)
        table = {key: data.draw(terms) for key in dom.pairs()}
        _reads_back(TermMap(dom, f, cod, table))

    @given(st.lists(NAMES, min_size=2, max_size=2, unique=True), st.data())
    @ROUNDTRIP
    def test_symbol_names(self, symbols, data):
        # analytic{ s/1 ; t/0 }: each state x -> s(y) and x -> t
        s, t = symbols
        f = functor(Analytic((Symbol(s, (SortRef(),), PermGroup(1)), Symbol(t, (), PermGroup(0)))))
        carrier = _sorted_names(data, (DEFAULT_SORT,))
        names = carrier.elems(DEFAULT_SORT)
        xi = {
            (DEFAULT_SORT, x): tuple(sorted({AnSym(s, (Var(DEFAULT_SORT, data.draw(st.sampled_from(names))),)),
                                             AnSym(t, ())}))
            for x in names
        }
        point = {(DEFAULT_SORT, "*"): data.draw(st.sampled_from(names))}
        _reads_back(PointedCoalgebra(f, singleton_pointing(), carrier, point, xi))

    def test_sort_names_read_back_or_are_refused(self):
        outcomes = Counter()

        # names from all printable text are mostly unwritable as sorts, so
        # short words over a few name characters are drawn too
        sort_names = st.one_of(NAMES, st.text("ab*_-'.:", min_size=1, max_size=3))

        @given(st.lists(sort_names, min_size=2, max_size=2, unique=True), st.data())
        @ROUNDTRIP
        def check(sorts, data):
            c = two_sorted_system(*sorts, _sorted_names(data, tuple(sorts)))
            try:
                printed = print_model(c)
            except CoalgError as exc:
                assert re.fullmatch(r"sort .* is no bare name free of '\.' and ':', which no model file can carry",
                                    str(exc))
                outcomes["refused"] += 1
                return
            assert parse_model(printed) == c and print_model(parse_model(printed)) == printed
            outcomes["read back"] += 1

        check()
        assert outcomes["refused"] and outcomes["read back"], outcomes

    @pytest.mark.parametrize("sort", ["p q", "a.b", "a:b", "", "a#b", "x=y"])
    def test_unwritable_sorts_are_refused(self, sort):
        c = two_sorted_system(sort, "b")
        with pytest.raises(CoalgError, match=rf"^sort {re.escape(repr(sort))} is no bare name"):
            print_model(c)
        with pytest.raises(CoalgError, match="is no bare name"):
            _key(c.carrier, sort, "p0")

    # a system over the sorts c and {a}, the latter listed on line 3, whose
    # left sides are unqualified; {init} is one more [init] line
    SORTS_TEXT = """\
[sorts]
c
{a}

[functor]
{a} = prod(const(x), sort(c))
c = const(y)

[pointing]
{a} : *

[states]
{a} : p0
c : r0

[init]
* -> p0
{init}
[trans]
p0 -> (x, r0)
r0 -> y
"""

    @pytest.mark.parametrize("sort", ["a.b", "a:b", ".", "x=y", "a,b", "(a)"])
    def test_reader_refuses_unwritable_sorts(self, sort, tmp_path):
        text = self.SORTS_TEXT.format(a=sort, init="")
        with pytest.raises(ModelParseError, match=rf"^line 3: sort {re.escape(repr(sort))} is no bare name"):
            parse_model(text)
        (tmp_path / "sorts.model").write_text(text, encoding="utf-8")
        out, code = run_command(["reach", str(tmp_path / "sorts.model")])
        assert code == 2 and out.startswith("error: line 3: sort ")

    def test_duplicate_left_sides_word_a_valid_sort(self):
        with pytest.raises(ModelParseError, match=r"^line 18: duplicate pointing for 'a\.\*'$"):
            parse_model(self.SORTS_TEXT.format(a="a", init="* -> p0"))
        c = parse_model(self.SORTS_TEXT.format(a="a", init=""))
        with pytest.raises(ModelParseError, match=r"^line 3: duplicate image for 'a\.p0'$"):
            parse_map("[map]\na.p0 -> a.p0\np0 -> a.p0\nc.r0 -> r0\n", c.carrier, c.carrier)
        steps = TestMultisortedPathFiles.TWO_SORT_TEXT + "1 : x -> bot\n"
        with pytest.raises(ModelParseError, match=r"^line 21: duplicate step 1 for 'a\.x'$"):
            parse_path(steps)

    @given(st.sampled_from([(DEFAULT_SORT,), MULTISORTED.sorts]), st.data())
    @ROUNDTRIP
    def test_map_texts(self, sorts, data):
        dom, cod = _sorted_names(data, sorts), _sorted_names(data, sorts)
        table = {(s, x): data.draw(st.sampled_from(cod.elems(s))) for s, x in dom.pairs()}
        text = "[map]\n" + "".join(f"{_key(dom, s, x)} -> {_key(cod, s, y)}\n" for (s, x), y in table.items())
        fun = parse_map(text, dom, cod)
        assert {key: fun(*key) for key in dom.pairs()} == table


class TestFig3PathFile:
    def test_prints_parses_and_validates(self):
        from test_paths import fig3_path
        from model_writers import parse_model, print_path
        from coalgpath.paths import validate_path

        p = fig3_path()
        text = print_path(p)
        again = parse_model(text)
        assert validate_path(again) == []
        assert path_comp(again) == path_comp(p)
        assert print_path(again) == text


# every model file under fixtures/, split into words, single characters
# and whitespace runs; mutations insert or delete one such token.  A
# mutant either raises CoalgError or parses to a model whose printed
# text prints again unchanged
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
            model = parse_model("".join(tokens))
        except CoalgError:
            return
        # whatever parses prints, and the printed text is canonical
        printed = print_model(model)
        assert print_model(parse_model(printed)) == printed


# map files over the carriers of fixtures: the identity on lts_ab.model,
# the fold of two copies of it onto it, and the identity on a two-sorted
# system, written out here since no fixture is a map file
_FIXTURES = pathlib.Path(__file__).parent / "fixtures"
_LTS_CARRIER = parse_coalgebra((_FIXTURES / "lts_ab.model").read_text(encoding="utf-8")).carrier
_TWO_COPIES = SortedSet.single([*_LTS_CARRIER.elems(DEFAULT_SORT), "r0", "r1", "r2"])
_TWO_SORTED = parse_coalgebra((_FIXTURES / "compose" / "twosorted.model").read_text(encoding="utf-8")).carrier
MAP_SEEDS = [
    ("[map]\nq0 -> q0\nq1 -> q1\nq2 -> q2\n", _LTS_CARRIER, _LTS_CARRIER),
    ("# fold the copy r onto q\n[map]\nq0 -> q0\nq1 -> q1\nq2 -> q2\nr0 -> q0\nr1 -> q1\nr2 -> q2\n",
     _TWO_COPIES, _LTS_CARRIER),
    ("[map]\na.as0 -> a.as0\na.as1 -> a.as1\nb.bs0 -> b.bs0\nb.bs1 -> b.bs1\n", _TWO_SORTED, _TWO_SORTED),
]
MAP_VOCABULARY = sorted(
    {t for text, _dom, _cod in MAP_SEEDS for t in TOKEN_RE.findall(text)} | {"x", "-1", "99", "->", "*", "[", "]", '"'}
)


class TestMutatedMaps:
    def test_seeds_parse(self):
        for text, dom, cod in MAP_SEEDS:
            assert parse_map(text, dom, cod).dom == dom

    @given(
        st.sampled_from(range(len(MAP_SEEDS))),
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 10_000), st.sampled_from(MAP_VOCABULARY)), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def test_parse_map_raises_only_coalg_errors(self, seed, mutations):
        text, dom, cod = MAP_SEEDS[seed]
        tokens = TOKEN_RE.findall(text)
        for delete, position, token in mutations:
            position %= len(tokens) + 1
            if delete and tokens:
                del tokens[min(position, len(tokens) - 1)]
            else:
                tokens.insert(position, token)
        try:
            parse_map("".join(tokens), dom, cod)
        except CoalgError:
            pass
