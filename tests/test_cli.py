import argparse
import errno
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

from coalgpath import cli, openmap
from coalgpath.cli import main, run_command
from coalgpath.functors import format_name
from coalgpath.modelio import parse_coalgebra
from coalgpath.sets import CoalgError
from coalgpath.trace import lts_language

from conftest import S3_PRESENTATIONS, drop_last_bfs_level, s3_model

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

BOT = chr(0x22A5)


@pytest.fixture(scope="module")
def lts_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "ab.model"
    path.write_text(
        "[functor]\nprod(const(a b), id)\n\n[states]\nq0 q1 q2\n\n[init]\n* -> q0\n\n"
        "[trans]\nq0 -> (a, q1)\nq1 -> (b, q2)\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="module")
def deep_file(tmp_path_factory):
    """A 97-level product functor, inside the nesting cap, and one
    transition: six steps of its terms nest deeper than the stack allows."""
    node, term = "id", "s0"
    for _ in range(97):
        node, term = f"prod({node}, const(a))", f"({term}, a)"
    path = tmp_path_factory.mktemp("models") / "deep.model"
    path.write_text(
        f"[functor]\n{node}\n\n[states]\ns0\n\n[init]\n* -> s0\n\n[trans]\ns0 -> {term}\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="module")
def fig2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "fig2.factor"
    path.write_text(
        "[functor]\nplus1(prod(id, id))\n\n[domain]\nx1 x2 x3 x4\n\n[codomain]\ny1 y2 y3 y4\n\n"
        "[map]\nx1 -> bot\nx2 -> (y1, y2)\nx3 -> (y2, y2)\nx4 -> bot\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="module")
def hom_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("models")
    src = base / "src.model"
    src.write_text(
        "[functor]\nprod(const(a b), id)\n\n[states]\ns0 s1\n\n[init]\n* -> s0\n\n[trans]\ns0 -> (a, s1)\n",
        encoding="utf-8",
    )
    dst = base / "dst.model"
    dst.write_text(
        "[functor]\nprod(const(a b), id)\n\n[states]\nt0 t1\n\n[init]\n* -> t0\n\n"
        "[trans]\nt0 -> (a, t1)\nt1 -> (a, t1)\n",
        encoding="utf-8",
    )
    mapping = base / "map.map"
    mapping.write_text("[map]\ns0 -> t0\ns1 -> t1\n", encoding="utf-8")
    return str(src), str(dst), str(mapping)


@pytest.fixture(scope="module")
def swap_files(tmp_path_factory):
    """A two-cycle and the map swapping its states: a strict map in all
    but the pointing, which it moves."""
    base = tmp_path_factory.mktemp("models")
    model = base / "cycle.model"
    model.write_text(
        "[functor]\nprod(const(a), id)\n\n[states]\ns0 s1\n\n[init]\n* -> s0\n\n"
        "[trans]\ns0 -> (a, s1)\ns1 -> (a, s0)\n",
        encoding="utf-8",
    )
    mapping = base / "swap.map"
    mapping.write_text("[map]\ns0 -> s1\ns1 -> s0\n", encoding="utf-8")
    return str(model), str(model), str(mapping)


@pytest.fixture(scope="module")
def s3_files(tmp_path_factory):
    """One system written with two presentations of S3, and the identity."""
    base = tmp_path_factory.mktemp("models")
    paths = []
    for name, gens in zip("ab", S3_PRESENTATIONS):
        path = base / f"{name}.model"
        path.write_text(s3_model(gens), encoding="utf-8")
        paths.append(str(path))
    mapping = base / "id.map"
    mapping.write_text("[map]\ns0 -> s0\ns1 -> s1\n", encoding="utf-8")
    return *paths, str(mapping)


class TestVerbs:
    def test_trace_words(self, lts_file):
        text, code = run_command(["trace", lts_file, "--depth", "3"])
        assert code == 0
        assert text.splitlines() == ["ε", "a", "ab"]

    def test_reach(self, lts_file):
        text, code = run_command(["reach", lts_file])
        assert code == 0
        assert "level 0: q0" in text
        assert "path-reachable: yes" in text

    def test_reach_walks_its_bfs_once(self, monkeypatch, lts_file):
        calls = []
        real = openmap.reachable_bfs

        def reachable_bfs(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(openmap, "reachable_bfs", reachable_bfs)
        monkeypatch.setattr(cli, "reachable_bfs", reachable_bfs)
        text, code = run_command(["reach", lts_file])
        assert (code, len(calls)) == (0, 1)
        assert text.splitlines()[-2:] == ["path-reachable: yes", "no-proper-subcoalgebra: yes"]

    def test_reach_fails_when_the_two_algorithms_disagree(self, monkeypatch):
        drop_last_bfs_level(monkeypatch)
        text, code = run_command(["reach", str(FIXTURES / "lts_ab.model")])
        assert code == 1
        assert text.splitlines()[-2:] == ["path-reachable: no", "no-proper-subcoalgebra: yes"]

    def test_runs(self, lts_file):
        text, code = run_command(["runs", lts_file, "--depth", "2"])
        assert code == 0
        assert text.splitlines()[-1] == "6 runs"

    def test_paths(self, lts_file):
        text, code = run_command(["paths", lts_file, "--depth", "1"])
        assert code == 0
        assert text.splitlines()[-1] == "4 paths"  # the empty path plus a, b, bottom

    def test_precise_factor(self, fig2_file):
        text, code = run_command(["precise-factor", fig2_file])
        assert code == 0
        assert '"(x2;0.0)" "(x2;0.1)" "(x3;0.0)" "(x3;0.1)"' in text
        assert '"(x3;0.1)" -> y2' in text

    def test_hom_lax_only_fails(self, hom_files):
        src, dst, mapping = hom_files
        text, code = run_command(["hom", src, dst, mapping])
        assert code == 1
        assert "lax: yes" in text and "strict: no" in text

    def test_open_counterexample(self, hom_files):
        src, dst, mapping = hom_files
        text, code = run_command(["open", src, dst, mapping])
        assert code == 1
        assert "verdict: not-open" in text
        assert "witness square" in text

    def test_open_across_two_presentations_of_one_group(self, s3_files):
        text, code = run_command(["open", *s3_files])
        assert code == 0
        assert text.startswith("verdict: open")

    def test_hom_refuses_a_map_moving_the_pointing(self, swap_files):
        assert run_command(["hom", *swap_files]) == ("lax: no\nstrict: no\n", 1)

    def test_open_refuses_a_map_moving_the_pointing(self, swap_files):
        assert run_command(["open", *swap_files]) == (
            "verdict: not-open (bound 3)\nreason: map does not preserve the pointing\n", 1
        )

    def test_verify_exit_zero(self):
        text, code = run_command(
            ["verify", "--functor", "prod(const(a b), id)", "--trials", "10", "--seed", "42"]
        )
        assert code == 0
        assert text.splitlines()[-1] == "all passed (10 trials)"

    @pytest.mark.parametrize(
        "extra",
        [
            (["--functor", "pf(id)"], "the branching layer is implicit; F must be powerset-free"),
            (["--functor", "prod(id, id)", "--states", "0"], "carrier size for sort '*' must be at least 1, got 0"),
            (["--functor", "prod(id, id)", "--density", "-3"], "density must lie in [0, 1], got -3.0"),
            (["--functor", "prod(id, id)", "--density", "nan"], "density must lie in [0, 1], got nan"),
            (["--functor", "prod(" * 1500 + "id" + ", id)" * 1500], "functor expression nested deeper than 100 levels"),
            (["--functor", "analytic{ a/x }"], "expected an integer, got 'x'"),
            (["--functor", "analytic{ a/2 [(1 x)] }"], "expected an integer, got 'x'"),
            (["--functor", "analytic{ a/3 [(1 2)(2 3)] }"], "cycle entry 2 repeated within one generator"),
            (["--functor", "prod(id, id)", "--states", "-1"], "carrier size for sort '*' must be at least 1, got -1"),
            (["--functor", "analytic{ a/0 ; a/0 }"], "duplicate symbol names: ['a', 'a']"),
            (["--functor", "analytic{ a/-1 }"], "arity must be non-negative"),
            # pf( inside compose: the reader refuses it before compose runs
            (["--functor", "compose(pf(id), id)"], "the branching layer is implicit; F must be powerset-free"),
            (["--functor", "prod(id, sort(zz))"], "expression refers to unknown sort 'zz'"),
        ],
    )
    def test_verify_invalid_spec_exit_two(self, extra):
        argv, message = extra
        assert run_command(["verify", *argv, "--trials", "3"]) == (f"error: {message}\n", 2)

    def test_empty_functor_section_exit_two(self, tmp_path):
        path = tmp_path / "empty.model"
        path.write_text("[functor]\n\n[states]\nq0\n\n[init]\n* -> q0\n", encoding="utf-8")
        text, code = run_command(["trace", str(path), "--depth", "2"])
        assert code == 2
        assert text == "error: empty [functor] section\n"

    def test_missing_functor_section_exit_two(self, tmp_path):
        path = tmp_path / "nofunctor.model"
        path.write_text("[states]\nq0\n\n[init]\n* -> q0\n", encoding="utf-8")
        assert run_command(["trace", str(path), "--depth", "2"]) == ("error: missing [functor] section\n", 2)

    def test_empty_objects_section_exit_two(self, tmp_path):
        path = tmp_path / "empty.cat"
        path.write_text("[objects]\n\n[morphisms]\n", encoding="utf-8")
        text, code = run_command(["lasota", str(path), "--depth", "2"])
        assert code == 2
        assert text == "error: empty [objects] section\n"

    def test_morphism_to_unlisted_object_exit_two(self, tmp_path):
        path = tmp_path / "bad.cat"
        path.write_text(
            "[objects]\n0\n\n[morphisms]\nid0 : 0 -> 0\nf : 0 -> 9\n\n[identities]\n0 : id0\n\n"
            "[composition]\nid0 o id0 = id0\nf o id0 = f\n",
            encoding="utf-8",
        )
        text, code = run_command(["lasota", str(path), "--depth", "1"])
        assert code == 2
        assert text == "error: line 6: morphism 'f' names '9', which is not an object\n"

    def test_bare_punctuation_in_a_state_list_exit_two(self, tmp_path):
        path = tmp_path / "arrow.model"
        path.write_text("[functor]\nprod(const(a), id)\n\n[states]\nq0 -> q1\n\n[init]\n* -> q0\n", encoding="utf-8")
        text, code = run_command(["trace", str(path), "--depth", "2"])
        assert (text, code) == ("error: line 5: expected a name, got '->'\n", 2)

    # a quoted mark is a name, never punctuation; a bare mark is never a name
    @pytest.mark.parametrize(
        "functor_text, states, trans, message",
        [
            ('prod"("id"," id)', "q0", "", "line 2: expected '(', got '\"(\"'"),
            ("prod(const(a), id)", "q0 q1", 'q0 "->" "("a"," q1")"', "line 11: expected 'state -> term'"),
            ('prod(const(a ","), id)', "q0 q1", 'q0 -> (a"," q1)', "line 11: expected ',', got '\",\"'"),
            ("prod(const(a), sort(,))", "q0", "", "line 2: expected a name, got ','"),
            ("analytic{ ; /0 }", "q0", "", "line 2: expected a name, got ';'"),
            ("prod(const(a), id)", 'q0 ","', "q0 -> (a, ,)", "line 11: expected a name, got ','"),
        ],
        ids=["quoted-functor-marks", "quoted-arrow", "quoted-comma-in-term", "bare-sort", "bare-symbol",
             "bare-comma-in-term"],
    )
    def test_quoted_and_bare_marks_exit_two(self, tmp_path, functor_text, states, trans, message):
        path = tmp_path / "marks.model"
        path.write_text(
            f"[functor]\n{functor_text}\n\n[states]\n{states}\n\n[init]\n* -> q0\n\n[trans]\n{trans}\n",
            encoding="utf-8",
        )
        text, code = run_command(["trace", str(path), "--depth", "2"])
        assert (text, code) == (f"error: {message}\n", 2)

    def test_identity_of_unlisted_object_exit_two(self, tmp_path):
        path = tmp_path / "bad.cat"
        path.write_text(
            "[objects]\na b\n\n[morphisms]\nida : a -> a\n\n[identities]\na : ida\nc : idb\n\n"
            "[composition]\nida o ida = ida\n",
            encoding="utf-8",
        )
        text, code = run_command(["lasota", str(path), "--depth", "1"])
        assert (text, code) == ("error: line 9: identity 'idb' names 'c', which is not an object\n", 2)

    @pytest.mark.parametrize(
        "identity, composition, line",
        [
            # a composite of a non-morphism, which no composable pair looks up
            ("0 : id0", "id0 o id0 = id0\nid0 o zz = id0", 12),
            ("0 : id0", "id0 o id0 = zz", 11),
            ("0 : zz", "id0 o id0 = id0", 8),
        ],
        ids=["composition-operand", "composition-result", "identity"],
    )
    def test_non_morphism_name_exit_two(self, tmp_path, identity, composition, line):
        path = tmp_path / "bad.cat"
        path.write_text(
            f"[objects]\n0\n\n[morphisms]\nid0 : 0 -> 0\n\n[identities]\n{identity}\n\n[composition]\n{composition}\n",
            encoding="utf-8",
        )
        text, code = run_command(["lasota", str(path), "--depth", "1"])
        assert (text, code) == (f"error: line {line}: 'zz' is not a morphism\n", 2)

    def test_initial_not_an_object_exit_two(self, tmp_path):
        path = tmp_path / "bad.cat"
        path.write_text(
            "[objects]\n0\n\n[initial]\nz\n\n[morphisms]\nid0 : 0 -> 0\n\n[identities]\n0 : id0\n\n"
            "[composition]\nid0 o id0 = id0\n",
            encoding="utf-8",
        )
        text, code = run_command(["lasota", str(path), "--depth", "1"])
        assert (text, code) == ("error: line 5: initial object 'z' is not an object\n", 2)

    def test_empty_initial_section_exit_two(self, tmp_path):
        path = tmp_path / "bad.cat"
        path.write_text("[objects]\n0\n\n[initial]\n\n[morphisms]\nid0 : 0 -> 0\n", encoding="utf-8")
        text, code = run_command(["lasota", str(path), "--depth", "1"])
        assert (text, code) == ("error: empty [initial] section\n", 2)

    def test_missing_identity_exit_one(self, tmp_path):
        path = tmp_path / "bad.cat"
        path.write_text(
            "[objects]\na b\n\n[morphisms]\nida : a -> a\n\n[identities]\na : ida\n\n"
            "[composition]\nida o ida = ida\n",
            encoding="utf-8",
        )
        text, code = run_command(["lasota", str(path), "--depth", "1"])
        assert (text, code) == ("invalid category: identity: no identity for 'b'\n", 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "{lts}"],
            ["runs", "{lts}"],
            ["paths", "{lts}"],
            ["lasota", "{cat}"],
            ["rnna", "{rnna}", "--pool", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_depth_exit_two(self, lts_file, tmp_path, argv):
        from model_writers import print_category
        from conftest import poset_category

        cat = tmp_path / "poset.cat"
        cat.write_text(print_category(poset_category(2)), encoding="utf-8")
        rnna = tmp_path / "auto.rnna"
        rnna.write_text("[states]\nq0/0\n\n[init]\nq0\n\n[rules]\nq0 -> ok\n", encoding="utf-8")
        files = {"lts": lts_file, "cat": str(cat), "rnna": str(rnna)}
        text, code = run_command([arg.format(**files) for arg in argv] + ["--depth", "-1"])
        assert (text, code) == ("error: depth must be non-negative\n", 2)

    def test_negative_bound_exit_two(self, hom_files):
        text, code = run_command(["open", *hom_files, "--bound", "-3"])
        assert (text, code) == ("error: bound must be non-negative\n", 2)

    def test_zero_bound_means_carrier_size_plus_one(self, hom_files):
        # the source system has two states
        text, code = run_command(["open", *hom_files, "--bound", "0"])
        assert "(bound 3)" in text
        assert (text, code) == run_command(["open", *hom_files, "--bound", "3"]) == run_command(["open", *hom_files])

    @pytest.mark.parametrize("verb", ["runs", "trace", "paths", "reach", "hom", "open", "precise-factor"])
    def test_powerset_functor_exit_two(self, tmp_path, verb):
        # the reader refuses pf( on the [functor] line of each file
        model = tmp_path / "pf.model"
        model.write_text("[functor]\npf(id)\n\n[states]\ns0\n\n[init]\n* -> s0\n\n[trans]\ns0 -> {s0}\n",
                         encoding="utf-8")
        factor = tmp_path / "pf.factor"
        factor.write_text("[functor]\npf(id)\n\n[domain]\nx\n\n[codomain]\ny\n\n[map]\nx -> {y}\n", encoding="utf-8")
        mapping = tmp_path / "pf.map"
        mapping.write_text("[map]\ns0 -> s0\n", encoding="utf-8")
        argv = {
            "reach": [str(model)],
            "hom": [str(model), str(model), str(mapping)],
            "open": [str(model), str(model), str(mapping)],
            "precise-factor": [str(factor)],
        }.get(verb, [str(model), "--depth", "2"])
        text, code = run_command([verb, *argv])
        assert (text, code) == ("error: line 2: the branching layer is implicit; F must be powerset-free\n", 2)

    @pytest.mark.parametrize("verb", ["trace", "runs"])
    def test_deep_terms_exit_two(self, deep_file, verb):
        text, code = run_command([verb, deep_file, "--depth", "6"])
        assert code == 2
        assert text.startswith("error: ")

    def test_an_error_discards_the_lines_yielded_before_it(self, deep_file):
        """``runs`` yields 25 lines on this file before its terms nest too
        deeply; the text is then the error line alone."""
        args = cli._parser().parse_args(["runs", deep_file, "--depth", "6"])
        yielded = []
        with pytest.raises(CoalgError, match="terms nest too deeply"):
            for line in args.run(args):
                yielded.append(line)
        assert len(yielded) == 25
        text, code = run_command(["runs", deep_file, "--depth", "6"])
        assert (text.count("\n"), code) == (1, 2)
        assert text.startswith("error: ")

    def test_a_recursion_error_mid_output_is_the_one_error_line(self, monkeypatch):
        """A ``RecursionError`` from a library call after two lines were
        yielded: the text is the error line alone, with exit 2."""
        real, calls = cli.print_term_for, []

        def print_term_for(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RecursionError("maximum recursion depth exceeded")
            return real(*args)

        monkeypatch.setattr(cli, "print_term_for", print_term_for)
        text, code = run_command(["paths", str(FIXTURES / "compose" / "tree.model"), "--depth", "1"])
        assert (text, code) == ("error: terms nest too deeply: maximum recursion depth exceeded\n", 2)
        assert len(calls) == 2

    def test_verify_nested_composition_in_outer_slot(self):
        functor_text = "compose(compose(prod(id, id), coprod(const(c), id)), id)"
        text, code = run_command(["verify", "--functor", functor_text, "--trials", "3"])
        assert code == 0
        assert text.splitlines()[-1] == "all passed (3 trials)"

    def test_lasota(self, tmp_path):
        from model_writers import print_category
        from conftest import poset_category

        path = tmp_path / "poset.cat"
        path.write_text(print_category(poset_category(2)), encoding="utf-8")
        text, code = run_command(["lasota", str(path), "--depth", "2"])
        assert code == 0
        assert "length 2: paths 3 sequences 3" in text

    def test_rnna(self, tmp_path):
        path = tmp_path / "auto.rnna"
        path.write_text(
            "[states]\nq0/0 q1/1 q2/1\n\n[init]\nq0\n\n[rules]\n"
            "q0 -> bar q1 [0]\nq1 -> reg(1) q2 [1]\nq2 -> ok\n",
            encoding="utf-8",
        )
        text, code = run_command(["rnna", str(path), "--pool", "2", "--depth", "3"])
        assert code == 0
        assert "states: 5" in text
        assert "|. ^1 ✓" in text

    @pytest.mark.parametrize("lines", [
        ["q0 -> q0", "q1 -> q1", "q2 -> q2", "q0 -> q1"],
        ["q0 -> q1", "q1 -> q1", "q2 -> q2", "q0 -> q0"],
    ], ids=["last-line-not-strict", "last-line-strict"])
    def test_repeated_map_line_exit_two(self, tmp_path, lines):
        mapping = tmp_path / "twice.map"
        mapping.write_text("[map]\n" + "\n".join(lines) + "\n", encoding="utf-8")
        model = str(FIXTURES / "lts_ab.model")
        text, code = run_command(["hom", model, model, str(mapping)])
        assert (text, code) == ("error: line 5: duplicate image for 'q0'\n", 2)

    def test_repeated_factor_line_exit_two(self, tmp_path):
        problem = tmp_path / "twice.factor"
        text = (FIXTURES / "compose" / "pair.factor").read_text(encoding="utf-8")
        problem.write_text(text + "x1 -> (c, c)\n", encoding="utf-8")
        out, code = run_command(["precise-factor", str(problem)])
        assert (out, code) == ("error: line 14: duplicate image for 'x1'\n", 2)

    def test_repeated_sort_exit_two(self, tmp_path):
        model = tmp_path / "twice.model"
        text = (FIXTURES / "compose" / "twosorted.model").read_text(encoding="utf-8")
        model.write_text(text.replace("[sorts]\na b\n", "[sorts]\na b\na\n"), encoding="utf-8")
        out, code = run_command(["reach", str(model)])
        assert (out, code) == ("error: line 5: duplicate sort 'a'\n", 2)

    @pytest.mark.parametrize("again", ["b = coprod(const(c d), sort(a))", "a = prod(sort(a), sort(b))"])
    def test_repeated_sort_expression_exit_two(self, tmp_path, again):
        model = tmp_path / "twice.model"
        text = (FIXTURES / "compose" / "twosorted.model").read_text(encoding="utf-8")
        line = "b = coprod(const(c), sort(a))\n"
        model.write_text(text.replace(line, f"{line}{again}\n"), encoding="utf-8")
        out, code = run_command(["reach", str(model)])
        assert (out, code) == (f"error: line 9: duplicate expression for sort '{again[0]}'\n", 2)

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("[functor]\nfrobnicate(id)\n", encoding="utf-8")
        _text, code = run_command(["trace", str(bad), "--depth", "1"])
        assert code == 2

    def test_missing_file_exit_two(self):
        _text, code = run_command(["reach", "/nonexistent/nothing.model"])
        assert code == 2

    def test_ascii_flag(self, lts_file):
        text, code = run_command(["--ascii", "runs", lts_file, "--depth", "1"])
        assert code == 0
        assert BOT not in text


TWO_SORTS = "[sorts]\na b\n\n[functor]\na = prod(sort(b), sort(a))\nb = coprod(const(c), sort(a))\n"
SHARED_P = f"{TWO_SORTS}\n[pointing]\na : z\n\n[states]\na : p\nb : p\n\n[init]\n"
CATEGORY = "[objects]\n0\n\n[initial]\n0\n\n[morphisms]\n"
PAIR_FACTOR = "[functor]\nprod(id, id)\n\n[domain]\nx1 x2\n\n[codomain]\ny\n\n[map]\n"
TWO_OBJECTS = "[objects]\n0 1\n\n[morphisms]\n"


class TestRefusalsThroughVerbs:
    """Each refusal of a model reader, reached through a verb: the message
    names its line where it has one, and bad input exits 2."""

    @pytest.mark.parametrize(
        "verb, suffix, text, message",
        [
            ("reach", "model", "[functor]\nid\n\n[states]\nq0\n\n[states]\nq1\n",
             "line 7: duplicate section [states]"),
            ("reach", "model", f"{SHARED_P}z -> p\n", "line 16: ambiguous element 'p'; qualify as sort.elem"),
            ("reach", "model", f"{SHARED_P}a.z -> b.p\n", "line 16: pointing must stay within its sort"),
            ("reach", "model", "[sorts]\na b\n\n[functor]\na = prod(sort(b), sort(a))\n\n[states]\na : p\nb : p\n",
             "no functor expression for sorts ['b']"),
            ("precise-factor", "factor", "[functor]\nprod(id, id)\n\n[domain]\nx\n\n[map]\nx -> (x, x)\n",
             "need [domain] and [codomain] sections"),
            ("lasota", "cat", f"{CATEGORY}id0 0 -> 0\n", "line 8: expected 'name : dom -> cod'"),
            ("lasota", "cat", f"{CATEGORY}id0 : 0 -> 0\n\n[identities]\n0 id0 x\n",
             "line 11: expected 'object : identity-name'"),
            ("lasota", "cat", f"{CATEGORY}id0 : 0 -> 0\n\n[identities]\n0 : id0\n\n[composition]\nid0 id0 = id0\n",
             "line 14: expected 'g o f = h'"),
            ("rnna", "rnna", "[states]\nq0/1 q1\n\n[init]\nq0\n\n[rules]\nq0 -> ok\n",
             "line 2: expected 'name/registers'"),
            ("precise-factor", "factor", f"{PAIR_FACTOR}x1 -> (y, y)\n", "term map not total: missing [('*', 'x2')]"),
            ("precise-factor", "factor", "[functor]\nprod(id, sort(zz))\n\n[domain]\nx\n\n[codomain]\ny\n",
             "line 2: expression refers to unknown sort 'zz'"),
            # compose substitutes for id alone
            ("reach", "model", "[functor]\ncompose(sort(b), id)\n\n[states]\nx\n", "no expression for sort 'b'"),
            # a pointed element that no [init] line sends anywhere
            ("reach", "model", "[functor]\nprod(const(a), id)\n\n[pointing]\np q\n\n[states]\nx\n\n[init]\np -> x\n",
             "pointing not total: missing ('*', 'q')"),
        ],
        ids=["duplicate-section", "ambiguous-element", "across-sorts", "missing-expression", "missing-codomain",
             "morphism-line", "identity-line", "composition-line", "register-state", "map-not-total",
             "factor-unknown-sort", "compose-outer-sort", "pointing-not-total"],
    )
    def test_refusal_exits_two(self, tmp_path, verb, suffix, text, message):
        path = tmp_path / f"bad.{suffix}"
        path.write_text(text, encoding="utf-8")
        options = {"lasota": ["--depth", "1"], "rnna": ["--pool", "3", "--depth", "1"]}.get(verb, [])
        assert run_command([verb, str(path), *options]) == (f"error: {message}\n", 2)

    def test_duplicate_morphism_names_fail_the_category(self, tmp_path):
        path = tmp_path / "dup.cat"
        path.write_text(
            f"{CATEGORY}id0 : 0 -> 0\nid0 : 0 -> 0\n\n[identities]\n0 : id0\n\n[composition]\nid0 o id0 = id0\n",
            encoding="utf-8",
        )
        text, code = run_command(["lasota", str(path), "--depth", "1"])
        assert (text, code) == ("invalid category: duplicate: duplicate morphism names: ['id0', 'id0']\n", 1)

    @pytest.mark.parametrize(
        "text, lines",
        [
            (f"{TWO_OBJECTS}id1 : 1 -> 1\nm : 0 -> 1\n\n[identities]\n0 : m\n1 : id1\n\n"
             "[composition]\nid1 o id1 = id1\nid1 o m = m\n",
             ["identity: identity of '0' has wrong end points"]),
            # associativity is not checked past an ill-typed composite, whose
            # composites with the pairs around it do not exist
            (f"{TWO_OBJECTS}id0 : 0 -> 0\nid1 : 1 -> 1\nm : 0 -> 1\n\n[identities]\n0 : id0\n1 : id1\n\n"
             "[composition]\nid0 o id0 = id0\nid1 o id1 = id1\nm o id0 = id0\nid1 o m = m\n",
             ["typing: composite m o id0 = id0 ill-typed", "identity-law: m o id0 != m"]),
        ],
        ids=["identity-end-points", "ill-typed-composite"],
    )
    def test_invalid_category_exits_one(self, tmp_path, text, lines):
        path = tmp_path / "bad.cat"
        path.write_text(text, encoding="utf-8")
        out = "".join(f"invalid category: {line}\n" for line in lines)
        assert run_command(["lasota", str(path), "--depth", "1"]) == (out, 1)

    @pytest.mark.parametrize("verb", ["open", "hom"])
    def test_endpoints_over_two_functors_exit_two(self, tmp_path, verb):
        files = []
        for name, node, term in (("two", "prod(id, id)", "(s, s)"), ("three", "prod(id, id, id)", "(s, s, s)")):
            path = tmp_path / f"{name}.model"
            path.write_text(f"[functor]\n{node}\n\n[states]\ns\n\n[init]\n* -> s\n\n[trans]\ns -> {term}\n",
                            encoding="utf-8")
            files.append(str(path))
        mapping = tmp_path / "id.map"
        mapping.write_text("[map]\ns -> s\n", encoding="utf-8")
        assert run_command([verb, *files, str(mapping)]) == ("error: morphism endpoints disagree on the functor\n", 2)

    @pytest.mark.parametrize("verb", ["open", "hom"])
    def test_endpoints_with_two_pointings_exit_two(self, tmp_path, verb):
        files = []
        for name, pointing, point in (("star", "", "*"), ("named", "[pointing]\np\n\n", "p")):
            path = tmp_path / f"{name}.model"
            path.write_text(f"[functor]\nprod(const(a), id)\n\n{pointing}[states]\ns\n\n[init]\n{point} -> s\n\n"
                            "[trans]\ns -> (a, s)\n", encoding="utf-8")
            files.append(str(path))
        mapping = tmp_path / "id.map"
        mapping.write_text("[map]\ns -> s\n", encoding="utf-8")
        assert run_command([verb, *files, str(mapping)]) == (
            "error: morphism endpoints disagree on the pointing object\n", 2)

    def test_empty_atom_pool_exit_two(self, tmp_path):
        path = tmp_path / "auto.rnna"
        path.write_text("[states]\nq0/0\n\n[init]\nq0\n\n[rules]\nq0 -> ok\n", encoding="utf-8")
        assert run_command(["rnna", str(path), "--pool", "0", "--depth", "1"]) == (
            "error: atom pool must contain at least one atom\n", 2)


# a sort leaf naming a sort that no [sorts] line lists, in a multisorted
# file and in a single-sort one
BAD_SORT_MODELS = {
    "multisorted": "[sorts]\nt\n\n[functor]\nt = prod(const(a), sort(zz))\n\n[states]\nt : x\n\n[init]\n* -> t.x\n",
    "single-sort": "[functor]\nprod(const(a), sort(zz))\n\n[states]\nx\n\n[init]\n* -> x\n",
}


class TestUnknownSortLeaves:
    """A functor whose sort leaf names no sort of it is bad input to every
    verb that reads a model file (``verify --functor`` and
    ``precise-factor`` are among the refusals above): one error line
    naming the sort, exit 2."""

    @pytest.mark.parametrize("model", sorted(BAD_SORT_MODELS))
    @pytest.mark.parametrize("verb", ["paths", "runs", "trace", "reach", "open", "hom"])
    def test_model_verbs_exit_two(self, tmp_path, verb, model):
        path = tmp_path / "bad.model"
        path.write_text(BAD_SORT_MODELS[model], encoding="utf-8")
        map_path = tmp_path / "id.map"
        map_path.write_text("[map]\nx -> x\n", encoding="utf-8")
        argv = {"paths": ["--depth", "1"], "runs": ["--depth", "1"], "trace": ["--depth", "1"],
                "open": [str(path), str(map_path)], "hom": [str(path), str(map_path)]}.get(verb, [])
        # the [functor] line that holds the leaf: line 5 of the multisorted file, line 2 of the other
        line = {"multisorted": 5, "single-sort": 2}[model]
        assert run_command([verb, str(path), *argv]) == (
            f"error: line {line}: expression refers to unknown sort 'zz'\n", 2)

    def test_composite_leaf_of_a_listed_sort_runs(self, tmp_path):
        # compose substitutes for id alone, so the inner sort leaf names a listed sort
        path = tmp_path / "comp.model"
        path.write_text("[sorts]\na b\n\n[functor]\na = compose(prod(id, id), sort(b))\nb = const(c)\n\n"
                        "[states]\na : x\nb : y\n\n[init]\n* -> a.x\n\n[trans]\na.x -> (y, y)\n", encoding="utf-8")
        assert run_command(["trace", str(path), "--depth", "1"]) == ("0 : •\n1 : (•, •)\n", 0)


class TestUnreadableFiles:
    """A model file that cannot be read, or is not UTF-8, is bad input:
    one ``error:`` line naming the path, and exit 2."""

    def test_a_directory(self, tmp_path):
        out, code = run_command(["reach", str(tmp_path)])
        assert code == 2
        assert out.startswith("error: ") and out.count("\n") == 1 and repr(str(tmp_path)) in out

    @pytest.mark.parametrize("data, where", [
        (b"[functor]\nid\n\n[states]\nq\xe9\n", "byte 24: invalid continuation byte"),
        (b"\xff", "byte 0: invalid start byte"),
    ], ids=["latin-1", "0xff"])
    def test_a_file_that_is_not_utf8(self, tmp_path, data, where):
        path = tmp_path / "bad.model"
        path.write_bytes(data)
        assert run_command(["reach", str(path)]) == (f"error: {str(path)!r} is not UTF-8 ({where})\n", 2)

    def test_a_file_without_read_permission(self, tmp_path, monkeypatch):
        # the tests may run as root, whom chmod does not keep out of a
        # file, so open is patched to refuse the way it refuses a file
        # without read permission
        path = tmp_path / "locked.model"
        path.write_text("[functor]\nid\n", encoding="utf-8")

        def refuse(file, *_args, **_kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", file)

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        assert run_command(["reach", str(path)]) == (f"error: [Errno 13] Permission denied: {str(path)!r}\n", 2)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_read_as_newlines(self, lts_file, tmp_path, newline):
        path = tmp_path / "lts.model"
        path.write_bytes(pathlib.Path(lts_file).read_bytes().replace(b"\n", newline.encode()))
        assert run_command(["reach", str(path)]) == run_command(["reach", lts_file])

    @pytest.mark.parametrize("bad", ["directory", "not-utf8"])
    def test_the_module_exits_two_with_no_traceback(self, tmp_path, bad):
        path = tmp_path
        if bad == "not-utf8":
            path = tmp_path / "bad.model"
            path.write_bytes(b"\xff")
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-m", "coalgpath.cli", "reach", str(path)], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stdout.startswith("error: ") and str(path) in done.stdout


def test_the_parser_binds_each_verb_to_a_generator_function():
    """The parser is the one verb table: every subcommand runs a
    generator function of ``cli``."""
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 10
    for verb, parser in sub.choices.items():
        run = parser.get_default("run")
        assert inspect.isgeneratorfunction(run) and getattr(cli, run.__name__) is run, verb
        # a verb reads its arguments alone: names print through format_name's one cache
        assert list(inspect.signature(run).parameters) == ["args"], verb


def test_each_name_is_formatted_once_across_verbs():
    """``format_name`` keeps one bounded cache for the process, which every
    verb and printer reads: after the ``trace`` verb, ``lts_language``
    formats no name again, and a second round of ``trace``, ``runs`` and
    ``lts_language`` formats none."""
    path = FIXTURES / "compose" / "quotednames.model"
    system = parse_coalgebra(path.read_text(encoding="utf-8"))
    verbs = [lambda: run_command(["trace", str(path), "--depth", "3"]), lambda: lts_language(system, 3),
             lambda: run_command(["runs", str(path), "--depth", "3"])]
    format_name.cache_clear()
    first, misses = [], []
    for verb in verbs:
        first.append(verb())
        misses.append(format_name.cache_info().misses)
    # the trace verb spells its words from the three constants, and runs
    # writes the states and the pointed element too
    assert misses[0] == misses[1] == 3 and misses[2] > 3
    assert [verb() for verb in verbs] == first
    info = format_name.cache_info()
    assert info.misses == misses[2] and info.maxsize is not None


@pytest.mark.parametrize("argv, code", [(["reach", "{lts}"], 0), (["reach", "/nonexistent/nothing.model"], 2)])
def test_main_writes_the_verb_text_and_exits_with_its_code(monkeypatch, capsys, lts_file, argv, code):
    argv = [arg.format(lts=lts_file) for arg in argv]
    monkeypatch.setattr(sys, "argv", ["coalgpath", *argv])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert (capsys.readouterr().out, exit_.value.code) == run_command(argv)
    assert exit_.value.code == code


class TestDeterminism:
    COMMANDS = [
        ["trace", "{lts}", "--depth", "4"],
        ["reach", "{lts}"],
        ["runs", "{lts}", "--depth", "3"],
        ["verify", "--functor", "prod(const(a b), id)", "--trials", "20", "--seed", "42"],
    ]

    def test_byte_identical_across_runs(self, lts_file):
        for template in self.COMMANDS:
            argv = [arg.format(lts=lts_file) for arg in template]
            first = run_command(argv)
            second = run_command(argv)
            assert first == second

    def test_consecutive_calls_share_no_state(self, lts_file, hom_files):
        """The parser is built once; a flag or option given to one call is
        not seen by the next, and a usage error leaves nothing behind."""
        runs = ["runs", lts_file, "--depth", "1"]
        plain = run_command(runs)
        assert BOT in plain[0]
        assert BOT not in run_command(["--ascii", *runs])[0]
        assert run_command(runs) == plain
        bounded = run_command(["open", *hom_files, "--bound", "7"])
        assert "(bound 7)" in bounded[0]
        assert "(bound 3)" in run_command(["open", *hom_files])[0]
        assert run_command(["runs", lts_file, "--depth", "x"]) == ("", 2)
        assert run_command(runs) == plain
