import pathlib

import pytest

from coalgpath.cli import run_command

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

    def test_verify_exit_zero(self):
        text, code = run_command(
            ["verify", "--functor", "prod(const(a b), id)", "--trials", "10", "--seed", "42"]
        )
        assert code == 0
        assert text.splitlines()[-1] == "all passed (10 trials)"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--functor", "pf(id)"],
            ["--functor", "prod(id, id)", "--states", "0"],
            ["--functor", "prod(id, id)", "--density", "-3"],
            ["--functor", "prod(id, id)", "--density", "nan"],
            ["--functor", "prod(" * 1500 + "id" + ", id)" * 1500],
            ["--functor", "analytic{ a/x }"],
            ["--functor", "analytic{ a/2 [(1 x)] }"],
            ["--functor", "analytic{ a/3 [(1 2)(2 3)] }"],
        ],
    )
    def test_verify_invalid_spec_exit_two(self, extra):
        text, code = run_command(["verify", *extra, "--trials", "3"])
        assert code == 2
        assert text.startswith("error: ") and "FAILURES" not in text

    def test_empty_functor_section_exit_two(self, tmp_path):
        path = tmp_path / "empty.model"
        path.write_text("[functor]\n\n[states]\nq0\n\n[init]\n* -> q0\n", encoding="utf-8")
        text, code = run_command(["trace", str(path), "--depth", "2"])
        assert code == 2
        assert text == "error: empty [functor] section\n"

    def test_empty_objects_section_exit_two(self, tmp_path):
        path = tmp_path / "empty.cat"
        path.write_text("[objects]\n\n[morphisms]\n", encoding="utf-8")
        text, code = run_command(["lasota", str(path), "--depth", "2"])
        assert code == 2
        assert text == "error: empty [objects] section\n"

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
        from coalgpath.modelio import print_category
        from conftest import poset_category

        cat = tmp_path / "poset.cat"
        cat.write_text(print_category(poset_category(2)), encoding="utf-8")
        rnna = tmp_path / "auto.rnna"
        rnna.write_text("[states]\nq0/0\n\n[init]\nq0\n\n[rules]\nq0 -> ok\n", encoding="utf-8")
        files = {"lts": lts_file, "cat": str(cat), "rnna": str(rnna)}
        text, code = run_command([arg.format(**files) for arg in argv] + ["--depth", "-1"])
        assert (text, code) == ("error: depth must be non-negative\n", 2)

    @pytest.mark.parametrize("verb", ["trace", "runs"])
    def test_deep_terms_exit_two(self, deep_file, verb):
        text, code = run_command([verb, deep_file, "--depth", "6"])
        assert code == 2
        assert text.startswith("error: ")

    def test_verify_nested_composition_in_outer_slot(self):
        functor_text = "compose(compose(prod(id, id), coprod(const(c), id)), id)"
        text, code = run_command(["verify", "--functor", functor_text, "--trials", "3"])
        assert code == 0
        assert text.splitlines()[-1] == "all passed (3 trials)"

    def test_lasota(self, tmp_path):
        from coalgpath.modelio import print_category
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
