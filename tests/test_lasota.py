from collections import Counter

import pytest

from coalgpath import functors, lasota, precise
from coalgpath.cli import run_command
from coalgpath.coalgebra import GenSpec
from coalgpath.functors import Const, Coprod, Prod, SortRef, _leaf_states, eval_functor, multisorted
from coalgpath.lasota import (
    FiniteCategory,
    composable_sequences,
    _lasota_paths_by_length,
    lasota_functor,
    lasota_pointing,
    paths_bijection_check,
    validate_category,
)
from coalgpath.openmap import verify_theorems
from coalgpath.sets import CoalgError, SortedSet
from coalgpath.precise import element_shapes, precise_chains
from conftest import BAG2_PLUS1, CONST_PLUS1, FIG2, LTS_AB_PLUS1, one_object_category, poset_category, random_category
from model_writers import print_category
from oracles import precise_iff_characteristic_oracle


class TestValidateCategory:
    def test_one_object_monoid(self):
        assert validate_category(one_object_category()) == []

    def test_poset_chain_with_composites(self):
        assert validate_category(poset_category(3)) == []

    def test_missing_composite_detected(self):
        cat = FiniteCategory(
            ("0",),
            (("id0", "0", "0"), ("f", "0", "0")),
            {"0": "id0"},
            {("id0", "id0"): "id0", ("id0", "f"): "f", ("f", "id0"): "f"},
            "0",
        )
        problems = validate_category(cat)
        assert problems and problems[0].kind == "totality"

    def test_identity_law_violation(self):
        cat = FiniteCategory(
            ("0",),
            (("id0", "0", "0"), ("f", "0", "0")),
            {"0": "id0"},
            {("id0", "id0"): "id0", ("id0", "f"): "id0", ("f", "id0"): "f", ("f", "f"): "f"},
            "0",
        )
        problems = validate_category(cat)
        assert any(v.kind == "identity-law" for v in problems)

    def test_associativity_violation(self):
        # two non-identity endos with a deliberately asymmetric table
        cat = FiniteCategory(
            ("0",),
            (("id0", "0", "0"), ("f", "0", "0"), ("g", "0", "0")),
            {"0": "id0"},
            {
                ("id0", "id0"): "id0", ("id0", "f"): "f", ("f", "id0"): "f",
                ("id0", "g"): "g", ("g", "id0"): "g",
                ("f", "f"): "g", ("f", "g"): "id0", ("g", "f"): "f", ("g", "g"): "f",
            },
            "0",
        )
        problems = validate_category(cat)
        assert any(v.kind == "associativity" for v in problems)


class TestLasotaFunctor:
    def test_one_object_is_identity_times_hom(self):
        cat = one_object_category()
        f = lasota_functor(cat)
        node = f.node("0")
        assert node == Coprod((Prod((Const(("id0",)), SortRef("0"))),))
        x = SortedSet.make({"0": ["x", "y"]}, ("0",))
        assert len(eval_functor(f, x)["0"]) == 2  # id x X  ~  X

    def test_poset_sort_zero_expression(self):
        cat = poset_category(2)
        f = lasota_functor(cat)
        node = f.node("0")
        assert node == Coprod(
            (
                Prod((Const(("id0",)), SortRef("0"))),
                Prod((Const(("m01",)), SortRef("1"))),
            )
        )

    def test_empty_homsets_dropped(self):
        cat = poset_category(2)
        f = lasota_functor(cat)
        # no morphisms 1 -> 0, so sort 1 has a single summand
        assert f.node("1") == Coprod((Prod((Const(("id1",)), SortRef("1"))),))


class TestLasotaPointing:
    def test_singleton_at_initial(self):
        cat = poset_category(3)
        i = lasota_pointing(cat)
        assert i.elems("0") == ("*",)
        assert i.elems("1") == ()
        assert i.elems("2") == ()

    def test_single_object_pointing(self):
        i = lasota_pointing(one_object_category())
        assert i.size() == 1


class TestPathsBijection:
    def test_poset_two_objects(self):
        report = paths_bijection_check(poset_category(2), 2)
        assert not report.mismatches
        assert report.per_length == [(0, 1, 1), (1, 2, 2), (2, 3, 3)]

    def test_poset_three_objects_depth_three(self):
        report = paths_bijection_check(poset_category(3), 3)
        assert not report.mismatches
        assert [n for (_l, n, _s) in report.per_length] == [1, 3, 6, 10]

    def test_one_object_single_path_per_length(self):
        report = paths_bijection_check(one_object_category(), 3)
        assert not report.mismatches
        assert all(paths == 1 for (_l, paths, _s) in report.per_length)

    def test_sequences_listing(self):
        assert composable_sequences(poset_category(2), 2) == [
            ("id0", "id0"),
            ("id0", "m01"),
            ("m01", "id1"),
        ]

    def test_paths_decode_to_sequences(self):
        cat = poset_category(2)
        assert _lasota_paths_by_length(cat, lasota_functor(cat), 2)[2] == composable_sequences(cat, 2)

    def test_level_of_two_elements_raises_coalg_error(self, monkeypatch):
        # chains whose first step maps two elements, as no Lasota pointing gives
        two = SortedSet.single(["x", "y"])
        monkeypatch.setattr(lasota, "precise_chains", lambda f, start, n: precise_chains(LTS_AB_PLUS1, two, n))
        with pytest.raises(CoalgError, match="lasota path level did not decode to one morphism"):
            _lasota_paths_by_length(poset_category(2), lasota_functor(poset_category(2)), 1)

    def test_precise_iff_characteristic_flag(self):
        report = paths_bijection_check(poset_category(2), 1)
        assert report.precise_ok


def _a(k: int = 1):
    return (SortRef("a"),) * k


def _b(k: int = 1):
    return (SortRef("b"),) * k


# sort-a expressions whose shapes have 0, 1, 2 and 3 leaves over sorts a and b
TWO_SORT_NODES = {
    "const": Const(("c",)),
    "a": SortRef("a"),
    "b": SortRef("b"),
    "aa": Prod(_a(2)),
    "ab": Prod(_a() + _b()),
    "aaa": Prod(_a(3)),
    "aab": Prod(_a(2) + _b()),
    "abb": Prod(_a() + _b(2)),
    "const+a": Coprod((Const(("c",)), SortRef("a"))),
    "a+b": Coprod((SortRef("a"), SortRef("b"))),
    "a+ab": Coprod((SortRef("a"), Prod(_a() + _b()))),
    "b+bbb": Coprod((SortRef("b"), Prod(_b(3)))),
}


def _sorts_named(lines, end):
    """The sorts the criterion's lines name, each line's sort ending at ``end``."""
    return sorted({line.split("at sort ", 1)[1].split(end, 1)[0] for line in lines})


def _covering_bound(f):
    """The least bound at which the oracle builds every carrier a shape's
    leaves need: the most leaves of one sort in one shape, and at least 1."""
    counts = [Counter(sort for sort, _name in _leaf_states(f, p, shape))
              for p in f.sorts for shape in element_shapes(f, p)]
    return max([1, *(max(c.values(), default=0) for c in counts)])


def _exact_against_oracle(f, objects, max_y):
    """The leaf-count rule flags every sort where the bounded loop finds a
    failing term, and exactly those once the bound covers every shape."""
    lines = lasota._precise_iff_characteristic(f)
    flagged = _sorts_named(lines, ":")
    found = _sorts_named(precise_iff_characteristic_oracle(f, objects, max_y), ",")
    if max_y >= _covering_bound(f):
        assert flagged == found
    else:
        assert set(found) <= set(flagged)
    return lines


class TestPreciseIffCharacteristicOracle:
    CATEGORIES = (
        [poset_category(k) for k in range(1, 5)]
        + [one_object_category()]
        + [random_category(seed) for seed in range(6)]
    )

    @pytest.mark.parametrize("index", range(len(CATEGORIES)))
    @pytest.mark.parametrize("max_y", [1, 2])
    def test_lasota_functors_never_disagree(self, index, max_y):
        cat = self.CATEGORIES[index]
        assert validate_category(cat) == []
        f = lasota_functor(cat)
        assert _covering_bound(f) == 1
        assert _exact_against_oracle(f, tuple(cat.objects), max_y) == []

    def test_random_categories_are_varied(self):
        cats = [random_category(seed) for seed in range(6)]
        assert len({len(c.objects) for c in cats}) > 1
        assert any(len(c.hom(c.initial, c.initial)) == 2 for c in cats)

    @pytest.mark.parametrize("name_a", sorted(TWO_SORT_NODES))
    @pytest.mark.parametrize("name_b", ["const", "b", "ab", "bbb"])
    @pytest.mark.parametrize("max_y", [0, 1, 2, 3])
    def test_two_sort_functors(self, name_a, name_b, max_y):
        node_b = {"const": Const(("d",)), "b": SortRef("b"), "ab": Prod(_a() + _b()), "bbb": Prod(_b(3))}[name_b]
        f = multisorted(("a", "b"), {"a": TWO_SORT_NODES[name_a], "b": node_b})
        assert _covering_bound(f) <= 3
        _exact_against_oracle(f, ("a", "b"), max_y)

    @pytest.mark.parametrize("f", [FIG2, BAG2_PLUS1, LTS_AB_PLUS1, CONST_PLUS1], ids=["fig2", "bag2", "lts", "const"])
    @pytest.mark.parametrize("max_y", [0, 1, 2])
    def test_one_sort_functors(self, f, max_y):
        assert _covering_bound(f) <= 2
        _exact_against_oracle(f, tuple(f.sorts), max_y)

    def test_leaf_counts_decide(self):
        # no leaf: fails at the empty carrier; one leaf: never; two leaves:
        # fail at the carrier of the two
        f = multisorted(("a", "b"), {"a": Coprod((Const(("c",)), SortRef("a"), Prod(_a() + _b()))), "b": SortRef("b")})
        assert _exact_against_oracle(f, ("a", "b"), 1) == [
            "precise-iff-characteristic fails at sort a: shape in0(c) has 0 leaves",
            "precise-iff-characteristic fails at sort a: shape in2((v001, v002)) has 2 leaves",
        ]

    def test_blind_spot_of_the_bound(self):
        # three a-leaves and a b-leaf: precise only over a carrier with three
        # elements of sort a, which max_y = 2 never builds, and never over a
        # one-element carrier, since it needs both sorts
        f = multisorted(("a", "b"), {"a": Prod(_a(3) + _b()), "b": SortRef("b")})
        assert precise_iff_characteristic_oracle(f, ("a", "b"), 2) == []
        assert _sorts_named(precise_iff_characteristic_oracle(f, ("a", "b"), 3), ",") == ["a"]
        assert lasota._precise_iff_characteristic(f) == [
            "precise-iff-characteristic fails at sort a: shape (v001, v002, v003, v004) has 4 leaves",
        ]

    def test_bijection_check_reads_no_carrier(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("carrier evaluated")

        monkeypatch.setattr(precise, "is_precise", forbidden)
        monkeypatch.setattr(functors, "eval_functor", forbidden)
        # every eval_functor, however its caller imported it, reads through here
        monkeypatch.setattr(functors, "_evaluated", forbidden)
        report = paths_bijection_check(poset_category(5), 3)
        assert report.mismatches == []


class TestLasotaVerbFailsVisibly:
    """Each comparison of the ``lasota`` verb, seen to fire: with one fault
    injected into what it compares, the verb prints the disagreement and
    exits 1."""

    @staticmethod
    def lasota_verb(tmp_path) -> tuple[str, int]:
        path = tmp_path / "poset.cat"
        path.write_text(print_category(poset_category(3)), encoding="utf-8")
        return run_command(["lasota", str(path), "--depth", "2"])

    def test_a_dropped_chain_breaks_the_bijection(self, monkeypatch, tmp_path):
        real = lasota.precise_chains
        monkeypatch.setattr(lasota, "precise_chains", lambda f, start, n: list(real(f, start, n))[:-1])
        text, code = self.lasota_verb(tmp_path)
        assert code == 1
        assert "length 2: paths 5 sequences 6\n" in text
        assert "\nprecise-iff-characteristic: ok\nmismatch: length 2: paths " in text
        assert text.endswith("bijection: FAIL\n")

    def test_an_added_sequence_breaks_the_bijection(self, monkeypatch, tmp_path):
        real = lasota.composable_sequences
        monkeypatch.setattr(lasota, "composable_sequences", lambda cat, n: real(cat, n) + [("extra",) * n] * (n == 1))
        text, code = self.lasota_verb(tmp_path)
        assert code == 1
        assert "length 1: paths 3 sequences 4\n" in text
        assert "\nmismatch: length 1: paths [('id0',), ('m01',), ('m02',)] != sequences " in text
        assert text.endswith("bijection: FAIL\n")

    def test_a_precise_test_wrong_on_one_shape_breaks_the_criterion(self, monkeypatch, tmp_path):
        real = lasota._leaf_states
        # wrong on one shape, the letter of m01 out of the point, which
        # reads as two leaves: no term with two leaves fits a Lasota
        # functor, so the shapes themselves cannot gain one
        monkeypatch.setattr(lasota, "_leaf_states", lambda f, p, shape: real(f, p, shape) * (1 + ("m01" in repr(shape))))
        text, code = self.lasota_verb(tmp_path)
        assert code == 1
        assert "length 2: paths 6 sequences 6\nprecise-iff-characteristic: FAIL\n" in text
        assert "\nmismatch: precise-iff-characteristic fails at sort 0: shape in1((m01, v001)) has 2 leaves\n" in text
        assert text.endswith("bijection: FAIL\n")


class TestLasotaHarness:
    @pytest.mark.parametrize("objects", [2, 3])
    def test_theorems_over_encoded_category(self, objects):
        cat = poset_category(objects)
        f = lasota_functor(cat)
        sizes = {s: 2 for s in f.sorts}
        spec = GenSpec(f, sizes, 0.3, 11, pointing=lasota_pointing(cat))
        report = verify_theorems(spec, 25)
        assert report.all_passed, [r.clauses for r in report.results if r.clauses]


class TestMultisortedAxioms:
    """Homset-order structure of the encoding, exercised sortwise."""

    def _encoded(self):
        cat = poset_category(2)
        f = lasota_functor(cat)
        x = SortedSet.make({"0": ["p0"], "1": ["p1"]}, ("0", "1"))
        return f, x

    def test_unit_decomposition_multisorted(self):
        from oracles import decompose_into_units

        f, x = self._encoded()
        terms = eval_functor(f, x)
        behaviour = {("0", "p0"): terms["0"], ("1", "p1"): terms["1"][:1]}
        units = list(decompose_into_units(behaviour))
        rebuilt = {k: set() for k in behaviour}
        for unit in units:
            for k, t in unit.items():
                if t is not None:
                    rebuilt[k].add(t)
        assert {k: frozenset(v) for k, v in rebuilt.items()} == {
            k: frozenset(v) for k, v in behaviour.items()
        }

    def test_choice_lifting_multisorted(self):
        from oracles import lift_choice
        from coalgpath.functors import fmap
        from coalgpath.sets import SortedFun

        f, x = self._encoded()
        y = SortedSet.make({"0": ["q0"], "1": ["q1"]}, ("0", "1"))
        h = SortedFun(x, y, {("0", "p0"): "q0", ("1", "p1"): "q1"})
        terms = eval_functor(f, x)
        x_map = {("0", "a"): terms["0"], ("1", "b"): terms["1"]}
        y_map = {
            ("0", "a"): fmap(f, h, "0", terms["0"][0]),
            ("1", "b"): None,
        }
        lifted = lift_choice(x_map, y_map, h, f)
        assert lifted[("1", "b")] is None
        assert fmap(f, h, "0", lifted[("0", "a")]) == y_map[("0", "a")]
