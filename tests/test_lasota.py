import pytest

from coalgpath.coalgebra import GenSpec
from coalgpath.functors import Const, Coprod, Prod, SortRef, eval_functor
from coalgpath.lasota import (
    FiniteCategory,
    composable_sequences,
    enumerate_lasota_paths,
    lasota_functor,
    lasota_pointing,
    paths_bijection_check,
    validate_category,
)
from coalgpath.openmap import verify_theorems
from coalgpath.sets import SortedSet
from conftest import one_object_category, poset_category


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
        assert report.ok
        assert report.per_length == [(0, 1, 1), (1, 2, 2), (2, 3, 3)]

    def test_poset_three_objects_depth_three(self):
        report = paths_bijection_check(poset_category(3), 3)
        assert report.ok
        assert [n for (_l, n, _s) in report.per_length] == [1, 3, 6, 10]

    def test_one_object_single_path_per_length(self):
        report = paths_bijection_check(one_object_category(), 3)
        assert report.ok
        assert all(paths == 1 for (_l, paths, _s) in report.per_length)

    def test_sequences_listing(self):
        assert composable_sequences(poset_category(2), 2) == [
            ("id0", "id0"),
            ("id0", "m01"),
            ("m01", "id1"),
        ]

    def test_paths_decode_to_sequences(self):
        cat = poset_category(2)
        assert enumerate_lasota_paths(cat, 2) == composable_sequences(cat, 2)

    def test_precise_iff_characteristic_flag(self):
        report = paths_bijection_check(poset_category(2), 1)
        assert report.precise_ok


class TestLasotaHarness:
    @pytest.mark.parametrize("objects", [2, 3])
    def test_theorems_over_encoded_category(self, objects):
        cat = poset_category(objects)
        f = lasota_functor(cat)
        sizes = {s: 2 for s in f.sorts}
        spec = GenSpec(f, sizes, 0.3, 11, pointing=lasota_pointing(cat))
        report = verify_theorems(spec, 25)
        assert report.all_passed, [r.clauses for r in report.results if not r.passed]


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
