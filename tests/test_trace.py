import random

import pytest

from coalgpath.coalgebra import (
    CoalgMorphism,
    GenSpec,
    PointedCoalgebra,
    is_lax_hom,
    lts_coalgebra,
    random_coalgebra,
)
from coalgpath.functors import (
    Analytic,
    Const,
    Coprod,
    Prod,
    SortRef,
    Symbol,
    functor,
    lts_functor,
    strip_plus1,
)
from coalgpath.groups import symmetric_group, trivial_group
from coalgpath.paths import comp, enumerate_runs
from coalgpath.sets import CoalgError, DEFAULT_SORT, SortedFun
from coalgpath.trace import lts_language, trace, trace_equiv, tree_partial_runs

from conftest import linear_word_system, single, trace_pairs, var
from oracles import prefix_closed

CHECK = chr(0x2713)


def graph_bfs_language(c: PointedCoalgebra, depth: int) -> set[str]:
    """Independent prefix-language oracle by direct graph search."""
    has_check = False
    node = c.functor.node(DEFAULT_SORT)
    if hasattr(node, "parts") and len(node.parts) == 2 and isinstance(node.parts[1], Const):
        has_check = True
    words = set()
    init = c.point[(DEFAULT_SORT, "*")]
    frontier = [(init, "")]
    words.add("")
    for _ in range(depth):
        new_frontier = []
        for state, word in frontier:
            for t in c.xi[(DEFAULT_SORT, state)]:
                if has_check:
                    inner = strip_plus1(t) if False else t
                    if t.key[0] == 3 and t.index == 1:  # the final marker
                        words.add(word + CHECK)
                        continue
                    pair = t.arg
                else:
                    pair = t
                label = pair.args[0].name
                target = pair.args[1].name
                new_frontier.append((target, word + label))
                words.add(word + label)
        frontier = new_frontier
    return words


def literal_trace_values(c: PointedCoalgebra, depth: int):
    """The definition verbatim: composites of bottom-free runnable paths."""
    out = set()
    for p, _r in enumerate_runs(c, depth):
        if all(strip_plus1(t) is not None for st in p.steps for t in st.table.values()):
            bottom_free = _strip_path_comp(p)
            out.add((p.length, bottom_free))
    return out


def _strip_path_comp(p):
    """comp over F instead of F+1 (drop the injection wrappers)."""
    from coalgpath.functors import UNIT_TERM, subst_node

    current = {key: UNIT_TERM for key in p.levels[p.length].pairs()}
    for k in range(p.length - 1, -1, -1):
        nxt = {}
        for (s, x), t in p.steps[k].table.items():
            inner = strip_plus1(t)
            nxt[(s, x)] = subst_node(p.functor.node(s), inner, current)
        current = nxt
    return tuple(sorted((key, t) for key, t in current.items()))


class TestTrace:
    def test_matches_literal_definition(self):
        rng = random.Random(17)
        for seed in range(25):
            c = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 4)}, 0.4, seed))
            depth = 3
            memoized = {(d, ((key, t),)) for d, ((key, terms),) in trace(c, depth).per_depth for t in terms}
            assert memoized == literal_trace_values(c, depth), f"seed {seed}"

    def test_empty_structure_gives_only_unit(self):
        c = lts_coalgebra("ab", ["s0"], "s0", [])
        flat = trace_pairs(trace(c, 3))
        assert {(d, repr(t)) for d, t in flat} == {(0, "•")}

    def test_monotone_in_depth(self):
        c = linear_word_system("ab", "ab")
        shallow = trace_pairs(trace(c, 1))
        deep = trace_pairs(trace(c, 2))
        assert shallow <= deep

    def test_negative_depth_rejected(self):
        with pytest.raises(CoalgError):
            trace(linear_word_system("a", "a"), -1)


class TestTraceEquiv:
    def test_reflexive(self):
        c = linear_word_system("ab", "ab")
        assert trace_equiv(c, c, 4)

    def test_different_labels_differ_at_depth_one(self):
        a_loop = lts_coalgebra("ab", ["s"], "s", [("s", "a", "s")])
        b_loop = lts_coalgebra("ab", ["s"], "s", [("s", "b", "s")])
        assert not trace_equiv(a_loop, b_loop, 1)

    def test_open_maps_preserve_traces(self):
        from coalgpath.openmap import is_open, reachable_bfs

        rng = random.Random(23)
        seen_open = 0
        for seed in range(40):
            src = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 5)}, 0.35, seed))
            _lv, union = reachable_bfs(src)
            src = src.restrict(union)
            dst = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 4)}, 0.35, seed + 999))
            keys = list(src.carrier.pairs())
            table = {k: rng.choice(dst.carrier.elems(k[0])) for k in keys}
            for (s, i) in src.pointing.pairs():
                table[(s, src.point[(s, i)])] = dst.point[(s, i)]
            m = CoalgMorphism(src, dst, SortedFun(src.carrier, dst.carrier, table))
            bound = src.carrier.size() + 1
            if is_open(m, bound).is_open:
                seen_open += 1
                assert trace_equiv(src, dst, bound)
        assert seen_open

    def test_lax_homomorphism_gives_inclusion(self):
        src = linear_word_system("ab", "ab")
        dst = linear_word_system("ab", "abb")
        table = {(DEFAULT_SORT, f"q{i}"): f"q{i}" for i in range(3)}
        m = CoalgMorphism(src, dst, SortedFun(src.carrier, dst.carrier, table))
        assert is_lax_hom(m)
        assert trace_pairs(trace(src, 3)) <= trace_pairs(trace(dst, 3))

    def test_functor_mismatch_rejected(self):
        with pytest.raises(CoalgError):
            trace_equiv(linear_word_system("a", "a"), linear_word_system("ab", "ab"), 2)


class TestLtsLanguage:
    def test_linear_word(self):
        c = linear_word_system("ab", "ab")
        assert lts_language(c, 3) == {"", "a", "ab"}

    def test_no_transitions(self):
        c = lts_coalgebra("ab", ["s0"], "s0", [])
        assert lts_language(c, 3) == {""}

    def test_final_marker_words(self):
        f = functor(Coprod((Prod((Const(("a", "b")), SortRef())), Const((CHECK,)))))
        from coalgpath.functors import ConstElem, Inj, TupleTerm

        carrier = single(["q0", "q1", "q2"])
        c = PointedCoalgebra(
            f,
            single(["*"]),
            carrier,
            {(DEFAULT_SORT, "*"): "q0"},
            {
                (DEFAULT_SORT, "q0"): (Inj(0, TupleTerm((ConstElem("a"), var("q1")))),),
                (DEFAULT_SORT, "q1"): (
                    Inj(0, TupleTerm((ConstElem("b"), var("q2")))),
                ),
                (DEFAULT_SORT, "q2"): (Inj(1, ConstElem(CHECK)),),
            },
        )
        words = lts_language(c, 3)
        assert words == {"", "a", "ab", "ab" + CHECK}

    def test_oracle_agreement_on_random_systems(self):
        rng = random.Random(31)
        for seed in range(100):
            c = random_coalgebra(
                GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 6)}, rng.choice([0.2, 0.4]), seed)
            )
            assert lts_language(c, 6) == graph_bfs_language(c, 6), f"seed {seed}"

    def test_wrong_shape_rejected(self):
        c = PointedCoalgebra(
            functor(Prod((SortRef(), SortRef()))),
            single(["*"]),
            single(["s"]),
            {(DEFAULT_SORT, "*"): "s"},
            {(DEFAULT_SORT, "s"): ()},
        )
        with pytest.raises(CoalgError):
            lts_language(c, 2)


class TestTreePartialRuns:
    def _automaton(self, group):
        sig = Analytic(
            (
                Symbol("b", (SortRef(), SortRef()), group),
                Symbol("c", (), trivial_group(0)),
            )
        )
        f = functor(sig)
        from coalgpath.functors import ansym

        carrier = single(["q"])
        return PointedCoalgebra(
            f,
            single(["*"]),
            carrier,
            {(DEFAULT_SORT, "*"): "q"},
            {
                (DEFAULT_SORT, "q"): (
                    ansym(group, "b", (var("q"), var("q"))),
                    ansym(trivial_group(0), "c", ()),
                ),
            },
        )

    def test_depth_two_partial_runs(self):
        c = self._automaton(trivial_group(2))
        runs = tree_partial_runs(c, 2)
        assert "b(•, •)" in runs
        assert "b(c, c)" in runs
        assert "b(c, b(•, •))" in runs
        assert "c" in runs
        assert "•" in runs
        # units sit exactly at the cut depth, so a constant next to a unit
        # cannot appear (no bottom-free path composes to it)
        assert "b(c, •)" not in runs
        assert "b(•, c)" not in runs

    def test_no_rules(self):
        sig = Analytic((Symbol("c", (), trivial_group(0)),))
        c = PointedCoalgebra(
            functor(sig), single(["*"]), single(["q"]), {(DEFAULT_SORT, "*"): "q"}, {(DEFAULT_SORT, "q"): ()}
        )
        assert tree_partial_runs(c, 2) == {"•"}

    def test_symmetric_signature_identifies_mirrored_trees(self):
        c = self._automaton(symmetric_group(2))
        runs = tree_partial_runs(c, 2)
        mirrored = {r for r in runs if "c" in r and "•" in r and r.startswith("b")}
        assert len(mirrored) == 1  # b(c, cut) and b(cut, c) coincide


class TestPrefixClosure:
    def test_on_random_systems(self):
        rng = random.Random(37)
        for seed in range(30):
            c = random_coalgebra(GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 5)}, 0.4, seed))
            assert prefix_closed(trace(c, 4))

    def test_on_tree_systems(self):
        f = functor(Coprod((Prod((SortRef(), SortRef())), Const(("a",)))))
        rng = random.Random(41)
        for seed in range(20):
            c = random_coalgebra(GenSpec(f, {DEFAULT_SORT: rng.randint(1, 3)}, 0.25, seed))
            assert prefix_closed(trace(c, 3))
