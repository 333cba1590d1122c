import dataclasses
import operator
import os
import pathlib
import random
import subprocess
import sys

import pytest

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
    Var,
    functor,
    multisorted,
    strip_plus1,
    word_route,
)
from coalgpath.groups import orbit_minima, PermGroup
from coalgpath.modelio import parse_coalgebra, parse_functor_text
from coalgpath.openmap import reachable_bfs
from coalgpath.paths import comp, comps_are_words, enumerate_runs
from coalgpath.sets import CoalgError, DEFAULT_SORT, SortedFun, SortedSet
from coalgpath import trace as trace_module
from coalgpath.trace import lts_language, trace, trace_equiv, word_traces

from conftest import (
    linear_word_system,
    lts_coalgebra,
    lts_functor,
    single,
    symmetric_group,
    trace_pairs,
    tree_partial_runs,
    var,
)
from oracles import (
    backward_word_traces,
    decoded_word_traces,
    eager_state_traces,
    per_depth_sets,
    prefix_closed,
    spelt_language,
    trace_words,
)

CHECK = chr(0x2713)
COMPOSE = pathlib.Path(__file__).parent / "fixtures" / "compose"


def compose_system(name: str) -> PointedCoalgebra:
    return parse_coalgebra((COMPOSE / name).read_text(encoding="utf-8"))


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
                    if isinstance(t, Inj) and t.index == 1:  # the final marker
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


def _eager_per_depth(c: PointedCoalgebra, depth: int):
    """``trace(c, depth).per_depth`` rebuilt from the whole-carrier table."""
    table = eager_state_traces(c, depth)
    per_depth = []
    for d in range(depth + 1):
        items = tuple(((s, i), table[((s, c.point[(s, i)]), d)]) for s, i in c.pointing.pairs())
        if all(terms for _key, terms in items):
            per_depth.append((d, items))
    return tuple(per_depth)


WORD_CHECK = functor(Coprod((Prod((Const(("a", "b")), SortRef())), Const((CHECK,)))))


class TestRestrictedTable:
    """The table ``trace`` fills only where the pointing reaches agrees
    with the whole-carrier table."""

    # name, functor, carrier sizes, density, depth; sizes and densities keep
    # the product and tree trace sets small at the depth used, and leave a
    # state unreachable at one seed or more
    SYSTEMS = [
        ("lts", lts_functor("ab"), {DEFAULT_SORT: 5}, 0.2, 4),
        ("lts-check", WORD_CHECK, {DEFAULT_SORT: 5}, 0.2, 4),
        ("binary", functor(Prod((SortRef(), SortRef()))), {DEFAULT_SORT: 4}, 0.12, 3),
        ("pair-leaf", functor(parse_functor_text("analytic{ pair/2 [(1 2)] ; leaf/0 }")), {DEFAULT_SORT: 4}, 0.3, 3),
        ("bag3", functor(parse_functor_text("analytic{ bag/3 [(1 2), (1 2 3)] ; leaf/0 }")), {DEFAULT_SORT: 3}, 0.2, 3),
        ("tri3-cyclic", functor(parse_functor_text("analytic{ tri/3 [(1 2 3)] ; leaf/0 }")), {DEFAULT_SORT: 3}, 0.2, 3),
        ("composite", functor(parse_functor_text("compose(prod(id, id), coprod(const(c), id))")),
         {DEFAULT_SORT: 3}, 0.05, 2),
        (
            "multisorted",
            multisorted(("a", "b"), {"a": Prod((Const(("x",)), SortRef("b"))),
                                     "b": Coprod((Prod((SortRef("a"), SortRef("b"))), Const(("y",))))}),
            {"a": 3, "b": 3},
            0.3,
            3,
        ),
    ]

    @pytest.mark.parametrize("name, f, sizes, density, depth", SYSTEMS, ids=[s[0] for s in SYSTEMS])
    def test_agrees_with_eager_table(self, monkeypatch, name, f, sizes, density, depth):
        # the orbit rule serves the flat analytic transitions, and only them
        calls = []

        def spy(g, pool):
            calls.append(g)
            return orbit_minima(g, pool)

        monkeypatch.setattr(trace_module, "orbit_minima", spy)
        unreachable = 0
        for seed in range(20):
            # every other system points at two states
            pointing = None if seed % 2 else SortedSet.make({f.sorts[0]: ["i", "j"]}, f.sorts)
            c = random_coalgebra(GenSpec(f, sizes, density, seed, pointing))
            _levels, union = reachable_bfs(c)
            unreachable += union != set(c.carrier.pairs())
            ts = trace(c, depth)
            # each entry holds its terms once, in an order the set compare ignores
            assert all(len(set(terms)) == len(terms) for _d, items in ts.per_depth for _k, terms in items), seed
            assert per_depth_sets(ts) == _eager_per_depth(c, depth), f"seed {seed}"
        assert unreachable
        assert bool(calls) == isinstance(f.node(f.sorts[0]), Analytic)

    @staticmethod
    def first_seen_spy(monkeypatch) -> list:
        """Record each one-argument ``dict.fromkeys`` call in ``trace``,
        the route of a table entry whose runs do not join in term order;
        ``_reach`` passes a value, and ``trace`` does not walk words."""
        taken = []

        class Spy(dict):
            @classmethod
            def fromkeys(cls, keys, *value):
                if not value:
                    taken.append(keys)
                return dict.fromkeys(keys, *value)

        monkeypatch.setattr(trace_module, "dict", Spy, raising=False)
        return taken

    def test_tree_entries_are_joined_runs_in_term_order(self, monkeypatch):
        # every state of the trace-enum tree has the same traces, so each
        # pair transition takes the orbit route, and its run follows leaf's
        taken = self.first_seen_spy(monkeypatch)
        table = trace_module._state_traces(compose_system("trace_enum_tree.model"), 5)
        assert [len(table[((DEFAULT_SORT, "t0"), d)]) for d in range(6)] == [1, 2, 4, 11, 67, 2279]
        for key, terms in table.items():
            assert type(terms) is tuple and all(map(operator.lt, terms, terms[1:])), key
        assert not taken

    def test_runs_that_meet_drop_repeats_in_first_seen_order(self, monkeypatch):
        # x's two pair runs both hold pair(leaf, leaf): they meet, so the
        # entry drops the repeat, each term kept where it is first seen
        taken = self.first_seen_spy(monkeypatch)
        c = parse_coalgebra(
            "[functor]\nanalytic{ pair/2 [(1 2)] ; leaf/0 }\n\n[states]\na b x\n\n[init]\n* -> x\n\n"
            "[trans]\na -> leaf\nb -> leaf\nx -> pair(a, a)\nx -> pair(b, b)\n"
        )
        (_d, ((_key, terms),)) = trace(c, 2).per_depth[2]
        assert [repr(t) for t in terms] == ["pair(leaf, leaf)"]
        assert taken

    def test_product_route_entries_hold_each_term_once(self, monkeypatch):
        # z -> bag(x, y, z) builds the same multiset from several tuples
        taken = self.first_seen_spy(monkeypatch)
        ts = trace(compose_system("bag.model"), 3)
        assert taken
        for _d, items in ts.per_depth:
            for _key, terms in items:
                assert len(set(terms)) == len(terms)


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

    def test_entries_compared_as_sets(self):
        # x steps by a to p and to q; c2 swaps p's and q's letters, so x's
        # depth-2 entry holds the same terms in the other order
        edges = [("x", "a", "p"), ("x", "a", "q"), ("p", "a", "r"), ("q", "b", "r")]
        c1 = lts_coalgebra("ab", ["p", "q", "r", "x"], "x", edges)
        c2 = lts_coalgebra("ab", ["p", "q", "r", "x"], "x", edges[:2] + [("p", "b", "r"), ("q", "a", "r")])
        (_d, ((_k, terms1),)), (_d2, ((_k2, terms2),)) = trace(c1, 2).per_depth[2], trace(c2, 2).per_depth[2]
        assert terms1 != terms2 and set(terms1) == set(terms2)
        assert trace_equiv(c1, c2, 2)
        c3 = lts_coalgebra("ab", ["p", "q", "r", "x"], "x", edges[:2] + [("p", "b", "r"), ("q", "b", "r")])
        assert trace_equiv(c1, c3, 1) and not trace_equiv(c1, c3, 2)

    def test_each_pointed_element_compared(self):
        # i's traces are equal on both sides; j's differ from depth 1 on
        c1 = TestLtsLanguage._two_pointed((Inj(1, ConstElem(CHECK)),))
        c2 = PointedCoalgebra(c1.functor, c1.pointing, c1.carrier, {**c1.point, (DEFAULT_SORT, "j"): "q0"}, c1.xi)
        assert trace_equiv(c1, c2, 0)
        assert not trace_equiv(c1, c2, 1)


class TestPointedSorts:
    """The word routes take a system whose default sort is word-shaped
    only when every pointed sort is letter-labelled too; every other
    system keeps the route it had."""

    TWO_POINTED = (COMPOSE / "pointedsort.model").read_text(encoding="utf-8").replace(
        "t : j\n", "* : i\nt : j\n").replace("t.j -> t.u\n", "*.i -> *.p\nt.j -> t.u\n")

    @staticmethod
    def run_verbs(tmp_path, text: str, depth: int) -> tuple[list[str], list[str]]:
        path = tmp_path / "sorts.model"
        path.write_text(text, encoding="utf-8")
        out = []
        for verb in ("trace", "runs"):
            printed, code = run_command([verb, str(path), "--depth", str(depth)])
            assert code == 0, printed
            out.append(printed.splitlines())
        return out[0], out[1]

    def test_word_sort_beside_a_tree_sort(self):
        c = compose_system("pointedsort.model")
        assert not word_route(c.functor, ["t"]) and word_route(c.functor, [DEFAULT_SORT])
        assert not comps_are_words(c.functor, c.pointing)

    def test_two_points_one_at_a_tree_sort(self, tmp_path):
        traces, _runs = self.run_verbs(tmp_path, self.TWO_POINTED, 2)
        assert traces == [
            "*.i : 0 : •", "*.i : 1 : (a, •)", "*.i : 2 : (a, (b, •))",
            "t.j : 0 : •", "t.j : 1 : (•, •)", "t.j : 2 : ((•, •), (•, •))",
        ]

    def test_point_at_a_word_sort_beside_a_tree_default(self, tmp_path):
        # the default sort is a tree: both verbs print terms, as they
        # always have, though the pointed sort t is a word sort
        traces, runs = self.run_verbs(
            tmp_path,
            "[sorts]\n* t\n\n[functor]\n* = prod(sort(*), sort(*))\nt = prod(const(a b), sort(t))\n\n"
            "[pointing]\nt : j\n\n[states]\n* : p\nt : u v\n\n[init]\nt.j -> t.u\n\n"
            "[trans]\n*.p -> (p, p)\nt.u -> (a, v)\nt.v -> (b, u)\n",
            2,
        )
        assert traces == ["0 : •", "1 : (a, •)", "2 : (a, (b, •))"]
        assert "run 5: length 2 comp in0((a, in0((b, •)))) [0:j->u 1:n000->v 2:n000->u]" in runs

    def test_letter_sort_beside_a_word_default(self, tmp_path):
        # the pointed sort t has two letter summands: letter-labelled but
        # not word-shaped.  trace prints words, as it always has; the
        # composites of runs are no words of F + 1 there, so runs prints
        # terms
        traces, runs = self.run_verbs(
            tmp_path,
            "[sorts]\n* t\n\n[functor]\n* = prod(const(a b), sort(*))\n"
            "t = coprod(prod(const(c), sort(t)), prod(const(d), sort(*)))\n\n"
            "[pointing]\nt : j\n\n[states]\n* : p q\nt : u v\n\n[init]\nt.j -> t.u\n\n"
            "[trans]\n*.p -> (a, q)\n*.q -> (b, p)\nt.u -> in0((c, v))\nt.u -> in1((d, p))\n"
            "t.v -> in0((c, u))\n",
            2,
        )
        assert traces == ["ε", "c", "cc", "d", "da"]
        assert "run 8: length 2 comp in0(in1((d, in0((a, •))))) [0:j->u 1:n000->p 2:n000->q]" in runs
        assert runs[-1] == "9 runs"

    def test_pointed_sort_reaching_a_tree_sort_it_never_steps_to(self, tmp_path):
        # t reaches the tree sort w through the functor, so t is not
        # letter-labelled and both verbs print terms, though u has no
        # transition at all; the default-sort test alone printed words
        traces, runs = self.run_verbs(
            tmp_path,
            "[sorts]\n* t w\n\n[functor]\n* = prod(const(a b), sort(*))\nt = prod(const(c), sort(w))\n"
            "w = prod(sort(w), sort(w))\n\n[pointing]\nt : j\n\n[states]\n* : p\nt : u\nw : z\n\n"
            "[init]\nt.j -> t.u\n\n[trans]\n*.p -> (a, p)\n",
            2,
        )
        assert traces == ["0 : •"]
        assert runs == ["run 0: length 0 comp • [0:j->u]", "run 1: length 1 comp ⊥ [0:j->u]",
                        "run 2: length 2 comp ⊥ [0:j->u]", "3 runs"]


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
        self._agree_on_random_systems(lts_functor("ab"), None)

    def test_oracle_agreement_on_random_marked_systems(self):
        self._agree_on_random_systems(WORD_CHECK, CHECK)

    @staticmethod
    def _agree_on_random_systems(f, marker):
        """The word path against the graph search and the decoded general path."""
        rng = random.Random(31)
        for seed in range(100):
            c = random_coalgebra(GenSpec(f, {DEFAULT_SORT: rng.randint(1, 6)}, rng.choice([0.2, 0.4]), seed))
            words = lts_language(c, 6)
            assert words == graph_bfs_language(c, 6), f"seed {seed}"
            assert words == trace_words(trace(c, 6), marker), f"seed {seed}"

    @staticmethod
    def _two_pointed(stuck_trans):
        """q0 loops on a and b with the marker; p0 -a-> p1 then ``stuck_trans``."""
        def step(a, y):
            return Inj(0, TupleTerm((ConstElem(a), var(y))))

        mark = Inj(1, ConstElem(CHECK))
        return PointedCoalgebra(
            WORD_CHECK,
            single(["i", "j"]),
            single(["q0", "p0", "p1", "p2"]),
            {(DEFAULT_SORT, "i"): "q0", (DEFAULT_SORT, "j"): "p0"},
            {
                (DEFAULT_SORT, "q0"): tuple(sorted([step("a", "q0"), step("b", "q0"), mark])),
                (DEFAULT_SORT, "p0"): (step("a", "p1"),),
                (DEFAULT_SORT, "p1"): stuck_trans,
                (DEFAULT_SORT, "p2"): (),
            },
        )

    def test_stuck_pointed_state_drops_its_depths(self):
        # p0 has a trace of depth 2 (a, then b to the dead p2) but none of depth 3
        c = self._two_pointed((Inj(0, TupleTerm((ConstElem("b"), var("p2")))),))
        words = lts_language(c, 5)
        assert words == trace_words(trace(c, 5), CHECK)
        assert max(len(w.rstrip(CHECK)) for w in words) == 2
        assert {"ab", "ba", CHECK, "a" + CHECK} <= words

    def test_stuck_from_the_start(self):
        # p0's only successor p1 is dead, so only depths 0 and 1 survive
        c = self._two_pointed(())
        assert lts_language(c, 4) == trace_words(trace(c, 4), CHECK) == {"", "a", "b", CHECK}

    def test_marker_keeps_a_pointed_state_alive(self):
        c = self._two_pointed((Inj(1, ConstElem(CHECK)),))
        words = lts_language(c, 4)
        assert words == trace_words(trace(c, 4), CHECK)
        assert "abab" in words and "a" + CHECK in words

    def test_multisorted_word_functor(self):
        f = multisorted((DEFAULT_SORT, "b"), {DEFAULT_SORT: Prod((Const(("a",)), SortRef("b"))),
                                              "b": Prod((Const(("c",)), SortRef("b")))})
        carrier = SortedSet.make({DEFAULT_SORT: ["q0"], "b": ["r0"]}, f.sorts)
        c = PointedCoalgebra(
            f,
            SortedSet.make({DEFAULT_SORT: ["*"], "b": []}, f.sorts),
            carrier,
            {(DEFAULT_SORT, "*"): "q0"},
            {
                (DEFAULT_SORT, "q0"): (TupleTerm((ConstElem("a"), Var("b", "r0"))),),
                ("b", "r0"): (TupleTerm((ConstElem("c"), Var("b", "r0"))),),
            },
        )
        assert lts_language(c, 3) == {"", "a", "ac", "acc"}

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


def random_letter_system(seed: int) -> PointedCoalgebra:
    """A random letter-labelled system: one or two sorts, each a coproduct
    of 2-3 letter summands leading to random sorts and 0-2 markers, with
    one or two pointed elements."""
    rng = random.Random(f"letters/{seed}")
    sorts = (DEFAULT_SORT,) if rng.random() < 0.5 else (DEFAULT_SORT, "b")
    nodes = {}
    for s in sorts:
        parts = [Prod((Const(tuple(rng.sample("abc", rng.randint(1, 2)))), SortRef(rng.choice(sorts))))
                 for _ in range(rng.randint(2, 3))]
        for m in rng.sample("mn", rng.randint(0, 2)):
            parts.insert(rng.randint(0, len(parts)), Const((m,)))
        nodes[s] = Coprod(tuple(parts))
    f = multisorted(sorts, nodes)
    names = ["i", "j"][: rng.randint(1, 2)]
    pointing = SortedSet.make({s: (names if s == DEFAULT_SORT else []) for s in sorts}, sorts)
    sizes = {s: rng.randint(1, 3) for s in sorts}
    return random_coalgebra(GenSpec(f, sizes, rng.choice([0.2, 0.3]), seed, pointing))


def trace_enum_lts(seed: int = 1) -> PointedCoalgebra:
    """The complete a/b LTS on five states of the benchmark's trace-enum
    workload at ``seed``: an a-edge, a b-edge and one more edge per state,
    drawn as ``perfbench/workloads.py`` draws them."""
    rng = random.Random(f"trace-enum/{seed}")
    states = [f"q{i}" for i in range(5)]
    lines = []
    for x in states:
        out = {("a", rng.choice(states)), ("b", rng.choice(states))}
        while len(out) < 3:
            out.add((rng.choice("ab"), rng.choice(states)))
        lines += [f"{x} -> ({a}, {y})" for a, y in sorted(out)]
    return parse_coalgebra(
        f"[functor]\nprod(const(a b), id)\n\n[states]\n{' '.join(states)}\n\n[init]\n* -> q0\n\n[trans]\n"
        + "\n".join(lines) + "\n"
    )


class TestWordTraces:
    @staticmethod
    def assert_agree(c, max_depth, note=""):
        """At each depth up to ``max_depth``, the forward walk against the
        backward subset construction and the general table, decoded, as
        tuples and spelt.  The general table is filled once, to
        ``max_depth``: its traces to a smaller depth are its first depths."""
        general = trace(c, max_depth)
        memo: dict = {}
        for depth in range(max_depth + 1):
            words = word_traces(c, depth)
            assert words == backward_word_traces(c, depth), f"{note} depth {depth}"
            per_depth = tuple(e for e in general.per_depth if e[0] <= depth)
            shallow = dataclasses.replace(general, depth=depth, per_depth=per_depth)
            assert words == decoded_word_traces(shallow, memo), f"{note} depth {depth}"
            assert lts_language(c, depth) == spelt_language(words, c.functor), f"{note} depth {depth}"

    def test_oracle_agreement_on_random_letter_systems(self):
        """Per pointing element and depth, on one and two sorts and one
        and two pointed elements."""
        shapes = set()
        for seed in range(120):
            c = random_letter_system(seed)
            shapes.add((len(c.functor.sorts), c.pointing.size()))
            self.assert_agree(c, 8, f"seed {seed}")
        assert shapes == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_general_table_to_a_smaller_depth_is_its_first_depths(self):
        for seed in range(0, 120, 7):
            c = random_letter_system(seed)
            deep = trace(c, 6).per_depth
            for depth in range(6):
                assert trace(c, depth).per_depth == tuple(e for e in deep if e[0] <= depth), (seed, depth)

    def test_two_pointed_elements_share_a_start_state(self):
        step = lambda a, y: Inj(0, TupleTerm((ConstElem(a), var(y))))  # noqa: E731
        c = PointedCoalgebra(
            WORD_CHECK,
            single(["i", "j"]),
            single(["q0", "q1"]),
            {(DEFAULT_SORT, "i"): "q0", (DEFAULT_SORT, "j"): "q0"},
            {
                (DEFAULT_SORT, "q0"): tuple(sorted([step("a", "q1"), step("b", "q0")])),
                (DEFAULT_SORT, "q1"): (Inj(1, ConstElem(CHECK)),),
            },
        )
        self.assert_agree(c, 5)
        words = word_traces(c, 4)
        assert words[(DEFAULT_SORT, "i")] == words[(DEFAULT_SORT, "j")]
        assert words[(DEFAULT_SORT, "i")] is not words[(DEFAULT_SORT, "j")]
        assert ((0, "b"), (0, "b"), (0, "a"), (None, CHECK)) in words[(DEFAULT_SORT, "i")]

    def test_kept_alive_only_by_a_marker(self):
        # j's words end at depth 2 with a marker, and that marker word
        # counts at every deeper depth, so i's deeper words count too
        c = TestLtsLanguage._two_pointed((Inj(1, ConstElem(CHECK)),))
        self.assert_agree(c, 5)
        words = word_traces(c, 5)
        assert words[(DEFAULT_SORT, "j")] == {(), ((0, "a"),), ((0, "a"), (None, CHECK))}
        assert ((0, "a"), (0, "b"), (0, "a"), (0, "b"), (0, "a")) in words[(DEFAULT_SORT, "i")]

    def test_each_word_built_once(self, monkeypatch):
        """On the trace-enum LTS at depth 9 the walk builds exactly as
        many words as it returns, the empty word aside, in both forms:
        every word grows from the walk's empty word, here a spy that
        counts each word built from it."""
        c = trace_enum_lts()
        walk = trace_module._word_walk
        built = []

        def counting(kind):
            class Counted(kind):
                def __add__(self, other):
                    built.append(other)
                    return Counted(kind.__add__(self, other))

            return Counted

        def spied_walk(c, depth, empty, pieces):
            return walk(c, depth, counting(type(empty))(empty), pieces)

        monkeypatch.setattr(trace_module, "_word_walk", spied_walk)
        language = lts_language(c, 9)
        assert len(language) == 2 ** 10 - 1
        assert len(built) == len(language) - 1
        built.clear()
        (words,) = word_traces(c, 9).values()
        assert len(built) == len(words) - 1 == 2 ** 10 - 2
        assert spelt_language({"*": words}, c.functor) == language

    def test_negative_depth_rejected(self):
        c = linear_word_system("ab", "ab")
        for words_of in (word_traces, lts_language):
            with pytest.raises(CoalgError, match="depth must be non-negative"):
                words_of(c, -1)

    def test_letters_keep_their_summand(self):
        # the same constant in two summands makes two letters
        f = functor(Coprod((Prod((Const(("a",)), SortRef())), Prod((Const(("a",)), SortRef())), Const(("m",)))))
        c = PointedCoalgebra(
            f,
            single(["*"]),
            single(["q"]),
            {(DEFAULT_SORT, "*"): "q"},
            {(DEFAULT_SORT, "q"): (
                Inj(0, TupleTerm((ConstElem("a"), var("q")))),
                Inj(1, TupleTerm((ConstElem("a"), var("q")))),
                Inj(2, ConstElem("m")),
            )},
        )
        assert word_traces(c, 1) == {(DEFAULT_SORT, "*"): {(), ((0, "a"),), ((1, "a"),), ((None, "m"),)}}
        assert lts_language(c, 1) == {"", "a", "m"}

    def test_unshaped_sort_rejected_when_reached(self):
        # sort b's second summand is a bare sort leaf
        f = multisorted((DEFAULT_SORT, "b"), {DEFAULT_SORT: Prod((Const(("a",)), SortRef("b"))),
                                              "b": Coprod((Const(("c",)), SortRef(DEFAULT_SORT)))})
        c = PointedCoalgebra(
            f,
            SortedSet.make({DEFAULT_SORT: ["*"], "b": []}, f.sorts),
            SortedSet.make({DEFAULT_SORT: ["q0"], "b": ["r0"]}, f.sorts),
            {(DEFAULT_SORT, "*"): "q0"},
            {(DEFAULT_SORT, "q0"): (TupleTerm((ConstElem("a"), Var("b", "r0"))),), ("b", "r0"): ()},
        )
        # refused from the functor, before any state is read
        for depth in (0, 1):
            for words_of in (word_traces, lts_language):
                with pytest.raises(CoalgError, match="not letter-shaped"):
                    words_of(c, depth)

    EIGHT_UNSHAPED = (
        "from coalgpath.functors import Coprod, Const, Prod, SortRef, TupleTerm, ConstElem, Var, multisorted\n"
        "from coalgpath.coalgebra import PointedCoalgebra\n"
        "from coalgpath.sets import SortedSet, CoalgError\n"
        "from coalgpath.trace import word_traces\n"
        "f = multisorted(('*', 'b'), {'*': Prod((Const(('a',)), SortRef('b'))),\n"
        "                             'b': Coprod((Const(('c',)), SortRef('*')))})\n"
        "rs = [f'r{k}' for k in range(8)]\n"
        "c = PointedCoalgebra(f, SortedSet.make({'*': ['*'], 'b': []}, f.sorts),\n"
        "    SortedSet.make({'*': ['q0'], 'b': rs}, f.sorts), {('*', '*'): 'q0'},\n"
        "    {('*', 'q0'): tuple(sorted(TupleTerm((ConstElem('a'), Var('b', r))) for r in rs)),\n"
        "     **{('b', r): () for r in rs}})\n"
        "try:\n"
        "    word_traces(c, 1)\n"
        "except CoalgError as exc:\n"
        "    print(exc)\n"
    )

    def test_unshaped_refusal_does_not_follow_the_hash_seed(self):
        """The * state steps to eight states at a sort that is not
        letter-shaped; the refusal is read off the functor, so every hash
        seed gives the same one."""
        for hash_seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-c", self.EIGHT_UNSHAPED],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
            )
            assert proc.stdout == "the pointed sorts reach a sort that is not letter-shaped\n", (hash_seed, proc.stderr)


class TestTreePartialRuns:
    def _automaton(self, group):
        sig = Analytic(
            (
                Symbol("b", (SortRef(), SortRef()), group),
                Symbol("c", (), PermGroup(0)),
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
                    ansym(PermGroup(0), "c", ()),
                ),
            },
        )

    def test_depth_two_partial_runs(self):
        c = self._automaton(PermGroup(2))
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
        sig = Analytic((Symbol("c", (), PermGroup(0)),))
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
