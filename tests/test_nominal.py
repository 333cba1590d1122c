import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalgpath.cli import run_command
from coalgpath.functors import ConstElem, Inj, TupleTerm, Var
from coalgpath.nominal import (
    AtomPool,
    BarString,
    BindTerm,
    NomElem,
    Perm,
    PoolError,
    RnnaPresentation,
    RnnaRule,
    alpha_canonical,
    bar_trace,
    canonical_bind,
    parse_state_name,
    rnna_expand,
    state_name,
)
from coalgpath.sets import DEFAULT_SORT, CoalgError

from oracles import (
    FreshPair,
    all_perms,
    apply_perm,
    binding_factorize,
    binding_precise_oracle,
    binding_roundtrip_ok,
    decode_bar_term,
    extend_equivariant,
    perm_state,
    perm_term,
    support,
    table_bar_trace,
)

CHECK = chr(0x2713)

POOL2 = AtomPool(2)
POOL3 = AtomPool(3)


def perm_after(second: Perm, first: Perm) -> Perm:
    """``second`` after ``first``."""
    return Perm({k: second(first(k)) for k in set(second.mapping) | set(first.mapping)})


def tokens(pool_size=3, max_len=4):
    atom = st.sampled_from([f"a{i + 1}" for i in range(pool_size)])
    token = st.tuples(st.sampled_from(["free", "bar"]), atom)
    return st.lists(token, max_size=max_len).map(tuple)


class TestSupport:
    def test_two_free_atoms(self):
        assert support(BarString((("free", "a1"), ("free", "a2")))) == {"a1", "a2"}

    def test_bound_atom_removed(self):
        assert support(BarString((("bar", "a1"), ("free", "a1")))) == set()

    def test_binder_scopes_to_the_right(self):
        assert support(BarString((("bar", "a1"), ("free", "a2")))) == {"a2"}
        assert support(BarString((("free", "a1"), ("bar", "a1")))) == {"a1"}

    @given(tokens())
    @settings(max_examples=60, deadline=None)
    def test_equivariance(self, toks):
        w = BarString(toks)
        pi = Perm({"a1": "a2", "a2": "a3", "a3": "a1"})
        assert support(apply_perm(pi, w)) == {pi(a) for a in support(w)}


class TestPermAction:
    def test_identity(self):
        w = BarString((("bar", "a1"), ("free", "a2")))
        assert apply_perm(Perm.identity(), w) == w

    def test_free_atom_renamed(self):
        w = BarString((("free", "a1"),))
        assert apply_perm(Perm.swap("a1", "a2"), w) == BarString((("free", "a2"),))

    def test_swap_preserves_alpha_class_of_closed_word(self):
        w = BarString((("bar", "a1"), ("free", "a1")))
        assert alpha_canonical(apply_perm(Perm.swap("a1", "a2"), w)) == alpha_canonical(w)

    @given(tokens())
    @settings(max_examples=40, deadline=None)
    def test_composition_respected(self, toks):
        w = BarString(toks)
        p1 = Perm.swap("a1", "a2")
        p2 = Perm({"a1": "a2", "a2": "a3", "a3": "a1"})
        assert apply_perm(p2, apply_perm(p1, w)) == apply_perm(perm_after(p2, p1), w)

    def test_non_bijection_rejected(self):
        with pytest.raises(PoolError):
            Perm({"a1": "a2", "a2": "a2"})


class TestAlphaCanonical:
    def test_renamed_binder_identified(self):
        assert alpha_canonical(BarString((("bar", "a1"), ("free", "a1")))) == alpha_canonical(
            BarString((("bar", "a2"), ("free", "a2")))
        )

    def test_binder_order_distinguishes(self):
        u = alpha_canonical(BarString((("bar", "a1"), ("bar", "a2"), ("free", "a1"), ("free", "a2"))))
        v = alpha_canonical(BarString((("bar", "a1"), ("bar", "a2"), ("free", "a2"), ("free", "a1"))))
        assert u != v

    def test_mixed_free_and_bound(self):
        # a |c b c: a and b stay free, c is bound
        w = BarString((("free", "a1"), ("bar", "a3"), ("free", "a2"), ("free", "a3")))
        assert alpha_canonical(w) == (("free", "a1"), ("bar",), ("free", "a2"), ("ref", 1))

    def test_shadowing_inner_binder_wins(self):
        w = BarString((("bar", "a1"), ("bar", "a1"), ("free", "a1")))
        assert alpha_canonical(w) == (("bar",), ("bar",), ("ref", 1))

    def test_context_closure(self):
        w = BarString((("free", "a1"),), context=("a1",))
        v = BarString((("free", "a2"),), context=("a2",))
        assert alpha_canonical(w) == alpha_canonical(v) == (("bar",), ("ref", 1))

    @given(tokens())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_permuted_words(self, toks):
        w = BarString(toks)
        canon = alpha_canonical(w)
        for pi in (Perm.swap("a1", "a2"), Perm({"a1": "a2", "a2": "a3", "a3": "a1"})):
            moved = apply_perm(pi, w)
            # free atoms move, bound structure is stable
            expected = tuple(
                ("free", pi(t[1])) if t[0] == "free" else t for t in canon
            )
            assert alpha_canonical(moved) == expected

    def test_terminals_preserved(self):
        w = BarString((("bar", "a1"), ("free", "a1")), terminal=CHECK)
        assert alpha_canonical(w)[-1] == ("ok",)
        v = BarString((), terminal="cut")
        assert alpha_canonical(v) == (("cut",),)


class TestExtendEquivariant:
    def act_e(self, pi, e):
        return e.rename(pi)

    def test_constant_map_from_empty_support_values(self):
        reps = [(NomElem("q", ("a1",)), NomElem("k", ()))]
        elements = [NomElem("q", (a,)) for a in POOL3.atoms]
        result = extend_equivariant(
            reps, elements, POOL3, self.act_e, self.act_e, lambda e: e.support(), lambda v: v.support()
        )
        assert all(v == NomElem("k", ()) for v in result.values())

    def test_forced_by_equivariance(self):
        reps = [(NomElem("q", ("a1",)), NomElem("r", ("a1",)))]
        elements = [NomElem("q", (a,)) for a in POOL3.atoms]
        result = extend_equivariant(
            reps, elements, POOL3, self.act_e, self.act_e, lambda e: e.support(), lambda v: v.support()
        )
        assert result[NomElem("q", ("a2",))] == NomElem("r", ("a2",))

    def test_support_condition_enforced(self):
        reps = [(NomElem("q", ("a1",)), NomElem("r", ("a2",)))]
        with pytest.raises(PoolError):
            extend_equivariant(
                reps, [NomElem("q", (a,)) for a in POOL3.atoms], POOL3,
                self.act_e, self.act_e, lambda e: e.support(), lambda v: v.support(),
            )

    def test_unmatched_element_reported(self):
        reps = [(NomElem("q", ("a1",)), NomElem("k", ()))]
        with pytest.raises(PoolError):
            extend_equivariant(
                reps, [NomElem("other", ())], POOL3,
                self.act_e, self.act_e, lambda e: e.support(), lambda v: v.support(),
            )


class TestBindingFactorize:
    def test_support_violation_rejected(self):
        x = NomElem("x", ())
        y = NomElem("y", ("a3",))  # a3 is free in the body but not in supp(x)
        f_bad = {x: BindTerm("a2", y)}
        with pytest.raises(PoolError):
            binding_factorize(f_bad, POOL3)

    def test_singleton_empty_support(self):
        x = NomElem("x", ())
        f = {x: BindTerm("a2", NomElem("y", ()))}
        fac = binding_factorize(f, POOL3)
        assert fac.codomain == [FreshPair("a1", x)]
        assert fac.precise[x] == BindTerm("a1", FreshPair("a1", x))
        assert fac.connect[FreshPair("a1", x)] == NomElem("y", ())
        assert binding_roundtrip_ok(f, fac, POOL3)

    def test_body_instantiated_at_fresh_atom(self):
        x = NomElem("x", ())
        f = {x: BindTerm("a2", NomElem("y", ("a2",)))}
        fac = binding_factorize(f, POOL3)
        assert fac.connect[FreshPair("a1", x)] == NomElem("y", ("a1",))
        assert binding_roundtrip_ok(f, fac, POOL3)

    def test_pool_exhausted(self):
        x = NomElem("x", ("a1",))
        with pytest.raises(PoolError):
            binding_factorize({x: BindTerm("a1", NomElem("y", ("a1",)))}, AtomPool(1))

    def test_exhaustive_roundtrip_pool3(self):
        # every support-respecting map from a singleton with |Y| <= 2 bodies
        x = NomElem("x", ("a1",))
        bodies = [
            NomElem("y", ()),
            NomElem("y", ("a1",)),
            NomElem("y", ("a2",)),
            NomElem("z", ("a1", "a2")),
        ]
        count = 0
        for body in bodies:
            for a in POOL3.atoms:
                if not (body.support() - {a}) <= x.support():
                    continue
                f = {x: BindTerm(a, body)}
                fac = binding_factorize(f, POOL3)
                assert binding_roundtrip_ok(f, fac, POOL3)
                count += 1
        assert count >= 4

    def test_oracle_on_unit(self):
        x = NomElem("x", ("a1",))
        f = {x: BindTerm("a2", NomElem("y", ("a2", "a1")))}
        fac = binding_factorize(f, POOL3)
        assert binding_precise_oracle(fac.precise, POOL3, max_orbits=2, max_arity=2)

    def test_oracle_rejects_a_non_precise_map(self):
        # a "doubled" map through the binding layer: both x1 and x2 bind
        # onto the same fresh pair, so the pair is used twice
        x1 = NomElem("x", ())
        x2 = NomElem("w", ())
        shared = FreshPair("a1", x1)
        bad = {x1: BindTerm("a1", shared), x2: BindTerm("a1", shared)}
        assert not binding_precise_oracle(bad, POOL2, max_orbits=2, max_arity=1)


class TestCanonicalBind:
    def test_least_admissible_binder(self):
        body = NomElem("y", ("a2", "a3"))
        canon = canonical_bind("a3", body, POOL3)
        # a3 is in the body; the least atom outside supp(body) - {a3} is a1
        assert canon.atom == "a1"
        assert canon.body == NomElem("y", ("a2", "a1"))

    def test_idempotent(self):
        body = NomElem("y", ("a2",))
        once = canonical_bind("a1", body, POOL3)
        again = canonical_bind(once.atom, once.body, POOL3)
        assert once == again


def three_rule_presentation() -> RnnaPresentation:
    return RnnaPresentation(
        {"q0": 0, "q1": 1, "q2": 1},
        "q0",
        (
            RnnaRule("bind", "q0", "q1", sigma=(0,)),
            RnnaRule("read", "q1", "q2", register=1, sigma=(1,)),
            RnnaRule("ok", "q2"),
        ),
    )


class TestRnnaExpand:
    def test_three_rule_example_pool2(self):
        c = rnna_expand(three_rule_presentation(), POOL2)
        assert c.carrier.size() == 5  # 1 + 2 + 2
        transition_counts = sorted(len(v) for v in c.xi.values())
        assert transition_counts == [1, 1, 1, 1, 1]

    def test_empty_rule_set(self):
        r = RnnaPresentation({"q0": 0}, "q0", ())
        c = rnna_expand(r, POOL2)
        assert all(v == () for v in c.xi.values())

    def test_pool_too_small(self):
        r = RnnaPresentation({"q0": 2}, "q0", ())
        with pytest.raises(PoolError):
            rnna_expand(r, POOL2)

    def test_equivariance_of_transitions(self):
        c = rnna_expand(three_rule_presentation(), POOL3)
        for pi in all_perms(POOL3):
            for (_s, name) in c.carrier.pairs():
                moved = perm_state(pi, name)
                lhs = {perm_term(pi, t, POOL3) for t in c.xi[(DEFAULT_SORT, name)]}
                rhs = set(c.xi[(DEFAULT_SORT, moved)])
                assert lhs == rhs, (name, pi.mapping)

    def test_registers_injective(self):
        c = rnna_expand(three_rule_presentation(), POOL3)
        for (_s, name) in c.carrier.pairs():
            _q, regs = parse_state_name(name)
            assert len(set(regs)) == len(regs)

    @pytest.mark.parametrize("q", ["q", "q(", "q(x", "(", "q(a1)", "q(a1,a2"])
    def test_state_names_read_back(self, q):
        swap = Perm({"a1": "a2", "a2": "a1"})
        for regs in ((), ("a1",), ("a2", "a1")):
            name = state_name(q, regs)
            assert parse_state_name(name) == (q, regs)
            assert perm_state(swap, name) == state_name(q, tuple(swap(a) for a in regs))

    def test_control_states_holding_a_paren_keep_their_rules(self, tmp_path):
        text = "[states]\nq(x/0 p/1\n\n[init]\nq(x\n\n[rules]\nq(x -> bar p [0]\np -> ok\n"
        printed = {}
        for q in ("q(x", "qx"):
            path = tmp_path / f"{q}.rnna"
            path.write_text(text.replace("q(x", q), encoding="utf-8")
            printed[q] = run_command(["rnna", str(path), "--pool", "2", "--depth", "3"])
        assert printed["q(x"] == printed["qx"] == ("states: 3\ntransitions: 3\n|. •\n|. ✓\n•\n", 0)


class TestRuleRefusals:
    """Each refusal of an automaton file names its line and writes the
    rule as the file does; ``RnnaPresentation`` refuses the same rules
    through the same check."""

    # control states q0 and q1 with one register, q2 with two; the
    # [init] state stands on line 5, the rule on line 8
    @pytest.mark.parametrize(
        "init, rule, message",
        [
            ("zz", "q0 -> ok", "line 5: unknown initial control state 'zz'"),
            ("q0", "zz -> ok", "line 8: rule source 'zz' unknown in rule zz -> ok"),
            ("q0", "q0 -> bar zz []", "line 8: rule target 'zz' unknown in rule q0 -> bar zz []"),
            ("q0", "q0 -> bar q1 [1 0]", "line 8: reassignment arity mismatch in rule q0 -> bar q1 [1 0]"),
            ("q0", "q0 -> reg(3) q0 [1]", "line 8: read register out of range in rule q0 -> reg(3) q0 [1]"),
            ("q0", "q0 -> reg(1) q0 [0]", "line 8: read rules cannot place a fresh atom in rule q0 -> reg(1) q0 [0]"),
            ("q0", "q0 -> bar q2 [0 0]",
             "line 8: bind rules place the fresh atom in at most one slot in rule q0 -> bar q2 [0 0]"),
            ("q0", "q0 -> bar q2 [1 1]", "line 8: register tuples must stay injective in rule q0 -> bar q2 [1 1]"),
            ("q0", "q0 -> bar q1 [2]", "line 8: reassignment source 2 out of range in rule q0 -> bar q1 [2]"),
        ],
        ids=["init", "source", "target", "arity", "register", "read-fresh", "bind-fresh", "injective", "reassign"],
    )
    def test_rnna_verb_names_the_line(self, tmp_path, init, rule, message):
        path = tmp_path / "bad.rnna"
        path.write_text(f"[states]\nq0/1 q1/1 q2/2\n\n[init]\n{init}\n\n[rules]\n{rule}\n", encoding="utf-8")
        assert run_command(["rnna", str(path), "--pool", "3", "--depth", "1"]) == (f"error: {message}\n", 2)

    def test_presentation_built_in_python_refuses_alike(self):
        rule = RnnaRule("read", "q0", "q0", register=3, sigma=(1,))
        with pytest.raises(CoalgError) as info:
            RnnaPresentation({"q0": 1}, "q0", (rule,))
        assert str(info.value) == "read register out of range in rule q0 -> reg(3) q0 [1]"


class TestBarTrace:
    def test_three_rule_example_matches_spec_word(self):
        traces = bar_trace(rnna_expand(three_rule_presentation(), POOL2), 3)
        assert (("bar",), ("ref", 1), ("ok",)) in traces

    def test_no_ok_rules_no_marked_words(self):
        r = RnnaPresentation(
            {"q0": 0, "q1": 1},
            "q0",
            (RnnaRule("bind", "q0", "q1", sigma=(0,)),),
        )
        traces = bar_trace(rnna_expand(r, POOL2), 3)
        assert all(form[-1] != ("ok",) for form in traces if form)

    def test_context_atoms_appear_under_closure(self):
        r = RnnaPresentation(
            {"q0": 1, "q1": 1},
            "q0",
            (RnnaRule("read", "q0", "q1", register=1, sigma=(1,)), RnnaRule("ok", "q1")),
        )
        traces = bar_trace(rnna_expand(r, POOL2), 2)
        assert (("bar",), ("ref", 1), ("ok",)) in traces

    def test_oracle_and_pool_stability(self):
        r = three_rule_presentation()
        oracle3 = presentation_trace_oracle(r, POOL3, 3)
        assert bar_trace(rnna_expand(r, POOL3), 3) == oracle3
        assert bar_trace(rnna_expand(r, POOL3), 3) == bar_trace(rnna_expand(r, AtomPool(4)), 3)


def random_presentation(seed: int) -> RnnaPresentation:
    """A random automaton of 2-3 control states with 0-2 registers each
    and 3-6 rules."""
    rng = random.Random(f"rnna/{seed}")
    states = {f"q{k}": rng.randint(0, 2) for k in range(rng.randint(2, 3))}
    rules = []
    for _ in range(rng.randint(3, 6)):
        src, target = rng.choice(sorted(states)), rng.choice(sorted(states))
        arity, target_arity = states[src], states[target]
        kind = rng.choice(["ok", "read", "bind"])
        if kind == "read" and arity and target_arity <= arity:
            sigma = tuple(rng.sample(range(1, arity + 1), target_arity))
            rules.append(RnnaRule("read", src, target, register=rng.randint(1, arity), sigma=sigma))
        elif kind == "bind" and target_arity <= arity + 1:
            sigma = tuple(rng.sample(range(arity + 1), target_arity))
            rules.append(RnnaRule("bind", src, target, sigma=sigma))
        else:
            rules.append(RnnaRule("ok", src))
    return RnnaPresentation(states, rng.choice(sorted(states)), tuple(rules))


class TestBarTraceAgainstTable:
    def test_random_presentations(self):
        """Bar strings read off words against the decoded general table."""
        for seed in range(100):
            r = random_presentation(seed)
            for size in (2, 3, 4):
                if size <= max(r.states.values()):
                    continue
                system = rnna_expand(r, AtomPool(size))
                for depth in (0, 2, 5):
                    assert bar_trace(system, depth) == table_bar_trace(system, depth), (seed, size, depth)


class TestMalformedAutomatonTerms:
    """Malformed terms raise CoalgError, also under ``python -O``."""

    BAD = [Inj(1, ConstElem("a1")), Inj(2, Var(DEFAULT_SORT, "q0()")), TupleTerm((ConstElem("a1"),))]

    @pytest.mark.parametrize("term", BAD)
    def test_perm_term(self, term):
        with pytest.raises(CoalgError):
            perm_term(Perm.swap("a1", "a2"), term, POOL2)

    def test_perm_term_reads_every_non_literal_index_as_a_binder(self):
        # moved, the binder a3 is renamed to the least atom fresh for q's a2
        pi = Perm.swap("a1", "a2")
        body = TupleTerm((ConstElem("a3"), Var(DEFAULT_SORT, "q(a3,a1)")))
        bound = perm_term(pi, Inj(1, body), POOL3)
        assert bound == Inj(1, TupleTerm((ConstElem("a1"), Var(DEFAULT_SORT, "q(a1,a2)"))))
        assert perm_term(pi, Inj(7, body), POOL3) == bound
        assert perm_term(pi, Inj(2, body), POOL3) == Inj(2, TupleTerm((ConstElem("a3"), Var(DEFAULT_SORT, "q(a3,a2)"))))

    @pytest.mark.parametrize("term", BAD)
    def test_decode_bar_term(self, term):
        with pytest.raises(CoalgError):
            decode_bar_term(term)


def presentation_trace_oracle(r: RnnaPresentation, pool: AtomPool, depth: int) -> frozenset:
    """Direct enumeration over the presentation: simulate rule applications
    on concrete register assignments, collecting canonical closures."""
    out = set()

    def explore(q, regs, toks, remaining, context):
        out.add(alpha_canonical(BarString(tuple(toks), "cut", context)))
        if remaining == 0:
            return
        for rule in r.rules:
            if rule.src != q:
                continue
            if rule.kind == "ok":
                out.add(alpha_canonical(BarString(tuple(toks), CHECK, context)))
            elif rule.kind == "read":
                letter = regs[rule.register - 1]
                nxt = tuple(regs[j - 1] for j in rule.sigma)
                explore(rule.target, nxt, toks + [("free", letter)], remaining - 1, context)
            else:
                for a in pool.atoms:
                    if a in regs:
                        continue
                    nxt = tuple(a if j == 0 else regs[j - 1] for j in rule.sigma)
                    explore(rule.target, nxt, toks + [("bar", a)], remaining - 1, context)

    for context in itertools.permutations(pool.atoms, r.context_arity):
        explore(r.init, context, [], depth, context)
    return frozenset(out)


class TestRnnaOpenMaps:
    """The homomorphism/open-map equivalence on expanded register automata."""

    def test_identity_on_expansion_is_open(self):
        from coalgpath.coalgebra import CoalgMorphism
        from coalgpath.openmap import is_open, is_path_reachable
        from coalgpath.sets import SortedFun

        c = rnna_expand(three_rule_presentation(), POOL2)
        m = CoalgMorphism(c, c, SortedFun.identity(c.carrier))
        assert is_open(m, c.carrier.size() + 1).is_open

    def test_hom_iff_open_on_two_state_presentations(self):
        from coalgpath.coalgebra import CoalgMorphism, is_strict_hom
        from coalgpath.openmap import is_open, is_path_reachable, reachable_bfs
        from coalgpath.sets import SortedFun

        base = RnnaPresentation(
            {"q0": 0, "q1": 1},
            "q0",
            (
                RnnaRule("bind", "q0", "q1", sigma=(0,)),
                RnnaRule("read", "q1", "q1", register=1, sigma=(1,)),
            ),
        )
        richer = RnnaPresentation(
            base.states,
            base.init,
            base.rules + (RnnaRule("ok", "q1"),),
        )
        src = rnna_expand(base, POOL2)
        _lv, union = reachable_bfs(src)
        src = src.restrict(union)
        assert is_path_reachable(src)
        dst_same = rnna_expand(base, POOL2).restrict(union)
        dst_more = rnna_expand(richer, POOL2).restrict(union)
        ident = SortedFun.identity(src.carrier)
        strict = CoalgMorphism(src, dst_same, ident)
        lax_only = CoalgMorphism(src, dst_more, ident)
        bound = src.carrier.size() + 1
        assert is_strict_hom(strict) and is_open(strict, bound).is_open
        assert not is_strict_hom(lax_only)
        report = is_open(lax_only, bound)
        assert not report.is_open


class TestTwoRegisterAutomaton:
    """Register reassignment edge cases: two registers, dropped fresh atoms."""

    def _presentation(self):
        # read the context atom, bind a second atom, then emit the first
        # again while dropping the fresh one
        return RnnaPresentation(
            {"q0": 1, "q1": 1, "q2": 2, "q3": 1},
            "q0",
            (
                RnnaRule("read", "q0", "q1", register=1, sigma=(1,)),
                RnnaRule("bind", "q1", "q2", sigma=(1, 0)),
                RnnaRule("read", "q2", "q3", register=1, sigma=(1,)),
                RnnaRule("ok", "q3"),
            ),
        )

    def test_expansion_counts(self):
        c = rnna_expand(self._presentation(), POOL3)
        # q0, q1, q3 have 3 register assignments each, q2 has 3*2
        assert c.carrier.size() == 3 + 3 + 6 + 3

    def test_equivariance(self):
        c = rnna_expand(self._presentation(), POOL3)
        for pi in all_perms(POOL3):
            for (_s, name) in c.carrier.pairs():
                lhs = {perm_term(pi, t, POOL3) for t in c.xi[(DEFAULT_SORT, name)]}
                rhs = set(c.xi[(DEFAULT_SORT, perm_state(pi, name))])
                assert lhs == rhs

    def test_pool_stability_and_oracle(self):
        r = self._presentation()
        t3 = bar_trace(rnna_expand(r, POOL3), 4)
        assert t3 == presentation_trace_oracle(r, POOL3, 4)
        assert t3 == bar_trace(rnna_expand(r, AtomPool(4)), 4)
        # the accepted shape: context atom, anonymous binder, context atom again
        assert (("bar",), ("ref", 1), ("bar",), ("ref", 2), ("ok",)) in t3
