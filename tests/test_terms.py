"""A term is its own comparison key.

Each term is a tuple of its kind tag and its fields, so it compares,
orders and hashes as the nested key ``oracles.legacy_term_key`` builds
from its fields.  The terms come from every place the library makes
them: ``eval_functor`` over the harness functors and a symmetric
analytic symbol, the shapes of precise maps, and the trace of a tree
automaton.
"""

import copy
import gc
import itertools
import pathlib
import pickle
import random

import pytest

from coalgpath.coalgebra import GenSpec, random_coalgebra
from coalgpath.functors import (
    BOT_TERM,
    UNIT_TERM,
    Analytic,
    AnSym,
    ConstElem,
    Inj,
    SortRef,
    Symbol,
    Term,
    TupleTerm,
    UnitLeaf,
    MAX_PRINT_DEPTH,
    TermError,
    Var,
    eval_functor,
    format_name,
    functor,
    print_term,
)
from coalgpath.modelio import parse_coalgebra, parse_functor_text
from coalgpath.precise import element_shapes
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedSet
from coalgpath.trace import trace

from oracles import legacy_term_key, recursive_print_term
from conftest import symmetric_group

COMPOSE = pathlib.Path(__file__).parent / "fixtures" / "compose"

HARNESS_TEXTS = (
    "prod(const(a b), id)",
    "coprod(prod(const(a b), id), const(ok))",
    "prod(id, id)",
    "analytic{ pair/2 [(1 2)] ; leaf/0 }",
    "coprod(const(c), prod(id, id))",
)
SYMMETRIC = functor(Analytic((Symbol("t", (SortRef(),) * 3, symmetric_group(3)), Symbol("e", (), symmetric_group(0)))))
PAIR_LEAF = functor(parse_functor_text(HARNESS_TEXTS[3]))


def _children(t):
    return (t.arg,) if isinstance(t, Inj) else getattr(t, "args", ())


def _height(t):
    return 1 + max(map(_height, _children(t)), default=0)


def _term_pool():
    harness = [functor(parse_functor_text(text)) for text in HARNESS_TEXTS]
    carrier = SortedSet.single(["v", "w", "x", "y", "z"])
    pool = {UNIT_TERM, BOT_TERM}
    for f in [*harness, SYMMETRIC]:
        pool.update(eval_functor(f, carrier)[DEFAULT_SORT])
        pool.update(element_shapes(f.plus1, DEFAULT_SORT))
    for seed in range(4):
        c = random_coalgebra(GenSpec(PAIR_LEAF, {DEFAULT_SORT: 3}, 0.5, seed))
        for _depth, items in trace(c, 3).per_depth:
            for _key, terms in items:
                pool.update(terms)
    # and every subterm
    stack = list(pool)
    while stack:
        t = stack.pop()
        stack.extend(a for a in _children(t) if a not in pool)
        pool.update(_children(t))
    return sorted(pool)


POOL = _term_pool()
KINDS = (ConstElem, Var, TupleTerm, Inj, AnSym, UnitLeaf)


def _rebuild(t):
    """An equal term built apart, from its fields through the constructors."""
    if isinstance(t, ConstElem):
        return ConstElem(t.name)
    if isinstance(t, Var):
        return Var(t.sort, t.name)
    if isinstance(t, TupleTerm):
        return TupleTerm(tuple(_rebuild(a) for a in t.args))
    if isinstance(t, Inj):
        return Inj(t.index, _rebuild(t.arg))
    if isinstance(t, AnSym):
        return AnSym(t.sym, tuple(_rebuild(a) for a in t.args))
    return UnitLeaf()


def test_pool_covers_every_kind_and_the_trace():
    assert 150 <= len(POOL) <= 1000
    assert {type(t) for t in POOL} == set(KINDS)
    # the tree automaton's trace terms nest symbols three deep and more
    assert max(_height(t) for t in POOL if isinstance(t, AnSym)) >= 3


def test_sorting_by_term_and_by_legacy_key_agree():
    shuffled = list(POOL)
    random.Random(9).shuffle(shuffled)
    assert sorted(shuffled) == sorted(shuffled, key=legacy_term_key) == POOL


def test_pairwise_order_and_equality_agree_with_legacy_key():
    keys = {t: legacy_term_key(t) for t in POOL}
    pairs = [*itertools.product(POOL, repeat=2), *((t, _rebuild(t)) for t in POOL)]
    for a, b in pairs:
        ka, kb = keys[a], legacy_term_key(b)
        assert (a < b) == (ka < kb)
        assert (a <= b) == (ka <= kb)
        assert (a == b) == (ka == kb)
        assert (a != b) == (ka != kb)


def test_equal_terms_built_apart_hash_equal_and_as_the_legacy_key():
    for t in POOL:
        apart = _rebuild(t)
        assert apart == t and hash(apart) == hash(t)
        assert apart is not t or isinstance(t, UnitLeaf)
        # the same hash values as before, so set iteration order is unchanged
        assert hash(t) == hash(legacy_term_key(t))
    assert list({_rebuild(t) for t in POOL}) == list(set(POOL))


def test_terms_of_different_kinds_never_compare_equal():
    by_kind = {kind: [t for t in POOL if type(t) is kind] for kind in KINDS}
    for k1, k2 in itertools.combinations(KINDS, 2):
        for a, b in itertools.product(by_kind[k1], by_kind[k2]):
            assert a != b and not a == b
    # same fields, different kinds
    assert ConstElem("x") != Var(DEFAULT_SORT, "x")
    assert TupleTerm(()) != AnSym("e", ())


def test_constructor_fields_read_back():
    x, y = Var("s", "x"), Var("s", "y")
    assert (ConstElem("a").name,) == ("a",)
    assert (x.sort, x.name) == ("s", "x")
    assert TupleTerm((y, x)).args == (y, x)
    inj = Inj(1, x)
    assert (inj.index, inj.arg) == (1, x)
    sym = AnSym("f", (y, x))
    assert (sym.sym, sym.args) == ("f", (y, x))
    assert UnitLeaf() == UNIT_TERM and repr(UnitLeaf()) == "•"
    with pytest.raises(AttributeError):
        inj.index = 2


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_kind_and_fields(clone):
    for t in POOL[::7]:
        again = clone(t)
        assert type(again) is type(t) and again == t and repr(again) == repr(t)


def test_memo_printer_prints_as_the_plain_one():
    shuffled = list(POOL)
    random.Random(2).shuffle(shuffled)
    memo = {}
    for t in shuffled:
        assert print_term(t, memo) == print_term(t) == recursive_print_term(t)
    # terms are kept under their ids, and nothing else is kept
    assert all(isinstance(key, int) for key in memo)
    assert {type(kept[0]) for kept in memo.values()} == set(KINDS)


def _names(terms):
    """The constant, variable and symbol names in ``terms`` and their subterms."""
    names = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, (ConstElem, Var)):
            names.add(t.name)
        elif isinstance(t, AnSym):
            names.add(t.sym)
        stack.extend(_children(t))
    return names


# names the bare-name grammar cannot carry, beside names it can
QUOTED = [
    AnSym("p(x, y)", ()),
    AnSym("p", (AnSym("x", ()), AnSym("y", ()))),
    TupleTerm((Var("*", "a b"), ConstElem("c->d"), ConstElem("#"))),
    Inj(1, AnSym("sym bol", (Var("*", "(x;0.1)"), Var("*", "x")))),
    TupleTerm((ConstElem("c d"), ConstElem("cd"), ConstElem(""))),
]


def test_names_print_as_model_files_write_them():
    memo = {}
    for t in QUOTED:
        assert print_term(t, memo) == print_term(t) == recursive_print_term(t)
    assert print_term(QUOTED[0]) == '"p(x, y)"' and print_term(QUOTED[1]) == "p(x, y)"
    assert print_term(QUOTED[2]) == '("a b", "c->d", "#")'
    assert print_term(QUOTED[4]) == '("c d", cd, "")'


def test_memo_formats_each_name_once():
    """``format_name`` keeps what it wrote for the process: printing the
    terms with a memo, equal terms built apart, and the terms again with
    no memo formats each name once."""
    format_name.cache_clear()
    memo = {}
    for t in [*QUOTED, *POOL]:
        print_term(t, memo)
        # equal terms built apart are other objects, with the same names
        print_term(_rebuild(t), memo)
        print_term(t)
    info = format_name.cache_info()
    assert info.misses == info.currsize == len(_names([*QUOTED, *POOL]))
    assert info.maxsize is not None and info.currsize < info.maxsize


def test_name_with_double_quote_is_refused():
    with pytest.raises(CoalgError, match="double quote"):
        print_term(TupleTerm((ConstElem('a"b'),)), {})


def test_memo_prints_equal_terms_built_apart_alike():
    memo = {}
    first = TupleTerm((Inj(0, Var("*", "x")), BOT_TERM))
    second = TupleTerm((Inj(0, Var("*", "x")), ConstElem(BOT_TERM.name)))
    assert first == second and first is not second
    assert print_term(first, memo) == print_term(second, memo) == print_term(first)


def test_memo_keeps_its_terms_so_no_id_is_reused():
    memo = {}
    for i in range(50):
        # each term dies after it is printed, unless the memo keeps it
        t = TupleTerm((Var("*", f"a{i}"), Inj(i % 2, ConstElem(f"c{i}"))))
        print_term(t, memo)
        del t
        gc.collect()
    for i in range(50):
        fresh = [TupleTerm((Var("*", f"b{i}{j}"), ConstElem(f"d{j}"))) for j in range(3)]
        for t in fresh:
            assert print_term(t, memo) == print_term(t) == recursive_print_term(t)


@pytest.mark.parametrize("kind", [lambda t: Inj(0, t), lambda t: TupleTerm((t, BOT_TERM)), lambda t: AnSym("s", (t,))],
                         ids=["inj", "tuple", "ansym"])
def test_too_deep_terms_refused_with_and_without_memo(kind):
    memo = {}
    t = UNIT_TERM
    for _ in range(MAX_PRINT_DEPTH):
        t = kind(t)
        # prints: each subterm of t is already in the memo
        print_term(t, memo)
    deeper = kind(t)
    with pytest.raises(TermError, match="nest too deeply"):
        print_term(deeper, memo)
    with pytest.raises((TermError, RecursionError)):
        print_term(deeper)


@pytest.mark.parametrize("value", [(4, "x", ()), "x", Term((9,)), Term(())],
                         ids=["plain-tuple", "str", "unknown-kind", "no-kind"])
def test_printer_fails_closed_on_a_value_that_is_no_term(value):
    # a plain tuple carrying a kind tag is still no term, and a Term whose
    # kind tag is none of the printer's is named without the printer
    with pytest.raises(TermError, match="unknown term"):
        print_term(value)
    with pytest.raises(TermError, match="unknown term"):
        print_term(TupleTerm((value,)), {})


def test_trace_memo_holds_one_entry_per_subterm_object():
    system = parse_coalgebra((COMPOSE / "trace_enum_tree.model").read_text())
    # printed depth by depth through one memo, as the trace verb does
    memo = {}
    printed = [(t, print_term(t, memo))
               for _d, items in trace(system, 5).per_depth for _key, terms in items for t in terms]
    for t, text in printed:
        assert text == recursive_print_term(t)
    subterms = {}
    stack = [t for t, _text in printed]
    while stack:
        t = stack.pop()
        subterms[id(t)] = t
        stack.extend(_children(t))
    # one key per distinct subterm object, and no other
    assert set(memo) == set(subterms)
    size = len(memo)
    for t, text in printed:
        assert print_term(t, memo) is text
    assert len(memo) == size
