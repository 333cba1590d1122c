"""The one-regex tokenizer and the index-based term parser against the
character loop and the token stream they replaced (``oracles``): equal
tokens and terms, or the same error message and line number."""

import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from coalgpath.functors import BOT, CHECK, eval_functor, functor
from coalgpath.modelio import (
    GLYPH_ASCII,
    ModelParseError,
    parse_functor_text,
    parse_term_text,
    print_term_for,
    tokenize,
)
from coalgpath.sets import DEFAULT_SORT, SortedSet
from conftest import MULTISORTED, SYSTEM_FUNCTORS
from oracles import char_loop_tokenize, stream_parse_term_text


def _ascii(text):
    for glyph, alias in GLYPH_ASCII.items():
        text = text.replace(glyph, alias)
    return text


# the harness functors, the two-sorted one, one whose bare term q0 fits
# two coproduct branches, and one whose bare term ⊥ fits the state ⊥ and
# the added point
ORACLE_FUNCTORS = [
    *SYSTEM_FUNCTORS,
    functor(parse_functor_text("coprod(const(c q0), id)")),
    functor(parse_functor_text("plus1(id)")),
]
ORACLE_CARRIERS = {
    (DEFAULT_SORT,): SortedSet.single(["q0", "q1", "p q", "in0", CHECK, BOT]),
    MULTISORTED.sorts: SortedSet.make({"a": ["a0", "a1"], "b": ["b0", "p q"]}, MULTISORTED.sorts),
}
# every printed term of every functor over its carrier, with its sort,
# and again with the glyphs written as their ASCII aliases
ORACLE_TERMS = [
    (f, sort, text)
    for f in ORACLE_FUNCTORS
    for sort, terms in eval_functor(f, ORACLE_CARRIERS[f.sorts]).items()
    for t in terms
    for text in sorted({print_term_for(f, sort, t), _ascii(print_term_for(f, sort, t))})
]
TOKEN_RE = re.compile(r"\s+|\w+|.", re.S)
VOCABULARY = sorted(
    {t for _f, _s, text in ORACLE_TERMS for t in TOKEN_RE.findall(text)}
    | {'"', '""', '"p q"', '"(', "in0", "in1", "in2", "in9", "?", "@", " ", "\t", "ok", "bot", "unit", BOT, CHECK,
       ",", "(", ")", "{", "}", ";", "=", "zz", "pair", "leaf", "q0", "b0", "x", "y", "c"}
)


def _tokens(tokenizer, text):
    """The tokens of ``text``, or the error message and line number."""
    try:
        return tokenizer(text, 3)
    except ModelParseError as exc:
        return str(exc), exc.line


def _outcome(tokenizer, parser, text, node, carrier):
    """The tokens of ``text`` and its term, or the error raised first."""
    tokens = _tokens(tokenizer, text)
    if isinstance(tokens, tuple):
        return tokens
    try:
        return tokens, parser(text, node, carrier, 3)
    except ModelParseError as exc:
        return tokens, str(exc), exc.line


def _assert_agree(f, sort, text):
    node, carrier = f.node(sort), ORACLE_CARRIERS[f.sorts]
    assert _outcome(tokenize, parse_term_text, text, node, carrier) == _outcome(
        char_loop_tokenize, stream_parse_term_text, text, node, carrier
    )


class TestAgainstTheStreamParser:
    def test_every_printed_term_reads_back(self):
        assert len(ORACLE_TERMS) > 50
        for f, sort, text in ORACLE_TERMS:
            _assert_agree(f, sort, text)
            term = parse_term_text(text, f.node(sort), ORACLE_CARRIERS[f.sorts])
            assert _ascii(print_term_for(f, sort, term)) == _ascii(text)

    @given(
        st.sampled_from(range(len(ORACLE_TERMS))),
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 10_000), st.sampled_from(VOCABULARY)), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    def test_mutated_terms(self, index, mutations):
        f, sort, text = ORACLE_TERMS[index]
        tokens = TOKEN_RE.findall(text)
        for delete, position, token in mutations:
            position %= len(tokens) + 1
            if delete and tokens:
                del tokens[min(position, len(tokens) - 1)]
            else:
                tokens.insert(position, token)
        _assert_agree(f, sort, "".join(tokens))

    @given(
        st.sampled_from(ORACLE_FUNCTORS),
        st.data(),
        st.lists(st.sampled_from(VOCABULARY), max_size=12),
    )
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def test_random_texts(self, f, data, tokens):
        _assert_agree(f, data.draw(st.sampled_from(f.sorts)), "".join(tokens))

    @given(st.text())
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def test_tokens_of_any_text(self, text):
        assert _tokens(tokenize, text) == _tokens(char_loop_tokenize, text)

    # arbitrary text rarely holds an arrow, a quote or a dot next to a
    # name: these texts draw mostly from the characters where tokens meet
    @given(st.text(st.sampled_from(["-", "-", ">", '"', ".", "#", "a", "0", " ", "("])))
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def test_tokens_of_text_dense_in_arrows_and_quotes(self, text):
        assert _tokens(tokenize, text) == _tokens(char_loop_tokenize, text)

    def test_whitespace_is_what_the_character_loop_skips(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]
